//! `ingest_durable`: a durable session over the counting Vfs, one client,
//! writes beside reads on one sliding-window table, periodic CHECKPOINTs,
//! then a crash that discards every unflushed byte, and recovery. The only
//! workload where the storage layer does most of the work.

use super::{
    overhead_ratio, plan_cache_metrics, untraced_metrics, Kind, RunOutput, TraceOutput, Workload,
};
use crate::countfs::{CountFs, FsCounts};
use crate::gen::{Generator, IngestGen, Reply, Scale, Stmt, INGEST_DDL, INGEST_PREPARE};
use crate::harness::{drive, Budget, Samples, Spans};
use crate::stats::median;
use mammoth_sql::{parse_sql, QueryOutput, Session, Statement};
use mammoth_storage::WalRecord;
use mammoth_types::{framing, Value};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Untimed blocks (25 statements each) run before measuring.
const WARMUP_BLOCKS: usize = 4;
/// Recoveries timed after the crash; `recovery_s` is their median.
const RECOVERIES: usize = 5;
const CHECKPOINT_CLASS: usize = 4;

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

pub struct Ingest {
    seed: u64,
    scale: Scale,
    dir: PathBuf,
    fs: Arc<CountFs>,
    /// `None` once the store has been crashed.
    session: Option<Session>,
    gen: IngestGen,
}

fn exec(session: &mut Session, stmt: &Stmt) -> Result<Reply, String> {
    session
        .execute(stmt.sql())
        .map(Into::into)
        .map_err(|e| e.to_string())
}

/// Load a session the way set-up does: DDL, the preload, the prepared
/// read. Returns the generator positioned after the preload.
fn load(session: &mut Session, seed: u64, scale: Scale) -> Result<IngestGen, String> {
    let mut gen = IngestGen::new(seed, scale);
    let preload = gen.preload_sql(scale.ingest_preload());
    for sql in [INGEST_DDL.to_string()]
        .into_iter()
        .chain(preload)
        .chain([INGEST_PREPARE.to_string()])
    {
        session.execute(&sql).map_err(|e| format!("load: {e}"))?;
    }
    Ok(gen)
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let dest = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &dest)?;
        } else {
            std::fs::copy(entry.path(), dest)?;
        }
    }
    Ok(())
}

struct Recovery {
    median_s: f64,
    replay_rows_per_s: f64,
    lost_bytes: u64,
}

impl Ingest {
    fn session(&mut self) -> &mut Session {
        self.session
            .as_mut()
            .expect("the store has not been crashed yet")
    }

    fn timed(&mut self, budget: Budget) -> (Samples, f64, FsCounts, u64) {
        let (before, user_before) = (self.fs.counts(), self.gen.user_bytes);
        let session = self.session.as_mut().expect("not crashed yet");
        let t0 = Instant::now();
        let samples = drive(&mut self.gen, &mut |s: &Stmt| exec(session, s), budget);
        let wall = t0.elapsed().as_secs_f64();
        (
            samples,
            wall,
            self.fs.counts().since(&before),
            self.gen.user_bytes - user_before,
        )
    }

    /// Drop the session without a clean shutdown, cut every file back to
    /// its last fsync, then time recovery on copies of what is left and
    /// audit the recovered table against the model: every acknowledged
    /// row must be there.
    fn crash_and_recover(&mut self, samples: &mut Samples) -> Result<Recovery, String> {
        drop(self.session.take());
        let lost_bytes = self.fs.crash().map_err(|e| format!("crash: {e}"))?;
        let (acked_rows, acked_sum) = (self.gen.live_rows(), self.gen.live_sum());
        let mut times = Vec::with_capacity(RECOVERIES);
        let mut replay_rows_per_s = 0.0;
        for i in 0..RECOVERIES {
            let copy = self.dir.with_extension(format!("copy{i}"));
            let _ = std::fs::remove_dir_all(&copy);
            copy_dir(&self.dir, &copy).map_err(|e| format!("copying the store: {e}"))?;
            if i == 0 {
                // the storage layer's share of recovery, on its own
                let t = Instant::now();
                let rec = mammoth_storage::recover(&copy).map_err(|e| format!("recover: {e}"))?;
                replay_rows_per_s = rec.wal_records as f64 / t.elapsed().as_secs_f64();
                std::fs::remove_dir_all(&copy).map_err(|e| e.to_string())?;
                copy_dir(&self.dir, &copy).map_err(|e| format!("copying the store: {e}"))?;
            }
            let t = Instant::now();
            let mut recovered =
                Session::open_durable(copy.clone()).map_err(|e| format!("recovery: {e}"))?;
            times.push(t.elapsed().as_secs_f64());
            let audit = recovered
                .execute("SELECT COUNT(*), SUM(v) FROM ev")
                .map_err(|e| format!("post-recovery audit: {e}"))?;
            let got = match audit {
                QueryOutput::Table { rows, .. } => match rows.first().map(Vec::as_slice) {
                    Some([Value::I64(n), Value::I64(sum)]) => (*n, *sum),
                    other => return Err(format!("audit returned {other:?}")),
                },
                other => return Err(format!("audit returned {other:?}")),
            };
            if got != (acked_rows, acked_sum) {
                samples.fail(format!(
                    "after crash recovery {i}: acknowledged (rows, sum) = \
                     {:?} but recovered {got:?}",
                    (acked_rows, acked_sum)
                ));
            }
            drop(recovered);
            std::fs::remove_dir_all(&copy).map_err(|e| e.to_string())?;
        }
        Ok(Recovery {
            median_s: median(&times),
            replay_rows_per_s,
            lost_bytes,
        })
    }

    /// Replay on a fresh in-memory session: `catch_up` blocks to reach the
    /// table state the traced pass started from, then the traced pass's
    /// own `blocks` with a span around each INSERT.
    fn twin_pass(
        &self,
        catch_up: usize,
        blocks: usize,
        spans: &mut Spans,
    ) -> Result<Samples, String> {
        /// What a CHECKPOINT leaves behind in memory: deltas folded into
        /// the base columns. Without it the twin's deltas would grow
        /// without bound and its INSERTs would not compare.
        fn fold(twin: &mut Session) -> Result<Reply, String> {
            let table = twin.catalog_mut().table_mut("ev");
            table.map_err(|e| e.to_string())?.merge_all();
            Ok(Reply::Ok)
        }
        fn twin_exec(twin: &mut Session, s: &Stmt) -> Result<Reply, String> {
            if s.class == CHECKPOINT_CLASS {
                return fold(twin);
            }
            exec(twin, s)
        }
        let mut twin = Session::new();
        let mut gen = load(&mut twin, self.seed, self.scale)?;
        fold(&mut twin)?;
        let mut samples = drive(
            &mut gen,
            &mut |s: &Stmt| twin_exec(&mut twin, s),
            Budget::Blocks(catch_up),
        );
        let mut id = 0u32;
        samples.merge(drive(
            &mut gen,
            &mut |s: &Stmt| {
                id += 1;
                if s.class <= 1 {
                    spans
                        .record("sql.dml_apply", id - 1, -1, || twin_exec(&mut twin, s))
                        .0
                } else {
                    twin_exec(&mut twin, s)
                }
            },
            Budget::Blocks(blocks),
        ));
        Ok(samples)
    }

    fn notes(&self, checkpoints: usize, lost_bytes: u64) -> Vec<String> {
        vec![
            format!(
                "clients=1 flush_policy=wal_batch-1 (fsync per statement, the default) \
                 checkpoint_every={} statements, {checkpoints} completed in the timed phase",
                self.scale.checkpoint_every()
            ),
            format!(
                "crash discarded {lost_bytes} unflushed bytes; recovery timed on {RECOVERIES} copies"
            ),
        ]
    }
}

impl Workload for Ingest {
    fn setup(_kind: Kind, seed: u64, scale: Scale) -> Result<Ingest, String> {
        let dir = crate::out_dir().join(format!(
            "ingest-{}-{}",
            std::process::id(),
            NEXT_DIR.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let fs = Arc::new(CountFs::new());
        let mut session =
            Session::open_durable_with(fs.clone(), dir.clone()).map_err(|e| e.to_string())?;
        let gen = load(&mut session, seed, scale)?;
        session.execute("CHECKPOINT").map_err(|e| e.to_string())?;
        let mut ingest = Ingest {
            seed,
            scale,
            dir,
            fs,
            session: Some(session),
            gen,
        };
        let warm = ingest.timed(Budget::Blocks(WARMUP_BLOCKS)).0;
        match warm.first_failure {
            Some(why) => Err(format!("warm-up: {why}")),
            None => Ok(ingest),
        }
    }

    fn run(&mut self, budget: Budget) -> RunOutput {
        let (mut samples, wall_s, io, user_bytes) = self.timed(budget);
        let steady = samples.steady();
        let checkpoints = samples
            .class
            .iter()
            .filter(|&&c| c as usize == CHECKPOINT_CLASS)
            .count();
        let mut extras = vec![(
            "write_amp (bytes to Vfs::append + write_file / user bytes)",
            (io.append_bytes + io.write_bytes) as f64 / user_bytes as f64,
        )];
        let mut lost = 0;
        match self.crash_and_recover(&mut samples) {
            Ok(r) => {
                extras.push(("recovery_s", r.median_s));
                lost = r.lost_bytes;
            }
            Err(e) => samples.fail(e),
        }
        RunOutput {
            steady,
            samples,
            clients: 1,
            wall_s,
            extras,
            notes: self.notes(checkpoints, lost),
        }
    }

    fn trace(&mut self, budget: Budget, spans: &mut Spans) -> TraceOutput {
        // An insert cannot be replayed on the table it already changed, so
        // the traced pass runs the blocks that *follow* the untraced ones:
        // same mix, same row counts, fresh keys.
        let per_pass = budget.split(4);
        let (untraced, _, io_a, user_a) = self.timed(per_pass);
        let blocks = Budget::Blocks(untraced.blocks);

        let start = self.gen.clone();
        let fs = self.fs.clone();
        let (io_before, user_before) = (fs.counts(), self.gen.user_bytes);
        let cache_before = self.session().plan_cache_stats();
        let session = self.session.as_mut().expect("not crashed yet");
        let mut id = 0u32;
        let traced = drive(
            &mut self.gen,
            &mut |s: &Stmt| {
                let before = fs.counts();
                let name = if s.class == CHECKPOINT_CLASS {
                    "storage.checkpoint"
                } else {
                    "sql.session"
                };
                let (r, span) = spans.record(name, id, -1, || exec(session, s));
                let io = fs.counts().since(&before);
                // the Vfs timed these calls itself, inside the span above
                if s.class != CHECKPOINT_CLASS && io.appends > 0 {
                    spans.add_measured("storage.append", id, span, io.append_ns);
                    spans.add_measured("storage.fsync", id, span, io.sync_ns);
                }
                id += 1;
                r
            },
            blocks,
        );
        let io_b = fs.counts().since(&io_before);
        let user_b = self.gen.user_bytes - user_before;
        let cache_after = self.session().plan_cache_stats();

        // the same statements on an in-memory twin (no WAL, no fsync):
        // what applying the DML costs the SQL layer alone
        let mut all = Samples::default();
        match self.twin_pass(WARMUP_BLOCKS + untraced.blocks, traced.blocks, spans) {
            Ok(s) => all.merge(s),
            Err(e) => all.fail(format!("in-memory twin: {e}")),
        }

        // staged: parse the INSERTs and encode + frame their WAL records
        let mut gen = start;
        let mut id = 0u32;
        for _ in 0..traced.blocks {
            for stmt in gen.next_block() {
                if stmt.class <= 1 {
                    let (parsed, _) = spans.record("sql.parse", id, -1, || parse_sql(stmt.sql()));
                    if let Ok(Statement::Insert { table, rows }) = parsed {
                        spans.record("storage.wal_encode", id, -1, || {
                            let mut log = Vec::new();
                            for row in &rows {
                                let row: Vec<Value> =
                                    row.iter().filter_map(|s| s.as_lit().cloned()).collect();
                                let mut payload = Vec::new();
                                WalRecord::Insert {
                                    table: table.clone(),
                                    row,
                                }
                                .encode(&mut payload);
                                framing::frame_into(&payload, &mut log);
                            }
                            std::hint::black_box(log.len())
                        });
                    }
                }
                id += 1;
            }
        }

        let stmts = traced.attempted() as f64;
        let checkpoints = traced
            .class
            .iter()
            .filter(|&&c| c as usize == CHECKPOINT_CLASS)
            .count();
        let mut metrics = untraced_metrics(Kind::IngestDurable, &untraced);
        let p50 = |n: &str| spans.p50_us(n);
        metrics.extend([
            ("sql.parse_us".to_string(), p50("sql.parse")),
            ("sql.dml_apply_us".into(), p50("sql.dml_apply")),
            ("storage.wal_encode_us".into(), p50("storage.wal_encode")),
            ("storage.append_us".into(), p50("storage.append")),
            ("storage.fsync_us".into(), p50("storage.fsync")),
            (
                "storage.checkpoint_ms".into(),
                p50("storage.checkpoint") / 1e3,
            ),
            ("storage.fsyncs_per_stmt".into(), io_b.syncs as f64 / stmts),
            (
                "storage.writes_per_stmt".into(),
                (io_b.appends + io_b.writes) as f64 / stmts,
            ),
            (
                "storage.wal_bytes_per_stmt".into(),
                io_b.append_bytes as f64 / stmts,
            ),
            (
                "storage.write_amp".into(),
                (io_a.append_bytes + io_a.write_bytes + io_b.append_bytes + io_b.write_bytes)
                    as f64
                    / (user_a + user_b) as f64,
            ),
            (
                "trace_overhead_ratio".into(),
                overhead_ratio(&untraced, &traced),
            ),
        ]);
        if checkpoints > 0 {
            metrics.push((
                "storage.checkpoint_bytes".into(),
                io_b.write_bytes as f64 / checkpoints as f64,
            ));
        }
        metrics.extend(plan_cache_metrics(cache_before, cache_after));

        all.merge(untraced);
        all.merge(traced);
        let mut lost = 0;
        match self.crash_and_recover(&mut all) {
            Ok(r) => {
                metrics.push(("storage.recovery_s".into(), r.median_s));
                metrics.push(("storage.replay_rows_per_s".into(), r.replay_rows_per_s));
                lost = r.lost_bytes;
            }
            Err(e) => all.fail(e),
        }
        TraceOutput {
            samples: all,
            metrics,
            notes: self.notes(checkpoints, lost),
        }
    }

    fn teardown(self) -> Result<(), String> {
        drop(self.session);
        std::fs::remove_dir_all(&self.dir).map_err(|e| e.to_string())
    }
}
