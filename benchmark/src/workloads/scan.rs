//! `scan_serial` and `scan_dataflow`: an in-process, in-memory session over
//! a table three times a core's L2 cache, one client. Execution does nearly all
//! the work; the front end, the plan cache and the wire do almost none.

use super::staged::{self, Engine, OpProfile, StagedOpts};
use super::{
    overhead_ratio, parallelism, untraced_metrics, Kind, RunOutput, TraceOutput, Workload,
};
use crate::gen::{Generator, Scale, ScanData, ScanGen, Stmt};
use crate::harness::{drive, Budget, Spans};
use crate::stats::median;
use mammoth_algebra::{
    aggregate_scalar, fetch_join, group_by, hash_join, select_cmp, AggKind, CmpOp,
};
use mammoth_parallel::ParallelExecutor;
use mammoth_sql::Session;
use mammoth_storage::{Bat, Table};
use mammoth_types::{ColumnDef, LogicalType, TableSchema, Value};
use std::sync::Arc;
use std::time::Instant;

/// Untimed blocks (7 statements each) run before measuring.
const WARMUP_BLOCKS: usize = 8;

pub struct Scan {
    kind: Kind,
    engine: Engine,
    session: Session,
    gen: ScanGen,
    rows: usize,
}

fn i64_table(name: &str, cols: Vec<(&str, Vec<i64>)>) -> Result<Table, String> {
    let schema = TableSchema::new(
        name,
        cols.iter()
            .map(|(c, _)| ColumnDef::new(*c, LogicalType::I64))
            .collect(),
    );
    let bats = cols.into_iter().map(|(_, v)| Bat::from_vec(v)).collect();
    Table::from_bats(schema, bats).map_err(|e| e.to_string())
}

impl Workload for Scan {
    fn setup(kind: Kind, seed: u64, scale: Scale) -> Result<Scan, String> {
        let (cols, data) = ScanData::generate(seed, scale);
        let rows = cols.a.len();
        // exactly what `Database::with_engine` builds for each engine
        let (engine, mut session) = match kind {
            Kind::ScanDataflow => {
                let threads = parallelism();
                let pieces = threads.max(2);
                let session =
                    Session::new().with_executor(Box::new(ParallelExecutor::new(threads)), pieces);
                (Engine::Dataflow { threads, pieces }, session)
            }
            _ => (Engine::Serial, Session::new()),
        };
        // bulk load: 2^18 rows through INSERT statements would measure
        // the loader, not the scans
        let fact = i64_table("fact", vec![("a", cols.a), ("b", cols.b), ("k", cols.k)])?;
        let dim = i64_table("dim", vec![("k", cols.dim)])?;
        for t in [fact, dim] {
            session
                .catalog_mut()
                .create_table(t)
                .map_err(|e| e.to_string())?;
        }
        let mut scan = Scan {
            kind,
            engine,
            session,
            gen: ScanGen::new(Arc::new(data), seed),
            rows,
        };
        let warm = scan.run(Budget::Blocks(WARMUP_BLOCKS)).samples;
        match warm.first_failure {
            Some(why) => Err(format!("warm-up: {why}")),
            None => Ok(scan),
        }
    }

    fn run(&mut self, budget: Budget) -> RunOutput {
        let session = &mut self.session;
        let t0 = Instant::now();
        let samples = drive(
            &mut self.gen,
            &mut |s: &Stmt| {
                session
                    .execute(s.sql())
                    .map(Into::into)
                    .map_err(|e| e.to_string())
            },
            budget,
        );
        let mut notes = vec![format!("clients=1 engine={:?}", self.engine)];
        if self.kind == Kind::ScanDataflow && parallelism() < 2 {
            notes.push("nproc < 2: scan_dataflow is mechanism-only, not a scaling result".into());
        }
        RunOutput {
            steady: samples.steady(),
            samples,
            clients: 1,
            wall_s: t0.elapsed().as_secs_f64(),
            extras: Vec::new(),
            notes,
        }
    }

    fn trace(&mut self, budget: Budget, spans: &mut Spans) -> TraceOutput {
        // five passes over the same statements share the time budget
        let per_pass = budget.split(5);
        let start = self.gen.clone();
        let untraced = self.run(per_pass);
        let blocks = Budget::Blocks(untraced.samples.blocks);

        // level 2: the session, one span per statement
        let session = &mut self.session;
        let mut gen = start.clone();
        let session_base = spans.rows.len() as i64;
        let mut id = 0u32;
        let traced = drive(
            &mut gen,
            &mut |s: &Stmt| {
                let (r, _) = spans.record("sql.session", id, -1, || session.execute(s.sql()));
                id += 1;
                r.map(Into::into).map_err(|e| e.to_string())
            },
            blocks,
        );

        // level 1: the staged public calls, children of the session span
        // of the same statement
        let cat = self.session.catalog();
        let opts = StagedOpts {
            engine: self.engine,
            wire: false,
            front_end: true,
        };
        let mut gen = start.clone();
        let mut id = 0u32;
        let staged = drive(
            &mut gen,
            &mut |s: &Stmt| {
                let parent = session_base + id as i64;
                let r = staged::run_select(spans, id, parent, cat, s.sql(), opts);
                id += 1;
                r.map(|(reply, _)| reply)
            },
            blocks,
        );

        // the engines' own per-instruction profilers, and the costs folded
        // inside mal.optimize
        let mut profile = OpProfile::default();
        let mut gen = start;
        let mut errors = Vec::new();
        for id in 0..untraced.samples.attempted() as u32 {
            let stmt = gen.next_stmt();
            let sql = stmt.sql();
            let r = staged::profile_select(cat, sql, self.engine, &mut profile)
                .and_then(|()| staged::time_verify_and_mitosis(spans, id, cat, sql, self.engine));
            errors.extend(r.err());
        }

        let mut metrics = untraced_metrics(self.kind, &untraced.samples);
        let stage_names = [
            "sql.parse",
            "sql.compile",
            "mal.optimize",
            "mal.execute",
            "sql.render",
        ];
        let session_p50 = spans.p50_us("sql.session");
        let staged_sum: f64 = stage_names.iter().map(|n| spans.p50_us(n)).sum();
        for name in stage_names.into_iter().chain(["mal.verify"]) {
            metrics.push((format!("{name}_us"), spans.p50_us(name)));
        }
        metrics.push(("sql.session_other_us".into(), session_p50 - staged_sum));
        metrics.push((
            "mal.execute_share".into(),
            spans.total_s("mal.execute") / spans.total_s("sql.session"),
        ));
        for (fam, v) in profile.ns_per_row() {
            metrics.push((format!("mal.op.{fam}_ns_per_row"), v));
        }
        if let Engine::Dataflow { pieces, .. } = self.engine {
            let runs: Vec<f64> = profile.run_ns.iter().map(|&n| n as f64 / 1e3).collect();
            metrics.push(("mal.mitosis_us".into(), spans.p50_us("mal.mitosis")));
            metrics.push(("parallel.run_us".into(), median(&runs)));
            metrics.push(("parallel.busy_share".into(), profile.busy_share()));
            metrics.push(("parallel.max_inflight".into(), profile.max_inflight as f64));
            metrics.push(("parallel.pieces".into(), pieces as f64));
        }
        metrics.extend(self.bare_kernels());
        metrics.push((
            "trace_overhead_ratio".into(),
            overhead_ratio(&untraced.samples, &traced),
        ));

        let mut samples = untraced.samples;
        samples.merge(traced);
        samples.merge(staged);
        for e in errors {
            samples.fail(format!("profiled pass: {e}"));
        }
        TraceOutput {
            samples,
            metrics,
            notes: untraced.notes,
        }
    }

    fn teardown(self) -> Result<(), String> {
        Ok(())
    }
}

impl Scan {
    /// `algebra.*`: the bare kernels on the `fact` columns, no plan, no
    /// interpreter — the numbers a memory-hierarchy cost model predicts.
    fn bare_kernels(&self) -> Vec<(String, f64)> {
        let cat = self.session.catalog();
        let col = |t: &str, c: &str| -> Arc<Bat> {
            let table = cat.table(t).expect("loaded in setup");
            Arc::clone(table.column_by_name(c).expect("loaded in setup").base())
        };
        let (a, b, k, dim) = (
            col("fact", "a"),
            col("fact", "b"),
            col("fact", "k"),
            col("dim", "k"),
        );
        let n = self.rows as f64;
        let cut = Value::I64(self.rows as i64 * 3 / 10);
        let cands = select_cmp(&a, CmpOp::Lt, &cut).expect("i64 column");
        let selected = cands.len() as f64;
        // median of three runs each, in ns per input row
        let time = |rows: f64, f: &dyn Fn()| {
            let runs: Vec<f64> = (0..3)
                .map(|_| {
                    let t = Instant::now();
                    f();
                    t.elapsed().as_nanos() as f64 / rows
                })
                .collect();
            median(&runs)
        };
        let bb = std::hint::black_box::<&Bat>;
        vec![
            (
                "algebra.select_ns_per_row".into(),
                time(n, &|| {
                    std::hint::black_box(select_cmp(bb(&a), CmpOp::Lt, &cut).expect("i64"));
                }),
            ),
            (
                "algebra.project_ns_per_row".into(),
                time(selected, &|| {
                    std::hint::black_box(fetch_join(bb(&cands), bb(&b)).expect("aligned"));
                }),
            ),
            (
                "algebra.sum_ns_per_row".into(),
                time(n, &|| {
                    std::hint::black_box(aggregate_scalar(AggKind::Sum, bb(&b)).expect("i64"));
                }),
            ),
            (
                "algebra.group_ns_per_row".into(),
                time(n, &|| {
                    std::hint::black_box(group_by(bb(&b)).expect("i64"));
                }),
            ),
            (
                "algebra.hashjoin_ns_per_row".into(),
                time(n, &|| {
                    std::hint::black_box(hash_join(bb(&k), bb(&dim)).expect("i64").len());
                }),
            ),
        ]
    }
}
