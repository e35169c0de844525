//! Durability: the WAL and checkpoint side of a [`Session`].

use super::explain::{export_profile, trace_env_on};
use super::Session;
use mammoth_mal::{EventKind, ProfiledRun, TraceEvent};
use mammoth_storage::{persist, Vfs, Wal};
use mammoth_types::{Error, Result};
use std::path::PathBuf;
use std::sync::Arc;

/// The crash-safety state of a durable session: the VFS it performs file
/// operations through, the root directory, and the open redo log.
pub(super) struct Durability {
    fs: Arc<dyn Vfs>,
    root: PathBuf,
    wal: Wal,
}

impl Session {
    pub(super) fn attach_durable(&mut self, fs: Arc<dyn Vfs>, root: PathBuf) -> Result<()> {
        let rec = persist::recover_vfs(fs.as_ref(), &root)?;
        let mut wal = rec.open_wal(Arc::clone(&fs))?;
        let tracing = trace_env_on();
        wal.set_tracing(tracing);
        self.catalog = rec.catalog;
        // compiled plans were proven against the pre-recovery catalog
        self.plan_cache.lock().unwrap().clear();
        // the statistics are derived state: the recovered tables are their
        // one source, as at every CHECKPOINT
        self.rebuild_stats(&self.catalog.image());
        self.durable = Some(Durability { fs, root, wal });
        if tracing {
            self.export_durability_events(vec![TraceEvent {
                kind: EventKind::Recover,
                op: "recover".to_string(),
                args: format!(
                    "ckpt-{} + {} wal records{}",
                    rec.gen,
                    rec.wal_records,
                    if rec.tail_discarded {
                        ", torn tail discarded"
                    } else {
                        ""
                    }
                ),
                rows_in: rec.wal_records as u64,
                ..TraceEvent::default()
            }]);
        }
        Ok(())
    }

    /// Whether this session persists through a WAL.
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// Group-commit batch size: records per fsync (default 1 = commit at
    /// every statement boundary). Larger batches trade the durability of
    /// the last `n-1` acknowledged records for fewer fsyncs. Returns
    /// `&mut Self` so configuration chains builder-style, consistent with
    /// [`Session::with_executor`].
    pub fn set_wal_batch(&mut self, n: usize) -> &mut Self {
        if let Some(d) = &mut self.durable {
            d.wal.set_batch(n);
        }
        self
    }

    /// Fold the current catalog into a fresh atomic checkpoint and start a
    /// new (empty) WAL generation. The flip is atomic: a crash at any point
    /// leaves the store wholly on the old generation or wholly on the new.
    pub fn checkpoint(&mut self) -> Result<()> {
        if self.durable.is_none() {
            return Err(Error::Unsupported(
                "CHECKPOINT requires a durable session (Session::open_durable)".into(),
            ));
        }
        // every column compacted, once: what the checkpoint writes, what
        // the statistics are rebuilt from and — once it is on disk — the
        // tables' new bases
        let image = self.catalog.image();
        // fold the statistics: a deterministic rebuild from the live
        // columns squashes the approximation drift the incremental DML
        // maintenance accumulated
        self.rebuild_stats(&image);
        let d = self.durable.as_mut().unwrap();
        d.wal.commit()?;
        let (gen, wal_path) = persist::checkpoint_image(d.fs.as_ref(), &image, &d.root)?;
        let mut wal = Wal::open(Arc::clone(&d.fs), wal_path)?;
        let tracing = trace_env_on();
        wal.set_tracing(tracing);
        d.wal = wal;
        // the image just written is compacted: deltas folded into the base,
        // positions renumbered. Fold the live tables onto it, so the
        // positions in post-checkpoint WAL records mean the same thing
        // online and on replay.
        self.catalog.adopt_image(image);
        if tracing {
            self.export_durability_events(vec![TraceEvent {
                kind: EventKind::Checkpoint,
                op: "checkpoint".to_string(),
                args: format!("ckpt-{gen}"),
                ..TraceEvent::default()
            }]);
        }
        Ok(())
    }

    /// Append redo records for the statement being executed: `log` frames
    /// them into the open WAL, from the statement's own data. On any append
    /// failure the partial batch is rolled back so the log never holds half
    /// a statement. An in-memory session never calls `log`, so it builds no
    /// records at all.
    pub(super) fn wal_write(&mut self, log: impl FnOnce(&mut Wal) -> Result<()>) -> Result<()> {
        let Some(d) = &mut self.durable else {
            return Ok(());
        };
        log(&mut d.wal).inspect_err(|_| d.wal.rollback_pending())
    }

    /// Commit the statement's records (fsync, unless group commit is still
    /// batching) and flush any pending durability trace events.
    pub(super) fn wal_commit_statement(&mut self) -> Result<()> {
        let Some(d) = &mut self.durable else {
            return Ok(());
        };
        let res = d.wal.statement_boundary();
        let events = d.wal.take_events();
        self.export_durability_events(events);
        res
    }

    /// Export durability trace events (WAL appends, checkpoints, recovery)
    /// as an `engine: "durability"` run on the `MAMMOTH_TRACE` sink.
    fn export_durability_events(&mut self, events: Vec<TraceEvent>) {
        if events.is_empty() {
            return;
        }
        let mut run = ProfiledRun::new("durability", 1);
        run.events = events;
        export_profile(&run);
    }
}
