//! One engine session shared by many connections.
//!
//! MonetDB's execution model (and ours, see `crates/sql`) is a single
//! `Session` owning the catalog. The server multiplexes N client
//! connections onto that one session with a small admission scheduler:
//!
//! * **Concurrent readers** — the statement is parsed before it is
//!   admitted, and what [`Statement::is_read`] says is a read
//!   (`SELECT`/`EXPLAIN`, the prepared-statement verbs) runs on the
//!   immutable [`Session::execute_read_stmt`] path under a shared lock, so
//!   any number can execute at once.
//! * **Single writer, writer preference** — mutating statements take the
//!   session exclusively. Once a writer is waiting, new readers queue
//!   behind it so a steady read load cannot starve updates.
//! * **Deadlines** — admission waits are bounded by the per-statement
//!   timeout. A statement that cannot get the session in time fails with
//!   [`ExecError::Timeout`] instead of camping on the queue. (Execution
//!   itself is run-to-completion: the engine has no preemption points, so
//!   the timeout bounds *queueing*, not *running* — docs/server.md spells
//!   this out.)
//! * **Poison recovery** — a statement that panics does not take the server
//!   down. The panic is caught, the session is rebuilt from its
//!   [`SessionSpec`] — for durable sessions that replays the WAL, so every
//!   *committed* statement survives — and the client gets
//!   [`ExecError::Poisoned`].

use mammoth_parallel::ParallelExecutor;
use mammoth_sql::{parse_sql, QueryOutput, Session, Statement, StatusProvider};
use mammoth_storage::Vfs;
use mammoth_types::{Error, Result};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Where the shared session keeps its data — the recipe for building it,
/// kept around so a poisoned session can be rebuilt from scratch.
#[derive(Clone)]
pub enum Storage {
    /// Catalog lives only in memory; a rebuild starts empty.
    InMemory,
    /// WAL + checkpoints under `root`; a rebuild recovers committed state.
    Durable { root: PathBuf },
    /// Durable through an explicit VFS (fault injection in tests).
    DurableVfs { fs: Arc<dyn Vfs>, root: PathBuf },
}

/// The full recipe for (re)building the engine session.
#[derive(Clone)]
pub struct SessionSpec {
    pub storage: Storage,
    /// Group-commit batch for the WAL (durable sessions only).
    pub wal_batch: Option<usize>,
    /// Delta-merge threshold override.
    pub merge_threshold: Option<usize>,
    /// `EXPLAIN REPLICATION` callback, carried in the spec so poison
    /// rebuilds preserve it (a rebuilt replica session still reports lag).
    pub status_provider: Option<StatusProvider>,
    /// Run SELECTs on the dataflow engine with this many worker threads
    /// (`Engine::Parallel` for a networked shard). `None` = serial.
    pub parallel: Option<usize>,
}

impl SessionSpec {
    pub fn in_memory() -> SessionSpec {
        SessionSpec {
            storage: Storage::InMemory,
            wal_batch: None,
            merge_threshold: None,
            status_provider: None,
            parallel: None,
        }
    }

    pub fn durable(root: impl Into<PathBuf>) -> SessionSpec {
        SessionSpec {
            storage: Storage::Durable { root: root.into() },
            wal_batch: None,
            merge_threshold: None,
            status_provider: None,
            parallel: None,
        }
    }

    pub fn durable_with(fs: Arc<dyn Vfs>, root: impl Into<PathBuf>) -> SessionSpec {
        SessionSpec {
            storage: Storage::DurableVfs {
                fs,
                root: root.into(),
            },
            wal_batch: None,
            merge_threshold: None,
            status_provider: None,
            parallel: None,
        }
    }

    /// Build a fresh session per the recipe. For durable storage this runs
    /// recovery, so the result reflects every committed statement.
    pub fn build(&self) -> Result<Session> {
        let mut s = match &self.storage {
            Storage::InMemory => Session::new(),
            Storage::Durable { root } => Session::open_durable(root.clone())?,
            Storage::DurableVfs { fs, root } => {
                Session::open_durable_with(fs.clone(), root.clone())?
            }
        };
        if let Some(n) = self.wal_batch {
            s.set_wal_batch(n);
        }
        if let Some(rows) = self.merge_threshold {
            s.set_merge_threshold(rows);
        }
        if let Some(p) = &self.status_provider {
            s.set_status_provider(p.clone());
        }
        if let Some(threads) = self.parallel {
            let threads = threads.max(1);
            s = s.with_executor(Box::new(ParallelExecutor::new(threads)), threads.max(2));
        }
        Ok(s)
    }
}

/// How a statement can fail at the shared-session layer.
#[derive(Debug)]
pub enum ExecError {
    /// Missed the admission deadline; the statement never ran.
    Timeout,
    /// The statement panicked mid-execution. The session has been rebuilt
    /// from its spec (committed state recovered for durable sessions); the
    /// statement must be considered not applied.
    Poisoned,
    /// The SQL layer rejected or failed the statement; the session is fine.
    Engine(Error),
    /// The session panicked *and* the rebuild failed. The shared session is
    /// unrecoverable; every later statement also gets `Fatal`.
    Fatal(String),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Timeout => write!(f, "statement timed out waiting for the session"),
            ExecError::Poisoned => {
                write!(
                    f,
                    "statement panicked; session rebuilt from committed state"
                )
            }
            ExecError::Engine(e) => write!(f, "{e}"),
            ExecError::Fatal(m) => write!(f, "session unrecoverable: {m}"),
        }
    }
}

struct Sched {
    readers: usize,
    writer: bool,
    writers_waiting: usize,
    /// Bumped each time the session is rebuilt after a poisoning panic.
    generation: u64,
    /// Set when a rebuild failed; the session is gone for good.
    broken: Option<String>,
}

/// The shared, recoverable session. `Send + Sync`; workers call
/// [`SharedSession::execute`] concurrently.
pub struct SharedSession {
    session: RwLock<Session>,
    sched: Mutex<Sched>,
    cv: Condvar,
    spec: SessionSpec,
    stmt_timeout: Option<Duration>,
    /// Honor the `__PANIC__` test statement (fault injection for the
    /// poison-recovery tests; never enabled by default).
    test_panics: bool,
}

impl SharedSession {
    pub fn new(spec: SessionSpec, stmt_timeout: Option<Duration>) -> Result<SharedSession> {
        let session = spec.build()?;
        Ok(SharedSession {
            session: RwLock::new(session),
            sched: Mutex::new(Sched {
                readers: 0,
                writer: false,
                writers_waiting: 0,
                generation: 0,
                broken: None,
            }),
            cv: Condvar::new(),
            spec,
            stmt_timeout,
            test_panics: false,
        })
    }

    /// Enable the `__PANIC__` statement (tests only).
    pub fn enable_test_panics(mut self) -> SharedSession {
        self.test_panics = true;
        self
    }

    /// How many times the session has been rebuilt after a panic.
    pub fn generation(&self) -> u64 {
        self.locked().generation
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, Sched> {
        // A panic while holding the sched mutex cannot happen (the critical
        // sections only touch counters), but inherit-on-poison is the right
        // behavior regardless: the counters are always consistent.
        self.sched.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Wait for an execution slot. Readers defer to waiting writers;
    /// `deadline` bounds the wait.
    fn admit(&self, write: bool, deadline: Option<Instant>) -> std::result::Result<(), ExecError> {
        let mut s = self.locked();
        if write {
            s.writers_waiting += 1;
        }
        loop {
            if let Some(m) = &s.broken {
                let m = m.clone();
                if write {
                    s.writers_waiting -= 1;
                }
                return Err(ExecError::Fatal(m));
            }
            let free = if write {
                !s.writer && s.readers == 0
            } else {
                !s.writer && s.writers_waiting == 0
            };
            if free {
                if write {
                    s.writers_waiting -= 1;
                    s.writer = true;
                } else {
                    s.readers += 1;
                }
                return Ok(());
            }
            match deadline {
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        if write {
                            s.writers_waiting -= 1;
                            // Our giving up may unblock queued readers.
                            self.cv.notify_all();
                        }
                        return Err(ExecError::Timeout);
                    }
                    let (g, _) = self
                        .cv
                        .wait_timeout(s, d - now)
                        .unwrap_or_else(|e| e.into_inner());
                    s = g;
                }
                None => {
                    s = self.cv.wait(s).unwrap_or_else(|e| e.into_inner());
                }
            }
        }
    }

    fn release(&self, write: bool) {
        let mut s = self.locked();
        if write {
            s.writer = false;
        } else {
            s.readers -= 1;
        }
        drop(s);
        self.cv.notify_all();
    }

    /// [`SharedSession::execute_stmt`] on the parsed text, with writes
    /// allowed — for callers that hold text (embedding, tests); the wire
    /// arrives parsed. Text that is not a statement fails here, before it
    /// queues for anything.
    pub fn execute(&self, sql: &str) -> std::result::Result<QueryOutput, ExecError> {
        match parse_sql(sql) {
            Ok(stmt) => self.execute_stmt(stmt, true),
            Err(e) => self.unparsed(sql, e),
        }
    }

    /// What text that is not a statement comes to: `err`, the parser's
    /// verdict on it — except that, with test panics enabled, `__PANIC__`
    /// is the statement that panics holding the session.
    pub fn unparsed(&self, sql: &str, err: Error) -> std::result::Result<QueryOutput, ExecError> {
        if self.test_panics && sql.trim() == "__PANIC__" {
            return self.exclusive(|_| panic!("test-injected statement panic"));
        }
        Err(ExecError::Engine(err))
    }

    /// Admit a parsed statement by what it is: [`Statement::is_read`]
    /// statements (`SELECT`/`EXPLAIN` and the prepared-statement verbs)
    /// run concurrently; everything else is exclusive. `EXECUTE` of a
    /// prepared DML statement starts on the read path, comes back bound,
    /// and goes on to the write path as that statement — unless
    /// `may_write` is off (a read-only replica), where it fails with
    /// [`Error::NeedsWrite`] instead, as any other write does.
    pub fn execute_stmt(
        &self,
        stmt: Statement,
        may_write: bool,
    ) -> std::result::Result<QueryOutput, ExecError> {
        let stmt = if stmt.is_read() {
            self.admit(false, self.deadline())?;
            let guard = self.session.read().unwrap_or_else(|e| e.into_inner());
            let r = catch_unwind(AssertUnwindSafe(|| guard.execute_read_stmt(stmt)));
            drop(guard);
            self.release(false);
            match r {
                Ok(Ok(Ok(out))) => return Ok(out),
                Ok(Ok(Err(write))) => write,
                Ok(Err(e)) => return Err(ExecError::Engine(e)),
                Err(_) => {
                    // The read path never mutates, but a panicked reader
                    // may have observed a session worth distrusting —
                    // rebuild under exclusive access, best effort.
                    let _ = self.with_session_mut(|s| self.rebuild(s));
                    return Err(ExecError::Poisoned);
                }
            }
        } else {
            stmt
        };
        if !may_write {
            return Err(ExecError::Engine(Error::NeedsWrite));
        }
        self.exclusive(|s| s.execute_stmt(stmt))
    }

    fn deadline(&self) -> Option<Instant> {
        self.stmt_timeout.map(|t| Instant::now() + t)
    }

    /// Run `f` with the session held exclusively, under the statement
    /// deadline; a panic in `f` rebuilds the session in place.
    fn exclusive(
        &self,
        f: impl FnOnce(&mut Session) -> Result<QueryOutput>,
    ) -> std::result::Result<QueryOutput, ExecError> {
        self.admit(true, self.deadline())?;
        let mut guard = self.session.write().unwrap_or_else(|e| e.into_inner());
        let r = catch_unwind(AssertUnwindSafe(|| f(&mut guard)));
        // Still exclusive: rebuild in place before anyone else can observe
        // the damaged session.
        let rebuilt = match r {
            Err(_) => self.rebuild(&mut guard),
            Ok(_) => Ok(()),
        };
        drop(guard);
        self.release(true);
        rebuilt.map_err(ExecError::Fatal)?;
        match r {
            Ok(r) => r.map_err(ExecError::Engine),
            Err(_) => Err(ExecError::Poisoned),
        }
    }

    /// Replace a session that panicked (held exclusively by the caller)
    /// with a fresh build from the spec. If that fails too, the shared
    /// session is broken for good and the reason comes back.
    fn rebuild(&self, session: &mut Session) -> std::result::Result<(), String> {
        match self.spec.build() {
            Ok(fresh) => {
                *session = fresh;
                self.locked().generation += 1;
                Ok(())
            }
            Err(e) => {
                let msg = format!("rebuild after panic failed: {e}");
                self.locked().broken = Some(msg.clone());
                Err(msg)
            }
        }
    }

    /// Run `f` on the session under exclusive access, bypassing the
    /// statement path. The server's shutdown checkpoint and the tests'
    /// setup go through here. No deadline: callers are server-internal.
    /// Fails only when the session is [`ExecError::Fatal`]-broken.
    pub fn with_session_mut<R>(
        &self,
        f: impl FnOnce(&mut Session) -> R,
    ) -> std::result::Result<R, ExecError> {
        self.admit(true, None)?;
        let mut guard = self.session.write().unwrap_or_else(|e| e.into_inner());
        let r = f(&mut guard);
        drop(guard);
        self.release(true);
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    fn shared() -> Arc<SharedSession> {
        let s = SharedSession::new(SessionSpec::in_memory(), Some(Duration::from_secs(5)))
            .unwrap()
            .enable_test_panics();
        s.execute("CREATE TABLE t (a INT)").unwrap();
        s.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
        Arc::new(s)
    }

    #[test]
    fn readers_run_concurrently() {
        let s = shared();
        let n = 4;
        let barrier = Arc::new(Barrier::new(n));
        let peak = Arc::new(AtomicUsize::new(0));
        let live = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let (s, b, peak, live) = (s.clone(), barrier.clone(), peak.clone(), live.clone());
                std::thread::spawn(move || {
                    b.wait();
                    // All four admitted before any finishes would be flaky
                    // to assert exactly; instead show overlap happened at
                    // least once across the batch. On a single-core box
                    // overlap only comes from preemption landing inside the
                    // read window, so run enough iterations that at least
                    // one timeslice boundary does.
                    for _ in 0..2000 {
                        let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        s.execute("SELECT a FROM t").unwrap();
                        live.fetch_sub(1, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(
            peak.load(Ordering::SeqCst) > 1,
            "readers never overlapped — shared admission is broken"
        );
    }

    #[test]
    fn writes_are_serialized_and_correct() {
        let s = shared();
        let threads = 8;
        let per = 25;
        let handles: Vec<_> = (0..threads)
            .map(|i| {
                let s = s.clone();
                std::thread::spawn(move || {
                    for j in 0..per {
                        s.execute(&format!("INSERT INTO t VALUES ({})", 100 + i * per + j))
                            .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        match s.execute("SELECT COUNT(*) FROM t").unwrap() {
            QueryOutput::Table { rows, .. } => {
                assert_eq!(rows[0][0], mammoth_types::Value::I64(3 + threads * per));
            }
            other => panic!("expected table, got {other:?}"),
        }
    }

    #[test]
    fn statement_timeout_fires_in_queue() {
        let s = Arc::new(
            SharedSession::new(SessionSpec::in_memory(), Some(Duration::from_millis(50))).unwrap(),
        );
        s.execute("CREATE TABLE t (a INT)").unwrap();
        let s2 = s.clone();
        let hold = std::thread::spawn(move || {
            s2.with_session_mut(|_| std::thread::sleep(Duration::from_millis(400)))
                .unwrap();
        });
        std::thread::sleep(Duration::from_millis(100)); // let the holder in
        let err = s.execute("INSERT INTO t VALUES (1)").unwrap_err();
        assert!(matches!(err, ExecError::Timeout), "got {err:?}");
        hold.join().unwrap();
        // After the holder leaves, statements flow again.
        s.execute("INSERT INTO t VALUES (2)").unwrap();
    }

    #[test]
    fn panic_poisons_then_recovers_in_memory() {
        let s = shared();
        let err = s.execute("__PANIC__").unwrap_err();
        assert!(matches!(err, ExecError::Poisoned), "got {err:?}");
        assert_eq!(s.generation(), 1);
        // In-memory rebuild starts empty: the table is gone, but the
        // session serves new statements.
        assert!(matches!(
            s.execute("SELECT a FROM t"),
            Err(ExecError::Engine(_))
        ));
        s.execute("CREATE TABLE t2 (a INT)").unwrap();
    }

    #[test]
    fn panic_recovery_preserves_committed_state_when_durable() {
        let dir = std::env::temp_dir().join(format!(
            "mammoth-shared-poison-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let s = SharedSession::new(SessionSpec::durable(&dir), None)
            .unwrap()
            .enable_test_panics();
        s.execute("CREATE TABLE t (a INT)").unwrap();
        s.execute("INSERT INTO t VALUES (10), (20)").unwrap();
        assert!(matches!(
            s.execute("__PANIC__").unwrap_err(),
            ExecError::Poisoned
        ));
        // The rebuild replayed the WAL: committed rows are back.
        match s.execute("SELECT COUNT(*) FROM t").unwrap() {
            QueryOutput::Table { rows, .. } => {
                assert_eq!(rows[0][0], mammoth_types::Value::I64(2));
            }
            other => panic!("expected table, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
