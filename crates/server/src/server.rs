//! The single-node network server: the connection core
//! ([`crate::listener`]) instantiated over one shared engine session.
//!
//! The core owns sockets, admission, the handshake and the drain; this
//! module owns what happens to a statement once it has arrived — the
//! read-only gate, `PROMOTE`, the wire translation of engine outcomes —
//! plus the two verbs only an engine can serve (scatter `Fragment`s and
//! the replication `Subscribe` poll), and what a graceful shutdown owes
//! the data: a checkpoint (durable sessions) before the trace is flushed,
//! so a shutdown under load loses nothing that was acknowledged.

use crate::listener::{Conn, Handler, Listener};
use crate::protocol::{ErrorCode, ServerMsg, SERVER_NAME};
use crate::shared::{ExecError, SessionSpec, SharedSession, Storage};
use mammoth_sql::{QueryOutput, Statement};
use mammoth_storage::ship::{durable_tip, export_image, read_wal_range, Tip};
use mammoth_storage::{RealFs, Vfs};
use mammoth_types::trace::EventKind;
use mammoth_types::{Error, Result};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Byte granularity for shipped WAL ranges and checkpoint image files:
/// well under [`crate::frame::MAX_FRAME`] with message-header room to
/// spare, so one oversized catalog can never produce an unsendable frame.
const SHIP_CHUNK: usize = 4 << 20;

/// Tuning knobs for a server instance.
#[derive(Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Worker threads = maximum concurrently-served connections.
    pub workers: usize,
    /// Accepted-but-unserved connections allowed to wait; the acceptor
    /// sheds (`SERVER_BUSY`) beyond this.
    pub backlog: usize,
    /// Bound on a statement's wait for the session (None = unbounded).
    pub stmt_timeout: Option<Duration>,
    /// When set, `Login.token` must match or the handshake fails.
    pub auth_token: Option<String>,
    /// Whether a client `Shutdown` message is honored (mammoth-cli's
    /// `SHUTDOWN`); servers embedded in tests may refuse it.
    pub allow_remote_shutdown: bool,
    /// Honor the `__PANIC__` statement (poison-recovery tests only).
    pub test_panics: bool,
    /// Serve reads only: mutating statements are refused with
    /// [`ErrorCode::ReadOnly`]. Replicas run this way — their catalog is
    /// written by the replication applier, never by clients — and the
    /// shutdown checkpoint is skipped so the local generation numbering
    /// stays in lock-step with the primary's.
    pub read_only: bool,
    /// Invoked when a client sends the `PROMOTE` statement. A replica
    /// installs a handler that kicks off its in-place promotion (and the
    /// server later leaves read-only mode via [`Server::set_read_only`]);
    /// servers without one refuse `PROMOTE` with a protocol error. The
    /// handler must return promptly — promotion itself runs elsewhere.
    pub promote_handler: Option<Arc<dyn Fn() + Send + Sync>>,
    /// The engine session recipe (storage, WAL batch, merge threshold).
    pub spec: SessionSpec,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            backlog: 16,
            stmt_timeout: Some(Duration::from_secs(10)),
            auth_token: None,
            allow_remote_shutdown: true,
            test_panics: false,
            read_only: false,
            promote_handler: None,
            spec: SessionSpec::in_memory(),
        }
    }
}

/// A plain-value snapshot of the server's monotonic counters, readable
/// while the server runs and returned by [`Server::shutdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    pub accepted: u64,
    pub shed: u64,
    pub statements: u64,
    pub sql_errors: u64,
    pub timeouts: u64,
    pub poisonings: u64,
}

/// The server's [`Handler`]: one shared engine session and the gates in
/// front of it.
struct Engine {
    shared: Arc<SharedSession>,
    /// Runtime read-only switch, seeded from `cfg.read_only`. An `Arc` so
    /// promotion can flip a replica to read-write *in place* — existing
    /// connections included — without rebinding the listener.
    read_only: Arc<AtomicBool>,
    promote_handler: Option<Arc<dyn Fn() + Send + Sync>>,
    storage: Storage,
    statements: AtomicU64,
    sql_errors: AtomicU64,
    timeouts: AtomicU64,
    poisonings: AtomicU64,
}

/// A running server. Dropping it without calling [`Server::shutdown`]
/// leaks the listener until process exit; call `shutdown` (or `wait`).
pub struct Server {
    listener: Listener<Engine>,
}

impl Server {
    /// Bind, spin up the acceptor and worker pool, and return immediately.
    pub fn start(cfg: ServerConfig) -> Result<Server> {
        let listener = Listener::start(&cfg, || {
            let mut shared = SharedSession::new(cfg.spec.clone(), cfg.stmt_timeout)?;
            if cfg.test_panics {
                shared = shared.enable_test_panics();
            }
            Ok(Engine {
                shared: Arc::new(shared),
                read_only: Arc::new(AtomicBool::new(cfg.read_only)),
                promote_handler: cfg.promote_handler.clone(),
                storage: cfg.spec.storage.clone(),
                statements: AtomicU64::new(0),
                sql_errors: AtomicU64::new(0),
                timeouts: AtomicU64::new(0),
                poisonings: AtomicU64::new(0),
            })
        })?;
        Ok(Server { listener })
    }

    fn engine(&self) -> &Engine {
        self.listener.handler()
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// Live statistics counters.
    pub fn stats(&self) -> StatsSnapshot {
        let (accepted, shed) = self.listener.admission_counts();
        let e = self.engine();
        StatsSnapshot {
            accepted,
            shed,
            statements: e.statements.load(Ordering::Relaxed),
            sql_errors: e.sql_errors.load(Ordering::Relaxed),
            timeouts: e.timeouts.load(Ordering::Relaxed),
            poisonings: e.poisonings.load(Ordering::Relaxed),
        }
    }

    /// Lifecycle events buffered for the trace export at shutdown: always
    /// zero on a server started without a `MAMMOTH_TRACE` sink.
    pub fn pending_trace_events(&self) -> usize {
        self.listener.recorder().pending()
    }

    /// Direct access to the shared session (tests and embedded use).
    pub fn shared(&self) -> &SharedSession {
        &self.engine().shared
    }

    /// A clonable handle to the shared session — what the replication
    /// applier holds to apply shipped records while the server serves
    /// reads from the same catalog.
    pub fn shared_arc(&self) -> Arc<SharedSession> {
        Arc::clone(&self.engine().shared)
    }

    /// Whether mutating statements are currently refused.
    pub fn is_read_only(&self) -> bool {
        self.engine().read_only.load(Ordering::SeqCst)
    }

    /// Flip the read-only gate at runtime. Promotion calls this *after*
    /// the serving session has been rebuilt over the recovered state, so
    /// no write can sneak in against the pre-promotion catalog.
    pub fn set_read_only(&self, read_only: bool) {
        self.engine().read_only.store(read_only, Ordering::SeqCst);
    }

    /// A clonable handle to the runtime read-only switch, for promotion
    /// machinery that outlives the `Server` borrow.
    pub fn read_only_switch(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.engine().read_only)
    }

    /// Flip the drain flag; returns immediately. Idempotent.
    pub fn request_shutdown(&self) {
        self.listener.request_shutdown();
    }

    /// Whether a shutdown has been requested (locally or by a client).
    pub fn shutdown_requested(&self) -> bool {
        self.listener.shutdown_requested()
    }

    /// Block until some client sends `Shutdown` (or a local
    /// [`Server::request_shutdown`]), then drain and finish.
    pub fn wait(self) -> Result<StatsSnapshot> {
        self.listener.wait_shutdown_requested();
        self.shutdown()
    }

    /// Graceful shutdown: stop accepting, drain in-flight statements,
    /// refuse queued work, join every thread, checkpoint durable state,
    /// and flush the trace. Returns the final statistics.
    pub fn shutdown(mut self) -> Result<StatsSnapshot> {
        let started = Instant::now();
        self.listener.drain()?;
        // Persist what was acknowledged. In-memory sessions have nothing
        // to checkpoint; that is not an error. Read-only replicas skip the
        // checkpoint on purpose: checkpointing would bump the local
        // generation past the primary's and desynchronize the stream. (A
        // *promoted* replica is read-write by now and checkpoints like any
        // primary — it owns its generation numbering from promotion on.)
        if !self.is_read_only() {
            match self.shared().with_session_mut(|s| s.checkpoint()) {
                Ok(Ok(())) | Ok(Err(Error::Unsupported(_))) => {}
                Ok(Err(e)) => return Err(e),
                Err(e) => return Err(Error::Internal(format!("shutdown checkpoint skipped: {e}"))),
            }
        }
        self.listener.recorder().record(
            EventKind::ServerShutdown,
            0,
            "drain+checkpoint",
            started,
            0,
        );
        self.listener.flush_trace()?;
        Ok(self.stats())
    }
}

impl Engine {
    /// A statement's outcome as its wire reply, counted.
    fn reply(&self, result: std::result::Result<QueryOutput, ExecError>) -> ServerMsg {
        match result {
            Ok(out) => ServerMsg::from_output(out),
            Err(ExecError::Timeout) => {
                self.timeouts.fetch_add(1, Ordering::Relaxed);
                ServerMsg::err(
                    ErrorCode::StmtTimeout,
                    "statement timed out waiting for the session",
                )
            }
            Err(ExecError::Poisoned) => {
                self.poisonings.fetch_add(1, Ordering::Relaxed);
                ServerMsg::err(
                    ErrorCode::SessionPoisoned,
                    "statement crashed; session rebuilt from committed state",
                )
            }
            Err(ExecError::Engine(Error::NeedsWrite)) => ServerMsg::err(
                ErrorCode::ReadOnly,
                "prepared statement writes; send EXECUTE to the primary",
            ),
            Err(ExecError::Engine(e)) => {
                self.sql_errors.fetch_add(1, Ordering::Relaxed);
                ServerMsg::err(ErrorCode::Sql, e.to_string())
            }
            Err(ExecError::Fatal(m)) => ServerMsg::err(ErrorCode::Internal, m),
        }
    }

    fn read_only_refusal(&self) -> ServerMsg {
        ServerMsg::err(
            ErrorCode::ReadOnly,
            "server is a read-only replica; send writes to the primary",
        )
    }
}

impl Handler for Engine {
    fn name(&self) -> &str {
        SERVER_NAME
    }

    fn statement(&self, stmt: Statement) -> ServerMsg {
        self.statements.fetch_add(1, Ordering::Relaxed);
        // PROMOTE is a server-level statement and must be answered *before*
        // the read-only gate — its whole purpose is to lift that gate. The
        // handler only signals the promotion machinery; the Ok acknowledges
        // "promotion started", and callers confirm completion by polling
        // EXPLAIN REPLICATION until role=primary.
        if stmt == Statement::Promote {
            return match &self.promote_handler {
                Some(h) => {
                    h();
                    ServerMsg::Ok
                }
                None => ServerMsg::err(
                    ErrorCode::Protocol,
                    "this server has no promotion path (not a replica)",
                ),
            };
        }
        // A replica serves what is a read and refuses the rest. With writes
        // off, `EXECUTE` of a prepared DML statement comes back as
        // NeedsWrite and is answered READ_ONLY by `reply`.
        let read_only = self.read_only.load(Ordering::SeqCst);
        if read_only && !stmt.is_read() {
            return self.read_only_refusal();
        }
        self.reply(self.shared.execute_stmt(stmt, !read_only))
    }

    fn rejected(&self, sql: &str, err: Error) -> ServerMsg {
        self.statements.fetch_add(1, Ordering::Relaxed);
        // a replica cannot tell unreadable text from a write
        if self.read_only.load(Ordering::SeqCst) {
            return self.read_only_refusal();
        }
        self.reply(self.shared.unparsed(sql, err))
    }

    fn fragment(&self, conn: &Conn<'_>, id: u64, stmt: Result<Statement>) -> ServerMsg {
        // Fragments are the read half of scatter-gather; writes must
        // arrive as Query so they take the normal WAL path.
        let Some(stmt) = stmt.ok().filter(Statement::is_read) else {
            return ServerMsg::err(
                ErrorCode::Protocol,
                "fragments must be read-only statements",
            );
        };
        let started = Instant::now();
        self.statements.fetch_add(1, Ordering::Relaxed);
        let may_write = !self.read_only.load(Ordering::SeqCst);
        let resp = match self.reply(self.shared.execute_stmt(stmt, may_write)) {
            ServerMsg::Table { columns, rows } => ServerMsg::FragmentResult { id, columns, rows },
            refused @ ServerMsg::Err { .. } => refused,
            _ => ServerMsg::err(ErrorCode::Internal, "read-only fragment produced no table"),
        };
        let args = format!("id={id}");
        conn.trace(EventKind::ShardFragment, args, started, resp.result_rows());
        resp
    }

    /// Serve one `Subscribe` poll: compute the catch-up batch against the
    /// durable directory — `CheckpointImage` chunks when the subscriber
    /// must re-anchor, `WalChunk`s for the byte range it is missing, and a
    /// final `CaughtUp` carrying the tip. The batch is fully materialized
    /// before the first byte goes out, so a checkpoint flip racing the
    /// read never leaves the subscriber with a half-shipped image: the
    /// batch computation fails, we retry against the fresh tip, and only a
    /// complete batch is ever transmitted.
    fn subscribe(&self, conn: &Conn<'_>, sub_gen: u64, sub_off: u64) -> Vec<ServerMsg> {
        let started = Instant::now();
        let (fs, root): (Arc<dyn Vfs>, PathBuf) = match &self.storage {
            Storage::Durable { root } => (Arc::new(RealFs), root.clone()),
            Storage::DurableVfs { fs, root } => (Arc::clone(fs), root.clone()),
            Storage::InMemory => {
                return vec![ServerMsg::err(
                    ErrorCode::Protocol,
                    "replication requires a durable server",
                )]
            }
        };
        let at = format!("gen={sub_gen} off={sub_off}");
        conn.trace(EventKind::ReplSubscribe, at.clone(), started, 0);
        let mut last_err = None;
        for _ in 0..3 {
            match subscription_batch(fs.as_ref(), &root, sub_gen, sub_off) {
                Ok((msgs, shipped)) => {
                    let args = format!("{at} msgs={} bytes={shipped}", msgs.len());
                    conn.trace(EventKind::ReplShip, args, started, 0);
                    return msgs;
                }
                // Lost a race with the checkpoint flip (the generation we
                // were reading vanished mid-batch); retry against the
                // fresh tip.
                Err(e) => last_err = Some(e),
            }
        }
        let e = last_err.expect("three failed attempts leave an error");
        vec![ServerMsg::err(
            ErrorCode::Internal,
            format!("subscription source unavailable: {e}"),
        )]
    }
}

// ---------------------------------------------------------------------------
// WAL-shipping subscriptions (protocol v2).
// ---------------------------------------------------------------------------

/// Compute one poll's messages: either a tail of the subscriber's own
/// generation, or a full re-anchor (image + WAL) of the current one.
/// Returns the messages and the total payload bytes shipped.
fn subscription_batch(
    fs: &dyn Vfs,
    root: &std::path::Path,
    sub_gen: u64,
    sub_off: u64,
) -> Result<(Vec<ServerMsg>, u64)> {
    let tip = durable_tip(fs, root)?.unwrap_or(Tip { gen: 0, wal_len: 0 });
    let mut msgs = Vec::new();
    // The WAL bytes of `generation` from `start` on, chunked, then the tip.
    let wal_tail = |msgs: &mut Vec<ServerMsg>, generation: u64, start: u64, bytes: &[u8]| {
        let mut offset = start;
        for chunk in bytes.chunks(SHIP_CHUNK) {
            msgs.push(ServerMsg::WalChunk {
                generation,
                offset,
                bytes: chunk.to_vec(),
            });
            offset += chunk.len() as u64;
        }
        msgs.push(ServerMsg::CaughtUp { generation, offset });
        bytes.len() as u64
    };
    // Fast path: the subscriber is tailing the live generation and the
    // range it wants still exists.
    if sub_gen == tip.gen {
        if let Some(bytes) = read_wal_range(fs, root, sub_gen, sub_off)? {
            let shipped = wal_tail(&mut msgs, sub_gen, sub_off, &bytes);
            return Ok((msgs, shipped));
        }
    }
    // Re-anchor: the subscriber is behind the last checkpoint (or brand
    // new, or its generation's WAL is gone). Ship the current image, then
    // the current WAL from byte zero.
    let mut shipped = 0u64;
    if tip.gen == 0 {
        // No checkpoint has ever committed: the "image" is the empty
        // catalog. One marker chunk says so.
        msgs.push(ServerMsg::CheckpointImage {
            generation: 0,
            name: String::new(),
            last: true,
            bytes: Vec::new(),
        });
    } else {
        let files = export_image(fs, root, tip.gen)?;
        let nfiles = files.len();
        for (fi, (name, bytes)) in files.into_iter().enumerate() {
            shipped += bytes.len() as u64;
            let chunks: Vec<&[u8]> = if bytes.is_empty() {
                vec![&[][..]]
            } else {
                bytes.chunks(SHIP_CHUNK).collect()
            };
            let nchunks = chunks.len();
            for (ci, chunk) in chunks.into_iter().enumerate() {
                msgs.push(ServerMsg::CheckpointImage {
                    generation: tip.gen,
                    name: name.clone(),
                    last: fi == nfiles - 1 && ci == nchunks - 1,
                    bytes: chunk.to_vec(),
                });
            }
        }
    }
    let bytes = read_wal_range(fs, root, tip.gen, 0)?.unwrap_or_default();
    shipped += wal_tail(&mut msgs, tip.gen, 0, &bytes);
    Ok((msgs, shipped))
}
