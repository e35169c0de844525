//! The connection core: every step between `accept()` and a statement
//! reaching its engine, written once for every daemon that serves the wire
//! protocol. What differs between daemons — who executes a statement, and
//! which of the scatter/replication verbs it serves — is a [`Handler`].
//!
//! Threading model (no async runtime, mirroring `crates/parallel`):
//!
//! * **one acceptor thread** polls a nonblocking listener. Each accepted
//!   socket goes into a bounded queue; when the queue is full the acceptor
//!   answers with `Err(SERVER_BUSY)` and closes — that is the whole
//!   admission-control story, and it sheds load in O(1) without touching
//!   the engine.
//! * **`workers` worker threads** each pop a connection and serve it until
//!   the client quits, errors, or the listener drains. `workers` therefore
//!   bounds concurrently-served connections; `backlog` bounds the patient
//!   waiting room behind them.
//! * **graceful shutdown** flips one flag. The acceptor stops accepting,
//!   workers finish the statement in flight, notify their client with
//!   `Err(SHUTTING_DOWN)`, and exit; queued-but-unserved connections are
//!   refused the same way.
//!
//! Every lifecycle step records a [`mammoth_types::TraceEvent`]
//! (`server.accept`, `server.handshake`, `server.statement`,
//! `server.shed`) into one `engine="server"` run, exported through
//! `MAMMOTH_TRACE` like every other profiled run — `tracecheck` validates
//! these traces with no special cases.

use crate::frame::{read_frame, write_frame};
use crate::protocol::{ClientMsg, ErrorCode, ServerMsg, MIN_PROTO_VERSION, PROTO_VERSION};
use crate::server::ServerConfig;
use mammoth_sql::{parse_prepare, parse_sql, Statement};
use mammoth_types::trace::{EventKind, Recorder};
use mammoth_types::{Error, Result};
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What a daemon plugs into the connection core. The core owns the only
/// parse: a handler is given statements, never text to read again.
pub trait Handler: Send + Sync + 'static {
    /// The name advertised in `Hello`.
    fn name(&self) -> &str;

    /// Execute one statement and translate the outcome into its wire
    /// response.
    fn statement(&self, stmt: Statement) -> ServerMsg;

    /// Answer a `Query` or `Prepare` whose text is not a statement; `err`
    /// is what the parser said of `sql`.
    fn rejected(&self, _sql: &str, err: Error) -> ServerMsg {
        ServerMsg::err(ErrorCode::Sql, err.to_string())
    }

    /// (v3) Serve one scatter leg — or refuse it, if its text did not
    /// parse. Only a scatter target overrides this.
    fn fragment(&self, _conn: &Conn<'_>, _id: u64, _stmt: Result<Statement>) -> ServerMsg {
        let refusal = format!("{} is not a scatter target; send Query", self.name());
        ServerMsg::err(ErrorCode::Protocol, refusal)
    }

    /// (v2) Serve one replication poll: the complete catch-up batch, in
    /// send order. Only a replication primary overrides this.
    fn subscribe(&self, _conn: &Conn<'_>, _generation: u64, _offset: u64) -> Vec<ServerMsg> {
        let refusal = format!("{} does not serve a WAL stream", self.name());
        vec![ServerMsg::err(ErrorCode::Protocol, refusal)]
    }
}

/// What a [`Handler`] hook may know about the connection it serves: the
/// worker it runs on, for the events it records.
pub struct Conn<'a> {
    recorder: &'a Recorder,
    worker: usize,
}

impl Conn<'_> {
    /// Record a lifecycle event into the listener's trace.
    pub fn trace(&self, kind: EventKind, args: String, started: Instant, rows: u64) {
        self.recorder.record(kind, self.worker, args, started, rows);
    }
}

struct Core<H> {
    handler: H,
    workers: usize,
    backlog: usize,
    auth_token: Option<String>,
    allow_remote_shutdown: bool,
    queue: Mutex<VecDeque<TcpStream>>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
    accepted: AtomicU64,
    shed: AtomicU64,
    recorder: Recorder,
}

impl<H> Core<H> {
    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue_cv.notify_all();
    }

    fn queue(&self) -> std::sync::MutexGuard<'_, VecDeque<TcpStream>> {
        // pushes and pops leave the queue valid at every step
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A bound, serving listener. Dropping it without [`Listener::drain`]
/// leaks the socket and its threads until process exit.
pub struct Listener<H> {
    core: Arc<Core<H>>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    local_addr: SocketAddr,
}

impl<H: Handler> Listener<H> {
    /// Bind `cfg.addr`, build the handler, spin up the acceptor and the
    /// worker pool, and return immediately. Of `cfg` the core reads the
    /// listener-level fields only (`addr`, `workers`, `backlog`,
    /// `auth_token`, `allow_remote_shutdown`). The handler is built
    /// *after* the bind so an occupied port fails the start before
    /// `handler()` — for a durable server, crash recovery — touches any
    /// state.
    pub fn start(cfg: &ServerConfig, handler: impl FnOnce() -> Result<H>) -> Result<Listener<H>> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let core = Arc::new(Core {
            handler: handler()?,
            workers: cfg.workers.max(1),
            backlog: cfg.backlog,
            auth_token: cfg.auth_token.clone(),
            allow_remote_shutdown: cfg.allow_remote_shutdown,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            accepted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            recorder: Recorder::default(),
        });
        let acceptor = {
            let core = core.clone();
            std::thread::Builder::new()
                .name("mammoth-acceptor".into())
                .spawn(move || acceptor_loop(&core, listener))?
        };
        let workers = (0..core.workers)
            .map(|i| {
                let core = core.clone();
                std::thread::Builder::new()
                    .name(format!("mammoth-worker-{i}"))
                    .spawn(move || worker_loop(&core, i))
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Listener {
            core,
            acceptor: Some(acceptor),
            workers,
            local_addr,
        })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    pub fn handler(&self) -> &H {
        &self.core.handler
    }

    /// The lifecycle trace, for events the owning daemon adds around the
    /// core's own (its shutdown, say).
    pub fn recorder(&self) -> &Recorder {
        &self.core.recorder
    }

    /// Connections accepted and connections shed with `SERVER_BUSY`.
    pub fn admission_counts(&self) -> (u64, u64) {
        (
            self.core.accepted.load(Ordering::Relaxed),
            self.core.shed.load(Ordering::Relaxed),
        )
    }

    /// Flip the drain flag; returns immediately. Idempotent.
    pub fn request_shutdown(&self) {
        self.core.request_shutdown();
    }

    /// Whether a shutdown has been requested (locally or by a client).
    pub fn shutdown_requested(&self) -> bool {
        self.core.draining()
    }

    /// Block until some client sends `Shutdown` (or a local
    /// [`Listener::request_shutdown`]).
    pub fn wait_shutdown_requested(&self) {
        while !self.core.draining() {
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    /// Stop accepting, let in-flight statements finish, refuse queued
    /// work, and join every thread.
    pub fn drain(&mut self) -> Result<()> {
        self.core.request_shutdown();
        if let Some(a) = self.acceptor.take() {
            a.join()
                .map_err(|_| Error::Internal("acceptor thread panicked".into()))?;
        }
        for w in self.workers.drain(..) {
            w.join()
                .map_err(|_| Error::Internal("worker thread panicked".into()))?;
        }
        // Workers are gone: any connection still queued was never served.
        // (The workers drain the queue with SHUTTING_DOWN refusals before
        // exiting, so this is normally empty; belt and suspenders.)
        let leftover: Vec<TcpStream> = self.core.queue().drain(..).collect();
        for mut stream in leftover {
            refuse(&mut stream, ErrorCode::ShuttingDown, SHUTTING_DOWN);
        }
        Ok(())
    }

    /// Fold the lifecycle events into one `engine="server"` run and export
    /// it through `MAMMOTH_TRACE` (no-op when the env var is unset).
    pub fn flush_trace(&self) -> Result<()> {
        let counted = [EventKind::ServerStatement];
        self.core
            .recorder
            .flush("server", self.core.workers, &counted)?;
        Ok(())
    }
}

const SHUTTING_DOWN: &str = "server shutting down";

/// Best-effort error frame; used on the shed and refuse paths where the
/// peer may already be gone.
fn refuse(stream: &mut TcpStream, code: ErrorCode, msg: &str) {
    let _ = write_frame(stream, &ServerMsg::err(code, msg).encode());
}

fn send(stream: &mut TcpStream, msg: &ServerMsg) -> Result<()> {
    write_frame(stream, &msg.encode())
}

fn acceptor_loop<H>(core: &Core<H>, listener: TcpListener) {
    loop {
        if core.draining() {
            return;
        }
        match listener.accept() {
            Ok((mut stream, peer)) => {
                let started = Instant::now();
                core.accepted.fetch_add(1, Ordering::Relaxed);
                let _ = stream.set_nodelay(true);
                if core.draining() {
                    refuse(&mut stream, ErrorCode::ShuttingDown, SHUTTING_DOWN);
                    continue;
                }
                let mut q = core.queue();
                if q.len() >= core.backlog {
                    drop(q);
                    core.shed.fetch_add(1, Ordering::Relaxed);
                    let args = format!("{peer} backlog={}", core.backlog);
                    core.recorder
                        .record(EventKind::ServerShed, 0, args, started, 0);
                    refuse(
                        &mut stream,
                        ErrorCode::ServerBusy,
                        "connection backlog full; retry later",
                    );
                } else {
                    q.push_back(stream);
                    drop(q);
                    core.queue_cv.notify_one();
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => return,
        }
    }
}

fn worker_loop<H: Handler>(core: &Core<H>, widx: usize) {
    loop {
        let conn = {
            let mut q = core.queue();
            loop {
                if let Some(c) = q.pop_front() {
                    break Some(c);
                }
                if core.draining() {
                    break None;
                }
                q = core
                    .queue_cv
                    .wait_timeout(q, Duration::from_millis(100))
                    .unwrap_or_else(|e| e.into_inner())
                    .0;
            }
        };
        match conn {
            Some(stream) => {
                // Connection-level I/O errors just end that connection;
                // the worker lives on.
                let _ = serve_connection(core, widx, stream);
            }
            None => return,
        }
    }
}

enum Wait {
    /// Bytes are available; a frame read will not block indefinitely.
    Data,
    /// Peer closed the connection.
    Closed,
    /// The listener began draining while the connection idled.
    Drain,
}

/// Idle-poll for the next frame without consuming bytes, so the drain flag
/// is observed between statements but a read timeout can never fire
/// mid-frame and desynchronize the stream.
fn wait_for_data(stream: &TcpStream, draining: impl Fn() -> bool) -> io::Result<Wait> {
    stream.set_read_timeout(Some(Duration::from_millis(25)))?;
    let mut b = [0u8; 1];
    loop {
        match stream.peek(&mut b) {
            Ok(0) => return Ok(Wait::Closed),
            Ok(_) => {
                // Commit to the frame: generous timeout so a stalled peer
                // cannot pin the worker forever, long enough that a frame
                // split across packets always makes it.
                stream.set_read_timeout(Some(Duration::from_secs(30)))?;
                return Ok(Wait::Data);
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if draining() {
                    return Ok(Wait::Drain);
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// The next frame's payload, or `None` when the connection is over: the
/// peer closed it, or the listener is draining and the peer has been told.
/// A client pipelining statements back-to-back never idles, so the drain
/// flag is checked once more when data *is* there: shutdown means "finish
/// the statement in flight", not "finish the client's whole future
/// workload".
fn next_frame<H>(core: &Core<H>, stream: &mut TcpStream) -> Result<Option<Vec<u8>>> {
    match wait_for_data(stream, || core.draining())? {
        Wait::Data if !core.draining() => Ok(Some(read_frame(stream)?)),
        Wait::Closed => Ok(None),
        Wait::Data | Wait::Drain => {
            refuse(stream, ErrorCode::ShuttingDown, SHUTTING_DOWN);
            Ok(None)
        }
    }
}

fn serve_connection<H: Handler>(core: &Core<H>, widx: usize, mut stream: TcpStream) -> Result<()> {
    let accepted = Instant::now();
    if core.draining() {
        refuse(&mut stream, ErrorCode::ShuttingDown, SHUTTING_DOWN);
        return Ok(());
    }
    let conn = Conn {
        recorder: &core.recorder,
        worker: widx,
    };
    let name = core.handler.name();
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "?".into());
    conn.trace(EventKind::ServerAccept, peer.clone(), accepted, 0);
    send(
        &mut stream,
        &ServerMsg::Hello {
            version: PROTO_VERSION,
            server: name.into(),
        },
    )?;

    // Handshake: exactly one Login must follow the Hello. Every refusal
    // below closes the connection.
    let hs_started = Instant::now();
    let Some(payload) = next_frame(core, &mut stream)? else {
        return Ok(());
    };
    let (client, proto) = match ClientMsg::decode(&payload) {
        Ok(ClientMsg::Login {
            version,
            client,
            token,
        }) => {
            // Negotiation: Hello advertised our newest version; the client
            // answered with the highest version both sides speak. Accept
            // the whole supported range so a v1 client is served unchanged.
            if !(MIN_PROTO_VERSION..=PROTO_VERSION).contains(&version) {
                let msg = format!(
                    "protocol version {version} unsupported \
                     ({name} speaks {MIN_PROTO_VERSION}..={PROTO_VERSION})"
                );
                refuse(&mut stream, ErrorCode::Protocol, &msg);
                return Ok(());
            }
            if core.auth_token.as_ref().is_some_and(|t| *t != token) {
                refuse(&mut stream, ErrorCode::AuthFailed, "bad auth token");
                return Ok(());
            }
            (client, version)
        }
        Ok(_) => {
            refuse(
                &mut stream,
                ErrorCode::Protocol,
                "expected Login after Hello",
            );
            return Ok(());
        }
        Err(e) => {
            let msg = format!("bad login frame: {e}");
            refuse(&mut stream, ErrorCode::Protocol, &msg);
            return Ok(());
        }
    };
    let args = format!("{peer} client={client}");
    conn.trace(EventKind::ServerHandshake, args, hs_started, 0);
    send(&mut stream, &ServerMsg::Ready)?;

    while let Some(payload) = next_frame(core, &mut stream)? {
        let msg = match ClientMsg::decode(&payload) {
            Ok(msg) => msg,
            Err(e) => {
                refuse(&mut stream, ErrorCode::Protocol, &format!("bad frame: {e}"));
                return Ok(());
            }
        };
        // A verb newer than the version this connection negotiated is a
        // protocol violation, whatever the server itself could speak.
        let (verb, since) = msg.verb();
        if proto < since {
            let msg = format!("{verb} requires protocol version {since}");
            refuse(&mut stream, ErrorCode::Protocol, &msg);
            return Ok(());
        }
        let started = Instant::now();
        // What the trace shows of a statement: the verb and the handle of
        // a prepared-statement frame, the first 64 characters of ad-hoc
        // text. Nobody to show a label to without a sink.
        let label = core.recorder.enabled().then(|| match &msg {
            ClientMsg::Prepare { name, .. } => format!("PREPARE {name}"),
            ClientMsg::ExecutePrepared { name, .. } => format!("EXECUTE {name}"),
            ClientMsg::Deallocate { name } => format!("DEALLOCATE {name}"),
            ClientMsg::Query { sql } => {
                let mut brief: String = sql.chars().take(64).collect();
                if brief.len() < sql.len() {
                    brief.push('…');
                }
                brief
            }
            _ => String::new(),
        });
        // Text is parsed here, once, and nowhere behind this point; the
        // prepared-statement frames are the statements they name already,
        // so an `ExecutePrepared` carries its arguments to the bind as the
        // values the wire delivered.
        let mut nparams = None;
        let parsed = match msg {
            ClientMsg::Quit => return Ok(()),
            ClientMsg::Login { .. } => {
                refuse(&mut stream, ErrorCode::Protocol, "already logged in");
                return Ok(());
            }
            ClientMsg::Shutdown => {
                if core.allow_remote_shutdown {
                    send(&mut stream, &ServerMsg::Ok)?;
                    core.request_shutdown();
                } else {
                    refuse(
                        &mut stream,
                        ErrorCode::Protocol,
                        "remote shutdown disabled on this server",
                    );
                }
                return Ok(());
            }
            ClientMsg::Subscribe { generation, offset } => {
                for m in core.handler.subscribe(&conn, generation, offset) {
                    send(&mut stream, &m)?;
                }
                continue;
            }
            ClientMsg::Fragment { id, sql } => {
                let resp = core.handler.fragment(&conn, id, parse_sql(&sql));
                send(&mut stream, &resp)?;
                continue;
            }
            ClientMsg::Query { sql } => parse_sql(&sql).map_err(|e| (sql, e)),
            ClientMsg::Prepare { name, sql } => {
                let parsed = parse_prepare(&name, &sql);
                // what `Prepared` reports: the count of the statement in hand
                nparams = parsed.as_ref().ok().map(|stmt| stmt.param_count() as u32);
                parsed.map_err(|e| (sql, e))
            }
            ClientMsg::ExecutePrepared { name, args } => Ok(Statement::Execute { name, args }),
            ClientMsg::Deallocate { name } => Ok(Statement::Deallocate { name }),
        };
        let resp = match parsed {
            Ok(stmt) => match (core.handler.statement(stmt), nparams) {
                (ServerMsg::Ok, Some(nparams)) => ServerMsg::Prepared { nparams },
                (resp, _) => resp,
            },
            Err((sql, e)) => core.handler.rejected(&sql, e),
        };
        if let Some(label) = label {
            let rows = resp.result_rows();
            conn.trace(EventKind::ServerStatement, label, started, rows);
        }
        send(&mut stream, &resp)?;
    }
    Ok(())
}
