//! The programmatic client — what `mammoth-cli`, the benchmark's `wire_*`
//! workloads, and the concurrency tests all build on.

use crate::frame::{self, write_frame};
use crate::protocol::{ClientMsg, ErrorCode, ServerMsg, MIN_PROTO_VERSION, PROTO_VERSION};
use mammoth_types::framing::FrameReader;
use mammoth_types::{netfault, Value};
use std::fmt;
use std::io;
use std::net::TcpStream;
use std::time::Duration;

/// The reconnect discipline all retrying callers share — see
/// [`mammoth_types::retry`]. Re-exported here because the client is where
/// most callers meet it ([`Client::connect_with_retry`]).
pub use mammoth_types::retry::RetryPolicy;

/// Upper bound on the connect handshake (Hello/Login/Ready). Generous —
/// a live server answers in microseconds; only a one-way partition or a
/// wedged peer ever spends it.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(2);

/// How a client call can fail.
#[derive(Debug)]
pub enum ClientError {
    /// The server shed this connection (`SERVER_BUSY`): not an error in
    /// the engine, a signal to back off and retry.
    Busy(String),
    /// The server refused or failed the request with a protocol error
    /// frame other than `SERVER_BUSY`.
    Server { code: ErrorCode, message: String },
    /// Transport failure (connect, read, write, or framing).
    Io(io::Error),
    /// The server sent something the protocol does not allow here.
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Busy(m) => write!(f, "SERVER_BUSY: {m}"),
            ClientError::Server { code, message } => write!(f, "{code}: {message}"),
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<mammoth_types::Error> for ClientError {
    fn from(e: mammoth_types::Error) -> ClientError {
        match e {
            mammoth_types::Error::Io(m) => ClientError::Io(io::Error::other(m)),
            other => ClientError::Protocol(other.to_string()),
        }
    }
}

/// One statement's successful result.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A result set.
    Table {
        columns: Vec<String>,
        rows: Vec<Vec<Value>>,
    },
    /// Rows affected by DML.
    Affected(u64),
    /// DDL / utility success.
    Ok,
}

/// A connected, logged-in client.
///
/// A client that suffers any transport-level failure mid-conversation —
/// a read timeout, a torn frame, an undecodable response — marks itself
/// **poisoned** and refuses further requests: after such a failure the
/// stream may be desynchronized (e.g. half a frame consumed), and reusing
/// it would misattribute the next response. Callers observe the typed
/// poison error and reconnect.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    frames: FrameReader,
    negotiated: u16,
    poisoned: bool,
}

impl Client {
    /// Connect and run the handshake. `addr` is `host:port`; `name`
    /// identifies the client in server traces; `token` must match the
    /// server's `auth_token` when one is configured (empty otherwise).
    ///
    /// Version negotiation: the server's Hello advertises the newest
    /// protocol it speaks; we log in with the highest version both sides
    /// support. An older server therefore still works (we just lose the
    /// v2 messages); only a server older than [`MIN_PROTO_VERSION`] — or
    /// one that refuses our answer — fails the handshake.
    pub fn connect(addr: &str, name: &str, token: &str) -> Result<Client, ClientError> {
        // FaultNet's connect hook: a scheduled refusal fires here, before
        // any socket is opened, with a genuine `ConnectionRefused` kind so
        // retry classification sees exactly what a dead listener produces.
        if let Some(e) = netfault::on_connect() {
            return Err(ClientError::Io(e));
        }
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        // Bound the handshake: a peer that accepts the TCP connection but
        // never sends Hello/Ready (or whose frames a partition swallows)
        // must surface as a timed-out dial that `connect_with_retry` can
        // classify and retry — not hang the dialer forever. The bound is
        // lifted once logged in; statement reads opt into their own
        // deadline via [`Client::set_read_timeout`].
        stream
            .set_read_timeout(Some(HANDSHAKE_TIMEOUT))
            .map_err(ClientError::Io)?;
        let mut c = Client {
            stream,
            frames: frame::reader(),
            negotiated: PROTO_VERSION,
            poisoned: false,
        };
        // The server answers a connect with Hello — or an error frame when
        // admission control sheds us before a worker ever picks us up.
        match c.read_msg()? {
            ServerMsg::Hello { version, .. } => {
                if version < MIN_PROTO_VERSION {
                    return Err(ClientError::Protocol(format!(
                        "server speaks protocol {version}, client requires at least \
                         {MIN_PROTO_VERSION}"
                    )));
                }
                c.negotiated = version.min(PROTO_VERSION);
            }
            ServerMsg::Err { code, message } => return Err(refusal(code, message)),
            other => {
                return Err(ClientError::Protocol(format!(
                    "expected Hello, got {other:?}"
                )))
            }
        }
        let negotiated = c.negotiated;
        c.send(&ClientMsg::Login {
            version: negotiated,
            client: name.into(),
            token: token.into(),
        })?;
        match c.read_msg()? {
            ServerMsg::Ready => {
                c.stream.set_read_timeout(None).map_err(ClientError::Io)?;
                Ok(c)
            }
            ServerMsg::Err { code, message } => Err(refusal(code, message)),
            other => Err(ClientError::Protocol(format!(
                "expected Ready, got {other:?}"
            ))),
        }
    }

    /// Like [`Client::connect`], retrying on transient failures per
    /// `policy`. Used by the replication puller (the primary may shed it
    /// under load, or be mid-restart) and anything else that prefers
    /// waiting out a busy server to failing fast.
    /// Retryable failures are `SERVER_BUSY` sheds and the transport-level
    /// errors a dying or not-yet-listening peer produces; anything else
    /// (auth failure, protocol error, SQL error) surfaces immediately.
    /// Pacing comes from the shared [`mammoth_types::retry`] policy.
    pub fn connect_with_retry(
        addr: &str,
        name: &str,
        token: &str,
        policy: &RetryPolicy,
    ) -> Result<Client, ClientError> {
        policy.run(retryable, |_| Client::connect(addr, name, token))
    }

    /// Send one request, unless the connection cannot carry it: the verb
    /// is newer than the negotiated protocol, or an earlier mid-frame
    /// failure desynchronized the stream.
    fn request(&mut self, msg: &ClientMsg) -> Result<(), ClientError> {
        let (verb, since) = msg.verb();
        if self.negotiated < since {
            return Err(ClientError::Protocol(format!(
                "{verb} requires protocol v{since}; negotiated v{}",
                self.negotiated
            )));
        }
        if self.poisoned {
            return Err(ClientError::Protocol(
                "connection poisoned by an earlier mid-frame failure; reconnect".into(),
            ));
        }
        self.send(msg)
    }

    /// Bound every read on this connection (handy for tests).
    pub fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(t)
    }

    /// Execute one SQL statement and wait for its response.
    pub fn query(&mut self, sql: &str) -> Result<Response, ClientError> {
        self.request(&ClientMsg::Query { sql: sql.into() })?;
        match self.read_msg()? {
            ServerMsg::Table { columns, rows } => Ok(Response::Table { columns, rows }),
            ServerMsg::Affected { n } => Ok(Response::Affected(n)),
            ServerMsg::Ok => Ok(Response::Ok),
            ServerMsg::Err { code, message } => Err(refusal(code, message)),
            other => Err(ClientError::Protocol(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Ask the server to shut down gracefully. On success the server has
    /// acknowledged and begun draining (and will close this connection).
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        self.request(&ClientMsg::Shutdown)?;
        match self.read_msg()? {
            ServerMsg::Ok => Ok(()),
            ServerMsg::Err { code, message } => Err(refusal(code, message)),
            other => Err(ClientError::Protocol(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// One replication poll (protocol v2): tell the server the generation
    /// and WAL byte offset we hold, and collect everything it ships back —
    /// `CheckpointImage` and `WalChunk` messages — up to and including the
    /// final `CaughtUp`. The caller interprets the batch (re-anchor vs.
    /// tail-append); this method only enforces message-level shape.
    pub fn subscribe_poll(
        &mut self,
        generation: u64,
        offset: u64,
    ) -> Result<Vec<ServerMsg>, ClientError> {
        self.request(&ClientMsg::Subscribe { generation, offset })?;
        let mut batch = Vec::new();
        loop {
            match self.read_msg()? {
                m @ (ServerMsg::WalChunk { .. } | ServerMsg::CheckpointImage { .. }) => {
                    batch.push(m)
                }
                m @ ServerMsg::CaughtUp { .. } => {
                    batch.push(m);
                    return Ok(batch);
                }
                ServerMsg::Err { code, message } => return Err(refusal(code, message)),
                other => {
                    return Err(ClientError::Protocol(format!(
                        "unexpected subscription message {other:?}"
                    )))
                }
            }
        }
    }

    /// Execute one read-only statement as a scatter-gather fragment
    /// (protocol v3) and wait for its correlated result table. The shard
    /// coordinator is the intended caller; `id` is echoed back by the
    /// server and checked here so a desynchronized connection surfaces as
    /// a typed protocol error rather than a misattributed result.
    pub fn fragment(
        &mut self,
        id: u64,
        sql: &str,
    ) -> Result<(Vec<String>, Vec<Vec<Value>>), ClientError> {
        self.request(&ClientMsg::Fragment {
            id,
            sql: sql.into(),
        })?;
        match self.read_msg()? {
            ServerMsg::FragmentResult {
                id: got,
                columns,
                rows,
            } => {
                if got != id {
                    return Err(ClientError::Protocol(format!(
                        "fragment id mismatch: sent {id}, got {got}"
                    )));
                }
                Ok((columns, rows))
            }
            ServerMsg::Err { code, message } => Err(refusal(code, message)),
            other => Err(ClientError::Protocol(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Compile and cache `sql` under `name` in the server session
    /// (protocol v4) — the wire form of `PREPARE name AS sql`. Returns
    /// the number of `?` placeholders the statement takes, which is how
    /// many arguments [`Client::execute_prepared`] must supply.
    pub fn prepare(&mut self, name: &str, sql: &str) -> Result<u32, ClientError> {
        self.request(&ClientMsg::Prepare {
            name: name.into(),
            sql: sql.into(),
        })?;
        match self.read_msg()? {
            ServerMsg::Prepared { nparams } => Ok(nparams),
            ServerMsg::Err { code, message } => Err(refusal(code, message)),
            other => Err(ClientError::Protocol(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Run the statement prepared under `name` (protocol v4), binding its
    /// placeholders to `args` left-to-right. Arguments travel as typed
    /// values, so no literal quoting or re-parsing happens on the way in.
    pub fn execute_prepared(
        &mut self,
        name: &str,
        args: &[Value],
    ) -> Result<Response, ClientError> {
        self.request(&ClientMsg::ExecutePrepared {
            name: name.into(),
            args: args.to_vec(),
        })?;
        match self.read_msg()? {
            ServerMsg::Table { columns, rows } => Ok(Response::Table { columns, rows }),
            ServerMsg::Affected { n } => Ok(Response::Affected(n)),
            ServerMsg::Ok => Ok(Response::Ok),
            ServerMsg::Err { code, message } => Err(refusal(code, message)),
            other => Err(ClientError::Protocol(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Drop the statement prepared under `name` (protocol v4).
    #[cfg(test)]
    pub(crate) fn deallocate(&mut self, name: &str) -> Result<(), ClientError> {
        self.request(&ClientMsg::Deallocate { name: name.into() })?;
        match self.read_msg()? {
            ServerMsg::Ok => Ok(()),
            ServerMsg::Err { code, message } => Err(refusal(code, message)),
            other => Err(ClientError::Protocol(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Orderly disconnect. Dropping the client without calling this is
    /// fine too — the server treats EOF as a quit.
    pub fn quit(mut self) -> Result<(), ClientError> {
        self.send(&ClientMsg::Quit)?;
        Ok(())
    }

    // Both frame helpers poison the connection on failure: a failed write
    // leaves the request possibly half-sent, a failed read leaves the
    // response possibly half-consumed (a timeout mid-frame is the classic
    // case), and an undecodable frame means the two sides already
    // disagree. In every case the only safe continuation is a new
    // connection.
    fn send(&mut self, msg: &ClientMsg) -> Result<(), ClientError> {
        match write_frame(&mut self.stream, &msg.encode()) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.poisoned = true;
                Err(e.into())
            }
        }
    }

    fn read_msg(&mut self) -> Result<ServerMsg, ClientError> {
        let msg = self
            .frames
            .read_frame(&mut self.stream)
            .and_then(ServerMsg::decode);
        self.poisoned |= msg.is_err();
        Ok(msg?)
    }
}

fn refusal(code: ErrorCode, message: String) -> ClientError {
    if code == ErrorCode::ServerBusy {
        ClientError::Busy(message)
    } else {
        ClientError::Server { code, message }
    }
}

/// Transient failures worth another connection attempt: admission-control
/// sheds and the io errors a dying or not-yet-listening peer produces.
fn retryable(e: &ClientError) -> bool {
    match e {
        ClientError::Busy(_) => true,
        ClientError::Io(io) => matches!(
            io.kind(),
            io::ErrorKind::ConnectionRefused
                | io::ErrorKind::ConnectionReset
                | io::ErrorKind::ConnectionAborted
                | io::ErrorKind::BrokenPipe
                | io::ErrorKind::UnexpectedEof
        ),
        _ => false,
    }
}
