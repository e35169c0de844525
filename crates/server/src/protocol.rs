//! The MAPI-inspired message layer riding on [`crate::frame`].
//!
//! Connection lifecycle (client's view):
//!
//! ```text
//! connect ──► read Hello ──► send Login ──► read Ready
//!     │                                        │
//!     │  (admission control may answer the     ▼
//!     │   connect with Err(SERVER_BUSY) or   send Query ──► read Table /
//!     │   Err(SHUTTING_DOWN) instead of        ▲            Affected / Ok /
//!     │   Hello, then close)                   └──────────  Err(code, msg)
//!     │
//!     └─ send Quit ──► close          send Shutdown ──► read Ok (graceful
//!                                     server drain begins), then close
//! ```
//!
//! Every message is one frame; the payload's first byte is the tag. Tags
//! `< 0x80` flow client→server, `>= 0x80` server→client.

use crate::frame::{put_str, put_u16, put_u32, put_u64, put_value, Reader};
use mammoth_sql::QueryOutput;
use mammoth_types::{Error, Result, Value};
use std::fmt;

/// Newest wire protocol version this build speaks. Version 1 is the PR 5
/// query protocol; version 2 adds the replication messages
/// ([`ClientMsg::Subscribe`], [`ServerMsg::WalChunk`] and friends);
/// version 3 adds the sharding fragment messages
/// ([`ClientMsg::Fragment`] / [`ServerMsg::FragmentResult`]); version 4
/// adds the prepared-statement messages ([`ClientMsg::Prepare`] /
/// [`ClientMsg::ExecutePrepared`] / [`ClientMsg::Deallocate`] /
/// [`ServerMsg::Prepared`]), which ship `EXECUTE` arguments as typed
/// values instead of re-parsed literals.
///
/// Negotiation: [`ServerMsg::Hello`] advertises the server's newest
/// version, the client replies in [`ClientMsg::Login`] with
/// `min(its newest, server's)`, and the server accepts any version in
/// `MIN_PROTO_VERSION..=PROTO_VERSION`. A v1 client therefore logs in with
/// version 1 exactly as before, and a v2/v3/v4 client downgrades itself
/// against an older server (a v1 server still hard-rejects anything
/// but 1).
pub const PROTO_VERSION: u16 = 4;

/// Oldest protocol version the server still accepts in `Login`.
pub const MIN_PROTO_VERSION: u16 = 1;

/// The server's self-identification in the greeting.
pub const SERVER_NAME: &str = "mammoth-server";

/// Machine-readable error classes carried by [`ServerMsg::Err`] frames.
/// The numeric discriminant is the wire encoding; the string form is what
/// `mammoth-cli` prints and docs/server.md documents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The statement was rejected by the SQL layer (parse/bind/execution).
    Sql = 1,
    /// Admission control shed this connection or statement; retry later.
    ServerBusy = 2,
    /// The statement missed its admission deadline (`stmt_timeout`).
    StmtTimeout = 3,
    /// Login rejected (bad token or malformed handshake).
    AuthFailed = 4,
    /// The server is draining for shutdown and refuses new work.
    ShuttingDown = 5,
    /// The statement crashed the session; the session was rebuilt from its
    /// durable state (or reset, for in-memory servers) and the statement
    /// must be considered not applied.
    SessionPoisoned = 6,
    /// The peer violated the protocol (bad frame, unexpected message).
    Protocol = 7,
    /// A server-side invariant failed; this is a bug.
    Internal = 8,
    /// The server is a read-only replica; writes must go to the primary.
    ReadOnly = 9,
    /// A shard did not answer within the coordinator's deadline (dead
    /// process, dropped connection, or timeout). The statement was not
    /// (fully) applied; no partial result is returned.
    ShardUnavailable = 10,
}

impl ErrorCode {
    pub fn as_str(&self) -> &'static str {
        match self {
            ErrorCode::Sql => "SQL_ERROR",
            ErrorCode::ServerBusy => "SERVER_BUSY",
            ErrorCode::StmtTimeout => "STMT_TIMEOUT",
            ErrorCode::AuthFailed => "AUTH_FAILED",
            ErrorCode::ShuttingDown => "SHUTTING_DOWN",
            ErrorCode::SessionPoisoned => "SESSION_POISONED",
            ErrorCode::Protocol => "PROTOCOL_ERROR",
            ErrorCode::Internal => "INTERNAL",
            ErrorCode::ReadOnly => "READ_ONLY",
            ErrorCode::ShardUnavailable => "SHARD_UNAVAILABLE",
        }
    }

    pub fn from_u16(x: u16) -> Result<ErrorCode> {
        Ok(match x {
            1 => ErrorCode::Sql,
            2 => ErrorCode::ServerBusy,
            3 => ErrorCode::StmtTimeout,
            4 => ErrorCode::AuthFailed,
            5 => ErrorCode::ShuttingDown,
            6 => ErrorCode::SessionPoisoned,
            7 => ErrorCode::Protocol,
            8 => ErrorCode::Internal,
            9 => ErrorCode::ReadOnly,
            10 => ErrorCode::ShardUnavailable,
            t => return Err(Error::Corrupt(format!("unknown error code {t}"))),
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Client → server messages.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientMsg {
    /// Handshake reply to [`ServerMsg::Hello`]: who the client is, which
    /// protocol version it speaks, and the (possibly empty) auth token.
    Login {
        version: u16,
        client: String,
        token: String,
    },
    /// Execute one SQL statement.
    Query { sql: String },
    /// Orderly disconnect.
    Quit,
    /// Request a graceful server shutdown (drain, checkpoint, exit).
    Shutdown,
    /// (v2) Ask for the primary's WAL stream starting at `(generation,
    /// offset)` — `offset` is a raw byte offset into `wal-<generation>`,
    /// including its 8-byte header; `Subscribe { 0, 0 }` means "I have
    /// nothing, bootstrap me". The server answers with a catch-up batch:
    /// [`ServerMsg::CheckpointImage`] chunks if the asked-for range is
    /// gone (or the subscriber is behind the last checkpoint), then
    /// [`ServerMsg::WalChunk`]s, then [`ServerMsg::CaughtUp`]. Polling the
    /// same connection with successive `Subscribe`s tails the log.
    Subscribe { generation: u64, offset: u64 },
    /// (v3) Execute one read-only statement as a scatter leg for a shard
    /// coordinator. `id` is the coordinator's correlation id, echoed back
    /// in [`ServerMsg::FragmentResult`]. The statement must parse to one
    /// `Statement::is_read` accepts; writes travel as plain [`ClientMsg::Query`]
    /// so they take the shard's normal WAL-durable commit path.
    Fragment { id: u64, sql: String },
    /// (v4) Compile and cache `sql` under `name` in this session, exactly
    /// like the SQL `PREPARE name AS sql` statement. The statement may
    /// contain `?` placeholders; the server answers with
    /// [`ServerMsg::Prepared`] carrying the placeholder count.
    Prepare { name: String, sql: String },
    /// (v4) Run the statement prepared under `name`, binding its `?`
    /// placeholders to `args` left-to-right. Arguments travel as typed
    /// [`Value`]s — no literal re-parsing on the server. Answered like a
    /// plain query: [`ServerMsg::Table`] / [`ServerMsg::Affected`] /
    /// [`ServerMsg::Ok`] / [`ServerMsg::Err`].
    ExecutePrepared { name: String, args: Vec<Value> },
    /// (v4) Drop the statement prepared under `name` from this session.
    Deallocate { name: String },
}

const T_LOGIN: u8 = 0x01;
const T_QUERY: u8 = 0x02;
const T_QUIT: u8 = 0x03;
const T_SHUTDOWN: u8 = 0x04;
const T_SUBSCRIBE: u8 = 0x05;
const T_FRAGMENT: u8 = 0x06;
const T_PREPARE: u8 = 0x07;
const T_EXECPREP: u8 = 0x08;
const T_DEALLOC: u8 = 0x09;

const T_HELLO: u8 = 0x80;
const T_READY: u8 = 0x81;
const T_TABLE: u8 = 0x82;
const T_AFFECTED: u8 = 0x83;
const T_OK: u8 = 0x84;
const T_ERR: u8 = 0x85;
const T_WALCHUNK: u8 = 0x86;
const T_IMAGE: u8 = 0x87;
const T_CAUGHTUP: u8 = 0x88;
const T_FRAGRESULT: u8 = 0x89;
const T_PREPARED: u8 = 0x8a;

impl ClientMsg {
    /// The message's name and the protocol version that introduced it.
    pub fn verb(&self) -> (&'static str, u16) {
        match self {
            ClientMsg::Login { .. } => ("Login", 1),
            ClientMsg::Query { .. } => ("Query", 1),
            ClientMsg::Quit => ("Quit", 1),
            ClientMsg::Shutdown => ("Shutdown", 1),
            ClientMsg::Subscribe { .. } => ("Subscribe", 2),
            ClientMsg::Fragment { .. } => ("Fragment", 3),
            ClientMsg::Prepare { .. } => ("Prepare", 4),
            ClientMsg::ExecutePrepared { .. } => ("ExecutePrepared", 4),
            ClientMsg::Deallocate { .. } => ("Deallocate", 4),
        }
    }

    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            ClientMsg::Login {
                version,
                client,
                token,
            } => {
                out.push(T_LOGIN);
                put_u16(*version, &mut out);
                put_str(client, &mut out);
                put_str(token, &mut out);
            }
            ClientMsg::Query { sql } => {
                out.push(T_QUERY);
                put_str(sql, &mut out);
            }
            ClientMsg::Quit => out.push(T_QUIT),
            ClientMsg::Shutdown => out.push(T_SHUTDOWN),
            ClientMsg::Subscribe { generation, offset } => {
                out.push(T_SUBSCRIBE);
                put_u64(*generation, &mut out);
                put_u64(*offset, &mut out);
            }
            ClientMsg::Fragment { id, sql } => {
                out.push(T_FRAGMENT);
                put_u64(*id, &mut out);
                put_str(sql, &mut out);
            }
            ClientMsg::Prepare { name, sql } => {
                out.push(T_PREPARE);
                put_str(name, &mut out);
                put_str(sql, &mut out);
            }
            ClientMsg::ExecutePrepared { name, args } => {
                out.push(T_EXECPREP);
                put_str(name, &mut out);
                put_u32(args.len() as u32, &mut out);
                for v in args {
                    put_value(v, &mut out);
                }
            }
            ClientMsg::Deallocate { name } => {
                out.push(T_DEALLOC);
                put_str(name, &mut out);
            }
        }
        out
    }

    pub fn decode(payload: &[u8]) -> Result<ClientMsg> {
        let mut r = Reader::new(payload);
        let msg = match r.u8()? {
            T_LOGIN => ClientMsg::Login {
                version: r.u16()?,
                client: r.str()?,
                token: r.str()?,
            },
            T_QUERY => ClientMsg::Query { sql: r.str()? },
            T_QUIT => ClientMsg::Quit,
            T_SHUTDOWN => ClientMsg::Shutdown,
            T_SUBSCRIBE => ClientMsg::Subscribe {
                generation: r.u64()?,
                offset: r.u64()?,
            },
            T_FRAGMENT => ClientMsg::Fragment {
                id: r.u64()?,
                sql: r.str()?,
            },
            T_PREPARE => ClientMsg::Prepare {
                name: r.str()?,
                sql: r.str()?,
            },
            T_EXECPREP => {
                let name = r.str()?;
                let nargs = r.u32()? as usize;
                // Every argument consumes at least one byte; reject a count
                // that overruns the payload before allocating for it.
                if nargs > r.remaining() {
                    return Err(Error::Corrupt("argument count overruns payload".into()));
                }
                let mut args = Vec::with_capacity(nargs);
                for _ in 0..nargs {
                    args.push(r.value()?);
                }
                ClientMsg::ExecutePrepared { name, args }
            }
            T_DEALLOC => ClientMsg::Deallocate { name: r.str()? },
            t => return Err(Error::Corrupt(format!("unknown client message tag {t}"))),
        };
        if !r.done() {
            return Err(Error::Corrupt("trailing bytes in client message".into()));
        }
        Ok(msg)
    }
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerMsg {
    /// Greeting, sent as soon as a worker adopts the connection.
    Hello { version: u16, server: String },
    /// Login accepted; queries may flow.
    Ready,
    /// A result table: column names + row-major values.
    Table {
        columns: Vec<String>,
        rows: Vec<Vec<Value>>,
    },
    /// DML acknowledged; `n` rows affected (and, on durable servers,
    /// fsync'd per the group-commit config before this frame is sent).
    Affected { n: u64 },
    /// DDL / utility statement succeeded.
    Ok,
    /// The statement or connection failed; see [`ErrorCode`].
    Err { code: ErrorCode, message: String },
    /// (v2) A raw byte range of `wal-<generation>`, starting at `offset`.
    /// The bytes are verbatim file content — CRC32-framed redo records —
    /// so the subscriber can append them to its own log unchanged.
    WalChunk {
        generation: u64,
        offset: u64,
        bytes: Vec<u8>,
    },
    /// (v2) One chunk of a checkpoint image file during bootstrap. Chunks
    /// of one file arrive in order under the same `name`; `last` marks the
    /// end of the *whole image*, after which `wal-<generation>` chunks
    /// follow. A `last` chunk with an empty `name` and no bytes means "no
    /// checkpoint exists yet" (generation 0): start from an empty catalog.
    CheckpointImage {
        generation: u64,
        name: String,
        last: bool,
        bytes: Vec<u8>,
    },
    /// (v2) The subscriber now holds every durable byte the primary has:
    /// its `(generation, offset)` tip at the time of the poll.
    CaughtUp { generation: u64, offset: u64 },
    /// (v3) One shard's partial result for [`ClientMsg::Fragment`] `id`:
    /// the fragment statement's result table, verbatim. Errors still
    /// travel as [`ServerMsg::Err`] so the coordinator's typed-error
    /// mapping is shared with the query path.
    FragmentResult {
        id: u64,
        columns: Vec<String>,
        rows: Vec<Vec<Value>>,
    },
    /// (v4) [`ClientMsg::Prepare`] succeeded; the statement takes
    /// `nparams` placeholder argument(s).
    Prepared { nparams: u32 },
}

impl ServerMsg {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            ServerMsg::Hello { version, server } => {
                out.push(T_HELLO);
                put_u16(*version, &mut out);
                put_str(server, &mut out);
            }
            ServerMsg::Ready => out.push(T_READY),
            ServerMsg::Table { columns, rows } => {
                out.push(T_TABLE);
                put_u32(columns.len() as u32, &mut out);
                for c in columns {
                    put_str(c, &mut out);
                }
                put_u64(rows.len() as u64, &mut out);
                for row in rows {
                    for v in row {
                        put_value(v, &mut out);
                    }
                }
            }
            ServerMsg::Affected { n } => {
                out.push(T_AFFECTED);
                put_u64(*n, &mut out);
            }
            ServerMsg::Ok => out.push(T_OK),
            ServerMsg::Err { code, message } => {
                out.push(T_ERR);
                put_u16(*code as u16, &mut out);
                put_str(message, &mut out);
            }
            ServerMsg::WalChunk {
                generation,
                offset,
                bytes,
            } => {
                out.push(T_WALCHUNK);
                put_u64(*generation, &mut out);
                put_u64(*offset, &mut out);
                put_u32(bytes.len() as u32, &mut out);
                out.extend_from_slice(bytes);
            }
            ServerMsg::CheckpointImage {
                generation,
                name,
                last,
                bytes,
            } => {
                out.push(T_IMAGE);
                put_u64(*generation, &mut out);
                put_str(name, &mut out);
                out.push(*last as u8);
                put_u32(bytes.len() as u32, &mut out);
                out.extend_from_slice(bytes);
            }
            ServerMsg::CaughtUp { generation, offset } => {
                out.push(T_CAUGHTUP);
                put_u64(*generation, &mut out);
                put_u64(*offset, &mut out);
            }
            ServerMsg::FragmentResult { id, columns, rows } => {
                out.push(T_FRAGRESULT);
                put_u64(*id, &mut out);
                put_u32(columns.len() as u32, &mut out);
                for c in columns {
                    put_str(c, &mut out);
                }
                put_u64(rows.len() as u64, &mut out);
                for row in rows {
                    for v in row {
                        put_value(v, &mut out);
                    }
                }
            }
            ServerMsg::Prepared { nparams } => {
                out.push(T_PREPARED);
                put_u32(*nparams, &mut out);
            }
        }
        out
    }

    pub fn decode(payload: &[u8]) -> Result<ServerMsg> {
        let mut r = Reader::new(payload);
        let msg = match r.u8()? {
            T_HELLO => ServerMsg::Hello {
                version: r.u16()?,
                server: r.str()?,
            },
            T_READY => ServerMsg::Ready,
            T_TABLE => {
                let ncols = r.u32()? as usize;
                if ncols > r.remaining() {
                    return Err(Error::Corrupt("column count overruns payload".into()));
                }
                let mut columns = Vec::with_capacity(ncols);
                for _ in 0..ncols {
                    columns.push(r.str()?);
                }
                let nrows = r.u64()? as usize;
                // Every row consumes at least one byte per value, and a
                // zero-column table cannot justify any row count — reject
                // both before the row loop spins on a corrupt length.
                if nrows > r.remaining() || (ncols == 0 && nrows > 0) {
                    return Err(Error::Corrupt("row count overruns payload".into()));
                }
                let mut rows = Vec::new();
                for _ in 0..nrows {
                    let mut row = Vec::with_capacity(ncols);
                    for _ in 0..ncols {
                        row.push(r.value()?);
                    }
                    rows.push(row);
                }
                ServerMsg::Table { columns, rows }
            }
            T_AFFECTED => ServerMsg::Affected { n: r.u64()? },
            T_OK => ServerMsg::Ok,
            T_ERR => ServerMsg::Err {
                code: ErrorCode::from_u16(r.u16()?)?,
                message: r.str()?,
            },
            T_WALCHUNK => {
                let generation = r.u64()?;
                let offset = r.u64()?;
                let n = r.u32()? as usize;
                ServerMsg::WalChunk {
                    generation,
                    offset,
                    bytes: r.bytes(n)?.to_vec(),
                }
            }
            T_IMAGE => {
                let generation = r.u64()?;
                let name = r.str()?;
                let last = r.u8()? != 0;
                let n = r.u32()? as usize;
                ServerMsg::CheckpointImage {
                    generation,
                    name,
                    last,
                    bytes: r.bytes(n)?.to_vec(),
                }
            }
            T_CAUGHTUP => ServerMsg::CaughtUp {
                generation: r.u64()?,
                offset: r.u64()?,
            },
            T_FRAGRESULT => {
                let id = r.u64()?;
                let ncols = r.u32()? as usize;
                if ncols > r.remaining() {
                    return Err(Error::Corrupt("column count overruns payload".into()));
                }
                let mut columns = Vec::with_capacity(ncols);
                for _ in 0..ncols {
                    columns.push(r.str()?);
                }
                let nrows = r.u64()? as usize;
                // Every row consumes at least one byte per value, and a
                // zero-column table cannot justify any row count — reject
                // both before the row loop spins on a corrupt length.
                if nrows > r.remaining() || (ncols == 0 && nrows > 0) {
                    return Err(Error::Corrupt("row count overruns payload".into()));
                }
                let mut rows = Vec::new();
                for _ in 0..nrows {
                    let mut row = Vec::with_capacity(ncols);
                    for _ in 0..ncols {
                        row.push(r.value()?);
                    }
                    rows.push(row);
                }
                ServerMsg::FragmentResult { id, columns, rows }
            }
            T_PREPARED => ServerMsg::Prepared { nparams: r.u32()? },
            t => return Err(Error::Corrupt(format!("unknown server message tag {t}"))),
        };
        if !r.done() {
            return Err(Error::Corrupt("trailing bytes in server message".into()));
        }
        Ok(msg)
    }

    /// An error frame.
    pub fn err(code: ErrorCode, message: impl Into<String>) -> ServerMsg {
        let message = message.into();
        ServerMsg::Err { code, message }
    }

    /// Rows this response carries or reports affected — what a
    /// `server.statement` trace event records as `rows_out`.
    pub fn result_rows(&self) -> u64 {
        match self {
            ServerMsg::Table { rows, .. } | ServerMsg::FragmentResult { rows, .. } => {
                rows.len() as u64
            }
            ServerMsg::Affected { n } => *n,
            _ => 0,
        }
    }

    /// Lift a SQL-layer result into its response message.
    pub fn from_output(out: QueryOutput) -> ServerMsg {
        match out {
            QueryOutput::Ok => ServerMsg::Ok,
            QueryOutput::Affected(n) => ServerMsg::Affected { n: n as u64 },
            QueryOutput::Table { columns, rows } => ServerMsg::Table { columns, rows },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_messages_roundtrip() {
        for msg in [
            ClientMsg::Login {
                version: PROTO_VERSION,
                client: "cli".into(),
                token: "s3cret".into(),
            },
            ClientMsg::Query {
                sql: "SELECT 'naïve\n' FROM t".into(),
            },
            ClientMsg::Quit,
            ClientMsg::Shutdown,
            ClientMsg::Subscribe {
                generation: 3,
                offset: 4096,
            },
            ClientMsg::Fragment {
                id: 42,
                sql: "SELECT COUNT(*) FROM t".into(),
            },
            ClientMsg::Prepare {
                name: "q1".into(),
                sql: "SELECT a FROM t WHERE a > ?".into(),
            },
            ClientMsg::ExecutePrepared {
                name: "q1".into(),
                args: vec![Value::I64(7), Value::Str("naïve".into()), Value::Null],
            },
            ClientMsg::ExecutePrepared {
                name: "noargs".into(),
                args: vec![],
            },
            ClientMsg::Deallocate { name: "q1".into() },
        ] {
            assert_eq!(ClientMsg::decode(&msg.encode()).unwrap(), msg);
        }
    }

    #[test]
    fn server_messages_roundtrip() {
        for msg in [
            ServerMsg::Hello {
                version: PROTO_VERSION,
                server: SERVER_NAME.into(),
            },
            ServerMsg::Ready,
            ServerMsg::Table {
                columns: vec!["a".into(), "b".into()],
                rows: vec![
                    vec![Value::I32(1), Value::Str("x".into())],
                    vec![Value::Null, Value::F64(0.5)],
                ],
            },
            ServerMsg::Table {
                columns: vec![],
                rows: vec![],
            },
            ServerMsg::Affected { n: 7 },
            ServerMsg::Ok,
            ServerMsg::Err {
                code: ErrorCode::ServerBusy,
                message: "backlog full".into(),
            },
            ServerMsg::WalChunk {
                generation: 2,
                offset: 8,
                bytes: vec![0xde, 0xad, 0xbe, 0xef],
            },
            ServerMsg::CheckpointImage {
                generation: 2,
                name: "catalog.mmth".into(),
                last: false,
                bytes: vec![1, 2, 3],
            },
            ServerMsg::CheckpointImage {
                generation: 0,
                name: String::new(),
                last: true,
                bytes: vec![],
            },
            ServerMsg::CaughtUp {
                generation: 2,
                offset: 1234,
            },
            ServerMsg::FragmentResult {
                id: 42,
                columns: vec!["cnt".into()],
                rows: vec![vec![Value::I64(9)]],
            },
            ServerMsg::FragmentResult {
                id: 0,
                columns: vec![],
                rows: vec![],
            },
            ServerMsg::Prepared { nparams: 0 },
            ServerMsg::Prepared { nparams: 3 },
        ] {
            assert_eq!(ServerMsg::decode(&msg.encode()).unwrap(), msg);
        }
    }

    #[test]
    fn malformed_messages_rejected() {
        assert!(ClientMsg::decode(&[]).is_err());
        assert!(ClientMsg::decode(&[0x7f]).is_err());
        // trailing garbage
        let mut enc = ClientMsg::Quit.encode();
        enc.push(0);
        assert!(ClientMsg::decode(&enc).is_err());
        // truncated table
        let enc = ServerMsg::Table {
            columns: vec!["a".into()],
            rows: vec![vec![Value::I32(1)]],
        }
        .encode();
        assert!(ServerMsg::decode(&enc[..enc.len() - 1]).is_err());
        // absurd column count must not allocate
        let mut bomb = vec![0x82u8];
        bomb.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(ServerMsg::decode(&bomb).is_err());
        assert!(ErrorCode::from_u16(99).is_err());
    }

    #[test]
    fn error_codes_roundtrip() {
        for code in [
            ErrorCode::Sql,
            ErrorCode::ServerBusy,
            ErrorCode::StmtTimeout,
            ErrorCode::AuthFailed,
            ErrorCode::ShuttingDown,
            ErrorCode::SessionPoisoned,
            ErrorCode::Protocol,
            ErrorCode::Internal,
            ErrorCode::ReadOnly,
            ErrorCode::ShardUnavailable,
        ] {
            assert_eq!(ErrorCode::from_u16(code as u16).unwrap(), code);
        }
    }

    /// Fuzz-style decode hardening for the v3 fragment messages: every
    /// truncation, every single-bit flip, and allocation-bomb headers must
    /// come back as typed `Err`s (or decode to *some* message for the rare
    /// flip that lands on another valid encoding) — never a panic, never a
    /// huge allocation.
    #[test]
    fn fragment_frames_survive_fuzzing() {
        use rand::{RngCore, RngExt, SeedableRng};

        let samples: Vec<Vec<u8>> = vec![
            ClientMsg::Fragment {
                id: u64::MAX,
                sql: "SELECT a, b FROM t WHERE a > 10".into(),
            }
            .encode(),
            ServerMsg::FragmentResult {
                id: 7,
                columns: vec!["a".into(), "s".into()],
                rows: vec![
                    vec![Value::I64(-3), Value::Str("naïve".into())],
                    vec![Value::Null, Value::Str(String::new())],
                ],
            }
            .encode(),
        ];
        for enc in &samples {
            // Every proper prefix is a truncation; none may panic.
            for cut in 0..enc.len() {
                let _ = ClientMsg::decode(&enc[..cut]);
                let _ = ServerMsg::decode(&enc[..cut]);
            }
            // Single-bit flips across the whole payload.
            for byte in 0..enc.len() {
                for bit in 0..8 {
                    let mut m = enc.clone();
                    m[byte] ^= 1 << bit;
                    let _ = ClientMsg::decode(&m);
                    let _ = ServerMsg::decode(&m);
                }
            }
        }
        // Oversized counts must be rejected before allocating.
        for tag in [T_FRAGMENT, T_FRAGRESULT] {
            let mut bomb = vec![tag];
            bomb.extend_from_slice(&u64::MAX.to_le_bytes()); // id
            bomb.extend_from_slice(&u32::MAX.to_le_bytes()); // len/count
            assert!(ClientMsg::decode(&bomb).is_err());
            assert!(ServerMsg::decode(&bomb).is_err());
        }
        // A row count that overruns the payload is rejected up front.
        let mut trick = vec![T_FRAGRESULT];
        trick.extend_from_slice(&1u64.to_le_bytes()); // id
        trick.extend_from_slice(&1u32.to_le_bytes()); // 1 column
        trick.extend_from_slice(&1u32.to_le_bytes()); // name len 1
        trick.push(b'a');
        trick.extend_from_slice(&u64::MAX.to_le_bytes()); // absurd row count
        assert!(ServerMsg::decode(&trick).is_err());
        // Seeded random byte soup: decoders must stay total.
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5a5d);
        for _ in 0..2000 {
            let n = rng.random_range(0usize..128);
            let mut buf = vec![0u8; n];
            for b in buf.iter_mut() {
                *b = (rng.next_u64() & 0xff) as u8;
            }
            if !buf.is_empty() {
                // Bias half the cases onto the fragment tags so the new
                // arms see deep coverage, not just tag rejection.
                if rng.random_bool(0.5) {
                    buf[0] = if rng.random_bool(0.5) {
                        T_FRAGMENT
                    } else {
                        T_FRAGRESULT
                    };
                }
            }
            let _ = ClientMsg::decode(&buf);
            let _ = ServerMsg::decode(&buf);
        }
    }

    /// The v4 prepared-statement frames get the same decode hardening as
    /// the fragments: truncations, bit flips, allocation bombs, and seeded
    /// byte soup must never panic or allocate unboundedly.
    #[test]
    fn prepared_frames_survive_fuzzing() {
        use rand::{RngCore, RngExt, SeedableRng};

        let samples: Vec<Vec<u8>> = vec![
            ClientMsg::Prepare {
                name: "q1".into(),
                sql: "SELECT a FROM t WHERE a BETWEEN ? AND ?".into(),
            }
            .encode(),
            ClientMsg::ExecutePrepared {
                name: "q1".into(),
                args: vec![Value::I64(-3), Value::Str("naïve".into()), Value::Null],
            }
            .encode(),
            ClientMsg::Deallocate { name: "q1".into() }.encode(),
            ServerMsg::Prepared { nparams: 2 }.encode(),
        ];
        for enc in &samples {
            for cut in 0..enc.len() {
                let _ = ClientMsg::decode(&enc[..cut]);
                let _ = ServerMsg::decode(&enc[..cut]);
            }
            for byte in 0..enc.len() {
                for bit in 0..8 {
                    let mut m = enc.clone();
                    m[byte] ^= 1 << bit;
                    let _ = ClientMsg::decode(&m);
                    let _ = ServerMsg::decode(&m);
                }
            }
        }
        // An absurd argument count must be rejected before allocating.
        let mut bomb = vec![T_EXECPREP];
        bomb.extend_from_slice(&1u32.to_le_bytes()); // name len 1
        bomb.push(b'q');
        bomb.extend_from_slice(&u32::MAX.to_le_bytes()); // absurd arg count
        assert!(ClientMsg::decode(&bomb).is_err());
        // Seeded random byte soup biased onto the new tags.
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x9a4e);
        for _ in 0..2000 {
            let n = rng.random_range(0usize..128);
            let mut buf = vec![0u8; n];
            for b in buf.iter_mut() {
                *b = (rng.next_u64() & 0xff) as u8;
            }
            if !buf.is_empty() && rng.random_bool(0.5) {
                buf[0] = *[T_PREPARE, T_EXECPREP, T_DEALLOC, T_PREPARED]
                    .get(rng.random_range(0usize..4))
                    .unwrap();
            }
            let _ = ClientMsg::decode(&buf);
            let _ = ServerMsg::decode(&buf);
        }
    }
}
