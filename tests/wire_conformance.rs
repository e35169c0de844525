//! Wire conformance: one protocol transcript, two daemons.
//!
//! `mammoth-server` and the shard coordinator's front end run the same
//! connection core (`mammoth_server::Listener`), so a client must not be
//! able to tell them apart below the statement level. Every transcript in
//! this file runs against both a [`Server`] and a [`FrontEnd`] and must
//! see the *same frames*, byte for byte after decoding, except for
//!
//! * the name advertised in `Hello` (and echoed in the version refusal),
//! * the two verbs only an engine serves — `Fragment` and `Subscribe` —
//!   which a coordinator refuses while keeping the connection,
//! * a non-finite float argument to `ExecutePrepared`, which a node binds
//!   like any value and a coordinator — it has to print its shards' legs
//!   as SQL, and NaN has no literal — refuses with a typed error.
//!
//! Several rows pin behaviour the front end's former hand copy of the
//! loop had lost: no frame after the `Ok` that answers `Shutdown`, verbs
//! gated by the *negotiated* protocol version, a bounded worker pool with
//! a backlog that sheds. The last test pins the structure itself, so the
//! loop cannot quietly fork again.

use mammoth_server::frame::{read_frame, write_frame};
use mammoth_server::{
    ClientMsg, ErrorCode, Server, ServerConfig, ServerMsg, MIN_PROTO_VERSION, PROTO_VERSION,
};
use mammoth_shard::{Coordinator, CoordinatorConfig, FrontConfig, FrontEnd};
use mammoth_types::Value;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    Server,
    Front,
}

impl Kind {
    /// The name the daemon advertises in its `Hello`.
    fn name(self) -> &'static str {
        match self {
            Kind::Server => mammoth_server::SERVER_NAME,
            Kind::Front => mammoth_shard::COORDINATOR_NAME,
        }
    }
}

/// Either daemon, behind the handful of operations a transcript needs.
enum Daemon {
    Server(Server),
    /// The front end plus the one in-memory shard its coordinator fronts.
    Front(FrontEnd, Server),
}

#[derive(Clone, Copy, Default)]
struct Cfg {
    auth: Option<&'static str>,
    allow_shutdown: bool,
}

impl Daemon {
    fn start(kind: Kind, cfg: Cfg) -> Daemon {
        let auth_token = cfg.auth.map(String::from);
        match kind {
            Kind::Server => Daemon::Server(
                Server::start(ServerConfig {
                    auth_token,
                    allow_remote_shutdown: cfg.allow_shutdown,
                    ..ServerConfig::default()
                })
                .unwrap(),
            ),
            Kind::Front => {
                let shard = Server::start(ServerConfig::default()).unwrap();
                let ccfg = CoordinatorConfig::new(vec![shard.local_addr().to_string()]);
                let mut fcfg = FrontConfig::new("127.0.0.1:0");
                fcfg.auth_token = auth_token;
                fcfg.allow_remote_shutdown = cfg.allow_shutdown;
                let front = FrontEnd::start(fcfg, Arc::new(Coordinator::new(ccfg))).unwrap();
                Daemon::Front(front, shard)
            }
        }
    }

    fn connect(&self) -> Conn {
        let addr = match self {
            Daemon::Server(s) => s.local_addr(),
            Daemon::Front(f, _) => f.local_addr(),
        };
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        Conn(stream)
    }

    fn request_shutdown(&self) {
        match self {
            Daemon::Server(s) => s.request_shutdown(),
            Daemon::Front(f, _) => f.request_shutdown(),
        }
    }

    /// What the daemon's `main` does: block until a client's `Shutdown`
    /// is honored, then drain.
    fn wait(self) {
        match self {
            Daemon::Server(s) => drop(s.wait().unwrap()),
            Daemon::Front(f, shard) => {
                f.wait().unwrap();
                shard.shutdown().unwrap();
            }
        }
    }

    fn stop(self) {
        self.request_shutdown();
        self.wait();
    }
}

/// A raw client connection: frames in, frames out, no client-side checks.
struct Conn(TcpStream);

/// What a read produced: a decoded frame, or the peer closing.
#[derive(Debug, PartialEq)]
enum Got {
    Frame(ServerMsg),
    Closed,
}

impl Conn {
    fn send(&mut self, msg: &ClientMsg) {
        write_frame(&mut self.0, &msg.encode()).unwrap();
    }

    fn recv(&mut self) -> Got {
        // Peek first so a clean close (or a reset racing it) is told apart
        // from a frame without guessing at error kinds afterwards.
        let mut b = [0u8; 1];
        match self.0.peek(&mut b) {
            Ok(0) => Got::Closed,
            Ok(_) => Got::Frame(ServerMsg::decode(&read_frame(&mut self.0).unwrap()).unwrap()),
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => Got::Closed,
            Err(e) => panic!("read failed: {e}"),
        }
    }

    fn login(&mut self, version: u16, token: &str) {
        self.send(&ClientMsg::Login {
            version,
            client: "conformance".into(),
            token: token.into(),
        });
    }

    /// `Hello`, then a v4 login that must be answered `Ready`.
    fn handshake(&mut self, name: &str) {
        assert_eq!(self.recv(), Got::Frame(hello(name)));
        self.login(PROTO_VERSION, "");
        assert_eq!(self.recv(), Got::Frame(ServerMsg::Ready));
    }
}

fn hello(name: &str) -> ServerMsg {
    ServerMsg::Hello {
        version: PROTO_VERSION,
        server: name.into(),
    }
}

fn query(sql: &str) -> ClientMsg {
    ClientMsg::Query { sql: sql.into() }
}

/// One step of a scripted transcript.
enum Step {
    /// Send a message.
    Send(ClientMsg),
    /// Send raw bytes (a frame the codec would never produce).
    Bytes(Vec<u8>),
    /// The next thing read must be exactly this frame.
    Expect(ServerMsg),
    /// The next thing read must be the peer closing — no stray frame.
    Closed,
}
use Step::{Bytes, Closed, Expect, Send};

/// A well-framed payload whose tag no message uses.
const BAD_TAG: &[u8] = &[0x7f];

fn framed(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    write_frame(&mut out, payload).unwrap();
    out
}

/// Every scripted transcript: name, daemon config, and the steps that
/// follow the `Hello`. `name` is the daemon's advertised name — the one
/// place a transcript may differ between daemons.
fn transcripts(name: &str) -> Vec<(&'static str, Cfg, Vec<Step>)> {
    let open = Cfg::default();
    let login = |version| {
        Send(ClientMsg::Login {
            version,
            client: "conformance".into(),
            token: String::new(),
        })
    };
    let table = |col: &str, v: i64| ServerMsg::Table {
        columns: vec![col.into()],
        rows: vec![vec![Value::I64(v)]],
    };
    let unsupported = |version: u16| {
        ServerMsg::err(
            ErrorCode::Protocol,
            format!(
                "protocol version {version} unsupported \
                 ({name} speaks {MIN_PROTO_VERSION}..={PROTO_VERSION})"
            ),
        )
    };
    let decode_err = ClientMsg::decode(BAD_TAG).unwrap_err();
    let mut bad_crc = framed(&query("SELECT 1").encode());
    *bad_crc.last_mut().unwrap() ^= 0xff;
    vec![
        (
            "happy path: ad hoc, then the prepared verbs, then Quit",
            open,
            vec![
                login(PROTO_VERSION),
                Expect(ServerMsg::Ready),
                Send(query("CREATE TABLE t (a BIGINT NOT NULL)")),
                Expect(ServerMsg::Ok),
                Send(query("INSERT INTO t VALUES (1), (2), (3)")),
                Expect(ServerMsg::Affected { n: 3 }),
                Send(query("SELECT a FROM t WHERE a = 2")),
                Expect(table("a", 2)),
                Send(query("SELECT nope FROM t")),
                Expect(ServerMsg::err(ErrorCode::Sql, "column not found: nope")),
                Send(ClientMsg::Prepare {
                    name: "p".into(),
                    sql: "SELECT a FROM t WHERE a = ?".into(),
                }),
                Expect(ServerMsg::Prepared { nparams: 1 }),
                Send(ClientMsg::ExecutePrepared {
                    name: "p".into(),
                    args: vec![Value::I64(3)],
                }),
                Expect(table("a", 3)),
                Send(ClientMsg::Deallocate { name: "p".into() }),
                Expect(ServerMsg::Ok),
                Send(ClientMsg::Quit),
                Closed,
            ],
        ),
        (
            // An `ExecutePrepared` frame is the statement already: its
            // arguments reach the bind as the values the wire delivered,
            // not as text printed for a second parse. Floats Rust prints
            // with an exponent, the narrow integer and oid types, and a
            // string holding a quote and a newline all used to be lost or
            // refused on that round trip.
            "prepared arguments arrive as the wire's values",
            open,
            {
                let prepare = |name: &str, sql: &str, nparams| {
                    let (name, sql) = (name.into(), sql.into());
                    [
                        Send(ClientMsg::Prepare { name, sql }),
                        Expect(ServerMsg::Prepared { nparams }),
                    ]
                };
                let execute = |name: &str, args: Vec<Value>, want| {
                    let name = name.into();
                    [
                        Send(ClientMsg::ExecutePrepared { name, args }),
                        Expect(want),
                    ]
                };
                let two_lines = || Value::Str("it's\ntwo lines".into());
                let row = |k, f, tiny, o, s| vec![Value::I64(k), Value::F64(f), tiny, o, s];
                let mut steps = vec![
                    login(PROTO_VERSION),
                    Expect(ServerMsg::Ready),
                    Send(query(
                        "CREATE TABLE w (k BIGINT NOT NULL, f DOUBLE, tiny TINYINT, o OID, s VARCHAR)",
                    )),
                    Expect(ServerMsg::Ok),
                ];
                steps.extend(prepare("ins", "INSERT INTO w VALUES (?, ?, ?, ?, ?)", 5));
                steps.extend(execute(
                    "ins",
                    row(1, 1e-7, Value::I8(-5), Value::Oid(7), two_lines()),
                    ServerMsg::Affected { n: 1 },
                ));
                steps.extend(execute(
                    "ins",
                    row(
                        2,
                        1e300,
                        Value::I8(6),
                        Value::Oid(8),
                        Value::Str("plain".into()),
                    ),
                    ServerMsg::Affected { n: 1 },
                ));
                for (column, arg, k) in [
                    ("f", Value::F64(1e-7), 1),
                    ("f", Value::F64(1e300), 2),
                    ("tiny", Value::I8(-5), 1),
                    ("o", Value::Oid(8), 2),
                    ("s", two_lines(), 1),
                ] {
                    let sql = format!("SELECT k FROM w WHERE {column} = ?");
                    steps.extend(prepare("by", &sql, 1));
                    steps.extend(execute("by", vec![arg], table("k", k)));
                    steps.push(Send(ClientMsg::Deallocate { name: "by".into() }));
                    steps.push(Expect(ServerMsg::Ok));
                }
                // NaN has no SQL spelling. A node binds it as it binds any
                // value, and no row equals it; a coordinator, which must
                // print a shard's leg of the statement, refuses it typed.
                steps.extend(prepare("by", "SELECT k FROM w WHERE f = ?", 1));
                let nan = if name == mammoth_server::SERVER_NAME {
                    ServerMsg::Table {
                        columns: vec!["k".into()],
                        rows: vec![],
                    }
                } else {
                    ServerMsg::err(
                        ErrorCode::Sql,
                        "unsupported: a non-finite float (NaN) has no SQL literal to send a shard",
                    )
                };
                steps.extend(execute("by", vec![Value::F64(f64::NAN)], nan));
                steps.extend([Send(ClientMsg::Quit), Closed]);
                steps
            },
        ),
        (
            // no v1 binary exists any more, so speak it by hand
            "the oldest supported version is served unchanged",
            open,
            vec![
                login(MIN_PROTO_VERSION),
                Expect(ServerMsg::Ready),
                Send(query("CREATE TABLE t (a BIGINT NOT NULL)")),
                Expect(ServerMsg::Ok),
                Send(query("SELECT a FROM t")),
                Expect(ServerMsg::Table {
                    columns: vec!["a".into()],
                    rows: vec![],
                }),
                Send(ClientMsg::Quit),
                Closed,
            ],
        ),
        (
            "version above the supported range",
            open,
            vec![
                login(PROTO_VERSION + 5),
                Expect(unsupported(PROTO_VERSION + 5)),
                Closed,
            ],
        ),
        (
            "version below the supported range",
            open,
            vec![
                login(MIN_PROTO_VERSION - 1),
                Expect(unsupported(MIN_PROTO_VERSION - 1)),
                Closed,
            ],
        ),
        (
            "bad token",
            Cfg {
                auth: Some("sesame"),
                ..open
            },
            vec![
                login(PROTO_VERSION),
                Expect(ServerMsg::err(ErrorCode::AuthFailed, "bad auth token")),
                Closed,
            ],
        ),
        (
            "good token",
            Cfg {
                auth: Some("sesame"),
                ..open
            },
            vec![
                Send(ClientMsg::Login {
                    version: PROTO_VERSION,
                    client: "conformance".into(),
                    token: "sesame".into(),
                }),
                Expect(ServerMsg::Ready),
                Send(ClientMsg::Quit),
                Closed,
            ],
        ),
        (
            "first frame is not a Login",
            open,
            vec![
                Send(query("SELECT 1")),
                Expect(ServerMsg::err(
                    ErrorCode::Protocol,
                    "expected Login after Hello",
                )),
                Closed,
            ],
        ),
        (
            "undecodable first frame",
            open,
            vec![
                Bytes(framed(BAD_TAG)),
                Expect(ServerMsg::err(
                    ErrorCode::Protocol,
                    format!("bad login frame: {decode_err}"),
                )),
                Closed,
            ],
        ),
        (
            "undecodable frame after login",
            open,
            vec![
                login(PROTO_VERSION),
                Expect(ServerMsg::Ready),
                Bytes(framed(BAD_TAG)),
                Expect(ServerMsg::err(
                    ErrorCode::Protocol,
                    format!("bad frame: {decode_err}"),
                )),
                Closed,
            ],
        ),
        (
            // a desynchronized stream cannot be answered in protocol
            "corrupt frame (CRC mismatch) just drops the connection",
            open,
            vec![
                login(PROTO_VERSION),
                Expect(ServerMsg::Ready),
                Bytes(bad_crc),
                Closed,
            ],
        ),
        (
            "second Login",
            open,
            vec![
                login(PROTO_VERSION),
                Expect(ServerMsg::Ready),
                login(PROTO_VERSION),
                Expect(ServerMsg::err(ErrorCode::Protocol, "already logged in")),
                Closed,
            ],
        ),
        (
            "v4 verb on a connection that negotiated v3",
            open,
            vec![
                login(3),
                Expect(ServerMsg::Ready),
                Send(query("CREATE TABLE t (a BIGINT NOT NULL)")),
                Expect(ServerMsg::Ok),
                Send(ClientMsg::Prepare {
                    name: "p".into(),
                    sql: "SELECT a FROM t".into(),
                }),
                Expect(ServerMsg::err(
                    ErrorCode::Protocol,
                    "Prepare requires protocol version 4",
                )),
                Closed,
            ],
        ),
        (
            "v3 verb on a connection that negotiated v2",
            open,
            vec![
                login(2),
                Expect(ServerMsg::Ready),
                Send(ClientMsg::Fragment {
                    id: 1,
                    sql: "SELECT 1".into(),
                }),
                Expect(ServerMsg::err(
                    ErrorCode::Protocol,
                    "Fragment requires protocol version 3",
                )),
                Closed,
            ],
        ),
        (
            "v2 verb on a connection that negotiated v1",
            open,
            vec![
                login(1),
                Expect(ServerMsg::Ready),
                Send(ClientMsg::Subscribe {
                    generation: 0,
                    offset: 0,
                }),
                Expect(ServerMsg::err(
                    ErrorCode::Protocol,
                    "Subscribe requires protocol version 2",
                )),
                Closed,
            ],
        ),
        (
            "remote Shutdown refused",
            open,
            vec![
                login(PROTO_VERSION),
                Expect(ServerMsg::Ready),
                Send(ClientMsg::Shutdown),
                Expect(ServerMsg::err(
                    ErrorCode::Protocol,
                    "remote shutdown disabled on this server",
                )),
                Closed,
            ],
        ),
    ]
}

fn run_transcript(kind: Kind, case: &str, cfg: Cfg, steps: Vec<Step>) {
    let daemon = Daemon::start(kind, cfg);
    let mut c = daemon.connect();
    assert_eq!(c.recv(), Got::Frame(hello(kind.name())), "{kind:?}: {case}");
    for (i, step) in steps.into_iter().enumerate() {
        match step {
            Send(msg) => c.send(&msg),
            Bytes(raw) => c.0.write_all(&raw).unwrap(),
            Expect(want) => assert_eq!(c.recv(), Got::Frame(want), "{kind:?}: {case}, step {i}"),
            Closed => assert_eq!(c.recv(), Got::Closed, "{kind:?}: {case}, step {i}"),
        }
    }
    daemon.stop();
}

#[test]
fn scripted_transcripts_read_the_same_on_both_daemons() {
    for kind in [Kind::Server, Kind::Front] {
        for (case, cfg, steps) in transcripts(kind.name()) {
            run_transcript(kind, case, cfg, steps);
        }
    }
}

/// An honored `Shutdown` is answered `Ok` and nothing else — then the
/// daemon's `wait()` returns.
#[test]
fn remote_shutdown_is_one_ok_then_a_drain() {
    for kind in [Kind::Server, Kind::Front] {
        let daemon = Daemon::start(
            kind,
            Cfg {
                allow_shutdown: true,
                ..Cfg::default()
            },
        );
        let mut c = daemon.connect();
        c.handshake(kind.name());
        c.send(&ClientMsg::Shutdown);
        assert_eq!(c.recv(), Got::Frame(ServerMsg::Ok), "{kind:?}");
        assert_eq!(c.recv(), Got::Closed, "{kind:?}: stray frame after Ok");
        daemon.wait();
    }
}

#[test]
fn drain_tells_idle_and_pipelining_clients_alike() {
    let shutting_down = || {
        Got::Frame(ServerMsg::err(
            ErrorCode::ShuttingDown,
            "server shutting down",
        ))
    };
    for kind in [Kind::Server, Kind::Front] {
        let daemon = Daemon::start(kind, Cfg::default());
        let name = kind.name();
        let mut idle = daemon.connect();
        idle.handshake(name);
        // half a handshake is an idle connection too
        let mut greeted = daemon.connect();
        assert_eq!(greeted.recv(), Got::Frame(hello(name)));
        let mut busy = daemon.connect();
        busy.handshake(name);
        busy.send(&query("CREATE TABLE t (a BIGINT NOT NULL)"));
        assert_eq!(busy.recv(), Got::Frame(ServerMsg::Ok));
        // A pipelining client never idles: its next statements are already
        // in the socket when the drain begins. Shutdown means "finish the
        // statement in flight", so it reads some prefix of answers, then
        // the notice — never the whole backlog served first and then
        // silence.
        const PIPELINED: usize = 64;
        let mut batch = Vec::new();
        for i in 0..PIPELINED {
            batch.extend(framed(
                &query(&format!("INSERT INTO t VALUES ({i})")).encode(),
            ));
        }
        busy.0.write_all(&batch).unwrap();
        daemon.request_shutdown();
        let mut answered = 0;
        let last = loop {
            match busy.recv() {
                Got::Frame(ServerMsg::Affected { n: 1 }) => answered += 1,
                other => break other,
            }
        };
        assert_eq!(last, shutting_down(), "{kind:?}: after {answered} answers");
        assert_eq!(busy.recv(), Got::Closed, "{kind:?}");
        for c in [&mut idle, &mut greeted] {
            assert_eq!(c.recv(), shutting_down(), "{kind:?}");
            assert_eq!(c.recv(), Got::Closed, "{kind:?}");
        }
        daemon.wait();
    }
}

/// Admission control is the core's, so the coordinator sheds exactly like
/// the server: with every worker serving a connection and the backlog
/// full, the next connect is answered `SERVER_BUSY` in place of `Hello`.
#[test]
fn full_backlog_sheds_with_server_busy() {
    let limits = ServerConfig::default();
    for kind in [Kind::Server, Kind::Front] {
        let daemon = Daemon::start(kind, Cfg::default());
        // A finished handshake proves a worker adopted the connection.
        let holders: Vec<Conn> = (0..limits.workers)
            .map(|_| {
                let mut c = daemon.connect();
                c.handshake(kind.name());
                c
            })
            .collect();
        // The acceptor takes connections in arrival order, so by the time
        // it reaches the surplus connect these are all parked.
        let parked: Vec<Conn> = (0..limits.backlog).map(|_| daemon.connect()).collect();
        let mut surplus = daemon.connect();
        assert_eq!(
            surplus.recv(),
            Got::Frame(ServerMsg::err(
                ErrorCode::ServerBusy,
                "connection backlog full; retry later"
            )),
            "{kind:?}"
        );
        assert_eq!(surplus.recv(), Got::Closed, "{kind:?}");
        // Parked is not shed: a freed worker serves the next in line.
        drop(holders);
        let mut parked = parked.into_iter();
        let mut next = parked.next().unwrap();
        assert_eq!(next.recv(), Got::Frame(hello(kind.name())), "{kind:?}");
        drop(next);
        drop(parked);
        daemon.stop();
    }
}

/// The two sanctioned differences: an engine serves `Fragment` and
/// `Subscribe`, a coordinator refuses them — and either way the
/// connection stays in protocol.
#[test]
fn only_an_engine_serves_fragment_and_subscribe() {
    let fragment = ClientMsg::Fragment {
        id: 7,
        sql: "SELECT a FROM t".into(),
    };
    let subscribe = ClientMsg::Subscribe {
        generation: 0,
        offset: 0,
    };
    for kind in [Kind::Server, Kind::Front] {
        let daemon = Daemon::start(kind, Cfg::default());
        let mut c = daemon.connect();
        c.handshake(kind.name());
        c.send(&query("CREATE TABLE t (a BIGINT NOT NULL)"));
        assert_eq!(c.recv(), Got::Frame(ServerMsg::Ok));
        c.send(&fragment);
        let got_fragment = c.recv();
        c.send(&subscribe);
        let got_subscribe = c.recv();
        let (want_fragment, want_subscribe) = match kind {
            Kind::Server => (
                ServerMsg::FragmentResult {
                    id: 7,
                    columns: vec!["a".into()],
                    rows: vec![],
                },
                // (this server is in-memory; a durable one ships its WAL)
                ServerMsg::err(ErrorCode::Protocol, "replication requires a durable server"),
            ),
            Kind::Front => (
                ServerMsg::err(
                    ErrorCode::Protocol,
                    "mammoth-shard is not a scatter target; send Query",
                ),
                ServerMsg::err(
                    ErrorCode::Protocol,
                    "mammoth-shard does not serve a WAL stream",
                ),
            ),
        };
        assert_eq!(got_fragment, Got::Frame(want_fragment), "{kind:?}");
        assert_eq!(got_subscribe, Got::Frame(want_subscribe), "{kind:?}");
        c.send(&query("SELECT COUNT(*) FROM t"));
        assert!(matches!(c.recv(), Got::Frame(ServerMsg::Table { .. })));
        daemon.stop();
    }
}

/// The structure the transcripts rely on: each step between `accept()`
/// and a statement's execution is defined once in the workspace's
/// non-test code. A second acceptor or serve loop would pass every
/// transcript above on the day it is forked and drift afterwards — which
/// is how the front end lost `set_nodelay`, its connection cap and its
/// acceptor's exit on a hard `accept()` error.
#[test]
fn the_front_door_is_defined_once() {
    fn rust_sources(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                rust_sources(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut files = Vec::new();
    for krate in std::fs::read_dir(crates).unwrap() {
        let src = krate.unwrap().path().join("src");
        if src.is_dir() {
            rust_sources(&src, &mut files);
        }
    }
    for needle in [
        "fn serve_connection",
        "fn acceptor_loop",
        "fn wait_for_data",
        "enum Wait",
        "fn refuse",
        "TcpListener::bind",
        "struct PreparedStmt",
        "format!(\"PREPARE {",
        "format!(\"EXECUTE {",
        "format!(\"DEALLOCATE {",
    ] {
        let mut sites = Vec::new();
        for file in &files {
            let text = std::fs::read_to_string(file).unwrap();
            // unit tests sit below the module's code
            let code = text.split("#[cfg(test)]").next().unwrap();
            for (i, line) in code.lines().enumerate() {
                if line.contains(needle) && !line.trim_start().starts_with("//") {
                    sites.push(format!("{}:{}", file.display(), i + 1));
                }
            }
        }
        assert_eq!(sites.len(), 1, "`{needle}` defined at {sites:?}");
    }
}
