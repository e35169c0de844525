//! mammoth-server — a MAPI-style network front end for the engine.
//!
//! MonetDB clients speak MAPI to a server that multiplexes sessions over a
//! shared kernel (paper §2; the `mapi`/`mal_client` layers in MonetDB5).
//! This crate reproduces that shape at small scale:
//!
//! * [`frame`] — length-prefixed, CRC32-guarded frames (the WAL's framing
//!   discipline applied to a socket).
//! * [`protocol`] — tagged messages: `Login`/`Query`/`Quit`/`Shutdown` up,
//!   `Hello`/`Ready`/`Table`/`Affected`/`Ok`/`Err` down.
//! * [`shared`] — one engine session multiplexed across connections:
//!   concurrent readers, single writer with preference, per-statement
//!   admission deadlines, and panic-poisoned-session rebuilds.
//! * [`listener`] — the connection core every daemon instantiates with a
//!   [`Handler`]: acceptor + fixed worker pool, bounded-backlog admission
//!   control that sheds with `SERVER_BUSY`, handshake and per-verb
//!   version gating, graceful drain. The whole connection lifecycle
//!   traces through `MAMMOTH_TRACE`.
//! * [`server`] — the core over one shared engine session, plus the
//!   shutdown checkpoint and the verbs only an engine serves.
//! * [`client`] — the programmatic client that `mammoth-cli`, the
//!   benchmark's `wire_*` workloads, and the tests use.
//!
//! Binaries: `mammoth-server` (the daemon) and `mammoth-cli` (interactive
//! shell / one-shot `-c "sql"`).

#![deny(unsafe_code)]

pub mod client;
pub mod flags;
pub mod frame;
pub mod listener;
pub mod protocol;
pub mod server;
pub mod shared;

pub use client::{Client, ClientError, Response, RetryPolicy};
pub use listener::{Handler, Listener};
pub use protocol::{
    ClientMsg, ErrorCode, ServerMsg, MIN_PROTO_VERSION, PROTO_VERSION, SERVER_NAME,
};
pub use server::{Server, ServerConfig};
pub use shared::{SessionSpec, SharedSession, Storage};

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn start(cfg: ServerConfig) -> (Server, String) {
        let srv = Server::start(cfg).unwrap();
        let addr = srv.local_addr().to_string();
        (srv, addr)
    }

    #[test]
    fn end_to_end_query_lifecycle() {
        let (srv, addr) = start(ServerConfig::default());
        let mut c = Client::connect(&addr, "test", "").unwrap();
        assert_eq!(c.query("CREATE TABLE t (a INT)").unwrap(), Response::Ok);
        assert_eq!(
            c.query("INSERT INTO t VALUES (1), (2)").unwrap(),
            Response::Affected(2)
        );
        match c.query("SELECT a FROM t").unwrap() {
            Response::Table { columns, rows } => {
                assert_eq!(columns, vec!["a"]);
                assert_eq!(rows.len(), 2);
            }
            other => panic!("expected table, got {other:?}"),
        }
        assert!(matches!(
            c.query("SELECT nope FROM t"),
            Err(ClientError::Server {
                code: ErrorCode::Sql,
                ..
            })
        ));
        c.quit().unwrap();
        let stats = srv.shutdown().unwrap();
        assert_eq!(stats.accepted, 1);
        assert_eq!(stats.statements, 4);
        assert_eq!(stats.sql_errors, 1);
    }

    #[test]
    fn backlog_overflow_sheds_with_server_busy() {
        let (srv, addr) = start(ServerConfig {
            workers: 1,
            backlog: 1,
            ..ServerConfig::default()
        });
        // Occupy the only worker. Client::connect returns after Ready, so
        // the worker has definitely adopted this connection (queue empty).
        let holder = Client::connect(&addr, "holder", "").unwrap();
        // Fill the single backlog slot with a connection that will never
        // be served (the worker is busy with `holder`).
        let filler = std::net::TcpStream::connect(&addr).unwrap();
        for _ in 0..400 {
            if srv.stats().accepted >= 2 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(srv.stats().accepted >= 2, "filler never reached the queue");
        // Worker busy + backlog full: the next connect must be shed.
        let err = Client::connect(&addr, "surplus", "").unwrap_err();
        assert!(matches!(err, ClientError::Busy(_)), "got {err:?}");
        assert_eq!(srv.stats().shed, 1);
        drop(filler);
        drop(holder);
        srv.shutdown().unwrap();
    }

    #[test]
    fn auth_token_is_enforced() {
        let (srv, addr) = start(ServerConfig {
            auth_token: Some("sesame".into()),
            ..ServerConfig::default()
        });
        assert!(matches!(
            Client::connect(&addr, "x", "wrong"),
            Err(ClientError::Server {
                code: ErrorCode::AuthFailed,
                ..
            })
        ));
        let mut ok = Client::connect(&addr, "x", "sesame").unwrap();
        assert_eq!(ok.query("CREATE TABLE t (a INT)").unwrap(), Response::Ok);
        srv.shutdown().unwrap();
    }

    #[test]
    fn remote_shutdown_drains_gracefully() {
        let (srv, addr) = start(ServerConfig::default());
        let mut c = Client::connect(&addr, "boss", "").unwrap();
        c.query("CREATE TABLE t (a INT)").unwrap();
        let c2 = Client::connect(&addr, "bystander", "");
        Client::connect(&addr, "killer", "")
            .unwrap()
            .shutdown_server()
            .unwrap();
        let stats = srv.wait().unwrap();
        assert!(stats.accepted >= 2);
        drop(c2);
        // New connections are refused after drain.
        assert!(Client::connect(&addr, "late", "").is_err());
    }

    #[test]
    fn read_only_server_refuses_writes_serves_reads() {
        let dir = std::env::temp_dir().join(format!("mammoth-ro-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Seed the directory with a table by running a read-write server.
        let (rw, addr) = start(ServerConfig {
            spec: SessionSpec::durable(&dir),
            ..ServerConfig::default()
        });
        let mut c = Client::connect(&addr, "seed", "").unwrap();
        c.query("CREATE TABLE t (a INT)").unwrap();
        c.query("INSERT INTO t VALUES (5)").unwrap();
        drop(c);
        rw.shutdown().unwrap();
        let (ro, addr) = start(ServerConfig {
            read_only: true,
            spec: SessionSpec::durable(&dir),
            ..ServerConfig::default()
        });
        let mut c = Client::connect(&addr, "reader", "").unwrap();
        match c.query("INSERT INTO t VALUES (6)") {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::ReadOnly),
            other => panic!("expected READ_ONLY, got {other:?}"),
        }
        assert_eq!(
            c.query("SELECT a FROM t").unwrap(),
            Response::Table {
                columns: vec!["a".into()],
                rows: vec![vec![mammoth_types::Value::I32(5)]],
            }
        );
        // Status queries are reads and must work on a replica.
        assert!(matches!(
            c.query("EXPLAIN REPLICATION").unwrap(),
            Response::Table { .. }
        ));
        drop(c);
        ro.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn subscription_ships_wal_a_cursor_can_replay() {
        use mammoth_storage::WalCursor;
        let dir = std::env::temp_dir().join(format!("mammoth-sub-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (srv, addr) = start(ServerConfig {
            spec: SessionSpec::durable(&dir),
            ..ServerConfig::default()
        });
        let mut c = Client::connect(&addr, "writer", "").unwrap();
        c.query("CREATE TABLE t (a INT)").unwrap();
        c.query("INSERT INTO t VALUES (1), (2)").unwrap();
        // No checkpoint has run, and a (0,0) subscriber is tailing the
        // live generation: the fast path ships the whole WAL verbatim,
        // no image, then CaughtUp at the file's current length.
        let batch = c.subscribe_poll(0, 0).unwrap();
        let mut cursor = WalCursor::new();
        let mut groups = Vec::new();
        let mut end = None;
        for msg in &batch {
            match msg {
                ServerMsg::WalChunk {
                    generation, bytes, ..
                } => {
                    assert_eq!(*generation, 0);
                    groups.extend(cursor.feed(bytes).unwrap());
                }
                ServerMsg::CaughtUp { generation, offset } => {
                    assert_eq!(*generation, 0);
                    end = Some(*offset);
                }
                other => panic!("unexpected message {other:?}"),
            }
        }
        assert_eq!(end, Some(cursor.offset()), "shipped exactly to the tip");
        assert_eq!(groups.len(), 2, "CREATE and INSERT commit groups");
        // Polling again from the tip is an empty catch-up.
        let batch = c.subscribe_poll(0, end.unwrap()).unwrap();
        assert_eq!(batch.len(), 1);
        assert!(matches!(batch[0], ServerMsg::CaughtUp { .. }));
        drop(c);
        srv.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn in_memory_server_refuses_subscriptions() {
        let (srv, addr) = start(ServerConfig::default());
        let mut c = Client::connect(&addr, "sub", "").unwrap();
        match c.subscribe_poll(0, 0) {
            Err(ClientError::Server { code, message }) => {
                assert_eq!(code, ErrorCode::Protocol);
                assert!(message.contains("durable"), "{message}");
            }
            other => panic!("expected refusal, got {other:?}"),
        }
        drop(c);
        srv.shutdown().unwrap();
    }

    #[test]
    fn connect_with_retry_waits_out_saturation() {
        let (srv, addr) = start(ServerConfig {
            workers: 1,
            backlog: 1,
            ..ServerConfig::default()
        });
        let holder = Client::connect(&addr, "holder", "").unwrap();
        let filler = std::net::TcpStream::connect(&addr).unwrap();
        for _ in 0..400 {
            if srv.stats().accepted >= 2 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // Free the worker shortly after the retrying client starts
        // colliding with the full backlog.
        let freer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(60));
            drop(holder);
            drop(filler);
        });
        let c = Client::connect_with_retry(
            &addr,
            "patient",
            "",
            &RetryPolicy {
                attempts: 20,
                base_delay: Duration::from_millis(10),
                max_delay: Duration::from_millis(100),
                seed: 7,
            },
        )
        .unwrap();
        freer.join().unwrap();
        assert!(srv.stats().shed >= 1, "the retrier was never shed");
        drop(c);
        srv.shutdown().unwrap();
    }

    #[test]
    fn connect_with_retry_fails_fast_on_auth() {
        let (srv, addr) = start(ServerConfig {
            auth_token: Some("sesame".into()),
            ..ServerConfig::default()
        });
        let t0 = std::time::Instant::now();
        let err = Client::connect_with_retry(
            &addr,
            "x",
            "wrong",
            &RetryPolicy {
                attempts: 50,
                base_delay: Duration::from_millis(200),
                ..RetryPolicy::default()
            },
        )
        .unwrap_err();
        assert!(matches!(
            err,
            ClientError::Server {
                code: ErrorCode::AuthFailed,
                ..
            }
        ));
        assert!(
            t0.elapsed() < Duration::from_millis(150),
            "auth failure must not be retried"
        );
        srv.shutdown().unwrap();
    }

    #[test]
    fn connect_with_retry_bounds_attempts() {
        // Grab a port nobody will be listening on by the time we dial it.
        let dead = std::net::TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap()
            .to_string();
        let err = Client::connect_with_retry(
            &dead,
            "x",
            "",
            &RetryPolicy {
                attempts: 3,
                base_delay: Duration::from_millis(1),
                max_delay: Duration::from_millis(4),
                seed: 1,
            },
        )
        .unwrap_err();
        assert!(matches!(err, ClientError::Io(_)), "got {err:?}");
    }

    /// A transport failure mid-conversation (here: a response frame whose
    /// CRC lies, i.e. torn on the wire) must poison the client: the next
    /// request fails fast with a typed refusal instead of reading from a
    /// desynchronized stream. The shard coordinator relies on this to
    /// rebuild scatter connections after any deadline miss.
    #[test]
    fn mid_frame_failure_poisons_the_client() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let fake = std::thread::spawn(move || {
            use std::io::Write;
            let (mut s, _) = listener.accept().unwrap();
            let hello = ServerMsg::Hello {
                version: PROTO_VERSION,
                server: "fake".into(),
            };
            frame::write_frame(&mut s, &hello.encode()).unwrap();
            let _ = frame::read_frame(&mut s).unwrap(); // Login
            frame::write_frame(&mut s, &ServerMsg::Ready.encode()).unwrap();
            let _ = frame::read_frame(&mut s).unwrap(); // Query
            let mut bad = Vec::new();
            mammoth_types::framing::frame_into(&ServerMsg::Ok.encode(), &mut bad);
            let last = bad.len() - 1;
            bad[last] ^= 0x01; // damage the payload: CRC check must fail
            s.write_all(&bad).unwrap();
            s.flush().unwrap();
        });
        let mut c = Client::connect(&addr, "x", "").unwrap();
        let err = c.query("SELECT 1").unwrap_err();
        assert!(
            !matches!(err, ClientError::Server { .. }),
            "expected a transport failure, got {err:?}"
        );
        match c.query("SELECT 1") {
            Err(ClientError::Protocol(m)) => {
                assert!(m.contains("poisoned"), "refusal should say why: {m}")
            }
            other => panic!("expected a fast poisoned refusal, got {other:?}"),
        }
        fake.join().unwrap();
    }

    /// `PROMOTE` is only meaningful on a replica wired with a promotion
    /// handler; a plain server must refuse it, typed.
    #[test]
    fn promote_refused_without_a_promotion_path() {
        let (srv, addr) = start(ServerConfig::default());
        let mut c = Client::connect(&addr, "x", "").unwrap();
        match c.query("PROMOTE") {
            Err(ClientError::Server {
                code: ErrorCode::Protocol,
                message,
            }) => assert!(message.contains("promotion"), "{message}"),
            other => panic!("expected a typed refusal, got {other:?}"),
        }
        drop(c);
        srv.shutdown().unwrap();
    }

    /// The whole v4 wire lifecycle: Prepare answers with the placeholder
    /// count, ExecutePrepared binds typed arguments for both reads and
    /// writes, arity and unknown-name mistakes come back as typed SQL
    /// errors, and Deallocate really removes the statement.
    #[test]
    fn prepared_statements_over_the_wire() {
        use mammoth_types::Value;
        let (srv, addr) = start(ServerConfig::default());
        let mut c = Client::connect(&addr, "prep", "").unwrap();
        c.query("CREATE TABLE t (a INT, s TEXT)").unwrap();
        c.query("INSERT INTO t VALUES (1, 'one'), (2, 'two'), (3, 'three')")
            .unwrap();

        // A prepared read: placeholder count comes back from Prepare.
        let nparams = c.prepare("q1", "SELECT a, s FROM t WHERE a >= ?").unwrap();
        assert_eq!(nparams, 1);
        match c.execute_prepared("q1", &[Value::I32(2)]).unwrap() {
            Response::Table { columns, rows } => {
                assert_eq!(columns, vec!["a", "s"]);
                assert_eq!(rows.len(), 2);
            }
            other => panic!("expected table, got {other:?}"),
        }
        // Same statement, different binding — no re-prepare needed.
        match c.execute_prepared("q1", &[Value::I32(3)]).unwrap() {
            Response::Table { rows, .. } => {
                assert_eq!(rows, vec![vec![Value::I32(3), Value::Str("three".into())]])
            }
            other => panic!("expected table, got {other:?}"),
        }

        // A prepared write executes on the exclusive path transparently.
        let n = c.prepare("ins", "INSERT INTO t VALUES (?, ?)").unwrap();
        assert_eq!(n, 2);
        assert_eq!(
            c.execute_prepared("ins", &[Value::I32(4), Value::Str("four".into())])
                .unwrap(),
            Response::Affected(1)
        );
        match c.query("SELECT COUNT(*) FROM t").unwrap() {
            Response::Table { rows, .. } => assert_eq!(rows[0][0], Value::I64(4)),
            other => panic!("expected table, got {other:?}"),
        }

        // Arity and name mistakes are typed SQL errors, not hangs.
        assert!(matches!(
            c.execute_prepared("q1", &[]),
            Err(ClientError::Server {
                code: ErrorCode::Sql,
                ..
            })
        ));
        assert!(matches!(
            c.execute_prepared("nope", &[]),
            Err(ClientError::Server {
                code: ErrorCode::Sql,
                ..
            })
        ));

        // Deallocate removes the statement for real.
        c.deallocate("q1").unwrap();
        assert!(matches!(
            c.execute_prepared("q1", &[Value::I32(1)]),
            Err(ClientError::Server {
                code: ErrorCode::Sql,
                ..
            })
        ));
        drop(c);
        srv.shutdown().unwrap();
    }

    /// `EXECUTE` is a read statement until the registry says what it runs,
    /// so a prepared write on a replica passes the gate in front of the
    /// session — its NeedsWrite must then surface as READ_ONLY, not go on
    /// to the write path.
    #[test]
    fn read_only_replica_refuses_prepared_writes() {
        use mammoth_types::Value;
        let dir = std::env::temp_dir().join(format!("mammoth-ro-prep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (rw, addr) = start(ServerConfig {
            spec: SessionSpec::durable(&dir),
            ..ServerConfig::default()
        });
        let mut c = Client::connect(&addr, "seed", "").unwrap();
        c.query("CREATE TABLE t (a INT)").unwrap();
        c.query("INSERT INTO t VALUES (5)").unwrap();
        drop(c);
        rw.shutdown().unwrap();
        let (ro, addr) = start(ServerConfig {
            read_only: true,
            spec: SessionSpec::durable(&dir),
            ..ServerConfig::default()
        });
        let mut c = Client::connect(&addr, "reader", "").unwrap();
        // Preparing the write is fine (it only compiles); running it is not.
        assert_eq!(c.prepare("ins", "INSERT INTO t VALUES (?)").unwrap(), 1);
        match c.execute_prepared("ins", &[Value::I32(6)]) {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::ReadOnly),
            other => panic!("expected READ_ONLY, got {other:?}"),
        }
        // Prepared reads still flow on the replica.
        assert_eq!(c.prepare("rd", "SELECT a FROM t WHERE a = ?").unwrap(), 1);
        match c.execute_prepared("rd", &[Value::I32(5)]).unwrap() {
            Response::Table { rows, .. } => assert_eq!(rows, vec![vec![Value::I32(5)]]),
            other => panic!("expected table, got {other:?}"),
        }
        // The write never happened.
        match c.execute_prepared("rd", &[Value::I32(6)]).unwrap() {
            Response::Table { rows, .. } => assert!(rows.is_empty()),
            other => panic!("expected table, got {other:?}"),
        }
        drop(c);
        ro.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn poisoned_statement_reported_and_survivable() {
        let (srv, addr) = start(ServerConfig::default());
        let mut c = Client::connect(&addr, "x", "").unwrap();
        c.query("CREATE TABLE t (a INT)").unwrap();
        assert!(matches!(
            c.query("__PANIC__"),
            Err(ClientError::Server {
                code: ErrorCode::SessionPoisoned,
                ..
            })
        ));
        // Same connection keeps working against the rebuilt session.
        assert_eq!(c.query("CREATE TABLE t2 (a INT)").unwrap(), Response::Ok);
        let stats = srv.shutdown().unwrap();
        assert_eq!(stats.poisonings, 1);
    }
}
