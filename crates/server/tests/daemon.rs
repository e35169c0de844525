//! `mammoth-server` and `mammoth-cli` as a script drives them: a durable
//! daemon on an ephemeral port found through `--port-file`, and one-shot
//! `-c` pipelines against it. This covers what only the processes decide —
//! flag spellings, what the CLI prints, the codes it exits with — and a
//! daemon that ends `SHUTDOWN` with exit 0 and a trace file that validates.

use mammoth_server::{flags::launch, Client};
use mammoth_types::{validate_trace, TRACE_ENV};
use std::net::{SocketAddr, TcpStream};
use std::process::Command;

#[path = "../../../tests/support/util.rs"]
mod util;
use util::Scratch;

/// `mammoth-cli --addr ADDR -c SQL...`: its exit code, stdout and stderr.
fn cli(addr: SocketAddr, sql: &[&str]) -> (Option<i32>, String, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_mammoth-cli"));
    cmd.args(["--addr", &addr.to_string()]);
    for s in sql {
        cmd.args(["-c", s]);
    }
    let out = cmd.output().unwrap();
    let text = |bytes| String::from_utf8(bytes).unwrap();
    (out.status.code(), text(out.stdout), text(out.stderr))
}

#[test]
fn server_and_cli_serve_shed_prepare_and_shut_down() {
    let root = Scratch::new("daemon-server");
    let (trace, data) = (root.join("trace.jsonl"), root.join("data"));
    // One worker and a one-slot backlog, so a shed can be forced below.
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_mammoth-server"));
    cmd.args(["--workers", "1", "--backlog", "1", "--data"])
        .arg(&data);
    cmd.env(TRACE_ENV, &trace);
    let (mut daemon, addr) = launch(&mut cmd, &root.join("port")).unwrap();

    let pipeline = [
        "CREATE TABLE smoke (a INT NOT NULL, b INT)",
        "INSERT INTO smoke VALUES (1, 10), (2, 20), (3, 30)",
        "SELECT COUNT(*) FROM smoke",
    ];
    let (code, out, err) = cli(addr, &pipeline);
    assert_eq!(code, Some(0), "{err}");
    assert!(out.lines().any(|l| l.trim() == "3"), "{out}");
    // A durable daemon is a replication primary: it ships its WAL.
    let mut replica = Client::connect(&addr.to_string(), "replica", "").unwrap();
    assert!(!replica.subscribe_poll(0, 0).unwrap().is_empty());
    drop(replica);

    // Busy worker, full backlog: the CLI is shed and says so with exit 3.
    // The acceptor takes connections in arrival order, so the parked one
    // fills the backlog before the CLI's connect is looked at.
    let holder = Client::connect(&addr.to_string(), "holder", "").unwrap();
    let parked = TcpStream::connect(addr).unwrap();
    let (code, _, err) = cli(addr, &["SELECT 1"]);
    assert_eq!(code, Some(3), "{err}");
    assert!(err.contains("SERVER_BUSY"), "{err}");
    drop((holder, parked));

    // Prepared statements by name: values bound per EXECUTE, and the name
    // gone after DEALLOCATE (that failed statement makes the exit 1).
    let prepared = [
        "PREPARE pt AS SELECT b FROM smoke WHERE a = ?",
        "EXECUTE pt (2)",
        "EXECUTE pt (3)",
        "DEALLOCATE pt",
        "EXECUTE pt (1)",
    ];
    let (code, out, err) = cli(addr, &prepared);
    let values: Vec<&str> = out.lines().map(str::trim).collect();
    assert!(values.contains(&"20") && values.contains(&"30"), "{out}");
    assert_eq!(code, Some(1));
    assert!(err.contains("prepared"), "{err}");

    assert_eq!(cli(addr, &["SHUTDOWN"]).0, Some(0));
    assert!(daemon.0.wait().unwrap().success(), "the daemon exits 0");
    let text = std::fs::read_to_string(&trace).unwrap();
    validate_trace(&text).unwrap();
    assert!(
        text.contains("\"kind\":\"repl.ship\""),
        "no repl.ship event"
    );
}
