//! The `mammoth-replica` binary against an in-process primary: it follows
//! the primary its flags name across a `CHECKPOINT` and ends `SHUTDOWN`
//! with exit 0 and a trace file that validates. (What a replica serves and
//! refuses is the in-process `tests/replication.rs`.)

use mammoth_server::{flags::launch, Client, Server, ServerConfig, SessionSpec};
use mammoth_types::{validate_trace, TRACE_ENV};
use std::process::Command;
use std::time::Duration;

#[path = "../../../tests/support/util.rs"]
mod util;
use util::{wait_for, Scratch};

#[test]
fn replica_daemon_follows_its_primary_and_shuts_down() {
    let root = Scratch::new("daemon-replica");
    let trace = root.join("trace.jsonl");
    let spec = SessionSpec::durable(root.join("primary"));
    let cfg = ServerConfig {
        spec,
        ..ServerConfig::default()
    };
    let primary = Server::start(cfg).unwrap();
    let paddr = primary.local_addr().to_string();

    let mut cmd = Command::new(env!("CARGO_BIN_EXE_mammoth-replica"));
    cmd.args(["--primary", &paddr, "--poll-ms", "5", "--data"]);
    cmd.arg(root.join("replica")).env(TRACE_ENV, &trace);
    let (mut daemon, raddr) = launch(&mut cmd, &root.join("port")).unwrap();

    // Rows on both sides of a checkpoint, so the replica re-anchors once.
    let mut c = Client::connect(&paddr, "writer", "").unwrap();
    for sql in [
        "CREATE TABLE smoke (a INT NOT NULL)",
        "INSERT INTO smoke VALUES (1), (2), (3)",
        "CHECKPOINT",
        "INSERT INTO smoke VALUES (4), (5)",
    ] {
        c.query(sql).unwrap();
    }
    let count = "SELECT COUNT(*) FROM smoke";
    let want = c.query(count).unwrap();
    let served = || Client::connect(&raddr.to_string(), "reader", "")?.query(count);
    wait_for(Duration::from_secs(20), "convergence", || {
        (served().ok()? == want).then_some(())
    });

    let mut stopper = Client::connect(&raddr.to_string(), "stopper", "").unwrap();
    stopper.shutdown_server().unwrap();
    assert!(daemon.0.wait().unwrap().success(), "the daemon exits 0");
    validate_trace(&std::fs::read_to_string(&trace).unwrap()).unwrap();
    primary.shutdown().unwrap();
}
