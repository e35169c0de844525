//! The `mammoth-shardd` binary over three in-process shards, each followed
//! by a replica that can read its primary's directory. `--replica`,
//! `--probe-ms` and `--suspect-after` arm the daemon's health monitor:
//! when a primary stops, its replica is swapped in as the shard's primary
//! and writes flow again. The daemon ends `SHUTDOWN` with exit 0 and a
//! trace that validates and records the failover. (Routing, merging and
//! reads through an outage are the in-process `tests/sharding.rs` and
//! `tests/chaos.rs`.)

use mammoth_replica::{Replica, ReplicaConfig};
use mammoth_server::{flags::launch, Client, ClientError, Response};
use mammoth_server::{Server, ServerConfig, SessionSpec};
use mammoth_types::{validate_trace, Value, TRACE_ENV};
use std::process::Command;
use std::time::Duration;

#[path = "../../../tests/support/util.rs"]
mod util;
use util::{wait_for, Scratch};

const PATIENCE: Duration = Duration::from_secs(20);

fn rows(answer: Result<Response, ClientError>) -> Vec<Vec<Value>> {
    match answer {
        Ok(Response::Table { rows, .. }) => rows,
        other => panic!("expected a table, got {other:?}"),
    }
}

#[test]
fn shardd_fails_a_dead_primary_over_to_its_replica() {
    let root = Scratch::new("daemon-shardd");
    let (mut primaries, mut replicas) = (Vec::new(), Vec::new());
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_mammoth-shardd"));
    for i in 0..3 {
        let (pdir, rdir) = (root.join(format!("p{i}")), root.join(format!("r{i}")));
        let spec = SessionSpec::durable(&pdir);
        let cfg = ServerConfig {
            spec,
            ..ServerConfig::default()
        };
        let primary = Server::start(cfg).unwrap();
        let mut cfg = ReplicaConfig::new(primary.local_addr().to_string(), &rdir);
        cfg.poll_interval = Duration::from_millis(5);
        cfg.primary_data = Some(pdir.clone());
        let replica = Replica::start(cfg).unwrap();
        let raddr = replica.local_addr();
        cmd.args(["--shard", &primary.local_addr().to_string()]);
        cmd.args(["--replica", &format!("{i}={raddr}")]);
        primaries.push(Some(primary));
        replicas.push(replica);
    }
    let trace = root.join("trace.jsonl");
    cmd.args(["--probe-ms", "50", "--suspect-after", "2"]);
    cmd.args(["--promote-timeout-ms", "10000"]);
    cmd.env(TRACE_ENV, &trace);
    let (mut daemon, coord) = launch(&mut cmd, &root.join("port")).unwrap();
    let mut c = Client::connect(&coord.to_string(), "daemon-test", "").unwrap();

    c.query("CREATE TABLE smoke (id BIGINT NOT NULL, v BIGINT)")
        .unwrap();
    let insert = "INSERT INTO smoke VALUES (1, 10), (2, 20), (3, 30), (4, 40), (5, 50), (6, 60)";
    assert_eq!(c.query(insert).unwrap(), Response::Affected(6));
    // Every replica serves what its primary does before one primary stops,
    // so promotion has every acknowledged row to start from.
    let count = "SELECT COUNT(*) FROM smoke";
    let ask = |addr: String| Client::connect(&addr, "daemon-test", "")?.query(count);
    for (p, r) in primaries.iter().zip(&replicas) {
        let want = ask(p.as_ref().unwrap().local_addr().to_string()).unwrap();
        wait_for(PATIENCE, "replica catch-up", || {
            (ask(r.local_addr().to_string()).ok()? == want).then_some(())
        });
    }
    primaries[1].take().unwrap().shutdown().unwrap();

    let placement = wait_for(PATIENCE, "an all-healthy cluster", || {
        let placement = match c.query("EXPLAIN SHARDING") {
            // typed, never truncated, while the monitor converges
            Err(ClientError::Server { .. }) => return None,
            answer => rows(answer),
        };
        let healthy = |r: &Vec<Value>| r[5] == Value::Str("healthy".into());
        placement.iter().all(healthy).then_some(placement)
    });
    let promoted = Value::Str(replicas[1].local_addr().to_string());
    let shard1 = placement.iter().find(|r| r[2] == Value::I64(1)).unwrap();
    assert_eq!(shard1[3], promoted, "{placement:?}");
    let insert = "INSERT INTO smoke VALUES (101, 1), (102, 2), (103, 3), (104, 4)";
    assert_eq!(c.query(insert).unwrap(), Response::Affected(4));
    assert_eq!(rows(c.query(count)), vec![vec![Value::I64(10)]]);

    c.shutdown_server().unwrap();
    assert!(daemon.0.wait().unwrap().success(), "the daemon exits 0");
    let text = std::fs::read_to_string(&trace).unwrap();
    validate_trace(&text).unwrap();
    for event in ["ha.suspect", "ha.degraded", "ha.promote", "ha.recovered"] {
        let kind = format!("\"kind\":\"{event}\"");
        assert!(text.contains(&kind), "the trace has no {event} event");
    }
    for r in replicas {
        r.shutdown().unwrap();
    }
    for p in primaries.into_iter().flatten() {
        p.shutdown().unwrap();
    }
}
