//! End-to-end replication: convergence, divergence re-bootstrap, and
//! kill-the-primary failover, all over real sockets.
//!
//! The invariants under test:
//!
//! * **Convergence** — after the primary quiesces and every replica
//!   reports `CaughtUp`, each replica's result tables are *identical* to
//!   the primary's (same columns, same rows, same order).
//! * **Divergence discipline** — a replica whose local WAL mirror is
//!   corrupted must wipe and re-bootstrap from the primary's checkpoint
//!   image; it may briefly serve an empty or shorter prefix, but never a
//!   garbled row.
//! * **Failover** — with the primary killed at a randomized filesystem
//!   kill point (`MAMMOTH_FAULT_SEED` selects the schedule), promoting a
//!   replica in place — it drains the dead primary's surviving directory
//!   first — loses no acknowledged write: acked <= recovered <= acked + 1
//!   (the `+ 1` is a write that became durable without its OK reaching
//!   the client).

use mammoth_server::{Client, ClientError, ErrorCode, Response, SessionSpec};
use mammoth_storage::persist::wal_file_name;
use mammoth_storage::{FaultFs, FaultKind, FaultPlan, RealFs};
use mammoth_types::Value;
use std::sync::Arc;
use std::time::Duration;

mod support;
use support::cluster::{ask, wait_served, Cluster, Spec};
use support::{seed, tmpdir, wait_for};

#[test]
fn replicas_converge_to_identical_tables() {
    let cluster = Cluster::start(Spec {
        replicas: vec![0, 0],
        ..Spec::durable(1)
    });
    let paddr = cluster.addr(0);

    let mut c = Client::connect(&paddr, "writer", "").unwrap();
    c.query("CREATE TABLE t (a INT, b TEXT)").unwrap();
    for i in 0..20 {
        c.query(&format!("INSERT INTO t VALUES ({i}, 'row-{i}')"))
            .unwrap();
    }
    // A mid-stream checkpoint flips the generation under the replicas:
    // their next polls must re-anchor from the shipped image.
    c.query("CHECKPOINT").unwrap();
    for i in 20..30 {
        c.query(&format!("INSERT INTO t VALUES ({i}, 'row-{i}')"))
            .unwrap();
    }

    let sql = "SELECT a, b FROM t";
    let want = ask(&paddr, sql).unwrap();
    match &want {
        Response::Table { rows, .. } => assert_eq!(rows.len(), 30),
        other => panic!("expected table, got {other:?}"),
    }
    for k in 0..2 {
        let (r, addr) = (cluster.replica(k), cluster.replica_addr(k));
        assert!(r.wait_caught_up(Duration::from_secs(20)), "never caught up");
        wait_served(&addr, sql, &want);
        // Writes must be refused at the replica.
        let mut rc = Client::connect(&addr, "misguided", "").unwrap();
        match rc.query("INSERT INTO t VALUES (99, 'nope')") {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::ReadOnly),
            other => panic!("expected READ_ONLY, got {other:?}"),
        }
        // Lag is observable through plain SQL.
        match rc.query("EXPLAIN REPLICATION").unwrap() {
            Response::Table { rows, .. } => {
                assert!(rows.contains(&vec![
                    Value::Str("role".into()),
                    Value::Str("replica".into())
                ]));
            }
            other => panic!("expected status table, got {other:?}"),
        }
        rc.quit().unwrap();
        let status = r.status();
        assert!(status.applied_groups > 0 || status.bootstraps > 0);
    }
}

#[test]
fn corrupted_replica_rebootstraps_never_serves_garbage() {
    let mut cluster = Cluster::start(Spec {
        replicas: vec![0],
        ..Spec::durable(1)
    });
    let paddr = cluster.addr(0);

    let mut c = Client::connect(&paddr, "writer", "").unwrap();
    c.query("CREATE TABLE t (a INT)").unwrap();
    for i in 0..10 {
        c.query(&format!("INSERT INTO t VALUES ({i})")).unwrap();
    }
    // Give the primary a checkpoint so the re-bootstrap must go through
    // the image path, not just WAL byte zero.
    c.query("CHECKPOINT").unwrap();
    c.query("INSERT INTO t VALUES (10)").unwrap();

    let sql = "SELECT a FROM t";
    let want = ask(&paddr, sql).unwrap();
    assert!(cluster.replica(0).wait_caught_up(Duration::from_secs(20)));
    wait_served(&cluster.replica_addr(0), sql, &want);
    let gen = cluster.replica(0).status().generation;

    // Corrupt the mirror's WAL mid-file (flip a byte past the header) and
    // restart the replica on it: it must detect the divergence, wipe, and
    // re-bootstrap.
    cluster.restart_replica(0, |rdir| {
        let wal = rdir.join(wal_file_name(gen));
        let mut bytes = std::fs::read(&wal).unwrap();
        assert!(bytes.len() > 12, "need a record to corrupt");
        let mid = 8 + (bytes.len() - 8) / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&wal, &bytes).unwrap();
    });

    // While it does, every answer must be a clean prefix of the true
    // table — garbled values must never appear.
    let raddr = cluster.replica_addr(0);
    let legal: Vec<Vec<Value>> = (0..=10).map(|i| vec![Value::I32(i)]).collect();
    wait_for(Duration::from_secs(20), "reconvergence", || {
        match ask(&raddr, sql) {
            // A freshly wiped mirror has no table yet — a legal (empty)
            // prefix of the true state.
            Err(ClientError::Server {
                code: ErrorCode::Sql,
                ..
            }) => None,
            Ok(Response::Table { rows, .. }) => {
                for row in &rows {
                    assert!(legal.contains(row), "garbled row {row:?} served");
                }
                (rows.len() == legal.len()).then_some(())
            }
            other => panic!("expected table or missing table, got {other:?}"),
        }
    });
    let r = cluster.replica(0);
    assert!(r.wait_caught_up(Duration::from_secs(20)));
    let status = r.status();
    assert!(
        status.bootstraps >= 1,
        "corruption must force a re-bootstrap, got {status:?}"
    );
}

#[test]
fn promotion_after_primary_crash_loses_no_acked_write() {
    let seed = seed("MAMMOTH_FAULT_SEED", 0);
    // Three randomized kill points per seed: early (mid-schema), middle,
    // and late in the insert stream.
    for (round, at_op) in [23 + seed % 11, 67 + seed % 29, 131 + seed % 53]
        .into_iter()
        .enumerate()
    {
        let fs = Arc::new(FaultFs::new(
            Arc::new(RealFs),
            FaultPlan {
                at_op,
                kind: FaultKind::CrashAfter,
            },
        ));
        let pdir = tmpdir(&format!("repl-fail-{round}"));
        let mut cluster = Cluster::start(Spec {
            shards: vec![SessionSpec::durable_with(fs.clone(), pdir)],
            replicas: vec![0],
            primary_data: true,
            ..Spec::in_memory(1)
        });

        // Write until the injected crash kills the primary's disk.
        let mut acked: i64 = 0;
        let mut c = Client::connect(&cluster.addr(0), "writer", "").unwrap();
        if c.query("CREATE TABLE t (a INT)").is_ok() {
            for i in 0..200 {
                match c.query(&format!("INSERT INTO t VALUES ({i})")) {
                    Ok(_) => acked = i + 1,
                    Err(_) => break,
                }
            }
        }
        drop(c);
        // The primary is gone; fail over. Promotion drains whatever the
        // replica has not pulled yet from the dead primary's directory
        // (reads there keep working), so nothing waits for replication.
        cluster.crash(0);
        cluster.replica(0).promote_in_place().unwrap();

        let rows = cluster.audit(0);
        let recovered = rows.len() as i64;
        assert!(
            recovered == acked || recovered == acked + 1,
            "seed {seed} op {at_op} (fired on {:?}): acked {acked} but recovered {recovered}",
            fs.fired_on()
        );
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row, &vec![Value::I32(i as i32)], "row {i} garbled");
        }
    }
}
