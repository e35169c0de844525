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
//!   first — loses no acknowledged write, neither one the primary
//!   acknowledged nor one the promoted node did: acked <= recovered <=
//!   acked + 1 (the `+ 1` is a write that became durable without its OK
//!   reaching the client), on the disk as the nodes left it and after
//!   each of `POWER_LOSSES` power losses.
//!
//! Every node keeps its files on the cluster's one in-memory disk.

use mammoth_server::{Client, ClientError, ErrorCode, Response};
use mammoth_storage::persist::wal_file_name;
use mammoth_storage::{FaultKind, FaultPlan};
use mammoth_types::Value;
use std::time::Duration;

mod support;
use support::cluster::{ask, wait_served, Cluster, Spec};
use support::{crash_seeds, seed, wait_for, Ledger};

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
    cluster.restart_replica(0, |fs, rdir| {
        let wal = rdir.join(wal_file_name(gen));
        let mut bytes = fs.read(&wal).unwrap();
        assert!(bytes.len() > 12, "need a record to corrupt");
        let mid = 8 + (bytes.len() - 8) / 2;
        bytes[mid] ^= 0x40;
        fs.write_file(&wal, &bytes).unwrap();
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

/// INSERT `values` into `t` at `addr`, one statement each, until one
/// fails; record each in `ledger`. Returns whether every one was acked.
fn insert(addr: &str, values: std::ops::Range<i64>, ledger: &Ledger) -> bool {
    let mut c = Client::connect(addr, "writer", "").unwrap();
    values.into_iter().all(|v| {
        let acked = c.query(&format!("INSERT INTO t VALUES ({v})")).is_ok();
        ledger.record(v, acked);
        acked
    })
}

/// Promote replica 0, whose primary is dead, and write three more values
/// through it. Hold shard 0's rows to `ledger` after a power loss of each
/// of `seeds` right after promotion and again after the writes, then on the
/// disk as the nodes left it.
fn promote_and_audit(cluster: &mut Cluster, ledger: &Ledger, seeds: &[u64], case: &str) {
    let check = |when: &str, seed: Option<&u64>, rows: mammoth_types::Result<Vec<Vec<Value>>>| {
        let lost = seed.map_or("no power loss".into(), |s| format!("crash seed {s}"));
        let rows = rows.unwrap_or_else(|e| panic!("{case}, {when}, {lost}: recovery failed: {e}"));
        let value = |row: &Vec<Value>| match row.as_slice() {
            [Value::I32(v)] => i64::from(*v),
            _ => panic!("{case}, {when}, {lost}: garbled row {row:?}"),
        };
        let recovered: Vec<i64> = rows.iter().map(value).collect();
        ledger
            .check(&recovered, 1)
            .unwrap_or_else(|e| panic!("{case}, {when}, {lost}: {e}"));
        // the values went in ascending, so the rows come back in that order
        assert!(
            recovered.windows(2).all(|w| w[0] < w[1]),
            "{case}, {when}, {lost}: rows out of order: {recovered:?}"
        );
    };
    cluster.replica(0).promote_in_place().unwrap();
    for (seed, rows) in seeds.iter().zip(cluster.power_losses(0, seeds)) {
        check("promoted", Some(seed), rows);
    }
    let promoted = insert(&cluster.replica_addr(0), 1000..1003, ledger);
    assert!(promoted, "{case}: the promoted node refused a write");
    for (seed, rows) in seeds.iter().zip(cluster.power_losses(0, seeds)) {
        check("after three writes", Some(seed), rows);
    }
    check("stopped", None, Ok(cluster.audit(0)));
}

#[test]
fn promotion_after_primary_crash_loses_no_acked_write() {
    let seed = seed("MAMMOTH_FAULT_SEED", 0);
    // Three randomized kill points per seed: early, middle and late in the
    // insert stream.
    for at_op in [23 + seed % 11, 67 + seed % 29, 131 + seed % 53] {
        let kind = FaultKind::CrashAfter;
        let mut cluster = Cluster::start(Spec {
            durable: Some(FaultPlan { at_op, kind }),
            replicas: vec![0],
            primary_data: true,
            ..Spec::in_memory(1)
        });

        // Write until the injected crash kills the primary's disk.
        let ledger = Ledger::default();
        ask(&cluster.addr(0), "CREATE TABLE t (a INT)").unwrap();
        insert(&cluster.addr(0), 0..200, &ledger);
        // The primary is gone; fail over. Promotion drains whatever the
        // replica has not pulled yet from the dead primary's directory
        // (reads there keep working), so nothing waits for replication.
        cluster.crash(0);
        let case = format!(
            "seed {seed} op {at_op} (fired on {:?})",
            cluster.fired_on(0)
        );
        let seeds: Vec<u64> = crash_seeds(seed, at_op).collect();
        promote_and_audit(&mut cluster, &ledger, &seeds, &case);
    }
}

/// A primary that checkpointed, then died: its replica either pulled the
/// image and the log before the death (its applier wrote the mirror), or
/// starts only afterwards (promotion copies the dead primary's directory).
/// Either way the promoted node keeps every acknowledged write.
fn promotion_after_a_checkpoint(late: bool) {
    let mut cluster = Cluster::start(Spec {
        replicas: if late { vec![] } else { vec![0] },
        primary_data: true,
        ..Spec::durable(1)
    });
    let (paddr, ledger) = (cluster.addr(0), Ledger::default());
    ask(&paddr, "CREATE TABLE t (a INT)").unwrap();
    insert(&paddr, 0..5, &ledger);
    ask(&paddr, "CHECKPOINT").unwrap();
    insert(&paddr, 5..9, &ledger);
    if !late {
        let count = "SELECT COUNT(*) FROM t";
        wait_served(
            &cluster.replica_addr(0),
            count,
            &ask(&paddr, count).unwrap(),
        );
    }
    cluster.crash(0);
    if late {
        cluster.follow(0);
    }
    let case = format!("late {late}");
    let seeds: Vec<u64> = crash_seeds(0, 0).collect();
    promote_and_audit(&mut cluster, &ledger, &seeds, &case);
}

#[test]
fn promotion_keeps_what_the_replica_pulled_after_a_checkpoint() {
    promotion_after_a_checkpoint(false);
}

#[test]
fn promotion_keeps_what_it_copies_after_a_checkpoint() {
    promotion_after_a_checkpoint(true);
}
