//! The chaos tier: a sharded cluster under deterministic network faults
//! and primary death must never lie.
//!
//! The invariants under test:
//!
//! * **Typed degradation under FaultNet** — with a seeded schedule of
//!   transient network faults armed (`MAMMOTH_NET_FAULT_SEED` selects
//!   it), every statement through the coordinator either succeeds or
//!   fails with a typed `CoordError` — never a panic, never a hang past
//!   the deadline budget, never a truncated result table. Acknowledged
//!   writes are never lost: after the schedule is disarmed the cluster
//!   holds `acked <= total <= attempted` rows (an unacked statement may
//!   have landed before its OK frame was torn — that is the only slack).
//! * **Replica failover** — killing one shard primary under a live
//!   health monitor degrades that shard's reads to its replica (the
//!   cluster keeps answering fan-out SELECTs throughout the outage),
//!   fails its writes fast with `SHARD_UNAVAILABLE` (never silently
//!   stale), then drives `PROMOTE` and restores write availability with
//!   `acked <= recovered <= acked + 1` per shard. `EXPLAIN SHARDING`
//!   reports the promoted replica as the shard's healthy new primary.
//!
//! Both tests serialize on `netfault::test_lock()`: FaultNet's schedule
//! and operation counters are process-global, so a second arming test on
//! a parallel test thread would steal the first one's faults.

use std::time::{Duration, Instant};

use mammoth_shard::{shard_of, CoordError, Coordinator};
use mammoth_sql::QueryOutput;
use mammoth_types::netfault;
use mammoth_types::Value;

mod support;
use support::cluster::{ask, wait_served, Cluster, Spec};
use support::wait_for;

const NSHARDS: usize = 3;

fn count_all(coord: &Coordinator) -> Result<i64, CoordError> {
    match coord.execute("SELECT COUNT(*) FROM t")? {
        QueryOutput::Table { rows, .. } => Ok(rows[0][0].as_i64().unwrap()),
        other => panic!("COUNT(*) returned {other:?}"),
    }
}

// ---------------------------------------------------- FaultNet differential

/// A seeded workload through the coordinator with FaultNet armed: every
/// statement fails typed or succeeds, nothing hangs, and once the
/// schedule is disarmed the cluster's row count brackets between what
/// was acked and what was attempted.
#[test]
fn seeded_net_faults_degrade_typed_and_lose_no_acked_write() {
    let _g = netfault::test_lock()
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    netfault::clear();
    let seed = support::seed(netfault::NET_FAULT_SEED_ENV, 1);
    let cluster = Cluster::start(Spec {
        seed,
        ..Spec::in_memory(NSHARDS)
    });
    let coord = cluster.coord();

    // Clean setup, then arm the seeded schedule for the workload proper.
    coord
        .execute("CREATE TABLE t (id BIGINT NOT NULL, v BIGINT)")
        .unwrap();
    let mut next_id = 0i64;
    for _ in 0..10 {
        coord
            .execute(&format!("INSERT INTO t VALUES ({next_id}, {next_id})"))
            .unwrap();
        next_id += 1;
    }
    let baseline = next_id;

    netfault::install(netfault::plan_from_seed(seed));
    let mut acked = 0i64;
    let mut attempted = 0i64;
    let budget = Duration::from_secs(60);
    let t0 = Instant::now();
    for step in 0..120 {
        // Writes and fan-out reads interleave so scheduled faults land on
        // routed DML, scatter legs, and gather frames alike.
        if step % 3 == 2 {
            let started = Instant::now();
            match coord.execute("SELECT COUNT(*), MIN(v), MAX(v) FROM t") {
                Ok(QueryOutput::Table { rows, .. }) => {
                    assert_eq!(rows.len(), 1, "aggregate row count (seed {seed})");
                }
                Ok(other) => panic!("aggregate answered {other:?} (seed {seed})"),
                // Typed failure is the contract under faults; a truncated
                // Ok table would have tripped the arm above.
                Err(CoordError::Unavailable(_)) | Err(CoordError::Remote { .. }) => {}
                Err(e) => panic!("untyped read failure under seed {seed}: {e}"),
            }
            assert!(
                started.elapsed() < Duration::from_secs(5),
                "read leg blew the bounded-failure budget (seed {seed})"
            );
        } else {
            let id = next_id;
            next_id += 1;
            attempted += 1;
            match coord.execute(&format!("INSERT INTO t VALUES ({id}, {id})")) {
                Ok(QueryOutput::Affected(1)) => acked += 1,
                Ok(other) => panic!("INSERT answered {other:?} (seed {seed})"),
                Err(CoordError::Unavailable(_)) | Err(CoordError::Remote { .. }) => {}
                Err(e) => panic!("untyped write failure under seed {seed}: {e}"),
            }
        }
        assert!(
            t0.elapsed() < budget,
            "chaos workload hung: {step} steps ate {budget:?} (seed {seed})"
        );
    }
    let fired = netfault::fired();
    netfault::clear();
    assert!(
        fired > 0,
        "seed {seed} scheduled no fault inside the workload"
    );

    // Disarmed, the cluster must converge and answer cleanly again; the
    // only acceptable drift is a write that landed without its ack.
    let total = wait_for(Duration::from_secs(10), "post-chaos convergence", || {
        count_all(&coord).ok()
    });
    assert!(
        baseline + acked <= total && total <= baseline + attempted,
        "seed {seed}: acked {acked} of {attempted} over baseline {baseline}, but counted {total}"
    );
}

// --------------------------------------------------------------- failover

/// Kill one shard primary under a live health monitor: reads keep
/// flowing (degraded to the replica, then to the promoted primary),
/// writes fail typed until promotion restores them, and no shard loses
/// an acked statement.
#[test]
fn primary_death_degrades_reads_then_promotes_the_replica() {
    let _g = netfault::test_lock()
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    netfault::clear();

    // Every replica can see its primary's disk: promotion drains the
    // unreplicated WAL tail, which is what makes `acked <= recovered`
    // hold exactly, not just up to replication lag.
    let mut cluster = Cluster::start(Spec {
        replicas: (0..NSHARDS).collect(),
        primary_data: true,
        seed: 23,
        monitor: true,
        ..Spec::durable(NSHARDS)
    });
    let coord = cluster.coord();

    coord
        .execute("CREATE TABLE t (id BIGINT NOT NULL, v BIGINT)")
        .unwrap();
    let mut acked = [0u64; NSHARDS];
    let mut next_id = 0i64;
    for _ in 0..30 {
        let id = next_id;
        next_id += 1;
        coord
            .execute(&format!("INSERT INTO t VALUES ({id}, {})", id * 7))
            .unwrap();
        acked[shard_of(&Value::I64(id), NSHARDS)] += 1;
    }
    let pre_kill: i64 = next_id;
    // `caught_up` latches at the first empty poll, so ask each replica's
    // own server when it actually *serves* what its primary does — that is
    // the state a degraded read will be judged against.
    let count = "SELECT COUNT(*) FROM t";
    for i in 0..NSHARDS {
        let want = ask(&cluster.addr(i), count).unwrap();
        wait_served(&cluster.replica_addr(i), count, &want);
    }
    assert_eq!(coord.shard_health(), vec!["healthy"; NSHARDS]);

    // Shard 1's primary dies as `kill -9` leaves it: no shutdown
    // checkpoint, so promotion extends the replica's WAL from the dead
    // directory. Its listener closes, so the monitor's next probes miss
    // and confirm the death.
    let victim = 1usize;
    cluster.crash(victim);

    // Reads must flow during the outage: first typed-or-correct while
    // the monitor converges, then correct. A succeeding fan-out count is
    // exact — the replica was caught up and no writes have raced it.
    let total = wait_for(
        Duration::from_secs(15),
        "a degraded read",
        || match count_all(&coord) {
            Ok(n) => Some(n),
            Err(CoordError::Unavailable(_)) | Err(CoordError::Remote { .. }) => None,
            Err(e) => panic!("untyped read failure during outage: {e}"),
        },
    );
    assert_eq!(
        total, pre_kill,
        "degraded read must not lose or invent rows"
    );

    // Writes: victim-owned keys fail *typed* until promotion restores
    // the shard; live shards keep acking throughout. Loop until a
    // victim-owned write lands — that is write availability restored.
    let restored = "promotion to restore victim writes";
    wait_for(Duration::from_secs(20), restored, || {
        let id = next_id;
        next_id += 1;
        let owner = shard_of(&Value::I64(id), NSHARDS);
        match coord.execute(&format!("INSERT INTO t VALUES ({id}, 0)")) {
            Ok(QueryOutput::Affected(1)) => {
                acked[owner] += 1;
                (owner == victim).then_some(())
            }
            Err(CoordError::Unavailable(msg)) => {
                assert_eq!(owner, victim, "only the dead shard may refuse: {msg}");
                None
            }
            other => panic!("INSERT during outage answered {other:?}"),
        }
    });

    // The control plane must agree: every shard healthy again, the
    // victim's primary address swapped to the promoted replica, and its
    // replica slot consumed.
    cluster.wait_healthy();
    match coord.execute("EXPLAIN SHARDING").unwrap() {
        QueryOutput::Table { columns, rows } => {
            assert_eq!(columns[3], "addr");
            for r in &rows {
                let Value::I64(shard) = r[2] else {
                    panic!("unexpected row shape {r:?}")
                };
                if shard as usize == victim {
                    let promoted = cluster.replica_addr(victim);
                    assert_eq!(r[3], Value::Str(promoted), "addr not swapped");
                    assert_eq!(r[6], Value::Str(String::new()), "replica slot not consumed");
                }
                assert_eq!(r[5], Value::Str("healthy".into()));
            }
        }
        other => panic!("EXPLAIN SHARDING answered {other:?}"),
    }
    let final_total = count_all(&coord).unwrap();
    assert_eq!(final_total as u64, acked.iter().sum::<u64>());

    // Audit durable state per shard: survivors from their own
    // directories, the victim from the promoted replica's mirror.
    for (i, acked) in acked.into_iter().enumerate() {
        let recovered = cluster.audit(i).len() as u64;
        assert!(
            acked <= recovered && recovered <= acked + 1,
            "shard {i}: acked {acked} recovered {recovered}"
        );
    }
}
