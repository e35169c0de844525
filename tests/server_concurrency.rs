//! mammoth-server under concurrent load.
//!
//! Two claims, both seed-deterministic in their workloads:
//!
//! * **Serializable equivalence** — 16 client threads issue a mixed
//!   DDL/DML/SELECT stream against one server. Every per-thread-private
//!   observation must be *exact* (each thread owns a private table whose
//!   state is deterministic), shared-table counts must be monotone while
//!   only inserts run, and the final shared state must equal the sum of
//!   everything acknowledged. No deadlock: the test simply finishes.
//! * **Kill recovery** — a durable server is "killed" mid-load with a
//!   [`FaultFs`] crash schedule (every disk op after the Nth fails).
//!   Reopening the store with a healthy filesystem must recover every
//!   acknowledged INSERT; only the one statement in flight at the crash
//!   may appear beyond that (fsync'd but never acknowledged).

use mammoth_server::{Client, ClientError, Response, Server, ServerConfig, SessionSpec};
use mammoth_sql::{QueryOutput, Session};
use mammoth_storage::{FaultFs, FaultKind, FaultPlan};
use mammoth_types::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

mod support;
use support::{seed, Rng, Scratch};

fn count(resp: Response) -> i64 {
    match resp {
        Response::Table { rows, .. } => match rows[0][0] {
            Value::I64(n) => n,
            ref v => panic!("COUNT came back as {v:?}"),
        },
        other => panic!("expected a count table, got {other:?}"),
    }
}

#[test]
fn mixed_load_sixteen_threads_is_serializable_equivalent() {
    let seed = seed("MAMMOTH_FAULT_SEED", 1);
    let srv = Server::start(ServerConfig {
        workers: 16,
        backlog: 32,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = srv.local_addr().to_string();
    {
        let mut c = Client::connect(&addr, "setup", "").unwrap();
        assert_eq!(
            c.query("CREATE TABLE shared (a INT NOT NULL)").unwrap(),
            Response::Ok
        );
        c.quit().unwrap();
    }

    const THREADS: u64 = 16;
    const STEPS: u64 = 30;
    let shared_inserted = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..THREADS)
        .map(|ti| {
            let addr = addr.clone();
            let shared_inserted = shared_inserted.clone();
            std::thread::spawn(move || {
                let mut rng = Rng::new(seed ^ (ti + 1));
                let mut c = Client::connect(&addr, &format!("mix-{ti}"), "").unwrap();
                // DDL: a private table whose whole history this thread owns.
                c.query(&format!("CREATE TABLE own_{ti} (a INT NOT NULL)"))
                    .unwrap();
                let mut own_rows: Vec<u64> = Vec::new();
                let mut last_shared_count = 0i64;
                for k in 0..STEPS {
                    match rng.below(5) {
                        // 2-in-5: shared insert (globally counted)
                        0 | 1 => {
                            let v = ti * 10_000 + k;
                            assert_eq!(
                                c.query(&format!("INSERT INTO shared VALUES ({v})"))
                                    .unwrap(),
                                Response::Affected(1)
                            );
                            shared_inserted.fetch_add(1, Ordering::SeqCst);
                        }
                        // private insert: state fully deterministic
                        2 => {
                            let v = rng.below(1000);
                            c.query(&format!("INSERT INTO own_{ti} VALUES ({v})"))
                                .unwrap();
                            own_rows.push(v);
                        }
                        // private delete of a value we know about
                        3 if !own_rows.is_empty() => {
                            let v = own_rows[rng.below(own_rows.len() as u64) as usize];
                            let expect = own_rows.iter().filter(|&&x| x == v).count();
                            assert_eq!(
                                c.query(&format!("DELETE FROM own_{ti} WHERE a = {v}"))
                                    .unwrap(),
                                Response::Affected(expect as u64),
                                "private DELETE saw foreign rows"
                            );
                            own_rows.retain(|&x| x != v);
                        }
                        // reads: private count exact, shared count monotone
                        _ => {
                            let own =
                                count(c.query(&format!("SELECT COUNT(*) FROM own_{ti}")).unwrap());
                            assert_eq!(own as usize, own_rows.len(), "private count drifted");
                            let sh = count(c.query("SELECT COUNT(*) FROM shared").unwrap());
                            assert!(
                                sh >= last_shared_count,
                                "shared count went backwards under insert-only load"
                            );
                            last_shared_count = sh;
                        }
                    }
                }
                // Half the threads drop their table (DDL churn); the other
                // half verify and leave it for the final sweep.
                if ti % 2 == 0 {
                    c.query(&format!("DROP TABLE own_{ti}")).unwrap();
                } else {
                    let own = count(c.query(&format!("SELECT COUNT(*) FROM own_{ti}")).unwrap());
                    assert_eq!(own as usize, own_rows.len());
                }
                c.quit().unwrap();
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // Global serializable-equivalence check: nothing lost, nothing doubled.
    let mut c = Client::connect(&addr, "verify", "").unwrap();
    let total = count(c.query("SELECT COUNT(*) FROM shared").unwrap());
    assert_eq!(total as u64, shared_inserted.load(Ordering::SeqCst));
    // Dropped tables are gone; kept tables remain queryable.
    assert!(c.query("SELECT COUNT(*) FROM own_0").is_err());
    assert!(c.query("SELECT COUNT(*) FROM own_1").is_ok());
    c.quit().unwrap();
    let stats = srv.shutdown().unwrap();
    assert_eq!(stats.accepted, 18); // setup + 16 mixers + verify
}

#[test]
fn killed_server_recovers_every_acknowledged_statement() {
    let dir = Scratch::new("srvtest-kill");
    // Let setup (store creation + CREATE TABLE) through, then crash the
    // "disk" a couple hundred mutating operations into the load.
    let fs = Arc::new(FaultFs::new(FaultPlan {
        at_op: 220,
        kind: FaultKind::CrashAfter,
    }));
    let srv = Server::start(ServerConfig {
        workers: 4,
        backlog: 16,
        spec: SessionSpec::durable_with(fs.clone(), dir.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = srv.local_addr().to_string();
    {
        let mut c = Client::connect(&addr, "setup", "").unwrap();
        c.query("CREATE TABLE t (a INT NOT NULL)").unwrap();
        c.quit().unwrap();
    }

    let acked = Arc::new(AtomicU64::new(0));
    let writers: Vec<_> = (0..4u64)
        .map(|wi| {
            let addr = addr.clone();
            let acked = acked.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr, &format!("w{wi}"), "").unwrap();
                for k in 0..2000u64 {
                    match c.query(&format!("INSERT INTO t VALUES ({})", wi * 10_000 + k)) {
                        Ok(Response::Affected(1)) => {
                            acked.fetch_add(1, Ordering::SeqCst);
                        }
                        Ok(other) => panic!("INSERT acked oddly: {other:?}"),
                        // The injected crash surfaces as SQL_ERROR frames
                        // (or a torn connection); the "process" is dead.
                        Err(_) => return,
                    }
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    let acked = acked.load(Ordering::SeqCst);
    assert!(
        fs.fired_on().is_some(),
        "the workload never reached the crash point — raise the load"
    );
    assert!(acked > 0, "nothing was acknowledged before the crash");

    // Graceful-drain machinery still works, but the shutdown checkpoint
    // hits the dead disk; that error is the expected outcome of a kill.
    let _ = srv.shutdown();

    // Reopen with a healthy filesystem: the committed prefix must be back.
    let mut s = Session::open_durable(dir.clone()).expect("recovery after kill");
    let QueryOutput::Table { rows, .. } = s.execute("SELECT COUNT(*) FROM t").unwrap() else {
        panic!("COUNT did not return a table")
    };
    let Value::I64(recovered) = rows[0][0] else {
        panic!("COUNT returned a non-integer")
    };
    let recovered = recovered as u64;
    // Every acknowledged statement is durable (the WAL fsyncs before the
    // ack frame). Writes serialize on the session, so at most ONE extra
    // statement — in flight at the crash, durable but never acknowledged —
    // may appear on top.
    assert!(
        recovered >= acked,
        "kill lost {} acknowledged statements",
        acked - recovered
    );
    assert!(
        recovered <= acked + 1,
        "recovered {recovered} rows but only {acked} were acknowledged (+1 allowed)"
    );
    // And the store is live again: new statements commit.
    s.execute("INSERT INTO t VALUES (424242)").unwrap();
}

#[test]
fn shed_connections_get_busy_not_hangs() {
    // Regression guard at the integration level: a burst against a tiny
    // server resolves every connect — served, shed, or refused — without
    // any client blocking forever.
    let srv = Server::start(ServerConfig {
        workers: 2,
        backlog: 2,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = srv.local_addr().to_string();
    {
        let mut c = Client::connect(&addr, "setup", "").unwrap();
        c.query("CREATE TABLE t (a INT)").unwrap();
        c.quit().unwrap();
    }
    let handles: Vec<_> = (0..32)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || match Client::connect(&addr, &format!("b{i}"), "") {
                Ok(mut c) => {
                    c.query("SELECT COUNT(*) FROM t").unwrap();
                    let _ = c.quit();
                    true
                }
                Err(ClientError::Busy(_)) => false,
                Err(e) => panic!("hard failure instead of shed: {e}"),
            })
        })
        .collect();
    let served = handles
        .into_iter()
        .map(|h| h.join().unwrap())
        .filter(|&ok| ok)
        .count();
    assert!(served >= 1, "nobody was served");
    srv.shutdown().unwrap();
}
