//! mammoth-server under concurrent load.
//!
//! Two claims, both seed-deterministic in their workloads:
//!
//! * **Serializable equivalence** — 16 client threads issue a mixed
//!   DDL/DML/SELECT stream against one server. Every per-thread-private
//!   observation must be *exact*: each thread owns a private table, fed by
//!   the statement generator (`support::gen`), whose state its model
//!   mirrors. Shared-table counts must be monotone while
//!   only inserts run, and the final shared state must equal the sum of
//!   everything acknowledged. No deadlock: the test simply finishes.
//! * **Kill and drain recovery** — a durable server on an in-memory disk
//!   (`MemFs`) is "killed" mid-load with a [`FaultFs`] crash schedule
//!   (every disk op after the Nth fails), or shut down gracefully mid-load.
//!   Reopening the store — as the process left the disk, and after each of
//!   `POWER_LOSSES` power losses (`MemFs::crash`) — must recover every acknowledged INSERT, by
//!   value; only the one statement in flight at the stop may appear beyond
//!   that (fsync'd but never acknowledged), and nothing that was never
//!   sent.

use mammoth_server::{Client, ClientError, Response, Server, ServerConfig, SessionSpec};
use mammoth_sql::{QueryOutput, Session};
use mammoth_storage::{FaultFs, FaultKind, FaultPlan, MemFs, Vfs};
use mammoth_types::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

mod support;
use support::gen::{Gen, Model};
use support::{crash_seeds, mem_disk, seed, views, wait_for, Ledger, STORE};

/// The first row of a result table, as integers.
fn tally(resp: Response) -> Vec<Option<i64>> {
    match resp {
        Response::Table { rows, .. } => rows[0].iter().map(Value::as_i64).collect(),
        other => panic!("expected a table, got {other:?}"),
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
                // a private table whose whole history this thread owns, fed
                // by the statement generator and mirrored by its model
                let mut g = Gen::new(seed ^ (ti + 1));
                g.tables[0].name = format!("own_{ti}");
                let mut c = Client::connect(&addr, &format!("mix-{ti}"), "").unwrap();
                let create = g.create(0);
                assert_eq!(c.query(&g.render(&create)).unwrap(), Response::Ok);
                let mut own = Model::new(&g.tables[0]);
                let mut last_shared_count = Some(0);
                for step in 0..STEPS {
                    let ctx = format!("seed {seed} thread {ti} step {step}");
                    let stmt = match g.below(5) {
                        // 2-in-5: shared insert (globally counted)
                        0 | 1 => {
                            let v = ti * 10_000 + step;
                            let sql = format!("INSERT INTO shared VALUES ({v})");
                            assert_eq!(c.query(&sql).unwrap(), Response::Affected(1));
                            shared_inserted.fetch_add(1, Ordering::SeqCst);
                            continue;
                        }
                        // private INSERTs and DELETEs: exactly what the model says
                        2 => g.insert(0),
                        3 => g.delete(0),
                        // reads: private tally exact, shared count monotone
                        _ => {
                            let read = g.tally(0);
                            let got = c.query(&g.render(&read)).unwrap();
                            assert_eq!(tally(got), own.tally(&read), "{ctx}: {read}");
                            let sh = tally(c.query("SELECT COUNT(*) FROM shared").unwrap())[0];
                            assert!(
                                sh >= last_shared_count,
                                "shared count went backwards under insert-only load"
                            );
                            last_shared_count = sh;
                            continue;
                        }
                    };
                    let want = own.apply(&stmt).map(|n| Response::Affected(n as u64));
                    let got = c.query(&g.render(&stmt)).ok();
                    assert_eq!(got, want, "{ctx}: {stmt}");
                }
                // Half the threads drop their table (DDL churn); the other
                // half verify and leave it for the final sweep.
                if ti % 2 == 0 {
                    let drop = g.drop_table(0);
                    c.query(&g.render(&drop)).unwrap();
                } else {
                    let read = g.tally(0);
                    assert_eq!(tally(c.query(&g.render(&read)).unwrap()), own.tally(&read));
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
    let total = tally(c.query("SELECT COUNT(*) FROM shared").unwrap())[0];
    assert_eq!(total, Some(shared_inserted.load(Ordering::SeqCst) as i64));
    // Dropped tables are gone; kept tables remain queryable.
    assert!(c.query("SELECT COUNT(*) FROM own_0").is_err());
    assert!(c.query("SELECT COUNT(*) FROM own_1").is_ok());
    c.quit().unwrap();
    let stats = srv.shutdown().unwrap();
    assert_eq!(stats.accepted, 18); // setup + 16 mixers + verify
}

/// A durable server on `fs` holding one table, and four writers INSERTing
/// distinct values into it until a statement fails: the server, the
/// writers, and the ledger of what each INSERT was answered.
fn insert_load(fs: Arc<dyn Vfs>) -> (Server, Vec<JoinHandle<()>>, Arc<Ledger>) {
    let srv = Server::start(ServerConfig {
        workers: 4,
        backlog: 16,
        spec: SessionSpec::durable_with(fs, STORE),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = srv.local_addr().to_string();
    {
        let mut c = Client::connect(&addr, "setup", "").unwrap();
        c.query("CREATE TABLE t (a INT NOT NULL)").unwrap();
        c.quit().unwrap();
    }

    let ledger = Arc::new(Ledger::default());
    let writers = (0..4i64)
        .map(|wi| {
            let addr = addr.clone();
            let ledger = ledger.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr, &format!("w{wi}"), "").unwrap();
                for v in wi * 10_000..wi * 10_000 + 2000 {
                    match c.query(&format!("INSERT INTO t VALUES ({v})")) {
                        Ok(Response::Affected(1)) => ledger.record(v, true),
                        Ok(other) => panic!("INSERT acked oddly: {other:?}"),
                        // A crash surfaces as SQL_ERROR frames (or a torn
                        // connection), a drain as SHUTTING_DOWN: either way
                        // this writer is done, its last value in flight.
                        Err(_) => return ledger.record(v, false),
                    }
                }
            })
        })
        .collect();
    (srv, writers, ledger)
}

/// Reopen the store on `disk` as the process left it, and after the power
/// loss of each crash seed of kill point `at_op`: each time the committed
/// prefix must be back — every acknowledged value (the WAL fsyncs before
/// the ack frame) and, since writes serialize on the session, at most ONE
/// more: the statement in flight at the stop, durable but never
/// acknowledged.
fn assert_recovers(disk: Arc<MemFs>, ledger: &Ledger, at_op: u64) {
    let seeds = crash_seeds(seed("MAMMOTH_FAULT_SEED", 1), at_op);
    for (crash, disk) in views(disk, seeds) {
        let ctx = match crash {
            Some(s) => format!("recovered after a power loss, crash seed {s}"),
            None => "recovered from the volatile view".into(),
        };
        let mut s =
            Session::open_durable_with(disk, STORE.into()).unwrap_or_else(|e| panic!("{ctx}: {e}"));
        let QueryOutput::Table { rows, .. } = s.execute("SELECT a FROM t").unwrap() else {
            panic!("SELECT did not return a table")
        };
        let recovered: Vec<i64> = rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
        ledger
            .check(&recovered, 1)
            .unwrap_or_else(|e| panic!("{ctx}: {e}"));
        // And the store is live again: new statements commit.
        s.execute("INSERT INTO t VALUES (424242)").unwrap();
    }
}

#[test]
fn killed_server_recovers_every_acknowledged_statement() {
    // Let setup (store creation + CREATE TABLE) through, then crash the
    // "disk" a couple hundred mutating operations into the load.
    let disk = mem_disk();
    let at_op = 220;
    let kind = FaultKind::CrashAfter;
    let fs = Arc::new(FaultFs::new(disk.clone(), FaultPlan { at_op, kind }));
    let (srv, writers, ledger) = insert_load(fs.clone());
    writers.into_iter().for_each(|w| w.join().unwrap());
    assert!(
        fs.fired_on().is_some(),
        "the workload never reached the crash point — raise the load"
    );
    assert!(
        ledger.acked() > 0,
        "nothing was acknowledged before the crash"
    );
    // Graceful-drain machinery still works, but the shutdown checkpoint
    // hits the dead disk; that error is the expected outcome of a kill.
    let _ = srv.shutdown();
    assert_recovers(disk, &ledger, at_op);
}

/// A graceful shutdown in the middle of the same load — drain, then the
/// shutdown checkpoint — keeps the same contract.
#[test]
fn drained_server_recovers_every_acknowledged_statement() {
    let disk = mem_disk();
    let (srv, writers, ledger) = insert_load(disk.clone());
    wait_for(Duration::from_secs(30), "acknowledged INSERTs", || {
        (ledger.acked() >= 200).then_some(())
    });
    srv.shutdown().expect("a graceful shutdown");
    writers.into_iter().for_each(|w| w.join().unwrap());
    // no op was faulted: the power fails after the last one
    assert_recovers(disk, &ledger, u64::MAX);
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
