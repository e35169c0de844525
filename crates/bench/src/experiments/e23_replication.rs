//! E23 — WAL-shipping replication: read scale-out, steady-state lag,
//! failover (mammoth-replica extension).
//!
//! Three claims, measured over real sockets:
//!
//! * **Read scale-out** — a fixed 8-thread read-only closed loop spread
//!   across the primary plus 0/1/2 caught-up replicas. Every node answers
//!   from its own recovered catalog, so aggregate read throughput grows
//!   with the node count (bounded here by the one benchmark machine all
//!   the "nodes" share).
//! * **Steady lag** — a sustained single-writer INSERT stream on the
//!   primary while a replica polls at a fixed interval; the replica's
//!   `EXPLAIN REPLICATION` `lag_bytes` is sampled throughout, and the
//!   time from last write to convergence is measured.
//! * **Failover** — the primary's filesystem is killed mid-stream at a
//!   deterministic kill point (`FaultFs`); the replica is promoted in
//!   place (`PROMOTE`'s path: drain the dead primary's surviving
//!   directory, rebuild the serving session, go read-write) and its
//!   directory must recover every acknowledged write
//!   (acked <= recovered <= acked + 1): the one claim decided exactly.
//!
//! Every node keeps its files on one in-memory disk (`MemFs`), so no
//! figure here includes a disk.

use crate::table::TextTable;
use crate::{Report, Scale};
use mammoth_replica::{Replica, ReplicaConfig};
use mammoth_server::{
    Client, ClientError, Response, RetryPolicy, Server, ServerConfig, SessionSpec,
};
use mammoth_sql::Session;
use mammoth_storage::{FaultFs, FaultKind, FaultPlan, MemFs, Vfs};
use mammoth_types::Value;
use std::sync::Arc;
use std::time::{Duration, Instant};

const KEEPS_ACKED: &str =
    "the promoted replica recovers every acknowledged write: acked <= recovered <= acked + 1";
const SCALE_OUT: &str =
    "read throughput grows with the caught-up replicas, and lag stays bounded under a writer";

fn replica_cfg(primary: &str, dir: &str, disk: &Arc<dyn Vfs>) -> ReplicaConfig {
    let mut cfg = ReplicaConfig::new(primary, dir);
    cfg.fs = Arc::clone(disk);
    cfg.poll_interval = Duration::from_millis(5);
    cfg.retry = RetryPolicy {
        attempts: 10,
        base_delay: Duration::from_millis(5),
        max_delay: Duration::from_millis(50),
        seed: 23,
    };
    cfg
}

/// 8 reader threads, each pinned round-robin to one endpoint, issuing
/// point-count SELECTs back to back. Returns (statements, elapsed_s).
fn read_loop(endpoints: &[String], per_thread: usize) -> (usize, f64) {
    let t0 = Instant::now();
    let handles: Vec<_> = (0..8)
        .map(|ti| {
            let addr = endpoints[ti % endpoints.len()].clone();
            std::thread::spawn(move || {
                let mut c = loop {
                    match Client::connect(&addr, &format!("reader-{ti}"), "") {
                        Ok(c) => break c,
                        Err(ClientError::Busy(_)) => std::thread::sleep(Duration::from_millis(1)),
                        Err(e) => panic!("reader {ti} cannot connect: {e}"),
                    }
                };
                for k in 0..per_thread {
                    c.query(&format!(
                        "SELECT COUNT(*) FROM bench WHERE a < {}",
                        (k % 100) * 10
                    ))
                    .unwrap();
                }
                let _ = c.quit();
                per_thread
            })
        })
        .collect();
    let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    (total, t0.elapsed().as_secs_f64())
}

/// Read one field from a replica's `EXPLAIN REPLICATION` table.
fn status_field(c: &mut Client, field: &str) -> String {
    match c.query("EXPLAIN REPLICATION").unwrap() {
        Response::Table { rows, .. } => rows
            .iter()
            .find_map(|r| match (&r[0], &r[1]) {
                (Value::Str(k), Value::Str(v)) if k == field => Some(v.clone()),
                _ => None,
            })
            .unwrap_or_else(|| panic!("no {field} in EXPLAIN REPLICATION")),
        other => panic!("expected status table, got {other:?}"),
    }
}

fn lag_bytes(c: &mut Client) -> u64 {
    status_field(c, "lag_bytes").parse().unwrap()
}

pub fn run(scale: Scale) -> Report {
    let seed_rows = scale.pick(1 << 9, 1 << 12);
    let per_thread = scale.pick(40, 250);
    let lag_writes = scale.pick(150, 800);
    let mut r = Report::default();

    let mut out = String::new();
    out.push_str(&format!(
        "E23  WAL-shipping replication: 8 reader threads, {seed_rows} seed rows\n"
    ));
    out.push_str("read-only closed loop spread over primary + N caught-up replicas;\n");
    out.push_str("lag sampled from EXPLAIN REPLICATION under a sustained writer\n\n");

    // --- setup: durable primary + two replicas ----------------------------
    let disk: Arc<dyn Vfs> = Arc::new(MemFs::default());
    let primary = Server::start(ServerConfig {
        workers: 8,
        backlog: 128,
        spec: SessionSpec::durable_with(Arc::clone(&disk), "/primary"),
        ..ServerConfig::default()
    })
    .expect("primary start");
    let paddr = primary.local_addr().to_string();
    {
        let mut c = Client::connect(&paddr, "setup", "").unwrap();
        c.query("CREATE TABLE bench (a INT NOT NULL, s TEXT)")
            .unwrap();
        let mut row = 0usize;
        while row < seed_rows {
            let chunk: Vec<String> = (row..(row + 512).min(seed_rows))
                .map(|i| format!("({}, 'seed')", i % 1000))
                .collect();
            c.query(&format!("INSERT INTO bench VALUES {}", chunk.join(", ")))
                .unwrap();
            row += 512;
        }
        c.quit().unwrap();
    }
    let replicas: Vec<Replica> = ["/replica-0", "/replica-1"]
        .iter()
        .map(|d| Replica::start(replica_cfg(&paddr, d, &disk)).expect("replica start"))
        .collect();
    for r in &replicas {
        assert!(
            r.wait_caught_up(Duration::from_secs(30)),
            "replica never caught up during setup"
        );
    }

    // --- read scale-out sweep ---------------------------------------------
    let mut t = TextTable::new(vec!["replicas", "endpoints", "reads/s"]);
    for n in 0..=replicas.len() {
        let mut endpoints = vec![paddr.clone()];
        endpoints.extend(replicas[..n].iter().map(|r| r.local_addr().to_string()));
        let (stmts, elapsed) = read_loop(&endpoints, per_thread);
        t.row(vec![
            n.to_string(),
            endpoints.len().to_string(),
            format!("{:.0}", stmts as f64 / elapsed.max(1e-9)),
        ]);
        r.metric(
            "read_scaleout",
            &[("replicas", &n), ("stmts", &stmts)],
            elapsed,
        );
    }
    out.push_str(&t.render());

    // --- steady-state lag under a sustained writer ------------------------
    let writer_addr = paddr.clone();
    let writer = std::thread::spawn(move || {
        let mut c = Client::connect(&writer_addr, "lag-writer", "").unwrap();
        for k in 0..lag_writes {
            c.query(&format!("INSERT INTO bench VALUES ({k}, 'lag')"))
                .unwrap();
        }
        let _ = c.quit();
    });
    let mut probe =
        Client::connect(&replicas[0].local_addr().to_string(), "lag-probe", "").unwrap();
    let mut samples = Vec::new();
    while !writer.is_finished() {
        samples.push(lag_bytes(&mut probe));
        std::thread::sleep(Duration::from_millis(1));
    }
    writer.join().unwrap();
    let t_conv = Instant::now();
    while lag_bytes(&mut probe) > 0 || status_field(&mut probe, "caught_up") != "true" {
        assert!(
            t_conv.elapsed() < Duration::from_secs(30),
            "replica never reconverged after the write burst"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let converge_ms = t_conv.elapsed().as_secs_f64() * 1e3;
    let max_lag = samples.iter().copied().max().unwrap_or(0);
    let mean_lag = samples.iter().sum::<u64>() as f64 / samples.len().max(1) as f64;
    out.push_str(&format!(
        "\nlag under {lag_writes} sustained INSERTs (1 ms probe): max {max_lag} bytes, \
         mean {mean_lag:.0} bytes over {} samples; converged {converge_ms:.0} ms after \
         the last write\n",
        samples.len()
    ));
    r.metric(
        "steady_lag",
        &[
            ("writes", &lag_writes),
            ("max_lag_bytes", &max_lag),
            ("mean_lag_bytes", &format!("{mean_lag:.0}")),
            ("converge_ms", &format!("{converge_ms:.1}")),
        ],
        0.0,
    );
    drop(probe);
    for r in replicas {
        r.shutdown().expect("replica shutdown");
    }
    primary.shutdown().expect("primary shutdown");

    // --- failover coda: kill the primary, promote, count survivors --------
    let (fpdir, frdir) = ("/fail-primary", "/fail-replica");
    let fs = Arc::new(FaultFs::new(
        Arc::clone(&disk),
        FaultPlan {
            at_op: 97,
            kind: FaultKind::CrashAfter,
        },
    ));
    let doomed = Server::start(ServerConfig {
        spec: SessionSpec::durable_with(fs, fpdir),
        ..ServerConfig::default()
    })
    .expect("doomed primary start");
    let daddr = doomed.local_addr().to_string();
    let mut rcfg = replica_cfg(&daddr, frdir, &disk);
    rcfg.primary_data = Some(fpdir.into());
    let replica = Replica::start(rcfg).expect("failover replica");
    let mut acked = 0u64;
    {
        let mut c = Client::connect(&daddr, "doomed-writer", "").unwrap();
        if c.query("CREATE TABLE t (a INT)").is_ok() {
            for i in 0..200 {
                if c.query(&format!("INSERT INTO t VALUES ({i})")).is_err() {
                    break;
                }
                acked = i + 1;
            }
        }
    }
    std::thread::sleep(Duration::from_millis(100));
    let t_promote = Instant::now();
    replica.promote_in_place().expect("promotion");
    let promote_s = t_promote.elapsed().as_secs_f64();
    replica.shutdown().expect("promoted replica shutdown");
    let recovered = Session::open_durable_with(disk, frdir.into())
        .expect("promoted dir must recover")
        .catalog()
        .table("t")
        .map(|t| t.rows().len() as u64)
        .unwrap_or(0);
    out.push_str(&format!(
        "\nfailover: primary killed after {acked} acked INSERTs → promoted replica \
         recovered {recovered} ({:.1} ms in-place promotion incl. drain)\n",
        promote_s * 1e3
    ));
    r.metric(
        "failover_promotion",
        &[("acked", &acked), ("recovered", &recovered)],
        promote_s,
    );
    drop(doomed); // its disk is dead; the process is experiment-scoped

    r.text = out;
    r.exact(
        "extension",
        KEEPS_ACKED,
        recovered == acked || recovered == acked + 1,
    )
    .wall_clock("extension", SCALE_OUT)
}
