//! E25 — shard-replica failover: time-to-detect, time-to-degrade,
//! time-to-promote, and the zero-loss audit (mammoth-shard + replica
//! extension).
//!
//! One shard primary in a replicated 3-shard cluster is shut down under
//! a live health monitor, and the outage is timed from the kill:
//!
//! * **time-to-detect** — the first probe miss flips the shard to
//!   `suspect` (the `ha.suspect` event on the coordinator trace).
//! * **time-to-degrade** — the first fan-out read served after the kill:
//!   the monitor confirmed the death and rerouted the dead shard's
//!   scatter leg to its replica.
//! * **time-to-promote** — the first *victim-owned* write acked after
//!   the kill: the monitor drove `PROMOTE`, the replica's read-only gate
//!   lifted, and the coordinator swapped the shard's primary address.
//!
//! Throughout, live shards keep acking writes, and the run ends with the
//! durability audit the chaos tier enforces: every shard (the victim
//! audited from the promoted replica's directory) recovers
//! `acked <= recovered <= acked + 1`, i.e. **0 acked statements lost**.

use crate::table::TextTable;
use crate::{record_metric, Metric, Scale};
use mammoth_replica::{Replica, ReplicaConfig};
use mammoth_server::{Client, Response, RetryPolicy, Server, ServerConfig, SessionSpec};
use mammoth_shard::{shard_of, CoordError, Coordinator, CoordinatorConfig};
use mammoth_sql::{QueryOutput, Session};
use mammoth_types::Value;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const NSHARDS: usize = 3;
const VICTIM: usize = 1;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mammoth-e25-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn quick_retry(seed: u64) -> RetryPolicy {
    RetryPolicy {
        attempts: 3,
        base_delay: Duration::from_millis(5),
        max_delay: Duration::from_millis(25),
        seed,
    }
}

fn count_all(coord: &Coordinator) -> Result<i64, CoordError> {
    match coord.execute("SELECT COUNT(*) FROM bench")? {
        QueryOutput::Table { rows, .. } => match rows[0][0] {
            Value::I64(n) => Ok(n),
            ref other => panic!("COUNT(*) returned {other:?}"),
        },
        other => panic!("COUNT(*) returned {other:?}"),
    }
}

/// Poll `f` every millisecond until it returns `Some`; panics with
/// `what` after `deadline`. Returns (value, elapsed).
fn timed_wait<T>(deadline: Duration, what: &str, mut f: impl FnMut() -> Option<T>) -> (T, f64) {
    let t0 = Instant::now();
    loop {
        if let Some(v) = f() {
            return (v, t0.elapsed().as_secs_f64());
        }
        assert!(t0.elapsed() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

pub fn run(scale: Scale) -> String {
    let rows = scale.pick(96, 960);
    let batch = 8;
    let probe = Duration::from_millis(25);
    let suspect_after = 2u32;

    let mut out = String::new();
    out.push_str(&format!(
        "E25  shard-replica failover: {rows} seeded rows, probe {} ms, \
         suspect after {suspect_after} misses\n",
        probe.as_millis()
    ));
    out.push_str(
        "3 durable shards + caught-up replicas; shard 1's primary killed under load\n\
         (phase times are cumulative, measured from the moment the kill begins)\n\n",
    );

    // --- cluster: 3 durable primaries, each with a caught-up replica ------
    let pdirs: Vec<_> = (0..NSHARDS).map(|i| tmpdir(&format!("p{i}"))).collect();
    let rdirs: Vec<_> = (0..NSHARDS).map(|i| tmpdir(&format!("r{i}"))).collect();
    let mut servers: Vec<Option<Server>> = Vec::new();
    let mut addrs = Vec::new();
    for dir in &pdirs {
        let srv = Server::start(ServerConfig {
            spec: SessionSpec::durable(dir),
            ..ServerConfig::default()
        })
        .expect("shard start");
        addrs.push(srv.local_addr().to_string());
        servers.push(Some(srv));
    }
    let mut replicas = Vec::new();
    let mut raddrs = Vec::new();
    for (i, rdir) in rdirs.iter().enumerate() {
        let mut rcfg = ReplicaConfig::new(&addrs[i], rdir);
        rcfg.poll_interval = Duration::from_millis(5);
        rcfg.retry = quick_retry(25);
        rcfg.primary_data = Some(pdirs[i].clone());
        let r = Replica::start(rcfg).expect("replica start");
        raddrs.push(r.local_addr().to_string());
        replicas.push(r);
    }
    let mut cfg = CoordinatorConfig::new(addrs.clone());
    cfg.deadline = Duration::from_millis(1500);
    cfg.retry = quick_retry(25);
    cfg.replicas = raddrs.iter().cloned().map(Some).collect();
    cfg.probe_interval = probe;
    cfg.suspect_after = suspect_after;
    cfg.promote_timeout = Duration::from_secs(10);
    let coord = Arc::new(Coordinator::new(cfg));
    coord.start_health_monitor();

    coord
        .execute("CREATE TABLE bench (id BIGINT NOT NULL, v BIGINT)")
        .unwrap();
    let mut acked = [0u64; NSHARDS];
    let mut next_id = 0i64;
    while (next_id as usize) < rows {
        let chunk: Vec<String> = (0..batch)
            .map(|_| {
                let id = next_id;
                next_id += 1;
                acked[shard_of(&Value::I64(id), NSHARDS)] += 1;
                format!("({id}, {})", id * 7)
            })
            .collect();
        coord
            .execute(&format!("INSERT INTO bench VALUES {}", chunk.join(", ")))
            .unwrap();
    }
    let pre_kill = next_id;

    // Replicas must *serve* every acked row before the kill, so the
    // degraded read below has an exact answer to hit.
    for (i, raddr) in raddrs.iter().enumerate() {
        timed_wait(Duration::from_secs(20), "replica convergence", || {
            let mut c = Client::connect(raddr, "e25-check", "").ok()?;
            let served = match c.query("SELECT COUNT(*) FROM bench").ok()? {
                Response::Table { rows, .. } => match rows[0][0] {
                    Value::I64(n) => n as u64,
                    ref other => panic!("COUNT(*) returned {other:?}"),
                },
                other => panic!("COUNT(*) returned {other:?}"),
            };
            let _ = c.quit();
            (served == acked[i]).then_some(())
        });
    }

    // --- the outage: every phase timed from the moment the kill begins ----
    let t_kill = Instant::now();
    servers[VICTIM].take().unwrap().shutdown().expect("victim");

    timed_wait(Duration::from_secs(10), "ha.suspect", || {
        (coord.shard_health()[VICTIM] != "healthy").then_some(())
    });
    let detect_s = t_kill.elapsed().as_secs_f64();
    let (total, _) = timed_wait(
        Duration::from_secs(15),
        "a degraded read",
        || match count_all(&coord) {
            Ok(n) => Some(n),
            Err(CoordError::Unavailable(_)) | Err(CoordError::Remote { .. }) => None,
            Err(e) => panic!("untyped read failure during outage: {e}"),
        },
    );
    let degrade_s = t_kill.elapsed().as_secs_f64();
    assert_eq!(total, pre_kill, "degraded read lost or invented rows");
    let mut victim_failures = 0u32;
    timed_wait(
        Duration::from_secs(20),
        "a victim-owned acked write",
        || loop {
            let id = next_id;
            next_id += 1;
            let owner = shard_of(&Value::I64(id), NSHARDS);
            match coord.execute(&format!("INSERT INTO bench VALUES ({id}, 0)")) {
                Ok(QueryOutput::Affected(1)) => {
                    acked[owner] += 1;
                    if owner == VICTIM {
                        return Some(());
                    }
                }
                Err(CoordError::Unavailable(_)) if owner == VICTIM => {
                    victim_failures += 1;
                    return None; // back off a tick, then keep writing
                }
                other => panic!("INSERT during outage answered {other:?}"),
            }
        },
    );
    let promote_s = t_kill.elapsed().as_secs_f64();
    timed_wait(Duration::from_secs(10), "all-healthy cluster", || {
        (coord.shard_health() == vec!["healthy"; NSHARDS]).then_some(())
    });
    let final_total = count_all(&coord).unwrap();
    assert_eq!(final_total as u64, acked.iter().sum::<u64>());

    // --- audit: no acked statement lost anywhere --------------------------
    coord.stop_health_monitor();
    drop(coord);
    for r in replicas {
        r.shutdown().expect("replica shutdown");
    }
    for s in servers.iter_mut().flat_map(|s| s.take()) {
        s.shutdown().expect("shard shutdown");
    }
    let mut lost = 0u64;
    for i in 0..NSHARDS {
        let dir = if i == VICTIM { &rdirs[i] } else { &pdirs[i] };
        let mut session = Session::open_durable(dir).expect("shard dir must recover");
        let recovered = match session.execute("SELECT COUNT(*) FROM bench").unwrap() {
            QueryOutput::Table { rows, .. } => match rows[0][0] {
                Value::I64(n) => n as u64,
                ref other => panic!("COUNT(*) returned {other:?}"),
            },
            other => panic!("COUNT(*) returned {other:?}"),
        };
        assert!(
            acked[i] <= recovered && recovered <= acked[i] + 1,
            "shard {i}: acked {} recovered {recovered}",
            acked[i]
        );
        lost += acked[i].saturating_sub(recovered);
    }

    let mut t = TextTable::new(vec!["phase", "ms", "meaning"]);
    for (name, secs, meaning) in [
        (
            "detect",
            detect_s,
            "first probe miss marks the shard suspect",
        ),
        (
            "degrade",
            degrade_s,
            "first fan-out read served by the replica",
        ),
        ("promote", promote_s, "first victim-owned write acked again"),
    ] {
        t.row(vec![
            name.to_string(),
            format!("{:.1}", secs * 1e3),
            meaning.to_string(),
        ]);
        record_metric(Metric {
            experiment: "e25",
            name: format!("time_to_{name}"),
            params: vec![
                ("probe_ms".into(), probe.as_millis().to_string()),
                ("suspect_after".into(), suspect_after.to_string()),
            ],
            wall_secs: secs,
            simulated_misses: None,
        });
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nwrites held typed during the outage ({victim_failures} victim refusals), \
         live shards kept acking; audit: {} acked statements, {lost} lost \
         (acked <= recovered <= acked+1 per shard)\n",
        acked.iter().sum::<u64>()
    ));
    record_metric(Metric {
        experiment: "e25",
        name: "acked_statements_lost".into(),
        params: vec![("acked".into(), acked.iter().sum::<u64>().to_string())],
        wall_secs: lost as f64,
        simulated_misses: None,
    });

    for d in pdirs.iter().chain(rdirs.iter()) {
        let _ = std::fs::remove_dir_all(d);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failover_loses_no_acked_statement() {
        let r = run(Scale::Quick);
        assert!(r.contains(", 0 lost"), "{r}");
    }
}
