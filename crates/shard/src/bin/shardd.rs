//! The mammoth-shardd daemon: a scatter-gather coordinator in front of a
//! set of `mammoth-server` shards.
//!
//! ```text
//! mammoth-shardd --shard HOST:PORT [--shard HOST:PORT ...]
//!                [--replica IDX=HOST:PORT ...]
//!                [--addr HOST:PORT] [--auth TOKEN] [--shard-auth TOKEN]
//!                [--deadline-ms N] [--port-file PATH]
//!                [--probe-ms N] [--suspect-after N]
//!                [--promote-timeout-ms N]
//! ```
//!
//! `--shard` repeats once per shard; **order defines shard ids**, so a
//! restarted coordinator must list the same shards in the same order for
//! routing to stay stable. `--auth` gates logins to the coordinator
//! itself; `--shard-auth` is forwarded to the shards. `--deadline-ms`
//! bounds every scatter leg (default 2000). `--port-file` writes the
//! bound address (useful with `--addr 127.0.0.1:0`).
//!
//! `--replica IDX=HOST:PORT` names a `mammoth-replica` of shard `IDX`
//! (index into the `--shard` list) and arms high availability: the
//! coordinator starts a health monitor that probes each primary every
//! `--probe-ms` (default 100), declares it dead after `--suspect-after`
//! consecutive misses (default 3), serves the dead shard's reads from
//! its replica, and drives `PROMOTE` on the replica — waiting up to
//! `--promote-timeout-ms` (default 5000) for `role=primary` — to
//! restore writes. See `docs/ha.md`.
//!
//! Exits 0 after a graceful shutdown (a client sent `SHUTDOWN`), 2 on bad
//! usage, 1 on runtime errors.

use std::sync::Arc;
use std::time::Duration;

use mammoth_server::flags::{or_exit, write_port_file, Flags};
use mammoth_shard::{Coordinator, CoordinatorConfig, FrontConfig, FrontEnd};

const PROG: &str = "mammoth-shardd";

fn main() {
    let mut shards: Vec<String> = Vec::new();
    let mut replica_specs: Vec<(usize, String)> = Vec::new();
    let mut addr = "127.0.0.1:0".to_string();
    let mut auth: Option<String> = None;
    let mut shard_auth = String::new();
    let mut deadline_ms = 2000u64;
    let mut port_file: Option<String> = None;
    let mut probe_ms = 100u64;
    let mut suspect_after = 3u32;
    let mut promote_timeout_ms = 5000u64;

    let mut flags = Flags::new(
        "mammoth-shardd --shard HOST:PORT [--shard HOST:PORT ...] \
         [--replica IDX=HOST:PORT ...] \
         [--addr HOST:PORT] [--auth TOKEN] [--shard-auth TOKEN] \
         [--deadline-ms N] [--port-file PATH] \
         [--probe-ms N] [--suspect-after N] [--promote-timeout-ms N]",
    );
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--shard" => shards.push(flags.val()),
            "--replica" => {
                let v = flags.val();
                let Some((idx, raddr)) = v.split_once('=') else {
                    flags.bad(format_args!("--replica wants IDX=HOST:PORT, got {v:?}"));
                };
                replica_specs.push((flags.parsed(idx), raddr.to_string()));
            }
            "--addr" => addr = flags.val(),
            "--auth" => auth = Some(flags.val()),
            "--shard-auth" => shard_auth = flags.val(),
            "--deadline-ms" => deadline_ms = flags.parse(),
            "--port-file" => port_file = Some(flags.val()),
            "--probe-ms" => probe_ms = flags.parse(),
            "--suspect-after" => suspect_after = flags.parse(),
            "--promote-timeout-ms" => promote_timeout_ms = flags.parse(),
            _ => flags.unknown(),
        }
    }
    if shards.is_empty() {
        flags.bad("at least one --shard is required");
    }
    let mut replicas: Vec<Option<String>> = vec![None; shards.len()];
    for (idx, raddr) in replica_specs {
        if idx >= shards.len() {
            flags.bad(format_args!(
                "--replica shard index {idx} out of range ({} shards configured)",
                shards.len()
            ));
        }
        replicas[idx] = Some(raddr);
    }
    let has_replicas = replicas.iter().any(Option::is_some);

    let mut cfg = CoordinatorConfig::new(shards);
    cfg.token = shard_auth;
    cfg.deadline = Duration::from_millis(deadline_ms.max(1));
    cfg.replicas = replicas;
    cfg.probe_interval = Duration::from_millis(probe_ms.max(1));
    cfg.suspect_after = suspect_after.max(1);
    cfg.promote_timeout = Duration::from_millis(promote_timeout_ms.max(1));
    let coordinator = Arc::new(Coordinator::new(cfg));
    if has_replicas {
        coordinator.start_health_monitor();
    }

    let mut front_cfg = FrontConfig::new(addr);
    front_cfg.auth_token = auth;
    front_cfg.allow_remote_shutdown = true;
    let front = or_exit(
        PROG,
        "failed to start",
        FrontEnd::start(front_cfg, coordinator),
    );
    let local = front.local_addr();
    write_port_file(PROG, port_file, local);
    eprintln!("mammoth-shardd: coordinating on {local}");

    or_exit(PROG, "shutdown failed", front.wait());
    eprintln!("mammoth-shardd: graceful shutdown");
}
