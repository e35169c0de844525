//! The mammoth-replica daemon.
//!
//! ```text
//! mammoth-replica --primary HOST:PORT --data DIR
//!                 [--addr HOST:PORT] [--workers N] [--poll-ms N]
//!                 [--primary-auth TOKEN] [--name NAME] [--port-file PATH]
//!                 [--primary-data DIR]
//! ```
//!
//! Starts a read-only replica of the primary at `--primary`: bootstraps
//! the local mirror under `--data`, tails the primary's WAL, and serves
//! SELECT / EXPLAIN on its own port (writes are refused with
//! `READ_ONLY`). `--port-file` writes the bound address (useful with
//! `--addr 127.0.0.1:0`) so scripts can find an ephemeral port.
//!
//! `--primary-data DIR` names the primary's data directory when this node
//! can see it. It arms in-place failover: a `PROMOTE` statement drains the
//! unreplicated WAL tail from that directory, then lifts the read-only
//! gate — the shard coordinator's health monitor sends `PROMOTE`
//! automatically when it confirms the primary dead.
//!
//! The process exits 0 after a graceful shutdown (a client sent
//! `SHUTDOWN` to the replica's own port), 2 on bad usage, 1 on runtime
//! errors.

use mammoth_replica::{Replica, ReplicaConfig};
use mammoth_server::flags::{or_exit, write_port_file, Flags};
use std::time::Duration;

const PROG: &str = "mammoth-replica";

fn main() {
    let mut primary: Option<String> = None;
    let mut data: Option<String> = None;
    let mut addr = "127.0.0.1:0".to_string();
    let mut workers = 2usize;
    let mut poll_ms = 20u64;
    let mut primary_auth = String::new();
    let mut name = "replica".to_string();
    let mut port_file: Option<String> = None;
    let mut primary_data: Option<String> = None;

    let mut flags = Flags::new(
        "mammoth-replica --primary HOST:PORT --data DIR [--addr HOST:PORT] \
         [--workers N] [--poll-ms N] [--primary-auth TOKEN] [--name NAME] \
         [--port-file PATH] [--primary-data DIR]",
    );
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--primary" => primary = Some(flags.val()),
            "--data" => data = Some(flags.val()),
            "--addr" => addr = flags.val(),
            "--workers" => workers = flags.parse(),
            "--poll-ms" => poll_ms = flags.parse(),
            "--primary-auth" => primary_auth = flags.val(),
            "--name" => name = flags.val(),
            "--port-file" => port_file = Some(flags.val()),
            "--primary-data" => primary_data = Some(flags.val()),
            _ => flags.unknown(),
        }
    }
    let (Some(primary), Some(data)) = (primary, data) else {
        flags.bad("--primary and --data are required");
    };

    let mut cfg = ReplicaConfig::new(primary, data);
    cfg.addr = addr;
    cfg.workers = workers;
    cfg.poll_interval = Duration::from_millis(poll_ms.max(1));
    cfg.primary_token = primary_auth;
    cfg.name = name;
    cfg.primary_data = primary_data.map(Into::into);

    let replica = or_exit(PROG, "failed to start", Replica::start(cfg));
    let local = replica.local_addr();
    write_port_file(PROG, port_file, local);
    eprintln!("mammoth-replica: serving reads on {local}");

    let status = or_exit(PROG, "shutdown failed", replica.wait());
    eprintln!(
        "mammoth-replica: graceful shutdown — generation {}, {} bytes applied \
         ({} groups, {} bootstraps, lag {} bytes)",
        status.generation,
        status.local_offset,
        status.applied_groups,
        status.bootstraps,
        status.lag_bytes
    );
}
