//! The mammoth-server daemon.
//!
//! ```text
//! mammoth-server [--addr HOST:PORT] [--data DIR] [--workers N]
//!                [--backlog N] [--stmt-timeout-ms N] [--auth TOKEN]
//!                [--wal-batch N] [--port-file PATH] [--no-remote-shutdown]
//! ```
//!
//! Without `--data` the server runs in memory; with it, the session is
//! durable (WAL + checkpoints under DIR) and the graceful shutdown ends
//! with a checkpoint. `--port-file` writes the bound address (useful with
//! `--addr 127.0.0.1:0`) so scripts can find an ephemeral port.
//!
//! The process exits 0 after a graceful shutdown (a client sent
//! `SHUTDOWN`), 2 on bad usage, 1 on runtime errors.

use mammoth_server::flags::{or_exit, write_port_file, Flags};
use mammoth_server::{Server, ServerConfig, SessionSpec};
use std::time::Duration;

const PROG: &str = "mammoth-server";

fn main() {
    let mut cfg = ServerConfig::default();
    let mut data: Option<String> = None;
    let mut wal_batch: Option<usize> = None;
    let mut port_file: Option<String> = None;

    let mut flags = Flags::new(
        "mammoth-server [--addr HOST:PORT] [--data DIR] [--workers N] \
         [--backlog N] [--stmt-timeout-ms N] [--auth TOKEN] [--wal-batch N] \
         [--port-file PATH] [--no-remote-shutdown]",
    );
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--addr" => cfg.addr = flags.val(),
            "--data" => data = Some(flags.val()),
            "--workers" => cfg.workers = flags.parse(),
            "--backlog" => cfg.backlog = flags.parse(),
            "--stmt-timeout-ms" => {
                let ms: u64 = flags.parse();
                cfg.stmt_timeout = (ms != 0).then(|| Duration::from_millis(ms));
            }
            "--auth" => cfg.auth_token = Some(flags.val()),
            "--wal-batch" => wal_batch = Some(flags.parse()),
            "--port-file" => port_file = Some(flags.val()),
            "--no-remote-shutdown" => cfg.allow_remote_shutdown = false,
            _ => flags.unknown(),
        }
    }

    let mut spec = match data {
        Some(dir) => SessionSpec::durable(dir),
        None => SessionSpec::in_memory(),
    };
    spec.wal_batch = wal_batch;
    cfg.spec = spec;

    let srv = or_exit(PROG, "failed to start", Server::start(cfg));
    let addr = srv.local_addr();
    write_port_file(PROG, port_file, addr);
    eprintln!("mammoth-server: listening on {addr}");

    let stats = or_exit(PROG, "shutdown failed", srv.wait());
    eprintln!(
        "mammoth-server: graceful shutdown — {} connections ({} shed), \
         {} statements ({} sql errors, {} timeouts, {} poisonings)",
        stats.accepted,
        stats.shed,
        stats.statements,
        stats.sql_errors,
        stats.timeouts,
        stats.poisonings
    );
}
