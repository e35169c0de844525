//! mammoth-cli — the interactive shell / one-shot client.
//!
//! ```text
//! mammoth-cli --addr HOST:PORT [--auth TOKEN] [-c "SQL"]...
//! ```
//!
//! With `-c` each statement runs in order and the process exits after the
//! last one (nonzero if any failed). Without `-c`, statements are read
//! line by line from stdin (a `mclient`-flavored loop). The commands
//! `\q` (quit) and `SHUTDOWN` (graceful server shutdown) are understood
//! in both modes.

use mammoth_server::flags::Flags;
use mammoth_server::{Client, ClientError, Response};
use mammoth_sql::QueryOutput;
use std::io::{BufRead, Write};

fn main() {
    let mut addr: Option<String> = None;
    let mut token = String::new();
    let mut commands: Vec<String> = Vec::new();

    let mut flags = Flags::new("mammoth-cli --addr HOST:PORT [--auth TOKEN] [-c \"SQL\"]...");
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--addr" => addr = Some(flags.val()),
            "--auth" => token = flags.val(),
            "-c" => commands.push(flags.val()),
            _ => flags.unknown(),
        }
    }
    let Some(addr) = addr else { flags.usage() };

    let mut client = match Client::connect(&addr, "mammoth-cli", &token) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("mammoth-cli: cannot connect to {addr}: {e}");
            // Shed connections exit with a distinct code so scripts can
            // distinguish "busy, retry" from hard failures.
            std::process::exit(if matches!(e, ClientError::Busy(_)) {
                3
            } else {
                1
            });
        }
    };

    if !commands.is_empty() {
        let mut failed = false;
        for sql in commands {
            match run(&mut client, &sql) {
                RunOutcome::Continue(ok) => failed |= !ok,
                RunOutcome::Done(code) => std::process::exit(code),
            }
        }
        std::process::exit(if failed { 1 } else { 0 });
    }

    // Interactive loop: one statement per line.
    let stdin = std::io::stdin();
    let interactive = is_tty();
    loop {
        if interactive {
            emit("mammoth> ");
        }
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) | Err(_) => break, // EOF
            Ok(_) => {}
        }
        let sql = line.trim();
        if sql.is_empty() {
            continue;
        }
        match run(&mut client, sql) {
            RunOutcome::Continue(_) => {}
            RunOutcome::Done(code) => std::process::exit(code),
        }
    }
    let _ = client.quit();
}

/// Print to stdout, exiting quietly if the reader went away. Rust ignores
/// SIGPIPE, so a plain `print!` panics when the CLI is piped into something
/// like `grep -q` that closes the pipe early; Unix tools exit instead.
fn emit(text: &str) {
    let mut out = std::io::stdout();
    if out
        .write_all(text.as_bytes())
        .and_then(|()| out.flush())
        .is_err()
    {
        std::process::exit(0);
    }
}

enum RunOutcome {
    /// Keep going; the bool says whether the statement succeeded.
    Continue(bool),
    /// Session over; exit with this code.
    Done(i32),
}

fn run(client: &mut Client, sql: &str) -> RunOutcome {
    if sql == "\\q" || sql.eq_ignore_ascii_case("quit") {
        return RunOutcome::Done(0);
    }
    if sql.eq_ignore_ascii_case("SHUTDOWN") {
        return match client.shutdown_server() {
            Ok(()) => {
                emit("server shutting down\n");
                RunOutcome::Done(0)
            }
            Err(e) => {
                eprintln!("error: {e}");
                RunOutcome::Done(1)
            }
        };
    }
    match client.query(sql) {
        Ok(resp) => {
            emit(&render(resp));
            RunOutcome::Continue(true)
        }
        Err(ClientError::Io(e)) => {
            eprintln!("connection lost: {e}");
            RunOutcome::Done(1)
        }
        Err(e) => {
            eprintln!("error: {e}");
            RunOutcome::Continue(false)
        }
    }
}

/// Reuse the engine's text renderer so CLI output matches the in-process
/// examples byte for byte.
fn render(resp: Response) -> String {
    let out = match resp {
        Response::Ok => QueryOutput::Ok,
        Response::Affected(n) => QueryOutput::Affected(n as usize),
        Response::Table { columns, rows } => QueryOutput::Table { columns, rows },
    };
    let mut text = out.to_text();
    if !text.ends_with('\n') {
        text.push('\n');
    }
    text
}

/// Minimal TTY sniff without libc: honor an explicit override, else assume
/// non-interactive (scripts are the common case for this repo).
fn is_tty() -> bool {
    std::env::var("MAMMOTH_CLI_PROMPT")
        .map(|v| v == "1")
        .unwrap_or(false)
}
