//! The command line of the four binaries (`mammoth-server`,
//! `mammoth-replica`, `mammoth-shardd`, `mammoth-cli`): `--flag VALUE`
//! pairs read left to right, one usage text, and the exit codes they
//! share — 2 on bad usage, 1 on a runtime error, 0 after a graceful end.

use std::fmt::Display;
use std::str::FromStr;

/// The arguments of one invocation, read as a sequence of flags.
pub struct Flags {
    usage: &'static str,
    args: std::iter::Skip<std::env::Args>,
    /// The flag [`Flags::next_flag`] returned last: whose value
    /// [`Flags::val`] reads, and whom a complaint names.
    flag: String,
}

impl Flags {
    /// Read the process arguments; `usage` is the text after `usage: `.
    pub fn new(usage: &'static str) -> Flags {
        Flags {
            usage,
            args: std::env::args().skip(1),
            flag: String::new(),
        }
    }

    /// Print the usage text and exit 2.
    pub fn usage(&self) -> ! {
        eprintln!("usage: {}", self.usage);
        std::process::exit(2);
    }

    /// Complain, then [`Flags::usage`].
    pub fn bad(&self, complaint: impl Display) -> ! {
        eprintln!("{complaint}");
        self.usage()
    }

    /// The next flag, or `None` after the last. `--help` / `-h` print the
    /// usage text and exit.
    pub fn next_flag(&mut self) -> Option<String> {
        self.flag = self.args.next()?;
        if self.flag == "--help" || self.flag == "-h" {
            self.usage();
        }
        Some(self.flag.clone())
    }

    /// The current flag is not one the binary knows.
    pub fn unknown(&self) -> ! {
        self.bad(format_args!("unknown flag {}", self.flag))
    }

    /// The current flag's value.
    pub fn val(&mut self) -> String {
        match self.args.next() {
            Some(v) => v,
            None => self.bad(format_args!("missing value for {}", self.flag)),
        }
    }

    /// The current flag's value, parsed.
    pub fn parse<T: FromStr>(&mut self) -> T {
        let v = self.val();
        self.parsed(&v)
    }

    /// `s` (the current flag's value, or a part of it) parsed.
    pub fn parsed<T: FromStr>(&self, s: &str) -> T {
        match s.parse() {
            Ok(v) => v,
            Err(_) => self.bad(format_args!("bad value {s:?} for {}", self.flag)),
        }
    }
}

/// Unwrap `r`, or report `<prog>: <what>: <error>` and exit 1.
pub fn or_exit<T, E: Display>(prog: &str, what: impl Display, r: Result<T, E>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("{prog}: {what}: {e}");
        std::process::exit(1)
    })
}

/// Write the bound address where `--port-file` asked for it (useful with
/// `--addr 127.0.0.1:0`, so scripts can find an ephemeral port).
pub fn write_port_file(prog: &str, path: Option<String>, addr: std::net::SocketAddr) {
    if let Some(path) = path {
        let what = format!("cannot write port file {path}");
        or_exit(prog, what, std::fs::write(&path, addr.to_string()));
    }
}
