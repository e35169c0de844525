//! The command line of the four binaries (`mammoth-server`,
//! `mammoth-replica`, `mammoth-shardd`, `mammoth-cli`): `--flag VALUE`
//! pairs read left to right, one usage text, and the exit codes they
//! share — 2 on bad usage, 1 on a runtime error, 0 after a graceful end.
//! Also both sides of `--port-file`: a daemon writes the address it bound
//! ([`write_port_file`]), a launcher reads it ([`launch`]).

use std::process::{Child, Command};
use std::{fmt::Display, fs, io, net::SocketAddr, path::Path, str::FromStr, time::Duration};

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
/// `--addr 127.0.0.1:0`, so scripts can find an ephemeral port). The file
/// appears whole or not at all — written beside its final name, then
/// renamed over it — so a reader that sees it can parse it once.
pub fn write_port_file(prog: &str, path: Option<String>, addr: SocketAddr) {
    if let Some(path) = path {
        let what = format!("cannot write port file {path}");
        let tmp = format!("{path}.tmp");
        let written = fs::write(&tmp, addr.to_string()).and_then(|()| fs::rename(&tmp, &path));
        or_exit(prog, what, written);
    }
}

/// A daemon started by [`launch`]. Dropping it kills the process, so a
/// caller that fails half-way leaves nothing running behind it.
pub struct Launched(pub Child);

impl Drop for Launched {
    fn drop(&mut self) {
        let _ = self.0.kill().and_then(|()| self.0.wait());
    }
}

/// The reading side of `--port-file`: run `cmd` with `--addr 127.0.0.1:0
/// --port-file <port_file>` appended and wait up to ten seconds for the
/// address it bound (the file is removed once read).
pub fn launch(cmd: &mut Command, port_file: &Path) -> io::Result<(Launched, SocketAddr)> {
    let _ = fs::remove_file(port_file);
    cmd.args(["--addr", "127.0.0.1:0", "--port-file"]);
    let mut daemon = Launched(cmd.arg(port_file).spawn()?);
    for _ in 0..1000 {
        if let Ok(text) = fs::read_to_string(port_file) {
            let _ = fs::remove_file(port_file);
            return Ok((daemon, text.parse().map_err(io::Error::other)?));
        }
        if let Some(status) = daemon.0.try_wait()? {
            return Err(io::Error::other(format!("exited: {status}")));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    Err(io::ErrorKind::TimedOut.into())
}
