//! The host fingerprint printed with every result: a number means little
//! without the machine, toolchain and revision it was measured on.

use std::process::Command;

fn first_line_of(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().next().map(|l| l.trim().to_string())
}

fn proc_field(file: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(file).ok()?;
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// One line: cores, CPU model, memory, compiler, revision.
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let unknown = || "unknown".to_string();
    let cpu = proc_field("/proc/cpuinfo", "model name").unwrap_or_else(unknown);
    let mem_mib = proc_field("/proc/meminfo", "MemTotal")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or_else(unknown, |kb| format!("{} MiB", kb / 1024));
    let rustc = first_line_of("rustc", &["--version"]).unwrap_or_else(unknown);
    // the driver's checkout is not a git repository; that is not an error
    let rev = first_line_of("git", &["rev-parse", "--short", "HEAD"])
        .unwrap_or_else(|| "none (not a git checkout)".to_string());
    format!("host: nproc={nproc} cpu=\"{cpu}\" mem={mem_mib} rustc=\"{rustc}\" git={rev}")
}
