//! The repo benchmark. See README.md for the workloads, the metrics and
//! how to read them, and `BENCHMARK.json` at the repository root for the
//! contract the driver holds this program to.
//!
//! ```text
//! -- --workload W --seed N --seconds S --trace 0|1   one run, one JSON result line (the driver's form)
//! -- run   [--workload W] [--seed N] [--seconds S] [--quick]   every end-to-end metric, one child per workload
//! -- trace [--workload W] [--seed N] [--seconds S] [--quick]   the traced pass: per-layer table + span file
//! -- aa    [--workload W] [--sets 2] [--runs 10] [--seconds S] [--quick]   same-binary A/A spreads against the bounds (gated workloads unless one is named)
//! -- manifest                                                  print BENCHMARK.json
//! ```

mod countfs;
mod gen;
mod harness;
mod host;
mod metrics;
mod stats;
mod workloads;

use gen::Scale;
use harness::{peak_rss_mb, reset_peak_rss, Budget, Spans};
use stats::{median, quartiles, rel_iqr, samples_beyond};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::{Kind, Workload};

/// Where the benchmark keeps what it writes (span files, the durable
/// workload's store): `benchmark/out` from the repository root, `out` when
/// run from the package directory as `cargo test` does. Always inside the
/// checkout.
pub fn out_dir() -> PathBuf {
    if std::path::Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

/// Set-ups per run; `setup_s` is their median, so one slow page-cache or
/// allocator start does not decide it.
const SETUPS: usize = 5;

#[derive(Debug, Clone)]
struct Opts {
    workload: Option<Kind>,
    seed: u64,
    budget: Budget,
    trace: bool,
    quick: bool,
    /// Exit non-zero when a result is incorrect (the subcommands set it;
    /// the driver reads `correct` from the result line instead).
    strict: bool,
    sets: usize,
    runs: usize,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: 1,
        budget: Budget::Seconds(metrics::RUN_SECONDS as f64),
        trace: false,
        quick: false,
        strict: false,
        sets: 2,
        runs: 10,
    };
    let mut seconds_given = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {v}"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                o.workload = Some(Kind::parse(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => o.seed = num(value()?)?,
            "--seconds" => {
                let v = value()?;
                let s: f64 = v
                    .parse()
                    .map_err(|_| format!("--seconds: bad number {v}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {v}"));
                }
                o.budget = Budget::Seconds(s);
                seconds_given = true;
            }
            "--blocks" => {
                o.budget = Budget::Blocks(num(value()?)?.max(1) as usize);
                seconds_given = true;
            }
            "--trace" => {
                o.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v}")),
                }
            }
            "--quick" => o.quick = true,
            "--strict" => o.strict = true,
            "--sets" => o.sets = num(value()?)?.max(2) as usize,
            "--runs" => o.runs = num(value()?)?.max(2) as usize,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if o.quick && !seconds_given {
        o.budget = Budget::Seconds(1.0);
    }
    Ok(o)
}

/// One run's outcome.
struct Report {
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)` of the contract's metrics for this mode.
    metrics: Vec<(String, f64, &'static str)>,
    /// The human-readable block printed above the result line.
    text: String,
}

fn measure<W: Workload>(kind: Kind, o: &Opts) -> Result<Report, String> {
    let scale = Scale { quick: o.quick };
    let setups = if o.quick { 1 } else { SETUPS };
    let mut setup_times = Vec::with_capacity(setups);
    let mut setup_peaks = Vec::with_capacity(setups);
    let mut current: Option<W> = None;
    for _ in 0..setups {
        if let Some(prev) = current.take() {
            prev.teardown()?;
        }
        reset_peak_rss();
        let t = Instant::now();
        current = Some(W::setup(kind, o.seed, scale)?);
        setup_times.push(t.elapsed().as_secs_f64());
        setup_peaks.push(peak_rss_mb());
    }
    let mut w = current.expect("at least one set-up ran");
    let setup_s = median(&setup_times);
    // Memory is read after each set-up and its warm-up (a fixed amount of
    // work), not after the timed phase: the server keeps a trace event per
    // statement served, so a later reading would grow with the number of
    // statements a time-budgeted run gets through — a faster program would
    // look bigger. That growth is its own per-layer metric, counted from
    // the last set-up's peak.
    let peak_rss = median(&setup_peaks);
    let rss_after_setup = *setup_peaks.last().expect("at least one set-up ran");

    let mut text = format!(
        "workload {} seed {} budget {:?} {}\n",
        kind.name(),
        o.seed,
        o.budget,
        if o.quick { "(quick sizes)" } else { "" }
    );
    let report = if o.trace {
        let mut spans = Spans::default();
        let mut out = w.trace(o.budget, &mut spans);
        out.metrics.push((
            "rss_growth_bytes_per_stmt".into(),
            (peak_rss_mb() - rss_after_setup) * 1048576.0 / out.samples.attempted() as f64,
        ));
        let path = out_dir().join(format!("trace-{}.jsonl", kind.name()));
        spans
            .write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        text.push_str(&format!(
            "  {} spans written to {}\n",
            spans.rows.len(),
            path.display()
        ));
        let mut metrics = Vec::new();
        for decl in metrics::per_layer(kind) {
            // a layer the workload never enters reports 0 there
            let v = out
                .metrics
                .iter()
                .find(|(n, _)| *n == decl.name)
                .map_or(0.0, |(_, v)| *v);
            if v != 0.0 {
                text.push_str(&format!("  {:<44} {:>14.4} {}\n", decl.name, v, decl.unit));
            }
            metrics.push((decl.name, v, decl.unit));
        }
        if let Some((stray, _)) = out
            .metrics
            .iter()
            .find(|(n, _)| metrics.iter().all(|(d, _, _)| d != n))
        {
            return Err(format!("trace produced undeclared metric {stray}"));
        }
        for note in &out.notes {
            text.push_str(&format!("  note: {note}\n"));
        }
        if let Some(why) = &out.samples.first_failure {
            text.push_str(&format!("  FAILED: {why}\n"));
        }
        Report {
            attempted: out.samples.attempted(),
            failed: out.samples.failed,
            metrics,
            text,
        }
    } else {
        let out = w.run(o.budget);
        let s = &out.samples;
        let n = s.attempted();
        // each figure is a decile over the run's rounds or chunks
        let (p50, p95, p99) = out.steady.latencies_us();
        let values = [
            setup_s,
            out.clients as f64 * out.steady.rate(),
            p50,
            p95,
            peak_rss,
        ];
        let metrics: Vec<(String, f64, &'static str)> = metrics::END_TO_END
            .iter()
            .zip(values)
            .map(|(d, v)| (d.name.to_string(), v, d.unit))
            .collect();
        for (name, v, unit) in &metrics {
            text.push_str(&format!("  {name:<44} {v:>14.4} {unit}\n"));
        }
        text.push_str(&format!(
            "  {:<44} {:>14.6} ratio ({} failed of {} attempted)\n",
            "fail_ratio",
            s.failed as f64 / n as f64,
            s.failed,
            n
        ));
        // not gated: too few samples beyond it on the scan workloads and
        // too scheduler-bound on the wire ones to repeat within a tenth
        text.push_str(&format!("  {:<44} {p99:>14.4} us\n", "stmt_p99_us"));
        for (name, v) in &out.extras {
            text.push_str(&format!("  {name:<44} {v:>14.4}\n"));
        }
        let per_chunk = n as usize / out.steady.p50_us.len().max(1);
        text.push_str(&format!(
            "  samples={n} rounds={} chunks={} samples/chunk={per_chunk} beyond chunk p95={} p99={}\n",
            out.steady.round_rates.len(),
            out.steady.p50_us.len(),
            samples_beyond(per_chunk, 0.95),
            samples_beyond(per_chunk, 0.99),
        ));
        text.push_str(&format!(
            "  clients={} timed_wall_s={:.3} whole-run rate={:.4}/s setups={setup_times:.3?}\n",
            out.clients,
            out.wall_s,
            (n - s.failed.min(n)) as f64 / out.wall_s,
        ));
        for note in &out.notes {
            text.push_str(&format!("  note: {note}\n"));
        }
        if let Some(why) = &s.first_failure {
            text.push_str(&format!("  FAILED: {why}\n"));
        }
        Report {
            attempted: n,
            failed: s.failed,
            metrics,
            text,
        }
    };
    w.teardown()?;
    Ok(report)
}

fn measure_kind(kind: Kind, o: &Opts) -> Result<Report, String> {
    use workloads::{ingest::Ingest, scan::Scan, shard::ShardMix, wire::Wire};
    match kind {
        Kind::ScanSerial | Kind::ScanDataflow => measure::<Scan>(kind, o),
        Kind::WireAdhoc | Kind::WirePrepared => measure::<Wire>(kind, o),
        Kind::IngestDurable => measure::<Ingest>(kind, o),
        Kind::ShardMix => measure::<ShardMix>(kind, o),
    }
}

/// The contract's result line. Values print with Rust's shortest
/// round-trip formatting, i.e. every digit that was measured.
fn result_line(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "{}: {{\"value\": {v:?}, \"unit\": {}}}",
                metrics::json_str(name),
                metrics::json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.failed == 0,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

/// Read back a line [`result_line`] wrote: `(correct, metric values)`.
fn parse_result_line(line: &str) -> Option<(bool, Vec<(String, f64)>)> {
    let correct = line.contains("\"correct\": true");
    let body = line.split_once("\"metrics\": {")?.1;
    let mut out = Vec::new();
    for part in body.split("\"unit\"") {
        let Some((head, value)) = part.rsplit_once("\"value\": ") else {
            continue;
        };
        let name = head.rsplit('"').nth(1)?;
        let value: f64 = value.trim_end_matches([',', ' ']).parse().ok()?;
        out.push((name.to_string(), value));
    }
    Some((correct, out))
}

/// One workload, in this process: the driver's form.
fn single(o: &Opts) -> Result<bool, String> {
    let kind = o.workload.ok_or("--workload is required")?;
    println!("{}", host::fingerprint());
    let report = measure_kind(kind, o)?;
    print!("{}", report.text);
    println!("{}", result_line(&report));
    Ok(report.failed == 0)
}

/// Re-run this executable for one workload and return its stdout.
fn child(kind: Kind, o: &Opts, seed: u64, show: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", kind.name(), "--seed", &seed.to_string()]);
    cmd.args(["--trace", if o.trace { "1" } else { "0" }, "--strict"]);
    match o.budget {
        Budget::Seconds(s) => cmd.args(["--seconds", &s.to_string()]),
        Budget::Blocks(n) => cmd.args(["--blocks", &n.to_string()]),
    };
    if o.quick {
        cmd.arg("--quick");
    }
    // a fresh process per workload: its peak RSS is that workload's alone
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the {} child: {e}", kind.name()))?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    if show {
        print!("{stdout}");
    }
    if !out.status.success() {
        return Err(format!("{} failed ({})", kind.name(), out.status));
    }
    Ok(stdout)
}

/// The workloads a subcommand covers when none is named.
fn kinds(o: &Opts, default: &[Kind]) -> Vec<Kind> {
    o.workload.map_or(default.to_vec(), |k| vec![k])
}

/// `run` / `trace`: every selected workload in its own child process.
fn each_workload(o: &Opts) -> Result<bool, String> {
    let mut ok = true;
    for kind in kinds(o, &Kind::ALL) {
        if let Err(e) = child(kind, o, o.seed, true) {
            eprintln!("{e}");
            ok = false;
        }
    }
    Ok(ok)
}

/// `aa`: alternate `sets` sets of `runs` runs of this same binary, a new
/// seed each run, and judge each end-to-end metric the way the driver
/// does: inter-quartile spread within the bound in every set, and no
/// set's median worse than the first's by more than the bound.
fn aa(o: &Opts) -> Result<bool, String> {
    println!("{}", host::fingerprint());
    let mut ok = true;
    // the bounds are the gated workloads'; a demoted one is judged by name
    for kind in kinds(o, &metrics::GATED) {
        // values[set][metric] = one value per run
        let mut values = vec![vec![Vec::new(); metrics::END_TO_END.len()]; o.sets];
        for run in 0..o.runs {
            for (set, per_metric) in values.iter_mut().enumerate() {
                let seed = o.seed + (run * o.sets + set) as u64;
                let stdout = child(kind, o, seed, false)?;
                let (correct, got) = stdout
                    .lines()
                    .last()
                    .and_then(parse_result_line)
                    .ok_or("child printed no result line")?;
                ok &= correct;
                for (m, decl) in metrics::END_TO_END.iter().enumerate() {
                    let v = got
                        .iter()
                        .find(|(n, _)| n == decl.name)
                        .ok_or_else(|| format!("child result lacks {}", decl.name))?;
                    per_metric[m].push(v.1);
                }
            }
        }
        println!("{} ({} sets x {} runs)", kind.name(), o.sets, o.runs);
        for (m, decl) in metrics::END_TO_END.iter().enumerate() {
            let base = median(&values[0][m]);
            let mut verdict = "pass";
            let mut line = format!("  {:<14} bound {:>5.1}%", decl.name, decl.bound * 100.0);
            for set in &values {
                let (q1, q3) = quartiles(&set[m]);
                let (med, spread) = (median(&set[m]), rel_iqr(&set[m]));
                let worse = match decl.better {
                    "lower" => med / base - 1.0,
                    _ => 1.0 - med / base,
                };
                // the driver does not hold setup_s to the spread rule
                if (spread > decl.bound && decl.name != "setup_s") || worse > decl.bound {
                    verdict = "FAIL";
                } else if spread > decl.bound / 3.0 && verdict == "pass" {
                    verdict = "pass (spread above a third of the bound)";
                }
                line.push_str(&format!(
                    " | med {med:.4} q1 {q1:.4} q3 {q3:.4} iqr {:.2}%",
                    spread * 100.0
                ));
            }
            ok &= verdict != "FAIL";
            println!("{line} | {verdict}");
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (sub, rest) = match args.first().map(String::as_str) {
        Some(s @ ("run" | "trace" | "aa" | "manifest")) => (s, &args[1..]),
        _ => ("single", &args[..]),
    };
    let outcome = parse_opts(rest).and_then(|mut o| match sub {
        "manifest" => {
            print!("{}", metrics::benchmark_json());
            Ok(true)
        }
        "run" => each_workload(&o),
        "trace" => {
            o.trace = true;
            each_workload(&o)
        }
        "aa" => aa(&o),
        _ => single(&o).map(|correct| correct || !o.strict),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Call, Expect, Generator, Reply, Stmt};

    #[test]
    fn result_line_round_trips() {
        let r = Report {
            attempted: 10,
            failed: 0,
            metrics: vec![
                ("setup_s".into(), 0.812_734_5, "s"),
                ("stmts_per_s".into(), 12_345.678_9, "1/s"),
            ],
            text: String::new(),
        };
        let line = result_line(&r);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0,"));
        let (correct, got) = parse_result_line(&line).unwrap();
        assert!(correct);
        assert_eq!(
            got,
            vec![
                ("setup_s".to_string(), 0.812_734_5),
                ("stmts_per_s".to_string(), 12_345.678_9)
            ]
        );
    }

    #[test]
    fn options_reject_nonsense() {
        let parse = |s: &str| parse_opts(&s.split(' ').map(String::from).collect::<Vec<_>>());
        let o = parse("--workload wire_adhoc --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (o.workload, o.seed, o.trace),
            (Some(Kind::WireAdhoc), 7, true)
        );
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--frobnicate").is_err());
    }

    /// A wrong answer, an error and a right answer: two failures.
    #[test]
    fn the_driver_counts_mismatches_and_errors_as_failures() {
        struct Three(usize);
        impl Generator for Three {
            fn block_len(&self) -> usize {
                3
            }
            fn next_stmt(&mut self) -> Stmt {
                self.0 += 1;
                Stmt {
                    class: 0,
                    call: Call::Sql(format!("stmt {}", self.0)),
                    expect: Expect::Affected(1),
                }
            }
        }
        let mut n = 0;
        let samples = harness::drive(
            &mut Three(0),
            &mut |_: &Stmt| {
                n += 1;
                match n {
                    1 => Ok(Reply::Affected(2)),
                    2 => Err("refused".to_string()),
                    _ => Ok(Reply::Affected(1)),
                }
            },
            Budget::Blocks(1),
        );
        assert_eq!((samples.attempted(), samples.failed), (3, 2));
        assert!(samples.first_failure.unwrap().contains("oracle mismatch"));
    }

    fn quick(kind: Kind, trace: bool, blocks: usize) -> Report {
        let o = Opts {
            workload: Some(kind),
            seed: 5,
            budget: Budget::Blocks(blocks),
            trace,
            quick: true,
            strict: true,
            sets: 2,
            runs: 2,
        };
        let r = measure_kind(kind, &o).unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        assert_eq!(r.failed, 0, "{}:\n{}", kind.name(), r.text);
        assert!(r.attempted > 0);
        r
    }

    fn value(r: &Report, name: &str) -> f64 {
        let m = r.metrics.iter().find(|(n, _, _)| n == name);
        m.unwrap_or_else(|| panic!("no metric {name}")).1
    }

    /// `--quick` end to end on every workload: correct answers, and every
    /// contract metric present, finite and non-zero.
    #[test]
    fn quick_runs_report_every_end_to_end_metric() {
        for (kind, blocks) in [
            (Kind::ScanSerial, 3),
            (Kind::ScanDataflow, 3),
            (Kind::WireAdhoc, 30),
            (Kind::WirePrepared, 30),
            (Kind::IngestDurable, 20),
            (Kind::ShardMix, 20),
        ] {
            let r = quick(kind, false, blocks);
            assert_eq!(r.metrics.len(), metrics::END_TO_END.len());
            for (decl, (name, v, unit)) in metrics::END_TO_END.iter().zip(&r.metrics) {
                assert_eq!((decl.name, decl.unit), (name.as_str(), *unit));
                assert!(v.is_finite() && *v > 0.0, "{} {name} = {v}", kind.name());
            }
            let (correct, parsed) = parse_result_line(&result_line(&r)).unwrap();
            assert!(correct && parsed.len() == r.metrics.len());
        }
    }

    /// The traced pass on the scan, wire and shard workloads: every
    /// declared per-layer metric is printed, the workloads demonstrably
    /// stress different layers, and the span file is written.
    #[test]
    fn quick_traces_attribute_time_to_different_layers() {
        let declared = |kind| metrics::per_layer(kind).len();
        let scan = quick(Kind::ScanSerial, true, 3);
        let flow = quick(Kind::ScanDataflow, true, 3);
        let adhoc = quick(Kind::WireAdhoc, true, 30);
        let prepared = quick(Kind::WirePrepared, true, 30);
        let shard = quick(Kind::ShardMix, true, 20);
        let kinds = [
            Kind::ScanSerial,
            Kind::ScanDataflow,
            Kind::WireAdhoc,
            Kind::WirePrepared,
            Kind::ShardMix,
        ];
        for (r, kind) in [&scan, &flow, &adhoc, &prepared, &shard]
            .into_iter()
            .zip(kinds)
        {
            assert_eq!(r.metrics.len(), declared(kind));
            assert!(r.metrics.iter().all(|(_, v, _)| v.is_finite()));
            assert!(value(r, "trace_overhead_ratio") > 0.0);
        }
        // execution is most of a scan statement and a minority on the wire
        // (the full-size, optimized figures are in README.md; quick sizes
        // in a debug build only keep the order)
        let (scan_share, wire_share) = (
            value(&scan, "mal.execute_share"),
            value(&adhoc, "mal.execute_share"),
        );
        assert!(
            scan_share > 0.5 && wire_share < 0.5,
            "{scan_share} {wire_share}"
        );
        // a layer a workload never enters reads 0 there
        assert_eq!(value(&scan, "server.wire_us"), 0.0);
        assert_eq!(value(&flow, "server.wire_us"), 0.0);
        assert!(value(&flow, "parallel.run_us") > 0.0 && value(&flow, "mal.mitosis_us") > 0.0);
        assert_eq!(value(&shard, "sql.parse_us"), 0.0);
        assert!(
            value(&shard, "shard.leg_us") > 0.0
                && value(&shard, "shard.gather_bytes_per_stmt") > 0.0
        );
        // the plan cache is bypassed by ad-hoc text and always hit by EXECUTE
        assert_eq!(value(&adhoc, "planner.cache_hit_ratio"), 0.0);
        assert_eq!(value(&prepared, "planner.cache_hit_ratio"), 1.0);
        assert_eq!(value(&prepared, "planner.recompiles"), 0.0);
        assert!(value(&adhoc, "sql.parse_us") > 0.0 && value(&prepared, "sql.parse_us") == 0.0);
        for kind in [Kind::ScanSerial, Kind::WireAdhoc, Kind::ShardMix] {
            let path = out_dir().join(format!("trace-{}.jsonl", kind.name()));
            let first = std::fs::read_to_string(&path).unwrap();
            let first = first.lines().next().unwrap();
            assert!(first.starts_with("{\"id\":0,\"name\":\"") && first.contains("\"parent\":"));
        }
    }

    /// Two same-seed runs over the same blocks do identical I/O: the
    /// storage counts repeat exactly, so a later change to them is a
    /// change in the program, not noise. DML also keeps the plan cache
    /// from always hitting, by design.
    #[test]
    fn ingest_counts_repeat_exactly_for_one_seed() {
        let (a, b) = (
            quick(Kind::IngestDurable, true, 20),
            quick(Kind::IngestDurable, true, 20),
        );
        for name in [
            "storage.write_amp",
            "storage.fsyncs_per_stmt",
            "storage.writes_per_stmt",
            "storage.wal_bytes_per_stmt",
            "storage.checkpoint_bytes",
            "planner.recompiles",
        ] {
            assert!(value(&a, name) > 0.0, "{name}");
            assert_eq!(value(&a, name), value(&b, name), "{name}");
        }
        assert!(value(&a, "planner.cache_hit_ratio") < 1.0);
        assert!(value(&a, "storage.fsync_us") > 0.0 && value(&a, "storage.recovery_s") > 0.0);
    }
}
