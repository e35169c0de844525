//! The benchmark's contract, in one place: workload names, metric names,
//! units, directions and bounds. `BENCHMARK.json` at the repository root is
//! this module rendered (`-- manifest`); a test keeps the two identical.

use crate::workloads::Kind;

/// Seconds one run measures (the driver passes it back as `--seconds`).
/// As long as the driver's budget for 4 + 22 x 4 runs allows with a margin:
/// on this shared host everything slows by 10-25 % for about 30 s at a
/// time, at times every 100 s, and a run has to outlast such a stretch for
/// its deciles to find the undisturbed part.
pub const RUN_SECONDS: u32 = 30;

/// The workloads the driver gates. Long runs leave room for four; the other
/// two stay runnable by name (`--workload`, `run`, `trace`) but are demoted:
/// `scan_dataflow` keeps every core busy, so any neighbour moves it, and
/// `shard_mix` is the wire path again plus the coordinator.
pub const GATED: [Kind; 4] = [
    Kind::ScanSerial,
    Kind::WireAdhoc,
    Kind::WirePrepared,
    Kind::IngestDurable,
];

pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

pub fn why(kind: Kind) -> &'static str {
    match kind {
        Kind::ScanSerial => "in-memory session, serial interpreter, 2^18-row table (3x a core's L2): execution is >90% of the work, so kernel and materialization changes show here and parser or framing ones must not",
        Kind::ScanDataflow => "same data and statements via mitosis and the dataflow scheduler on min(nproc,4) workers: shows scheduler and fragment-sizing changes and kernels that help whole columns but hurt slices",
        Kind::WireAdhoc => "loopback server, min(nproc,4) connections, distinct ad-hoc point and <=16-row range SELECTs on a cache-resident table: parse, compile, optimize, render, frame, socket dominate; no plan cache",
        Kind::WirePrepared => "same server, table and keys as wire_adhoc via protocol-v4 ExecutePrepared: plan-cache hit and bind path; a compile gain moves only wire_adhoc, a cache gain only this, a render or frame gain both",
        Kind::IngestDurable => "durable session on a counting Vfs, fsync per statement: INSERT, range DELETE and prepared reads on one sliding-window table, periodic CHECKPOINT, then crash and recover: the storage-bound workload",
        Kind::ShardMix => "two in-memory shard servers behind Coordinator::execute: routed INSERTs, packsum-pushdown aggregates, gather GROUP BYs: the only workload where routing, fragment shipping and merging do work",
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The end-to-end metrics the driver gates, reported by every workload
/// with tracing off. One bound per metric has to hold on every gated
/// workload and across the host's changes of pace: its clock steps by
/// 10-18 % for ten minutes and more at a time, which no length of run
/// averages out, so each bound is the contract's cap (README.md has the
/// per-workload spreads).
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "stmts_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "stmt_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "stmt_p95_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.25,
    },
];

pub struct Layer {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
}

const LAYERS: &[(&str, &str, &str)] = &[
    ("sql.parse_us", "us", "lower"),
    ("sql.compile_us", "us", "lower"),
    ("sql.render_us", "us", "lower"),
    ("sql.session_other_us", "us", "lower"),
    ("sql.dml_apply_us", "us", "lower"),
    ("planner.cache_hit_ratio", "ratio", "higher"),
    ("planner.lookup_bind_us", "us", "lower"),
    ("planner.recompiles", "count", "lower"),
    ("mal.optimize_us", "us", "lower"),
    ("mal.verify_us", "us", "lower"),
    ("mal.execute_us", "us", "lower"),
    ("mal.execute_share", "ratio", "higher"),
    ("mal.op.select_ns_per_row", "ns/row", "lower"),
    ("mal.op.projection_ns_per_row", "ns/row", "lower"),
    ("mal.op.aggr_ns_per_row", "ns/row", "lower"),
    ("mal.op.group_ns_per_row", "ns/row", "lower"),
    ("mal.op.join_ns_per_row", "ns/row", "lower"),
    ("mal.op.sort_ns_per_row", "ns/row", "lower"),
    ("algebra.select_ns_per_row", "ns/row", "lower"),
    ("algebra.project_ns_per_row", "ns/row", "lower"),
    ("algebra.sum_ns_per_row", "ns/row", "lower"),
    ("algebra.group_ns_per_row", "ns/row", "lower"),
    ("algebra.hashjoin_ns_per_row", "ns/row", "lower"),
    ("storage.append_us", "us", "lower"),
    ("storage.fsync_us", "us", "lower"),
    ("storage.fsyncs_per_stmt", "1/stmt", "lower"),
    ("storage.writes_per_stmt", "1/stmt", "lower"),
    ("storage.wal_bytes_per_stmt", "B/stmt", "lower"),
    ("storage.checkpoint_ms", "ms", "lower"),
    ("storage.checkpoint_bytes", "B", "lower"),
    ("storage.wal_encode_us", "us", "lower"),
    ("storage.replay_rows_per_s", "1/s", "higher"),
    ("storage.write_amp", "ratio", "lower"),
    ("storage.recovery_s", "s", "lower"),
    ("server.admit_us", "us", "lower"),
    ("server.encode_us", "us", "lower"),
    ("server.decode_us", "us", "lower"),
    ("server.wire_us", "us", "lower"),
    ("server.req_bytes_per_stmt", "B/stmt", "lower"),
    ("server.resp_bytes_per_stmt", "B/stmt", "lower"),
    ("server.shed", "count", "lower"),
    ("stmt_p99_us", "us", "lower"),
    ("trace_overhead_ratio", "ratio", "lower"),
    ("rss_growth_bytes_per_stmt", "B/stmt", "lower"),
];

/// Layers only the demoted workloads enter. Their traces still report
/// these; the contract does not list them, because no gated run could ever
/// give them a value other than 0.
const DEMOTED_LAYERS: &[(&str, &str, &str)] = &[
    ("mal.mitosis_us", "us", "lower"),
    ("parallel.run_us", "us", "lower"),
    ("parallel.busy_share", "ratio", "higher"),
    ("parallel.max_inflight", "count", "higher"),
    ("parallel.pieces", "count", "higher"),
    ("shard.insert_us", "us", "lower"),
    ("shard.packsum_us", "us", "lower"),
    ("shard.gather_us", "us", "lower"),
    ("shard.leg_us", "us", "lower"),
    ("shard.coord_overhead_us", "us", "lower"),
    ("shard.gather_bytes_per_stmt", "B/stmt", "lower"),
];

/// The per-layer metrics a trace of `kind` reports: the layer table plus
/// one median per statement class of each gated workload — the contract's
/// list — and, for a demoted workload, its own layers and classes on top.
pub fn per_layer(kind: Kind) -> Vec<Layer> {
    let demoted = !GATED.contains(&kind);
    let rows = LAYERS
        .iter()
        .chain(DEMOTED_LAYERS.iter().filter(|_| demoted));
    let mut out: Vec<Layer> = rows
        .map(|&(name, unit, better)| Layer {
            name: name.to_string(),
            unit,
            better,
        })
        .collect();
    for k in GATED.into_iter().chain(demoted.then_some(kind)) {
        for class in k.class_names() {
            out.push(Layer {
                name: format!("class.{}.{class}_p50_us", k.name()),
                unit: "us",
                better: "lower",
            });
        }
    }
    out
}

/// Minimal JSON string escaping (the contract's strings are ASCII).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let command: Vec<String> = COMMAND.iter().map(|c| json_str(c)).collect();
    let workloads: Vec<String> = GATED
        .iter()
        .map(|&k| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(k.name()),
                json_str(why(k))
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better),
                m.bound
            )
        })
        .collect();
    let layers: Vec<String> = per_layer(GATED[0])
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(&m.name),
                json_str(m.unit),
                json_str(m.better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        command.join(", "),
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        layers.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(n: &str) -> bool {
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn declarations_fit_the_contract_limits() {
        // a demoted workload's list is the contract's and its own on top
        let layers = per_layer(Kind::ShardMix);
        assert!(layers.len() > per_layer(GATED[0]).len());
        assert!((2..=8).contains(&GATED.len()));
        assert!((1..=128).contains(&layers.len()), "{}", layers.len());
        let mut names: Vec<String> = layers.iter().map(|l| l.name.clone()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name.to_string()));
        names.extend(Kind::ALL.iter().map(|k| k.name().to_string()));
        assert!(names.iter().all(|n| name_ok(n)), "{names:?}");
        let unique: std::collections::HashSet<&String> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        let unit_ok = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!(layers.iter().all(|l| unit_ok(l.unit)));
        assert!(END_TO_END
            .iter()
            .all(|m| unit_ok(m.unit) && m.bound <= 0.25));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"
            && m.unit == "s"
            && m.better == "lower"
            && END_TO_END.iter().all(|o| o.bound <= m.bound)));
        assert!(Kind::ALL
            .iter()
            .all(|&k| why(k).len() <= 200 && !why(k).contains('\n')));
        assert!(COMMAND.len() <= 32 && benchmark_json().len() <= 64 * 1024);
    }

    #[test]
    fn benchmark_json_at_the_root_is_this_module_rendered() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(&root).expect("BENCHMARK.json at the repo root");
        assert!(
            on_disk == benchmark_json(),
            "BENCHMARK.json is stale: regenerate it with \
             `cargo run --manifest-path benchmark/Cargo.toml -- manifest > BENCHMARK.json`"
        );
    }
}
