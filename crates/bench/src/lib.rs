//! The experiment harness.
//!
//! One module per experiment of DESIGN.md §4 (E01–E26). Each module exposes
//! `run(scale) -> String`: it executes the experiment and renders the table
//! EXPERIMENTS.md records. The `exp` binary dispatches on experiment ids;
//! the criterion benches under `benches/` wrap the same code paths with
//! small sizes for `cargo bench`.

#![deny(unsafe_code)]

pub mod table;

pub mod experiments {
    pub mod e01_figure2;
    pub mod e02_radix_cluster;
    pub mod e03_partitioned_join;
    pub mod e04_cpu_memory_ablation;
    pub mod e05_decluster;
    pub mod e06_cost_model;
    pub mod e07_vector_size;
    pub mod e08_paradigms;
    pub mod e09_lookup;
    pub mod e10_compression;
    pub mod e11_coop_scans;
    pub mod e12_cracking;
    pub mod e13_recycler;
    pub mod e14_dsm_nsm;
    pub mod e15_staircase;
    pub mod e16_deltas;
    pub mod e17_datacell;
    pub mod e18_sideways;
    pub mod e19_parallel;
    pub mod e20_wal;
    pub mod e21_server;
    pub mod e22_props;
    pub mod e23_replication;
    pub mod e24_sharding;
    pub mod e25_failover;
    pub mod e26_prepared;
}

/// Workload scale for the harness: `Quick` for smoke runs and CI,
/// `Full` for the numbers recorded in EXPERIMENTS.md.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Quick,
    Full,
}

impl Scale {
    /// Pick a size by scale.
    pub fn pick(&self, quick: usize, full: usize) -> usize {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// An experiment: `(id, description, run)`.
pub type Experiment = (&'static str, &'static str, fn(Scale) -> String);

/// All experiment ids with their run functions and one-line descriptions.
pub fn all_experiments() -> Vec<Experiment> {
    use experiments::*;
    vec![
        (
            "e01",
            "Figure 2: 2-pass radix-cluster + partitioned hash-join on the paper's values",
            e01_figure2::run,
        ),
        (
            "e02",
            "Radix-cluster: pass count vs bits (TLB/cache thrashing cliff)",
            e02_radix_cluster::run,
        ),
        (
            "e03",
            "Partitioned hash-join vs simple hash-join (order-of-magnitude claim)",
            e03_partitioned_join::run,
        ),
        (
            "e04",
            "CPU x memory optimization ablation (effects compound)",
            e04_cpu_memory_ablation::run,
        ),
        (
            "e05",
            "Projection strategies: naive post-fetch vs radix-decluster vs NSM pre-projection",
            e05_decluster::run,
        ),
        (
            "e06",
            "Cost model: predicted vs simulated misses; model-tuned radix bits",
            e06_cost_model::run,
        ),
        (
            "e07",
            "Vectorized execution: vector-size sweep (1 .. full column)",
            e07_vector_size::run,
        ),
        (
            "e08",
            "Execution paradigms: tuple-at-a-time vs column-at-a-time vs vectorized",
            e08_paradigms::run,
        ),
        (
            "e09",
            "Positional O(1) lookup vs B+-tree vs CSS-tree vs binary search",
            e09_lookup::run,
        ),
        (
            "e10",
            "Light-weight compression: ratio and decode speed per scheme",
            e10_compression::run,
        ),
        (
            "e11",
            "Cooperative scans vs LRU under concurrent queries",
            e11_coop_scans::run,
        ),
        (
            "e12",
            "Database cracking vs full sort vs scan (and under updates)",
            e12_cracking::run,
        ),
        (
            "e13",
            "Recycler on a Skyserver-like query log",
            e13_recycler::run,
        ),
        (
            "e14",
            "DSM vs NSM: sequential vs random-access operators",
            e14_dsm_nsm::run,
        ),
        (
            "e15",
            "Staircase join vs naive region join (XPath descendant axis)",
            e15_staircase::run,
        ),
        (
            "e16",
            "Delta BATs: update throughput and reader overhead",
            e16_deltas::run,
        ),
        (
            "e17",
            "extension - DataCell: bulk-event stream processing (§6.2)",
            e17_datacell::run,
        ),
        (
            "e18",
            "extension - sideways cracking: self-organizing tuple reconstruction",
            e18_sideways::run,
        ),
        (
            "e19",
            "Multi-core MAL execution: mitosis + dataflow thread-count scaling sweep",
            e19_parallel::run,
        ),
        (
            "e20",
            "extension - WAL overhead: group-commit batch sweep + checkpoint cost",
            e20_wal::run,
        ),
        (
            "e21",
            "extension - mammoth-server: closed-loop client scaling, overload shedding, drain",
            e21_server::run,
        ),
        (
            "e22",
            "extension - property-driven rewrites: sorted binary-search select + select elimination",
            e22_props::run,
        ),
        (
            "e23",
            "extension - WAL-shipping replication: read scale-out, steady lag, failover",
            e23_replication::run,
        ),
        (
            "e24",
            "extension - sharded scale-out: routed write throughput, cross-shard aggregates, shard kill",
            e24_sharding::run,
        ),
        (
            "e25",
            "extension - shard-replica failover: time to detect/degrade/promote, zero acked loss",
            e25_failover::run,
        ),
        (
            "e26",
            "extension - prepared statements: warm plan-cache EXECUTE vs ad-hoc recompile",
            e26_prepared::run,
        ),
    ]
}

/// One measured data point, recorded by an experiment for `exp --json`.
#[derive(Debug, Clone)]
pub struct Metric {
    /// The experiment id, e.g. `"e19"`.
    pub experiment: &'static str,
    /// The measured thing, e.g. `"scan_select_aggregate"`.
    pub name: String,
    /// Free-form parameters: `("threads", "4")`, `("rows", "4194304")`, …
    pub params: Vec<(String, String)>,
    /// Wall-clock seconds of the measured region.
    pub wall_secs: f64,
    /// Cache-simulator miss count, for model/simulation experiments.
    pub simulated_misses: Option<u64>,
}

static METRICS: std::sync::Mutex<Vec<Metric>> = std::sync::Mutex::new(Vec::new());

/// Record a data point; `exp --json` drains these after each experiment.
pub fn record_metric(m: Metric) {
    METRICS.lock().unwrap().push(m);
}

/// Drain every metric recorded since the last call.
pub fn take_metrics() -> Vec<Metric> {
    std::mem::take(&mut *METRICS.lock().unwrap())
}

/// Escape a string for embedding in a JSON document (the harness carries
/// no serde; the subset below covers everything experiments emit).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl Metric {
    /// Render as one JSON object.
    pub fn to_json(&self) -> String {
        let params: Vec<String> = self
            .params
            .iter()
            .map(|(k, v)| format!("\"{}\": \"{}\"", json_escape(k), json_escape(v)))
            .collect();
        let misses = match self.simulated_misses {
            Some(m) => m.to_string(),
            None => "null".to_string(),
        };
        format!(
            "{{\"experiment\": \"{}\", \"name\": \"{}\", \"params\": {{{}}}, \
             \"wall_clock_s\": {:.6}, \"simulated_misses\": {}}}",
            json_escape(self.experiment),
            json_escape(&self.name),
            params.join(", "),
            self.wall_secs,
            misses
        )
    }
}

/// A per-operator attribution of one measured run, distilled from a
/// profiler trace. Emitted by `exp --json` as `phase_breakdowns`, so BENCH
/// files can attribute wall time to operators, not just whole queries.
#[derive(Debug, Clone)]
pub struct PhaseBreakdown {
    /// The experiment id, e.g. `"e19"`.
    pub experiment: &'static str,
    /// The run this breakdown describes, e.g. `"scan_select_aggregate/serial"`.
    pub name: String,
    /// `(opcode, total_ns, instruction count)`, descending by time.
    pub phases: Vec<(String, u64, u64)>,
}

impl PhaseBreakdown {
    /// Distill a [`ProfiledRun`](mammoth_types::ProfiledRun)'s event
    /// timeline into a per-opcode breakdown.
    pub fn from_profile(
        experiment: &'static str,
        name: impl Into<String>,
        run: &mammoth_types::ProfiledRun,
    ) -> PhaseBreakdown {
        PhaseBreakdown {
            experiment,
            name: name.into(),
            phases: run.per_op_breakdown(),
        }
    }

    /// Render as one JSON object.
    pub fn to_json(&self) -> String {
        let phases: Vec<String> = self
            .phases
            .iter()
            .map(|(op, ns, n)| {
                format!(
                    "{{\"op\": \"{}\", \"total_ns\": {}, \"count\": {}}}",
                    json_escape(op),
                    ns,
                    n
                )
            })
            .collect();
        format!(
            "{{\"experiment\": \"{}\", \"name\": \"{}\", \"phases\": [{}]}}",
            json_escape(self.experiment),
            json_escape(&self.name),
            phases.join(", ")
        )
    }
}

static PHASES: std::sync::Mutex<Vec<PhaseBreakdown>> = std::sync::Mutex::new(Vec::new());

/// Record a phase breakdown; `exp --json` drains these after each
/// experiment.
pub fn record_phases(p: PhaseBreakdown) {
    PHASES.lock().unwrap().push(p);
}

/// Drain every phase breakdown recorded since the last call.
pub fn take_phases() -> Vec<PhaseBreakdown> {
    std::mem::take(&mut *PHASES.lock().unwrap())
}

/// Convenience used by experiments: time a closure, return (result, secs).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = std::time::Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Format seconds compactly.
pub fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.2}us", s * 1e6)
    } else {
        format!("{:.0}ns", s * 1e9)
    }
}

/// Nanoseconds per item.
pub fn ns_per(s: f64, n: usize) -> f64 {
    s * 1e9 / n.max(1) as f64
}
