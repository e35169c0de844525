//! The experiment harness.
//!
//! One module per experiment of DESIGN.md §4: the paper evidence E01–E18,
//! and the extensions E20 and E22 that no `benchmark/` workload measures.
//! The harness links no daemon: the serving layers' numbers live in
//! `benchmark/`, their contracts in the tier tests. Each module exposes
//! `run(scale) -> Report`: it executes the experiment and returns the
//! tables EXPERIMENTS.md records, the data points `exp --json` emits, and
//! the claims it checks — each a predicate evaluated over the numbers the
//! run computed, or a wall-clock comparison this host can only illustrate.
//! The `exp` binary dispatches on experiment ids and prints every claim's
//! verdict; `tests/claims.rs` pins every decided one. The criterion benches
//! under `benches/` wrap the same code paths with small sizes for
//! `cargo bench`.

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
    pub mod e20_wal;
    pub mod e22_props;
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
pub(crate) type Experiment = (&'static str, &'static str, fn(Scale) -> Report);

/// All experiment ids with their run functions and one-line descriptions.
#[rustfmt::skip]
pub fn all_experiments() -> Vec<Experiment> {
    use experiments::*;
    vec![
        ("e01", "Figure 2: 2-pass radix-cluster + partitioned hash-join on the paper's values", e01_figure2::run),
        ("e02", "Radix-cluster: pass count vs bits (TLB/cache thrashing cliff)", e02_radix_cluster::run),
        ("e03", "Partitioned hash-join vs simple hash-join (order-of-magnitude claim)", e03_partitioned_join::run),
        ("e04", "CPU x memory optimization ablation (effects compound)", e04_cpu_memory_ablation::run),
        ("e05", "Projection strategies: naive post-fetch vs radix-decluster vs NSM pre-projection", e05_decluster::run),
        ("e06", "Cost model: predicted vs simulated misses; model-tuned radix bits", e06_cost_model::run),
        ("e07", "Vectorized execution: vector-size sweep (1 .. full column)", e07_vector_size::run),
        ("e08", "Execution paradigms: tuple-at-a-time vs column-at-a-time vs vectorized", e08_paradigms::run),
        ("e09", "Positional O(1) lookup vs B+-tree vs CSS-tree vs binary search", e09_lookup::run),
        ("e10", "Light-weight compression: ratio and decode speed per scheme", e10_compression::run),
        ("e11", "Cooperative scans vs LRU under concurrent queries", e11_coop_scans::run),
        ("e12", "Database cracking vs full sort vs scan (and under updates)", e12_cracking::run),
        ("e13", "Recycler on a Skyserver-like query log", e13_recycler::run),
        ("e14", "DSM vs NSM: sequential vs random-access operators", e14_dsm_nsm::run),
        ("e15", "Staircase join vs naive region join (XPath descendant axis)", e15_staircase::run),
        ("e16", "Delta BATs: update throughput and reader overhead", e16_deltas::run),
        ("e17", "extension - DataCell: bulk-event stream processing (§6.2)", e17_datacell::run),
        ("e18", "extension - sideways cracking: self-organizing tuple reconstruction", e18_sideways::run),
        ("e20", "extension - WAL overhead: group-commit batch sweep + checkpoint cost", e20_wal::run),
        ("e22", "extension - property-driven rewrites: sorted binary-search select + select elimination", e22_props::run),
    ]
}

/// How a claim is decided, with the outcome where there is one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Basis {
    /// A predicate over exact results: answers, counts, sizes.
    Exact(bool),
    /// A predicate over a simulator's counts: the cache and TLB simulator,
    /// the stand-in for the hardware counters of the original work
    /// (DESIGN.md §3), or the simulated disk under the buffer pool.
    Simulated(bool),
    /// A wall-clock comparison: shown by the tables, decided by no
    /// predicate, since a single run on a shared host proves no ordering.
    WallClock,
}

/// One claim an experiment checks: where it is made, what it says, and how
/// it is decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Claim {
    /// The paper section (and reference) making the claim, or `extension`.
    pub section: &'static str,
    pub sentence: &'static str,
    pub basis: Basis,
}

impl Claim {
    /// The verdict `exp` prints for this claim.
    pub fn verdict(&self) -> &'static str {
        match self.basis {
            Basis::Exact(true) => "held",
            Basis::Simulated(true) => "held in simulation",
            Basis::WallClock => "mechanism only on this host",
            Basis::Exact(false) | Basis::Simulated(false) => "FAILED",
        }
    }
}

/// What one experiment run returns: its rendered tables, its data points
/// for `exp --json`, and its claims — one builder call per claim, named
/// after its basis.
#[derive(Debug, Default)]
pub struct Report {
    pub text: String,
    pub metrics: Vec<Metric>,
    pub claims: Vec<Claim>,
}

impl Report {
    pub fn new(text: String) -> Report {
        Report {
            text,
            ..Report::default()
        }
    }

    pub fn exact(self, section: &'static str, sentence: &'static str, holds: bool) -> Report {
        self.claim(section, sentence, Basis::Exact(holds))
    }

    pub fn simulated(self, section: &'static str, sentence: &'static str, holds: bool) -> Report {
        self.claim(section, sentence, Basis::Simulated(holds))
    }

    pub(crate) fn wall_clock(self, section: &'static str, sentence: &'static str) -> Report {
        self.claim(section, sentence, Basis::WallClock)
    }

    fn claim(mut self, section: &'static str, sentence: &'static str, basis: Basis) -> Report {
        self.claims.push(Claim {
            section,
            sentence,
            basis,
        });
        self
    }

    /// Record a data point; the caller may fill in the simulated misses.
    pub fn metric(
        &mut self,
        name: impl Into<String>,
        params: &[(&str, &dyn std::fmt::Display)],
        wall_secs: f64,
    ) -> &mut Metric {
        self.metrics.push(Metric {
            name: name.into(),
            params: params
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            wall_secs,
            simulated_misses: None,
        });
        self.metrics.last_mut().expect("just pushed")
    }
}

/// The tables, then one verdict line under each claim.
impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.text.trim_end())?;
        for c in &self.claims {
            let (section, sentence, verdict) = (c.section, c.sentence, c.verdict());
            write!(f, "\n\nclaim ({section}): {sentence}\n  verdict: {verdict}")?;
        }
        Ok(())
    }
}

/// One measured data point of an experiment, for `exp --json`.
#[derive(Debug, Clone)]
pub struct Metric {
    /// The measured thing, e.g. `"sorted_select"`.
    pub name: String,
    /// Free-form parameters: `("probes", "8")`, `("rows", "4194304")`, …
    pub params: Vec<(String, String)>,
    /// Wall-clock seconds of the measured region.
    pub(crate) wall_secs: f64,
    /// Cache-simulator miss count, for model/simulation experiments.
    pub(crate) simulated_misses: Option<u64>,
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
    /// Render as one JSON object of experiment `experiment`.
    pub fn to_json(&self, experiment: &str) -> String {
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
            json_escape(experiment),
            json_escape(&self.name),
            params.join(", "),
            self.wall_secs,
            misses
        )
    }
}

/// Convenience used by experiments: time a closure, return (result, secs).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = std::time::Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Format seconds compactly.
pub(crate) fn fmt_secs(s: f64) -> String {
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
pub(crate) fn ns_per(s: f64, n: usize) -> f64 {
    s * 1e9 / n.max(1) as f64
}

/// A fresh scratch directory for `experiment`, unique to `tag` and this
/// process; whatever an earlier run left there is removed.
pub(crate) fn tmpdir(experiment: &str, tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("mammoth-{experiment}-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}
