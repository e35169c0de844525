//! The six workloads (four gated by the driver, two demoted: see
//! `metrics::GATED`). Each is set up from a seed, then either run end to
//! end with tracing off or replayed by the separate traced pass.

pub mod ingest;
pub mod scan;
pub mod shard;
pub mod staged;
pub mod wire;

use crate::gen::Scale;
use crate::harness::{Budget, Samples, Spans, Steady};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ScanSerial,
    ScanDataflow,
    WireAdhoc,
    WirePrepared,
    IngestDurable,
    ShardMix,
}

impl Kind {
    pub const ALL: [Kind; 6] = [
        Kind::ScanSerial,
        Kind::ScanDataflow,
        Kind::WireAdhoc,
        Kind::WirePrepared,
        Kind::IngestDurable,
        Kind::ShardMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ScanSerial => "scan_serial",
            Kind::ScanDataflow => "scan_dataflow",
            Kind::WireAdhoc => "wire_adhoc",
            Kind::WirePrepared => "wire_prepared",
            Kind::IngestDurable => "ingest_durable",
            Kind::ShardMix => "shard_mix",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    pub fn class_names(self) -> &'static [&'static str] {
        match self {
            Kind::ScanSerial | Kind::ScanDataflow => crate::gen::SCAN_CLASSES,
            Kind::WireAdhoc | Kind::WirePrepared => crate::gen::WIRE_CLASSES,
            Kind::IngestDurable => crate::gen::INGEST_CLASSES,
            Kind::ShardMix => crate::gen::SHARD_CLASSES,
        }
    }
}

/// Client threads / connections / dataflow workers: `min(nproc, 4)`. Load
/// comes from this one process and never from more threads than cores.
pub fn parallelism() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

/// What an end-to-end run hands back besides its latency samples.
pub struct RunOutput {
    /// Every client's samples, merged.
    pub samples: Samples,
    /// Every client's per-round and per-chunk figures.
    pub steady: Steady,
    pub clients: usize,
    /// Wall time of the timed phase, all clients included.
    pub wall_s: f64,
    /// Workload-specific results by metric name (`write_amp`, …).
    pub extras: Vec<(&'static str, f64)>,
    /// Facts a reader of the numbers needs (flush policy, thread counts).
    pub notes: Vec<String>,
}

/// What the traced pass hands back: per-layer values by metric name (the
/// caller reports every declared name it does not find here as 0 — "this
/// workload does not touch that layer") and the statements it replayed.
pub struct TraceOutput {
    pub samples: Samples,
    pub metrics: Vec<(String, f64)>,
    pub notes: Vec<String>,
}

pub trait Workload: Sized {
    /// Generate the inputs, load them, start whatever serves them and run
    /// the untimed warm-up. All of it is `setup_s`.
    fn setup(kind: Kind, seed: u64, scale: Scale) -> Result<Self, String>;
    /// The end-to-end measurement, tracing off.
    fn run(&mut self, budget: Budget) -> RunOutput;
    /// The traced pass: replay the statement stream level by level with
    /// spans around the calls into each layer's public functions.
    fn trace(&mut self, budget: Budget, spans: &mut Spans) -> TraceOutput;
    /// Stop every thread and remove every file `setup` created.
    fn teardown(self) -> Result<(), String>;
}

/// What the trace reads off its untraced pass (one client's samples):
/// `class.<workload>.<class>_p50_us` and the demoted `stmt_p99_us`.
pub fn untraced_metrics(kind: Kind, samples: &Samples) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = kind
        .class_names()
        .iter()
        .enumerate()
        .map(|(i, c)| {
            (
                format!("class.{}.{c}_p50_us", kind.name()),
                samples.class_p50_us(i),
            )
        })
        .collect();
    out.push(("stmt_p99_us".into(), samples.steady().latencies_us().2));
    out
}

/// `planner.cache_hit_ratio` and `planner.recompiles` over a pass, from
/// two readings of `Session::plan_cache_stats` (`(hits, compiles)`). With
/// no lookups at all the ratio is left at 0.
pub fn plan_cache_metrics(before: (u64, u64), after: (u64, u64)) -> Vec<(String, f64)> {
    let (hits, compiles) = (after.0 - before.0, after.1 - before.1);
    let mut out = vec![("planner.recompiles".to_string(), compiles as f64)];
    if hits + compiles > 0 {
        out.push((
            "planner.cache_hit_ratio".into(),
            hits as f64 / (hits + compiles) as f64,
        ));
    }
    out
}

/// Ratio of two passes' statement rates (the same steady figure the
/// end-to-end `stmts_per_s` uses), untraced over traced: what recording
/// spans costs.
pub fn overhead_ratio(untraced: &Samples, traced: &Samples) -> f64 {
    untraced.steady().rate() / traced.steady().rate()
}
