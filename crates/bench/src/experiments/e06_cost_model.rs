//! E06 — The unified hierarchical-memory cost model (§4.4).
//!
//! `TMem = Σ (Ms·ls + Mr·lr)`. The model's analytic miss predictions are
//! compared against the cache simulator for the basic access patterns and
//! for whole algorithms (hash-join with varying radix bits); finally the
//! model *chooses* the number of radix bits and its choice is compared to
//! the simulated optimum — the "automate this tuning task" pay-off.

use crate::experiments::e03_partitioned_join::simulated_join_cycles;
use crate::table::TextTable;
use crate::{timed, Report, Scale};
use mammoth_cache::cost::predict_cost;
use mammoth_cache::pattern::{Pattern, Region};
use mammoth_cache::trace::{pick_radix_bits, predicted_partitioned_join_cycles};
use mammoth_cache::{HierarchySim, MemoryHierarchy};

const BASIC_PATTERNS: &str =
    "the cost model predicts each basic access pattern's simulated cost within 20 %";
const PICKS_BITS: &str = "the cost model picks the radix bits the simulator finds cheapest for the partitioned hash-join";

pub fn run(scale: Scale) -> Report {
    let h = MemoryHierarchy::generic_modern();
    let mut r = Report::default();
    let mut out = String::new();
    out.push_str("E06  Cost model validation: predicted vs simulated memory cost (cycles)\n");
    out.push_str("hierarchy: L1 32K / L2 1M / LLC 8M, TLB 64x4K (generic_modern)\n\n");

    // basic patterns across sizes around the cache boundaries
    let items = scale.pick(1 << 14, 1 << 17);
    let mut t = TextTable::new(vec!["pattern", "bytes", "predicted", "simulated", "error"]);
    let mut worst_error = 0f64;
    for (name, pat) in [
        (
            "s_trav 128K",
            Pattern::STrav {
                region: Region::new(0, items, 8),
            },
        ),
        (
            "r_trav 128K",
            Pattern::RTrav {
                region: Region::new(0, items, 8),
                seed: 1,
            },
        ),
        (
            "r_trav 4M",
            Pattern::RTrav {
                region: Region::new(0, items * 4, 8),
                seed: 2,
            },
        ),
        (
            "rr_acc 64K x2n",
            Pattern::RRAcc {
                region: Region::new(0, items / 2, 8),
                accesses: items * 2,
                seed: 3,
            },
        ),
        (
            "rr_acc 16M x2n",
            Pattern::RRAcc {
                region: Region::new(0, items * 16, 8),
                accesses: items * 2,
                seed: 4,
            },
        ),
    ] {
        let predicted = predict_cost(&pat, &h).total_cycles;
        let mut sim = HierarchySim::new(&h);
        let (_, sim_secs) = timed(|| sim.run(pat.trace()));
        let measured = sim.cost() as f64;
        let misses: u64 = sim.report().levels.iter().map(|l| l.total()).sum();
        r.metric(
            format!("pattern/{name}"),
            &[("predicted_cycles", &format!("{predicted:.0}"))],
            sim_secs,
        )
        .simulated_misses = Some(misses);
        let error = (predicted - measured) / measured;
        worst_error = worst_error.max(error.abs());
        let bytes = match &pat {
            Pattern::STrav { region } | Pattern::RTrav { region, .. } => region.bytes(),
            Pattern::RRAcc { region, .. } => region.bytes(),
            _ => 0,
        };
        t.row(vec![
            name.to_string(),
            bytes.to_string(),
            format!("{predicted:.0}"),
            format!("{measured:.0}"),
            format!("{:+.1}%", error * 100.0),
        ]);
    }
    out.push_str(&t.render());

    // whole-algorithm validation: the partitioned hash-join across bits
    let n = scale.pick(1 << 12, 1 << 15);
    out.push_str(&format!(
        "\npartitioned hash-join of {n}x{n} tuples: model vs simulator across radix bits\n"
    ));
    let mut t = TextTable::new(vec!["bits", "predicted", "simulated", "error"]);
    let mut best_sim = (u64::MAX, 0u32);
    for bits in 0..=n.ilog2() {
        let predicted = predicted_partitioned_join_cycles(&h, n, 8, bits);
        // the clustering of both sides is simulated too
        let measured = simulated_join_cycles(&h, n, bits);
        if measured < best_sim.0 {
            best_sim = (measured, bits);
        }
        t.row(vec![
            bits.to_string(),
            format!("{predicted:.0}"),
            measured.to_string(),
            format!(
                "{:+.1}%",
                (predicted - measured as f64) / measured as f64 * 100.0
            ),
        ]);
    }
    out.push_str(&t.render());
    // n is a power of two: the sweep covers every bit count the model searches
    let picked = pick_radix_bits(&h, n, 8);
    out.push_str(&format!(
        "\nmodel-picked bits: {picked} (simulated optimum {})\n",
        best_sim.1
    ));
    r.text = out;
    r.simulated("§4.4", BASIC_PATTERNS, worst_error <= 0.2)
        .simulated("§4.4", PICKS_BITS, picked == best_sim.1)
}
