//! The `TMem` cost formula.
//!
//! §4.4: "Memory access cost can be modeled by estimating the number of
//! cache misses M and scoring them with their respective miss latency l …
//! calculating the total cost as sum of the cost for all levels:
//! `TMem = Σ_i (Ms_i·ls_i + Mr_i·lr_i)`."

use crate::hierarchy::MemoryHierarchy;
use crate::pattern::{MissEstimate, Pattern};

/// A per-level cost decomposition in CPU cycles; the TLB's share is in the
/// total only.
#[derive(Debug, Clone)]
pub struct CostBreakdown {
    /// `(level name, estimated misses, cycles)` innermost first.
    pub levels: Vec<(String, MissEstimate, f64)>,
    /// Total cycles: the `TMem` value.
    pub total_cycles: f64,
}

/// Predict total memory cost (cycles) of `pattern` on `hierarchy`.
pub fn predict_cost(pattern: &Pattern, hierarchy: &MemoryHierarchy) -> CostBreakdown {
    let (levels, tlb) = pattern.predicted_all(hierarchy);
    let mut out = Vec::with_capacity(levels.len());
    let mut total = 0.0;
    for (est, level) in levels.iter().zip(&hierarchy.levels) {
        let cycles =
            est.seq * level.seq_miss_latency as f64 + est.rand * level.rand_miss_latency as f64;
        total += cycles;
        out.push((level.name.to_string(), *est, cycles));
    }
    let tlb_cycles = tlb.total() * hierarchy.tlb.miss_latency as f64;
    total += tlb_cycles;
    CostBreakdown {
        levels: out,
        total_cycles: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Region;

    #[test]
    fn cost_sums_levels_and_tlb() {
        let h = MemoryHierarchy::tiny_test();
        let p = Pattern::STrav {
            region: Region::new(0, 64, 4), // 256B: 16 lines, 2 pages
        };
        let c = predict_cost(&p, &h);
        // L1: 16 seq misses * 2cy; L2: 16 * 10cy; TLB: 2 * 20cy (in the total)
        assert_eq!(c.levels[0].2, 32.0);
        assert_eq!(c.levels[1].2, 160.0);
        assert_eq!(c.total_cycles, 232.0);
    }

    #[test]
    fn random_costs_more_than_sequential() {
        let h = MemoryHierarchy::generic_modern();
        let region = Region::new(0, 1 << 20, 4); // 4 MB
        let seq = predict_cost(
            &Pattern::STrav {
                region: region.clone(),
            },
            &h,
        );
        let rnd = predict_cost(&Pattern::RTrav { region, seed: 1 }, &h);
        assert!(
            rnd.total_cycles > 4.0 * seq.total_cycles,
            "random {} vs sequential {}",
            rnd.total_cycles,
            seq.total_cycles
        );
    }
}
