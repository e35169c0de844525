//! E03 — Partitioned hash-join vs simple hash-join (§4.2).
//!
//! "CPU- and cache-optimized radix-clustered partitioned hash-join can
//! easily achieve an order of magnitude performance improvement over
//! simple hash-join." Sweep the cardinality; when the table + hash
//! structure outgrow the caches, the partitioned variant pulls away.

use crate::table::TextTable;
use crate::{ns_per, timed, Report, Scale};
use mammoth_algebra::{hash_join, partitioned_hash_join};
use mammoth_cache::trace::{
    cluster_passes, hash_join_trace, max_safe_bits_per_pass, pick_radix_bits, radix_cluster_trace,
};
use mammoth_cache::{HierarchySim, MemoryHierarchy};
use mammoth_storage::Bat;
use mammoth_workload::permutation;

const GROWS: &str =
    "the partitioned hash-join's advantage over the simple one grows with cardinality";
const TENFOLD: &str = "a radix-clustered partitioned hash-join is an order of magnitude faster than a simple hash-join";

/// Simulated memory cycles of joining `n` x `n` 8-byte tuples after
/// clustering both sides on `bits` radix bits (0: the simple hash-join), in
/// the pass schedule E03 runs `partitioned_hash_join` with.
pub fn simulated_join_cycles(h: &MemoryHierarchy, n: usize, bits: u32) -> u64 {
    let passes = cluster_passes(bits, max_safe_bits_per_pass(h));
    let mut cycles = 0;
    for trace in [
        hash_join_trace(n, 8, bits, 3),
        radix_cluster_trace(n, 8, &passes, 5),
        radix_cluster_trace(n, 8, &passes, 6),
    ] {
        let mut sim = HierarchySim::new(h);
        sim.run(trace);
        cycles += sim.cost();
    }
    cycles
}

pub fn run(scale: Scale) -> Report {
    let max_pow = scale.pick(18, 23);
    let h = MemoryHierarchy::generic_modern();

    let mut out = String::new();
    out.push_str("E03  Partitioned (radix-clustered) hash-join vs simple hash-join\n\n");

    let mut t = TextTable::new(vec![
        "n per side",
        "simple",
        "partitioned",
        "bits (model)",
        "speedup",
    ]);
    for pow in (15..=max_pow).step_by(2) {
        let n = 1usize << pow;
        // unique keys, shuffled: every tuple matches exactly once
        let l = Bat::from_vec(permutation(n, 1));
        let r = Bat::from_vec(permutation(n, 2));
        let bits = pick_radix_bits(&h, n, 8);
        let passes = cluster_passes(bits, max_safe_bits_per_pass(&h));
        // best of 2 runs each, interleaved, to tame VM noise
        let (j1, t_simple_a) = timed(|| hash_join(&l, &r).unwrap());
        let (j2, t_part_a) = timed(|| partitioned_hash_join(&l, &r, &passes).unwrap());
        let (_, t_simple_b) = timed(|| hash_join(&l, &r).unwrap());
        let (_, t_part_b) = timed(|| partitioned_hash_join(&l, &r, &passes).unwrap());
        let t_simple = t_simple_a.min(t_simple_b);
        let t_part = t_part_a.min(t_part_b);
        assert_eq!(j1.len(), n);
        assert_eq!(j2.len(), n);
        t.row(vec![
            n.to_string(),
            format!("{:.1} ns/t", ns_per(t_simple, n)),
            format!("{:.1} ns/t", ns_per(t_part, n)),
            bits.to_string(),
            format!("{:.2}x", t_simple / t_part),
        ]);
    }
    out.push_str(&t.render());

    // the same race in simulated cycles, both sides clustered at the
    // model's bits: the partitioned side's cost includes the clustering
    out.push_str("\nsimulated cache+TLB cost (generic hierarchy, 8B tuples):\n");
    let mut t = TextTable::new(vec!["n per side", "bits (model)", "simple/partitioned"]);
    let mut ratios = Vec::new();
    // 2^10 to 2^14 tuples per side, to 2^17 at full size
    for pow in [10, 12, 14, 15, 17].into_iter().take(scale.pick(3, 5)) {
        let n = 1usize << pow;
        let bits = pick_radix_bits(&h, n, 8);
        let ratio =
            simulated_join_cycles(&h, n, 0) as f64 / simulated_join_cycles(&h, n, bits) as f64;
        t.row(vec![
            n.to_string(),
            bits.to_string(),
            format!("{ratio:.2}x"),
        ]);
        ratios.push(ratio);
    }
    out.push_str(&t.render());
    let grows = ratios.windows(2).all(|w| w[0] <= w[1]) && ratios[0] < ratios[ratios.len() - 1];
    Report::new(out)
        .simulated("§4.2", GROWS, grows)
        .wall_clock("§4.2", TENFOLD)
}
