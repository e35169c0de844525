//! E03 — Partitioned hash-join vs simple hash-join (§4.2).
//!
//! "CPU- and cache-optimized radix-clustered partitioned hash-join can
//! easily achieve an order of magnitude performance improvement over
//! simple hash-join." Sweep the cardinality; when the table + hash
//! structure outgrow the caches, the partitioned variant pulls away.

use crate::table::TextTable;
use crate::{ns_per, timed, Report, Scale};
use mammoth_algebra::{hash_join, partitioned_hash_join};
use mammoth_cache::pattern::XorShift;
use mammoth_cache::trace::{cluster_passes, max_safe_bits_per_pass, pick_radix_bits};
use mammoth_cache::{HierarchySim, MemoryHierarchy, Recorder};
use mammoth_storage::Bat;
use mammoth_workload::permutation;

const GROWS: &str =
    "the partitioned hash-join's advantage over the simple one grows with cardinality";
const TENFOLD: &str = "a radix-clustered partitioned hash-join is an order of magnitude faster than a simple hash-join";

/// Simulated memory cycles of `partitioned_hash_join` of a permutation of
/// `n` seeded 8-byte keys against the keys, both sides clustered on `bits`
/// radix bits (0: one hash table over the whole build side), in the pass
/// schedule E03 runs it with.
pub fn simulated_join_cycles(h: &MemoryHierarchy, n: usize, bits: u32) -> u64 {
    let mut rng = XorShift::new(3);
    let keys: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
    let mut probe = keys.clone();
    rng.shuffle(&mut probe);
    let passes = cluster_passes(bits, max_safe_bits_per_pass(h));
    let (l, r) = (Bat::from_vec(probe), Bat::from_vec(keys));
    let mut sim = HierarchySim::new(h);
    let mut rec = Recorder::new(|addr, kind| sim.access(addr, kind));
    partitioned_hash_join(&l, &r, &passes, &mut rec).expect("u64 keys join");
    sim.cost()
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
        let (j2, t_part_a) = timed(|| partitioned_hash_join(&l, &r, &passes, &mut ()).unwrap());
        let (_, t_simple_b) = timed(|| hash_join(&l, &r).unwrap());
        let (_, t_part_b) = timed(|| partitioned_hash_join(&l, &r, &passes, &mut ()).unwrap());
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
