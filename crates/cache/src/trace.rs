//! Model instances and traces for the §4 algorithms.
//!
//! This module expresses radix-cluster and (partitioned) hash-join both as
//! *analytic* compounds of the basic patterns (for prediction) and as
//! *address traces* (for simulation), mirroring how [26, 24] validated the
//! unified model against hardware counters. It also exposes the model's
//! pay-off: picking the optimal number of radix bits for a given hierarchy
//! without running anything ([`pick_radix_bits`]).

use crate::cost::predict_cost;
use crate::hierarchy::MemoryHierarchy;
use crate::pattern::{histogram_offsets, AccessKind, Pattern, Region, XorShift};

/// Split `total_bits` into per-pass chunks of at most `max_per_pass` bits,
/// as evenly as possible (the multi-pass schedule of §4.2).
pub fn cluster_passes(total_bits: u32, max_per_pass: u32) -> Vec<u32> {
    let npass = total_bits.div_ceil(max_per_pass.max(1));
    (0..npass)
        .map(|i| total_bits / npass + u32::from(i < total_bits % npass))
        .collect()
}

/// The largest number of bits one clustering pass can use on `h` without
/// thrashing: cursors must fit both the innermost cache's lines and the TLB.
pub fn max_safe_bits_per_pass(h: &MemoryHierarchy) -> u32 {
    let limit = h.levels[0].lines().min(h.tlb.entries);
    // keep half the capacity for the input stream and incidental state
    (limit / 2).max(2).ilog2()
}

/// Analytic pattern of a multi-pass radix-cluster of `tuples` records of
/// `width` bytes using `bits_per_pass`: each pass reads one of two buffers
/// and scatters into the other through `2^bits` cursors, and the next pass
/// reads what it wrote, as `algebra::radix_cluster` swaps its buffers.
pub fn radix_cluster_pattern(tuples: usize, width: usize, bits_per_pass: &[u32]) -> Pattern {
    let mut cursor = 0u64;
    let mut bufs = [(); 2].map(|_| Region::alloc(&mut cursor, tuples, width));
    let mut seq = Vec::new();
    for (pass, &bits) in bits_per_pass.iter().enumerate() {
        seq.push(Pattern::STrav {
            region: bufs[0].clone(),
        });
        seq.push(Pattern::Interleaved {
            region: bufs[1].clone(),
            cursors: 1 << bits,
            seed: 0x5eed + pass as u64,
        });
        bufs.swap(0, 1);
    }
    Pattern::Seq(seq)
}

/// Address trace of `algebra::radix_cluster` over `tuples` seeded keys of
/// `width` bytes: each pass splits every cluster of the last into `2^bits`
/// sub-clusters by a stable counting scatter, reading the input in order
/// and writing each tuple at its sub-cluster's cursor, the sub-clusters
/// back to back at histogram offsets in the other of two swapped buffers.
/// The input is already clustered on the bits above a pass's own, so one
/// histogram over all of them places every sub-cluster where the kernel's
/// per-cluster histogram does.
///
/// The histogram's own read of the input is left out, here and in
/// [`radix_cluster_pattern`]. Replaying it costs +1.9 % to +3.3 % simulated
/// on `generic_modern` at 2^12–2^14 tuples and 1–5 bits.
pub fn radix_cluster_trace(
    tuples: usize,
    width: usize,
    bits_per_pass: &[u32],
    seed: u64,
) -> Vec<(u64, AccessKind)> {
    let mut rng = XorShift::new(seed);
    let mut src: Vec<u64> = (0..tuples).map(|_| rng.next_u64()).collect();
    let mut dst = vec![0u64; tuples];
    let mut cursor = 0u64;
    let mut bufs = [(); 2].map(|_| Region::alloc(&mut cursor, tuples, width));
    let mut out = Vec::with_capacity(2 * tuples * bits_per_pass.len());
    let total: u32 = bits_per_pass.iter().sum();
    let mut shift = total;
    for &bits in bits_per_pass {
        shift -= bits;
        let target = |k: u64| ((k >> shift) & ((1 << (total - shift)) - 1)) as usize;
        let mut at = histogram_offsets(src.iter().map(|&k| target(k)), 1 << (total - shift), 0);
        for (i, &k) in src.iter().enumerate() {
            out.push((bufs[0].addr_of(i), AccessKind::Sequential));
            out.push((bufs[1].addr_of(at[target(k)]), AccessKind::Sequential));
            dst[at[target(k)]] = k;
            at[target(k)] += 1;
        }
        std::mem::swap(&mut src, &mut dst);
        bufs.swap(0, 1);
    }
    out
}

/// Bytes of one `algebra::flat::JoinTable` slot (key image and row tag)
/// and of one link of its chains.
const SLOT: usize = 16;
const LINK: usize = 8;

/// Slots of a `JoinTable` over `rows` build rows.
fn join_slots(rows: usize) -> usize {
    (2 * rows).next_power_of_two().max(16)
}

/// Analytic pattern of the join phase of `algebra::partitioned_hash_join`
/// over `tuples` records of `width` bytes per side, both clustered on
/// `bits` bits: the two clustered inputs are read once, and per cluster one
/// table at the same addresses is cleared, built over an average build
/// cluster and probed by the matching probe cluster, one link read per
/// match. [`Pattern::Seq`] keeps the table warm from one cluster to the next.
pub fn hash_join_pattern(tuples: usize, width: usize, bits: u32) -> Pattern {
    let rows = tuples.div_ceil(1 << bits).max(1);
    let mut cursor = 0u64;
    let [build, probe] = [(); 2].map(|_| Region::alloc(&mut cursor, tuples, width));
    let slots = Region::alloc(&mut cursor, join_slots(rows), SLOT);
    let links = Region::alloc(&mut cursor, rows, LINK);
    let scan = |region: &Region| Pattern::STrav {
        region: region.clone(),
    };
    let lookups = |region: &Region, seed| Pattern::RRAcc {
        region: region.clone(),
        accesses: rows,
        seed,
    };
    // clear; build, writing a link per row; probe, reading a link per match
    let cluster = Pattern::Seq(vec![
        scan(&slots),
        scan(&links),
        lookups(&slots, 0xb111d),
        scan(&links),
        lookups(&slots, 0x9e0be),
        lookups(&links, 0x1157),
    ]);
    Pattern::Seq(vec![
        scan(&build),
        scan(&probe),
        Pattern::Repeat {
            pattern: Box::new(cluster),
            times: 1 << bits,
        },
    ])
}

/// `keys` stably sorted on their low `bits` bits, and where each of the
/// `2^bits` clusters starts (plus the end): the layout `algebra::radix_cluster`
/// leaves, whatever its pass schedule.
fn clustered(keys: &[u64], bits: u32) -> (Vec<u64>, Vec<usize>) {
    let mask = (1u64 << bits) - 1;
    let mut bounds = histogram_offsets(keys.iter().map(|&k| (k & mask) as usize), 1 << bits, 0);
    bounds.push(keys.len());
    let mut out = keys.to_vec();
    out.sort_by_key(|&k| k & mask);
    (out, bounds)
}

/// Address trace of the join phase of `algebra::partitioned_hash_join`
/// over `tuples` seeded keys of `width` bytes per side, the probe side a
/// permutation of the build side, both clustered on `bits` bits. Keys are
/// read in place from the two clustered buffers. One slot array and one
/// link array, each allocated once for the largest build cluster, are
/// cleared and rebuilt per cluster: `JoinTable`'s linear slot probe for
/// every key, a link write per build row and a link read per match.
///
/// The clustering itself is [`radix_cluster_trace`]'s. The oids the kernel
/// carries beside its keys, and the join index it writes, are left out.
pub fn hash_join_trace(
    tuples: usize,
    width: usize,
    bits: u32,
    seed: u64,
) -> Vec<(u64, AccessKind)> {
    let mut rng = XorShift::new(seed);
    let keys: Vec<u64> = (0..tuples).map(|_| rng.next_u64()).collect();
    let mut shuffled = keys.clone();
    rng.shuffle(&mut shuffled);
    let (build, build_at) = clustered(&keys, bits);
    let (probe, probe_at) = clustered(&shuffled, bits);
    let largest = build_at.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);

    let mut cursor = 0u64;
    let [build_r, probe_r] = [(); 2].map(|_| Region::alloc(&mut cursor, tuples, width));
    let slots_r = Region::alloc(&mut cursor, join_slots(largest), SLOT);
    let links_r = Region::alloc(&mut cursor, largest, LINK);
    let mut slots = vec![(0u64, 0usize); join_slots(largest)];
    let mut links = vec![0usize; largest];
    let mut out = Vec::with_capacity(12 * tuples);
    // the slot holding `key`, or the empty one where it belongs
    let lookup = |slots: &[(u64, usize)], key: u64, out: &mut Vec<_>| {
        let mut s =
            (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - slots.len().ilog2())) as usize;
        loop {
            out.push((slots_r.addr_of(s), AccessKind::Random));
            if slots[s].1 == 0 || slots[s].0 == key {
                return s;
            }
            s = (s + 1) & (slots.len() - 1);
        }
    };
    for c in 0..1usize << bits {
        let (b, p) = (build_at[c]..build_at[c + 1], probe_at[c]..probe_at[c + 1]);
        if b.is_empty() || p.is_empty() {
            continue;
        }
        let table = &mut slots[..join_slots(b.len())];
        table.fill((0, 0));
        out.extend((0..table.len()).map(|s| (slots_r.addr_of(s), AccessKind::Sequential)));
        out.extend((0..b.len()).map(|j| (links_r.addr_of(j), AccessKind::Sequential)));
        for (j, i) in b.enumerate() {
            out.push((build_r.addr_of(i), AccessKind::Sequential));
            let s = lookup(table, build[i], &mut out);
            out.push((links_r.addr_of(j), AccessKind::Sequential));
            links[j] = table[s].1;
            table[s] = (build[i], j + 1);
        }
        for i in p {
            out.push((probe_r.addr_of(i), AccessKind::Sequential));
            let mut row = table[lookup(table, probe[i], &mut out)].1;
            while row != 0 {
                out.push((links_r.addr_of(row - 1), AccessKind::Random));
                row = links[row - 1];
            }
        }
    }
    out
}

/// Predicted total memory cycles of clustering both sides of a join of
/// `tuples` x `tuples` records on `bits` bits, then hash-joining cluster by
/// cluster.
pub fn predicted_partitioned_join_cycles(
    h: &MemoryHierarchy,
    tuples: usize,
    width: usize,
    bits: u32,
) -> f64 {
    let passes = cluster_passes(bits, max_safe_bits_per_pass(h));
    let cluster_cost = predict_cost(&radix_cluster_pattern(tuples, width, &passes), h).total_cycles;
    2.0 * cluster_cost + predict_cost(&hash_join_pattern(tuples, width, bits), h).total_cycles
}

/// Let the model choose the number of radix bits that minimizes the total
/// predicted cost (§4.4's point: "predictive and accurate cost models
/// provide the cornerstones to automate this tuning task").
pub fn pick_radix_bits(h: &MemoryHierarchy, tuples: usize, width: usize) -> u32 {
    let max_bits = (tuples.max(2) as f64).log2().ceil() as u32;
    let cost = |bits| predicted_partitioned_join_cycles(h, tuples, width, bits);
    (0..=max_bits.min(24))
        .map(|bits| (cost(bits), bits))
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .map_or(0, |(_, bits)| bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostBreakdown;
    use crate::sim::HierarchySim;

    #[test]
    fn pass_schedule_splits_evenly() {
        assert_eq!(cluster_passes(0, 6), Vec::<u32>::new());
        assert_eq!(cluster_passes(6, 6), vec![6]);
        assert_eq!(cluster_passes(7, 6), vec![4, 3]);
        assert_eq!(cluster_passes(12, 5), vec![4, 4, 4]);
        assert_eq!(cluster_passes(13, 5), vec![5, 4, 4]);
        assert_eq!(cluster_passes(3, 0), vec![1, 1, 1], "max clamps to 1");
    }

    #[test]
    fn safe_bits_reflects_hierarchy() {
        let tiny = MemoryHierarchy::tiny_test(); // 16 L1 lines, 8 TLB entries
        assert_eq!(max_safe_bits_per_pass(&tiny), 2);
        let modern = MemoryHierarchy::generic_modern(); // 512 lines, 64 TLB
        assert_eq!(max_safe_bits_per_pass(&modern), 5);
    }

    #[test]
    fn cluster_trace_touches_every_tuple_each_pass() {
        let t = radix_cluster_trace(100, 8, &[2, 1], 1);
        assert_eq!(t.len(), 2 * 100 * 2);
    }

    #[test]
    fn cluster_model_matches_the_kernel_layout_in_simulation() {
        let h = MemoryHierarchy::generic_modern();
        for n in [1 << 12, 1 << 13, 1 << 14] {
            for bits in 0..=max_safe_bits_per_pass(&h) {
                let predicted =
                    predict_cost(&radix_cluster_pattern(n, 8, &[bits]), &h).total_cycles;
                let mut sim = HierarchySim::new(&h);
                sim.run(radix_cluster_trace(n, 8, &[bits], 7));
                let measured = sim.cost() as f64;
                let err = (predicted - measured) / measured;
                assert!(
                    err.abs() <= 0.01,
                    "{n} tuples, {bits} bits: predicted {predicted} vs simulated {measured}"
                );
            }
        }
    }

    /// A conflict the capacity-only model cannot see. At 2^15 tuples the
    /// clusters start about 2^15 / 2^B × 8 B apart, a power-of-two stride
    /// of 2 to 16 pages, so four cursors share a set of the 4-way, 16-set
    /// TLB and the input page makes a fifth. The model counts the 64 input
    /// and 64 output pages once each.
    #[test]
    fn power_of_two_cluster_stride_conflicts_in_the_tlb() {
        let h = MemoryHierarchy::generic_modern();
        let n = 1 << 15;
        for (bits, tlb, cycles) in [
            (2, 492, 380_946),
            (3, 435, 379_533),
            (4, 490, 380_929),
            (5, 613, 384_040),
        ] {
            let model = predict_cost(&radix_cluster_pattern(n, 8, &[bits]), &h);
            let mut sim = HierarchySim::new(&h);
            sim.run(radix_cluster_trace(n, 8, &[bits], 7));
            assert_eq!(
                (sim.report().tlb.total(), sim.cost()),
                (tlb, cycles),
                "{bits} bits"
            );
            assert_eq!(model.tlb.0.total(), 128.0);
            // the excess over the model is the TLB's, to within 1 %
            let excess = cycles as f64 - model.total_cycles;
            let tlb_excess = (tlb - 128) as f64 * h.tlb.miss_latency as f64;
            assert!(
                (excess - tlb_excess).abs() <= 0.01 * excess,
                "{bits} bits: excess {excess}, of it TLB {tlb_excess}"
            );
        }
    }

    #[test]
    fn multi_pass_clustering_beats_single_pass_when_h_is_large() {
        // The §4.2 claim in miniature: clustering into 2^10 partitions in
        // one pass thrashes TLB and L1; two 5-bit passes (32 cursors each,
        // within the 64-entry TLB) do not.
        let h = MemoryHierarchy::generic_modern();
        let tuples = 1 << 16;
        let single = radix_cluster_trace(tuples, 8, &[10], 42);
        let multi = radix_cluster_trace(tuples, 8, &[5, 5], 42);
        let mut s1 = HierarchySim::new(&h);
        s1.run(single);
        let mut s2 = HierarchySim::new(&h);
        s2.run(multi);
        assert!(
            s2.cost() < s1.cost(),
            "2-pass {} should beat 1-pass {}",
            s2.cost(),
            s1.cost()
        );
    }

    #[test]
    fn partitioned_join_simulates_cheaper_than_plain() {
        let h = MemoryHierarchy::tiny_test();
        let plain = hash_join_trace(1 << 10, 8, 0, 7);
        let part = hash_join_trace(1 << 10, 8, 5, 7);
        let mut s1 = HierarchySim::new(&h);
        s1.run(plain);
        let mut s2 = HierarchySim::new(&h);
        s2.run(part);
        assert!(
            s2.cost() < s1.cost() / 2,
            "partitioned {} vs plain {}",
            s2.cost(),
            s1.cost()
        );
    }

    #[test]
    fn model_prediction_tracks_simulation_for_join() {
        let h = MemoryHierarchy::tiny_test();
        for bits in [0u32, 3, 5] {
            let mut sim = HierarchySim::new(&h);
            sim.run(hash_join_trace(1 << 10, 8, bits, 3));
            let measured = sim.cost() as f64;
            let predicted = predict_cost(&hash_join_pattern(1 << 10, 8, bits), &h).total_cycles;
            // The closed-form model is rough where a region's size is close
            // to a cache's capacity (boundary effects); E06 reports the
            // actual per-configuration errors.
            let err = (measured - predicted).abs() / measured;
            assert!(
                err < 0.6,
                "bits={bits}: predicted {predicted} vs measured {measured} (err {err:.2})"
            );
        }
    }

    /// `(predicted, simulated)` cycles of the join phase on `h`.
    fn join_term(h: &MemoryHierarchy, n: usize, bits: u32) -> (CostBreakdown, HierarchySim) {
        let mut sim = HierarchySim::new(h);
        sim.run(hash_join_trace(n, 8, bits, 3));
        (predict_cost(&hash_join_pattern(n, 8, bits), h), sim)
    }

    #[test]
    fn join_model_matches_the_kernel_in_simulation() {
        let h = MemoryHierarchy::generic_modern();
        for n in [1 << 12, 1 << 14, 1 << 15] {
            for bits in 7..=10 {
                let (model, sim) = join_term(&h, n, bits);
                let measured = sim.cost() as f64;
                let err = (model.total_cycles - measured) / measured;
                assert!(
                    err.abs() <= 0.025,
                    "{n} tuples, {bits} bits: predicted {} vs simulated {measured}",
                    model.total_cycles
                );
            }
        }
    }

    /// Where the join model still under-predicts. At 2^15 tuples and 4–6
    /// bits a cluster's table nearly fills the 32 KB L1 (its slots alone
    /// are 32 KB at 5 bits), and the two key streams and the links share
    /// L1 with it while it is built and probed. The model reads the
    /// streams before the first table and sees none of that sharing; the
    /// missing L1 misses are most of its shortfall.
    #[test]
    fn join_model_misses_the_l1_the_table_shares_with_the_streams() {
        let h = MemoryHierarchy::generic_modern();
        let l1 = &h.levels[0];
        for (bits, l1_misses, cycles) in [
            (4, 107_013, 1_355_865),
            (5, 72_146, 943_347),
            (6, 22_860, 478_737),
        ] {
            let (model, sim) = join_term(&h, 1 << 15, bits);
            let stats = sim.report().levels[0];
            assert_eq!(
                (stats.total(), sim.cost()),
                (l1_misses, cycles),
                "{bits} bits"
            );
            let l1_cycles =
                stats.seq_misses * l1.seq_miss_latency + stats.rand_misses * l1.rand_miss_latency;
            let shortfall = cycles as f64 - model.total_cycles;
            let l1_shortfall = l1_cycles as f64 - model.levels[0].2;
            assert!(
                model.levels[0].1.total() < l1_misses as f64 && l1_shortfall >= 0.85 * shortfall,
                "{bits} bits: L1 {} predicted, {l1_shortfall} of the {shortfall} cycles short",
                model.levels[0].1.total()
            );
        }
    }

    #[test]
    fn two_pass_cluster_model_matches_the_kernel_layout_in_simulation() {
        let h = MemoryHierarchy::generic_modern();
        for n in [1 << 12, 1 << 15] {
            for bits in 6..=10 {
                let passes = cluster_passes(bits, max_safe_bits_per_pass(&h));
                assert_eq!(passes.len(), 2);
                let predicted =
                    predict_cost(&radix_cluster_pattern(n, 8, &passes), &h).total_cycles;
                let mut sim = HierarchySim::new(&h);
                sim.run(radix_cluster_trace(n, 8, &passes, 7));
                let measured = sim.cost() as f64;
                let err = (predicted - measured) / measured;
                assert!(
                    err.abs() <= 0.05,
                    "{n} tuples, {passes:?}: predicted {predicted} vs simulated {measured}"
                );
            }
        }
    }

    #[test]
    fn model_picks_nontrivial_bits() {
        let h = MemoryHierarchy::generic_modern();
        let bits = pick_radix_bits(&h, 1 << 20, 8);
        assert!(
            (4..=20).contains(&bits),
            "expected a real partitioning choice, got {bits}"
        );
        // and the chosen point should beat both extremes
        let best = predicted_partitioned_join_cycles(&h, 1 << 20, 8, bits);
        let none = predicted_partitioned_join_cycles(&h, 1 << 20, 8, 0);
        assert!(best < none);
    }
}
