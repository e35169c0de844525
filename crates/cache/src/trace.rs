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
    if total_bits == 0 {
        return vec![];
    }
    let max_per_pass = max_per_pass.max(1);
    let npass = total_bits.div_ceil(max_per_pass);
    let base = total_bits / npass;
    let extra = total_bits % npass;
    (0..npass)
        .map(|i| base + if i < extra { 1 } else { 0 })
        .collect()
}

/// The largest number of bits one clustering pass can use on `h` without
/// thrashing: cursors must fit both the innermost cache's lines and the TLB.
pub fn max_safe_bits_per_pass(h: &MemoryHierarchy) -> u32 {
    let lines = h.levels[0].lines().max(1);
    let tlb = h.tlb.entries.max(1);
    let limit = lines.min(tlb);
    // keep half the capacity for the input stream and incidental state
    ((limit / 2).max(2) as f64).log2().floor() as u32
}

/// Analytic pattern of a multi-pass radix-cluster of `tuples` records of
/// `width` bytes using `bits_per_pass`: each pass reads the previous pass's
/// output and scatters it into one output buffer through `2^bits` cursors.
pub fn radix_cluster_pattern(tuples: usize, width: usize, bits_per_pass: &[u32]) -> Pattern {
    let mut cursor = 0u64;
    let mut input = Region::alloc(&mut cursor, tuples, width);
    let mut seq = Vec::new();
    for (pass, &bits) in bits_per_pass.iter().enumerate() {
        let output = Region::alloc(&mut cursor, tuples, width);
        seq.push(Pattern::STrav { region: input });
        seq.push(Pattern::Interleaved {
            region: output.clone(),
            cursors: 1 << bits,
            seed: 0x5eed + pass as u64,
        });
        input = output;
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
/// on `generic_modern` at 2^12–2^14 tuples and 1–5 bits; the model, whose
/// every pattern starts cold, would count it as a second full `STrav` and
/// over-predict the replay by 44–47 %.
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
    let mut bufs = [
        Region::alloc(&mut cursor, tuples, width),
        Region::alloc(&mut cursor, tuples, width),
    ];
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

/// Analytic pattern of a bucket-chained hash-join: build over `build`
/// tuples, probe with `probe` tuples, `width`-byte records. `bits` > 0
/// models the partitioned variant where both inputs were pre-clustered into
/// `2^bits` partitions (clustering cost must be added separately via
/// [`radix_cluster_pattern`]).
pub fn hash_join_pattern(build: usize, probe: usize, width: usize, bits: u32) -> Pattern {
    // Hash table: bucket heads + chain links, ~16 bytes per build tuple.
    const HT_WIDTH: usize = 16;
    let parts = 1usize << bits;
    let b = build.div_ceil(parts).max(1);
    let p = probe.div_ceil(parts).max(1);
    let mut cursor = 0u64;
    let build_r = Region::alloc(&mut cursor, b, width);
    let probe_r = Region::alloc(&mut cursor, p, width);
    let ht_r = Region::alloc(&mut cursor, b, HT_WIDTH);
    let one_partition = Pattern::Seq(vec![
        // build: read tuples sequentially, scatter into the hash table
        Pattern::STrav {
            region: build_r.clone(),
        },
        Pattern::RRAcc {
            region: ht_r.clone(),
            accesses: b,
            seed: 0xb111d,
        },
        // probe: read probe side sequentially, look up table, fetch match
        Pattern::STrav { region: probe_r },
        Pattern::RRAcc {
            region: ht_r,
            accesses: p,
            seed: 0x9e0be,
        },
        Pattern::RRAcc {
            region: build_r,
            accesses: p,
            seed: 0xfe7c4,
        },
    ]);
    // Partitions are processed one after the other over *distinct* memory;
    // repeating the same pattern P times is equivalent for the model
    // because each partition starts cold (disjoint regions).
    Pattern::Seq(vec![one_partition; parts])
}

/// Address trace of the (optionally partitioned) bucket-chained hash-join.
pub fn hash_join_trace(
    build: usize,
    probe: usize,
    width: usize,
    bits: u32,
    seed: u64,
) -> Vec<(u64, AccessKind)> {
    const HT_WIDTH: usize = 16;
    let parts = 1usize << bits;
    let b = build.div_ceil(parts).max(1);
    let p = probe.div_ceil(parts).max(1);
    let mut rng = XorShift::new(seed);
    let mut out = Vec::with_capacity(2 * (build + 2 * probe));
    let mut cursor = 0u64;
    for _ in 0..parts {
        let build_r = Region::alloc(&mut cursor, b, width);
        let probe_r = Region::alloc(&mut cursor, p, width);
        let ht_r = Region::alloc(&mut cursor, b, HT_WIDTH);
        for i in 0..b {
            out.push((build_r.addr_of(i), AccessKind::Sequential));
            out.push((ht_r.addr_of(rng.below(b)), AccessKind::Random));
        }
        for i in 0..p {
            out.push((probe_r.addr_of(i), AccessKind::Sequential));
            out.push((ht_r.addr_of(rng.below(b)), AccessKind::Random));
            out.push((build_r.addr_of(rng.below(b)), AccessKind::Random));
        }
    }
    out
}

/// Predicted total memory cycles of clustering both sides on `bits` bits
/// and then hash-joining partition-wise.
pub fn predicted_partitioned_join_cycles(
    h: &MemoryHierarchy,
    build: usize,
    probe: usize,
    width: usize,
    bits: u32,
) -> f64 {
    let passes = cluster_passes(bits, max_safe_bits_per_pass(h));
    let cluster_cost = predict_cost(&radix_cluster_pattern(build, width, &passes), h).total_cycles
        + predict_cost(&radix_cluster_pattern(probe, width, &passes), h).total_cycles;
    let join_cost = predict_cost(&hash_join_pattern(build, probe, width, bits), h).total_cycles;
    cluster_cost + join_cost
}

/// Let the model choose the number of radix bits that minimizes the total
/// predicted cost (§4.4's point: "predictive and accurate cost models
/// provide the cornerstones to automate this tuning task").
pub fn pick_radix_bits(h: &MemoryHierarchy, build: usize, probe: usize, width: usize) -> u32 {
    let max_bits = (build.max(2) as f64).log2().ceil() as u32;
    (0..=max_bits.min(24))
        .min_by(|&a, &b| {
            predicted_partitioned_join_cycles(h, build, probe, width, a).total_cmp(
                &predicted_partitioned_join_cycles(h, build, probe, width, b),
            )
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let (b, p) = (1 << 10, 1 << 10);
        let plain = hash_join_trace(b, p, 8, 0, 7);
        let part = hash_join_trace(b, p, 8, 5, 7);
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
        let (b, p, w) = (1 << 10, 1 << 10, 8);
        for bits in [0u32, 3, 5] {
            let mut sim = HierarchySim::new(&h);
            sim.run(hash_join_trace(b, p, w, bits, 3));
            let measured = sim.cost() as f64;
            let predicted = predict_cost(&hash_join_pattern(b, p, w, bits), &h).total_cycles;
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

    #[test]
    fn model_picks_nontrivial_bits() {
        let h = MemoryHierarchy::generic_modern();
        let bits = pick_radix_bits(&h, 1 << 20, 1 << 20, 8);
        assert!(
            (4..=20).contains(&bits),
            "expected a real partitioning choice, got {bits}"
        );
        // and the chosen point should beat both extremes
        let best = predicted_partitioned_join_cycles(&h, 1 << 20, 1 << 20, 8, bits);
        let none = predicted_partitioned_join_cycles(&h, 1 << 20, 1 << 20, 8, 0);
        assert!(best < none);
    }
}
