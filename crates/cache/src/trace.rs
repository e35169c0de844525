//! Model instances for the §4 algorithms.
//!
//! This module expresses radix-cluster and the partitioned hash-join as
//! *analytic* compounds of the basic patterns, to set beside what the
//! simulator measures when it replays the kernels' own memory traffic
//! (`algebra::radix_cluster` and `algebra::partitioned_hash_join` through a
//! [`crate::Recorder`]), mirroring how \[26, 24\] validated the unified model
//! against hardware counters. It also exposes the model's pay-off: picking
//! the optimal number of radix bits for a given hierarchy without running
//! anything ([`pick_radix_bits`]).

use crate::cost::predict_cost;
use crate::hierarchy::MemoryHierarchy;
use crate::pattern::{Pattern, Region};

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

/// Bytes of a key image, an oid or row number, and a cluster bound.
const WORD: usize = 8;

/// `tuples` keys of `width` bytes with their oids right after them: one
/// region, so that a scatter into both is one interleaved pattern.
fn pair(cursor: &mut u64, tuples: usize, width: usize) -> Region {
    Region::alloc(cursor, 2 * tuples, width)
}

/// The keys and the oids of a [`pair`].
fn halves(pair: &Region) -> [Region; 2] {
    let half = |at| Region::new(pair.base + at as u64, pair.items / 2, pair.width);
    [half(0), half(pair.bytes() / 2)]
}

/// The patterns of `algebra::radix_cluster` over the key/oid pair `input`
/// with `bits_per_pass`, allocating its other buffers after `*cursor`, and
/// the pair that holds the result. Each pass reads the cluster bounds of
/// the last, reads the keys once to count the sub-clusters into a cursor
/// array, writes the new bounds, reads keys and oids again and scatters
/// both through `2^bits` cursors each into the other pair, the clusters
/// back to back at their histogram offsets. Per pass the cursor array takes
/// one update per tuple on each read.
fn cluster_phases(
    cursor: &mut u64,
    input: Region,
    bits_per_pass: &[u32],
) -> (Vec<Pattern>, Region) {
    let tuples = input.items / 2;
    let widest = bits_per_pass.iter().max().copied().unwrap_or(0);
    let mut pairs = [input.clone(), pair(cursor, tuples, input.width)];
    let cursors = Region::alloc(cursor, 1 << widest, WORD);
    let mut bounds = Region::alloc(cursor, 2, WORD);
    let mut seq = Vec::new();
    let mut total = 0;
    for &bits in bits_per_pass {
        total += bits;
        let next = Region::alloc(cursor, (1 << total) + 1, WORD);
        let [keys, oids] = halves(&pairs[0]);
        let scan = |region| Pattern::STrav { region };
        seq.extend([
            scan(bounds),
            scan(keys.clone()),
            Pattern::RRAcc {
                region: Region::new(cursors.base, 1 << bits, WORD),
                accesses: 2 * tuples,
                seed: 0xc0de + u64::from(total),
            },
            scan(next.clone()),
            scan(oids),
            scan(keys),
            Pattern::Interleaved {
                region: pairs[1].clone(),
                cursors: 2 << bits,
            },
        ]);
        bounds = next;
        pairs.swap(0, 1);
    }
    let [result, _] = pairs;
    (seq, result)
}

/// Analytic pattern of `algebra::radix_cluster` over `tuples` records of
/// `width` bytes and their oids using `bits_per_pass`.
pub fn radix_cluster_pattern(tuples: usize, width: usize, bits_per_pass: &[u32]) -> Pattern {
    let mut cursor = 0u64;
    let input = pair(&mut cursor, tuples, width);
    Pattern::Seq(cluster_phases(&mut cursor, input, bits_per_pass).0)
}

/// Bytes of the slot array and of the links of the kernel's join table over
/// `rows` build rows: a power of two of slots at least twice the rows, and
/// at least 16, of a key image and a row tag each, and one row tag per row.
/// `join_model_sizes_the_table_as_the_kernel_does` checks them against the
/// buffers the recorder saw.
fn join_table_bytes(rows: usize) -> [usize; 2] {
    [
        (2 * rows).next_power_of_two().max(16) * 2 * WORD,
        rows * WORD,
    ]
}

/// Analytic pattern of `algebra::partitioned_hash_join` over `tuples`
/// records of `width` bytes per side, each key matching one on the other
/// side, with `bits_per_pass`: both sides clustered by
/// [`radix_cluster_pattern`]'s phases, then the join. The join reads the
/// clustered keys and row numbers once and writes the join index; per
/// cluster one table at the same addresses is cleared, built over an
/// average right cluster and probed by the matching left cluster, one link
/// read per match. [`Pattern::Seq`] keeps the table warm from one cluster
/// to the next.
pub fn partitioned_join_pattern(tuples: usize, width: usize, bits_per_pass: &[u32]) -> Pattern {
    let bits: u32 = bits_per_pass.iter().sum();
    let rows = tuples.div_ceil(1 << bits).max(1);
    let mut cursor = 0u64;
    let mut seq = Vec::new();
    let [left, right] = [(); 2].map(|_| {
        let input = pair(&mut cursor, tuples, width);
        let (phases, result) = cluster_phases(&mut cursor, input, bits_per_pass);
        seq.extend(phases);
        result
    });
    let out = pair(&mut cursor, tuples, WORD);
    let [slots, links] = join_table_bytes(rows);
    let slots = Region::alloc(&mut cursor, slots / (2 * WORD), 2 * WORD);
    let links = Region::alloc(&mut cursor, links / WORD, WORD);
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
    seq.extend([
        scan(&halves(&right)[0]),
        scan(&left),
        scan(&halves(&right)[1]),
        scan(&out),
        Pattern::Repeat {
            pattern: Box::new(cluster),
            times: 1 << bits,
        },
    ]);
    Pattern::Seq(seq)
}

/// Predicted total memory cycles of `algebra::partitioned_hash_join` of
/// `tuples` x `tuples` records clustered on `bits` bits, in the pass
/// schedule [`max_safe_bits_per_pass`] allows.
pub fn predicted_partitioned_join_cycles(
    h: &MemoryHierarchy,
    tuples: usize,
    width: usize,
    bits: u32,
) -> f64 {
    let passes = cluster_passes(bits, max_safe_bits_per_pass(h));
    predict_cost(&partitioned_join_pattern(tuples, width, &passes), h).total_cycles
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
    use crate::pattern::XorShift;
    use crate::record::Recorder;
    use crate::sim::HierarchySim;
    use mammoth_algebra::{partitioned_hash_join, radix_cluster};
    use mammoth_storage::Bat;
    use mammoth_types::Oid;

    fn seeded_keys(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = XorShift::new(seed);
        (0..n).map(|_| rng.next_u64()).collect()
    }

    /// The simulator after `algebra::radix_cluster` of `n` seeded keys and
    /// their oids.
    fn cluster_sim(h: &MemoryHierarchy, n: usize, passes: &[u32], seed: u64) -> HierarchySim {
        let mut sim = HierarchySim::new(h);
        let mut rec = Recorder::new(|addr, kind| sim.access(addr, kind));
        radix_cluster(
            seeded_keys(n, seed),
            (0..n as Oid).collect(),
            passes,
            &mut rec,
        );
        sim
    }

    /// `algebra::partitioned_hash_join` of a permutation of `n` seeded keys
    /// against the keys, on `bits` bits in the model's pass schedule.
    fn join_sim(h: &MemoryHierarchy, n: usize, bits: u32, seed: u64) -> HierarchySim {
        let mut rng = XorShift::new(seed);
        let keys: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
        let mut probe = keys.clone();
        rng.shuffle(&mut probe);
        let passes = cluster_passes(bits, max_safe_bits_per_pass(h));
        let mut sim = HierarchySim::new(h);
        let mut rec = Recorder::new(|addr, kind| sim.access(addr, kind));
        let (l, r) = (Bat::from_vec(probe), Bat::from_vec(keys));
        partitioned_hash_join(&l, &r, &passes, &mut rec).unwrap();
        sim
    }

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

    /// The model's regions are the kernels' buffers: the key/oid pairs,
    /// cursors and bounds of a clustering, and the join's table over
    /// clusters of equal size.
    #[test]
    fn join_model_sizes_the_table_as_the_kernel_does() {
        let (n, bits) = (1 << 10, 4);
        let mut rec = Recorder::new(|_, _| {});
        let keys = || Bat::from_vec((0..n as u64).collect::<Vec<_>>());
        partitioned_hash_join(&keys(), &keys(), &[bits], &mut rec).unwrap();
        let (keys, bounds) = (n as u64 * 8, ((1 << bits) + 1) * 8);
        let cluster = [bounds, 16, (1 << bits) * 8, keys, keys, keys, keys];
        let [slots, links] = join_table_bytes(n >> bits).map(|b| b as u64);
        let mut expect = [cluster, cluster].concat();
        // the table, cleared, and then the join index
        expect.extend([slots, links, keys, keys]);
        assert_eq!(rec.buffers(), expect);
    }

    /// Asserts that the model is within `bound` of the simulation, or, for
    /// a configuration `pinned` lists, that both are exactly the pinned
    /// `(predicted, simulated)` cycles.
    fn within_or_pinned<K: PartialEq + std::fmt::Debug>(
        at: K,
        predicted: f64,
        simulated: u64,
        bound: f64,
        pinned: &[(K, u64, u64)],
    ) {
        let measured = simulated as f64;
        match pinned.iter().find(|(k, ..)| *k == at) {
            Some(&(_, p, s)) => assert_eq!(
                (predicted.round() as u64, simulated),
                (p, s),
                "{at:?}: the pinned miss moved"
            ),
            None => assert!(
                ((predicted - measured) / measured).abs() <= bound,
                "{at:?}: predicted {predicted} vs simulated {measured}"
            ),
        }
    }

    /// Where one pass misses its bound: at 5 bits the scatter's 32 key and
    /// 32 oid cursors alone take the TLB's 64 entries, and the two source
    /// streams, the cursor array and the bounds make it thrash. The model
    /// gives the cursors all of each level.
    #[test]
    fn cluster_model_matches_the_kernel_layout_in_simulation() {
        let h = MemoryHierarchy::generic_modern();
        let pinned = [((1 << 14, 5), 379_280, 434_167)];
        for n in [1 << 12, 1 << 13, 1 << 14] {
            for bits in 0..=max_safe_bits_per_pass(&h) {
                let predicted =
                    predict_cost(&radix_cluster_pattern(n, 8, &[bits]), &h).total_cycles;
                let simulated = cluster_sim(&h, n, &[bits], 7).cost();
                within_or_pinned((n, bits), predicted, simulated, 0.01, &pinned);
            }
        }
    }

    /// A conflict the capacity-only model cannot see. At 2^15 tuples the
    /// clusters start about 2^15 / 2^B × 8 B apart, a power-of-two stride
    /// of 2 to 16 pages, so four cursors share a set of the 4-way, 16-set
    /// TLB and the input page makes a fifth. The model counts each page of
    /// the buffers once. To 4 bits the excess over the model is the TLB's;
    /// at 5 bits the cursors alone fill the TLB, and 4 % of the excess is
    /// elsewhere.
    #[test]
    fn power_of_two_cluster_stride_conflicts_in_the_tlb() {
        let h = MemoryHierarchy::generic_modern();
        let n = 1 << 15;
        for (bits, tlb, cycles, predicted) in [
            (2, 2991, 824_505, 757_970),
            (3, 2604, 814_911, 758_015),
            (4, 2964, 824_073, 758_297),
            (5, 4509, 867_732, 758_861),
        ] {
            let model = predict_cost(&radix_cluster_pattern(n, 8, &[bits]), &h);
            let sim = cluster_sim(&h, n, &[bits], 7);
            assert_eq!(
                (
                    sim.report().tlb.total(),
                    sim.cost(),
                    model.total_cycles.round()
                ),
                (tlb, cycles, predicted as f64),
                "{bits} bits"
            );
            assert_eq!(model.tlb.0.total().round(), 323.0);
            let excess = cycles as f64 - model.total_cycles;
            let tlb_excess = (tlb - 323) as f64 * h.tlb.miss_latency as f64;
            assert!(
                bits == 5 || (excess - tlb_excess).abs() <= 0.01 * excess,
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
        let single = cluster_sim(&h, tuples, &[10], 42).cost();
        let multi = cluster_sim(&h, tuples, &[5, 5], 42).cost();
        assert!(multi < single, "2-pass {multi} should beat 1-pass {single}");
    }

    #[test]
    fn partitioned_join_simulates_cheaper_than_plain() {
        // At 2^14 tuples the plain join's table (512 KB of slots) is far
        // larger than L1; clustering both sides so that each table fits
        // more than pays for the clustering.
        let h = MemoryHierarchy::generic_modern();
        let plain = join_sim(&h, 1 << 14, 0, 7).cost();
        let part = join_sim(&h, 1 << 14, 8, 7).cost();
        assert!(
            2 * part < plain,
            "partitioned {part} should be < half of plain {plain}"
        );
    }

    /// On the tiny hierarchy (256 B L1, 1 KB L2) at 2^10 tuples, clustering
    /// both sides in three 2-bit passes costs more than the cache-sized
    /// tables save: the whole kernel at 5 bits simulates above the plain
    /// join.
    #[test]
    fn partitioned_join_pays_for_its_clustering_on_the_tiny_hierarchy() {
        let h = MemoryHierarchy::tiny_test();
        let plain = join_sim(&h, 1 << 10, 0, 7).cost();
        let part = join_sim(&h, 1 << 10, 5, 7).cost();
        assert_eq!((plain, part), (519_154, 697_848));
    }

    #[test]
    fn model_prediction_tracks_simulation_for_join() {
        let h = MemoryHierarchy::tiny_test();
        for bits in [0u32, 3, 5] {
            let measured = join_sim(&h, 1 << 10, bits, 3).cost() as f64;
            let predicted = predicted_partitioned_join_cycles(&h, 1 << 10, 8, bits);
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

    /// `(predicted, simulated)` cycles of the join on `h`.
    fn join_term(h: &MemoryHierarchy, n: usize, bits: u32) -> (CostBreakdown, HierarchySim) {
        let passes = cluster_passes(bits, max_safe_bits_per_pass(h));
        let model = predict_cost(&partitioned_join_pattern(n, 8, &passes), h);
        (model, join_sim(h, n, bits, 3))
    }

    /// Where the whole join misses its bound: at 2^14 tuples and 9–10 bits
    /// the 5-bit first pass is the one-pass cluster's TLB thrash, at 2^15
    /// the power-of-two stride conflict of either pass, and at 2^14 and 7
    /// bits the model is 2.52 % short.
    #[test]
    fn join_model_matches_the_kernel_in_simulation() {
        let h = MemoryHierarchy::generic_modern();
        let pinned = [
            ((1 << 14, 7), 1_038_069, 1_064_955),
            ((1 << 14, 9), 1_040_991, 1_154_304),
            ((1 << 14, 10), 1_046_502, 1_169_109),
            ((1 << 15, 7), 2_186_094, 2_612_067),
            ((1 << 15, 8), 2_184_431, 2_579_352),
            ((1 << 15, 9), 2_187_572, 2_611_166),
            ((1 << 15, 10), 2_194_294, 2_623_422),
        ];
        for n in [1 << 12, 1 << 14, 1 << 15] {
            for bits in 7..=10 {
                let (model, sim) = join_term(&h, n, bits);
                within_or_pinned((n, bits), model.total_cycles, sim.cost(), 0.025, &pinned);
            }
        }
    }

    /// Where the join model still under-predicts. At 2^15 tuples and 4–6
    /// bits a cluster's table nearly fills the 32 KB L1 (its slots alone
    /// are 32 KB at 5 bits), and the key, row and join-index streams share
    /// L1 with it while it is built and probed. The model reads the streams
    /// before the first table and sees none of that sharing; the missing L1
    /// misses are 62 %, 62 % and 41 % of its shortfall, and the TLB
    /// conflicts of the clustering most of the rest.
    #[test]
    fn join_model_misses_the_l1_the_table_shares_with_the_streams() {
        let h = MemoryHierarchy::generic_modern();
        for (bits, l1_misses, cycles, predicted) in [
            (4, 188_599, 3_683_266, 2_684_555),
            (5, 151_108, 3_227_904, 2_241_158),
            (6, 136_599, 2_799_812, 2_191_811),
        ] {
            let (model, sim) = join_term(&h, 1 << 15, bits);
            let stats = sim.report().levels[0];
            assert_eq!(
                (stats.total(), sim.cost(), model.total_cycles.round()),
                (l1_misses, cycles, predicted as f64),
                "{bits} bits"
            );
            assert!(model.levels[0].1.total() < l1_misses as f64);
        }
    }

    /// Where two passes miss their bound: at 2^15 tuples, the power-of-two
    /// stride conflict in the TLB, in both passes.
    #[test]
    fn two_pass_cluster_model_matches_the_kernel_layout_in_simulation() {
        let h = MemoryHierarchy::generic_modern();
        let pinned = [
            ((1 << 15, 6), 826_579, 896_665),
            ((1 << 15, 7), 827_346, 902_242),
            ((1 << 15, 8), 828_327, 904_665),
            ((1 << 15, 9), 830_797, 923_921),
            ((1 << 15, 10), 834_608, 938_877),
        ];
        for n in [1 << 12, 1 << 15] {
            for bits in 6..=10 {
                let passes = cluster_passes(bits, max_safe_bits_per_pass(&h));
                assert_eq!(passes.len(), 2);
                let predicted =
                    predict_cost(&radix_cluster_pattern(n, 8, &passes), &h).total_cycles;
                let simulated = cluster_sim(&h, n, &passes, 7).cost();
                within_or_pinned((n, bits), predicted, simulated, 0.05, &pinned);
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
