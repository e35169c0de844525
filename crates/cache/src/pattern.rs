//! Basic access patterns of the unified memory model.
//!
//! The model abstracts data structures as *regions* and describes database
//! algorithms as compounds of a few basic access patterns over them
//! (§4.4: "abstract data structures as data regions and model the complex
//! data access patterns of database algorithms in terms of simple compounds
//! of a few basic data access patterns, such as sequential or random").
//!
//! Every pattern supports two dual views:
//! * an **analytic** miss prediction per cache level ([`Pattern::predicted`])
//! * an **executable** address trace ([`Pattern::trace`]) that can be fed to
//!   the simulator, so the two can be compared (experiment E06).

use crate::hierarchy::{CacheLevel, MemoryHierarchy, Tlb};

/// Whether an access participates in a prefetch-friendly stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    Sequential,
    Random,
}

/// A contiguous array of `items` records of `width` bytes at `base`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    pub base: u64,
    pub items: usize,
    pub width: usize,
}

impl Region {
    pub fn new(base: u64, items: usize, width: usize) -> Region {
        Region { base, items, width }
    }

    /// Allocate a region after `*cursor`, page-aligning and bumping it.
    /// Keeps distinct regions in distinct pages so traces do not overlap.
    pub fn alloc(cursor: &mut u64, items: usize, width: usize) -> Region {
        const ALIGN: u64 = 1 << 21; // 2 MB spacing between regions
        let base = (*cursor).div_ceil(ALIGN) * ALIGN;
        *cursor = base + (items * width) as u64;
        Region { base, items, width }
    }

    pub fn bytes(&self) -> usize {
        self.items * self.width
    }

    pub fn addr_of(&self, item: usize) -> u64 {
        self.base + (item * self.width) as u64
    }

    /// Lines of size `line` this region spans.
    pub fn lines(&self, line: usize) -> u64 {
        (self.bytes() as u64).div_ceil(line as u64)
    }
}

/// Expected (sequential, random) miss counts at one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MissEstimate {
    pub seq: f64,
    pub rand: f64,
}

impl MissEstimate {
    pub fn total(&self) -> f64 {
        self.seq + self.rand
    }

    fn add(&mut self, o: MissEstimate) {
        self.seq += o.seq;
        self.rand += o.rand;
    }
}

/// A basic or compound access pattern.
#[derive(Debug, Clone)]
pub enum Pattern {
    /// Sequential traversal: touch each item of the region once, in order.
    STrav { region: Region },
    /// Random traversal: touch each item exactly once, in random order.
    RTrav { region: Region, seed: u64 },
    /// Repetitive random access: `accesses` uniform random item reads.
    RRAcc {
        region: Region,
        accesses: usize,
        seed: u64,
    },
    /// Interleaved multi-cursor access: one write per item of `region`,
    /// each appended to the cursor of a randomly chosen one of `cursors`
    /// clusters, which lie back to back at their histogram offsets (the
    /// radix-cluster output pattern). Thrashes when the cursor count
    /// exceeds cache lines or TLB entries.
    Interleaved {
        region: Region,
        cursors: usize,
        seed: u64,
    },
    /// Sequential composition: patterns executed one after another.
    Seq(Vec<Pattern>),
}

/// Minimal deterministic RNG (xorshift64*), so traces are reproducible and
/// the crate stays dependency-free.
#[derive(Debug, Clone)]
pub struct XorShift(u64);

impl XorShift {
    pub fn new(seed: u64) -> XorShift {
        XorShift(seed.max(1))
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Where each of `fanout` clusters starts when they lie back to back from
/// `start` in cluster order: the prefix sum of the histogram of `targets`,
/// the cluster each item goes to. This is how `algebra::radix_cluster`
/// places its clusters in one output buffer.
pub fn histogram_offsets(
    targets: impl Iterator<Item = usize>,
    fanout: usize,
    start: usize,
) -> Vec<usize> {
    let mut offsets = vec![0usize; fanout];
    for c in targets {
        offsets[c] += 1;
    }
    let mut at = start;
    for o in &mut offsets {
        (*o, at) = (at, at + *o);
    }
    offsets
}

/// Capacity/granule view shared by cache levels and the TLB, so prediction
/// formulas are written once.
#[derive(Debug, Clone, Copy)]
pub struct LevelView {
    pub capacity: usize,
    pub granule: usize,
    pub granules: usize,
}

impl From<&CacheLevel> for LevelView {
    fn from(l: &CacheLevel) -> Self {
        LevelView {
            capacity: l.capacity,
            granule: l.line_size,
            granules: l.lines(),
        }
    }
}

impl From<&Tlb> for LevelView {
    fn from(t: &Tlb) -> Self {
        LevelView {
            capacity: t.reach(),
            granule: t.page_size,
            granules: t.entries,
        }
    }
}

impl Pattern {
    /// Analytic expected misses of this pattern at one level.
    pub fn predicted(&self, level: LevelView) -> MissEstimate {
        let granule = level.granule as f64;
        let cap = level.capacity as f64;
        match self {
            Pattern::STrav { region } => MissEstimate {
                seq: region.lines(level.granule) as f64,
                rand: 0.0,
            },
            Pattern::RTrav { region, .. } => {
                let lines = region.lines(level.granule) as f64;
                let n = region.items as f64;
                let bytes = region.bytes() as f64;
                let rand = if bytes <= cap {
                    lines
                } else {
                    // compulsory misses plus capacity misses: once the
                    // region exceeds the cache, a revisited line survives
                    // with probability ~ cap/bytes.
                    lines + (n - lines).max(0.0) * (1.0 - cap / bytes)
                };
                MissEstimate { seq: 0.0, rand }
            }
            Pattern::RRAcc {
                region, accesses, ..
            } => {
                let lines = region.lines(level.granule) as f64;
                let r = *accesses as f64;
                let bytes = region.bytes() as f64;
                // expected distinct lines touched by r uniform accesses
                let distinct = lines * (1.0 - (1.0 - 1.0 / lines).powf(r));
                let rand = if bytes <= cap {
                    distinct
                } else {
                    distinct + (r - distinct).max(0.0) * (1.0 - cap / bytes)
                };
                MissEstimate { seq: 0.0, rand }
            }
            Pattern::Interleaved {
                region, cursors, ..
            } => {
                let h = *cursors as f64;
                let compulsory = region.lines(level.granule) as f64;
                if h <= level.granules as f64 {
                    // all cursors keep their line resident: pure sequential
                    MissEstimate {
                        seq: compulsory,
                        rand: 0.0,
                    }
                } else {
                    // cursor lines compete for granules; a cursor's line is
                    // still cached on revisit with probability lines/H.
                    let p_evicted = 1.0 - level.granules as f64 / h;
                    let items_per_line = (granule / region.width as f64).max(1.0);
                    let revisits = region.items as f64 * (1.0 - 1.0 / items_per_line);
                    MissEstimate {
                        seq: compulsory,
                        rand: revisits * p_evicted,
                    }
                }
            }
            Pattern::Seq(ps) => {
                let mut e = MissEstimate::default();
                for p in ps {
                    e.add(p.predicted(level));
                }
                e
            }
        }
    }

    /// Analytic misses for every cache level plus the TLB.
    pub fn predicted_all(&self, h: &MemoryHierarchy) -> (Vec<MissEstimate>, MissEstimate) {
        let levels = h
            .levels
            .iter()
            .map(|l| self.predicted(LevelView::from(l)))
            .collect();
        (levels, self.predicted(LevelView::from(&h.tlb)))
    }

    /// Materialize the executable address trace of this pattern.
    pub fn trace(&self) -> Vec<(u64, AccessKind)> {
        let mut out = Vec::new();
        self.trace_into(&mut out);
        out
    }

    fn trace_into(&self, out: &mut Vec<(u64, AccessKind)>) {
        match self {
            Pattern::STrav { region } => {
                out.reserve(region.items);
                for i in 0..region.items {
                    out.push((region.addr_of(i), AccessKind::Sequential));
                }
            }
            Pattern::RTrav { region, seed } => {
                let mut order: Vec<usize> = (0..region.items).collect();
                let mut rng = XorShift::new(*seed);
                // Fisher-Yates
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.below(i + 1));
                }
                out.reserve(order.len());
                for i in order {
                    out.push((region.addr_of(i), AccessKind::Random));
                }
            }
            Pattern::RRAcc {
                region,
                accesses,
                seed,
            } => {
                let mut rng = XorShift::new(*seed);
                out.reserve(*accesses);
                for _ in 0..*accesses {
                    out.push((
                        region.addr_of(rng.below(region.items.max(1))),
                        AccessKind::Random,
                    ));
                }
            }
            Pattern::Interleaved {
                region,
                cursors,
                seed,
            } => {
                let mut rng = XorShift::new(*seed);
                let targets: Vec<usize> = (0..region.items).map(|_| rng.below(*cursors)).collect();
                let mut at = histogram_offsets(targets.iter().copied(), *cursors, 0);
                out.reserve(targets.len());
                for c in targets {
                    // From the cache's perspective each cursor advances
                    // sequentially, but the interleaving makes residency the
                    // question — tag as Sequential so the *miss split* shows
                    // the thrashing (misses explode although the stream is
                    // "sequential" per cursor). Tagging random would hide
                    // the effect the model is after.
                    out.push((region.addr_of(at[c]), AccessKind::Sequential));
                    at[c] += 1;
                }
            }
            Pattern::Seq(ps) => {
                for p in ps {
                    p.trace_into(out);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::MemoryHierarchy;
    use crate::sim::HierarchySim;

    fn l1_view() -> LevelView {
        LevelView::from(&MemoryHierarchy::tiny_test().levels[0])
    }

    #[test]
    fn region_geometry() {
        let r = Region::new(0, 100, 4);
        assert_eq!(r.bytes(), 400);
        assert_eq!(r.lines(16), 25);
        assert_eq!(r.addr_of(3), 12);
        let mut cur = 0;
        let a = Region::alloc(&mut cur, 10, 8);
        let b = Region::alloc(&mut cur, 10, 8);
        assert!(b.base >= a.base + a.bytes() as u64);
        assert_eq!(b.base % (1 << 21), 0);
    }

    #[test]
    fn strav_prediction_matches_sim_exactly() {
        let h = MemoryHierarchy::tiny_test();
        let region = Region::new(0, 64, 4); // 256B = 16 lines
        let p = Pattern::STrav { region };
        let (pred, tlb_pred) = p.predicted_all(&h);
        let mut sim = HierarchySim::new(&h);
        sim.run(p.trace());
        let r = sim.report();
        assert_eq!(r.levels[0].total() as f64, pred[0].total());
        assert_eq!(r.levels[1].total() as f64, pred[1].total());
        assert_eq!(r.tlb.total() as f64, tlb_pred.total());
    }

    #[test]
    fn rtrav_fitting_region_predicts_compulsory_only() {
        let h = MemoryHierarchy::tiny_test();
        let region = Region::new(0, 32, 4); // 128B < L1
        let p = Pattern::RTrav { region, seed: 7 };
        let (pred, _) = p.predicted_all(&h);
        let mut sim = HierarchySim::new(&h);
        sim.run(p.trace());
        assert_eq!(sim.report().levels[0].total() as f64, pred[0].total());
        assert_eq!(pred[0].rand, 8.0);
    }

    #[test]
    fn rtrav_oversized_region_predicts_thrashing_within_tolerance() {
        let h = MemoryHierarchy::tiny_test();
        // 4 KB region, 16x the 256B L1
        let region = Region::new(0, 1024, 4);
        let p = Pattern::RTrav { region, seed: 11 };
        let (pred, _) = p.predicted_all(&h);
        let mut sim = HierarchySim::new(&h);
        sim.run(p.trace());
        let measured = sim.report().levels[0].total() as f64;
        let predicted = pred[0].total();
        let err = (measured - predicted).abs() / measured;
        assert!(
            err < 0.25,
            "prediction {predicted} vs measured {measured}: err {err}"
        );
    }

    #[test]
    fn rracc_prediction_reasonable() {
        let h = MemoryHierarchy::tiny_test();
        let region = Region::new(0, 256, 4); // 1KB = 4x L1, fits L2
        let p = Pattern::RRAcc {
            region,
            accesses: 4096,
            seed: 3,
        };
        let (pred, _) = p.predicted_all(&h);
        let mut sim = HierarchySim::new(&h);
        sim.run(p.trace());
        let measured = sim.report().levels[0].total() as f64;
        let err = (measured - pred[0].total()).abs() / measured;
        assert!(err < 0.3, "err {err}");
        // L2 holds the region: only compulsory misses there
        let l2 = sim.report().levels[1].total() as f64;
        assert!((l2 - pred[1].total()).abs() / l2 < 0.2);
    }

    #[test]
    fn interleaved_few_cursors_is_sequential() {
        let h = MemoryHierarchy::tiny_test();
        let p = Pattern::Interleaved {
            region: Region::new(0, 256, 4),
            cursors: 4,
            seed: 5,
        };
        let view = LevelView::from(&h.levels[1]); // 64 lines >= 4 cursors
        let e = p.predicted(view);
        assert_eq!(e.rand, 0.0);
        // compulsory misses over the one buffer: 1 KB in 16-byte lines
        assert_eq!(e.seq, 64.0);
    }

    #[test]
    fn interleaved_many_cursors_thrashes() {
        let l1 = l1_view(); // 16 lines
        let p = Pattern::Interleaved {
            region: Region::new(0, 4096, 4),
            cursors: 64,
            seed: 5,
        };
        let e = p.predicted(l1);
        assert!(e.rand > 1000.0, "rand misses should explode: {e:?}");
    }

    #[test]
    fn interleaved_trace_writes_every_slot_once_at_histogram_offsets() {
        let region = Region::new(0, 1000, 8);
        let p = Pattern::Interleaved {
            region: region.clone(),
            cursors: 7,
            seed: 3,
        };
        let trace = p.trace();
        let mut addrs: Vec<u64> = trace.iter().map(|(a, _)| *a).collect();
        addrs.sort_unstable();
        let expect: Vec<u64> = (0..1000).map(|i| region.addr_of(i)).collect();
        assert_eq!(addrs, expect);
        assert_eq!(
            histogram_offsets([2, 0, 2, 1].into_iter(), 4, 10),
            [10, 11, 12, 14]
        );
    }

    #[test]
    fn seq_composes_additively() {
        let r1 = Region::new(0, 64, 4);
        let r2 = Region::new(1 << 22, 64, 4);
        let single = Pattern::STrav { region: r1.clone() }.predicted(l1_view());
        let both = Pattern::Seq(vec![
            Pattern::STrav { region: r1 },
            Pattern::STrav { region: r2 },
        ])
        .predicted(l1_view());
        assert_eq!(both.total(), 2.0 * single.total());
    }

    #[test]
    fn traces_are_deterministic() {
        let p = Pattern::RRAcc {
            region: Region::new(0, 100, 8),
            accesses: 50,
            seed: 42,
        };
        assert_eq!(p.trace(), p.trace());
    }

    #[test]
    fn rtrav_is_a_permutation() {
        let region = Region::new(0, 257, 8);
        let p = Pattern::RTrav {
            region: region.clone(),
            seed: 9,
        };
        let mut addrs: Vec<u64> = p.trace().iter().map(|(a, _)| *a).collect();
        addrs.sort_unstable();
        let expect: Vec<u64> = (0..257).map(|i| region.addr_of(i)).collect();
        assert_eq!(addrs, expect);
    }
}
