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
//!   the simulator, so the two can be compared (experiment E06). The
//!   interleaved scatter's trace is the radix-cluster kernel's own.

use crate::hierarchy::{CacheLevel, MemoryHierarchy, Tlb};

pub use mammoth_types::AccessKind;

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

    fn scaled(self, by: f64) -> MissEstimate {
        MissEstimate {
            seq: self.seq * by,
            rand: self.rand * by,
        }
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
    Interleaved { region: Region, cursors: usize },
    /// Sequential composition: patterns executed one after another, each
    /// finding the caches as the ones before it left them.
    Seq(Vec<Pattern>),
    /// `pattern` run `times` times in a row over the same regions.
    Repeat { pattern: Box<Pattern>, times: usize },
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

    /// Fisher-Yates: `v` in a uniformly random order.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Capacity/granule view shared by cache levels and the TLB, so prediction
/// formulas are written once.
#[derive(Debug, Clone, Copy)]
pub struct LevelView {
    pub capacity: usize,
    pub(crate) granule: usize,
    pub(crate) granules: usize,
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

/// What one level still holds, as the patterns of a [`Pattern::Seq`] left
/// it: the byte ranges they touched, most recent first, none overlapping.
#[derive(Debug, Default)]
struct LruStack(Vec<(u64, u64)>);

impl LruStack {
    /// The fraction of `region` a level of `capacity` bytes still holds:
    /// walking from the most recent range, each keeps what fits in the
    /// capacity the ranges above it leave.
    fn resident(&self, region: &Region, capacity: usize) -> f64 {
        let (start, end) = (region.base, region.base + region.bytes() as u64);
        let (mut above, mut resident) = (0, 0.0);
        for &(a, b) in &self.0 {
            let kept = (capacity as u64).saturating_sub(above).min(b - a);
            let overlap = b.min(end).saturating_sub(a.max(start));
            resident += overlap as f64 * kept as f64 / (b - a).max(1) as f64;
            above += b - a;
        }
        resident / region.bytes().max(1) as f64
    }

    /// Put `region` on top, cutting it out of the ranges below.
    fn touch(&mut self, region: &Region) {
        let (start, end) = (region.base, region.base + region.bytes() as u64);
        let below = std::mem::take(&mut self.0);
        self.0.push((start, end));
        for (a, b) in below {
            if a < start {
                self.0.push((a, b.min(start)));
            }
            if b > end {
                self.0.push((a.max(end), b));
            }
        }
    }
}

impl Pattern {
    /// Analytic expected misses of this pattern at one level.
    ///
    /// [`Pattern::Seq`] carries the level's contents from one pattern to
    /// the next (Manegold's sequential composition): a pattern over a
    /// region an earlier one left resident pays no first-touch misses for
    /// the resident part. Every other miss, and every pattern on its own,
    /// is predicted as if the level started cold.
    pub fn predicted(&self, level: LevelView) -> MissEstimate {
        self.predicted_after(level, &mut LruStack::default())
    }

    fn predicted_after(&self, level: LevelView, stack: &mut LruStack) -> MissEstimate {
        let region = match self {
            Pattern::Seq(ps) => {
                let mut e = MissEstimate::default();
                for p in ps {
                    e.add(p.predicted_after(level, stack));
                }
                return e;
            }
            Pattern::Repeat { pattern, times } => {
                let mut e = MissEstimate::default();
                for round in 0..*times {
                    let before = stack.0.clone();
                    let misses = pattern.predicted_after(level, stack);
                    e.add(misses);
                    // a round that leaves the level as it found it is
                    // what every later round does
                    if stack.0 == before {
                        e.add(misses.scaled((times - round - 1) as f64));
                        break;
                    }
                }
                return e;
            }
            Pattern::STrav { region }
            | Pattern::RTrav { region, .. }
            | Pattern::RRAcc { region, .. }
            | Pattern::Interleaved { region, .. } => region,
        };
        let cold = 1.0 - stack.resident(region, level.capacity);
        stack.touch(region);
        let (first, mut e) = self.cold_misses(level);
        e.add(first.scaled(cold));
        e
    }

    /// A basic pattern's misses from a cold level: (first touches of its
    /// region's granules, every other miss).
    fn cold_misses(&self, level: LevelView) -> (MissEstimate, MissEstimate) {
        let seq = |seq| MissEstimate { seq, rand: 0.0 };
        let rand = |rand| MissEstimate { seq: 0.0, rand };
        // once a region exceeds the level, a revisited line survives with
        // probability ~ capacity/bytes
        let evicted = |r: &Region| (1.0 - level.capacity as f64 / r.bytes() as f64).max(0.0);
        match self {
            Pattern::STrav { region } => (seq(region.lines(level.granule) as f64), seq(0.0)),
            Pattern::RTrav { region, .. } => {
                // compulsory misses plus capacity misses on the revisits
                let lines = region.lines(level.granule) as f64;
                let revisits = (region.items as f64 - lines).max(0.0);
                (rand(lines), rand(revisits * evicted(region)))
            }
            Pattern::RRAcc {
                region, accesses, ..
            } => {
                // expected distinct lines touched by r uniform accesses
                let lines = region.lines(level.granule) as f64;
                let r = *accesses as f64;
                let distinct = lines * (1.0 - (1.0 - 1.0 / lines).powf(r));
                (
                    rand(distinct),
                    rand((r - distinct).max(0.0) * evicted(region)),
                )
            }
            Pattern::Interleaved {
                region, cursors, ..
            } => {
                // up to one cursor per granule every cursor keeps its line
                // resident: pure sequential. Past that the cursor lines
                // compete, and a cursor's line is still cached on revisit
                // with probability granules/H.
                let p_evicted = (1.0 - level.granules as f64 / *cursors as f64).max(0.0);
                let items_per_line = (level.granule as f64 / region.width as f64).max(1.0);
                let revisits = region.items as f64 * (1.0 - 1.0 / items_per_line);
                let compulsory = region.lines(level.granule) as f64;
                (seq(compulsory), rand(revisits * p_evicted))
            }
            Pattern::Seq(_) | Pattern::Repeat { .. } => {
                unreachable!("a compound pattern has no region of its own")
            }
        }
    }

    /// Analytic misses for every cache level plus the TLB.
    pub(crate) fn predicted_all(&self, h: &MemoryHierarchy) -> (Vec<MissEstimate>, MissEstimate) {
        let levels = h
            .levels
            .iter()
            .map(|l| self.predicted(LevelView::from(l)))
            .collect();
        (levels, self.predicted(LevelView::from(&h.tlb)))
    }

    /// Materialize the executable address trace of this pattern, or `None`
    /// when it holds a [`Pattern::Interleaved`]: that scatter has no trace
    /// to copy, the radix-cluster kernel replayed through a
    /// [`crate::Recorder`] is its trace.
    pub fn trace(&self) -> Option<Vec<(u64, AccessKind)>> {
        let mut out = Vec::new();
        self.trace_into(&mut out)?;
        Some(out)
    }

    fn trace_into(&self, out: &mut Vec<(u64, AccessKind)>) -> Option<()> {
        match self {
            Pattern::STrav { region } => {
                out.reserve(region.items);
                for i in 0..region.items {
                    out.push((region.addr_of(i), AccessKind::Sequential));
                }
            }
            Pattern::RTrav { region, seed } => {
                let mut order: Vec<usize> = (0..region.items).collect();
                XorShift::new(*seed).shuffle(&mut order);
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
            Pattern::Interleaved { .. } => return None,
            Pattern::Seq(ps) => {
                for p in ps {
                    p.trace_into(out)?;
                }
            }
            Pattern::Repeat { pattern, times } => {
                for _ in 0..*times {
                    pattern.trace_into(out)?;
                }
            }
        }
        Some(())
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
        sim.run(p.trace().unwrap());
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
        sim.run(p.trace().unwrap());
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
        sim.run(p.trace().unwrap());
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
        sim.run(p.trace().unwrap());
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
        };
        let view = LevelView::from(&h.levels[1]); // 64 lines >= 4 cursors
        let e = p.predicted(view);
        assert_eq!(e.rand, 0.0);
        // compulsory misses over the one buffer: 1 KB in 16-byte lines
        assert_eq!(e.seq, 64.0);
        // the kernel, recorded, is the scatter's trace: there is none to copy
        assert_eq!(Pattern::Seq(vec![p]).trace(), None);
    }

    #[test]
    fn interleaved_many_cursors_thrashes() {
        let l1 = l1_view(); // 16 lines
        let p = Pattern::Interleaved {
            region: Region::new(0, 4096, 4),
            cursors: 64,
        };
        let e = p.predicted(l1);
        assert!(e.rand > 1000.0, "rand misses should explode: {e:?}");
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
    fn seq_pays_no_first_touch_for_what_is_still_resident() {
        let h = MemoryHierarchy::tiny_test();
        let fits = Region::new(0, 32, 4); // 128 B: half of L1
        let rereads = Pattern::Seq(vec![
            Pattern::STrav {
                region: fits.clone(),
            },
            Pattern::RRAcc {
                region: fits.clone(),
                accesses: 100,
                seed: 1,
            },
            Pattern::STrav { region: fits },
        ]);
        let (pred, tlb) = rereads.predicted_all(&h);
        let mut sim = HierarchySim::new(&h);
        sim.run(rereads.trace().unwrap());
        assert_eq!(pred[0].total(), 8.0);
        assert_eq!(sim.report().levels[0].total() as f64, pred[0].total());
        assert_eq!(sim.report().tlb.total() as f64, tlb.total());
        // a 1 KB region keeps the last L1-full (a quarter) of itself
        let big = Region::new(0, 256, 4);
        let twice = Pattern::Seq(vec![
            Pattern::STrav {
                region: big.clone(),
            },
            Pattern::RRAcc {
                region: big,
                accesses: 1,
                seed: 1,
            },
        ]);
        assert_eq!(twice.predicted(l1_view()).total(), 64.0 + 0.75);
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
        let mut addrs: Vec<u64> = p.trace().unwrap().iter().map(|(a, _)| *a).collect();
        addrs.sort_unstable();
        let expect: Vec<u64> = (0..257).map(|i| region.addr_of(i)).collect();
        assert_eq!(addrs, expect);
    }
}
