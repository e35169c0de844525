//! A multi-level set-associative cache + TLB simulator.
//!
//! This is the stand-in for hardware performance counters: it replays an
//! address trace through LRU set-associative caches and counts misses per
//! level, split into sequential and random according to the access-kind
//! annotation carried by the trace.

use crate::hierarchy::MemoryHierarchy;
use crate::pattern::AccessKind;

/// One set-associative LRU cache (or TLB, at page granularity).
#[derive(Debug)]
struct SetAssoc {
    /// `sets[s]` holds tags in LRU order (front = least recent).
    sets: Vec<Vec<u64>>,
    ways: usize,
    granule_shift: u32,
    set_mask: u64,
}

impl SetAssoc {
    fn new(capacity_granules: usize, granule: usize, associativity: usize) -> SetAssoc {
        assert!(granule.is_power_of_two(), "granule must be a power of two");
        let ways = associativity.min(capacity_granules).max(1);
        let nsets = (capacity_granules / ways).max(1);
        assert!(
            nsets.is_power_of_two(),
            "set count must be a power of two (capacity {capacity_granules} granules / {ways} ways)"
        );
        SetAssoc {
            sets: vec![Vec::with_capacity(ways); nsets],
            ways,
            granule_shift: granule.trailing_zeros(),
            set_mask: (nsets - 1) as u64,
        }
    }

    /// Access `addr`; returns true on a miss (and installs the granule).
    fn access(&mut self, addr: u64) -> bool {
        let tag = addr >> self.granule_shift;
        let set = &mut self.sets[(tag & self.set_mask) as usize];
        if let Some(pos) = set.iter().position(|&t| t == tag) {
            // hit: move to MRU position
            let t = set.remove(pos);
            set.push(t);
            false
        } else {
            if set.len() == self.ways {
                set.remove(0); // evict LRU
            }
            set.push(tag);
            true
        }
    }
}

/// Miss counters for one level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelStats {
    pub(crate) seq_misses: u64,
    pub(crate) rand_misses: u64,
}

impl LevelStats {
    pub fn total(&self) -> u64 {
        self.seq_misses + self.rand_misses
    }
}

/// The outcome of replaying a trace.
#[derive(Debug, Clone, Default)]
pub struct SimReport {
    pub accesses: u64,
    /// Per cache level, innermost first.
    pub levels: Vec<LevelStats>,
    pub(crate) tlb: LevelStats,
}

impl SimReport {
    /// Score the counted misses with the hierarchy's latencies:
    /// `TMem = Σ (Ms·ls + Mr·lr) + Mtlb·ltlb` (in cycles).
    pub fn cost(&self, h: &MemoryHierarchy) -> u64 {
        let mut total = 0;
        for (stats, level) in self.levels.iter().zip(&h.levels) {
            total += stats.seq_misses * level.seq_miss_latency
                + stats.rand_misses * level.rand_miss_latency;
        }
        total += self.tlb.total() * h.tlb.miss_latency;
        total
    }
}

/// A simulator instance for a given hierarchy.
#[derive(Debug)]
pub struct HierarchySim {
    hierarchy: MemoryHierarchy,
    levels: Vec<SetAssoc>,
    tlb: SetAssoc,
    report: SimReport,
}

impl HierarchySim {
    pub fn new(hierarchy: &MemoryHierarchy) -> HierarchySim {
        let levels = hierarchy
            .levels
            .iter()
            .map(|l| SetAssoc::new(l.lines(), l.line_size, l.associativity))
            .collect::<Vec<_>>();
        let tlb = SetAssoc::new(
            hierarchy.tlb.entries,
            hierarchy.tlb.page_size,
            hierarchy.tlb.associativity,
        );
        HierarchySim {
            hierarchy: hierarchy.clone(),
            report: SimReport {
                levels: vec![LevelStats::default(); hierarchy.levels.len()],
                ..SimReport::default()
            },
            levels,
            tlb,
        }
    }

    /// Replay one memory access.
    ///
    /// The hierarchy is modeled as inclusive: an access probes L1; only on a
    /// miss does it probe L2, and so on. The TLB is probed on every access.
    pub fn access(&mut self, addr: u64, kind: AccessKind) {
        self.report.accesses += 1;
        for (cache, stats) in self.levels.iter_mut().zip(&mut self.report.levels) {
            let miss = cache.access(addr);
            if !miss {
                break;
            }
            match kind {
                AccessKind::Sequential => stats.seq_misses += 1,
                AccessKind::Random => stats.rand_misses += 1,
            }
        }
        if self.tlb.access(addr) {
            match kind {
                AccessKind::Sequential => self.report.tlb.seq_misses += 1,
                AccessKind::Random => self.report.tlb.rand_misses += 1,
            }
        }
    }

    /// Replay a whole trace.
    pub fn run<I: IntoIterator<Item = (u64, AccessKind)>>(&mut self, trace: I) {
        for (addr, kind) in trace {
            self.access(addr, kind);
        }
    }

    pub fn report(&self) -> &SimReport {
        &self.report
    }

    /// Total simulated memory cost in cycles.
    pub fn cost(&self) -> u64 {
        self.report.cost(&self.hierarchy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::MemoryHierarchy;
    use crate::pattern::AccessKind::{Random, Sequential};

    fn tiny() -> HierarchySim {
        HierarchySim::new(&MemoryHierarchy::tiny_test())
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut s = tiny();
        s.access(0, Random);
        s.access(0, Random);
        s.access(8, Random); // same 16-byte line
        let r = s.report();
        assert_eq!(r.accesses, 3);
        assert_eq!(r.levels[0].rand_misses, 1);
        assert_eq!(r.levels[1].rand_misses, 1);
        assert_eq!(r.tlb.rand_misses, 1);
    }

    #[test]
    fn sequential_scan_misses_once_per_line() {
        let mut s = tiny();
        // 256 bytes = 16 lines of 16B; scan byte-by-byte
        for a in 0..256u64 {
            s.access(a, Sequential);
        }
        let r = s.report();
        assert_eq!(r.levels[0].seq_misses, 16);
        assert_eq!(r.levels[0].rand_misses, 0);
        // 2 pages of 128B
        assert_eq!(r.tlb.seq_misses, 2);
    }

    #[test]
    fn working_set_fitting_l1_never_misses_after_warmup() {
        let mut s = tiny();
        // L1 = 256B, fully covered working set of 128B
        for round in 0..10 {
            for a in (0..128u64).step_by(16) {
                s.access(a, Random);
            }
            if round == 0 {
                assert_eq!(s.report().levels[0].total(), 8);
            }
        }
        // only the compulsory 8 misses
        assert_eq!(s.report().levels[0].total(), 8);
    }

    #[test]
    fn capacity_thrashing_in_l1_hits_l2() {
        let mut s = tiny();
        // working set 512B = 2x L1 (256B), fits L2 (1024B).
        // Cyclic scan + LRU = pathological: every access misses L1.
        for _ in 0..4 {
            for a in (0..512u64).step_by(16) {
                s.access(a, Random);
            }
        }
        let r = s.report();
        assert_eq!(r.levels[0].total(), 4 * 32); // all L1 accesses miss
        assert_eq!(r.levels[1].total(), 32); // but L2 holds the set
    }

    #[test]
    fn associativity_conflicts() {
        // 2-way L1 with 8 sets; three lines mapping to the same set thrash
        // even though capacity is free.
        let mut s = tiny();
        let set_stride = 16 * 8; // line_size * nsets
        for _ in 0..10 {
            for k in 0..3u64 {
                s.access(k * set_stride as u64, Random);
            }
        }
        let r = s.report();
        assert_eq!(r.levels[0].total(), 30, "every access conflicts in L1");
        // L2 is 4-way: 3 ways suffice, so after warmup no L2 misses
        assert_eq!(r.levels[1].total(), 3);
    }

    #[test]
    fn tlb_counts_pages_not_lines() {
        let mut s = tiny();
        // 8 pages of 128B fit the 8-entry TLB; the 9th evicts.
        for p in 0..9u64 {
            s.access(p * 128, Random);
        }
        assert_eq!(s.report().tlb.total(), 9);
        // revisit page 0: evicted by page 8 (fully assoc LRU)
        s.access(0, Random);
        assert_eq!(s.report().tlb.total(), 10);
    }

    #[test]
    fn cost_weights_latencies() {
        let h = MemoryHierarchy::tiny_test();
        let mut s = HierarchySim::new(&h);
        s.access(0, Sequential); // L1 seq (2) + L2 seq (10) + TLB (20)
        assert_eq!(s.cost(), 2 + 10 + 20);
        let mut s = HierarchySim::new(&h);
        s.access(0, Random); // 10 + 60 + 20
        assert_eq!(s.cost(), 90);
    }
}
