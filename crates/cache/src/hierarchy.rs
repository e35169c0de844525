//! Memory-hierarchy descriptions.
//!
//! A hierarchy is an ordered list of cache levels (L1 closest to the CPU)
//! plus a TLB. Each level carries the parameters the cost model needs: size,
//! line size, associativity, and the latencies of sequential and random
//! misses. Sequential misses are cheaper than random ones on real hardware
//! because prefetchers and open DRAM pages hide part of the latency — the
//! distinction is load-bearing for the whole §4 story.

/// One cache level (data cache).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheLevel {
    pub name: &'static str,
    /// Total capacity in bytes.
    pub capacity: usize,
    /// Cache line size in bytes.
    pub(crate) line_size: usize,
    /// Set associativity (ways). `usize::MAX` models full associativity.
    pub(crate) associativity: usize,
    /// Cycles to service a miss at this level when the access stream is
    /// sequential (prefetch-friendly).
    pub(crate) seq_miss_latency: u64,
    /// Cycles to service a miss when the stream is random.
    pub(crate) rand_miss_latency: u64,
}

impl CacheLevel {
    /// Number of lines this level holds.
    pub fn lines(&self) -> usize {
        self.capacity / self.line_size
    }
}

/// A translation look-aside buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Tlb {
    pub entries: usize,
    pub(crate) page_size: usize,
    pub(crate) associativity: usize,
    /// Cycles per TLB miss (page-table walk).
    pub(crate) miss_latency: u64,
}

impl Tlb {
    /// The address span covered by the TLB.
    pub fn reach(&self) -> usize {
        self.entries * self.page_size
    }
}

/// A full memory hierarchy: L1..Ln plus a TLB.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryHierarchy {
    pub levels: Vec<CacheLevel>,
    pub(crate) tlb: Tlb,
}

impl MemoryHierarchy {
    /// The Pentium 4 Xeon configuration referenced in §4.3 (512 KB L2).
    pub fn pentium4_xeon() -> Self {
        MemoryHierarchy {
            levels: vec![
                CacheLevel {
                    name: "L1",
                    capacity: 8 * 1024,
                    line_size: 64,
                    associativity: 4,
                    seq_miss_latency: 4,
                    rand_miss_latency: 18,
                },
                CacheLevel {
                    name: "L2",
                    capacity: 512 * 1024,
                    line_size: 128,
                    associativity: 8,
                    seq_miss_latency: 24,
                    rand_miss_latency: 200,
                },
            ],
            tlb: Tlb {
                entries: 64,
                page_size: 4096,
                associativity: 64,
                miss_latency: 30,
            },
        }
    }

    /// The Itanium2 configuration referenced in §4.3 (6 MB L3).
    pub fn itanium2() -> Self {
        MemoryHierarchy {
            levels: vec![
                CacheLevel {
                    name: "L1",
                    capacity: 16 * 1024,
                    line_size: 64,
                    associativity: 4,
                    seq_miss_latency: 2,
                    rand_miss_latency: 6,
                },
                CacheLevel {
                    name: "L2",
                    capacity: 256 * 1024,
                    line_size: 128,
                    associativity: 8,
                    seq_miss_latency: 8,
                    rand_miss_latency: 24,
                },
                CacheLevel {
                    name: "L3",
                    capacity: 6 * 1024 * 1024,
                    line_size: 128,
                    associativity: 12,
                    seq_miss_latency: 40,
                    rand_miss_latency: 220,
                },
            ],
            tlb: Tlb {
                entries: 128,
                page_size: 16 * 1024,
                associativity: 128,
                miss_latency: 32,
            },
        }
    }

    /// A generic present-day x86 core; the default for experiments.
    pub fn generic_modern() -> Self {
        MemoryHierarchy {
            levels: vec![
                CacheLevel {
                    name: "L1",
                    capacity: 32 * 1024,
                    line_size: 64,
                    associativity: 8,
                    seq_miss_latency: 3,
                    rand_miss_latency: 12,
                },
                CacheLevel {
                    name: "L2",
                    capacity: 1024 * 1024,
                    line_size: 64,
                    associativity: 16,
                    seq_miss_latency: 12,
                    rand_miss_latency: 45,
                },
                CacheLevel {
                    name: "LLC",
                    capacity: 8 * 1024 * 1024,
                    line_size: 64,
                    associativity: 16,
                    seq_miss_latency: 30,
                    rand_miss_latency: 180,
                },
            ],
            tlb: Tlb {
                entries: 64,
                page_size: 4096,
                associativity: 4,
                miss_latency: 25,
            },
        }
    }

    /// A deliberately tiny hierarchy for fast, exhaustive unit tests.
    #[cfg(test)]
    pub(crate) fn tiny_test() -> Self {
        MemoryHierarchy {
            levels: vec![
                CacheLevel {
                    name: "L1",
                    capacity: 256,
                    line_size: 16,
                    associativity: 2,
                    seq_miss_latency: 2,
                    rand_miss_latency: 10,
                },
                CacheLevel {
                    name: "L2",
                    capacity: 1024,
                    line_size: 16,
                    associativity: 4,
                    seq_miss_latency: 10,
                    rand_miss_latency: 60,
                },
            ],
            tlb: Tlb {
                entries: 8,
                page_size: 128,
                associativity: 8,
                miss_latency: 20,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_geometry() {
        let h = MemoryHierarchy::generic_modern();
        let l1 = &h.levels[0];
        assert_eq!(l1.lines(), 512);
        assert_eq!(h.tlb.reach(), 64 * 4096);
    }

    #[test]
    fn full_associativity_is_one_set() {
        let mut h = MemoryHierarchy::tiny_test();
        h.levels.truncate(1);
        h.levels[0].associativity = usize::MAX;
        assert_eq!(h.levels[0].lines(), 16);
        // 16 lines a whole capacity apart would share one set of a
        // set-associative level; one set of 16 ways holds them all
        let mut sim = crate::sim::HierarchySim::new(&h);
        for _ in 0..2 {
            for k in 0..16u64 {
                sim.access(k * 256, crate::pattern::AccessKind::Random);
            }
        }
        assert_eq!(sim.report().levels[0].total(), 16);
    }

    #[test]
    fn presets_are_sane() {
        for h in [
            MemoryHierarchy::pentium4_xeon(),
            MemoryHierarchy::itanium2(),
            MemoryHierarchy::generic_modern(),
            MemoryHierarchy::tiny_test(),
        ] {
            assert!(!h.levels.is_empty());
            for w in h.levels.windows(2) {
                assert!(w[0].capacity < w[1].capacity, "levels grow outward");
                assert!(
                    w[0].rand_miss_latency <= w[1].rand_miss_latency,
                    "latency grows outward"
                );
            }
            for l in &h.levels {
                assert!(l.seq_miss_latency <= l.rand_miss_latency);
                assert!(l.capacity % l.line_size == 0);
            }
        }
    }
}
