//! Cache-Sensitive Search tree (CSS-tree).
//!
//! Rao & Ross, VLDB 1999 — one of the three "architecture-aware VLDB 1999
//! papers" §7 credits as seeds of the field. The key ideas reproduced:
//! eliminate internal-node pointers by storing the tree as one array with
//! arithmetic child addressing, and size nodes to cache lines. The tree is
//! read-only, built over a *sorted* array, and returns positions into it.
//!
//! The layout is compact (no complete-tree padding): each internal level is
//! exactly `ceil(children / fanout)` nodes, stored root-first in one flat
//! separator array with per-level offsets. Child addressing is
//! `node * fanout + branch` — arithmetic, never a pointer.

use std::fmt::Debug;

/// Keys per node. 16 × 4-byte keys = one 64-byte line for i32; for i64 two
/// lines — still far better locality than pointer chasing.
const NODE_KEYS: usize = 16;
const FANOUT: usize = NODE_KEYS + 1;

#[derive(Debug, Clone, Copy)]
struct LevelMeta {
    /// Offset of this level's separators in `seps`.
    offset: usize,
    /// Nodes at this level.
    nodes: usize,
}

/// A read-only cache-sensitive search tree over a sorted array.
#[derive(Debug, Clone)]
pub struct CssTree<K: Ord + Copy + Debug> {
    /// Internal levels root-first.
    levels: Vec<LevelMeta>,
    /// All separators, `NODE_KEYS` per node, padded with the max key.
    seps: Vec<K>,
    /// The sorted key array (the leaf "level" is the data itself).
    keys: Vec<K>,
}

impl<K: Ord + Copy + Debug> CssTree<K> {
    /// Build over `keys`, which must be sorted ascending.
    ///
    /// Panics in debug builds on unsorted input.
    pub fn build(keys: Vec<K>) -> CssTree<K> {
        debug_assert!(
            keys.windows(2).all(|w| w[0] <= w[1]),
            "input must be sorted"
        );
        let n = keys.len();
        if n == 0 {
            return CssTree {
                levels: Vec::new(),
                seps: Vec::new(),
                keys,
            };
        }
        let max_key = *keys.last().unwrap();
        let n_groups = n.div_ceil(NODE_KEYS);

        // Level sizes bottom-up: how many nodes until one root remains.
        let mut counts = Vec::new(); // (nodes, groups_per_node), bottom-up
        let mut children = n_groups;
        let mut groups_per_child = 1usize;
        while children > 1 {
            let nodes = children.div_ceil(FANOUT);
            counts.push((nodes, groups_per_child * FANOUT));
            children = nodes;
            groups_per_child *= FANOUT;
        }
        counts.reverse(); // root-first

        let mut levels = Vec::with_capacity(counts.len());
        let mut seps = Vec::new();
        for (nodes, groups_per_node) in counts {
            let offset = seps.len();
            let child_groups = groups_per_node / FANOUT;
            let _ = groups_per_node;
            for node in 0..nodes {
                for s in 1..=NODE_KEYS {
                    // first key slot of child `node*FANOUT + s`
                    let slot = (node * FANOUT + s) * child_groups * NODE_KEYS;
                    seps.push(if slot < n { keys[slot] } else { max_key });
                }
            }
            levels.push(LevelMeta { offset, nodes });
        }
        CssTree { levels, seps, keys }
    }

    /// Position of the first key `>= key` (lower bound), or `len()`.
    pub(crate) fn lower_bound(&self, key: K) -> usize {
        let n = self.keys.len();
        if n == 0 {
            return 0;
        }
        let mut node = 0usize;
        for (i, level) in self.levels.iter().enumerate() {
            let seps =
                &self.seps[level.offset + node * NODE_KEYS..level.offset + (node + 1) * NODE_KEYS];
            // `s < key`: duplicates of a separator can extend into the
            // child left of it; lower-bound must take the leftmost.
            let branch = seps.partition_point(|&s| s < key);
            let child = node * FANOUT + branch;
            let next_nodes = match self.levels.get(i + 1) {
                Some(l) => l.nodes,
                None => n.div_ceil(NODE_KEYS), // leaf groups
            };
            node = child.min(next_nodes - 1);
        }
        // search the final key group directly in the data array
        let start = (node * NODE_KEYS).min(n);
        let end = (start + NODE_KEYS).min(n);
        start + self.keys[start..end].partition_point(|&k| k < key)
    }

    /// Position of `key` if present (first occurrence).
    pub fn get(&self, key: K) -> Option<usize> {
        let p = self.lower_bound(key);
        (p < self.keys.len() && self.keys[p] == key).then_some(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn small_trees() {
        let t = CssTree::build(Vec::<i64>::new());
        assert_eq!(t.lower_bound(1), 0);
        assert_eq!(t.get(1), None);

        let t = CssTree::build(vec![5i64]);
        assert_eq!(t.get(5), Some(0));
        assert_eq!(t.get(4), None);
        assert_eq!(t.lower_bound(9), 1);
        assert_eq!(t.levels.len(), 0);
    }

    #[test]
    fn exact_and_missing_lookups() {
        let keys: Vec<i64> = (0..10_000).map(|i| i * 3).collect();
        let t = CssTree::build(keys.clone());
        assert!(t.levels.len() >= 2);
        for i in (0..10_000).step_by(97) {
            assert_eq!(t.get(i * 3), Some(i as usize), "key {}", i * 3);
            assert_eq!(t.get(i * 3 + 1), None);
        }
        assert_eq!(t.get(-1), None);
        assert_eq!(t.lower_bound(i64::MAX), 10_000);
    }

    #[test]
    fn lower_bound_matches_binary_search() {
        let keys: Vec<i64> = (0..5000).map(|i| (i / 3) * 7).collect(); // duplicates
        let t = CssTree::build(keys.clone());
        for probe in -5..12_000 {
            let expect = keys.partition_point(|&k| k < probe);
            assert_eq!(t.lower_bound(probe), expect, "probe {probe}");
        }
    }

    #[test]
    fn all_equal_keys() {
        let t = CssTree::build(vec![4i64; 1000]);
        assert_eq!(t.lower_bound(4), 0);
        assert_eq!(t.get(4), Some(0));
        assert_eq!(t.lower_bound(5), 1000);
    }

    proptest! {
        #[test]
        fn prop_matches_partition_point(mut keys in proptest::collection::vec(-500i64..500, 0..600),
                                        probes in proptest::collection::vec(-600i64..600, 20)) {
            keys.sort_unstable();
            let t = CssTree::build(keys.clone());
            for p in probes {
                prop_assert_eq!(t.lower_bound(p), keys.partition_point(|&k| k < p));
            }
        }
    }
}
