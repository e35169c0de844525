//! A pointer-based B+-tree.
//!
//! This is the engine's stand-in for "B-tree lookup into slotted pages —
//! the approach traditionally used in database systems for fast record
//! lookup" (§3), i.e. the baseline that positional (void-head) access is
//! measured against in experiment E09. Nodes are individually heap
//! allocated so lookups pay real pointer-chasing costs, exactly the effect
//! the comparison is about. It supports bulk-load from sorted input and
//! point lookups.

use std::fmt::Debug;

/// Maximum keys per node (fanout - 1). 8 keys ≈ a 64-byte line of i64s,
/// deliberately page-like rather than cache-optimized.
const MAX_KEYS: usize = 8;

#[derive(Debug)]
enum Node<K: Ord + Copy + Debug> {
    Internal {
        /// `keys[i]` separates `children[i]` (< key) from `children[i+1]`.
        keys: Vec<K>,
        // the per-node Box is the point: descents must chase real pointers
        // (see the module docs), so don't flatten children into the Vec
        #[allow(clippy::vec_box)]
        children: Vec<Box<Node<K>>>,
    },
    Leaf {
        keys: Vec<K>,
        /// Positions in the indexed column, aligned with `keys`.
        positions: Vec<u64>,
    },
}

/// A B+-tree mapping keys to positions.
#[derive(Debug)]
pub struct BPlusTree<K: Ord + Copy + Debug> {
    root: Box<Node<K>>,
}

impl<K: Ord + Copy + Debug> BPlusTree<K> {
    /// An empty tree.
    pub fn new() -> Self {
        BPlusTree {
            root: Box::new(Node::Leaf {
                keys: Vec::new(),
                positions: Vec::new(),
            }),
        }
    }

    /// Bulk-load from `(key, position)` pairs sorted by key.
    ///
    /// Panics in debug builds if the input is unsorted.
    pub fn bulk_load(pairs: &[(K, u64)]) -> Self {
        debug_assert!(pairs.windows(2).all(|w| w[0].0 <= w[1].0));
        if pairs.is_empty() {
            return Self::new();
        }
        // Build the leaf level ~2/3 full: E09 measures a tree that has taken
        // inserts, whose leaves keep that much room.
        let per_leaf = (MAX_KEYS * 2 / 3).max(2);
        let mut level: Vec<(K, Box<Node<K>>)> = pairs
            .chunks(per_leaf)
            .map(|chunk| {
                let keys: Vec<K> = chunk.iter().map(|p| p.0).collect();
                let positions: Vec<u64> = chunk.iter().map(|p| p.1).collect();
                (keys[0], Box::new(Node::Leaf { keys, positions }))
            })
            .collect();
        while level.len() > 1 {
            let per_node = MAX_KEYS.max(2);
            level = level
                .chunks(per_node)
                .map(|chunk| {
                    let first_key = chunk[0].0;
                    let keys: Vec<K> = chunk[1..].iter().map(|c| c.0).collect();
                    let children: Vec<Box<Node<K>>> =
                        chunk.iter().map(|c| c.1.clone_box()).collect();
                    (first_key, Box::new(Node::Internal { keys, children }))
                })
                .collect();
        }
        BPlusTree {
            root: level.pop().unwrap().1,
        }
    }

    /// First position stored under `key`, if any.
    pub fn get(&self, key: K) -> Option<u64> {
        let mut node = &*self.root;
        loop {
            match node {
                Node::Internal { keys, children } => {
                    let idx = keys.partition_point(|&k| k <= key);
                    node = &children[idx];
                }
                Node::Leaf { keys, positions } => {
                    let idx = keys.partition_point(|&k| k < key);
                    return (idx < keys.len() && keys[idx] == key).then(|| positions[idx]);
                }
            }
        }
    }
}

impl<K: Ord + Copy + Debug> Node<K> {
    fn clone_box(&self) -> Box<Node<K>> {
        match self {
            Node::Leaf { keys, positions } => Box::new(Node::Leaf {
                keys: keys.clone(),
                positions: positions.clone(),
            }),
            Node::Internal { keys, children } => Box::new(Node::Internal {
                keys: keys.clone(),
                children: children.iter().map(|c| c.clone_box()).collect(),
            }),
        }
    }
}

impl<K: Ord + Copy + Debug> Default for BPlusTree<K> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Levels from the root down to the leftmost leaf.
    fn depth<K: Ord + Copy + Debug>(t: &BPlusTree<K>) -> usize {
        let mut node = &*t.root;
        let mut levels = 1;
        while let Node::Internal { children, .. } = node {
            node = &children[0];
            levels += 1;
        }
        levels
    }

    #[test]
    fn bulk_load_and_get() {
        let pairs: Vec<(i64, u64)> = (0..1000).map(|i| (i * 2, i as u64)).collect();
        let t = BPlusTree::bulk_load(&pairs);
        assert!(depth(&t) >= 3);
        for i in 0..1000i64 {
            assert_eq!(t.get(i * 2), Some(i as u64), "key {}", i * 2);
            assert_eq!(t.get(i * 2 + 1), None);
        }
    }

    #[test]
    fn empty_and_single() {
        let t: BPlusTree<i64> = BPlusTree::new();
        assert_eq!(t.get(1), None);
        let t = BPlusTree::bulk_load(&[(5i64, 50)]);
        assert_eq!(t.get(5), Some(50));
        assert_eq!(t.get(4), None);
    }

    proptest! {

        #[test]
        fn prop_bulk_load_finds_every_key(keys in proptest::collection::vec(0i64..500, 1..200)) {
            let mut sorted: Vec<(i64, u64)> =
                keys.iter().enumerate().map(|(i, &k)| (k, i as u64)).collect();
            sorted.sort_by_key(|p| p.0);
            let bulk = BPlusTree::bulk_load(&sorted);
            for &(k, _) in &sorted {
                prop_assert!(bulk.get(k).is_some());
            }
        }
    }
}
