//! Sideways cracking: self-organizing tuple reconstruction (\[18\], §6.1).
//!
//! Plain cracking reorganizes the selection column only; projecting other
//! attributes then needs a positional fetch through the row-id map — random
//! access again. Idreos et al.'s *cracker maps* fix this: a map stores the
//! selection attribute together with one projection attribute, and cracks
//! move both — so after a few queries, `σ(key) → project(val)` touches one
//! contiguous, cache-friendly region with no reconstruction step at all.

use std::collections::BTreeMap;

/// A two-column cracker map `<key, val>`, physically co-reorganized.
#[derive(Debug, Clone)]
pub struct CrackerMap<K: Ord + Copy, V: Copy> {
    keys: Vec<K>,
    vals: Vec<V>,
    /// partition points: `(key, and_equal)` → offset (see `cracker.rs`)
    index: BTreeMap<(K, bool), usize>,
    cracks: u64,
    touched: u64,
}

impl<K: Ord + Copy, V: Copy> CrackerMap<K, V> {
    /// Adopt aligned key/value columns (e.g. two attributes of one table).
    pub fn new(keys: Vec<K>, vals: Vec<V>) -> CrackerMap<K, V> {
        assert_eq!(keys.len(), vals.len(), "columns must be aligned");
        CrackerMap {
            keys,
            vals,
            index: BTreeMap::new(),
            cracks: 0,
            touched: 0,
        }
    }

    pub fn pieces(&self) -> usize {
        self.index.len() + 1
    }

    pub fn cracks_performed(&self) -> u64 {
        self.cracks
    }

    pub fn tuples_touched(&self) -> u64 {
        self.touched
    }

    fn crack(&mut self, k: (K, bool)) -> usize {
        if let Some(&off) = self.index.get(&k) {
            return off;
        }
        let lo = self.index.range(..&k).next_back().map_or(0, |(_, &o)| o);
        let hi = self
            .index
            .range((std::ops::Bound::Excluded(&k), std::ops::Bound::Unbounded))
            .next()
            .map_or(self.keys.len(), |(_, &o)| o);
        let below = |x: &K| if k.1 { *x <= k.0 } else { *x < k.0 };
        let (mut i, mut j) = (lo, hi);
        while i < j {
            if below(&self.keys[i]) {
                i += 1;
            } else {
                j -= 1;
                self.keys.swap(i, j);
                self.vals.swap(i, j); // the payload moves sideways too
            }
        }
        self.cracks += 1;
        self.touched += (hi - lo) as u64;
        self.index.insert(k, i);
        i
    }

    /// `σ(lo <= key < hi) → vals`: the qualifying *values* as one
    /// contiguous slice — selection and projection in a single step.
    pub(crate) fn select_project(&mut self, lo: K, hi: K) -> &[V] {
        let start = self.crack((lo, false));
        let end = self.crack((hi, false)).max(start);
        &self.vals[start..end]
    }

    /// Aggregate the projected values without materializing them.
    pub fn select_sum(&mut self, lo: K, hi: K) -> i64
    where
        V: Into<i64>,
    {
        self.select_project(lo, hi)
            .iter()
            .fold(0i64, |a, &v| a.wrapping_add(v.into()))
    }

    /// Invariant check: every partition point splits keys correctly and
    /// keys/vals stay aligned pairs of the original relation.
    #[cfg(test)]
    fn check_invariant(&self, original: &[(K, V)]) -> bool
    where
        K: std::fmt::Debug + Ord,
        V: PartialEq + Ord + std::fmt::Debug,
    {
        for (&(v, and_eq), &off) in &self.index {
            let ok_l = self.keys[..off]
                .iter()
                .all(|x| if and_eq { *x <= v } else { *x < v });
            let ok_r = self.keys[off..]
                .iter()
                .all(|x| if and_eq { *x > v } else { *x >= v });
            if !ok_l || !ok_r {
                return false;
            }
        }
        // same multiset of pairs
        let mut a: Vec<(K, V)> = self
            .keys
            .iter()
            .copied()
            .zip(self.vals.iter().copied())
            .collect();
        let mut b: Vec<(K, V)> = original.to_vec();
        a.sort();
        b.sort();
        a == b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pairs() -> Vec<(i64, i64)> {
        vec![
            (13, 130),
            (4, 40),
            (9, 90),
            (2, 20),
            (12, 120),
            (7, 70),
            (1, 10),
            (19, 190),
            (3, 30),
        ]
    }

    #[test]
    fn select_project_is_contiguous_and_correct() {
        let p = pairs();
        let mut m = CrackerMap::new(
            p.iter().map(|x| x.0).collect(),
            p.iter().map(|x| x.1).collect(),
        );
        let mut got: Vec<i64> = m.select_project(3, 10).to_vec();
        got.sort_unstable();
        assert_eq!(got, vec![30, 40, 70, 90]);
        assert!(m.check_invariant(&p));
        assert_eq!(m.pieces(), 3);
    }

    #[test]
    fn payload_follows_keys_across_many_queries() {
        let p = pairs();
        let mut m = CrackerMap::new(
            p.iter().map(|x| x.0).collect(),
            p.iter().map(|x| x.1).collect(),
        );
        for (lo, hi) in [(1, 5), (10, 20), (4, 13), (0, 3), (7, 8)] {
            let vals: Vec<i64> = m.select_project(lo, hi).to_vec();
            let mut expect: Vec<i64> = p
                .iter()
                .filter(|(k, _)| *k >= lo && *k < hi)
                .map(|(_, v)| *v)
                .collect();
            let mut got = vals;
            got.sort_unstable();
            expect.sort_unstable();
            assert_eq!(got, expect, "range [{lo},{hi})");
            assert!(m.check_invariant(&p));
        }
    }

    #[test]
    fn repeated_query_touches_nothing_new() {
        let data: Vec<(i64, i64)> = (0..10_000).map(|i| ((i * 7919) % 10_000, i)).collect();
        let mut m = CrackerMap::new(
            data.iter().map(|x| x.0).collect(),
            data.iter().map(|x| x.1).collect(),
        );
        m.select_project(2000, 3000);
        let t = m.tuples_touched();
        m.select_project(2000, 3000);
        assert_eq!(m.tuples_touched(), t);
    }

    #[test]
    fn select_sum_aggregates_in_place() {
        let p = pairs();
        let mut m = CrackerMap::new(
            p.iter().map(|x| x.0).collect(),
            p.iter().map(|x| x.1).collect(),
        );
        assert_eq!(m.select_sum(3, 10), 30 + 40 + 70 + 90);
    }

    proptest! {
        #[test]
        fn prop_matches_scan(
            data in proptest::collection::vec((-50i64..50, -100i64..100), 0..200),
            queries in proptest::collection::vec((-60i64..60, -60i64..60), 1..20),
        ) {
            let mut m = CrackerMap::new(
                data.iter().map(|x| x.0).collect(),
                data.iter().map(|x| x.1).collect(),
            );
            for (a, b) in queries {
                let (lo, hi) = (a.min(b), a.max(b));
                let mut got: Vec<i64> = m.select_project(lo, hi).to_vec();
                got.sort_unstable();
                let mut expect: Vec<i64> = data.iter()
                    .filter(|(k, _)| *k >= lo && *k < hi)
                    .map(|(_, v)| *v)
                    .collect();
                expect.sort_unstable();
                prop_assert_eq!(got, expect);
                prop_assert!(m.check_invariant(&data));
            }
        }
    }
}
