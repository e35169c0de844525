//! The cracker column and cracker index.

use std::collections::BTreeMap;

/// A range bound. `Incl`usive or `Excl`usive of the value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound<T> {
    Unbounded,
    Incl(T),
    Excl(T),
}

/// A cracking key: partition point "`values[0..off]` compare-below `v`".
/// `and_equal = false` means strictly below (`< v`); `true` means `<= v`.
/// Ordered so that `(v, false) < (v, true)` — offsets are monotone in keys.
type CrackKey<T> = (T, bool);

/// The result of a cracked range selection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Selection {
    /// Contiguous range of the cracker column holding the qualifying
    /// (non-pending) tuples.
    pub range: std::ops::Range<usize>,
    /// Original row ids of qualifying tuples (cracked range plus pending
    /// inserts, minus deleted rows).
    pub rows: Vec<u32>,
}

/// Diagnostics for experiments.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrackerStats {
    pub pieces: usize,
    pub cracks_performed: u64,
    pub tuples_touched: u64,
    pub pending_inserts: usize,
    pub merges: u64,
}

/// A self-organizing column: values are physically reorganized by the
/// queries themselves.
#[derive(Debug, Clone)]
pub struct CrackerColumn<T: Ord + Copy> {
    /// The cracker column: a permuted copy of the base data.
    values: Vec<T>,
    /// Original row id of each slot (the tuple-reconstruction map).
    rows: Vec<u32>,
    /// Cracker index: partition points discovered so far.
    index: BTreeMap<CrackKey<T>, usize>,
    /// Buffered inserts (row ids continue after the base rows).
    pending: Vec<(T, u32)>,
    next_row: u32,
    /// Liveness bitmap indexed by row id; deletes flip to false.
    alive: Vec<bool>,
    /// Dead rows not yet purged from the column (drives merging).
    dead_unpurged: usize,
    merge_threshold: usize,
    stats: CrackerStats,
}

impl<T: Ord + Copy> CrackerColumn<T> {
    /// Adopt a column. No sorting, no indexing — organization happens as a
    /// side effect of queries.
    pub fn new(values: Vec<T>) -> CrackerColumn<T> {
        let n = values.len() as u32;
        CrackerColumn {
            rows: (0..n).collect(),
            values,
            index: BTreeMap::new(),
            pending: Vec::new(),
            next_row: n,
            alive: vec![true; n as usize],
            dead_unpurged: 0,
            merge_threshold: 4096,
            stats: CrackerStats::default(),
        }
    }

    /// Tune how many buffered updates trigger a merge (default 4096).
    pub fn with_merge_threshold(mut self, t: usize) -> Self {
        self.merge_threshold = t.max(1);
        self
    }

    pub fn stats(&self) -> CrackerStats {
        CrackerStats {
            pieces: self.index.len() + 1,
            pending_inserts: self.pending.len(),
            ..self.stats.clone()
        }
    }

    /// Append a new tuple; returns its row id.
    pub fn insert(&mut self, v: T) -> u32 {
        let row = self.next_row;
        self.next_row += 1;
        self.pending.push((v, row));
        self.alive.push(true);
        row
    }

    /// Mark a row deleted. Returns false if already deleted.
    pub fn delete(&mut self, row: u32) -> bool {
        if row >= self.next_row || !self.alive[row as usize] {
            return false;
        }
        self.alive[row as usize] = false;
        self.dead_unpurged += 1;
        true
    }

    /// Partition the piece containing key `k` and record the boundary.
    /// Returns the offset `off` with `values[0..off]` all below `k`.
    fn crack(&mut self, k: CrackKey<T>) -> usize {
        if let Some(&off) = self.index.get(&k) {
            return off;
        }
        // enclosing piece: [prev boundary, next boundary)
        let lo = self
            .index
            .range(..&k)
            .next_back()
            .map_or(0, |(_, &off)| off);
        let hi = self
            .index
            .range((std::ops::Bound::Excluded(&k), std::ops::Bound::Unbounded))
            .next()
            .map_or(self.values.len(), |(_, &off)| off);
        // two-pointer partition of values[lo..hi] by "below k"
        let below = |x: &T| -> bool {
            match k.1 {
                false => *x < k.0,
                true => *x <= k.0,
            }
        };
        let (mut i, mut j) = (lo, hi);
        while i < j {
            if below(&self.values[i]) {
                i += 1;
            } else {
                j -= 1;
                self.values.swap(i, j);
                self.rows.swap(i, j);
            }
        }
        self.stats.cracks_performed += 1;
        self.stats.tuples_touched += (hi - lo) as u64;
        self.index.insert(k, i);
        i
    }

    /// Range selection; cracks the column as a side effect.
    pub fn select(&mut self, lo: Bound<T>, hi: Bound<T>) -> Selection {
        self.maybe_merge();
        // lower edge: first slot NOT below the bound
        let start = match lo {
            Bound::Unbounded => 0,
            Bound::Incl(v) => self.crack((v, false)),
            Bound::Excl(v) => self.crack((v, true)),
        };
        let end = match hi {
            Bound::Unbounded => self.values.len(),
            Bound::Incl(v) => self.crack((v, true)),
            Bound::Excl(v) => self.crack((v, false)),
        };
        let range = start..end.max(start);
        let mut out = Vec::with_capacity(range.len());
        for i in range.clone() {
            let r = self.rows[i];
            if self.alive[r as usize] {
                out.push(r);
            }
        }
        // pending inserts answer from the buffer
        let in_range = |x: &T| {
            (match lo {
                Bound::Unbounded => true,
                Bound::Incl(v) => *x >= v,
                Bound::Excl(v) => *x > v,
            }) && (match hi {
                Bound::Unbounded => true,
                Bound::Incl(v) => *x <= v,
                Bound::Excl(v) => *x < v,
            })
        };
        for (v, r) in &self.pending {
            if in_range(v) && self.alive[*r as usize] {
                out.push(*r);
            }
        }
        Selection { range, rows: out }
    }

    /// Count qualifying tuples (the benchmark's measure).
    pub fn select_count(&mut self, lo: Bound<T>, hi: Bound<T>) -> usize {
        self.select(lo, hi).rows.len()
    }

    /// Merge buffered updates into the cracker column when they exceed the
    /// threshold, preserving every piece's value range (so the cracker
    /// index stays valid — the "cracking under updates" invariant).
    fn maybe_merge(&mut self) {
        if self.pending.len() + self.dead_unpurged <= self.merge_threshold {
            return;
        }
        self.merge();
    }

    /// Force a merge (mostly for tests).
    pub fn merge(&mut self) {
        if self.pending.is_empty() && self.dead_unpurged == 0 {
            return;
        }
        self.stats.merges += 1;
        // Collect piece boundaries: [0, b1, b2, ..., n] with their keys.
        let old_bounds: Vec<(CrackKey<T>, usize)> =
            self.index.iter().map(|(k, &v)| (*k, v)).collect();

        // Rebuild values/rows piece by piece: survivors of the old piece
        // plus pending tuples whose value belongs in that piece.
        let mut pending = std::mem::take(&mut self.pending);
        let mut new_values = Vec::with_capacity(self.values.len() + pending.len());
        let mut new_rows = Vec::with_capacity(new_values.capacity());
        let mut new_index = BTreeMap::new();

        let below = |x: &T, k: &CrackKey<T>| -> bool {
            if k.1 {
                *x <= k.0
            } else {
                *x < k.0
            }
        };

        let mut start = 0usize;
        for (key, bound) in old_bounds.iter() {
            for i in start..*bound {
                let r = self.rows[i];
                if self.alive[r as usize] {
                    new_values.push(self.values[i]);
                    new_rows.push(r);
                }
            }
            // pending tuples belonging strictly below this boundary (and not
            // already placed in an earlier piece)
            let mut rest = Vec::new();
            for (v, r) in pending {
                if below(&v, key) {
                    if self.alive[r as usize] {
                        new_values.push(v);
                        new_rows.push(r);
                    }
                } else {
                    rest.push((v, r));
                }
            }
            pending = rest;
            new_index.insert(*key, new_values.len());
            start = *bound;
        }
        // last piece
        for i in start..self.values.len() {
            let r = self.rows[i];
            if self.alive[r as usize] {
                new_values.push(self.values[i]);
                new_rows.push(r);
            }
        }
        for (v, r) in pending {
            if self.alive[r as usize] {
                new_values.push(v);
                new_rows.push(r);
            }
        }
        self.values = new_values;
        self.rows = new_rows;
        self.index = new_index;
        self.dead_unpurged = 0;
    }

    /// Check the cracker invariant: every boundary splits the column
    /// correctly. O(n · pieces); tests only.
    #[doc(hidden)]
    pub fn check_invariant(&self) -> bool {
        for (&(v, and_eq), &off) in &self.index {
            let ok_left = self.values[..off]
                .iter()
                .all(|x| if and_eq { *x <= v } else { *x < v });
            let ok_right = self.values[off..]
                .iter()
                .all(|x| if and_eq { *x > v } else { *x >= v });
            if !ok_left || !ok_right {
                return false;
            }
        }
        self.values.len() == self.rows.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn col() -> CrackerColumn<i64> {
        CrackerColumn::new(vec![13, 16, 4, 9, 2, 12, 7, 1, 19, 3, 14, 11, 8, 6])
    }

    #[test]
    fn first_query_cracks() {
        let mut c = col();
        let s = c.select(Bound::Incl(5), Bound::Excl(12));
        let mut vals: Vec<i64> = s.range.clone().map(|i| c.values[i]).collect();
        vals.sort_unstable();
        assert_eq!(vals, vec![6, 7, 8, 9, 11]);
        assert!(c.check_invariant());
        assert_eq!(c.stats().pieces, 3);
        // result range is contiguous and rows map back to original values
        let orig = col();
        for &r in &s.rows {
            let v = orig.values[r as usize];
            assert!((5..12).contains(&v));
        }
    }

    #[test]
    fn repeated_queries_touch_less() {
        let mut c = CrackerColumn::new((0..100_000i64).map(|i| (i * 7919) % 100_000).collect());
        c.select(Bound::Incl(10_000), Bound::Excl(20_000));
        let touched_first = c.stats().tuples_touched;
        c.select(Bound::Incl(10_000), Bound::Excl(20_000));
        assert_eq!(
            c.stats().tuples_touched,
            touched_first,
            "an exact repeat cracks nothing"
        );
        c.select(Bound::Incl(12_000), Bound::Excl(18_000));
        let after_subrange = c.stats().tuples_touched;
        // the sub-range only re-partitions inside the 10k piece
        assert!(after_subrange - touched_first < 25_000);
        assert!(c.check_invariant());
    }

    #[test]
    fn bounds_semantics() {
        let mut c = CrackerColumn::new(vec![1i64, 2, 2, 3, 4]);
        assert_eq!(c.select_count(Bound::Incl(2), Bound::Incl(2)), 2);
        assert_eq!(c.select_count(Bound::Excl(2), Bound::Unbounded), 2); // 3,4
        assert_eq!(c.select_count(Bound::Unbounded, Bound::Excl(2)), 1); // 1
        assert_eq!(c.select_count(Bound::Unbounded, Bound::Unbounded), 5);
        assert_eq!(c.select_count(Bound::Incl(9), Bound::Incl(10)), 0);
        assert!(c.check_invariant());
    }

    #[test]
    fn inserts_visible_before_merge() {
        let mut c = col().with_merge_threshold(1000);
        c.select(Bound::Incl(5), Bound::Excl(12)); // crack a bit first
        let r = c.insert(10);
        let s = c.select(Bound::Incl(5), Bound::Excl(12));
        assert!(s.rows.contains(&r));
        assert_eq!(c.stats().pending_inserts, 1);
    }

    #[test]
    fn deletes_filtered_and_merged() {
        let mut c = col().with_merge_threshold(1000);
        let s = c.select(Bound::Incl(5), Bound::Excl(12));
        let victim = s.rows[0];
        assert!(c.delete(victim));
        assert!(!c.delete(victim));
        let s2 = c.select(Bound::Incl(5), Bound::Excl(12));
        assert!(!s2.rows.contains(&victim));
        assert_eq!(s2.rows.len(), s.rows.len() - 1);
        c.merge();
        assert!(c.check_invariant());
        let s3 = c.select(Bound::Incl(5), Bound::Excl(12));
        assert_eq!(s3.rows.len(), s2.rows.len());
        assert_eq!(c.dead_unpurged, 0);
    }

    #[test]
    fn merge_preserves_piece_invariant() {
        let mut c = CrackerColumn::new((0..1000i64).rev().collect()).with_merge_threshold(8);
        c.select(Bound::Incl(100), Bound::Excl(200));
        c.select(Bound::Incl(500), Bound::Excl(700));
        for v in [150i64, 650, 1, 999, 100, 200] {
            c.insert(v);
        }
        c.delete(5);
        c.delete(998);
        // exceed threshold -> next select merges
        for v in [10i64, 20, 30] {
            c.insert(v);
        }
        let live = |c: &CrackerColumn<i64>| c.values.len() + c.pending.len() - c.dead_unpurged;
        let before = live(&c);
        let s = c.select(Bound::Incl(100), Bound::Excl(200));
        assert!(c.check_invariant());
        assert_eq!(c.stats().pending_inserts, 0);
        assert_eq!(live(&c), before);
        // 100..200 originals (100..=199) minus none deleted in range, plus
        // inserts 150, 100
        assert_eq!(s.rows.len(), 100 + 2);
    }

    #[test]
    fn empty_column() {
        let mut c = CrackerColumn::<i64>::new(vec![]);
        assert_eq!(c.select_count(Bound::Incl(0), Bound::Incl(10)), 0);
        let r = c.insert(5);
        assert_eq!(c.select(Bound::Unbounded, Bound::Unbounded).rows, vec![r]);
    }

    proptest! {
        #[test]
        fn prop_select_matches_scan(
            data in proptest::collection::vec(-50i64..50, 0..300),
            queries in proptest::collection::vec((-60i64..60, -60i64..60), 1..25),
        ) {
            let mut c = CrackerColumn::new(data.clone());
            for (a, b) in queries {
                let (lo, hi) = (a.min(b), a.max(b));
                let mut got = c.select(Bound::Incl(lo), Bound::Excl(hi)).rows;
                got.sort_unstable();
                let expect: Vec<u32> = data.iter().enumerate()
                    .filter(|(_, &v)| v >= lo && v < hi)
                    .map(|(i, _)| i as u32)
                    .collect();
                prop_assert_eq!(got, expect);
                prop_assert!(c.check_invariant());
            }
        }

        #[test]
        fn prop_with_updates(
            data in proptest::collection::vec(0i64..100, 10..100),
            ops in proptest::collection::vec((0u8..3, 0i64..100), 1..60),
        ) {
            let mut c = CrackerColumn::new(data.clone()).with_merge_threshold(10);
            // oracle: map row -> value, live set
            let mut oracle: Vec<(u32, i64, bool)> =
                data.iter().enumerate().map(|(i, &v)| (i as u32, v, true)).collect();
            for (op, x) in ops {
                match op {
                    0 => {
                        let r = c.insert(x);
                        oracle.push((r, x, true));
                    }
                    1 => {
                        let victim = (x as usize) % oracle.len();
                        let (r, _, alive) = oracle[victim];
                        let did = c.delete(r);
                        prop_assert_eq!(did, alive);
                        oracle[victim].2 = false;
                    }
                    _ => {
                        let lo = x.min(70);
                        let hi = lo + 20;
                        let mut got = c.select(Bound::Incl(lo), Bound::Excl(hi)).rows;
                        got.sort_unstable();
                        let mut expect: Vec<u32> = oracle.iter()
                            .filter(|(_, v, alive)| *alive && *v >= lo && *v < hi)
                            .map(|(r, _, _)| *r)
                            .collect();
                        expect.sort_unstable();
                        prop_assert_eq!(got, expect);
                    }
                }
            }
            prop_assert!(c.check_invariant());
        }
    }
}
