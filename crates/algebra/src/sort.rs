//! Sorting and order indices.
//!
//! `order(b)` produces the permutation that sorts the tail (nil first, like
//! MonetDB); `sort_bat_dir(b, desc)` materializes the sorted column with its
//! properties set, enabling the binary-search select fast path downstream.

use mammoth_storage::{Bat, FixedTail, Properties, TailHeap};
use mammoth_types::{NativeType, Oid, Result};
use std::cmp::Ordering;

/// Bounded selection: the first `n` rows, in sorted order, of a stream of
/// `(key, position)` pairs.
///
/// This is the one definition of the sort order — ascending by key (nil
/// first, as `by_key` says) with ties by position, or exactly the reverse
/// of that when `descending`. The order is total, so the answer is what a
/// stable sort (reversed, when descending) would put first, whatever order
/// the rows are offered in. [`firstn`] and the `vector.pipeline` top-N sink
/// both select through it.
///
/// At most `2n` rows are held: once `n` have been seen, a row that does not
/// come before the worst one kept costs a single comparison, and the kept
/// rows are cut back to the best `n` each time they reach `2n` — linear in
/// the rows offered, whatever their order.
pub struct TopN<K, F> {
    n: usize,
    descending: bool,
    by_key: F,
    rows: Vec<(K, usize)>,
    /// The worst of the best `n` rows as of the last cut: nothing that
    /// does not come before it can be among the first `n`.
    bound: Option<(K, usize)>,
}

impl<K: Copy, F: Fn(&K, &K) -> Ordering> TopN<K, F> {
    pub fn new(n: usize, descending: bool, by_key: F) -> TopN<K, F> {
        TopN {
            n,
            descending,
            by_key,
            rows: Vec::new(),
            bound: None,
        }
    }

    fn cmp(&self, a: &(K, usize), b: &(K, usize)) -> Ordering {
        let ord = (self.by_key)(&a.0, &b.0).then(a.1.cmp(&b.1));
        if self.descending {
            ord.reverse()
        } else {
            ord
        }
    }

    /// Offer the row at `position`.
    #[inline]
    pub fn offer(&mut self, key: K, position: usize) {
        let row = (key, position);
        if let Some(bound) = &self.bound {
            if self.cmp(&row, bound) != Ordering::Less {
                return;
            }
        }
        self.rows.push(row);
        if self.rows.len() >= self.n.saturating_mul(2) {
            self.cut();
        }
    }

    /// Keep the best `n` of the rows held.
    fn cut(&mut self) {
        if self.rows.len() <= self.n {
            return;
        }
        let mut rows = std::mem::take(&mut self.rows);
        if self.n > 0 {
            rows.select_nth_unstable_by(self.n - 1, |a, b| self.cmp(a, b));
        }
        rows.truncate(self.n);
        self.bound = rows.last().copied().or(self.bound);
        self.rows = rows;
    }

    /// The first `n` rows offered (all of them, if fewer), in order.
    pub fn finish(mut self) -> Vec<(K, usize)> {
        self.cut();
        let mut rows = std::mem::take(&mut self.rows);
        rows.sort_unstable_by(|a, b| self.cmp(a, b));
        rows
    }
}

/// Positions of the first `n` rows of `b` in sorted order (see [`TopN`]).
fn sorted_prefix(b: &Bat, n: usize, descending: bool) -> Vec<usize> {
    fn prefix<K: Copy>(
        keys: impl Iterator<Item = K>,
        n: usize,
        descending: bool,
        by_key: impl Fn(&K, &K) -> Ordering,
    ) -> Vec<usize> {
        let mut top = TopN::new(n, descending, by_key);
        for (position, key) in keys.enumerate() {
            top.offer(key, position);
        }
        top.finish().into_iter().map(|(_, p)| p).collect()
    }
    fn fixed<T: NativeType + FixedTail>(v: &[T], n: usize, descending: bool) -> Vec<usize> {
        prefix(v.iter().copied(), n, descending, T::nil_cmp)
    }
    match b.tail() {
        TailHeap::Bool(v) => fixed(v, n, descending),
        TailHeap::I8(v) => fixed(v, n, descending),
        TailHeap::I16(v) => fixed(v, n, descending),
        TailHeap::I32(v) => fixed(v, n, descending),
        TailHeap::I64(v) => fixed(v, n, descending),
        TailHeap::F64(v) => fixed(v, n, descending),
        TailHeap::Oid(v) => fixed(v, n, descending),
        // `Option<&str>` orders nil (None) first
        TailHeap::Str(h) => prefix((0..h.len()).map(|i| h.get(i)), n, descending, Ord::cmp),
    }
}

/// The stable permutation (as positions) that sorts `b`'s tail ascending,
/// nil first.
pub fn order(b: &Bat) -> Result<Vec<usize>> {
    Ok(sorted_prefix(b, b.len(), false))
}

/// Sort the tail of `b`, returning `(sorted BAT, order index)`:
/// `descending = true` reverses the order (nil last in that case).
///
/// The order index is a BAT of the original oids in sorted order — exactly
/// what tuple reconstruction needs to fetch sibling columns.
pub fn sort_bat_dir(b: &Bat, descending: bool) -> Result<(Bat, Bat)> {
    firstn(b, b.len(), descending)
}

/// The first `n` rows of [`sort_bat_dir`] — `ORDER BY … LIMIT n` — ties
/// included exactly as the full sort orders them, without sorting the rest.
pub fn firstn(b: &Bat, n: usize, descending: bool) -> Result<(Bat, Bat)> {
    let perm = sorted_prefix(b, n, descending);
    let tail = b.tail().take(&perm);
    let oids: Vec<Oid> = perm.iter().map(|&p| b.oid_at(p)).collect();
    let props = sorted_props(&tail, descending);
    let sorted = Bat::dense(0, tail).with_props(props);
    Ok((sorted, Bat::dense(0, TailHeap::from_vec(oids))))
}

/// The properties of a tail in [`TopN`]'s order: sorted one way or the
/// other, and nil-free unless a nil stands at the end the order puts them
/// (the first ascending — the last, for oids, whose nil is the largest).
pub fn sorted_props(tail: &TailHeap, descending: bool) -> Properties {
    let len = tail.len();
    Properties {
        sorted: !descending,
        revsorted: descending || len <= 1,
        key: false,
        nonil: len == 0 || !(tail.is_nil(0) || tail.is_nil(len - 1)),
        min: None,
        max: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fetch::fetch_join;
    use proptest::prelude::*;

    #[test]
    fn sorts_with_nil_first() {
        let b = Bat::from_vec(vec![3i32, i32::NIL, 1, 2]);
        let (s, idx) = sort_bat_dir(&b, false).unwrap();
        assert_eq!(s.tail_slice::<i32>().unwrap(), &[i32::NIL, 1, 2, 3]);
        assert_eq!(idx.tail_slice::<Oid>().unwrap(), &[1, 2, 3, 0]);
        assert!(s.props().sorted);
        assert!(!s.props().nonil);
    }

    #[test]
    fn descending_sort() {
        let b = Bat::from_vec(vec![3i32, i32::NIL, 1, 2]);
        let (s, idx) = sort_bat_dir(&b, true).unwrap();
        assert_eq!(s.tail_slice::<i32>().unwrap(), &[3, 2, 1, i32::NIL]);
        assert_eq!(idx.tail_slice::<Oid>().unwrap(), &[0, 3, 2, 1]);
        assert!(s.props().revsorted && !s.props().sorted);
        assert!(!s.props().nonil);
    }

    #[test]
    fn stable_on_duplicates() {
        let b = Bat::from_vec(vec![2i32, 1, 2, 1]);
        let perm = order(&b).unwrap();
        assert_eq!(perm, vec![1, 3, 0, 2]);
    }

    #[test]
    fn string_sort() {
        let b = Bat::from_strings([Some("pear"), None, Some("apple")]);
        let (s, _) = sort_bat_dir(&b, false).unwrap();
        assert_eq!(s.value_at(0), mammoth_types::Value::Null);
        assert_eq!(s.value_at(1), mammoth_types::Value::Str("apple".into()));
        assert_eq!(s.value_at(2), mammoth_types::Value::Str("pear".into()));
    }

    #[test]
    fn float_sort_with_nan_nil() {
        let b = Bat::from_vec(vec![2.0f64, f64::NAN, 1.0]);
        let (s, _) = sort_bat_dir(&b, false).unwrap();
        let v = s.tail_slice::<f64>().unwrap();
        assert!(v[0].is_nan());
        assert_eq!(&v[1..], &[1.0, 2.0]);
    }

    #[test]
    fn order_index_reconstructs_siblings() {
        // the classic tuple-reconstruction flow: sort one column, fetch the
        // other through the order index
        let age = Bat::from_vec(vec![1968i32, 1907, 1927]);
        let name = Bat::from_strings([Some("Will Smith"), Some("John Wayne"), Some("Bob Fosse")]);
        let (_, idx) = sort_bat_dir(&age, false).unwrap();
        let names_sorted = fetch_join(&idx, &name).unwrap();
        assert_eq!(
            names_sorted.value_at(0),
            mammoth_types::Value::Str("John Wayne".into())
        );
        assert_eq!(
            names_sorted.value_at(2),
            mammoth_types::Value::Str("Will Smith".into())
        );
    }

    proptest! {
        #[test]
        fn prop_sorted_output(v in proptest::collection::vec(-100i64..100, 0..200)) {
            let b = Bat::from_vec(v.clone());
            let (s, idx) = sort_bat_dir(&b, false).unwrap();
            let out = s.tail_slice::<i64>().unwrap();
            prop_assert!(out.windows(2).all(|w| w[0] <= w[1]));
            // permutation property
            let mut expect = v.clone();
            expect.sort_unstable();
            prop_assert_eq!(out, &expect[..]);
            prop_assert_eq!(idx.len(), v.len());
        }
    }
}
