//! Sorting and order indices.
//!
//! `order(b)` produces the permutation that sorts the tail (nil first, like
//! MonetDB); `sort_bat(b)` materializes the sorted column with its
//! properties set, enabling the binary-search select fast path downstream.

use mammoth_storage::{Bat, FixedTail, Properties, TailHeap};
use mammoth_types::{NativeType, Oid, Result};
use std::cmp::Ordering;

/// Positions of the first `n` rows of `b` in sorted order: ascending with
/// nil first, or exactly the reverse of that when `descending`.
///
/// Ties order by position, which makes the order total and equal to what a
/// stable sort (reversed, when descending) produces — so a prefix can be
/// selected first and only that prefix sorted.
fn sorted_prefix(b: &Bat, n: usize, descending: bool) -> Vec<usize> {
    fn prefix(
        len: usize,
        n: usize,
        descending: bool,
        by_value: impl Fn(usize, usize) -> Ordering,
    ) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..len).collect();
        let total = |a: &usize, b: &usize| {
            let ord = by_value(*a, *b).then(a.cmp(b));
            if descending {
                ord.reverse()
            } else {
                ord
            }
        };
        if n < len {
            if n > 0 {
                idx.select_nth_unstable_by(n, total);
            }
            idx.truncate(n);
        }
        idx.sort_unstable_by(total);
        idx
    }
    fn fixed<T: NativeType + FixedTail>(v: &[T], n: usize, descending: bool) -> Vec<usize> {
        prefix(v.len(), n, descending, |a, b| v[a].nil_cmp(&v[b]))
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
        TailHeap::Str(h) => prefix(h.len(), n, descending, |a, b| h.get(a).cmp(&h.get(b))),
    }
}

/// The stable permutation (as positions) that sorts `b`'s tail ascending,
/// nil first.
pub fn order(b: &Bat) -> Result<Vec<usize>> {
    Ok(sorted_prefix(b, b.len(), false))
}

/// Sort the tail of `b`, returning `(sorted BAT, order index)`.
///
/// The order index is a BAT of the original oids in sorted order — exactly
/// what tuple reconstruction needs to fetch sibling columns.
pub fn sort_bat(b: &Bat) -> Result<(Bat, Bat)> {
    sort_bat_dir(b, false)
}

/// [`sort_bat`] with a direction: `descending = true` reverses the order
/// (nil last in that case).
pub fn sort_bat_dir(b: &Bat, descending: bool) -> Result<(Bat, Bat)> {
    firstn(b, b.len(), descending)
}

/// The first `n` rows of [`sort_bat_dir`] — `ORDER BY … LIMIT n` — ties
/// included exactly as the full sort orders them, without sorting the rest.
pub fn firstn(b: &Bat, n: usize, descending: bool) -> Result<(Bat, Bat)> {
    let perm = sorted_prefix(b, n, descending);
    let tail = b.tail().take(&perm);
    let oids: Vec<Oid> = perm.iter().map(|&p| b.oid_at(p)).collect();
    let mut sorted = Bat::dense(0, tail);
    let len = sorted.len();
    let nonil = len == 0 || !sorted.tail().is_nil(if descending { len - 1 } else { 0 });
    sorted.set_props(Properties {
        sorted: !descending,
        revsorted: descending || len <= 1,
        key: false,
        nonil,
        min: None,
        max: None,
    });
    Ok((sorted, Bat::dense(0, TailHeap::from_vec(oids))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fetch::fetch_join;
    use proptest::prelude::*;

    #[test]
    fn sorts_with_nil_first() {
        let b = Bat::from_vec(vec![3i32, i32::NIL, 1, 2]);
        let (s, idx) = sort_bat(&b).unwrap();
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
        let (s, _) = sort_bat(&b).unwrap();
        assert_eq!(s.value_at(0), mammoth_types::Value::Null);
        assert_eq!(s.value_at(1), mammoth_types::Value::Str("apple".into()));
        assert_eq!(s.value_at(2), mammoth_types::Value::Str("pear".into()));
    }

    #[test]
    fn float_sort_with_nan_nil() {
        let b = Bat::from_vec(vec![2.0f64, f64::NAN, 1.0]);
        let (s, _) = sort_bat(&b).unwrap();
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
        let (_, idx) = sort_bat(&age).unwrap();
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
            let (s, idx) = sort_bat(&b).unwrap();
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
