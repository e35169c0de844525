//! Equi-joins over BAT tails.
//!
//! A join's result is a *join index* (Valduriez \[39\], §4.3): two aligned oid
//! vectors pairing matching tuples. Column projection happens afterwards by
//! positional fetch — the DSM post-projection strategy.
//!
//! [`hash_join`] is the hash join over a flat open-addressing table (build
//! on the right side). The cache-conscious partitioned variant lives in
//! [`crate::radix`].

use crate::flat::{with_images, JoinTable};

use mammoth_storage::Bat;
use mammoth_types::{Buf, Oid, Result};

/// Aligned `(left oid, right oid)` match pairs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JoinIndex {
    pub left: Vec<Oid>,
    pub right: Vec<Oid>,
}

impl JoinIndex {
    pub fn len(&self) -> usize {
        self.left.len()
    }

    pub fn is_empty(&self) -> bool {
        self.left.is_empty()
    }

    /// Canonical ordering for comparisons in tests.
    pub fn sorted(mut self) -> JoinIndex {
        let mut pairs: Vec<(Oid, Oid)> = self
            .left
            .iter()
            .copied()
            .zip(self.right.iter().copied())
            .collect();
        pairs.sort_unstable();
        self.left = pairs.iter().map(|p| p.0).collect();
        self.right = pairs.iter().map(|p| p.1).collect();
        self
    }
}

/// Join keys: a nil-aware u64 image of a tail column. `None` marks nil
/// (never matches); for strings `verify` must re-check real equality.
pub(crate) struct JoinKeys {
    pub keys: Vec<u64>,
    pub nils: Vec<bool>,
    /// u64 image is injective (ints, floats, oids) — no verify needed.
    pub exact: bool,
}

#[inline]
pub(crate) fn verify_eq(l: &Bat, r: &Bat, i: usize, j: usize, exact: bool) -> bool {
    if exact {
        return true;
    }
    // strings: compare payloads (hash image may collide)
    match (l.tail().as_str_heap(), r.tail().as_str_heap()) {
        (Some(a), Some(b)) => a.get(i) == b.get(j),
        _ => true,
    }
}

/// Hash join over a flat open-addressing table of the right side's key
/// images; both columns are read in place. Matches come out in left row
/// order, and for one left row latest right row first.
pub fn hash_join(l: &Bat, r: &Bat) -> Result<JoinIndex> {
    let table = with_images!(r, |images| JoinTable::build(images, (Buf(0), 0), &mut ()));
    // fixed-width images are injective; string images are payload hashes
    let exact = l.tail().as_str_heap().is_none() && r.tail().as_str_heap().is_none();
    let mut out = JoinIndex::default();
    out.left.reserve(l.len().min(r.len()));
    out.right.reserve(l.len().min(r.len()));
    with_images!(l, |images| {
        for (i, (image, nil)) in images.enumerate() {
            if nil {
                continue;
            }
            table.each_match(image, &mut (), |j, _| {
                if verify_eq(l, r, i, j, exact) {
                    out.left.push(l.oid_at(i));
                    out.right.push(r.oid_at(j));
                }
            });
        }
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::nested_loop_join;
    use mammoth_types::NativeType;
    use proptest::prelude::*;

    fn pairs(ji: &JoinIndex) -> Vec<(Oid, Oid)> {
        ji.clone()
            .sorted()
            .left
            .iter()
            .copied()
            .zip(ji.clone().sorted().right.iter().copied())
            .collect()
    }

    #[test]
    fn basic_equijoin() {
        let l = Bat::from_vec(vec![1i32, 2, 3, 2]);
        let r = Bat::from_vec(vec![2i32, 4, 1]);
        let ji = hash_join(&l, &r).unwrap().sorted();
        assert_eq!(pairs(&ji), vec![(0, 2), (1, 0), (3, 0)]);
    }

    #[test]
    fn all_algorithms_agree() {
        let l = Bat::from_vec(vec![5i64, 1, 9, 1, 7, 3]);
        let r = Bat::from_vec(vec![1i64, 3, 3, 9, 2]);
        let nl = nested_loop_join(&l, &r).unwrap().sorted();
        let hj = hash_join(&l, &r).unwrap().sorted();
        assert_eq!(nl, hj);
    }

    #[test]
    fn nils_never_match() {
        let l = Bat::from_vec(vec![1i32, i32::NIL, 3]);
        let r = Bat::from_vec(vec![i32::NIL, 1]);
        let ji = hash_join(&l, &r).unwrap();
        assert_eq!(pairs(&ji), vec![(0, 1)]);
    }

    #[test]
    fn string_joins_verify_payload() {
        let l = Bat::from_strings([Some("ann"), Some("bob"), None]);
        let r = Bat::from_strings([Some("bob"), Some("cid"), Some("ann"), None]);
        let ji = hash_join(&l, &r).unwrap().sorted();
        assert_eq!(pairs(&ji), vec![(0, 2), (1, 0)]);
        let nl = nested_loop_join(&l, &r).unwrap().sorted();
        assert_eq!(ji, nl);
    }

    #[test]
    fn type_widening_in_join() {
        // i32 column joined with i64 column: images must align
        let l = Bat::from_vec(vec![1i32, -2]);
        let r = Bat::from_vec(vec![-2i64, 1]);
        let ji = hash_join(&l, &r).unwrap().sorted();
        assert_eq!(pairs(&ji), vec![(0, 1), (1, 0)]);
    }

    #[test]
    fn empty_inputs() {
        let l = Bat::from_vec(Vec::<i32>::new());
        let r = Bat::from_vec(vec![1i32]);
        assert!(hash_join(&l, &r).unwrap().is_empty());
        assert!(hash_join(&r, &l).unwrap().is_empty());
    }

    proptest! {
        #[test]
        fn prop_hash_equals_nested_loop(
            lv in proptest::collection::vec(-20i64..20, 0..60),
            rv in proptest::collection::vec(-20i64..20, 0..60),
        ) {
            let l = Bat::from_vec(lv);
            let r = Bat::from_vec(rv);
            let hj = hash_join(&l, &r).unwrap().sorted();
            let nl = nested_loop_join(&l, &r).unwrap().sorted();
            prop_assert_eq!(hj, nl);
        }

    }
}
