//! Equi-joins over BAT tails.
//!
//! A join's result is a *join index* (Valduriez \[39\], §4.3): two aligned oid
//! vectors pairing matching tuples. Column projection happens afterwards by
//! positional fetch — the DSM post-projection strategy.
//!
//! Three algorithms, selected by properties and size:
//! * [`nested_loop_join`] — tiny inputs;
//! * [`merge_join`] — both tails sorted;
//! * [`hash_join`] — the default hash join over a flat open-addressing
//!   table (build on the right side). The cache-conscious partitioned
//!   variant lives in [`crate::radix`].

use crate::flat::{with_images, JoinTable};
use crate::radix::mix_key_bat;
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

    /// Swap the two sides.
    pub fn flipped(self) -> JoinIndex {
        JoinIndex {
            left: self.right,
            right: self.left,
        }
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
pub struct JoinKeys {
    pub keys: Vec<u64>,
    pub nils: Vec<bool>,
    /// u64 image is injective (ints, floats, oids) — no verify needed.
    pub exact: bool,
}

/// O(n·m) reference join; used for tiny inputs and as the test oracle.
pub fn nested_loop_join(l: &Bat, r: &Bat) -> Result<JoinIndex> {
    let lk = mix_key_bat(l)?;
    let rk = mix_key_bat(r)?;
    let mut out = JoinIndex::default();
    for i in 0..lk.keys.len() {
        if lk.nils[i] {
            continue;
        }
        for j in 0..rk.keys.len() {
            if rk.nils[j] {
                continue;
            }
            if lk.keys[i] == rk.keys[j] && verify_eq(l, r, i, j, lk.exact && rk.exact) {
                out.left.push(l.oid_at(i));
                out.right.push(r.oid_at(j));
            }
        }
    }
    Ok(out)
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

/// Merge join for tails that are both sorted (checked via properties; falls
/// back to [`hash_join`] when not).
pub fn merge_join(l: &Bat, r: &Bat) -> Result<JoinIndex> {
    if !(l.props().sorted && r.props().sorted) {
        return hash_join(l, r);
    }
    let lk = mix_key_bat(l)?;
    let rk = mix_key_bat(r)?;
    let exact = lk.exact && rk.exact;
    // sortedness of the tail implies sortedness of the u64 image for
    // unsigned images only; compare via the original order instead:
    // walk both sides with two cursors using dynamic compare when inexact.
    let mut out = JoinIndex::default();
    let (mut i, mut j) = (0usize, 0usize);
    let n = l.len();
    let m = r.len();
    while i < n && j < m {
        if lk.nils[i] {
            i += 1;
            continue;
        }
        if rk.nils[j] {
            j += 1;
            continue;
        }
        let ord = cmp_at(l, r, i, j);
        match ord {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                // emit the cross product of the two equal runs
                let i_end = run_end(l, i);
                let j_end = run_end(r, j);
                for a in i..i_end {
                    for b in j..j_end {
                        if verify_eq(l, r, a, b, exact) {
                            out.left.push(l.oid_at(a));
                            out.right.push(r.oid_at(b));
                        }
                    }
                }
                i = i_end;
                j = j_end;
            }
        }
    }
    Ok(out)
}

fn cmp_at(l: &Bat, r: &Bat, i: usize, j: usize) -> std::cmp::Ordering {
    l.value_at(i)
        .sql_cmp(&r.value_at(j))
        .unwrap_or(std::cmp::Ordering::Equal)
}

fn run_end(b: &Bat, start: usize) -> usize {
    let v = b.value_at(start);
    let mut e = start + 1;
    while e < b.len() && b.value_at(e) == v {
        e += 1;
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let mut lv = vec![5i64, 1, 9, 1, 7, 3];
        let mut rv = vec![1i64, 3, 3, 9, 2];
        let l = Bat::from_vec(lv.clone());
        let r = Bat::from_vec(rv.clone());
        let nl = nested_loop_join(&l, &r).unwrap().sorted();
        let hj = hash_join(&l, &r).unwrap().sorted();
        assert_eq!(nl, hj);
        // merge join needs sorted inputs
        lv.sort_unstable();
        rv.sort_unstable();
        let mut ls = Bat::from_vec(lv);
        let mut rs = Bat::from_vec(rv);
        ls.compute_props();
        rs.compute_props();
        let mj = merge_join(&ls, &rs).unwrap().sorted();
        let oracle = nested_loop_join(&ls, &rs).unwrap().sorted();
        assert_eq!(mj, oracle);
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

    #[test]
    fn merge_join_falls_back_when_unsorted() {
        let l = Bat::from_vec(vec![3i32, 1]);
        let r = Bat::from_vec(vec![1i32, 3]);
        let ji = merge_join(&l, &r).unwrap().sorted();
        assert_eq!(pairs(&ji), vec![(0, 1), (1, 0)]);
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

        #[test]
        fn prop_merge_equals_nested_loop(
            mut lv in proptest::collection::vec(-20i64..20, 0..60),
            mut rv in proptest::collection::vec(-20i64..20, 0..60),
        ) {
            lv.sort_unstable();
            rv.sort_unstable();
            let mut l = Bat::from_vec(lv);
            let mut r = Bat::from_vec(rv);
            l.compute_props();
            r.compute_props();
            let mj = merge_join(&l, &r).unwrap().sorted();
            let nl = nested_loop_join(&l, &r).unwrap().sorted();
            prop_assert_eq!(mj, nl);
        }
    }
}
