//! Equi-joins over BAT tails.
//!
//! A join's result is a *join index* (Valduriez \[39\], §4.3): two aligned oid
//! vectors pairing matching tuples. Column projection happens afterwards by
//! positional fetch — the DSM post-projection strategy.
//!
//! [`hash_join`] builds a table over the right side and probes it with the
//! left. Its table follows from the build side's key domain, as in the
//! kernel's void heads (§3), where a dense domain makes a value its own
//! position: when the build images are exact integers, oids or booleans
//! and their non-nil domain `[lo, hi]` has `hi - lo + 1 <= 2 *
//! join_slots(n)` for `n` build rows, the table is *positional*, an array
//! of `row + 1` indexed by `image - lo` — 8-byte entries never outweighing
//! the 16-byte hashed slots the same build would take — unless a build key
//! repeats. Every other build side gets the flat open-addressing
//! `JoinTable`. The positional probe is one clamped load and a branch-free
//! emit per row (§4–§5: no per-tuple branch). The cache-conscious
//! partitioned variant lives in [`crate::radix`].

use crate::flat::{join_slots, with_images, JoinTable};

use mammoth_storage::{Bat, TailHeap};
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

/// Equi-join of `l` with `r`, `r` the build side. Matches come out in left
/// row order, and for one left row latest right row first.
pub fn hash_join(l: &Bat, r: &Bat) -> Result<JoinIndex> {
    Ok(Build::of(r).probe(l, r))
}

/// A build side's table, chosen by the rule in the module doc.
enum Build {
    Positional(Positional),
    Hashed(JoinTable),
}

/// The build rows by key image, no image repeated: `pos[image - lo]` is the
/// row with that image plus one (0: none).
struct Positional {
    lo: u64,
    pos: Vec<usize>,
}

/// The non-nil image domain `[lo, hi]` as `(lo, hi - lo)`, in `i64` order
/// (integers sign-extend into their images), when its positions cost no
/// more than the hashed slots: `hi - lo + 1 <= 2 * join_slots(n)`. The
/// difference wraps, so it is exact at the `i64` extremes, and an image
/// outside the domain is `image - lo > hi - lo` in wrapping arithmetic.
fn dense_domain(images: impl Iterator<Item = (u64, bool)>, n: usize) -> Option<(u64, u64)> {
    let (lo, hi) = images
        .filter(|&(_, nil)| !nil)
        .fold((i64::MAX, i64::MIN), |(lo, hi), (image, _)| {
            (lo.min(image as i64), hi.max(image as i64))
        });
    let span = (hi as u64).wrapping_sub(lo as u64);
    (lo <= hi && span < 2 * join_slots(n) as u64).then_some((lo as u64, span))
}

impl Build {
    /// The positional table when `r`'s images are exact integers, oids or
    /// booleans over a dense enough domain and none repeats; the hashed one
    /// otherwise.
    fn of(r: &Bat) -> Build {
        let exact = matches!(
            r.tail(),
            TailHeap::Bool(_)
                | TailHeap::I8(_)
                | TailHeap::I16(_)
                | TailHeap::I32(_)
                | TailHeap::I64(_)
                | TailHeap::Oid(_)
        );
        with_images!(r, |images| {
            match exact
                .then(|| dense_domain(images.clone(), r.len()))
                .flatten()
                .and_then(|(lo, span)| Positional::build(images, lo, span))
            {
                Some(t) => Build::Positional(t),
                None => Build::hashed(r),
            }
        })
    }

    fn hashed(r: &Bat) -> Build {
        with_images!(r, |images| Build::Hashed(JoinTable::build(
            images,
            (Buf(0), 0),
            &mut ()
        )))
    }

    fn probe(&self, l: &Bat, r: &Bat) -> JoinIndex {
        let mut out = JoinIndex::default();
        out.left.reserve(l.len().min(r.len()));
        out.right.reserve(l.len().min(r.len()));
        match self {
            Build::Positional(t) => with_images!(l, |images| t.emit(images, l, r, &mut out)),
            Build::Hashed(table) => {
                // fixed-width images are injective; string images are
                // payload hashes
                let exact = l.tail().as_str_heap().is_none() && r.tail().as_str_heap().is_none();
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
                })
            }
        }
        out
    }

    /// The table's bytes: what a build allocates.
    #[cfg(test)]
    fn bytes(&self) -> usize {
        match self {
            Build::Positional(t) => t.pos.len() * size_of::<usize>(),
            Build::Hashed(t) => t.bytes(),
        }
    }
}

/// Rows the emit grows its output by at a time.
const EMIT_VECTOR: usize = 1024;

impl Positional {
    /// `None` at the first repeated image.
    fn build(images: impl Iterator<Item = (u64, bool)>, lo: u64, span: u64) -> Option<Positional> {
        let mut pos = vec![0; span as usize + 1];
        for (row, (image, nil)) in images.enumerate() {
            if nil {
                continue;
            }
            let slot = &mut pos[image.wrapping_sub(lo) as usize];
            if *slot != 0 {
                return None;
            }
            *slot = row + 1;
        }
        Some(Positional { lo, pos })
    }

    /// Per probe row one clamped load, and a pair written always but kept
    /// only on a match. A miss reads `r`'s last row, which exists: some
    /// build image is not nil.
    fn emit(
        &self,
        images: impl ExactSizeIterator<Item = (u64, bool)>,
        l: &Bat,
        r: &Bat,
        out: &mut JoinIndex,
    ) {
        let span = (self.pos.len() - 1) as u64;
        let last = r.len() - 1;
        let mut len = out.left.len();
        let rows = images.len();
        for (i, (image, nil)) in images.enumerate() {
            if len == out.left.len() {
                let grow = len + EMIT_VECTOR.min(rows - i);
                out.left.resize(grow, 0);
                out.right.resize(grow, 0);
            }
            let at = image.wrapping_sub(self.lo);
            let row1 = self.pos[at.min(span) as usize];
            out.left[len] = l.oid_at(i);
            out.right[len] = r.oid_at(row1.wrapping_sub(1).min(last));
            len += (at <= span && row1 != 0 && !nil) as usize;
        }
        out.left.truncate(len);
        out.right.truncate(len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::nested_loop_join;
    use mammoth_storage::FixedTail;
    use mammoth_types::{LogicalType, NativeType};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use std::collections::HashSet;

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

        // Positional or hashed, the join index is the hashed table's, pair
        // for pair and in order, and the nested-loop join's as a set: over
        // dense domains, domains at the positional bound and one past it,
        // sparse ones, repeated build keys, nils on both sides, void and
        // oid heads, the i64 extremes, an INT probe against a BIGINT build
        // holding INT's nil image, and oid, bool, VARCHAR and DOUBLE tails.
        #[test]
        fn prop_positional_equals_hashed_and_nested_loop(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            for shape in [Shape::Dense, Shape::AtBound, Shape::PastBound, Shape::Sparse] {
                let base = *[
                    0,
                    -3,
                    i32::MIN as i64,
                    i64::MIN + 1,
                    i64::MAX,
                    rng.random::<i64>() / 2,
                ]
                .get(rng.random_range(0..6usize))
                .unwrap();
                let n = rng.random_range(2..300usize);
                let repeats = rng.random_bool(0.5);
                let nils = [0.0, 0.2][rng.random_range(0..2usize)];
                let build = shape.build(&mut rng, base, n, repeats, nils);
                let probe = probe_of(&mut rng, &build, nils);
                for (lty, rty) in [
                    (LogicalType::I64, LogicalType::I64),
                    (LogicalType::I32, LogicalType::I64),
                    (LogicalType::Oid, LogicalType::Oid),
                    (LogicalType::Bool, LogicalType::Bool),
                    (LogicalType::Str, LogicalType::Str),
                    (LogicalType::F64, LogicalType::F64),
                ] {
                    let l = column(&mut rng, lty, &probe);
                    let r = column(&mut rng, rty, &build);
                    let got = hash_join(&l, &r).unwrap();
                    prop_assert_eq!(&got, &Build::hashed(&r).probe(&l, &r), "{:?} {:?}", shape, lty);
                    prop_assert_eq!(
                        got.sorted(),
                        nested_loop_join(&l, &r).unwrap().sorted(),
                        "{:?} {:?}",
                        shape,
                        lty
                    );
                    let positional = matches!(Build::of(&r), Build::Positional(_));
                    match (rty, shape) {
                        (LogicalType::Str | LogicalType::F64, _) => prop_assert!(!positional),
                        (LogicalType::I64, Shape::Dense | Shape::AtBound) => {
                            prop_assert_eq!(positional, distinct(&build))
                        }
                        (LogicalType::I64, Shape::PastBound) => prop_assert!(!positional),
                        _ => {}
                    }
                }
            }
        }
    }

    /// How a drawn build side's non-nil domain sits against the positional
    /// bound `2 * join_slots(n)`.
    #[derive(Debug, Clone, Copy)]
    enum Shape {
        /// `n` rows over at most `n` values.
        Dense,
        /// Exactly `2 * join_slots(n)` values wide.
        AtBound,
        /// One value wider.
        PastBound,
        /// Anywhere in the i64 domain.
        Sparse,
    }

    impl Shape {
        /// `n` build values from `base` on (from `base` down when `base`
        /// leaves no room above it), a share `nils` of them nil; with
        /// `repeats`, drawn with replacement, and otherwise distinct.
        fn build(
            self,
            rng: &mut StdRng,
            base: i64,
            n: usize,
            repeats: bool,
            nils: f64,
        ) -> Vec<Option<i64>> {
            let width = match self {
                Shape::Dense => n as i64,
                Shape::AtBound => 2 * join_slots(n) as i64,
                Shape::PastBound => 2 * join_slots(n) as i64 + 1,
                Shape::Sparse => {
                    return (0..n)
                        .map(|_| (!rng.random_bool(nils)).then(|| rng.random::<i64>()))
                        .collect()
                }
            };
            let lo = if base > i64::MAX - width {
                i64::MAX - width + 1
            } else {
                base
            };
            let hi = lo + (width - 1);
            let mut seen = HashSet::from([lo, hi]);
            let mut vals: Vec<Option<i64>> = (0..n as i64)
                .map(|i| {
                    let v = match (repeats, self) {
                        (false, Shape::Dense) => lo + i,
                        (false, _) => loop {
                            let v = rng.random_range(lo..=hi);
                            if seen.insert(v) {
                                break v;
                            }
                        },
                        _ => rng.random_range(lo..=hi),
                    };
                    (!rng.random_bool(nils)).then_some(v)
                })
                .collect();
            // both ends of the domain, whatever the draw
            vals[0] = Some(lo);
            vals[n - 1] = Some(hi);
            if repeats {
                vals[n / 2] = Some(hi);
            }
            vals
        }
    }

    /// No non-nil value repeats.
    fn distinct(vals: &[Option<i64>]) -> bool {
        let keys: Vec<i64> = vals.iter().flatten().copied().collect();
        keys.iter().collect::<HashSet<_>>().len() == keys.len()
    }

    /// Probe values: build values, their neighbours, nils, the i64
    /// extremes and INT's nil image.
    fn probe_of(rng: &mut StdRng, build: &[Option<i64>], nils: f64) -> Vec<Option<i64>> {
        let n = rng.random_range(0..400usize);
        (0..n)
            .map(|_| {
                if rng.random_bool(nils) {
                    return None;
                }
                let near = build[rng.random_range(0..build.len())].unwrap_or(0);
                Some(match rng.random_range(0..8u32) {
                    0 => near.wrapping_sub(1),
                    1 => near.wrapping_add(1),
                    2 => *[i64::MIN + 1, i64::MAX, i32::MIN as i64, 0]
                        .get(rng.random_range(0..4usize))
                        .unwrap(),
                    3 => rng.random::<i64>(),
                    _ => near,
                })
            })
            .collect()
    }

    /// `vals` in `ty` (`None` is nil; bool has no nil and takes false),
    /// under a void head at a drawn seqbase or a drawn oid head.
    fn column(rng: &mut StdRng, ty: LogicalType, vals: &[Option<i64>]) -> Bat {
        fn fixed<T: FixedTail>(v: &[Option<i64>], f: impl Fn(i64) -> T) -> TailHeap {
            TailHeap::from_vec(v.iter().map(|x| x.map_or(T::NIL, &f)).collect::<Vec<T>>())
        }
        let text: Vec<Option<String>> = vals.iter().map(|v| v.map(|x| x.to_string())).collect();
        let tail = match ty {
            LogicalType::Bool => fixed(vals, |x| x & 1 == 1),
            LogicalType::I32 => fixed(vals, |x| x as i32),
            LogicalType::I64 => fixed(vals, |x| x),
            LogicalType::Oid => fixed(vals, |x| x as Oid),
            LogicalType::F64 => fixed(vals, |x| x as f64),
            LogicalType::Str => TailHeap::from_strings(text.iter().map(Option::as_deref)),
            _ => unreachable!("the drawn tail types"),
        };
        if rng.random_bool(0.5) {
            return Bat::dense(rng.random_range(0..100), tail);
        }
        let head = (0..vals.len() as Oid).map(|i| 5000 - 3 * i).collect();
        Bat::with_head(head, tail).unwrap()
    }

    /// The count behind the join's wall-clock gain: an 8 192-key
    /// permutation builds a 64 KiB array of positions in place of 256 KiB
    /// of slots and 64 KiB of links; a repeated key, or a domain past the
    /// bound, keeps the hashed table.
    #[test]
    fn a_dense_build_is_positional_and_a_sparse_one_hashed() {
        let permutation: Vec<i64> = (0..8192).map(|i| i * 5 % 8192).collect();
        let dense = Build::of(&Bat::from_vec(permutation.clone()));
        assert!(matches!(dense, Build::Positional(_)));
        assert_eq!(dense.bytes(), 64 << 10);
        let mut repeated = permutation.clone();
        repeated[1] = repeated[0];
        let repeated = Build::of(&Bat::from_vec(repeated));
        assert!(matches!(repeated, Build::Hashed(_)));
        assert_eq!(repeated.bytes(), (256 << 10) + (64 << 10));
        let sparse = Build::of(&Bat::from_vec(permutation.iter().map(|k| k * 5).collect()));
        assert!(matches!(sparse, Build::Hashed(_)));
        assert_eq!(sparse.bytes(), (256 << 10) + (64 << 10));
        assert_eq!(
            Build::hashed(&Bat::from_vec(permutation)).bytes(),
            sparse.bytes()
        );
    }
}
