//! The kernels as they were before the typed single-pass rewrite — a
//! dynamic comparison per row, a position vector per fetch, a group column
//! per scalar aggregate, a key copy and a chained or `HashMap` table per
//! group and join — kept (in test builds only) as the reference the
//! rewritten loops are compared against, plus those comparisons.

use crate::join::JoinIndex;
use crate::radix::mix_key_bat;
use crate::{grouped_aggregate, AggKind, CmpOp};
use mammoth_index::HashTable;
use mammoth_storage::{Bat, FixedTail, TailHeap};
use mammoth_types::{Error, NativeType, Oid, Result, Value};
use std::cmp::Ordering::{self, *};
use std::collections::HashMap;

fn typed<T: NativeType>(v: &Value) -> Result<T> {
    T::from_value(v)
        .or_else(|| v.coerce(T::LOGICAL).as_ref().and_then(T::from_value))
        .ok_or_else(|| Error::TypeMismatch {
            expected: T::LOGICAL.name().into(),
            found: format!("{v:?}"),
        })
}

/// Head oids of the non-nil rows `keep` accepts, in row order.
fn scan<T: NativeType + FixedTail>(b: &Bat, keep: impl Fn(&T) -> bool) -> Result<Vec<Oid>> {
    let data = b.tail_slice::<T>()?;
    Ok((0..data.len())
        .filter(|&i| !data[i].is_nil() && keep(&data[i]))
        .map(|i| b.oid_at(i))
        .collect())
}

fn cmp_fixed<T: NativeType + FixedTail>(b: &Bat, op: CmpOp, v: &Value) -> Result<Vec<Oid>> {
    let c: T = typed(v)?;
    if c.is_nil() {
        return Ok(Vec::new());
    }
    let holds = |ord: Ordering| match op {
        CmpOp::Eq => ord == Equal,
        CmpOp::Ne => ord != Equal,
        CmpOp::Lt => ord == Less,
        CmpOp::Le => ord != Greater,
        CmpOp::Gt => ord == Greater,
        CmpOp::Ge => ord != Less,
    };
    scan::<T>(b, |x| holds(x.nil_cmp(&c)))
}

fn range_fixed<T: NativeType + FixedTail>(
    b: &Bat,
    lo: Option<&Value>,
    hi: Option<&Value>,
    lo_incl: bool,
    hi_incl: bool,
) -> Result<Vec<Oid>> {
    let lo: Option<T> = lo.map(typed).transpose()?;
    let hi: Option<T> = hi.map(typed).transpose()?;
    scan::<T>(b, |x| {
        let lo_ok = lo.as_ref().is_none_or(|c| match x.nil_cmp(c) {
            Greater => true,
            Equal => lo_incl,
            Less => false,
        });
        let hi_ok = hi.as_ref().is_none_or(|c| match x.nil_cmp(c) {
            Less => true,
            Equal => hi_incl,
            Greater => false,
        });
        lo_ok && hi_ok
    })
}

macro_rules! per_fixed_type {
    ($b:expr, $f:ident($($arg:expr),*)) => {
        match $b.tail() {
            TailHeap::Bool(_) => $f::<bool>($($arg),*),
            TailHeap::I8(_) => $f::<i8>($($arg),*),
            TailHeap::I16(_) => $f::<i16>($($arg),*),
            TailHeap::I32(_) => $f::<i32>($($arg),*),
            TailHeap::I64(_) => $f::<i64>($($arg),*),
            TailHeap::F64(_) => $f::<f64>($($arg),*),
            TailHeap::Oid(_) => $f::<Oid>($($arg),*),
            TailHeap::Str(_) => unreachable!("the oracles cover fixed-width tails"),
        }
    };
}

pub fn select_cmp(b: &Bat, op: CmpOp, v: &Value) -> Result<Vec<Oid>> {
    per_fixed_type!(b, cmp_fixed(b, op, v))
}

pub fn select_range(
    b: &Bat,
    lo: Option<&Value>,
    hi: Option<&Value>,
    lo_incl: bool,
    hi_incl: bool,
) -> Result<Vec<Oid>> {
    if matches!(lo, Some(Value::Null)) || matches!(hi, Some(Value::Null)) {
        return Ok(Vec::new());
    }
    per_fixed_type!(b, range_fixed(b, lo, hi, lo_incl, hi_incl))
}

/// A selection over a candidate list the way plans used to spell it:
/// fetch the candidates' values, select over that dense intermediate, and
/// map the qualifying positions back through the list.
pub fn through_cands(
    b: &Bat,
    cands: &Bat,
    select: impl Fn(&Bat) -> Result<Vec<Oid>>,
) -> Result<Vec<Oid>> {
    let fetched = fetch_join(cands, b)?;
    let oids = cands.tail_slice::<Oid>()?;
    Ok(select(&fetched)?
        .into_iter()
        .map(|p| oids[p as usize])
        .collect())
}

/// Resolve every candidate to a position, then gather.
pub fn fetch_join(cands: &Bat, values: &Bat) -> Result<Bat> {
    let mut pos = Vec::new();
    for &o in cands.tail_slice::<Oid>()? {
        pos.push(values.find_oid(o).ok_or(Error::OutOfRange {
            index: o,
            len: values.len() as u64,
        })?);
    }
    Ok(Bat::dense(0, values.tail().take(&pos)))
}

/// One group holding every row, through the grouped accumulator.
pub fn aggregate_scalar(kind: AggKind, values: &Bat) -> Result<Value> {
    let groups = Bat::dense(0, TailHeap::from_vec(vec![0 as Oid; values.len()]));
    Ok(grouped_aggregate(kind, values, &groups, 1)?.value_at(0))
}

/// `(group ids, extents)` over a copy of the key images.
pub fn group_by(b: &Bat) -> Result<(Vec<Oid>, Vec<usize>)> {
    let jk = mix_key_bat(b)?;
    let mut seen: HashMap<Option<u64>, Oid> = HashMap::new();
    let (mut ids, mut extents) = (Vec::new(), Vec::new());
    for i in 0..b.len() {
        let key = (!jk.nils[i]).then_some(jk.keys[i]);
        let next = seen.len() as Oid;
        ids.push(*seen.entry(key).or_insert_with(|| {
            extents.push(i);
            next
        }));
    }
    Ok((ids, extents))
}

/// The bucket-chained join over copies of both sides' key images.
pub fn hash_join(l: &Bat, r: &Bat) -> Result<JoinIndex> {
    let (lk, rk) = (mix_key_bat(l)?, mix_key_bat(r)?);
    let table = HashTable::build(&rk.keys);
    let mut out = JoinIndex::default();
    for i in (0..lk.keys.len()).filter(|&i| !lk.nils[i]) {
        for j in table.candidates(lk.keys[i]) {
            if !rk.nils[j] && rk.keys[j] == lk.keys[i] {
                out.left.push(l.oid_at(i));
                out.right.push(r.oid_at(j));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super as oracle;
    use crate::*;
    use mammoth_storage::{Bat, TailHeap};
    use mammoth_types::{Error, LogicalType, NativeType, Oid, Value};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    const FIXED: [LogicalType; 7] = [
        LogicalType::Bool,
        LogicalType::I8,
        LogicalType::I16,
        LogicalType::I32,
        LogicalType::I64,
        LogicalType::F64,
        LogicalType::Oid,
    ];
    const OPS: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];

    /// A column of `ty` holding small integers (`None` is nil; bool has no
    /// nil and takes false for it).
    fn column(ty: LogicalType, vals: &[Option<i64>]) -> Bat {
        fn ints<T: mammoth_storage::FixedTail>(v: &[Option<i64>], f: impl Fn(i64) -> T) -> Bat {
            Bat::from_vec(v.iter().map(|x| x.map_or(T::NIL, &f)).collect::<Vec<T>>())
        }
        match ty {
            LogicalType::Bool => ints(vals, |x| x > 0),
            LogicalType::I8 => ints(vals, |x| x as i8),
            LogicalType::I16 => ints(vals, |x| x as i16),
            LogicalType::I32 => ints(vals, |x| x as i32),
            LogicalType::I64 => ints(vals, |x| x),
            // halves make inclusive and exclusive bounds differ off-grid too
            LogicalType::F64 => ints(vals, |x| x as f64 / 2.0),
            LogicalType::Oid => ints(vals, |x| x.unsigned_abs()),
            LogicalType::Str => unreachable!("fixed-width types only"),
        }
    }

    /// The predicate constant `x` in the value space of [`column`].
    fn constant(ty: LogicalType, x: i64) -> Value {
        match ty {
            LogicalType::Bool => Value::Bool(x > 0),
            LogicalType::F64 => Value::F64(x as f64 / 2.0),
            LogicalType::Oid => Value::Oid(x.unsigned_abs()),
            _ => Value::I64(x),
        }
    }

    fn random_values(rng: &mut StdRng, n: usize, nil_share: f64) -> Vec<Option<i64>> {
        (0..n)
            .map(|_| (!rng.random_bool(nil_share)).then(|| rng.random_range(-6..7)))
            .collect()
    }

    fn oids(b: &Bat) -> Vec<Oid> {
        b.tail_slice::<Oid>().unwrap().to_vec()
    }

    /// Every (type, op, constant) over columns with and without nils,
    /// empty ones, and constants below, inside and above the value range
    /// (selectivity 0 and 1 included).
    #[test]
    fn select_cmp_matches_the_row_at_a_time_scan() {
        let mut rng = StdRng::seed_from_u64(1);
        for ty in FIXED {
            for (n, nil_share) in [(0, 0.0), (1, 0.0), (300, 0.0), (3000, 0.2), (50, 1.0)] {
                let b = column(ty, &random_values(&mut rng, n, nil_share));
                for op in OPS {
                    for c in [-100, -6, 0, 1, 6, 100] {
                        let c = constant(ty, c);
                        let got = select_cmp(&b, op, &c).unwrap();
                        let want = oracle::select_cmp(&b, op, &c).unwrap();
                        assert_eq!(oids(&got), want, "{ty:?} {op:?} {c:?} n={n}");
                        assert!(got.props().sorted && got.props().key && got.props().nonil);
                    }
                    // NULL selects nothing (bool has no nil to coerce it to)
                    match select_cmp(&b, op, &Value::Null) {
                        Ok(got) => assert!(got.is_empty()),
                        Err(_) => assert_eq!(ty, LogicalType::Bool),
                    }
                }
            }
        }
    }

    #[test]
    fn select_range_matches_the_row_at_a_time_scan() {
        let mut rng = StdRng::seed_from_u64(2);
        for ty in FIXED {
            let b = column(ty, &random_values(&mut rng, 2000, 0.1));
            let bounds = [None, Some(-100), Some(-3), Some(0), Some(2), Some(100)];
            for lo in bounds {
                for hi in bounds {
                    for (li, hi_incl) in
                        [(true, true), (true, false), (false, true), (false, false)]
                    {
                        let (lo, hi) = (lo.map(|x| constant(ty, x)), hi.map(|x| constant(ty, x)));
                        let got = select_range(&b, lo.as_ref(), hi.as_ref(), li, hi_incl).unwrap();
                        let want = oracle::select_range(&b, lo.as_ref(), hi.as_ref(), li, hi_incl)
                            .unwrap();
                        assert_eq!(oids(&got), want, "{ty:?} {lo:?}..{hi:?} {li} {hi_incl}");
                    }
                }
            }
        }
    }

    /// The bounds an integer type cannot step past (`> MAX`, `< MIN + 1`,
    /// the nil sentinel itself) close to an empty or full range, never wrap.
    #[test]
    fn select_at_the_edges_of_the_integer_domain() {
        let b = Bat::from_vec(vec![i8::NIL, i8::MIN + 1, -1, 0, 1, i8::MAX]);
        for op in OPS {
            for c in [i8::MIN + 1, i8::MAX, 0] {
                let c = Value::I8(c);
                let got = select_cmp(&b, op, &c).unwrap();
                assert_eq!(
                    oids(&got),
                    oracle::select_cmp(&b, op, &c).unwrap(),
                    "{op:?} {c:?}"
                );
            }
        }
        let b = Bat::from_vec(vec![0 as Oid, 1, Oid::MAX - 1, Oid::NIL]);
        for (lo, hi) in [(0, Oid::MAX - 1), (Oid::MAX - 1, Oid::MAX - 1), (1, 0)] {
            for incl in [true, false] {
                let (lo, hi) = (Value::Oid(lo), Value::Oid(hi));
                let got = select_range(&b, Some(&lo), Some(&hi), incl, incl).unwrap();
                let want = oracle::select_range(&b, Some(&lo), Some(&hi), incl, incl).unwrap();
                assert_eq!(oids(&got), want, "{lo:?}..{hi:?} {incl}");
            }
        }
    }

    /// Candidate forms over a `slice`d view (seqbase != 0), with sorted and
    /// unsorted, empty and full candidate lists, against the old
    /// fetch-select-map composition.
    #[test]
    fn candidate_selects_match_fetch_select_map() {
        let mut rng = StdRng::seed_from_u64(3);
        for ty in FIXED {
            let whole = column(ty, &random_values(&mut rng, 1200, 0.15));
            let b = whole.slice(200, 1100).unwrap(); // oids 200..1100
            let every: Vec<Oid> = (200..1100).collect();
            let mut some: Vec<Oid> = every
                .iter()
                .copied()
                .filter(|_| rng.random_bool(0.3))
                .collect();
            let mut shuffled = some.clone();
            shuffled.reverse();
            some.dedup();
            for (list, sorted) in [
                (vec![], true),
                (every, true),
                (some, true),
                (shuffled, false),
            ] {
                let mut cands = Bat::from_vec(list);
                if sorted {
                    cands.compute_props();
                }
                for op in OPS {
                    let c = constant(ty, 1);
                    let got = select_cmp_cand(&b, &cands, op, &c).unwrap();
                    let want = oracle::through_cands(&b, &cands, |f| oracle::select_cmp(f, op, &c))
                        .unwrap();
                    assert_eq!(oids(&got), want, "{ty:?} {op:?}");
                    assert_eq!(got.props().sorted, cands.props().sorted);
                }
                let (lo, hi) = (constant(ty, -2), constant(ty, 3));
                let got = select_range_cand(&b, &cands, Some(&lo), Some(&hi), true, false).unwrap();
                let want = oracle::through_cands(&b, &cands, |f| {
                    oracle::select_range(f, Some(&lo), Some(&hi), true, false)
                })
                .unwrap();
                assert_eq!(oids(&got), want, "{ty:?} range");
            }
        }
    }

    /// The binary-search path of a sorted column cuts a candidate list to
    /// the qualifying oid run; the answer is the scan's.
    #[test]
    fn candidate_selects_over_sorted_columns() {
        let mut sorted = Bat::from_vec((0..500i64).map(|i| i / 3).collect::<Vec<_>>())
            .slice(100, 400)
            .unwrap();
        sorted.compute_props();
        assert!(sorted.props().sorted && sorted.props().nonil);
        let plain = Bat::from_vec(sorted.tail_slice::<i64>().unwrap().to_vec())
            .slice(0, 300)
            .unwrap();
        for (list, is_sorted) in [
            ((100..400).step_by(7).collect::<Vec<Oid>>(), true),
            ((100..400).rev().step_by(5).collect(), false),
        ] {
            let mut cands = Bat::from_vec(list.clone());
            if is_sorted {
                cands.compute_props();
            }
            // the same rows addressed in the unsorted copy's oid space
            let shifted = Bat::from_vec(list.iter().map(|o| o - 100).collect::<Vec<Oid>>());
            for (lo, hi) in [(40, 90), (0, 1000), (90, 40), (133, 133)] {
                let (lo, hi) = (Value::I64(lo), Value::I64(hi));
                let got = select_range_cand(&sorted, &cands, Some(&lo), Some(&hi), true, false);
                let want = select_range_cand(&plain, &shifted, Some(&lo), Some(&hi), true, false);
                let want: Vec<Oid> = oids(&want.unwrap()).iter().map(|o| o + 100).collect();
                assert_eq!(oids(&got.unwrap()), want, "{lo:?}..{hi:?}");
            }
        }
    }

    /// A candidate outside the column is a typed error in every positional
    /// kernel, on either side of the view and past `u64` wrap-around.
    #[test]
    fn out_of_range_candidates_are_typed_errors() {
        let b = Bat::from_vec((0..100i64).collect::<Vec<_>>())
            .slice(10, 90)
            .unwrap();
        let mut sorted = b.clone();
        sorted.compute_props();
        for bad in [0 as Oid, 9, 90, 1 << 40, Oid::MAX] {
            let cands = Bat::from_vec(vec![20 as Oid, bad, 30]);
            let is_oob = |r: mammoth_types::Result<Bat>| matches!(r, Err(Error::OutOfRange { index, .. }) if index == bad);
            assert!(is_oob(fetch_join(&cands, &b)), "fetch {bad}");
            let c = Value::I64(50);
            assert!(
                is_oob(select_cmp_cand(&b, &cands, CmpOp::Lt, &c)),
                "theta {bad}"
            );
            assert!(
                is_oob(select_cmp_cand(&b, &cands, CmpOp::Ne, &c)),
                "ne {bad}"
            );
            assert!(is_oob(select_range_cand(
                &b,
                &cands,
                Some(&c),
                None,
                true,
                true
            )));
            assert!(
                is_oob(select_cmp_cand(&sorted, &cands, CmpOp::Lt, &c)),
                "sorted {bad}"
            );
        }
    }

    /// Without a void head there is no positional lookup: selections emit
    /// head oids and candidates resolve through the head.
    #[test]
    fn materialized_heads_fall_back_to_oid_lookup() {
        let head: Vec<Oid> = vec![70, 10, 40, 20, 90];
        let b = Bat::with_head(
            head.clone(),
            TailHeap::from_vec(vec![5i32, i32::NIL, 7, 1, 7]),
        )
        .unwrap();
        let c = Value::I32(5);
        let got = select_cmp(&b, CmpOp::Ge, &c).unwrap();
        assert_eq!(oids(&got), oracle::select_cmp(&b, CmpOp::Ge, &c).unwrap());
        assert_eq!(oids(&got), vec![70, 40, 90]);
        assert!(!got.props().sorted, "head order is not oid order");

        let cands = Bat::from_vec(vec![90 as Oid, 10, 70, 20]);
        let got = select_cmp_cand(&b, &cands, CmpOp::Ge, &c).unwrap();
        assert_eq!(oids(&got), vec![90, 70]);
        let fetched = fetch_join(&cands, &b).unwrap();
        let want = oracle::fetch_join(&cands, &b).unwrap();
        assert_eq!(
            fetched.tail_slice::<i32>().unwrap(),
            want.tail_slice::<i32>().unwrap()
        );
        let missing = Bat::from_vec(vec![90 as Oid, 11]);
        assert!(matches!(
            select_cmp_cand(&b, &missing, CmpOp::Ge, &c),
            Err(Error::OutOfRange { index: 11, .. })
        ));
        assert!(fetch_join(&missing, &b).is_err());
    }

    #[test]
    fn fetch_join_matches_resolve_then_gather() {
        let mut rng = StdRng::seed_from_u64(4);
        for ty in FIXED {
            let b = column(ty, &random_values(&mut rng, 800, 0.1))
                .slice(300, 700)
                .unwrap();
            let mut list: Vec<Oid> = (0..500).map(|_| rng.random_range(300..700)).collect();
            for sorted in [false, true] {
                if sorted {
                    list.sort_unstable();
                }
                let cands = Bat::from_vec(list.clone());
                let (got, want) = (
                    fetch_join(&cands, &b).unwrap(),
                    oracle::fetch_join(&cands, &b).unwrap(),
                );
                assert_eq!(got.len(), want.len());
                for i in 0..got.len() {
                    assert_eq!(got.value_at(i), want.value_at(i), "{ty:?} row {i}");
                }
            }
            let none = Bat::from_vec(Vec::<Oid>::new());
            assert!(fetch_join(&none, &b).unwrap().is_empty());
        }
    }

    /// Every kind over every type, including all-nil and empty columns;
    /// float results must agree to the bit (sums run left to right).
    #[test]
    fn aggregate_scalar_matches_the_grouped_accumulator() {
        let mut rng = StdRng::seed_from_u64(5);
        let kinds = [
            AggKind::Count,
            AggKind::Sum,
            AggKind::Min,
            AggKind::Max,
            AggKind::Avg,
        ];
        for ty in FIXED {
            for (n, nil_share) in [(0, 0.0), (1, 0.0), (1000, 0.0), (1000, 0.3), (20, 1.0)] {
                let b = column(ty, &random_values(&mut rng, n, nil_share));
                for kind in kinds {
                    let (got, want) = (
                        aggregate_scalar(kind, &b),
                        oracle::aggregate_scalar(kind, &b),
                    );
                    match (got, want) {
                        (Ok(Value::F64(g)), Ok(Value::F64(w))) => {
                            assert_eq!(g.to_bits(), w.to_bits(), "{ty:?} {kind:?}")
                        }
                        (Ok(g), Ok(w)) => assert_eq!(g, w, "{ty:?} {kind:?} n={n}"),
                        (Err(_), Err(_)) => assert_eq!(ty, LogicalType::Bool),
                        (g, w) => panic!("{ty:?} {kind:?}: {g:?} vs {w:?}"),
                    }
                }
            }
        }
        // wide values: wrapping sums, extremes next to the nil sentinel
        let b = Bat::from_vec(vec![i64::MAX, i64::MAX, i64::NIL, i64::MIN + 1]);
        for kind in kinds {
            assert_eq!(
                aggregate_scalar(kind, &b).unwrap(),
                oracle::aggregate_scalar(kind, &b).unwrap(),
                "{kind:?}"
            );
        }
        let strings = Bat::from_strings([Some("a"), None, Some("b")]);
        assert_eq!(
            aggregate_scalar(AggKind::Count, &strings).unwrap(),
            oracle::aggregate_scalar(AggKind::Count, &strings).unwrap()
        );
    }

    /// Key sets with nil, `-0.0`/`0.0`, several NaN payloads, and more than
    /// 2^16 distinct keys so the table grows repeatedly.
    #[test]
    fn group_by_matches_the_hash_map() {
        let mut rng = StdRng::seed_from_u64(6);
        let check = |b: &Bat| {
            let (gids, n, extents) = group_by(b).unwrap();
            let (want_ids, want_extents) = oracle::group_by(b).unwrap();
            assert_eq!(oids(&gids), want_ids);
            assert_eq!(extents, want_extents);
            assert_eq!(n, extents.len());
        };
        for ty in FIXED {
            for n in [0, 1, 500] {
                check(&column(ty, &random_values(&mut rng, n, 0.2)));
            }
        }
        let other_nan = f64::from_bits(f64::NAN.to_bits() | 1);
        check(&Bat::from_vec(vec![
            0.0,
            -0.0,
            f64::NAN,
            1.5,
            other_nan,
            -0.0,
            1.5,
        ]));
        let (gids, n, _) = group_by(&Bat::from_vec(vec![0.0, -0.0, f64::NAN, other_nan])).unwrap();
        assert_eq!((oids(&gids), n), (vec![0, 0, 1, 1], 2));
        // 70 000 distinct keys, each seen twice, in scrambled order
        let mut keys: Vec<i64> = (0..140_000)
            .map(|i| (i % 70_000) * 7_919 - 300_000_000)
            .collect();
        keys[12_345] = i64::NIL;
        for i in (1..keys.len()).rev() {
            keys.swap(i, rng.random_range(0..=i));
        }
        check(&Bat::from_vec(keys));
    }

    /// Refinement is grouping on the pair `(old group, value)`.
    #[test]
    fn group_refine_matches_pairwise_grouping() {
        let mut rng = StdRng::seed_from_u64(7);
        for ty in FIXED {
            let a = column(ty, &random_values(&mut rng, 4000, 0.1));
            let b = column(LogicalType::I32, &random_values(&mut rng, 4000, 0.1));
            let (g1, _, _) = group_by(&a).unwrap();
            let (g2, n, extents) = group_refine(&g1, &b).unwrap();
            let (old, vals) = (oids(&g1), b.tail_slice::<i32>().unwrap());
            let mut seen = std::collections::HashMap::new();
            let mut want_extents = Vec::new();
            let want: Vec<Oid> = (0..a.len())
                .map(|i| {
                    let next = seen.len() as Oid;
                    *seen.entry((old[i], vals[i])).or_insert_with(|| {
                        want_extents.push(i);
                        next
                    })
                })
                .collect();
            assert_eq!(oids(&g2), want, "{ty:?}");
            assert_eq!((n, extents), (want_extents.len(), want_extents));
        }
    }

    /// Same pairs in the same order as the chained table: left row order,
    /// then latest right row first — over duplicate-heavy keys, nils,
    /// signed zeros, mixed widths and a build side past 2^16 keys.
    #[test]
    fn hash_join_matches_the_chained_table() {
        let mut rng = StdRng::seed_from_u64(8);
        let check = |l: &Bat, r: &Bat| {
            assert_eq!(hash_join(l, r).unwrap(), oracle::hash_join(l, r).unwrap());
        };
        for ty in FIXED {
            let l = column(ty, &random_values(&mut rng, 700, 0.1))
                .slice(100, 700)
                .unwrap();
            let r = column(ty, &random_values(&mut rng, 300, 0.1));
            check(&l, &r);
            check(&r, &l);
            check(&l, &column(ty, &[]));
        }
        check(
            &column(LogicalType::I8, &random_values(&mut rng, 200, 0.1)),
            &column(LogicalType::I64, &random_values(&mut rng, 200, 0.1)),
        );
        check(
            &Bat::from_vec(vec![0.0, -0.0, f64::NAN, 2.5]),
            &Bat::from_vec(vec![-0.0, f64::NAN, 2.5, 0.0]),
        );
        let build: Vec<i64> = (0..70_000).map(|i| i * 3).collect();
        let probe: Vec<i64> = (0..50_000).map(|_| rng.random_range(0..210_000)).collect();
        check(&Bat::from_vec(probe), &Bat::from_vec(build));
    }

    #[test]
    fn firstn_is_a_prefix_of_the_stable_sort() {
        let mut rng = StdRng::seed_from_u64(9);
        for ty in FIXED {
            let b = column(ty, &random_values(&mut rng, 400, 0.1))
                .slice(50, 400)
                .unwrap();
            for desc in [false, true] {
                let (sorted, order) = sort_bat_dir(&b, desc).unwrap();
                for n in [0, 1, 10, 349, 350, 1000] {
                    let (top, top_order) = firstn(&b, n, desc).unwrap();
                    let k = n.min(b.len());
                    assert_eq!(oids(&top_order), oids(&order)[..k], "{ty:?} {desc} {n}");
                    for i in 0..k {
                        assert_eq!(top.value_at(i), sorted.value_at(i));
                    }
                    assert_eq!(top.len(), k);
                }
            }
        }
        // ties keep input order ascending, and its exact reverse descending
        let b = Bat::from_vec(vec![2i32, 1, 2, 1, 2]);
        assert_eq!(oids(&firstn(&b, 3, false).unwrap().1), vec![1, 3, 0]);
        assert_eq!(oids(&firstn(&b, 2, true).unwrap().1), vec![4, 2]);
    }
}
