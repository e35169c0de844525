//! Bulk selections.
//!
//! The C-level sketch in §3 is the contract:
//!
//! ```c
//! for (i = j = 0; i < n; i++)
//!     if (B.tail[i] == V) R.tail[j++] = i;
//! ```
//!
//! — a tight loop over a native array with no expression interpreter in
//! sight; here it runs monomorphized per tail type and without the branch
//! (see `compress`). Results are candidate BATs (void head, ascending oid
//! tail). The `_cand` forms test only the rows an earlier candidate list
//! names and return the survivors as absolute oids again, so a WHERE chain
//! threads one list through its selections instead of materializing the
//! surviving values between them. When the input's `sorted` property holds,
//! selections switch to binary search (§3.1: properties "gear the selection
//! of subsequent algorithms").

use crate::fetch::check_in_range;
use mammoth_storage::{Bat, FixedTail, HeadColumn, Properties, StrHeap, TailHeap};
use mammoth_types::{Error, NativeType, Oid, Result, Value};

/// Comparison operators supported by [`select_cmp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// Wrap qualifying oids into a candidate BAT with full properties. A scan
/// emits in row order, so without a candidate list the oids of a void-headed
/// input ascend strictly; with one the result is a subsequence of it and
/// inherits its order facts.
fn candidates(b: &Bat, cands: Option<&Bat>, oids: Vec<Oid>) -> Bat {
    let (sorted, revsorted, key) = match cands {
        None => (b.head().is_void(), false, b.head().is_void()),
        Some(c) => (c.props().sorted, c.props().revsorted, c.props().key),
    };
    debug_assert!(!(sorted && key) || oids.windows(2).all(|w| w[0] < w[1]));
    let mut out = Bat::dense(0, TailHeap::from_vec(oids));
    out.set_props(Properties {
        sorted,
        revsorted: revsorted || out.len() <= 1,
        key,
        nonil: true,
        min: None,
        max: None,
    });
    out
}

/// Oids the compress loop buffers before appending them to the result.
const BLOCK: usize = 1024;

/// The §3 loop without its branch: every row stores its oid, and the write
/// cursor advances only when the row qualifies. Oids collect in a
/// fixed-size block that is appended to the result when full, so the loop
/// neither mispredicts on selectivity nor allocates for rows that fail.
fn compress<T: Copy>(rows: impl Iterator<Item = (Oid, T)>, pred: impl Fn(T) -> bool) -> Vec<Oid> {
    let mut out: Vec<Oid> = Vec::new();
    let mut block = [0 as Oid; BLOCK];
    let mut j = 0;
    for (oid, x) in rows {
        block[j] = oid;
        j += pred(x) as usize;
        if j == BLOCK {
            out.extend_from_slice(&block);
            j = 0;
        }
    }
    out.extend_from_slice(&block[..j]);
    out
}

/// Run `pred` over the rows of `b` — all of them, or those a candidate list
/// names — and return the qualifying head oids in scan order.
fn scan<T: Copy>(
    b: &Bat,
    data: &[T],
    cands: Option<&[Oid]>,
    pred: impl Fn(T) -> bool,
) -> Result<Vec<Oid>> {
    let values = data.iter().copied();
    Ok(match (b.head(), cands) {
        (HeadColumn::Void { seqbase }, None) => compress((*seqbase..).zip(values), pred),
        (HeadColumn::Oids(head), None) => compress(head.iter().copied().zip(values), pred),
        (HeadColumn::Void { seqbase }, Some(cands)) => {
            check_in_range(cands, *seqbase, data.len())?;
            let rows = cands.iter().map(|&o| (o, data[(o - seqbase) as usize]));
            compress(rows, pred)
        }
        // materialized head: no positional lookup, resolve each candidate
        (HeadColumn::Oids(_), Some(cands)) => {
            let rows = cands
                .iter()
                .map(|&o| match b.find_oid(o) {
                    Some(p) => Ok((o, data[p])),
                    None => Err(Error::OutOfRange {
                        index: o,
                        len: data.len() as u64,
                    }),
                })
                .collect::<Result<Vec<_>>>()?;
            compress(rows.into_iter(), pred)
        }
    })
}

fn typed_const<T: NativeType>(v: &Value) -> Result<T> {
    T::from_value(v)
        .or_else(|| v.coerce(T::LOGICAL).as_ref().and_then(T::from_value))
        .ok_or_else(|| Error::TypeMismatch {
            expected: T::LOGICAL.name().into(),
            found: format!("{v:?}"),
        })
}

/// One side of a range predicate, in the column's native type.
#[derive(Clone, Copy)]
struct Bound<T> {
    value: T,
    inclusive: bool,
}

impl<T: NativeType> Bound<T> {
    fn typed(v: Option<&Value>, inclusive: bool) -> Result<Option<Bound<T>>> {
        v.map(|v| typed_const(v).map(|value| Bound { value, inclusive }))
            .transpose()
    }
}

/// `lo <(=) x <(=) hi` as flag arithmetic: no branch depends on the data,
/// and nil never qualifies (SQL three-valued logic collapses to false).
#[inline(always)]
fn in_range<T: NativeType>(x: T, lo: Option<Bound<T>>, hi: Option<Bound<T>>) -> bool {
    let lo_ok = match lo {
        None => true,
        Some(b) => (x > b.value) | (b.inclusive & (x == b.value)),
    };
    let hi_ok = match hi {
        None => true,
        Some(b) => (x < b.value) | (b.inclusive & (x == b.value)),
    };
    !x.is_nil() & lo_ok & hi_ok
}

/// A fixed-width tail type and the predicate its scan loop evaluates.
trait ScanTail: NativeType + FixedTail {
    /// [`in_range`] with the bounds fixed, in the cheapest form the type
    /// allows.
    fn range_pred(lo: Option<Bound<Self>>, hi: Option<Bound<Self>>) -> impl Fn(Self) -> bool {
        move |x| in_range(x, lo, hi)
    }
}

impl ScanTail for bool {}
impl ScanTail for f64 {}

/// Integer domains are discrete and keep nil at one end, so any bound pair
/// closes to `live_lo <= x <= live_hi` over the non-nil values: two
/// compares per row, whatever the inclusivity, with the nil test folded in.
/// An empty range comes out as `lo > hi`.
macro_rules! discrete_scan_tail {
    ($t:ty, $live_min:expr, $live_max:expr) => {
        impl ScanTail for $t {
            fn range_pred(lo: Option<Bound<$t>>, hi: Option<Bound<$t>>) -> impl Fn($t) -> bool {
                let lo = match lo {
                    None => Some($live_min),
                    Some(b) if b.inclusive => Some(b.value),
                    Some(b) => b.value.checked_add(1),
                };
                let hi = match hi {
                    None => Some($live_max),
                    Some(b) if b.inclusive => Some(b.value),
                    Some(b) => b.value.checked_sub(1),
                };
                let (lo, hi): ($t, $t) = match (lo, hi) {
                    (Some(lo), Some(hi)) => (lo.max($live_min), hi.min($live_max)),
                    _ => ($live_max, $live_min),
                };
                move |x| (x >= lo) & (x <= hi)
            }
        }
    };
}

discrete_scan_tail!(i8, i8::MIN + 1, i8::MAX);
discrete_scan_tail!(i16, i16::MIN + 1, i16::MAX);
discrete_scan_tail!(i32, i32::MIN + 1, i32::MAX);
discrete_scan_tail!(i64, i64::MIN + 1, i64::MAX);
discrete_scan_tail!(Oid, 0, Oid::MAX - 1);

fn range_fixed<T: ScanTail>(
    b: &Bat,
    cands: Option<&Bat>,
    lo: Option<Bound<T>>,
    hi: Option<Bound<T>>,
) -> Result<Vec<Oid>> {
    let data = b.tail_slice::<T>()?;
    let cand_oids = cands.map(|c| c.tail_slice::<Oid>()).transpose()?;

    // Binary-search fast path on sorted, nil-free tails of void-headed
    // columns: the qualifying rows are one contiguous oid run.
    if let (true, true, HeadColumn::Void { seqbase }) =
        (b.props().sorted, b.props().nonil, b.head())
    {
        let from = match lo {
            None => 0,
            Some(l) => data.partition_point(|x| !in_range(*x, Some(l), None)),
        };
        let to = match hi {
            None => data.len(),
            Some(h) => data.partition_point(|x| in_range(*x, None, Some(h))),
        };
        let run = seqbase + from.min(to) as Oid..seqbase + to as Oid;
        return Ok(match (cand_oids, cands) {
            (Some(oids), Some(c)) => {
                check_in_range(oids, *seqbase, data.len())?;
                if c.props().sorted {
                    let s = oids.partition_point(|&o| o < run.start);
                    let e = oids.partition_point(|&o| o < run.end);
                    oids[s..e].to_vec()
                } else {
                    oids.iter().copied().filter(|o| run.contains(o)).collect()
                }
            }
            _ => run.collect(),
        });
    }
    scan(b, data, cand_oids, T::range_pred(lo, hi))
}

fn theta_fixed<T: ScanTail>(
    b: &Bat,
    cands: Option<&Bat>,
    op: CmpOp,
    v: &Value,
) -> Result<Vec<Oid>> {
    let c: T = typed_const(v)?;
    if c.is_nil() {
        // comparisons with NULL select nothing
        return Ok(Vec::new());
    }
    let at = |inclusive| {
        Some(Bound {
            value: c,
            inclusive,
        })
    };
    match op {
        CmpOp::Eq => range_fixed(b, cands, at(true), at(true)),
        CmpOp::Lt => range_fixed(b, cands, None, at(false)),
        CmpOp::Le => range_fixed(b, cands, None, at(true)),
        CmpOp::Gt => range_fixed(b, cands, at(false), None),
        CmpOp::Ge => range_fixed(b, cands, at(true), None),
        CmpOp::Ne => {
            let data = b.tail_slice::<T>()?;
            let cand_oids = cands.map(|c| c.tail_slice::<Oid>()).transpose()?;
            scan(b, data, cand_oids, move |x| !x.is_nil() & (x != c))
        }
    }
}

/// String selections compare payloads row by row (the slow, dynamic path).
fn scan_str(
    b: &Bat,
    h: &StrHeap,
    cands: Option<&Bat>,
    keep: impl Fn(&str) -> bool,
) -> Result<Vec<Oid>> {
    let qualifies = |p: usize| h.get(p).is_some_and(&keep);
    let Some(cands) = cands else {
        return Ok((0..h.len())
            .filter(|&p| qualifies(p))
            .map(|p| b.oid_at(p))
            .collect());
    };
    let mut out = Vec::new();
    for &o in cands.tail_slice::<Oid>()? {
        let p = b.find_oid(o).ok_or(Error::OutOfRange {
            index: o,
            len: h.len() as u64,
        })?;
        if qualifies(p) {
            out.push(o);
        }
    }
    Ok(out)
}

fn str_const(v: &Value) -> Result<&str> {
    match v {
        Value::Str(s) => Ok(s.as_str()),
        other => Err(Error::TypeMismatch {
            expected: "string".into(),
            found: format!("{other:?}"),
        }),
    }
}

fn theta(b: &Bat, cands: Option<&Bat>, op: CmpOp, v: &Value) -> Result<Bat> {
    let oids = match b.tail() {
        TailHeap::Bool(_) => theta_fixed::<bool>(b, cands, op, v),
        TailHeap::I8(_) => theta_fixed::<i8>(b, cands, op, v),
        TailHeap::I16(_) => theta_fixed::<i16>(b, cands, op, v),
        TailHeap::I32(_) => theta_fixed::<i32>(b, cands, op, v),
        TailHeap::I64(_) => theta_fixed::<i64>(b, cands, op, v),
        TailHeap::F64(_) => theta_fixed::<f64>(b, cands, op, v),
        TailHeap::Oid(_) => theta_fixed::<Oid>(b, cands, op, v),
        TailHeap::Str(_) if v.is_null() => Ok(Vec::new()),
        TailHeap::Str(h) => {
            let needle = str_const(v)?;
            scan_str(b, h, cands, |s| match op {
                CmpOp::Eq => s == needle,
                CmpOp::Ne => s != needle,
                CmpOp::Lt => s < needle,
                CmpOp::Le => s <= needle,
                CmpOp::Gt => s > needle,
                CmpOp::Ge => s >= needle,
            })
        }
    }?;
    Ok(candidates(b, cands, oids))
}

/// `select(b, op, v)`: candidate oids where `tail op v` holds.
pub fn select_cmp(b: &Bat, op: CmpOp, v: &Value) -> Result<Bat> {
    theta(b, None, op, v)
}

/// [`select_cmp`] restricted to the rows a candidate list names: the result
/// is the subsequence of `cands` (absolute head oids of `b`) whose rows
/// qualify. A candidate outside `b` is a typed [`Error::OutOfRange`].
pub fn select_cmp_cand(b: &Bat, cands: &Bat, op: CmpOp, v: &Value) -> Result<Bat> {
    theta(b, Some(cands), op, v)
}

/// `select(b, v)`: equality selection, the canonical §3 example.
pub fn select_eq(b: &Bat, v: &Value) -> Result<Bat> {
    select_cmp(b, CmpOp::Eq, v)
}

fn range(
    b: &Bat,
    cands: Option<&Bat>,
    lo: Option<&Value>,
    hi: Option<&Value>,
    lo_incl: bool,
    hi_incl: bool,
) -> Result<Bat> {
    macro_rules! fixed {
        ($t:ty) => {
            range_fixed::<$t>(
                b,
                cands,
                Bound::typed(lo, lo_incl)?,
                Bound::typed(hi, hi_incl)?,
            )
        };
    }
    let null_bound = matches!(lo, Some(Value::Null)) || matches!(hi, Some(Value::Null));
    let oids = match b.tail() {
        _ if null_bound => Ok(Vec::new()),
        TailHeap::Bool(_) => fixed!(bool),
        TailHeap::I8(_) => fixed!(i8),
        TailHeap::I16(_) => fixed!(i16),
        TailHeap::I32(_) => fixed!(i32),
        TailHeap::I64(_) => fixed!(i64),
        TailHeap::F64(_) => fixed!(f64),
        TailHeap::Oid(_) => fixed!(Oid),
        TailHeap::Str(h) => {
            let lo_s = lo.map(str_const).transpose()?;
            let hi_s = hi.map(str_const).transpose()?;
            scan_str(b, h, cands, |s| {
                lo_s.is_none_or(|c| if lo_incl { s >= c } else { s > c })
                    && hi_s.is_none_or(|c| if hi_incl { s <= c } else { s < c })
            })
        }
    }?;
    Ok(candidates(b, cands, oids))
}

/// Range selection `lo .. hi` with open bounds expressed as `None`.
pub fn select_range(
    b: &Bat,
    lo: Option<&Value>,
    hi: Option<&Value>,
    lo_incl: bool,
    hi_incl: bool,
) -> Result<Bat> {
    range(b, None, lo, hi, lo_incl, hi_incl)
}

/// [`select_range`] restricted to the rows a candidate list names (see
/// [`select_cmp_cand`]).
pub fn select_range_cand(
    b: &Bat,
    cands: &Bat,
    lo: Option<&Value>,
    hi: Option<&Value>,
    lo_incl: bool,
    hi_incl: bool,
) -> Result<Bat> {
    range(b, Some(cands), lo, hi, lo_incl, hi_incl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mammoth_storage::Bat;

    #[test]
    fn figure1_select() {
        // Figure 1: select(age, 1927) over [1907, 1927, 1927, 1968] -> {1, 2}
        let age = Bat::from_vec(vec![1907i32, 1927, 1927, 1968]);
        let r = select_eq(&age, &Value::I32(1927)).unwrap();
        assert_eq!(r.tail_slice::<Oid>().unwrap(), &[1, 2]);
        assert!(r.props().sorted && r.props().key);
    }

    #[test]
    fn comparison_ops() {
        let b = Bat::from_vec(vec![5i64, 1, 3, 5, 9]);
        let pos = |op| {
            select_cmp(&b, op, &Value::I64(5))
                .unwrap()
                .tail_slice::<Oid>()
                .unwrap()
                .to_vec()
        };
        assert_eq!(pos(CmpOp::Eq), vec![0, 3]);
        assert_eq!(pos(CmpOp::Ne), vec![1, 2, 4]);
        assert_eq!(pos(CmpOp::Lt), vec![1, 2]);
        assert_eq!(pos(CmpOp::Le), vec![0, 1, 2, 3]);
        assert_eq!(pos(CmpOp::Gt), vec![4]);
        assert_eq!(pos(CmpOp::Ge), vec![0, 3, 4]);
    }

    #[test]
    fn nil_never_matches() {
        let b = Bat::from_vec(vec![1i32, i32::NIL, 3]);
        assert_eq!(select_cmp(&b, CmpOp::Ne, &Value::I32(99)).unwrap().len(), 2);
        assert_eq!(select_cmp(&b, CmpOp::Lt, &Value::I32(99)).unwrap().len(), 2);
        // comparing against NULL selects nothing
        assert_eq!(select_eq(&b, &Value::Null).unwrap().len(), 0);
    }

    #[test]
    fn range_scan_and_bounds() {
        let b = Bat::from_vec(vec![10i32, 20, 30, 40, 50]);
        let r = select_range(&b, Some(&Value::I32(20)), Some(&Value::I32(40)), true, true).unwrap();
        assert_eq!(r.tail_slice::<Oid>().unwrap(), &[1, 2, 3]);
        let r = select_range(
            &b,
            Some(&Value::I32(20)),
            Some(&Value::I32(40)),
            false,
            false,
        )
        .unwrap();
        assert_eq!(r.tail_slice::<Oid>().unwrap(), &[2]);
        let r = select_range(&b, None, Some(&Value::I32(25)), true, true).unwrap();
        assert_eq!(r.tail_slice::<Oid>().unwrap(), &[0, 1]);
        let r = select_range(&b, Some(&Value::I32(45)), None, true, true).unwrap();
        assert_eq!(r.tail_slice::<Oid>().unwrap(), &[4]);
    }

    #[test]
    fn sorted_fast_path_equals_scan() {
        let mut sorted = Bat::from_vec((0..1000i64).map(|i| i / 3).collect::<Vec<_>>());
        sorted.compute_props();
        assert!(sorted.props().sorted);
        let unsorted = Bat::from_vec(sorted.tail_slice::<i64>().unwrap().to_vec());
        for (lo, hi, li, hi_i) in [
            (10, 50, true, true),
            (0, 0, true, false),
            (5, 7, false, true),
        ] {
            let a = select_range(
                &sorted,
                Some(&Value::I64(lo)),
                Some(&Value::I64(hi)),
                li,
                hi_i,
            )
            .unwrap();
            let b = select_range(
                &unsorted,
                Some(&Value::I64(lo)),
                Some(&Value::I64(hi)),
                li,
                hi_i,
            )
            .unwrap();
            assert_eq!(
                a.tail_slice::<Oid>().unwrap(),
                b.tail_slice::<Oid>().unwrap()
            );
        }
    }

    #[test]
    fn string_selects() {
        let b = Bat::from_strings([Some("apple"), Some("pear"), None, Some("fig")]);
        let r = select_eq(&b, &Value::Str("pear".into())).unwrap();
        assert_eq!(r.tail_slice::<Oid>().unwrap(), &[1]);
        let r = select_range(
            &b,
            Some(&Value::Str("a".into())),
            Some(&Value::Str("g".into())),
            true,
            true,
        )
        .unwrap();
        assert_eq!(r.tail_slice::<Oid>().unwrap(), &[0, 3]);
        assert!(select_eq(&b, &Value::I32(3)).is_err());
    }

    #[test]
    fn seqbase_offsets_candidates() {
        let b = Bat::from_vec(vec![7i32, 8, 7]).slice(1, 3).unwrap(); // seqbase 1
        let r = select_eq(&b, &Value::I32(7)).unwrap();
        assert_eq!(r.tail_slice::<Oid>().unwrap(), &[2]);
    }

    #[test]
    fn coercion_of_constants() {
        let b = Bat::from_vec(vec![1i32, 2, 3]);
        // i64 constant against i32 column coerces
        let r = select_eq(&b, &Value::I64(2)).unwrap();
        assert_eq!(r.tail_slice::<Oid>().unwrap(), &[1]);
        // out-of-range constant cannot coerce
        assert!(select_eq(&b, &Value::I64(i64::MAX)).is_err());
    }
}
