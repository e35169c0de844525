//! Grouping and aggregation.
//!
//! `group_by` assigns dense group ids in first-appearance order (the
//! MonetDB `group` operator); `grouped_aggregate` then folds a value column
//! per group in one tight pass. Like everything in the BAT Algebra the two
//! phases are separate bulk operators, not a single streaming pipeline.

use crate::flat::{assign_groups, with_images};
use mammoth_storage::{Bat, FixedTail, TailHeap};
use mammoth_types::{Error, NativeType, Oid, Result, Value};

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggKind {
    /// Count of non-nil values.
    Count,
    Sum,
    Min,
    Max,
    Avg,
}

/// `group(b)`: a BAT mapping each row to a dense group id (0-based, in
/// first-appearance order), plus the number of groups and one representative
/// row position per group ("extents"). Nil gets its own group like any
/// other value (SQL GROUP BY semantics).
pub fn group_by(b: &Bat) -> Result<(Bat, usize, Vec<usize>)> {
    let (ids, extents) = match b.tail() {
        // within one heap, dedup guarantees equal strings share their
        // offset, so the offset is an exact group key
        TailHeap::Str(h) => assign_groups((0..h.len()).map(|i| h.offset(i))),
        _ => with_images!(b, |images| assign_groups(images.map(|(image, _)| image))),
    };
    let ngroups = extents.len();
    Ok((Bat::dense(0, TailHeap::from_vec(ids)), ngroups, extents))
}

/// Refine an existing grouping by a second column: rows are in the same
/// output group iff they agree on both the old group and `b`'s value.
/// This is how multi-column GROUP BY composes out of unary operators.
pub fn group_refine(groups: &Bat, b: &Bat) -> Result<(Bat, usize, Vec<usize>)> {
    if groups.len() != b.len() {
        return Err(Error::LengthMismatch {
            left: groups.len(),
            right: b.len(),
        });
    }
    let gid = groups.tail_slice::<Oid>()?.iter().copied();
    let (ids, extents) = match b.tail() {
        TailHeap::Str(h) => assign_groups(gid.zip((0..h.len()).map(|i| h.offset(i)))),
        _ => with_images!(b, |images| assign_groups(
            gid.zip(images.map(|(image, _)| image))
        )),
    };
    let n = extents.len();
    Ok((Bat::dense(0, TailHeap::from_vec(ids)), n, extents))
}

/// A fixed-width tail type aggregates fold over. Integers (and oids, as
/// wrapped integers) widen to `i64`; floats stay `f64`.
pub trait AggTail: FixedTail {
    /// Whether SUM / MIN / MAX over this type are `f64` rather than `i64`.
    const FLOAT: bool;
    /// Fold the non-nil values among `values`, in order, into `red`.
    fn reduce(red: &mut Reduction, values: impl Iterator<Item = Self>);
    /// Fold each non-nil `(group, value)` into its group's accumulator.
    fn accumulate(accs: &mut [Acc], rows: impl Iterator<Item = (usize, Self)>);
}

macro_rules! integer_agg_tail {
    ($($t:ty),*) => {
        $(impl AggTail for $t {
            const FLOAT: bool = false;
            fn reduce(red: &mut Reduction, values: impl Iterator<Item = $t>) {
                red.ints(values, |x| x as i64);
            }
            fn accumulate(accs: &mut [Acc], rows: impl Iterator<Item = (usize, $t)>) {
                for (g, x) in rows {
                    if !x.is_nil() {
                        accs[g].add_i(x as i64);
                    }
                }
            }
        })*
    };
}

integer_agg_tail!(i8, i16, i32, i64, Oid);

impl AggTail for f64 {
    const FLOAT: bool = true;
    fn reduce(red: &mut Reduction, values: impl Iterator<Item = f64>) {
        red.floats(values);
    }
    fn accumulate(accs: &mut [Acc], rows: impl Iterator<Item = (usize, f64)>) {
        for (g, x) in rows {
            if !x.is_nil() {
                accs[g].add_f(x);
            }
        }
    }
}

/// One group's running aggregates over one value column.
#[derive(Clone, Copy)]
pub struct Acc {
    count: u64,
    sum: f64,
    sum_i: i64,
    min: f64,
    max: f64,
    min_i: i64,
    max_i: i64,
}

impl Acc {
    pub fn new() -> Acc {
        Acc {
            count: 0,
            sum: 0.0,
            sum_i: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            min_i: i64::MAX,
            max_i: i64::MIN,
        }
    }

    #[inline]
    fn add_i(&mut self, v: i64) {
        self.count += 1;
        self.sum_i = self.sum_i.wrapping_add(v);
        self.sum += v as f64;
        self.min_i = self.min_i.min(v);
        self.max_i = self.max_i.max(v);
    }

    #[inline]
    fn add_f(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }
}

impl Default for Acc {
    fn default() -> Acc {
        Acc::new()
    }
}

fn accumulate(values: &Bat, gid: &[Oid], ngroups: usize) -> Result<(Vec<Acc>, bool)> {
    fn fixed<T: AggTail>(v: &[T], gid: &[Oid], accs: &mut [Acc]) -> bool {
        T::accumulate(accs, gid.iter().map(|&g| g as usize).zip(v.iter().copied()));
        T::FLOAT
    }
    let mut accs = vec![Acc::new(); ngroups];
    let float = match values.tail() {
        TailHeap::I8(v) => fixed(v, gid, &mut accs),
        TailHeap::I16(v) => fixed(v, gid, &mut accs),
        TailHeap::I32(v) => fixed(v, gid, &mut accs),
        TailHeap::I64(v) => fixed(v, gid, &mut accs),
        TailHeap::F64(v) => fixed(v, gid, &mut accs),
        // oids aggregate as unsigned integers (used for COUNT(*) via the
        // never-nil group-id column)
        TailHeap::Oid(v) => fixed(v, gid, &mut accs),
        TailHeap::Str(h) => {
            // only COUNT is meaningful on strings
            for i in 0..h.len() {
                if h.get(i).is_some() {
                    accs[gid[i] as usize].count += 1;
                }
            }
            false
        }
        other => {
            return Err(Error::Unsupported(format!(
                "aggregation over {} columns",
                other.ty().name()
            )))
        }
    };
    Ok((accs, float))
}

/// One output row per group: SUM/MIN/MAX over integers stay integral
/// (`i64`), over a `float` column they are `f64`; AVG is always `f64`;
/// COUNT counts non-nil values; a group without one yields nil.
pub fn finish_groups(kind: AggKind, accs: &[Acc], float: bool) -> TailHeap {
    fn column<T: FixedTail>(accs: &[Acc], value: impl Fn(&Acc) -> T) -> TailHeap {
        let row = |a: &Acc| if a.count == 0 { T::NIL } else { value(a) };
        TailHeap::from_vec(accs.iter().map(row).collect::<Vec<T>>())
    }
    match (kind, float) {
        (AggKind::Count, _) => {
            TailHeap::from_vec(accs.iter().map(|a| a.count as i64).collect::<Vec<_>>())
        }
        (AggKind::Avg, _) => column(accs, |a| a.sum / a.count as f64),
        (AggKind::Sum, true) => column(accs, |a| a.sum),
        (AggKind::Sum, false) => column(accs, |a| a.sum_i),
        (AggKind::Min, true) => column(accs, |a| a.min),
        (AggKind::Min, false) => column(accs, |a| a.min_i),
        (AggKind::Max, true) => column(accs, |a| a.max),
        (AggKind::Max, false) => column(accs, |a| a.max_i),
    }
}

/// `agg(kind, values, groups, ngroups)`: one output row per group.
///
/// `groups` must be aligned with `values` (same length). SUM/MIN/MAX over
/// integers stay integral (i64); AVG is always f64; empty groups yield nil.
pub fn grouped_aggregate(kind: AggKind, values: &Bat, groups: &Bat, ngroups: usize) -> Result<Bat> {
    if values.len() != groups.len() {
        return Err(Error::LengthMismatch {
            left: values.len(),
            right: groups.len(),
        });
    }
    let gid = groups.tail_slice::<Oid>()?;
    if let Some(&bad) = gid.iter().find(|&&g| g as usize >= ngroups) {
        return Err(Error::OutOfRange {
            index: bad,
            len: ngroups as u64,
        });
    }
    let (accs, float) = accumulate(values, gid, ngroups)?;
    Ok(Bat::dense(0, finish_groups(kind, &accs, float)))
}

/// The running state of the scalar aggregates over one column: values fold
/// in as they come — a whole column at once, or a vector at a time — and
/// each result is read off at the end. One aggregate folds in a loop of its
/// own; several (`MIN(b), MAX(b)`) fold in one pass over the values, which
/// are then read — through a selection, where there is one — once instead
/// of once per aggregate. Sums run strictly left to right either way:
/// float addition is not associative and every engine must agree bit for
/// bit.
#[derive(Debug, Clone, Copy)]
pub struct Reduction {
    /// The aggregates asked for, a bit per [`AggKind`].
    kinds: u8,
    /// Non-nil values folded so far.
    count: usize,
    sum_i: i64,
    min_i: i64,
    max_i: i64,
    /// Of a float column, or for AVG over an integer one.
    sum_f: f64,
    min_f: f64,
    max_f: f64,
}

const fn bit(kind: AggKind) -> u8 {
    1 << kind as u8
}

const COUNT: u8 = bit(AggKind::Count);
const SUM: u8 = bit(AggKind::Sum);
const MIN: u8 = bit(AggKind::Min);
const MAX: u8 = bit(AggKind::Max);
const AVG: u8 = bit(AggKind::Avg);

impl Reduction {
    pub fn new(kind: AggKind) -> Reduction {
        Reduction {
            kinds: bit(kind),
            count: 0,
            sum_i: 0,
            min_i: i64::MAX,
            max_i: i64::MIN,
            sum_f: 0.0,
            min_f: f64::INFINITY,
            max_f: f64::NEG_INFINITY,
        }
    }

    /// Fold `kind` over the same values as well.
    pub fn and(mut self, kind: AggKind) -> Reduction {
        self.kinds |= bit(kind);
        self
    }

    fn asks(&self, kind: AggKind) -> bool {
        self.kinds & bit(kind) != 0
    }

    fn ints<T: FixedTail>(&mut self, values: impl Iterator<Item = T>, widen: impl Fn(T) -> i64) {
        match self.kinds {
            COUNT => self.count += values.filter(|x| !x.is_nil()).count(),
            SUM => {
                let state = (self.count, self.sum_i);
                (self.count, self.sum_i) = fold_ints(values, state, widen, 0, i64::wrapping_add);
            }
            MIN => {
                let state = (self.count, self.min_i);
                (self.count, self.min_i) = fold_ints(values, state, widen, i64::MAX, i64::min);
            }
            MAX => {
                let state = (self.count, self.max_i);
                (self.count, self.max_i) = fold_ints(values, state, widen, i64::MIN, i64::max);
            }
            // summed left to right in f64, exactly like the grouped accumulator
            AVG => {
                let live = values.filter(|x| !x.is_nil());
                (self.count, self.sum_f) = live.fold((self.count, self.sum_f), |(n, acc), x| {
                    (n + 1, acc + widen(x) as f64)
                });
            }
            kinds if kinds & AVG == 0 => self.all_ints::<T, false>(values, widen),
            _ => self.all_ints::<T, true>(values, widen),
        }
    }

    /// Every integer aggregate in one pass, [`fold_ints`]'s way: a nil
    /// contributes each one's identity. The `f64` sum AVG reads is a chain
    /// of dependent float additions, folded only `WITH_AVG`.
    fn all_ints<T: FixedTail, const WITH_AVG: bool>(
        &mut self,
        values: impl Iterator<Item = T>,
        widen: impl Fn(T) -> i64,
    ) {
        let state = (self.count, self.sum_i, self.min_i, self.max_i, self.sum_f);
        (self.count, self.sum_i, self.min_i, self.max_i, self.sum_f) =
            values.fold(state, |(n, sum, min, max, sum_f), x| {
                let nil = x.is_nil();
                let v = widen(x);
                (
                    n + !nil as usize,
                    sum.wrapping_add(if nil { 0 } else { v }),
                    min.min(if nil { i64::MAX } else { v }),
                    max.max(if nil { i64::MIN } else { v }),
                    if WITH_AVG && !nil {
                        sum_f + v as f64
                    } else {
                        sum_f
                    },
                )
            });
    }

    fn floats(&mut self, values: impl Iterator<Item = f64>) {
        let live = values.filter(|x| !x.is_nil());
        match self.kinds {
            MIN => {
                (self.count, self.min_f) =
                    live.fold((self.count, self.min_f), |(n, acc), x| (n + 1, acc.min(x)));
            }
            MAX => {
                (self.count, self.max_f) =
                    live.fold((self.count, self.max_f), |(n, acc), x| (n + 1, acc.max(x)));
            }
            // COUNT, SUM, AVG or any two of them: the sum and the count
            kinds if kinds & (MIN | MAX) == 0 => {
                (self.count, self.sum_f) =
                    live.fold((self.count, self.sum_f), |(n, acc), x| (n + 1, acc + x));
            }
            _ => {
                let state = (self.count, self.sum_f, self.min_f, self.max_f);
                (self.count, self.sum_f, self.min_f, self.max_f) = live
                    .fold(state, |(n, sum, min, max), x| {
                        (n + 1, sum + x, min.min(x), max.max(x))
                    });
            }
        }
    }

    /// `kind` — one of the aggregates asked for — over everything folded
    /// so far, read as a column of `float` or integer type: integer
    /// results widen to `i64` like the grouped path's, and no non-nil
    /// value at all yields nil.
    pub fn finish(&self, kind: AggKind, float: bool) -> Value {
        debug_assert!(self.asks(kind), "{kind:?} was not folded");
        match (kind, self.count) {
            (AggKind::Count, n) => Value::I64(n as i64),
            (_, 0) => Value::Null,
            (AggKind::Avg, n) => Value::F64(self.sum_f / n as f64),
            (AggKind::Sum, _) if float => Value::F64(self.sum_f),
            (AggKind::Sum, _) => Value::I64(self.sum_i),
            (AggKind::Min, _) if float => Value::F64(self.min_f),
            (AggKind::Min, _) => Value::I64(self.min_i),
            (AggKind::Max, _) if float => Value::F64(self.max_f),
            (AggKind::Max, _) => Value::I64(self.max_i),
        }
    }
}

/// Count and fold the non-nil values among `values`, widened to `i64`, on
/// top of `state`. A nil contributes the reduction's identity, so the loop
/// carries no data-dependent branch.
fn fold_ints<T: FixedTail>(
    values: impl Iterator<Item = T>,
    state: (usize, i64),
    widen: impl Fn(T) -> i64,
    identity: i64,
    f: impl Fn(i64, i64) -> i64,
) -> (usize, i64) {
    values.fold(state, |(n, acc), x| {
        let nil = x.is_nil();
        (
            n + !nil as usize,
            f(acc, if nil { identity } else { widen(x) }),
        )
    })
}

/// Aggregate a whole column to a single value: one reduction per kind per
/// type, no group column.
pub fn aggregate_scalar(kind: AggKind, values: &Bat) -> Result<Value> {
    fn fixed<T: AggTail>(v: &[T], kind: AggKind) -> Value {
        let mut red = Reduction::new(kind);
        T::reduce(&mut red, v.iter().copied());
        red.finish(kind, T::FLOAT)
    }
    Ok(match values.tail() {
        TailHeap::I8(v) => fixed(v, kind),
        TailHeap::I16(v) => fixed(v, kind),
        TailHeap::I32(v) => fixed(v, kind),
        TailHeap::I64(v) => fixed(v, kind),
        // oids aggregate as (wrapped) integers, like the grouped path
        TailHeap::Oid(v) => fixed(v, kind),
        TailHeap::F64(v) => fixed(v, kind),
        TailHeap::Str(h) if kind == AggKind::Count => {
            Value::I64((0..h.len()).filter(|&i| h.get(i).is_some()).count() as i64)
        }
        // not a hot path (the verifier rejects these plans): answer as the
        // grouped operator does over a single group
        TailHeap::Str(_) | TailHeap::Bool(_) => {
            let groups = Bat::dense(0, TailHeap::from_vec(vec![0 as Oid; values.len()]));
            grouped_aggregate(kind, values, &groups, 1)?.value_at(0)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_ids_first_appearance() {
        let b = Bat::from_vec(vec![7i32, 3, 7, 9, 3]);
        let (g, n, extents) = group_by(&b).unwrap();
        assert_eq!(n, 3);
        assert_eq!(g.tail_slice::<Oid>().unwrap(), &[0, 1, 0, 2, 1]);
        assert_eq!(extents, vec![0, 1, 3]);
    }

    #[test]
    fn nil_forms_its_own_group() {
        let b = Bat::from_vec(vec![1i32, i32::NIL, 1, i32::NIL]);
        let (g, n, _) = group_by(&b).unwrap();
        assert_eq!(n, 2);
        assert_eq!(g.tail_slice::<Oid>().unwrap(), &[0, 1, 0, 1]);
    }

    #[test]
    fn string_groups_use_heap_dedup() {
        let b = Bat::from_strings([Some("x"), Some("y"), Some("x"), None, None]);
        let (g, n, _) = group_by(&b).unwrap();
        assert_eq!(n, 3);
        assert_eq!(g.tail_slice::<Oid>().unwrap(), &[0, 1, 0, 2, 2]);
    }

    #[test]
    fn refine_composes_multi_column() {
        let a = Bat::from_vec(vec![1i32, 1, 2, 2, 1]);
        let b = Bat::from_vec(vec![9i32, 8, 9, 9, 9]);
        let (g1, _, _) = group_by(&a).unwrap();
        let (g2, n, _) = group_refine(&g1, &b).unwrap();
        // groups: (1,9) (1,8) (2,9) (2,9) (1,9)
        assert_eq!(n, 3);
        assert_eq!(g2.tail_slice::<Oid>().unwrap(), &[0, 1, 2, 2, 0]);
    }

    #[test]
    fn aggregates_per_group() {
        let v = Bat::from_vec(vec![10i32, 20, 30, 40]);
        let g = Bat::from_vec(vec![0 as Oid, 1, 0, 1]);
        let sum = grouped_aggregate(AggKind::Sum, &v, &g, 2).unwrap();
        assert_eq!(sum.tail_slice::<i64>().unwrap(), &[40, 60]);
        let min = grouped_aggregate(AggKind::Min, &v, &g, 2).unwrap();
        assert_eq!(min.tail_slice::<i64>().unwrap(), &[10, 20]);
        let max = grouped_aggregate(AggKind::Max, &v, &g, 2).unwrap();
        assert_eq!(max.tail_slice::<i64>().unwrap(), &[30, 40]);
        let avg = grouped_aggregate(AggKind::Avg, &v, &g, 2).unwrap();
        assert_eq!(avg.tail_slice::<f64>().unwrap(), &[20.0, 30.0]);
        let cnt = grouped_aggregate(AggKind::Count, &v, &g, 2).unwrap();
        assert_eq!(cnt.tail_slice::<i64>().unwrap(), &[2, 2]);
    }

    #[test]
    fn nils_skipped_and_empty_groups_nil() {
        use mammoth_types::NativeType;
        let v = Bat::from_vec(vec![10i32, i32::NIL]);
        let g = Bat::from_vec(vec![0 as Oid, 1]);
        let sum = grouped_aggregate(AggKind::Sum, &v, &g, 3).unwrap();
        let s = sum.tail_slice::<i64>().unwrap();
        assert_eq!(s[0], 10);
        assert!(s[1].is_nil(), "group of only nil");
        assert!(s[2].is_nil(), "empty group");
        let cnt = grouped_aggregate(AggKind::Count, &v, &g, 3).unwrap();
        assert_eq!(cnt.tail_slice::<i64>().unwrap(), &[1, 0, 0]);
    }

    #[test]
    fn float_aggregates() {
        let v = Bat::from_vec(vec![1.5f64, 2.5, f64::NAN]);
        let s = aggregate_scalar(AggKind::Sum, &v).unwrap();
        assert_eq!(s, Value::F64(4.0));
        let a = aggregate_scalar(AggKind::Avg, &v).unwrap();
        assert_eq!(a, Value::F64(2.0));
        let m = aggregate_scalar(AggKind::Max, &v).unwrap();
        assert_eq!(m, Value::F64(2.5));
    }

    #[test]
    fn scalar_count_on_strings() {
        let b = Bat::from_strings([Some("a"), None, Some("b")]);
        assert_eq!(aggregate_scalar(AggKind::Count, &b).unwrap(), Value::I64(2));
    }

    #[test]
    fn errors() {
        let v = Bat::from_vec(vec![1i32]);
        let g = Bat::from_vec(vec![0 as Oid, 1]);
        assert!(grouped_aggregate(AggKind::Sum, &v, &g, 2).is_err());
        let g = Bat::from_vec(vec![5 as Oid]);
        assert!(grouped_aggregate(AggKind::Sum, &v, &g, 2).is_err());
    }
}
