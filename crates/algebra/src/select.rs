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
//! sight; here it runs monomorphized per tail type and without the branch:
//! `compress_scalar` is its definition, and on a CPU with AVX2
//! `compress_dense` runs it as `compress_words` — a vectorized compare into
//! a 64-row mask, then a table-driven expansion of the mask into row ids —
//! through `crate::multiversion`'s run-time dispatch (E32: the first
//! filter of a scan at ~1.7x the cost of streaming its column, 2.1x
//! before). Results are candidate BATs (void head, ascending oid tail). The
//! `_cand` forms test only the rows an earlier candidate list names and
//! return the survivors as absolute oids again, so a WHERE chain threads
//! one list through its selections instead of materializing the surviving
//! values between them. When the input's `sorted` property holds,
//! selections switch to binary search (§3.1: properties "gear the selection
//! of subsequent algorithms").

use crate::fetch::check_in_range;
use crate::multiversion::{dispatch, Kernel};
use mammoth_storage::{Bat, FixedTail, HeadColumn, Properties, StrHeap, TailHeap};
use mammoth_types::{Error, LogicalType, NativeType, Oid, Result, Value};

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

/// Rows one pass of the compress loop covers: its row ids collect in a
/// block of this many slots before they are appended to the result.
const BLOCK: usize = 1024;

/// What a selection emits per qualifying row: a head oid here, a `u32`
/// position inside a vector in the pipeline's selection vectors.
pub trait RowId: Copy + Default {
    /// The id `i` rows after this one.
    fn plus(self, i: usize) -> Self;
    /// How many rows this id lies after `base`.
    fn minus(self, base: Self) -> usize;
}

impl RowId for Oid {
    #[inline(always)]
    fn plus(self, i: usize) -> Oid {
        self + i as Oid
    }
    #[inline(always)]
    fn minus(self, base: Oid) -> usize {
        (self - base) as usize
    }
}

impl RowId for u32 {
    #[inline(always)]
    fn plus(self, i: usize) -> u32 {
        self + i as u32
    }
    #[inline(always)]
    fn minus(self, base: u32) -> usize {
        (self - base) as usize
    }
}

/// The §3 loop without its branch: every row stores its id, and the write
/// cursor advances only when the row qualifies. Ids collect in a
/// fixed-size block appended to the result once per [`BLOCK`] rows, so the
/// loop neither mispredicts on selectivity, nor tests for a full block per
/// row, nor allocates for rows that fail. The cursor is masked rather than
/// bounds-checked: it cannot pass the number of rows seen, which stays
/// below `BLOCK` until the last row of a block has been stored.
///
/// This is the definition of a dense selection, and what runs on every
/// CPU [`compress_words`] is not compiled for.
#[inline(always)]
pub(crate) fn compress_scalar<T: Copy, O: RowId>(
    data: &[T],
    first: O,
    test: impl Fn(T) -> bool,
    out: &mut Vec<O>,
) {
    let mut block = [O::default(); BLOCK];
    for (c, chunk) in data.chunks(BLOCK).enumerate() {
        let at = first.plus(c * BLOCK);
        let mut j = 0;
        for (i, &x) in chunk.iter().enumerate() {
            block[j & (BLOCK - 1)] = at.plus(i);
            j += test(x) as usize;
        }
        out.extend_from_slice(&block[..j]);
    }
}

/// Rows per qualification mask.
const WORD: usize = 64;

/// `BYTE_ROWS[m]`: the positions of the set bits of `m`, ascending, then
/// zeros — which of eight consecutive rows qualified, as offsets.
static BYTE_ROWS: [[u8; 8]; 256] = {
    let mut table = [[0u8; 8]; 256];
    let mut m = 0;
    while m < 256 {
        let (mut bit, mut k) = (0, 0);
        while bit < 8 {
            if m >> bit & 1 == 1 {
                table[m][k] = bit;
                k += 1;
            }
            bit += 1;
        }
        m += 1;
    }
    table
};

/// Store at `block[*j..]` the ids of the rows `mask` marks — bit `k` is row
/// `at + k` — and advance `j` past them. Each mask byte stores eight ids
/// from [`BYTE_ROWS`], qualifying rows first, and the cursor moves by the
/// byte's population count: no branch, the same work at any selectivity.
/// Slots past the cursor hold garbage until a later byte overwrites them.
#[inline(always)]
fn expand<O: RowId>(mask: u64, at: O, block: &mut [O; BLOCK + 8], j: &mut usize) {
    for (b, byte) in mask.to_le_bytes().into_iter().enumerate() {
        // masked, so that the eight slots provably lie inside `block` (it
        // has eight to spare) and no bounds check is compiled; the mask
        // never bites, because the byte covers rows the cursor has not
        // passed: `*j + 8 <= BLOCK`
        let start = *j & (BLOCK - 1);
        let ids = &mut block[start..start + 8];
        let rows = &BYTE_ROWS[byte as usize];
        for (id, &row) in ids.iter_mut().zip(rows) {
            *id = at.plus(8 * b + row as usize);
        }
        *j += byte.count_ones() as usize;
    }
}

/// [`compress_scalar`] in two steps, for a CPU with a SIMD compare (it
/// must be inlined into a function compiled for one: for baseline x86-64
/// this shape is 1.9x *slower* than the scalar loop, E32). Per [`WORD`]
/// rows, first a qualification mask — a loop over a fixed-size array selecting
/// one constant per row, which LLVM turns into vector compares and `and`s
/// — then, unless no row qualified, [`expand`].
#[inline(always)]
fn compress_words<T: Copy, O: RowId>(
    data: &[T],
    first: O,
    test: impl Fn(T) -> bool,
    out: &mut Vec<O>,
) {
    let mut block = [O::default(); BLOCK + 8];
    for (c, chunk) in data.chunks(BLOCK).enumerate() {
        let mut j = 0;
        let words = chunk.chunks_exact(WORD);
        let (full, rest) = (words.len(), words.remainder());
        for (w, word) in words.enumerate() {
            let word: &[T; WORD] = word.try_into().expect("chunks_exact(WORD)");
            let mut mask = 0u64;
            for (k, &x) in word.iter().enumerate() {
                mask |= if test(x) { 1 << k } else { 0 };
            }
            if mask != 0 {
                expand(mask, first.plus(c * BLOCK + w * WORD), &mut block, &mut j);
            }
        }
        let mut mask = 0u64;
        for (k, &x) in rest.iter().enumerate() {
            mask |= (test(x) as u64) << k;
        }
        if mask != 0 {
            expand(
                mask,
                first.plus(c * BLOCK + full * WORD),
                &mut block,
                &mut j,
            );
        }
        out.extend_from_slice(&block[..j]);
    }
}

/// A dense selection as a [`Kernel`]: the ids `first, first + 1, …` of the
/// rows of `data` that pass `test`, appended to `out` in row order.
struct CompressDense<'a, T, O, F> {
    data: &'a [T],
    first: O,
    test: F,
    out: &'a mut Vec<O>,
}

impl<T: Copy, O: RowId, F: Fn(T) -> bool> Kernel for CompressDense<'_, T, O, F> {
    type Out = ();
    #[inline(always)]
    fn wide(self) {
        compress_words(self.data, self.first, self.test, self.out)
    }
    #[inline(always)]
    fn portable(self) {
        compress_scalar(self.data, self.first, self.test, self.out)
    }
}

/// The single dense selection loop: behind [`Pred::select_dense`], hence
/// behind the first filter of every `vector.pipeline` and every unfused
/// select over a void-headed BAT.
fn compress_dense<T: Copy, O: RowId>(
    data: &[T],
    first: O,
    test: impl Fn(T) -> bool,
    out: &mut Vec<O>,
) {
    dispatch(CompressDense {
        data,
        first,
        test,
        out,
    })
}

/// [`compress_scalar`] over the rows a list of ids names (`id - base` is the
/// row's position in `data`; callers have checked the ids are in range).
fn compress_among<T: Copy, O: RowId>(
    data: &[T],
    base: O,
    ids: &[O],
    test: impl Fn(T) -> bool,
    out: &mut Vec<O>,
) {
    let mut block = [O::default(); BLOCK];
    for chunk in ids.chunks(BLOCK) {
        let mut j = 0;
        for &id in chunk {
            block[j & (BLOCK - 1)] = id;
            j += test(data[id.minus(base)]) as usize;
        }
        out.extend_from_slice(&block[..j]);
    }
}

/// `v` in the type `T`, when some value of `T` is `v`.
fn exact<T: NativeType>(v: &Value) -> Option<T> {
    T::from_value(v).or_else(|| v.coerce(T::LOGICAL).as_ref().and_then(T::from_value))
}

/// Whether SQL orders a column of type `ty` against the literal `v`, so
/// that `x op v` selects rows, perhaps none, where `Err` is the
/// [`Error::TypeMismatch`] every selection raises for the pair. NULL meets
/// every type. An integer or OID column takes any number by value (see
/// [`Pred`]); a DOUBLE column any number; a string or a BOOLEAN column only
/// its own type.
pub fn selects_with(ty: LogicalType, v: &Value) -> Result<()> {
    let ordered = match ty {
        _ if v.is_null() => true,
        LogicalType::Str => matches!(v, Value::Str(_)),
        LogicalType::Bool | LogicalType::F64 => v.coerce(ty).is_some(),
        _ => v.coerce(ty).is_some() || v.as_f64().is_some_and(|f| !f.is_nan()),
    };
    ordered.then_some(()).ok_or_else(|| Error::TypeMismatch {
        expected: ty.name().into(),
        found: format!("{v:?}"),
    })
}

/// A fixed-width tail type a selection can scan. Every such domain is
/// discrete and keeps nil outside `[LIVE_MIN, LIVE_MAX]`, so any pair of
/// bounds, whatever their inclusivity, closes to `lo <= x <= hi` over the
/// non-nil values.
pub trait ScanTail: NativeType + FixedTail {
    /// The smallest non-nil value.
    const LIVE_MIN: Self;
    /// The largest non-nil value.
    const LIVE_MAX: Self;
    /// The least value above this one, if the domain has one.
    fn succ(self) -> Option<Self>;
    /// The greatest value below this one, if the domain has one.
    fn pred(self) -> Option<Self>;
    /// The value equal to the whole number `f`, if the type holds one.
    /// Only an integer type is asked: every number a DOUBLE or a BOOLEAN
    /// column orders against is one of its values already.
    fn from_whole(_: f64) -> Option<Self> {
        None
    }
    /// `lo <= x <= hi` for `lo <= hi` inside the live domain, in the
    /// cheapest form the type allows; nil never passes.
    fn between(lo: Self, hi: Self) -> impl Fn(Self) -> bool;
}

impl ScanTail for bool {
    const LIVE_MIN: bool = false;
    const LIVE_MAX: bool = true;
    fn succ(self) -> Option<bool> {
        (!self).then_some(true)
    }
    fn pred(self) -> Option<bool> {
        self.then_some(false)
    }
    fn between(lo: bool, hi: bool) -> impl Fn(bool) -> bool {
        move |x| (x >= lo) & (x <= hi)
    }
}

/// Floats are discrete too (`next_up` / `next_down`); nil is NaN, which
/// fails both comparisons on its own.
impl ScanTail for f64 {
    const LIVE_MIN: f64 = f64::NEG_INFINITY;
    const LIVE_MAX: f64 = f64::INFINITY;
    fn succ(self) -> Option<f64> {
        (self < f64::INFINITY).then(|| self.next_up())
    }
    fn pred(self) -> Option<f64> {
        (self > f64::NEG_INFINITY).then(|| self.next_down())
    }
    fn between(lo: f64, hi: f64) -> impl Fn(f64) -> bool {
        move |x| (x >= lo) & (x <= hi)
    }
}

/// Integers test a range with one compare: `x - lo`, taken without sign,
/// is at most `hi - lo` exactly when `lo <= x <= hi`.
macro_rules! integer_scan_tail {
    ($t:ty, $unsigned:ty, $live_min:expr, $live_max:expr) => {
        impl ScanTail for $t {
            const LIVE_MIN: $t = $live_min;
            const LIVE_MAX: $t = $live_max;
            fn succ(self) -> Option<$t> {
                self.checked_add(1)
            }
            fn pred(self) -> Option<$t> {
                self.checked_sub(1)
            }
            fn from_whole(f: f64) -> Option<$t> {
                <$t>::try_from(f as i128).ok()
            }
            fn between(lo: $t, hi: $t) -> impl Fn($t) -> bool {
                let span = hi.wrapping_sub(lo) as $unsigned;
                move |x| x.wrapping_sub(lo) as $unsigned <= span
            }
        }
    };
}

integer_scan_tail!(i8, u8, i8::MIN + 1, i8::MAX);
integer_scan_tail!(i16, u16, i16::MIN + 1, i16::MAX);
integer_scan_tail!(i32, u32, i32::MIN + 1, i32::MAX);
integer_scan_tail!(i64, u64, i64::MIN + 1, i64::MAX);
integer_scan_tail!(Oid, Oid, 0, Oid::MAX - 1);

fn null_bound(lo: Option<&Value>, hi: Option<&Value>) -> bool {
    matches!(lo, Some(Value::Null)) || matches!(hi, Some(Value::Null))
}

/// A selection predicate in its column's native type: the one form the
/// select kernels here and the vectorized pipeline's filters both run, and
/// the one place a literal meets its column's type.
///
/// SQL compares by value, which a column's type does not promise to hold:
/// `i4 < 5000000000` and `i4 < 2.5` are fine predicates on an INT column
/// whose literals no INT holds. So an integer or OID column takes any
/// numeric literal by value ([`selects_with`] names the pairs SQL orders):
/// a fraction, or a number beyond the column's type, moves to the nearest
/// value of that type on the side that keeps the same rows, after which
/// `=` selects nothing and `<>` every live value. NULL, and a literal the
/// column stores as its nil, select nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pred<T> {
    /// `lo <= x <= hi`, with `lo <= hi` inside the live domain.
    Between(T, T),
    /// `x != c`, over the non-nil values.
    Ne(T),
    /// No row qualifies: an empty range, or a comparison with nil.
    Nothing,
}

/// One end of a range, its literal moved into the column's type.
#[derive(Debug, Clone, Copy)]
enum End<T> {
    /// No bound on this side.
    Open,
    /// The bound, and whether it is inclusive.
    At(T, bool),
    /// No value of the type lies on the kept side: nothing qualifies.
    Past,
}

impl<T: ScanTail> End<T> {
    /// `v` as the lower (or upper) end of a range over a column of type
    /// `T`, `None` being open: in the column's type when a value of it is
    /// `v`, else — a number against an integer column — moved to the
    /// nearest whole number that keeps the same rows (up for `>=` and `<`,
    /// down for `>` and `<=`), which may lie beyond the type either way.
    fn of(v: Option<&Value>, lower: bool, incl: bool) -> Result<End<T>> {
        let Some(v) = v else {
            return Ok(End::Open);
        };
        if let Some(c) = exact::<T>(v) {
            return Ok(End::At(c, incl));
        }
        selects_with(T::LOGICAL, v)?;
        let Some(f) = v.as_f64() else {
            return Ok(End::Past);
        };
        let f = if lower == incl { f.ceil() } else { f.floor() };
        Ok(match T::from_whole(f) {
            Some(c) => End::At(c, incl),
            // below every value of the type for a lower end, or above
            // every one for an upper end
            None if (f < 0.0) == lower => End::Open,
            None => End::Past,
        })
    }
}

/// Evaluate `$body` with `$test` bound to the predicate's row test — a
/// closure of its own type per form, so each loop `$body` holds is compiled
/// once per form with the test inlined.
macro_rules! with_test {
    ($pred:expr, |$test:ident| $body:expr) => {
        match $pred {
            Pred::Between(lo, hi) => {
                let $test = T::between(lo, hi);
                $body
            }
            Pred::Ne(c) => {
                let $test = move |x: T| !x.is_nil() & (x != c);
                $body
            }
            Pred::Nothing => {}
        }
    };
}

impl<T: ScanTail> Pred<T> {
    /// `lo <(=) x <(=) hi` over ends already in the column's type.
    fn closed(lo: End<T>, hi: End<T>) -> Pred<T> {
        let lo = match lo {
            End::Open => Some(T::LIVE_MIN),
            End::At(v, true) => Some(v),
            End::At(v, false) => v.succ(),
            End::Past => None,
        };
        let hi = match hi {
            End::Open => Some(T::LIVE_MAX),
            End::At(v, true) => Some(v),
            End::At(v, false) => v.pred(),
            End::Past => None,
        };
        match (lo, hi) {
            (Some(lo), Some(hi)) => {
                // a bound may sit on nil's end of the domain; a NaN bound
                // compares with nothing and leaves the range empty
                let lo = if lo < T::LIVE_MIN { T::LIVE_MIN } else { lo };
                let hi = if hi > T::LIVE_MAX { T::LIVE_MAX } else { hi };
                if lo <= hi {
                    Pred::Between(lo, hi)
                } else {
                    Pred::Nothing
                }
            }
            _ => Pred::Nothing,
        }
    }

    /// `x op v` by value (see [`Pred`]); a literal SQL does not order
    /// against the column's type is a typed error.
    pub fn theta(op: CmpOp, v: &Value) -> Result<Pred<T>> {
        if v.is_null() || exact::<T>(v).is_some_and(|c| c.is_nil()) {
            return Ok(Pred::Nothing);
        }
        let end = |lower, incl| End::of(Some(v), lower, incl);
        Ok(match op {
            CmpOp::Eq => Pred::closed(end(true, true)?, end(false, true)?),
            CmpOp::Lt => Pred::closed(End::Open, end(false, false)?),
            CmpOp::Le => Pred::closed(End::Open, end(false, true)?),
            CmpOp::Gt => Pred::closed(end(true, false)?, End::Open),
            CmpOp::Ge => Pred::closed(end(true, true)?, End::Open),
            // every live value but the one equal to `v`, if there is one
            CmpOp::Ne => match Pred::theta(CmpOp::Eq, v)? {
                Pred::Between(c, _) => Pred::Ne(c),
                _ => Pred::closed(End::Open, End::Open),
            },
        })
    }

    /// `lo <(=) x <(=) hi` with open bounds expressed as `None`, each bound
    /// by value as in [`Pred::theta`]; a NULL bound, like any comparison
    /// with NULL, selects nothing.
    pub fn range(
        lo: Option<&Value>,
        hi: Option<&Value>,
        lo_incl: bool,
        hi_incl: bool,
    ) -> Result<Pred<T>> {
        if null_bound(lo, hi) {
            return Ok(Pred::Nothing);
        }
        Ok(Pred::closed(
            End::of(lo, true, lo_incl)?,
            End::of(hi, false, hi_incl)?,
        ))
    }

    /// Whether one value qualifies (the row-at-a-time form, for paths with
    /// no positional access).
    pub fn test(self, x: T) -> bool {
        let mut keep = false;
        with_test!(self, |test| keep = test(x));
        keep
    }

    /// Append the ids `first, first + 1, …` of the rows of `data` that
    /// qualify, in row order.
    pub fn select_dense<O: RowId>(self, data: &[T], first: O, out: &mut Vec<O>) {
        with_test!(self, |test| compress_dense(data, first, test, out));
    }

    /// Append those of `ids` whose row qualifies, in list order; `id - base`
    /// is a row's position in `data`, and every id must name one.
    pub fn select_among<O: RowId>(self, data: &[T], base: O, ids: &[O], out: &mut Vec<O>) {
        with_test!(self, |test| compress_among(data, base, ids, test, out));
    }
}

/// Run `pred` over the rows of `b` — all of them, or those a candidate list
/// names — and return the qualifying head oids in scan order.
fn scan<T: ScanTail>(
    b: &Bat,
    data: &[T],
    cands: Option<&[Oid]>,
    pred: Pred<T>,
) -> Result<Vec<Oid>> {
    let mut out = Vec::new();
    match (b.head(), cands) {
        (HeadColumn::Void { seqbase }, None) => pred.select_dense(data, *seqbase, &mut out),
        (HeadColumn::Void { seqbase }, Some(cands)) => {
            check_in_range(cands, *seqbase, data.len())?;
            pred.select_among(data, *seqbase, cands, &mut out);
        }
        // materialized head: no positional lookup, resolve row by row
        (HeadColumn::Oids(head), None) => {
            let rows = head.iter().zip(data);
            out.extend(rows.filter(|(_, x)| pred.test(**x)).map(|(o, _)| *o));
        }
        (HeadColumn::Oids(_), Some(cands)) => {
            for &o in cands {
                let p = b.find_oid(o).ok_or(Error::OutOfRange {
                    index: o,
                    len: data.len() as u64,
                })?;
                if pred.test(data[p]) {
                    out.push(o);
                }
            }
        }
    }
    Ok(out)
}

fn select_fixed<T: ScanTail>(b: &Bat, cands: Option<&Bat>, pred: Pred<T>) -> Result<Vec<Oid>> {
    let data = b.tail_slice::<T>()?;
    let cand_oids = cands.map(|c| c.tail_slice::<Oid>()).transpose()?;

    // Binary-search fast path on sorted, nil-free tails of void-headed
    // columns: the qualifying rows are one contiguous oid run.
    if let (Pred::Between(lo, hi), true, true, HeadColumn::Void { seqbase }) =
        (pred, b.props().sorted, b.props().nonil, b.head())
    {
        let from = data.partition_point(|x| *x < lo);
        let to = data.partition_point(|x| *x <= hi);
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
    scan(b, data, cand_oids, pred)
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

/// A string column's non-NULL constant, or the error [`selects_with`] names.
fn str_const(v: &Value) -> Result<&str> {
    selects_with(LogicalType::Str, v)?;
    Ok(v.as_str().unwrap_or_default())
}

fn theta(b: &Bat, cands: Option<&Bat>, op: CmpOp, v: &Value) -> Result<Bat> {
    let oids = match b.tail() {
        TailHeap::Bool(_) => select_fixed(b, cands, Pred::<bool>::theta(op, v)?),
        TailHeap::I8(_) => select_fixed(b, cands, Pred::<i8>::theta(op, v)?),
        TailHeap::I16(_) => select_fixed(b, cands, Pred::<i16>::theta(op, v)?),
        TailHeap::I32(_) => select_fixed(b, cands, Pred::<i32>::theta(op, v)?),
        TailHeap::I64(_) => select_fixed(b, cands, Pred::<i64>::theta(op, v)?),
        TailHeap::F64(_) => select_fixed(b, cands, Pred::<f64>::theta(op, v)?),
        TailHeap::Oid(_) => select_fixed(b, cands, Pred::<Oid>::theta(op, v)?),
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
            select_fixed(b, cands, Pred::<$t>::range(lo, hi, lo_incl, hi_incl)?)
        };
    }
    let oids = match b.tail() {
        TailHeap::Bool(_) => fixed!(bool),
        TailHeap::I8(_) => fixed!(i8),
        TailHeap::I16(_) => fixed!(i16),
        TailHeap::I32(_) => fixed!(i32),
        TailHeap::I64(_) => fixed!(i64),
        TailHeap::F64(_) => fixed!(f64),
        TailHeap::Oid(_) => fixed!(Oid),
        TailHeap::Str(_) if null_bound(lo, hi) => Ok(Vec::new()),
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
    use crate::multiversion::has_wide;
    use mammoth_storage::Bat;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Lengths on, one under and one over the boundaries the two-step
    /// kernel has: the 8-row byte, the 64-row word, the 1024-row block.
    #[rustfmt::skip]
    const EDGES: [usize; 20] = [
        0, 1, 7, 8, 9, 63, 64, 65, 127, 129, 1023, 1024, 1025, 1087, 1089, 2047, 2048, 2049,
        3 * BLOCK - 1, 3 * BLOCK,
    ];

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

    /// Every bound pair closes to `lo <= x <= hi`, floats included: an
    /// exclusive float bound moves to the neighbouring value. Against the
    /// comparison spelled out, over the values where that is delicate.
    #[test]
    fn closed_float_ranges_equal_the_spelled_out_comparison() {
        let edge = [
            f64::NEG_INFINITY,
            f64::MIN,
            -1.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            5e-324,
            1.5,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
        ];
        let b = Bat::from_vec(edge.to_vec());
        let bounds = edge.iter().map(|&x| Some(x)).chain([None]);
        for lo in bounds.clone() {
            for hi in bounds.clone() {
                for (lo_incl, hi_incl) in
                    [(true, true), (true, false), (false, true), (false, false)]
                {
                    let keep = |x: f64| {
                        let above = lo.is_none_or(|l| if lo_incl { x >= l } else { x > l });
                        let below = hi.is_none_or(|h| if hi_incl { x <= h } else { x < h });
                        !x.is_nan() && above && below
                    };
                    let want: Vec<Oid> = (0..edge.len())
                        .filter(|&i| keep(edge[i]))
                        .map(|i| i as Oid)
                        .collect();
                    let (lo_v, hi_v) = (lo.map(Value::F64), hi.map(Value::F64));
                    let got = select_range(&b, lo_v.as_ref(), hi_v.as_ref(), lo_incl, hi_incl);
                    assert_eq!(
                        got.unwrap().tail_slice::<Oid>().unwrap(),
                        want,
                        "{lo:?} {lo_incl} .. {hi:?} {hi_incl}"
                    );
                }
            }
        }
    }

    /// Blocks of exactly, one under and one over the compress block size,
    /// dense and through a candidate list, with `u32` positions as the
    /// pipeline's selection vectors use them.
    #[test]
    fn compress_is_exact_across_block_boundaries() {
        for n in [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7] {
            let data: Vec<i32> = (0..n as i32).map(|i| i % 10).collect();
            for (pred, keep) in [
                (Pred::<i32>::theta(CmpOp::Lt, &Value::I32(3)).unwrap(), 3),
                (Pred::theta(CmpOp::Ge, &Value::I32(0)).unwrap(), 10),
                (Pred::theta(CmpOp::Gt, &Value::I32(9)).unwrap(), 0),
            ] {
                let want: Vec<u32> = (0..n as u32).filter(|i| i % 10 < keep).collect();
                let mut dense = Vec::new();
                pred.select_dense(&data, 0u32, &mut dense);
                assert_eq!(dense, want, "{n} rows, keep {keep}");
                let evens: Vec<u32> = (0..n as u32).step_by(2).collect();
                let mut among = Vec::new();
                pred.select_among(&data, 0u32, &evens, &mut among);
                let want: Vec<u32> = want.into_iter().filter(|i| i % 2 == 0).collect();
                assert_eq!(among, want, "{n} rows, keep {keep}, among the even ones");
            }
        }
    }

    /// The value the kernel differential draws for a row of type `T`: one
    /// of a hundred small values (so a bound picks its selectivity), nil
    /// one row in sixteen, and for floats the infinities as well.
    trait Draw: ScanTail + std::fmt::Debug {
        fn small(v: u8) -> Self;
        fn draw(rng: &mut StdRng) -> Self {
            match rng.random_range(0..16) {
                0 => Self::NIL,
                1 => Self::LIVE_MIN,
                2 => Self::LIVE_MAX,
                _ => Self::small(rng.random_range(0..100)),
            }
        }
    }

    macro_rules! draw {
        ($($t:ty: $small:expr),*) => {
            $(impl Draw for $t {
                fn small(v: u8) -> $t {
                    $small(v)
                }
            })*
        };
    }
    draw!(bool: |v| v < 50, i8: |v| v as i8, i16: i16::from, i32: i32::from, i64: i64::from,
          Oid: Oid::from, f64: f64::from);

    /// `pred` over `data` three ways — the dispatched kernel, the scalar
    /// loop called directly, and the row-at-a-time test — must name the
    /// same rows.
    fn kernels_agree<T: Draw, O: RowId + PartialEq + std::fmt::Debug>(
        data: &[T],
        first: O,
        pred: Pred<T>,
    ) {
        let mut dispatched = Vec::new();
        pred.select_dense(data, first, &mut dispatched);
        let mut scalar = Vec::new();
        with_test!(pred, |test| compress_scalar(data, first, test, &mut scalar));
        assert_eq!(dispatched, scalar, "{} rows, {pred:?}", data.len());
        let rows = (0..data.len()).filter(|&i| pred.test(data[i]));
        let spelled: Vec<O> = rows.map(|i| first.plus(i)).collect();
        assert_eq!(scalar, spelled, "{} rows, {pred:?}", data.len());
    }

    fn kernels_agree_for<T: Draw>(len: usize, rng: &mut StdRng) {
        let data: Vec<T> = (0..len).map(|_| T::draw(rng)).collect();
        // no row draws 100: nothing qualifies, yet every row is tested
        let (zero, one, half, absent) = (T::small(0), T::small(1), T::small(49), T::small(100));
        for pred in [
            Pred::Between(absent, absent),
            Pred::Between(zero, zero),
            Pred::Between(zero, half),
            Pred::Between(T::LIVE_MIN, T::LIVE_MAX),
            Pred::Ne(one),
            Pred::Nothing,
        ] {
            kernels_agree(&data, rng.random_range(1..1000u32), pred);
            kernels_agree(&data, rng.random_range(1..1000 as Oid), pred);
        }
    }

    // The AVX2 arm of `compress_dense` against the scalar loop it stands in
    // for: every scanned type, both predicate forms and `Nothing`, both row
    // ids from a non-zero `first`, nil-bearing data, at 0 %, ~1 %, 50 % and
    // 100 % selectivity, over lengths that straddle the 8-row byte, the
    // 64-row word and `BLOCK`.
    proptest! {
        #[test]
        fn dispatched_kernel_equals_the_scalar_loop(
            edge in 0usize..2 * EDGES.len(),
            seed in proptest::num::u64::ANY,
        ) {
            let rng = &mut StdRng::seed_from_u64(seed);
            let len = match EDGES.get(edge) {
                Some(&len) => len,
                None => rng.random_range(0..=3 * BLOCK),
            };
            kernels_agree_for::<bool>(len, rng);
            kernels_agree_for::<i8>(len, rng);
            kernels_agree_for::<i16>(len, rng);
            kernels_agree_for::<i32>(len, rng);
            kernels_agree_for::<i64>(len, rng);
            kernels_agree_for::<Oid>(len, rng);
            kernels_agree_for::<f64>(len, rng);
        }
    }

    /// Which arm the differential above exercised. An optimized build on
    /// x86-64 with AVX2 must take the SIMD one.
    #[test]
    fn dispatch_takes_the_simd_arm_where_the_cpu_has_one() {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            assert!(has_wide(), "AVX2 reported, scalar arm taken");
            return;
        }
        assert!(!has_wide());
        eprintln!("no AVX2 on this host: only the scalar arm of compress_dense was checked");
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
        // a constant no i32 holds equals no row
        assert!(select_eq(&b, &Value::I64(i64::MAX)).unwrap().is_empty());
    }

    /// A number against an integer or OID column selects what comparing
    /// each live value with it by value keeps, whatever the number: a
    /// fraction, the nil sentinel's value, or beyond the type on either
    /// side. Pairs SQL does not order are the error [`selects_with`] names.
    #[test]
    fn numbers_compare_with_integer_columns_by_value() {
        let tiny = Bat::from_vec((i8::MIN..=i8::MAX).collect::<Vec<_>>());
        let oids = Bat::from_vec(vec![0 as Oid, 1, 2, 1 << 60, Oid::MAX - 1, Oid::NIL]);
        let nums = [
            -1e19, -200.0, -128.5, -128.0, -127.5, -1.0, -0.5, 0.0, 0.5, 2.0, 126.5,
        ]
        .into_iter()
        .chain([127.0, 127.5, 200.0, 1.5e19, 1e300, f64::INFINITY])
        .map(Value::F64)
        .chain([i64::MIN, -129, 128, i64::MAX].map(Value::I64));
        let ops = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        for lit in nums {
            let f = lit.as_f64().unwrap();
            for b in [&tiny, &oids] {
                assert!(selects_with(b.ty(), &lit).is_ok());
                // the live values, as the numbers they are
                let live: Vec<(Oid, f64)> = (0..b.len())
                    .filter_map(|i| match b.value_at(i) {
                        Value::Oid(x) => Some((i as Oid, x as f64)),
                        v => v.as_f64().map(|x| (i as Oid, x)),
                    })
                    .collect();
                let keep = |test: &dyn Fn(f64) -> bool| -> Vec<Oid> {
                    let mut rows: Vec<Oid> = live
                        .iter()
                        .filter(|(_, x)| test(*x))
                        .map(|(i, _)| *i)
                        .collect();
                    rows.sort_unstable();
                    rows
                };
                for op in ops {
                    let want = keep(&|x| match op {
                        CmpOp::Eq => x == f,
                        CmpOp::Ne => x != f,
                        CmpOp::Lt => x < f,
                        CmpOp::Le => x <= f,
                        CmpOp::Gt => x > f,
                        CmpOp::Ge => x >= f,
                    });
                    let got = select_cmp(b, op, &lit).unwrap();
                    assert_eq!(got.tail_slice::<Oid>().unwrap(), want, "{op:?} {lit:?}");
                }
                for (lo_incl, hi_incl) in [(true, false), (false, true)] {
                    let (lo, hi) = (Value::F64(-f.abs() - 0.5), Value::F64(f.abs()));
                    let want = keep(&|x| {
                        let (l, h) = (lo.as_f64().unwrap(), hi.as_f64().unwrap());
                        (if lo_incl { x >= l } else { x > l })
                            && (if hi_incl { x <= h } else { x < h })
                    });
                    let got = select_range(b, Some(&lo), Some(&hi), lo_incl, hi_incl).unwrap();
                    assert_eq!(got.tail_slice::<Oid>().unwrap(), want, "{lo:?}..{hi:?}");
                }
            }
        }
        for (ty, lit) in [
            (LogicalType::I32, Value::Str("7".into())),
            (LogicalType::I32, Value::Bool(true)),
            (LogicalType::I32, Value::F64(f64::NAN)),
            (LogicalType::Bool, Value::I32(1)),
            (LogicalType::Str, Value::I32(4)),
            (LogicalType::F64, Value::Str("0.5".into())),
        ] {
            assert!(selects_with(ty, &lit).is_err(), "{ty} {lit:?}");
        }
        let seven = Value::Str("7".into());
        let e = select_cmp(&tiny, CmpOp::Lt, &seven).unwrap_err();
        assert_eq!(e, selects_with(LogicalType::I8, &seven).unwrap_err());
    }
}
