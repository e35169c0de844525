//! The vectorized pipeline driver.
//!
//! A [`Pipeline`] is a list of [`Stage`]s and a [`Sink`]; [`Pipeline::run`]
//! pulls one `vector_size` window at a time from a borrowed [`ColumnSet`]
//! through all stages — a `u32` selection vector narrowing as filters
//! apply, computed vectors appearing as maps run, every further column
//! read *in the same window* through the selection — and hands the
//! survivors to the sink: aggregates folded, columns emitted, or the best
//! `n` rows kept. All per-vector state (selection, computed vectors, group
//! ids) is sized by `vector_size`: that is the working set the §5 tuning
//! argument is about, and what experiment E07 sweeps.
//!
//! There is one driver. The `vector.pipeline` MAL instruction, experiment
//! E07 and `examples/vectorized_analytics.rs` all call [`Pipeline::run`];
//! the instruction passes [`VECTOR_SIZE`].
//!
//! Filters and folds are the BAT Algebra's kernels, so a pipeline answers
//! exactly as the column-at-a-time plan it replaces: nils never qualify
//! and never aggregate, integer sums wrap, float sums run strictly in row
//! order (state carries across windows; nothing is re-associated),
//! groups are numbered in first-appearance order by the table
//! `group.group` uses, emitted columns hold the surviving rows in row
//! order, and a top-N sink selects through `algebra.firstn`'s own
//! [`TopN`].

use crate::primitives::{self, MapOp};
use crate::vector::{with_slice, Column, ColumnSet};
use mammoth_algebra::{
    finish_groups, Acc, AggKind, AggTail, CmpOp, GroupTable, KeyImage, Pred, Reduction, ScanTail,
    TopN,
};
use mammoth_compression::decompress;
use mammoth_storage::{FixedTail, TailHeap};
use mammoth_types::{Error, Result, Value};

/// The vector size of the serving path, from E07's sweep: per-vector
/// dispatch stops showing at a few hundred rows, the curve is flat from
/// there to its minimum at 4096 – 16384, and by 2^18 the vectors have left
/// the L2 cache and time climbs again. 4096 is the smallest size at the
/// minimum: a handful of 32 KiB vectors, resident in L2.
pub const VECTOR_SIZE: usize = 4096;

/// Reference to a column visible inside the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColRef {
    /// A source column by index.
    Source(usize),
    /// A computed vector by slot.
    Computed(usize),
}

/// Right-hand operand of a map stage.
#[derive(Debug, Clone, Copy)]
pub enum Operand {
    Col(ColRef),
    Const(i64),
}

/// A filter's predicate, as `algebra.thetaselect` / `algebra.select` state
/// it; its constants are coerced into the column's type when it runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Filter {
    /// `col op c`; a NULL constant selects nothing.
    Theta(CmpOp, Value),
    /// `lo <(=) col <(=) hi`; `None` is an open bound.
    Range {
        lo: Option<Value>,
        hi: Option<Value>,
        lo_incl: bool,
        hi_incl: bool,
    },
}

impl Filter {
    /// The predicate in the type of the column `_data` is a vector of.
    fn pred_for<T: ScanTail>(&self, _data: &[T]) -> Result<Pred<T>> {
        match self {
            Filter::Theta(op, c) => Pred::theta(*op, c),
            Filter::Range {
                lo,
                hi,
                lo_incl,
                hi_incl,
            } => Pred::range(lo.as_ref(), hi.as_ref(), *lo_incl, *hi_incl),
        }
    }

    /// `out` = the positions of `data` — all, or those in `sel` — that
    /// qualify.
    fn narrow<T: ScanTail>(
        &self,
        data: &[T],
        sel: Option<&[u32]>,
        out: &mut Vec<u32>,
    ) -> Result<()> {
        let pred = self.pred_for(data)?;
        out.clear();
        match sel {
            None => pred.select_dense(data, 0u32, out),
            Some(sel) => pred.select_among(data, 0u32, sel, out),
        }
        Ok(())
    }
}

/// One vectorized operator.
#[derive(Debug, Clone)]
pub enum Stage {
    /// Narrow the selection to the rows where `pred` holds of `col`.
    Filter { col: ColRef, pred: Filter },
    /// Compute `out := l mapop r` (over `i64`) into computed slot `out`.
    Map {
        op: MapOp,
        l: ColRef,
        r: Operand,
        out: usize,
    },
}

impl Stage {
    /// `col op c`.
    pub fn theta(col: ColRef, op: CmpOp, c: impl Into<Value>) -> Stage {
        Stage::Filter {
            col,
            pred: Filter::Theta(op, c.into()),
        }
    }
}

/// One result of the sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Out {
    /// The grouping key's value per group (grouped sinks only).
    Key,
    /// Selected rows: in all, or per group.
    Count,
    /// An aggregate over a column's non-nil values: in all, or per group.
    Agg(AggKind, ColRef),
    /// A column's values at the sink's rows: the selected rows in row
    /// order, or a top-N sink's rows in sort order.
    Col(ColRef),
}

/// What the sink makes of the selected rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkKind {
    /// All of them, ungrouped: global aggregates, or emitted columns.
    Rows,
    /// A hash aggregation numbering its groups in first-appearance order.
    GroupBy(ColRef),
    /// The first `n` in the sort order of source column `key` — ascending
    /// with nil first and ties by position, or exactly the reverse.
    Top {
        key: ColRef,
        n: usize,
        descending: bool,
    },
}

/// Where the vectors end up. A sink's results are of one kind: scalars
/// (`Count` / `Agg` over [`SinkKind::Rows`]), one row per group (`Key` /
/// `Count` / `Agg` over [`SinkKind::GroupBy`]), or columns (`Col` over
/// [`SinkKind::Rows`] or [`SinkKind::Top`]).
#[derive(Debug, Clone)]
pub struct Sink {
    pub kind: SinkKind,
    pub outs: Vec<Out>,
}

impl Sink {
    /// Global aggregates.
    pub fn aggregate(outs: Vec<Out>) -> Sink {
        Sink {
            kind: SinkKind::Rows,
            outs,
        }
    }

    /// One row per distinct value of `key`.
    pub fn group_by(key: ColRef, outs: Vec<Out>) -> Sink {
        Sink {
            kind: SinkKind::GroupBy(key),
            outs,
        }
    }
}

/// A complete vectorized query.
#[derive(Debug, Clone)]
pub struct Pipeline {
    pub stages: Vec<Stage>,
    pub sink: Sink,
    /// Number of computed-vector slots the stages use.
    pub computed_slots: usize,
}

/// Results of a pipeline run, one entry per [`Sink::outs`].
#[derive(Debug, Clone)]
pub enum Output {
    /// A global sink: COUNT is `i64`, AVG `f64`, SUM/MIN/MAX `i64` over
    /// integers and `f64` over floats, NULL when no non-nil value folded.
    Scalars(Vec<Value>),
    /// A grouped, emitting or top-N sink: one column per result, one row
    /// per group or kept row.
    Columns(Vec<TailHeap>),
}

/// The vector of `c` in the current window.
fn resolve<'w>(c: ColRef, window: &[Column<'w>], computed: &'w [Vec<i64>]) -> Result<Column<'w>> {
    let (slot, have) = match c {
        ColRef::Source(i) => (window.get(i).copied(), window.len()),
        ColRef::Computed(j) => (computed.get(j).map(|v| Column::I64(v)), computed.len()),
    };
    slot.ok_or(Error::OutOfRange {
        index: match c {
            ColRef::Source(i) | ColRef::Computed(i) => i as u64,
        },
        len: have as u64,
    })
}

fn i64_vector<'w>(c: Column<'w>) -> Result<&'w [i64]> {
    match c {
        Column::I64(v) => Ok(v),
        other => Err(Error::TypeMismatch {
            expected: "i64".into(),
            found: other.ty().name().into(),
        }),
    }
}

/// Whether aggregates over `c` are `f64`; an error for the columns nothing
/// folds (`bool` has no nil and no arithmetic).
fn folds_as_float(c: Column<'_>) -> Result<bool> {
    match c {
        Column::Bool(_) | Column::Packed { .. } => Err(Error::Unsupported(format!(
            "aggregation over {} columns",
            c.ty().name()
        ))),
        Column::F64(_) => Ok(true),
        _ => Ok(false),
    }
}

/// [`with_slice`] for the columns aggregates fold (see [`folds_as_float`],
/// which every aggregated column passed when the fold was set up).
macro_rules! with_agg_slice {
    ($col:expr, |$data:ident| $body:expr) => {
        match $col {
            Column::I8($data) => $body,
            Column::I16($data) => $body,
            Column::I32($data) => $body,
            Column::I64($data) => $body,
            Column::F64($data) => $body,
            Column::Oid($data) => $body,
            Column::Bool(_) | Column::Packed { .. } => {
                unreachable!("only foldable columns are aggregated")
            }
        }
    };
}

/// Evaluate `$body` with `$values` bound to the values of `$data` a fold
/// sees — all of them, or those `$sel` names — either way in row order.
macro_rules! selected {
    ($data:expr, $sel:expr, |$values:ident| $body:expr) => {
        match $sel {
            None => {
                let $values = $data.iter().copied();
                $body
            }
            Some(sel) => {
                let $values = sel.iter().map(|&i| $data[i as usize]);
                $body
            }
        }
    };
}

fn reduce<T: AggTail>(red: &mut Reduction, data: &[T], sel: Option<&[u32]>) {
    selected!(data, sel, |values| T::reduce(red, values));
}

/// Fold the selected values into the accumulators of their groups: `gids`
/// holds one group id per selected row.
fn accumulate<T: AggTail>(accs: &mut [Acc], gids: &[u32], data: &[T], sel: Option<&[u32]>) {
    let groups = gids.iter().map(|&g| g as usize);
    selected!(data, sel, |values| T::accumulate(accs, groups.zip(values)));
}

/// What the sink has folded so far.
enum Folded {
    Scalars {
        /// Selected rows.
        rows: u64,
        /// One reduction per distinct aggregated column, folding every
        /// aggregate over it in one pass.
        cols: Vec<(ColRef, Reduction, bool)>,
    },
    Groups(Box<Groups>),
    /// One emitted column per result, grown a vector at a time.
    Columns(Vec<(ColRef, TailHeap)>),
}

struct Groups {
    key: ColRef,
    table: GroupTable,
    /// Each group's key value, as of its first appearance.
    keys: TailHeap,
    /// Selected rows per group.
    counts: Vec<i64>,
    /// One accumulator column per distinct aggregated column.
    accs: Vec<(ColRef, Vec<Acc>, bool)>,
    /// The group id of each selected row of the current vector.
    gids: Vec<u32>,
}

impl Groups {
    fn assign<T: KeyImage + FixedTail>(&mut self, data: &[T], sel: Option<&[u32]>) {
        let keys = self
            .keys
            .as_vec_mut::<T>()
            .expect("the key heap was created with the key column's type");
        selected!(data, sel, |values| for x in values {
            let (g, new) = self.table.id_of(x.image());
            if new {
                keys.push(x);
            }
            self.gids.push(g as u32);
        });
    }
}

/// The error of a result its sink cannot produce.
fn mixed(what: &str) -> Error {
    Error::Unsupported(format!("a sink's results are of one kind: {what}"))
}

/// `out` += the values of `data` — all, or those `sel` names.
fn emit<T: FixedTail>(out: &mut TailHeap, data: &[T], sel: Option<&[u32]>) {
    let out = out
        .as_vec_mut::<T>()
        .expect("the heap was created with the column's type");
    selected!(data, sel, |values| out.extend(values));
}

impl Folded {
    /// The empty fold for an aggregating or emitting `sink`, checked
    /// against the source column types.
    fn new(sink: &Sink, sources: &[Column<'_>], computed: &[Vec<i64>]) -> Result<Folded> {
        let agg_col = |c: ColRef| folds_as_float(resolve(c, sources, computed)?);
        let key = match sink.kind {
            SinkKind::GroupBy(key) => key,
            SinkKind::Rows if matches!(sink.outs.first(), Some(Out::Col(_))) => {
                let outs = sink.outs.iter().map(|o| match *o {
                    Out::Col(col) => {
                        Ok((col, TailHeap::new(resolve(col, sources, computed)?.ty())))
                    }
                    _ => Err(mixed("an aggregate beside a column")),
                });
                return Ok(Folded::Columns(outs.collect::<Result<_>>()?));
            }
            SinkKind::Rows => {
                let mut cols: Vec<(ColRef, Reduction, bool)> = Vec::new();
                for o in &sink.outs {
                    match *o {
                        Out::Key => return Err(mixed("a key needs a grouped sink")),
                        Out::Col(_) => return Err(mixed("a column beside an aggregate")),
                        Out::Count => {}
                        Out::Agg(kind, col) => match cols.iter_mut().find(|(c, _, _)| *c == col) {
                            Some((_, red, _)) => *red = red.and(kind),
                            None => cols.push((col, Reduction::new(kind), agg_col(col)?)),
                        },
                    }
                }
                return Ok(Folded::Scalars { rows: 0, cols });
            }
            SinkKind::Top { .. } => unreachable!("a top-N sink is run by `Pipeline::run_top`"),
        };
        let mut accs: Vec<(ColRef, Vec<Acc>, bool)> = Vec::new();
        for o in &sink.outs {
            match *o {
                Out::Agg(_, col) if !accs.iter().any(|(c, _, _)| *c == col) => {
                    accs.push((col, Vec::new(), agg_col(col)?));
                }
                Out::Col(_) => return Err(mixed("a column in a grouped sink")),
                _ => {}
            }
        }
        Ok(Folded::Groups(Box::new(Groups {
            key,
            table: GroupTable::new(),
            keys: TailHeap::new(resolve(key, sources, computed)?.ty()),
            counts: Vec::new(),
            accs,
            gids: Vec::new(),
        })))
    }

    /// Fold the `sel`ected rows (all `len`, when `None`) of one window.
    fn fold(
        &mut self,
        window: &[Column<'_>],
        computed: &[Vec<i64>],
        sel: Option<&[u32]>,
        len: usize,
    ) -> Result<()> {
        // selective or full computation, by the selection's observed
        // density: a vector that kept every row is read without the
        // indirection
        let sel = sel.filter(|s| s.len() < len);
        match self {
            Folded::Scalars { rows, cols } => {
                *rows += sel.map_or(len, |s| s.len()) as u64;
                for (col, red, _) in cols {
                    let c = resolve(*col, window, computed)?;
                    with_agg_slice!(c, |d| reduce(red, d, sel));
                }
            }
            Folded::Groups(g) => {
                g.gids.clear();
                let key = resolve(g.key, window, computed)?;
                with_slice!(key, |d| g.assign(d, sel), else unreachable!("packed columns are decoded before windowing"));
                g.counts.resize(g.table.len(), 0);
                for &gid in &g.gids {
                    g.counts[gid as usize] += 1;
                }
                let Groups {
                    accs, gids, table, ..
                } = &mut **g;
                for (col, accs, _) in accs {
                    accs.resize(table.len(), Acc::new());
                    let c = resolve(*col, window, computed)?;
                    with_agg_slice!(c, |d| accumulate(accs, gids, d, sel));
                }
            }
            Folded::Columns(outs) => {
                for (col, heap) in outs {
                    let c = resolve(*col, window, computed)?;
                    with_slice!(c, |d| emit(heap, d, sel), else unreachable!("packed columns are decoded before windowing"));
                }
            }
        }
        Ok(())
    }

    fn finish(self, sink: &Sink) -> Output {
        match self {
            Folded::Scalars { rows, cols } => Output::Scalars(
                sink.outs
                    .iter()
                    .map(|o| match *o {
                        Out::Count => Value::I64(rows as i64),
                        Out::Agg(kind, col) => {
                            let (_, red, float) = cols
                                .iter()
                                .find(|(c, _, _)| *c == col)
                                .expect("every aggregated column got its reduction");
                            red.finish(kind, *float)
                        }
                        Out::Key | Out::Col(_) => {
                            unreachable!("rejected when the fold was set up")
                        }
                    })
                    .collect(),
            ),
            Folded::Groups(g) => Output::Columns(
                sink.outs
                    .iter()
                    .map(|o| match *o {
                        Out::Key => g.keys.clone(),
                        Out::Count => TailHeap::from_vec(g.counts.clone()),
                        Out::Agg(kind, col) => {
                            let (_, accs, float) = g
                                .accs
                                .iter()
                                .find(|(c, _, _)| *c == col)
                                .expect("every aggregated column got its accumulators");
                            finish_groups(kind, accs, *float)
                        }
                        Out::Col(_) => unreachable!("rejected when the fold was set up"),
                    })
                    .collect(),
            ),
            Folded::Columns(outs) => Output::Columns(outs.into_iter().map(|(_, h)| h).collect()),
        }
    }
}

/// The source column behind `c`: what a top-N sink reads its key from and
/// gathers its results out of once the scan is over.
fn source<'w>(c: ColRef, sources: &[Column<'w>]) -> Result<Column<'w>> {
    match c {
        ColRef::Source(_) => resolve(c, sources, &[]),
        ColRef::Computed(_) => Err(Error::Unsupported(
            "a top-N sink reads source columns".into(),
        )),
    }
}

impl Pipeline {
    /// Execute over `columns`, `vector_size` rows at a time.
    pub fn run(&self, columns: &ColumnSet<'_>, vector_size: usize) -> Result<Output> {
        // Packed columns decode into scratch the run owns. (A real X100
        // decodes a block per vector; this miniature decodes each packed
        // column once, up front, and windows the result.)
        let decoded: Vec<Option<Vec<i64>>> = columns
            .columns()
            .iter()
            .map(|c| match c {
                Column::Packed { data, .. } => Some(decompress(data)),
                _ => None,
            })
            .collect();
        let sources: Vec<Column<'_>> = columns
            .columns()
            .iter()
            .zip(&decoded)
            .map(|(c, d)| d.as_ref().map_or(*c, |v| Column::I64(v)))
            .collect();

        if let SinkKind::Top { key, n, descending } = self.sink.kind {
            let keys = source(key, &sources)?;
            return with_slice!(keys, |k| self.run_top(&sources, vector_size, k, n, descending), else unreachable!("decoded above"));
        }
        // computed vectors exist a window at a time; the fold is set up
        // against their (empty) slots
        let slots = vec![Vec::new(); self.computed_slots];
        let mut folded = Folded::new(&self.sink, &sources, &slots)?;
        self.scan(&sources, vector_size, |_, window, computed, sel, len| {
            folded.fold(window, computed, sel, len)
        })?;
        Ok(folded.finish(&self.sink))
    }

    /// A top-N sink over the key column `keys`: offer every selected row's
    /// key as the vectors stream past, then fetch each result column at
    /// the `n` positions kept — no column is gathered for a row that lost.
    fn run_top<T: FixedTail>(
        &self,
        sources: &[Column<'_>],
        vector_size: usize,
        keys: &[T],
        n: usize,
        descending: bool,
    ) -> Result<Output> {
        let outs = self.sink.outs.iter().map(|o| match *o {
            Out::Col(c) => source(c, sources),
            _ => Err(mixed("a top-N sink emits columns")),
        });
        let outs: Vec<Column<'_>> = outs.collect::<Result<_>>()?;
        let mut top = TopN::new(n, descending, T::nil_cmp);
        self.scan(sources, vector_size, |start, _, _, sel, len| {
            let keys = &keys[start..start + len];
            match sel.filter(|s| s.len() < len) {
                None => (0..len).for_each(|i| top.offer(keys[i], start + i)),
                Some(sel) => sel
                    .iter()
                    .for_each(|&i| top.offer(keys[i as usize], start + i as usize)),
            }
            Ok(())
        })?;
        let rows = top.finish();
        let fetch = |c: Column<'_>| with_slice!(c, |d| TailHeap::from_vec(rows.iter().map(|&(_, p)| d[p]).collect()), else unreachable!("decoded before the scan"));
        Ok(Output::Columns(outs.into_iter().map(fetch).collect()))
    }

    /// Pull `sources` through the stages a window at a time, handing
    /// `sink` each window that kept a row: its first row's position, its
    /// vectors, the computed vectors, the selection (`None`: every row)
    /// and its length.
    fn scan<'s>(
        &self,
        sources: &[Column<'s>],
        vector_size: usize,
        mut sink: impl FnMut(usize, &[Column<'s>], &[Vec<i64>], Option<&[u32]>, usize) -> Result<()>,
    ) -> Result<()> {
        // selection vectors hold u32 positions inside one vector
        let vector_size = vector_size.clamp(1, u32::MAX as usize);
        let n = sources.first().map_or(0, |c| c.len());
        let mut computed: Vec<Vec<i64>> = vec![Vec::new(); self.computed_slots];
        // a filter constant its column cannot hold is an error whether or
        // not a row ever reaches the filter
        let mut sel: Vec<u32> = Vec::new();
        let mut sel_next: Vec<u32> = Vec::new();
        for stage in &self.stages {
            if let Stage::Filter { col, pred } = stage {
                let empty = resolve(*col, sources, &computed)?.window(0, 0);
                with_slice!(empty, |d| pred.narrow(d, None, &mut sel)?, else unreachable!("decoded above"));
            }
        }

        let mut window: Vec<Column<'s>> = Vec::with_capacity(sources.len());
        let mut start = 0usize;
        'windows: while start < n {
            let len = vector_size.min(n - start);
            window.clear();
            window.extend(sources.iter().map(|c| c.window(start, len)));
            let first = start;
            start += len;

            let mut have_sel = false;
            for stage in &self.stages {
                let s = have_sel.then_some(&sel[..]);
                match stage {
                    Stage::Filter { col, pred } => {
                        let c = resolve(*col, &window, &computed)?;
                        with_slice!(c, |d| pred.narrow(d, s, &mut sel_next)?, else unreachable!("decoded above"));
                        std::mem::swap(&mut sel, &mut sel_next);
                        have_sel = true;
                        if sel.is_empty() {
                            continue 'windows;
                        }
                    }
                    Stage::Map { op, l, r, out } => {
                        // the slot is taken while written, so operands
                        // that are computed vectors stay readable
                        let mut buf =
                            std::mem::take(computed.get_mut(*out).ok_or(Error::OutOfRange {
                                index: *out as u64,
                                len: self.computed_slots as u64,
                            })?);
                        let ldata = i64_vector(resolve(*l, &window, &computed)?)?;
                        match r {
                            Operand::Const(c) => {
                                primitives::map_arith_i64_const(*op, ldata, *c, s, &mut buf)
                            }
                            Operand::Col(rc) => {
                                let rdata = i64_vector(resolve(*rc, &window, &computed)?)?;
                                primitives::map_arith_i64(*op, ldata, rdata, s, &mut buf);
                            }
                        }
                        computed[*out] = buf;
                    }
                }
            }
            sink(first, &window, &computed, have_sel.then_some(&sel[..]), len)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mammoth_compression::{compress, Scheme};
    use mammoth_types::NativeType;

    struct Lineitem {
        qty: Vec<i64>,
        price: Vec<i64>,
        class: Vec<i64>,
    }

    impl Lineitem {
        fn new() -> Lineitem {
            Lineitem {
                qty: (0..1000).map(|i| i % 50).collect(),
                price: (0..1000).map(|i| 100 + (i % 7)).collect(),
                class: (0..1000).map(|i| i % 4).collect(),
            }
        }

        fn columns(&self) -> ColumnSet<'_> {
            ColumnSet::new(vec![
                Column::I64(&self.qty),
                Column::I64(&self.price),
                Column::I64(&self.class),
            ])
            .unwrap()
        }
    }

    /// A run's results as rows of values, whichever kind of sink it had.
    fn rows(out: Output) -> Vec<Vec<Value>> {
        match out {
            Output::Scalars(v) => vec![v],
            Output::Columns(cols) => cols
                .iter()
                .map(|c| (0..c.len()).map(|i| c.value(i)).collect())
                .collect(),
        }
    }

    fn q1() -> Pipeline {
        // SELECT count(*), sum(qty * price) WHERE qty < 25
        Pipeline {
            stages: vec![
                Stage::theta(ColRef::Source(0), CmpOp::Lt, 25i64),
                Stage::Map {
                    op: MapOp::Mul,
                    l: ColRef::Source(0),
                    r: Operand::Col(ColRef::Source(1)),
                    out: 0,
                },
            ],
            sink: Sink::aggregate(vec![
                Out::Count,
                Out::Agg(AggKind::Sum, ColRef::Computed(0)),
            ]),
            computed_slots: 1,
        }
    }

    fn oracle(li: &Lineitem) -> (i64, i64) {
        let mut count = 0;
        let mut sum = 0;
        for i in 0..li.qty.len() {
            if li.qty[i] < 25 {
                count += 1;
                sum += li.qty[i] * li.price[i];
            }
        }
        (count, sum)
    }

    #[test]
    fn vector_size_does_not_change_results() {
        let li = Lineitem::new();
        let (count, sum) = oracle(&li);
        for vs in [1usize, 7, 100, 1000, 4096] {
            let r = q1().run(&li.columns(), vs).unwrap();
            assert_eq!(
                rows(r),
                [[Value::I64(count), Value::I64(sum)]],
                "vector size {vs}"
            );
        }
    }

    #[test]
    fn compressed_scan_agrees_with_plain() {
        let values: Vec<i64> = (0..5000).map(|i| i % 50).collect();
        let (twos, zeros) = (vec![2i64; 5000], vec![0i64; 5000]);
        let packed = compress(&values, Scheme::Rle);
        let rest = [Column::I64(&twos), Column::I64(&zeros)];
        let plain = ColumnSet::new([&[Column::I64(&values)], &rest[..]].concat()).unwrap();
        let first = Column::Packed {
            data: &packed,
            len: values.len(),
        };
        let compressed = ColumnSet::new([&[first], &rest[..]].concat()).unwrap();
        let a = q1().run(&plain, 512).unwrap();
        let b = q1().run(&compressed, 512).unwrap();
        assert_eq!(rows(a), rows(b));
    }

    #[test]
    fn chained_filters_intersect() {
        let li = Lineitem::new();
        let p = Pipeline {
            stages: vec![
                Stage::theta(ColRef::Source(0), CmpOp::Ge, 10i64),
                Stage::theta(ColRef::Source(0), CmpOp::Lt, 12i64),
            ],
            sink: Sink::aggregate(vec![Out::Count]),
            computed_slots: 0,
        };
        let r = p.run(&li.columns(), 128).unwrap();
        // qty in {10, 11}: 20 rows per 50-cycle, 1000 rows -> 40
        assert_eq!(rows(r), [[Value::I64(40)]]);
    }

    #[test]
    fn groups_number_in_first_appearance_order() {
        let li = Lineitem::new();
        let p = Pipeline {
            stages: vec![Stage::theta(ColRef::Source(0), CmpOp::Ge, 2i64)],
            sink: Sink::group_by(
                ColRef::Source(2),
                vec![
                    Out::Key,
                    Out::Count,
                    Out::Agg(AggKind::Sum, ColRef::Source(0)),
                ],
            ),
            computed_slots: 0,
        };
        // rows 0 and 1 (classes 0 and 1) fail the filter: class 2 is seen
        // first, and every vector size must number the groups alike
        let mut count = [0i64; 4];
        let mut sum = [0i64; 4];
        for i in 0..1000 {
            if li.qty[i] >= 2 {
                count[li.class[i] as usize] += 1;
                sum[li.class[i] as usize] += li.qty[i];
            }
        }
        let order = [2usize, 3, 0, 1];
        let column = |f: &dyn Fn(usize) -> i64| -> Vec<Value> {
            order.iter().map(|&g| Value::I64(f(g))).collect()
        };
        let expect = [
            column(&|g| g as i64),
            column(&|g| count[g]),
            column(&|g| sum[g]),
        ];
        for vs in [1usize, 3, 256, 5000] {
            let r = p.run(&li.columns(), vs).unwrap();
            assert_eq!(rows(r), expect, "vector size {vs}");
        }
    }

    #[test]
    fn min_max_and_empty() {
        let data = [5i64, -3, 9];
        let cs = ColumnSet::new(vec![Column::I64(&data)]).unwrap();
        let min_max = |stages| Pipeline {
            stages,
            sink: Sink::aggregate(vec![
                Out::Agg(AggKind::Min, ColRef::Source(0)),
                Out::Agg(AggKind::Max, ColRef::Source(0)),
                Out::Count,
            ]),
            computed_slots: 0,
        };
        let none = min_max(vec![Stage::theta(ColRef::Source(0), CmpOp::Gt, 100i64)]);
        assert_eq!(
            rows(none.run(&cs, 2).unwrap()),
            [[Value::Null, Value::Null, Value::I64(0)]]
        );
        assert_eq!(
            rows(min_max(vec![]).run(&cs, 2).unwrap()),
            [[Value::I64(-3), Value::I64(9), Value::I64(3)]]
        );
    }

    #[test]
    fn typed_columns_skip_nils_and_keep_float_order() {
        let f = [0.5f64, f64::NAN, 1.5, 2.5, 3.5];
        let i = [1i32, 2, i32::NIL, 4, 5];
        let cs = ColumnSet::new(vec![Column::F64(&f), Column::I32(&i)]).unwrap();
        let p = Pipeline {
            stages: vec![Stage::theta(ColRef::Source(0), CmpOp::Gt, 1.0f64)],
            sink: Sink::aggregate(vec![
                Out::Agg(AggKind::Sum, ColRef::Source(0)),
                Out::Agg(AggKind::Sum, ColRef::Source(1)),
                Out::Agg(AggKind::Count, ColRef::Source(1)),
                Out::Agg(AggKind::Avg, ColRef::Source(1)),
                Out::Count,
            ]),
            computed_slots: 0,
        };
        // rows 2, 3, 4 qualify (NaN is nil and never does); row 2's i32 is nil
        for vs in [1usize, 2, 8] {
            assert_eq!(
                rows(p.run(&cs, vs).unwrap()),
                [[
                    Value::F64(7.5),
                    Value::I64(9),
                    Value::I64(2),
                    Value::F64(4.5),
                    Value::I64(3)
                ]],
                "vector size {vs}"
            );
        }
    }

    /// Aggregates of one column fold in one pass over its selected values;
    /// each must answer exactly as it does alone, in a loop of its own —
    /// float sums to the bit, an aggregate asked for twice, nils on both
    /// columns, windows with and without a selection.
    #[test]
    fn aggregates_sharing_a_column_answer_as_each_alone() {
        let n = 3 * VECTOR_SIZE + 5;
        let pick: Vec<i64> = (0..n as i64).map(|i| (i * 7919) % 100).collect();
        let ints: Vec<i32> = (0..n as i32)
            .map(|i| {
                if i % 13 == 0 {
                    i32::NIL
                } else {
                    (i * 31) % 1000 - 500
                }
            })
            .collect();
        let floats: Vec<f64> = (0..n as i32)
            .map(|i| {
                if i % 17 == 0 {
                    f64::NAN
                } else {
                    0.1 * (i % 1000) as f64 - 33.3
                }
            })
            .collect();
        let cs = ColumnSet::new(vec![
            Column::I64(&pick),
            Column::I32(&ints),
            Column::F64(&floats),
        ])
        .unwrap();
        let run = |outs: Vec<Out>, keep: i64, vs: usize| {
            let p = Pipeline {
                stages: vec![Stage::theta(ColRef::Source(0), CmpOp::Lt, keep)],
                sink: Sink::aggregate(outs),
                computed_slots: 0,
            };
            match p.run(&cs, vs).unwrap() {
                Output::Scalars(v) => v,
                Output::Columns(_) => panic!("a global sink binds scalars"),
            }
        };
        let bits = |v: &Value| match v {
            Value::F64(x) => format!("{:016x}", x.to_bits()),
            other => format!("{other:?}"),
        };
        let (i, f) = (ColRef::Source(1), ColRef::Source(2));
        let sets = [
            vec![Out::Agg(AggKind::Min, i), Out::Agg(AggKind::Max, i)],
            vec![Out::Agg(AggKind::Max, f), Out::Agg(AggKind::Min, f)],
            vec![Out::Agg(AggKind::Sum, f), Out::Agg(AggKind::Avg, f)],
            vec![
                Out::Agg(AggKind::Min, i),
                Out::Agg(AggKind::Sum, f),
                Out::Agg(AggKind::Avg, i),
                Out::Count,
                Out::Agg(AggKind::Avg, f),
                Out::Agg(AggKind::Min, i),
                Out::Agg(AggKind::Sum, i),
                Out::Agg(AggKind::Count, f),
                Out::Agg(AggKind::Max, f),
            ],
        ];
        for outs in sets {
            for (keep, vs) in [(60, 7), (60, VECTOR_SIZE), (100, VECTOR_SIZE), (0, n)] {
                let together = run(outs.clone(), keep, vs);
                for (out, got) in outs.iter().zip(&together) {
                    let alone = run(vec![*out], keep, vs);
                    assert_eq!(bits(got), bits(&alone[0]), "{out:?}, vector size {vs}");
                }
            }
        }
    }

    #[test]
    fn emitted_columns_hold_the_selected_rows_in_row_order() {
        let li = Lineitem::new();
        let p = Pipeline {
            stages: vec![
                Stage::theta(ColRef::Source(0), CmpOp::Ge, 48i64),
                Stage::Map {
                    op: MapOp::Mul,
                    l: ColRef::Source(0),
                    r: Operand::Const(2),
                    out: 0,
                },
            ],
            sink: Sink {
                kind: SinkKind::Rows,
                outs: vec![
                    Out::Col(ColRef::Source(2)),
                    Out::Col(ColRef::Computed(0)),
                    Out::Col(ColRef::Source(2)),
                ],
            },
            computed_slots: 1,
        };
        let hit: Vec<usize> = (0..1000).filter(|&i| li.qty[i] >= 48).collect();
        let class: Vec<Value> = hit.iter().map(|&i| Value::I64(li.class[i])).collect();
        let twice: Vec<Value> = hit.iter().map(|&i| Value::I64(li.qty[i] * 2)).collect();
        for vs in [1usize, 49, 50, 51, 4096] {
            assert_eq!(
                rows(p.run(&li.columns(), vs).unwrap()),
                [class.clone(), twice.clone(), class.clone()],
                "vector size {vs}"
            );
        }
        // no stage at all: the column, whole
        let all = Pipeline {
            stages: vec![],
            sink: Sink {
                kind: SinkKind::Rows,
                outs: vec![Out::Col(ColRef::Source(1))],
            },
            computed_slots: 0,
        };
        let price: Vec<Value> = li.price.iter().map(|&x| Value::I64(x)).collect();
        assert_eq!(rows(all.run(&li.columns(), 64).unwrap()), [price]);
    }

    #[test]
    fn top_n_orders_nil_first_and_ties_by_position_or_exactly_the_reverse() {
        let key = [3i32, i32::NIL, 1, 3, 1, i32::NIL, 2, 3];
        let pos: Vec<i64> = (0..8).collect();
        let cs = ColumnSet::new(vec![Column::I32(&key), Column::I64(&pos)]).unwrap();
        let top = |n: usize, descending: bool, stages: Vec<Stage>| Pipeline {
            stages,
            sink: Sink {
                kind: SinkKind::Top {
                    key: ColRef::Source(0),
                    n,
                    descending,
                },
                outs: vec![Out::Col(ColRef::Source(1)), Out::Col(ColRef::Source(0))],
            },
            computed_slots: 0,
        };
        let positions = |p: &Pipeline, vs: usize| -> Vec<i64> {
            let out = rows(p.run(&cs, vs).unwrap());
            assert_eq!(out[0].len(), out[1].len());
            out[0].iter().map(|v| v.as_i64().unwrap()).collect()
        };
        let ascending = [1i64, 5, 2, 4, 6, 0, 3, 7];
        for vs in [1usize, 3, 8, 100] {
            for n in 0..=9 {
                let want = &ascending[..n.min(8)];
                assert_eq!(
                    positions(&top(n, false, vec![]), vs),
                    want,
                    "asc {n} at {vs}"
                );
                let want: Vec<i64> = ascending.iter().rev().take(n).copied().collect();
                assert_eq!(
                    positions(&top(n, true, vec![]), vs),
                    want,
                    "desc {n} at {vs}"
                );
            }
            // under a filter only the rows that pass compete (nils never do)
            let some = vec![Stage::theta(ColRef::Source(0), CmpOp::Ge, 2i32)];
            assert_eq!(positions(&top(3, false, some.clone()), vs), [6, 0, 3]);
            let none = vec![Stage::theta(ColRef::Source(0), CmpOp::Gt, 9i32)];
            assert_eq!(positions(&top(3, true, none), vs), [0i64; 0]);
        }
    }

    #[test]
    fn ill_typed_pipelines_are_errors_before_any_row() {
        let (i, b) = ([1i32, 2], [true, false]);
        let cs = ColumnSet::new(vec![Column::I32(&i), Column::Bool(&b)]).unwrap();
        let run = |stages, outs| {
            Pipeline {
                stages,
                sink: Sink::aggregate(outs),
                computed_slots: 0,
            }
            .run(&cs, 8)
        };
        // a constant the column's type cannot hold
        let wide = Stage::theta(ColRef::Source(0), CmpOp::Lt, 1i64 << 40);
        assert!(run(vec![wide], vec![Out::Count]).is_err());
        // a column that is not there, a key without groups, a sum of bools
        assert!(run(vec![], vec![Out::Agg(AggKind::Sum, ColRef::Source(2))]).is_err());
        assert!(run(vec![], vec![Out::Key]).is_err());
        assert!(run(vec![], vec![Out::Agg(AggKind::Sum, ColRef::Source(1))]).is_err());
        // a sink of two kinds, whichever comes first
        let col = Out::Col(ColRef::Source(0));
        assert!(run(vec![], vec![col, Out::Count]).is_err());
        assert!(run(vec![], vec![Out::Count, col]).is_err());
        let sink = |kind, outs| Pipeline {
            stages: vec![],
            sink: Sink { kind, outs },
            computed_slots: 0,
        };
        let grouped = sink(SinkKind::GroupBy(ColRef::Source(0)), vec![Out::Key, col]);
        assert!(grouped.run(&cs, 8).is_err());
        let top = |key, out| {
            let kind = SinkKind::Top {
                key,
                n: 1,
                descending: false,
            };
            sink(kind, vec![out]).run(&cs, 8)
        };
        assert!(top(ColRef::Source(0), col).is_ok());
        assert!(top(ColRef::Source(0), Out::Count).is_err());
        assert!(top(ColRef::Source(2), col).is_err());
        assert!(top(ColRef::Computed(0), col).is_err());
    }
}
