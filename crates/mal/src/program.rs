//! MAL program representation.

use mammoth_algebra::{AggKind, ArithOp, CmpOp};
use mammoth_storage::Bat;
use mammoth_types::{LogicalType, Value};
use std::fmt;
use std::sync::Arc;

/// A MAL variable id.
pub type VarId = usize;

/// A runtime value: a BAT or a scalar. BATs are shared so a recycler hit
/// costs a pointer copy, exactly like MonetDB's reference-counted BATs.
#[derive(Debug, Clone)]
pub enum MalValue {
    Bat(Arc<Bat>),
    Scalar(Value),
}

impl MalValue {
    pub fn as_bat(&self) -> Option<&Arc<Bat>> {
        match self {
            MalValue::Bat(b) => Some(b),
            MalValue::Scalar(_) => None,
        }
    }

    pub fn as_scalar(&self) -> Option<&Value> {
        match self {
            MalValue::Scalar(v) => Some(v),
            MalValue::Bat(_) => None,
        }
    }
}

/// An instruction argument.
#[derive(Debug, Clone, PartialEq)]
pub enum Arg {
    Var(VarId),
    Const(Value),
    /// A prepared-statement parameter slot (`?N`), substituted to a
    /// [`Arg::Const`] by the plan cache before execution. The interpreter
    /// rejects plans that still carry one.
    Param(usize),
}

/// The zero-degrees-of-freedom instruction set.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum OpCode {
    /// `sql.bind(table, column)` — materialize a base column (live rows).
    Bind,
    /// `algebra.thetaselect[op](b, [cand,] c)` — candidates where
    /// `tail op c`. With the optional candidate list only the rows it names
    /// are tested; either way the result holds absolute head oids of `b`,
    /// so a chain of selections threads one candidate list through.
    ThetaSelect(CmpOp),
    /// `algebra.select(b, [cand,] lo, hi, li, hi_i)` — range candidates,
    /// with the same optional candidate list. NULL bounds are open.
    RangeSelect { lo_incl: bool, hi_incl: bool },
    /// `algebra.projection(cands, b)` — positional fetch.
    Projection,
    /// `(l, r) := algebra.join(a, b)` — equi-join producing two aligned
    /// candidate BATs.
    Join,
    /// `(gids, ext) := group.group(b)`.
    Group,
    /// `(gids, ext) := group.refine(gids, b)`.
    GroupRefine,
    /// `aggr.<kind>(b)` — scalar aggregate.
    Aggr(AggKind),
    /// `aggr.sub<kind>(b, gids, ext)` — grouped aggregate (one row per
    /// group; `ext` fixes the group count).
    AggrGrouped(AggKind),
    /// `batcalc.<op>(a, b)` — element-wise arithmetic (b may be a const).
    Calc(ArithOp),
    /// `(sorted, order) := algebra.sort(b)` (optionally descending).
    Sort { desc: bool },
    /// `(sorted, order) := algebra.firstn(b, n)` — the first `n` rows of
    /// `algebra.sort(b)`, ties included exactly as the stable sort orders
    /// them, without sorting the rest.
    FirstN { desc: bool },
    /// `bat.slice(b, lo, hi)` — positional slice.
    Slice,
    /// `algebra.slice(b, i, k)` — the i-th of k horizontal range
    /// fragments of `b` (the mitosis fragment operator). Void heads keep
    /// their absolute seqbase, so fragments address the same row space as
    /// the parent.
    PartSlice,
    /// `mat.pack(b1, ..., bn)` — concatenate fragments back into one BAT
    /// (the mergetable merge operator). Variadic, at least one argument.
    Pack,
    /// `mat.packsum(s1, ..., sn)` — merge per-fragment partial aggregates:
    /// the nil-skipping sum of its scalar arguments (nil when all inputs
    /// are nil). Variadic, at least one argument.
    PackSum,
    /// `aggr.count(b)` — BAT length as a scalar (counts rows, not nils).
    Count,
    /// `bat.mirror(b)` — dense identity candidates over b.
    Mirror,
    /// `bat.setprops(b, "sorted,nonil")` — runtime identity carrying an
    /// explicit property annotation. The property analysis must confirm
    /// every claimed flag; the interpreter tags the BAT's runtime props so
    /// downstream operators (binary-search range selection) can exploit
    /// them.
    SetProps,
    /// `io.result(b, ...)` — mark outputs (side effect; ends the plan).
    Result,
    /// `language.pass(v)` — end-of-life marker: the variable's value is
    /// released and may not be referenced afterwards (MonetDB's
    /// garbage-collection hint, emitted by the `garbage_collect` pass).
    Free,
    /// `(r1, …) := vector.pipeline[spec](col…, bound…[, n])` — a fused
    /// select → fetch → aggregate / emit / top-N chain over aligned columns
    /// of one table, run a vector at a time with no materialized
    /// intermediate (the `fuse_pipeline` pass emits it; see
    /// [`PipelineSpec`]).
    Pipeline(Arc<PipelineSpec>),
}

/// The shape of a `vector.pipeline` instruction: which of its column
/// arguments each filter tests and what its sink makes of the rows that
/// pass. The filter *constants* and a top-N sink's row count are not part
/// of the shape — they are ordinary trailing arguments, so a `?N`
/// parameter binds like any other.
///
/// Arguments: `ncols()` column BATs (columns `0..ncols`), then each
/// filter's bounds in filter order — one for a theta filter, `lo, hi` for a
/// range — then, for a [`PipelineSink::Top`], the row count `n`. Results:
/// one per entry of `outs`, of the kind the sink fixes (see
/// [`PipelineSink`]).
///
/// Text form, inside the brackets: `filter, … ; [group@K: | top@K: |
/// top.desc@K:] out, …` where a filter is `<op>@C` (`<`, `<=`, `==`, `!=`,
/// `>`, `>=`, or a range spelled by its two comparisons — `>=<@0` is
/// `lo <= col 0 < hi`) and an out is `count`, `key`, `<aggregate>@C` or
/// `col@C`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PipelineSpec {
    /// At least one; the first has no candidates and tests every row.
    pub filters: Vec<PipelineFilter>,
    pub sink: PipelineSink,
    /// At least one.
    pub outs: Vec<PipelineOut>,
}

/// What a pipeline does with the rows its filters keep. A sink is of one
/// kind: aggregates and columns never mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipelineSink {
    /// Every row, ungrouped: either every result is a scalar
    /// ([`PipelineOut::Count`] / [`PipelineOut::Agg`]) or every result is a
    /// column of those rows, in row order ([`PipelineOut::Col`]).
    Rows,
    /// One row per distinct value of the key column, in first-appearance
    /// order — `group.group`: BATs of keys, counts and aggregates.
    Group(usize),
    /// The first `n` rows in the key column's sort order —
    /// `algebra.firstn` — `n` being the instruction's last argument: every
    /// result is a column ([`PipelineOut::Col`]) of those rows, sorted.
    Top { key: usize, desc: bool },
}

/// One filter of a [`PipelineSpec`]: the column it tests and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PipelineFilter {
    pub col: usize,
    pub test: FilterTest,
}

/// A pipeline filter's predicate: that of the selection it stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FilterTest {
    /// `algebra.thetaselect[op]`: one bound.
    Theta(CmpOp),
    /// `algebra.select`: `lo, hi`; a nil bound is open.
    Range { lo_incl: bool, hi_incl: bool },
}

impl PipelineFilter {
    /// Bound arguments the filter takes.
    pub(crate) fn nbounds(&self) -> usize {
        match self.test {
            FilterTest::Theta(_) => 1,
            FilterTest::Range { .. } => 2,
        }
    }

    /// The selection opcode the filter stands for.
    pub fn select_op(&self) -> OpCode {
        match self.test {
            FilterTest::Theta(op) => OpCode::ThetaSelect(op),
            FilterTest::Range { lo_incl, hi_incl } => OpCode::RangeSelect { lo_incl, hi_incl },
        }
    }
}

/// One result of a [`PipelineSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipelineOut {
    /// The key's value per group — `algebra.projection(ext, key)`.
    Key,
    /// Selected rows — `aggr.count(cands)`; per group,
    /// `aggr.subcount_nonnil(gids, gids, ext)`.
    Count,
    /// `aggr.<kind>` / `aggr.sub<kind>` over a column's selected rows.
    Agg(AggKind, usize),
    /// A column's values at the sink's rows — `algebra.projection(cands,
    /// col)` through the last candidate list, or through a top-N sink's
    /// order.
    Col(usize),
}

impl PipelineSpec {
    /// Leading column arguments: every column index in use is below this.
    pub fn ncols(&self) -> usize {
        let filters = self.filters.iter().map(|f| f.col);
        let outs = self.outs.iter().filter_map(|o| match o {
            PipelineOut::Agg(_, c) | PipelineOut::Col(c) => Some(*c),
            PipelineOut::Key | PipelineOut::Count => None,
        });
        let key = match self.sink {
            PipelineSink::Rows => None,
            PipelineSink::Group(key) | PipelineSink::Top { key, .. } => Some(key),
        };
        filters.chain(outs).chain(key).max().map_or(0, |c| c + 1)
    }

    /// Arguments in all: the columns, every filter's bounds, and a top-N
    /// sink's row count.
    pub fn nargs(&self) -> usize {
        let bounds: usize = self.filters.iter().map(|f| f.nbounds()).sum();
        self.ncols() + bounds + matches!(self.sink, PipelineSink::Top { .. }) as usize
    }

    /// Whether the results are columns of rows of the table (rather than
    /// aggregates over them).
    pub(crate) fn emits_columns(&self) -> bool {
        matches!(self.outs.first(), Some(PipelineOut::Col(_)))
    }

    /// Whether the results are scalars — global aggregates — rather than
    /// BATs.
    pub fn binds_scalars(&self) -> bool {
        self.sink == PipelineSink::Rows && !self.emits_columns()
    }

    /// Each filter with its bound arguments out of `args`, the
    /// instruction's argument list (`None` when that is too short).
    pub fn filters_with_bounds<'a, A>(
        &'a self,
        args: &'a [A],
    ) -> Option<impl Iterator<Item = (&'a PipelineFilter, &'a [A])>> {
        let nbounds: usize = self.filters.iter().map(|f| f.nbounds()).sum();
        let bounds = args.get(self.ncols()..self.ncols() + nbounds)?;
        let mut at = 0;
        Some(self.filters.iter().map(move |f| {
            let b = &bounds[at..at + f.nbounds()];
            at += f.nbounds();
            (f, b)
        }))
    }
}

impl fmt::Display for PipelineSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, filter) in self.filters.iter().enumerate() {
            let sep = if k > 0 { ", " } else { "" };
            match filter.test {
                FilterTest::Range { lo_incl, hi_incl } => {
                    let lo = if lo_incl { ">=" } else { ">" };
                    let hi = if hi_incl { "<=" } else { "<" };
                    write!(f, "{sep}{lo}{hi}@{}", filter.col)?
                }
                FilterTest::Theta(op) => {
                    write!(f, "{sep}{}@{}", name_of(&CMP_NAMES, op), filter.col)?
                }
            }
        }
        f.write_str("; ")?;
        match self.sink {
            PipelineSink::Rows => {}
            PipelineSink::Group(key) => write!(f, "group@{key}: ")?,
            PipelineSink::Top { key, desc: false } => write!(f, "top@{key}: ")?,
            PipelineSink::Top { key, desc: true } => write!(f, "top.desc@{key}: ")?,
        }
        for (k, out) in self.outs.iter().enumerate() {
            let sep = if k > 0 { ", " } else { "" };
            match out {
                PipelineOut::Key => write!(f, "{sep}key")?,
                PipelineOut::Count => write!(f, "{sep}count")?,
                PipelineOut::Agg(kind, c) => write!(f, "{sep}{}@{c}", name_of(&AGG_NAMES, *kind))?,
                PipelineOut::Col(c) => write!(f, "{sep}col@{c}")?,
            }
        }
        Ok(())
    }
}

/// An operation's one declaration: the name it prints as, the kinds of its
/// arguments and results, and the rule that types its results; with the
/// operation's [`Param`], what [`OpCode::sig`] gives for each opcode. The
/// printer, the parser and the verifier read it.
#[derive(Debug)]
pub(crate) struct Sig {
    /// `module.function`, or the part of it before a name suffix
    /// (`aggr.sub`, `batcalc.`).
    pub(crate) name: &'static str,
    pub(crate) args: &'static [ArgKind],
    pub(crate) tail: Tail,
    pub(crate) results: &'static [ResultKind],
    pub(crate) rule: Rule,
}

/// An operation's parameter, and where its text form carries it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Param<'a> {
    /// No parameter: the name is all of it.
    None,
    /// `[op]` after the name.
    Cmp(CmpOp),
    /// The end of the name: `aggr.sum`, `aggr.subsum`.
    Agg(AggKind),
    /// The end of the name: `batcalc.+`.
    Arith(ArithOp),
    /// `[desc]` after the name when descending, nothing when ascending.
    Desc(bool),
    /// Two trailing boolean arguments: the range's `lo_incl, hi_incl`.
    Incl(bool, bool),
    /// `[shape]` after the name: the pipeline's [`PipelineSpec`].
    Spec(&'a PipelineSpec),
}

/// What an argument slot takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ArgKind {
    /// A BAT.
    Bat,
    /// A candidate list or grouping: a BAT of oids.
    Cand,
    /// A scalar: a constant, a `?N` parameter or a scalar variable.
    Scalar,
    /// A BAT or a scalar, but not the NULL literal: `batcalc`'s right
    /// operand.
    Operand,
    /// An integer scalar, not NULL: a slice bound or a row count.
    RowCount,
    /// A string literal naming a table or a column.
    Name,
    /// An integer literal: a fragment coordinate.
    Frag,
    /// A string literal of property claims (`"sorted,nonil"`).
    Claims,
    /// A variable of either kind.
    Var,
}

/// What may follow the declared arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tail {
    /// Nothing: exactly the declared arguments.
    None,
    /// A selection's optional candidate list, right after the first
    /// argument.
    Cand,
    /// The last declared argument repeats: one or more of it.
    Variadic,
}

/// What a result binds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ResultKind {
    /// A BAT of oids: candidates, group ids, an order.
    Oids,
    /// A BAT of the type the [`Rule`] gives.
    Bat,
    /// A scalar of the type the [`Rule`] gives.
    Scalar,
}

/// How argument types type the results (and which argument types the
/// operation refuses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Rule {
    /// The bound column's type, from the catalog (unknown without one).
    Catalog,
    /// Every argument after the first but a candidate list is compared
    /// with the first; the results are oids.
    Compare,
    /// No typed result: they are oids, or there are none.
    Untyped,
    /// The type of argument `k`.
    Like(usize),
    /// The type of the first argument; the fragment coordinates after it
    /// name one of `k` fragments.
    Fragment,
    /// The aggregate's (the [`Param::Agg`]) over the first argument, which
    /// it must accept.
    Agg,
    /// Numeric arguments, widened to one type when every type is known.
    Widen,
    /// The one type of every argument.
    Same,
    /// Always this type.
    Of(LogicalType),
    /// The spec's (see [`PipelineSpec`]).
    Pipeline,
}

impl Sig {
    /// Whether the operation takes `n` arguments.
    #[inline]
    pub(crate) fn takes(&self, n: usize) -> bool {
        let declared = self.args.len();
        match self.tail {
            Tail::None => n == declared,
            Tail::Cand => n == declared || n == declared + 1,
            Tail::Variadic => n >= declared,
        }
    }

    /// The kind of argument `k` of `n` (which it [`Sig::takes`]).
    #[inline]
    pub(crate) fn arg(&self, n: usize, k: usize) -> ArgKind {
        match self.tail {
            Tail::Cand if n > self.args.len() && k > 0 => match k {
                1 => ArgKind::Cand,
                k => self.args[k - 1],
            },
            Tail::Variadic => self.args[k.min(self.args.len() - 1)],
            _ => self.args[k],
        }
    }
}

impl fmt::Display for Param<'_> {
    /// The parameter's part of the printed name.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Param::Cmp(op) => write!(f, "[{}]", name_of(&CMP_NAMES, *op)),
            Param::Agg(k) => f.write_str(name_of(&AGG_NAMES, *k)),
            Param::Arith(op) => f.write_str(name_of(&ARITH_NAMES, *op)),
            Param::Desc(true) => f.write_str("[desc]"),
            Param::Spec(spec) => write!(f, "[{spec}]"),
            Param::None | Param::Desc(false) | Param::Incl(..) => Ok(()),
        }
    }
}

impl OpCode {
    /// The operation's declaration, and the value of its parameter. Each
    /// declaration is a constant: reading one costs a pointer.
    #[rustfmt::skip]
    #[inline]
    pub(crate) fn sig(&self) -> (&'static Sig, Param<'_>) {
        use ArgKind::{Bat, Cand, Claims, Frag, Name, Operand, RowCount, Scalar, Var};
        use ResultKind::{Bat as B, Oids, Scalar as S};
        match self {
            OpCode::Bind => (&Sig { name: "sql.bind", args: &[Name, Name], tail: Tail::None, results: &[B], rule: Rule::Catalog }, Param::None),
            OpCode::ThetaSelect(op) => (&Sig { name: "algebra.thetaselect", args: &[Bat, Scalar], tail: Tail::Cand, results: &[Oids], rule: Rule::Compare }, Param::Cmp(*op)),
            OpCode::RangeSelect { lo_incl, hi_incl } => (&Sig { name: "algebra.select", args: &[Bat, Scalar, Scalar], tail: Tail::Cand, results: &[Oids], rule: Rule::Compare }, Param::Incl(*lo_incl, *hi_incl)),
            OpCode::Projection => (&Sig { name: "algebra.projection", args: &[Cand, Bat], tail: Tail::None, results: &[B], rule: Rule::Like(1) }, Param::None),
            OpCode::Join => (&Sig { name: "algebra.join", args: &[Bat, Bat], tail: Tail::None, results: &[Oids, Oids], rule: Rule::Compare }, Param::None),
            OpCode::Group => (&Sig { name: "group.group", args: &[Bat], tail: Tail::None, results: &[Oids, Oids], rule: Rule::Untyped }, Param::None),
            OpCode::GroupRefine => (&Sig { name: "group.refine", args: &[Cand, Bat], tail: Tail::None, results: &[Oids, Oids], rule: Rule::Untyped }, Param::None),
            OpCode::Aggr(k) => (&Sig { name: "aggr.", args: &[Bat], tail: Tail::None, results: &[S], rule: Rule::Agg }, Param::Agg(*k)),
            OpCode::AggrGrouped(k) => (&Sig { name: "aggr.sub", args: &[Bat, Cand, Cand], tail: Tail::None, results: &[B], rule: Rule::Agg }, Param::Agg(*k)),
            OpCode::Calc(op) => (&Sig { name: "batcalc.", args: &[Bat, Operand], tail: Tail::None, results: &[B], rule: Rule::Widen }, Param::Arith(*op)),
            OpCode::Sort { desc } => (&Sig { name: "algebra.sort", args: &[Bat], tail: Tail::None, results: &[B, Oids], rule: Rule::Like(0) }, Param::Desc(*desc)),
            OpCode::FirstN { desc } => (&Sig { name: "algebra.firstn", args: &[Bat, RowCount], tail: Tail::None, results: &[B, Oids], rule: Rule::Like(0) }, Param::Desc(*desc)),
            OpCode::Slice => (&Sig { name: "bat.slice", args: &[Bat, RowCount, RowCount], tail: Tail::None, results: &[B], rule: Rule::Like(0) }, Param::None),
            OpCode::PartSlice => (&Sig { name: "algebra.slice", args: &[Bat, Frag, Frag], tail: Tail::None, results: &[B], rule: Rule::Fragment }, Param::None),
            OpCode::Pack => (&Sig { name: "mat.pack", args: &[Bat], tail: Tail::Variadic, results: &[B], rule: Rule::Same }, Param::None),
            OpCode::PackSum => (&Sig { name: "mat.packsum", args: &[Scalar], tail: Tail::Variadic, results: &[S], rule: Rule::Widen }, Param::None),
            OpCode::Count => (&Sig { name: "aggr.count", args: &[Bat], tail: Tail::None, results: &[S], rule: Rule::Of(LogicalType::I64) }, Param::None),
            OpCode::Mirror => (&Sig { name: "bat.mirror", args: &[Bat], tail: Tail::None, results: &[Oids], rule: Rule::Untyped }, Param::None),
            OpCode::SetProps => (&Sig { name: "bat.setprops", args: &[Bat, Claims], tail: Tail::None, results: &[B], rule: Rule::Like(0) }, Param::None),
            OpCode::Result => (&Sig { name: "io.result", args: &[Var], tail: Tail::Variadic, results: &[], rule: Rule::Untyped }, Param::None),
            OpCode::Free => (&Sig { name: "language.pass", args: &[Var], tail: Tail::None, results: &[], rule: Rule::Untyped }, Param::None),
            // arguments and results as the spec says: checked by its own rule
            OpCode::Pipeline(spec) => (&Sig { name: "vector.pipeline", args: &[], tail: Tail::None, results: &[], rule: Rule::Pipeline }, Param::Spec(spec)),
        }
    }

    /// Every operation the printer names: each opcode with each value of
    /// its parameter, and a pipeline of each sink form. The parser
    /// resolves a printed name among them.
    pub(crate) fn every() -> impl Iterator<Item = OpCode> {
        use PipelineOut::{Agg, Col, Count, Key};
        let pipeline = |(sink, outs): (PipelineSink, &[PipelineOut])| {
            let range = FilterTest::Range {
                lo_incl: true,
                hi_incl: false,
            };
            let filters = [FilterTest::Theta(CmpOp::Lt), range];
            OpCode::Pipeline(Arc::new(PipelineSpec {
                filters: filters.map(|test| PipelineFilter { col: 0, test }).into(),
                sink,
                outs: outs.into(),
            }))
        };
        let top = |desc| PipelineSink::Top { key: 1, desc };
        let sinks: [(_, &[_]); 5] = [
            (PipelineSink::Rows, &[Count, Agg(AggKind::Sum, 1)]),
            (PipelineSink::Rows, &[Col(1)]),
            (PipelineSink::Group(1), &[Key, Count]),
            (top(false), &[Col(0)]),
            (top(true), &[Col(0)]),
        ];
        let bools = [false, true];
        let plain = [
            OpCode::Bind,
            OpCode::Projection,
            OpCode::Join,
            OpCode::Group,
            OpCode::GroupRefine,
            OpCode::Slice,
            OpCode::PartSlice,
            OpCode::Pack,
            OpCode::PackSum,
            OpCode::Count,
            OpCode::Mirror,
            OpCode::SetProps,
            OpCode::Result,
            OpCode::Free,
        ];
        plain
            .into_iter()
            .chain(CMP_NAMES.map(|(op, _)| OpCode::ThetaSelect(op)))
            .chain(bools.into_iter().flat_map(move |lo_incl| {
                bools.map(|hi_incl| OpCode::RangeSelect { lo_incl, hi_incl })
            }))
            .chain(AGG_NAMES.map(|(k, _)| OpCode::Aggr(k)))
            .chain(AGG_NAMES.map(|(k, _)| OpCode::AggrGrouped(k)))
            .chain(ARITH_NAMES.map(|(op, _)| OpCode::Calc(op)))
            .chain(
                bools
                    .into_iter()
                    .flat_map(|desc| [OpCode::Sort { desc }, OpCode::FirstN { desc }]),
            )
            // built only when iterated to: the parser rarely gets this far
            .chain(sinks.into_iter().map(pipeline))
    }

    /// Number of results the instruction binds.
    pub(crate) fn result_arity(&self) -> usize {
        match self {
            OpCode::Pipeline(spec) => spec.outs.len(),
            op => op.sig().0.results.len(),
        }
    }

    /// The MonetDB-style `module.function` name.
    pub fn name(&self) -> String {
        let (sig, param) = self.sig();
        format!("{}{param}", sig.name)
    }

    /// Instructions without side effects whose unused results may be
    /// removed, and whose results are recyclable.
    pub(crate) fn is_pure(&self) -> bool {
        !matches!(self, OpCode::Result | OpCode::Free)
    }
}

/// Each comparison by the name it prints as.
pub(crate) const CMP_NAMES: [(CmpOp, &str); 6] = [
    (CmpOp::Eq, "=="),
    (CmpOp::Ne, "!="),
    (CmpOp::Lt, "<"),
    (CmpOp::Le, "<="),
    (CmpOp::Gt, ">"),
    (CmpOp::Ge, ">="),
];

/// Each aggregate by the name it prints as.
pub(crate) const AGG_NAMES: [(AggKind, &str); 5] = [
    (AggKind::Count, "count_nonnil"),
    (AggKind::Sum, "sum"),
    (AggKind::Min, "min"),
    (AggKind::Max, "max"),
    (AggKind::Avg, "avg"),
];

const ARITH_NAMES: [(ArithOp, &str); 5] = [
    (ArithOp::Add, "+"),
    (ArithOp::Sub, "-"),
    (ArithOp::Mul, "*"),
    (ArithOp::Div, "/"),
    (ArithOp::Mod, "%"),
];

/// The name `v` prints as, out of one of the name tables.
pub(crate) fn name_of<T: PartialEq>(names: &[(T, &'static str)], v: T) -> &'static str {
    names
        .iter()
        .find(|(x, _)| *x == v)
        .expect("every value is named")
        .1
}

/// One MAL instruction: `results := op(args)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Instr {
    pub results: Vec<VarId>,
    pub op: OpCode,
    pub args: Vec<Arg>,
}

/// The operands of a selection, split by role.
pub struct SelectArgs<'a> {
    /// The column the predicate reads.
    pub input: &'a Arg,
    /// The optional candidate list restricting the rows tested.
    pub cand: Option<&'a Arg>,
    /// The predicate constants: one for a theta-select, `lo, hi` for a
    /// range select.
    pub bounds: &'a [Arg],
}

impl Instr {
    /// The operands of an `algebra.thetaselect` / `algebra.select`, with
    /// the optional candidate list told apart by arity; `None` for any
    /// other opcode or a malformed argument count.
    pub fn select_args(&self) -> Option<SelectArgs<'_>> {
        let (sig, _) = self.op.sig();
        if sig.tail != Tail::Cand || !sig.takes(self.args.len()) {
            return None;
        }
        let (input, rest) = self.args.split_first()?;
        let (cand, bounds) = match self.args.len() > sig.args.len() {
            true => (rest.first(), &rest[1..]),
            false => (None, rest),
        };
        Some(SelectArgs {
            input,
            cand,
            bounds,
        })
    }

    /// The argument list in the program's textual form (`x3, 1927`) — the
    /// profiler records this per event so traces read like the plan.
    pub(crate) fn render_args(&self) -> String {
        let mut out = String::new();
        for (k, a) in self.args.iter().enumerate() {
            if k > 0 {
                out.push_str(", ");
            }
            match a {
                Arg::Var(v) => out.push_str(&format!("x{v}")),
                Arg::Const(Value::Str(s)) => out.push_str(&format!("{s:?}")),
                Arg::Const(Value::Null) => out.push_str("nil"),
                Arg::Const(c) => out.push_str(&format!("{c}")),
                Arg::Param(n) => out.push_str(&format!("?{n}")),
            }
        }
        out
    }
}

/// Which rows of which table a base-column variable holds — all of them,
/// or one mitosis fragment — named by the instructions that say so: the
/// `sql.bind`, and the `algebra.slice` that cut the fragment out of it.
/// What the pipeline instruction's alignment rule is stated in: the
/// verifier checks it, the `fuse_pipeline` pass decides by it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BaseRows {
    pub(crate) bind: usize,
    pub(crate) slice: Option<usize>,
}

impl BaseRows {
    /// The base rows the (single) result of `instr`, at index `idx`, holds,
    /// given what its first argument holds: a `sql.bind` holds its table's,
    /// an `algebra.slice` of a whole column that fragment of them, nothing
    /// else holds any.
    pub(crate) fn of(
        idx: usize,
        instr: &Instr,
        held: impl Fn(VarId) -> Option<BaseRows>,
    ) -> Option<BaseRows> {
        match (&instr.op, &instr.args[..]) {
            (OpCode::Bind, [Arg::Const(Value::Str(_)), _]) => Some(BaseRows {
                bind: idx,
                slice: None,
            }),
            (OpCode::PartSlice, [Arg::Var(whole), Arg::Const(_), Arg::Const(_)]) => {
                match held(*whole)? {
                    BaseRows { bind, slice: None } => Some(BaseRows {
                        bind,
                        slice: Some(idx),
                    }),
                    _ => None,
                }
            }
            _ => None,
        }
    }

    fn table<'p>(&self, instrs: &'p [Instr]) -> Option<&'p str> {
        match instrs[self.bind].args.first() {
            Some(Arg::Const(Value::Str(t))) => Some(t),
            _ => None,
        }
    }

    /// Whether every row `scanned` holds is a row of `self`, at the same
    /// oid: the same table's, and all of them or the same fragment.
    pub(crate) fn covers(&self, scanned: &BaseRows, instrs: &[Instr]) -> bool {
        let frag = |rows: &BaseRows| rows.slice.map(|s| &instrs[s].args[1..]);
        let same_table = self
            .table(instrs)
            .is_some_and(|t| scanned.table(instrs) == Some(t));
        same_table && (self.slice.is_none() || frag(self) == frag(scanned))
    }

    /// `t`, or `fragment 1 of 2 of t`.
    pub(crate) fn describe(&self, instrs: &[Instr]) -> String {
        let table = self.table(instrs).unwrap_or("?");
        match self.slice.map(|s| &instrs[s].args[..]) {
            Some([_, Arg::Const(i), Arg::Const(k)]) => format!("fragment {i} of {k} of {table}"),
            _ => table.to_string(),
        }
    }
}

/// A MAL program.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    pub instrs: Vec<Instr>,
    nvars: usize,
}

impl Program {
    pub fn new() -> Program {
        Program::default()
    }

    /// Allocate a fresh variable.
    pub fn var(&mut self) -> VarId {
        self.nvars += 1;
        self.nvars - 1
    }

    pub fn nvars(&self) -> usize {
        self.nvars
    }

    /// Append `results := op(args)` with fresh result vars; returns them.
    pub fn push(&mut self, op: OpCode, args: Vec<Arg>) -> Vec<VarId> {
        let results: Vec<VarId> = (0..op.result_arity()).map(|_| self.var()).collect();
        self.instrs.push(Instr {
            results: results.clone(),
            op,
            args,
        });
        results
    }

    /// Append an `io.result` marking the output variables.
    pub fn push_result(&mut self, vars: &[VarId]) {
        self.instrs.push(Instr {
            results: vec![],
            op: OpCode::Result,
            args: vars.iter().map(|&v| Arg::Var(v)).collect(),
        });
    }

    /// The `(table, column)` of every `sql.bind`, in plan order, as written
    /// (a column bound twice appears twice).
    pub fn bound_columns(&self) -> impl Iterator<Item = (&str, &str)> {
        self.instrs
            .iter()
            .filter_map(|i| match (&i.op, &i.args[..]) {
                (OpCode::Bind, [Arg::Const(Value::Str(t)), Arg::Const(Value::Str(c))]) => {
                    Some((t.as_str(), c.as_str()))
                }
                _ => None,
            })
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in &self.instrs {
            match i.results.len() {
                0 => {}
                1 => write!(f, "x{} := ", i.results[0])?,
                _ => {
                    write!(f, "(")?;
                    for (k, r) in i.results.iter().enumerate() {
                        if k > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "x{r}")?;
                    }
                    write!(f, ") := ")?;
                }
            }
            write!(f, "{}({}", i.op.name(), i.render_args())?;
            if let (_, Param::Incl(lo_incl, hi_incl)) = i.op.sig() {
                write!(f, ", {lo_incl}, {hi_incl}")?;
            }
            writeln!(f, ");")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_render() {
        let mut p = Program::new();
        let [b] = p.push(
            OpCode::Bind,
            vec![
                Arg::Const(Value::Str("people".into())),
                Arg::Const(Value::Str("age".into())),
            ],
        )[..] else {
            panic!()
        };
        let [c] = p.push(
            OpCode::ThetaSelect(CmpOp::Eq),
            vec![Arg::Var(b), Arg::Const(Value::I32(1927))],
        )[..] else {
            panic!()
        };
        p.push_result(&[c]);
        let text = p.to_string();
        assert!(text.contains("x0 := sql.bind(\"people\", \"age\");"));
        assert!(text.contains("x1 := algebra.thetaselect[==](x0, 1927);"));
        assert!(text.contains("io.result(x1);"));
    }

    #[test]
    fn multi_result_instr() {
        let mut p = Program::new();
        let a = p.var();
        let b = p.var();
        let rs = p.push(OpCode::Join, vec![Arg::Var(a), Arg::Var(b)]);
        assert_eq!(rs.len(), 2);
        assert!(p.to_string().contains(") := algebra.join("));
    }

    #[test]
    fn purity() {
        assert!(OpCode::Bind.is_pure());
        assert!(!OpCode::Result.is_pure());
        assert_eq!(OpCode::Result.result_arity(), 0);
        assert_eq!(OpCode::Sort { desc: false }.result_arity(), 2);
    }
}
