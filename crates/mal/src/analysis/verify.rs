//! The MAL plan verifier.
//!
//! Every optimizer module is an independent program→program rewrite, which
//! makes each pass a chance to silently miscompile a plan. The verifier is
//! the safety net: a linear walk over a [`Program`] that checks
//!
//! * **SSA discipline** — every variable is defined exactly once, before
//!   any use, and never used after `language.pass` ends its life;
//! * **arity** — each opcode receives exactly the argument count and binds
//!   exactly the result count its declaration (`OpCode::sig`) states;
//! * **kind** — each argument slot gets the kind of operand the declaration
//!   names (BAT or scalar, and a candidate list, row count or literal where
//!   it says so);
//! * **types** — column types are inferred through selections, joins,
//!   groupings, `batcalc` arithmetic and aggregation, and checked at every
//!   consumer (with a [`Catalog`], `sql.bind` seeds exact column types;
//!   without one, unknown types stay unknown and only contradictions are
//!   reported);
//! * **structure** — the plan ends with a single `io.result` and no
//!   instruction follows it.
//!
//! Errors carry the instruction index and opcode name, so a broken
//! optimizer pass is caught at the pass boundary with an exact location.

use crate::program::{
    Arg, ArgKind, BaseRows, Instr, OpCode, Param, PipelineOut, PipelineSink, PipelineSpec, Program,
    ResultKind, Rule, Sig, VarId,
};
use mammoth_algebra::AggKind;
use mammoth_storage::Catalog;
use mammoth_types::{LogicalType, Value};
use std::fmt;

/// What the verifier statically knows about one MAL variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VarTy {
    /// A BAT; the tail type may be statically unknown (`None`).
    Bat(Option<LogicalType>),
    /// A scalar; the type may be statically unknown (`None`).
    Scalar(Option<LogicalType>),
}

impl VarTy {
    pub fn ty(&self) -> Option<LogicalType> {
        match self {
            VarTy::Bat(t) | VarTy::Scalar(t) => *t,
        }
    }
}

/// The specific well-formedness violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyErrorKind {
    /// A variable id at or beyond the program's declared variable count.
    UnknownVar { var: VarId },
    /// A variable read before any instruction defines it.
    UseBeforeDef { var: VarId },
    /// A variable read after `language.pass` ended its life.
    UseAfterFree { var: VarId, freed_at: usize },
    /// A variable bound as a result twice (the plan is not SSA).
    Redefinition { var: VarId, first_def: usize },
    /// Wrong number of arguments for the opcode.
    BadArgCount { expected: usize, got: usize },
    /// Wrong number of bound results for the opcode.
    BadResultCount { expected: usize, got: usize },
    /// A BAT slot got a scalar or vice versa.
    KindMismatch {
        arg: usize,
        expected: &'static str,
        found: &'static str,
    },
    /// The opcode requires a literal constant in this slot.
    ConstArgExpected { arg: usize },
    /// The opcode requires a variable (not a constant) in this slot.
    VarArgExpected { arg: usize },
    /// Statically known operand types contradict the opcode's typing rule.
    TypeMismatch { arg: usize, detail: String },
    /// A `vector.pipeline` column that is not row-aligned with the column
    /// its first filter scans.
    Unaligned { arg: usize, detail: String },
    /// `sql.bind` names a table the catalog does not have.
    NoSuchTable { table: String },
    /// `sql.bind` names a column the catalog does not have.
    NoSuchColumn { table: String, column: String },
    /// An instruction appears after `io.result` closed the plan.
    CodeAfterResult { result_at: usize },
    /// The plan never reaches an `io.result`.
    MissingResult,
}

/// A verification failure located at an instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Index into [`Program::instrs`]; `None` for whole-program failures.
    pub instr: Option<usize>,
    /// `module.function` name of the offending instruction, when located.
    pub op: Option<String>,
    pub kind: VerifyErrorKind,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.instr, &self.op) {
            (Some(i), Some(op)) => write!(f, "instr {i} ({op}): ")?,
            (Some(i), None) => write!(f, "instr {i}: ")?,
            _ => {}
        }
        match &self.kind {
            VerifyErrorKind::UnknownVar { var } => {
                write!(f, "variable x{var} is outside the program's variable space")
            }
            VerifyErrorKind::UseBeforeDef { var } => {
                write!(f, "use of x{var} before definition")
            }
            VerifyErrorKind::UseAfterFree { var, freed_at } => {
                write!(f, "use of x{var} after language.pass at instr {freed_at}")
            }
            VerifyErrorKind::Redefinition { var, first_def } => {
                write!(f, "x{var} redefined (first defined at instr {first_def})")
            }
            VerifyErrorKind::BadArgCount { expected, got } => {
                write!(f, "expects {expected} argument(s), got {got}")
            }
            VerifyErrorKind::BadResultCount { expected, got } => {
                write!(f, "binds {expected} result(s), got {got}")
            }
            VerifyErrorKind::KindMismatch {
                arg,
                expected,
                found,
            } => write!(f, "argument {arg}: expected a {expected}, found a {found}"),
            VerifyErrorKind::ConstArgExpected { arg } => {
                write!(f, "argument {arg}: must be a literal constant")
            }
            VerifyErrorKind::VarArgExpected { arg } => {
                write!(f, "argument {arg}: must be a variable")
            }
            VerifyErrorKind::TypeMismatch { arg, detail }
            | VerifyErrorKind::Unaligned { arg, detail } => {
                write!(f, "argument {arg}: {detail}")
            }
            VerifyErrorKind::NoSuchTable { table } => {
                write!(f, "no such table: {table}")
            }
            VerifyErrorKind::NoSuchColumn { table, column } => {
                write!(f, "no such column: {table}.{column}")
            }
            VerifyErrorKind::CodeAfterResult { result_at } => {
                write!(f, "instruction after io.result (at instr {result_at})")
            }
            VerifyErrorKind::MissingResult => {
                write!(f, "plan does not end with io.result")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// Verify structural well-formedness without a catalog: `sql.bind` results
/// get unknown tail types, and only statically contradictory types error.
pub fn verify(prog: &Program) -> Result<(), VerifyError> {
    Verifier { catalog: None }.check(prog)
}

/// Verify against a catalog: `sql.bind` targets must exist, and their
/// column types seed exact type inference through the whole plan.
pub fn verify_with_catalog(prog: &Program, catalog: &Catalog) -> Result<(), VerifyError> {
    Verifier {
        catalog: Some(catalog),
    }
    .check(prog)
}

/// A non-fatal observation about a well-formed plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lint {
    /// A pure instruction binds a result no later instruction reads.
    UnusedResult { instr: usize, var: VarId },
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Lint::UnusedResult { instr, var } => {
                write!(f, "instr {instr}: result x{var} is never used")
            }
        }
    }
}

/// Report lints over a (presumed well-formed) program.
pub fn lint(prog: &Program) -> Vec<Lint> {
    let mut used = vec![false; prog.nvars()];
    for i in &prog.instrs {
        for a in &i.args {
            if let Arg::Var(v) = a {
                if let Some(u) = used.get_mut(*v) {
                    *u = true;
                }
            }
        }
    }
    let mut out = Vec::new();
    for (idx, i) in prog.instrs.iter().enumerate() {
        if !i.op.is_pure() {
            continue;
        }
        for &r in &i.results {
            if !used.get(r).copied().unwrap_or(false) {
                out.push(Lint::UnusedResult { instr: idx, var: r });
            }
        }
    }
    out
}

#[derive(Debug, Clone, Copy)]
enum VarState {
    Undefined,
    Defined {
        at: usize,
        ty: VarTy,
        /// The base rows the variable holds, when it is a bound column or
        /// a mitosis fragment of one.
        base: Option<BaseRows>,
    },
    Freed {
        at: usize,
    },
}

struct Verifier<'a> {
    catalog: Option<&'a Catalog>,
}

/// A failure of instruction `idx`.
fn error(idx: usize, instr: &Instr, kind: VerifyErrorKind) -> VerifyError {
    VerifyError {
        instr: Some(idx),
        op: Some(instr.op.name()),
        kind,
    }
}

impl Verifier<'_> {
    fn check(&self, prog: &Program) -> Result<(), VerifyError> {
        let mut state = vec![VarState::Undefined; prog.nvars()];
        let mut result_at: Option<usize> = None;

        for (idx, instr) in prog.instrs.iter().enumerate() {
            let err = |kind| error(idx, instr, kind);
            if let Some(r) = result_at {
                return Err(err(VerifyErrorKind::CodeAfterResult { result_at: r }));
            }
            if instr.results.len() != instr.op.result_arity() {
                return Err(err(VerifyErrorKind::BadResultCount {
                    expected: instr.op.result_arity(),
                    got: instr.results.len(),
                }));
            }

            let (sig, param) = instr.op.sig();
            let ty = match &instr.op {
                OpCode::Pipeline(spec) => {
                    At::new(idx, instr, &state).check_pipeline(&prog.instrs, spec)?
                }
                _ => self.check_instr(&At::new(idx, instr, &state), sig, param)?,
            };
            let base = BaseRows::of(idx, instr, |v| match state.get(v) {
                Some(VarState::Defined { base, .. }) => *base,
                _ => None,
            });

            if instr.op == OpCode::Free {
                if let Some(Arg::Var(v)) = instr.args.first() {
                    state[*v] = VarState::Freed { at: idx };
                }
            }
            for (k, &rv) in instr.results.iter().enumerate() {
                let ty = match (&instr.op, sig.results.get(k)) {
                    (OpCode::Pipeline(spec), _) => {
                        At::new(idx, instr, &state).pipeline_result(spec, k)?
                    }
                    (_, Some(ResultKind::Oids)) => VarTy::Bat(Some(LogicalType::Oid)),
                    (_, Some(ResultKind::Bat)) => VarTy::Bat(ty),
                    (_, Some(ResultKind::Scalar)) => VarTy::Scalar(ty),
                    (_, None) => unreachable!("the result count was checked"),
                };
                match state.get(rv) {
                    None => return Err(err(VerifyErrorKind::UnknownVar { var: rv })),
                    // a freed slot may not be re-bound either: the plan
                    // would no longer be SSA
                    Some(
                        VarState::Defined { at: first_def, .. } | VarState::Freed { at: first_def },
                    ) => {
                        return Err(err(VerifyErrorKind::Redefinition {
                            var: rv,
                            first_def: *first_def,
                        }))
                    }
                    Some(VarState::Undefined) => {
                        state[rv] = VarState::Defined { at: idx, ty, base }
                    }
                }
            }
            if instr.op == OpCode::Result {
                result_at = Some(idx);
            }
        }

        match result_at {
            Some(_) => Ok(()),
            None => Err(VerifyError {
                instr: None,
                op: None,
                kind: VerifyErrorKind::MissingResult,
            }),
        }
    }

    /// Check one instruction against its declaration: the argument count,
    /// each argument's kind, then the type rule; return the type the rule
    /// gives its results.
    fn check_instr(
        &self,
        at: &At,
        sig: &Sig,
        param: Param,
    ) -> Result<Option<LogicalType>, VerifyError> {
        let instr = at.instr;
        let n = instr.args.len();
        if !sig.takes(n) {
            return Err(at.error(VerifyErrorKind::BadArgCount {
                expected: sig.args.len(),
                got: n,
            }));
        }
        // each argument's kind, then what the type rule makes of its type
        let (mut first, mut out, mut known) = (None, None, true);
        for k in 0..n {
            let kind = sig.arg(n, k);
            let t = at.arg(k, kind)?;
            match sig.rule {
                Rule::Compare if k > 0 && kind != ArgKind::Cand => at.comparable(k, first, t)?,
                Rule::Like(j) if j == k => out = t,
                Rule::Widen => {
                    at.numeric(k, t)?;
                    match (out, t) {
                        (Some(a), Some(b)) => out = LogicalType::widen(a, b),
                        (None, Some(b)) => out = Some(b),
                        _ => known = false,
                    }
                }
                Rule::Same => match (out, t) {
                    (Some(a), Some(b)) if a != b => {
                        let (a, b) = (a.name(), b.name());
                        let detail = || format!("cannot pack a {b} fragment with {a} fragments");
                        return Err(at.mismatch(k, detail));
                    }
                    (None, Some(b)) => out = Some(b),
                    _ => {}
                },
                _ => {}
            }
            if k == 0 {
                first = t;
            }
        }

        Ok(match sig.rule {
            Rule::Catalog => {
                let [Arg::Const(Value::Str(table)), Arg::Const(Value::Str(column))] =
                    &instr.args[..]
                else {
                    unreachable!("two names, checked above")
                };
                let Some(cat) = self.catalog else {
                    return Ok(None);
                };
                let t = cat.table(table).map_err(|_| {
                    at.error(VerifyErrorKind::NoSuchTable {
                        table: table.to_string(),
                    })
                })?;
                let (_, col) = t.schema.column(column).map_err(|_| {
                    at.error(VerifyErrorKind::NoSuchColumn {
                        table: table.to_string(),
                        column: column.to_string(),
                    })
                })?;
                Some(col.ty)
            }
            Rule::Compare | Rule::Untyped | Rule::Pipeline => None,
            Rule::Like(_) | Rule::Same => out,
            Rule::Widen => out.filter(|_| known),
            Rule::Fragment => {
                // 0 <= i < k, so a malformed mitosis rewrite is caught
                // statically, not at run time
                let coord = |k: usize| match &instr.args[k] {
                    Arg::Const(c) => c.as_i64().expect("an integer, checked above"),
                    _ => unreachable!("a literal, checked above"),
                };
                let (i, k) = (coord(1), coord(2));
                if k < 1 || i < 0 || i >= k {
                    return Err(at.mismatch(1, || format!("fragment {i} of {k} is out of range")));
                }
                first
            }
            Rule::Agg => {
                let Param::Agg(kind) = param else {
                    unreachable!("an aggregate's parameter is its kind")
                };
                at.aggregable(0, kind, first)?;
                agg_result_ty(kind, first)
            }
            Rule::Of(t) => Some(t),
        })
    }
}

/// One instruction under check: where it is, and what is known of the
/// variables it reads.
struct At<'p> {
    idx: usize,
    instr: &'p Instr,
    state: &'p [VarState],
}

impl<'p> At<'p> {
    fn new(idx: usize, instr: &'p Instr, state: &'p [VarState]) -> At<'p> {
        At { idx, instr, state }
    }

    #[cold]
    fn error(&self, kind: VerifyErrorKind) -> VerifyError {
        error(self.idx, self.instr, kind)
    }

    /// A [`VerifyErrorKind::TypeMismatch`]; its detail is only formatted
    /// for a plan that fails, which keeps the checks that pass short.
    #[cold]
    #[inline(never)]
    fn mismatch(&self, arg: usize, detail: impl FnOnce() -> String) -> VerifyError {
        self.error(VerifyErrorKind::TypeMismatch {
            arg,
            detail: detail(),
        })
    }

    /// `vector.pipeline`: the arity its shape fixes; fixed-width column
    /// BATs, all row-aligned with the column the first filter scans; bound
    /// scalars comparable with their filter's column; results of the one
    /// kind the sink produces — aggregates (over aggregable inputs) or
    /// columns, never both; a top-N sink's integer row count; and the
    /// result types the unfused `aggr.*` / `aggr.sub*` /
    /// `algebra.projection` / `algebra.firstn` instructions would have
    /// bound.
    fn check_pipeline(
        &self,
        instrs: &[Instr],
        spec: &PipelineSpec,
    ) -> Result<Option<LogicalType>, VerifyError> {
        let instr = self.instr;
        let shape = |detail: &'static str| self.mismatch(0, || detail.into());
        if spec.filters.is_empty() || spec.outs.is_empty() {
            return Err(shape("a pipeline needs a filter and a result"));
        }
        let grouped = matches!(spec.sink, PipelineSink::Group(_));
        let columns = match spec.sink {
            PipelineSink::Rows => spec.emits_columns(),
            PipelineSink::Group(_) => false,
            PipelineSink::Top { .. } => true,
        };
        for out in &spec.outs {
            match out {
                PipelineOut::Key if !grouped => {
                    return Err(shape("a key result needs a grouped sink"))
                }
                PipelineOut::Col(_) if !columns => {
                    return Err(shape(match grouped {
                        true => "a grouped sink binds keys and aggregates, not columns",
                        false => "column and aggregate results do not mix in one sink",
                    }))
                }
                PipelineOut::Key | PipelineOut::Count | PipelineOut::Agg(..) if columns => {
                    return Err(shape(match spec.sink {
                        PipelineSink::Top { .. } => "a top-N sink binds columns, not aggregates",
                        _ => "column and aggregate results do not mix in one sink",
                    }))
                }
                _ => {}
            }
        }
        if instr.args.len() != spec.nargs() {
            return Err(self.error(VerifyErrorKind::BadArgCount {
                expected: spec.nargs(),
                got: instr.args.len(),
            }));
        }

        let ncols = spec.ncols();
        let driver = spec.filters[0].col;
        let base_of = |k: usize| match &instr.args[k] {
            Arg::Var(v) => match self.state.get(*v) {
                Some(VarState::Defined { base, .. }) => *base,
                _ => None,
            },
            _ => None,
        };
        for k in 0..ncols {
            if self.arg(k, ArgKind::Bat)? == Some(LogicalType::Str) {
                return Err(self.mismatch(k, || "expected a fixed-width column, found str".into()));
            }
            let detail = match (base_of(k), base_of(driver)) {
                (Some(col), Some(scanned)) if col.covers(&scanned, instrs) => continue,
                (Some(col), Some(scanned)) => format!(
                    "rows of {} do not cover the rows of {} the first filter scans",
                    col.describe(instrs),
                    scanned.describe(instrs)
                ),
                _ => "expected a bound base column (sql.bind, or an algebra.slice of one)".into(),
            };
            return Err(self.error(VerifyErrorKind::Unaligned { arg: k, detail }));
        }
        let bounds = spec
            .filters_with_bounds(&instr.args)
            .expect("the argument count was checked above");
        let mut k = ncols;
        for (filter, bounds) in bounds {
            let col = self.arg(filter.col, ArgKind::Bat)?;
            for _ in bounds {
                self.comparable(k, col, self.arg(k, ArgKind::Scalar)?)?;
                k += 1;
            }
        }
        for out in &spec.outs {
            if let PipelineOut::Agg(kind, c) = *out {
                self.aggregable(c, kind, self.arg(c, ArgKind::Bat)?)?;
            }
        }
        if matches!(spec.sink, PipelineSink::Top { .. }) {
            self.arg(k, ArgKind::RowCount)?;
            if matches!(&instr.args[k], Arg::Const(n) if n.as_i64().is_some_and(|n| n < 0)) {
                return Err(self.mismatch(k, || "row count must not be negative".into()));
            }
        }
        Ok(None)
    }

    /// The type of result `k` of a pipeline [`At::check_pipeline`]
    /// accepted.
    fn pipeline_result(&self, spec: &PipelineSpec, k: usize) -> Result<VarTy, VerifyError> {
        let value = |t| match spec.sink {
            PipelineSink::Rows => VarTy::Scalar(t),
            PipelineSink::Group(_) | PipelineSink::Top { .. } => VarTy::Bat(t),
        };
        let column = |c| self.arg(c, ArgKind::Bat);
        Ok(match (spec.outs[k], spec.sink) {
            (PipelineOut::Key, PipelineSink::Group(key)) => VarTy::Bat(column(key)?),
            (PipelineOut::Key, _) => unreachable!("a key without a group was rejected"),
            (PipelineOut::Count, _) => value(Some(LogicalType::I64)),
            (PipelineOut::Agg(kind, c), _) => value(agg_result_ty(kind, column(c)?)),
            (PipelineOut::Col(c), _) => VarTy::Bat(column(c)?),
        })
    }

    /// Resolve an argument to the verifier's view of its type.
    fn arg_any(&self, argno: usize) -> Result<VarTy, VerifyError> {
        let v = match &self.instr.args[argno] {
            Arg::Const(c) => return Ok(VarTy::Scalar(c.logical_type())),
            Arg::Var(v) => *v,
            // a parameter slot is a scalar of (statically) unknown type;
            // EXECUTE substitutes a concrete constant before execution
            Arg::Param(_) => return Ok(VarTy::Scalar(None)),
        };
        let err = |kind| Err(self.error(kind));
        match self.state.get(v) {
            None => err(VerifyErrorKind::UnknownVar { var: v }),
            Some(VarState::Undefined) => err(VerifyErrorKind::UseBeforeDef { var: v }),
            Some(VarState::Freed { at }) => err(VerifyErrorKind::UseAfterFree {
                var: v,
                freed_at: *at,
            }),
            Some(VarState::Defined { ty, .. }) => Ok(*ty),
        }
    }

    /// Argument `argno` must be of `kind`; returns its (possibly unknown)
    /// type.
    fn arg(&self, argno: usize, kind: ArgKind) -> Result<Option<LogicalType>, VerifyError> {
        let integer = |t| {
            matches!(
                t,
                Some(LogicalType::I8 | LogicalType::I16 | LogicalType::I32 | LogicalType::I64)
            )
        };
        let arg = &self.instr.args[argno];
        let mismatch = |detail: &dyn Fn() -> String| Err(self.mismatch(argno, detail));
        let misfit = |expected, found| {
            Err(self.error(VerifyErrorKind::KindMismatch {
                arg: argno,
                expected,
                found,
            }))
        };
        match (kind, arg) {
            (ArgKind::Name, Arg::Const(Value::Str(_))) => Ok(Some(LogicalType::Str)),
            (ArgKind::Name, Arg::Const(c)) => {
                mismatch(&|| format!("expected a string constant, found {c:?}"))
            }
            (ArgKind::Frag, Arg::Const(c)) if integer(c.logical_type()) => Ok(c.logical_type()),
            (ArgKind::Frag, Arg::Const(c)) => mismatch(&|| {
                format!("fragment coordinate must be an integer constant, found {c:?}")
            }),
            (ArgKind::Name | ArgKind::Frag, _) => {
                Err(self.error(VerifyErrorKind::ConstArgExpected { arg: argno }))
            }
            (ArgKind::Claims, Arg::Const(Value::Str(s)))
                if crate::analysis::props::parse_claims(s).is_some() =>
            {
                Ok(Some(LogicalType::Str))
            }
            (ArgKind::Claims, _) => mismatch(&|| {
                "expected a string constant of property claims (sorted, revsorted, key, nonil)"
                    .into()
            }),
            (ArgKind::Var, Arg::Const(_) | Arg::Param(_)) => {
                Err(self.error(VerifyErrorKind::VarArgExpected { arg: argno }))
            }
            (ArgKind::Operand, Arg::Const(Value::Null)) => {
                mismatch(&|| "batcalc operand must not be the NULL literal".into())
            }
            _ => match (kind, self.arg_any(argno)?) {
                (ArgKind::Bat | ArgKind::Cand, VarTy::Scalar(_)) => misfit("bat", "scalar"),
                (ArgKind::Scalar | ArgKind::RowCount, VarTy::Bat(_)) => misfit("scalar", "bat"),
                (ArgKind::Cand, VarTy::Bat(Some(t))) if t != LogicalType::Oid => {
                    mismatch(&|| format!("expected a candidate (oid) bat, found {}", t.name()))
                }
                (ArgKind::RowCount, VarTy::Scalar(Some(t))) if !integer(Some(t)) => {
                    mismatch(&|| format!("expected an integer, found {}", t.name()))
                }
                (ArgKind::RowCount, VarTy::Scalar(None))
                    if matches!(arg, Arg::Const(Value::Null)) =>
                {
                    mismatch(&|| "expected an integer, found NULL".into())
                }
                (_, ty) => Ok(ty.ty()),
            },
        }
    }

    /// Two operand types that are compared or joined must agree: identical,
    /// or both from the numeric/oid family. Unknown types pass.
    fn comparable(
        &self,
        argno: usize,
        a: Option<LogicalType>,
        b: Option<LogicalType>,
    ) -> Result<(), VerifyError> {
        let num_like =
            |t: LogicalType| t.is_numeric() || t == LogicalType::Oid || t == LogicalType::Bool;
        match (a, b) {
            (Some(a), Some(b)) if a != b && !(num_like(a) && num_like(b)) => {
                let detail = || format!("cannot compare {} with {}", a.name(), b.name());
                Err(self.mismatch(argno, detail))
            }
            _ => Ok(()),
        }
    }

    /// SUM/AVG/MIN/MAX need numeric input; COUNT takes anything.
    fn aggregable(
        &self,
        argno: usize,
        kind: AggKind,
        t: Option<LogicalType>,
    ) -> Result<(), VerifyError> {
        match kind {
            AggKind::Count => Ok(()),
            _ => self.numeric(argno, t),
        }
    }

    fn numeric(&self, argno: usize, t: Option<LogicalType>) -> Result<(), VerifyError> {
        match t {
            Some(t) if !t.is_numeric() && t != LogicalType::Oid => {
                let detail = || format!("expected a numeric operand, found {}", t.name());
                Err(self.mismatch(argno, detail))
            }
            _ => Ok(()),
        }
    }
}

/// Result type of an aggregate: COUNT yields i64, AVG f64, and SUM/MIN/MAX
/// keep f64 and widen every integer input to i64 (matching the BAT algebra's
/// accumulator).
fn agg_result_ty(kind: AggKind, input: Option<LogicalType>) -> Option<LogicalType> {
    match kind {
        AggKind::Count => Some(LogicalType::I64),
        AggKind::Avg => Some(LogicalType::F64),
        AggKind::Sum | AggKind::Min | AggKind::Max => input.map(|t| {
            if t == LogicalType::F64 {
                LogicalType::F64
            } else {
                LogicalType::I64
            }
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Program;
    use mammoth_algebra::CmpOp;
    use mammoth_storage::Table;
    use mammoth_types::{ColumnDef, TableSchema};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let t = Table::new(TableSchema::new(
            "people",
            vec![
                ColumnDef::new("name", LogicalType::Str),
                ColumnDef::new("age", LogicalType::I32),
            ],
        ))
        .unwrap();
        cat.create_table(t).unwrap();
        cat
    }

    fn bind(p: &mut Program, t: &str, c: &str) -> VarId {
        p.push(
            OpCode::Bind,
            vec![
                Arg::Const(Value::Str(t.into())),
                Arg::Const(Value::Str(c.into())),
            ],
        )[0]
    }

    #[test]
    fn accepts_a_well_formed_plan() {
        let mut p = Program::new();
        let age = bind(&mut p, "people", "age");
        let c = p.push(
            OpCode::ThetaSelect(CmpOp::Eq),
            vec![Arg::Var(age), Arg::Const(Value::I32(1927))],
        )[0];
        let name = bind(&mut p, "people", "name");
        let out = p.push(OpCode::Projection, vec![Arg::Var(c), Arg::Var(name)])[0];
        p.push_result(&[out]);
        verify(&p).unwrap();
        verify_with_catalog(&p, &catalog()).unwrap();
    }

    #[test]
    fn rejects_use_before_def() {
        let mut p = Program::new();
        let ghost = p.var();
        let c = p.push(OpCode::Mirror, vec![Arg::Var(ghost)])[0];
        p.push_result(&[c]);
        let e = verify(&p).unwrap_err();
        assert_eq!(e.instr, Some(0));
        assert!(matches!(e.kind, VerifyErrorKind::UseBeforeDef { var } if var == ghost));
    }

    #[test]
    fn rejects_redefinition() {
        let mut p = Program::new();
        let a = bind(&mut p, "t", "a");
        p.instrs.push(Instr {
            results: vec![a],
            op: OpCode::Mirror,
            args: vec![Arg::Var(a)],
        });
        p.push_result(&[a]);
        let e = verify(&p).unwrap_err();
        assert!(matches!(
            e.kind,
            VerifyErrorKind::Redefinition { var, first_def: 0 } if var == a
        ));
    }

    #[test]
    fn rejects_bad_arity() {
        let mut p = Program::new();
        let a = bind(&mut p, "t", "a");
        let r = p.var();
        p.instrs.push(Instr {
            results: vec![r],
            op: OpCode::Projection,
            args: vec![Arg::Var(a)], // missing the values bat
        });
        let e = verify(&p).unwrap_err();
        assert_eq!(e.instr, Some(1));
        assert!(matches!(
            e.kind,
            VerifyErrorKind::BadArgCount {
                expected: 2,
                got: 1
            }
        ));

        // result-arity violation: join binding one var
        let mut p = Program::new();
        let a = bind(&mut p, "t", "a");
        let b = bind(&mut p, "t", "b");
        let r = p.var();
        p.instrs.push(Instr {
            results: vec![r],
            op: OpCode::Join,
            args: vec![Arg::Var(a), Arg::Var(b)],
        });
        let e = verify(&p).unwrap_err();
        assert!(matches!(
            e.kind,
            VerifyErrorKind::BadResultCount {
                expected: 2,
                got: 1
            }
        ));
    }

    #[test]
    fn rejects_kind_mismatch() {
        let mut p = Program::new();
        let a = bind(&mut p, "t", "a");
        let n = p.push(OpCode::Count, vec![Arg::Var(a)])[0]; // scalar
        let m = p.push(OpCode::Mirror, vec![Arg::Var(n)])[0]; // needs a bat
        p.push_result(&[m]);
        let e = verify(&p).unwrap_err();
        assert_eq!(e.instr, Some(2));
        assert!(matches!(
            e.kind,
            VerifyErrorKind::KindMismatch {
                arg: 0,
                expected: "bat",
                found: "scalar"
            }
        ));

        // bat where a scalar belongs
        let mut p = Program::new();
        let a = bind(&mut p, "t", "a");
        let s = p.push(
            OpCode::ThetaSelect(CmpOp::Eq),
            vec![Arg::Var(a), Arg::Var(a)],
        )[0];
        p.push_result(&[s]);
        let e = verify(&p).unwrap_err();
        assert!(matches!(
            e.kind,
            VerifyErrorKind::KindMismatch {
                arg: 1,
                expected: "scalar",
                found: "bat"
            }
        ));
    }

    #[test]
    fn rejects_type_mismatch_through_inference() {
        // comparing a string column with an integer constant
        let mut p = Program::new();
        let name = bind(&mut p, "people", "name");
        let c = p.push(
            OpCode::ThetaSelect(CmpOp::Eq),
            vec![Arg::Var(name), Arg::Const(Value::I32(7))],
        )[0];
        p.push_result(&[c]);
        verify(&p).unwrap(); // without a catalog the column type is unknown
        let e = verify_with_catalog(&p, &catalog()).unwrap_err();
        assert_eq!(e.instr, Some(1));
        assert!(matches!(
            e.kind,
            VerifyErrorKind::TypeMismatch { arg: 1, .. }
        ));

        // summing a string column
        let mut p = Program::new();
        let name = bind(&mut p, "people", "name");
        let s = p.push(OpCode::Aggr(AggKind::Sum), vec![Arg::Var(name)])[0];
        p.push_result(&[s]);
        let e = verify_with_catalog(&p, &catalog()).unwrap_err();
        assert!(matches!(e.kind, VerifyErrorKind::TypeMismatch { .. }));

        // joining a string column against an int column
        let mut p = Program::new();
        let name = bind(&mut p, "people", "name");
        let age = bind(&mut p, "people", "age");
        let j = p.push(OpCode::Join, vec![Arg::Var(name), Arg::Var(age)]);
        p.push_result(&[j[0]]);
        let e = verify_with_catalog(&p, &catalog()).unwrap_err();
        assert!(matches!(e.kind, VerifyErrorKind::TypeMismatch { .. }));

        // a value bat where a candidate list belongs
        let mut p = Program::new();
        let name = bind(&mut p, "people", "name");
        let age = bind(&mut p, "people", "age");
        let f = p.push(OpCode::Projection, vec![Arg::Var(name), Arg::Var(age)])[0];
        p.push_result(&[f]);
        let e = verify_with_catalog(&p, &catalog()).unwrap_err();
        assert!(matches!(
            e.kind,
            VerifyErrorKind::TypeMismatch { arg: 0, .. }
        ));
    }

    #[test]
    fn types_flow_through_joins_and_aggregates() {
        // join two int columns, fetch through the index, sum: all legal
        let mut p = Program::new();
        let a = bind(&mut p, "people", "age");
        let b = bind(&mut p, "people", "age");
        let j = p.push(OpCode::Join, vec![Arg::Var(a), Arg::Var(b)]);
        let f = p.push(OpCode::Projection, vec![Arg::Var(j[0]), Arg::Var(a)])[0];
        let s = p.push(OpCode::Aggr(AggKind::Sum), vec![Arg::Var(f)])[0];
        p.push_result(&[s]);
        verify_with_catalog(&p, &catalog()).unwrap();
    }

    #[test]
    fn rejects_code_after_result_and_missing_result() {
        let mut p = Program::new();
        let a = bind(&mut p, "t", "a");
        p.push_result(&[a]);
        bind(&mut p, "t", "b");
        let e = verify(&p).unwrap_err();
        assert_eq!(e.instr, Some(2));
        assert!(matches!(
            e.kind,
            VerifyErrorKind::CodeAfterResult { result_at: 1 }
        ));

        let mut p = Program::new();
        bind(&mut p, "t", "a");
        let e = verify(&p).unwrap_err();
        assert_eq!(e.instr, None);
        assert!(matches!(e.kind, VerifyErrorKind::MissingResult));
    }

    #[test]
    fn rejects_use_after_free() {
        let mut p = Program::new();
        let a = bind(&mut p, "t", "a");
        p.push(OpCode::Free, vec![Arg::Var(a)]);
        let m = p.push(OpCode::Mirror, vec![Arg::Var(a)])[0];
        p.push_result(&[m]);
        let e = verify(&p).unwrap_err();
        assert_eq!(e.instr, Some(2));
        assert!(matches!(
            e.kind,
            VerifyErrorKind::UseAfterFree { var, freed_at: 1 } if var == a
        ));
    }

    #[test]
    fn rejects_unknown_binds_with_catalog() {
        let mut p = Program::new();
        let a = bind(&mut p, "nope", "x");
        p.push_result(&[a]);
        let e = verify_with_catalog(&p, &catalog()).unwrap_err();
        assert!(matches!(e.kind, VerifyErrorKind::NoSuchTable { .. }));

        let mut p = Program::new();
        let a = bind(&mut p, "people", "height");
        p.push_result(&[a]);
        let e = verify_with_catalog(&p, &catalog()).unwrap_err();
        assert!(matches!(e.kind, VerifyErrorKind::NoSuchColumn { .. }));
    }

    #[test]
    fn error_display_carries_location() {
        let mut p = Program::new();
        let ghost = p.var();
        p.push(OpCode::Count, vec![Arg::Var(ghost)]);
        let e = verify(&p).unwrap_err();
        let text = e.to_string();
        assert!(text.contains("instr 0"), "{text}");
        assert!(text.contains("aggr.count"), "{text}");
        assert!(text.contains("x0"), "{text}");
    }

    /// The pipeline instruction's signature: the arity its shape fixes,
    /// column BATs of fixed width, bounds comparable with their filter's
    /// column, numeric aggregates, a key only under a group, and every
    /// column the same rows of one table as the first filter scans.
    #[test]
    fn checks_the_pipeline_signature() {
        use crate::parser::parse_program;
        let binds =
            "age := sql.bind(\"people\", \"age\");\nname := sql.bind(\"people\", \"name\");\n";
        let check = |body: &str| {
            let p =
                parse_program(&format!("{binds}{body}")).unwrap_or_else(|e| panic!("{body}: {e}"));
            verify_with_catalog(&p, &catalog())
        };
        check("(n, s) := vector.pipeline[<@0; count, sum@0](age, 1950);\nio.result(n, s);")
            .unwrap();
        check(
            "(k, n) := vector.pipeline[>=<@0; group@0: key, count](age, 1900, nil);\nio.result(k, n);",
        )
        .unwrap();
        // results type as the chain's would: a grouped sum of i32 is an i64
        // BAT, so a string comparison against it is refused downstream
        let e = check(
            "(k, s) := vector.pipeline[<@0; group@0: key, sum@0](age, 1950);
             c := algebra.thetaselect[==](s, \"x\");\nio.result(c);",
        )
        .unwrap_err();
        assert_eq!(e.instr, Some(3));
        // emitted columns are BATs of their column's type; so are a top-N's,
        // whose row count may be a parameter
        check("a := vector.pipeline[<@0; col@0](age, 1950);\ns := aggr.sum(a);\nio.result(s);")
            .unwrap();
        check("a := vector.pipeline[<@0; top.desc@0: col@0](age, 1950, ?0);\nio.result(a);")
            .unwrap();
        let e = check(
            "a := vector.pipeline[<@0; top@0: col@0](age, 1950, 3);
             c := algebra.thetaselect[==](a, \"x\");\nio.result(c);",
        )
        .unwrap_err();
        assert_eq!(e.instr, Some(3));

        let kind_of = |body: &str| check(body).unwrap_err().kind;
        type Expect = fn(&VerifyErrorKind) -> bool;
        let cases: [(&str, Expect); 16] = [
            // a bound short, a bound too many
            ("n := vector.pipeline[>=<@0; count](age, 1900);", |k| {
                matches!(
                    k,
                    VerifyErrorKind::BadArgCount {
                        expected: 3,
                        got: 2
                    }
                )
            }),
            ("n := vector.pipeline[<@0; count](age, 1900, 1950);", |k| {
                matches!(
                    k,
                    VerifyErrorKind::BadArgCount {
                        expected: 2,
                        got: 3
                    }
                )
            }),
            // a scalar where a column goes, a BAT where a bound goes
            (
                "m := aggr.max(age);\nn := vector.pipeline[<@0; count](m, 5);",
                |k| matches!(k, VerifyErrorKind::KindMismatch { arg: 0, .. }),
            ),
            ("n := vector.pipeline[<@0; count](age, age);", |k| {
                matches!(k, VerifyErrorKind::KindMismatch { arg: 1, .. })
            }),
            // a string column; a string bound on an integer column
            (
                "n := vector.pipeline[<@0; count_nonnil@1](age, name, 5);",
                |k| matches!(k, VerifyErrorKind::TypeMismatch { arg: 1, .. }),
            ),
            ("n := vector.pipeline[<@0; count](age, \"x\");", |k| {
                matches!(k, VerifyErrorKind::TypeMismatch { arg: 1, .. })
            }),
            // a key without a grouping
            ("k := vector.pipeline[<@0; key](age, 5);", |k| {
                matches!(k, VerifyErrorKind::TypeMismatch { .. })
            }),
            // a column that is not a base column at all
            (
                "m := bat.mirror(age);\nn := vector.pipeline[<@0; sum@1](age, m, 5);",
                |k| matches!(k, VerifyErrorKind::Unaligned { arg: 1, .. }),
            ),
            // a sink of two kinds: a column beside an aggregate, either way
            // round, in a grouping, and an aggregate in a top-N
            (
                "(a, n) := vector.pipeline[<@0; col@0, count](age, 5);",
                |k| matches!(k, VerifyErrorKind::TypeMismatch { arg: 0, .. }),
            ),
            (
                "(n, a) := vector.pipeline[<@0; sum@0, col@0](age, 5);",
                |k| matches!(k, VerifyErrorKind::TypeMismatch { arg: 0, .. }),
            ),
            (
                "(k, a) := vector.pipeline[<@0; group@0: key, col@0](age, 5);",
                |k| matches!(k, VerifyErrorKind::TypeMismatch { arg: 0, .. }),
            ),
            (
                "(a, n) := vector.pipeline[<@0; top@0: col@0, count](age, 5, 3);",
                |k| matches!(k, VerifyErrorKind::TypeMismatch { arg: 0, .. }),
            ),
            // a string column emitted, or as the top-N key
            ("n := vector.pipeline[<@0; col@1](age, name, 5);", |k| {
                matches!(k, VerifyErrorKind::TypeMismatch { arg: 1, .. })
            }),
            (
                "n := vector.pipeline[<@0; top@1: col@0](age, name, 5, 3);",
                |k| matches!(k, VerifyErrorKind::TypeMismatch { arg: 1, .. }),
            ),
            // a top-N's count: missing, a BAT, a float, negative
            ("a := vector.pipeline[<@0; top@0: col@0](age, 5);", |k| {
                matches!(
                    k,
                    VerifyErrorKind::BadArgCount {
                        expected: 3,
                        got: 2
                    }
                )
            }),
            (
                "a := vector.pipeline[<@0; top@0: col@0](age, 5, age);",
                |k| matches!(k, VerifyErrorKind::KindMismatch { arg: 2, .. }),
            ),
        ];
        for (n, detail) in [("1.5", "integer"), ("-1", "negative"), ("nil", "NULL")] {
            let kind = kind_of(&format!(
                "a := vector.pipeline[<@0; top@0: col@0](age, 5, {n});\nio.result(a);"
            ));
            assert!(
                matches!(&kind, VerifyErrorKind::TypeMismatch { arg: 2, detail: d } if d.contains(detail)),
                "{n}: {kind:?}"
            );
        }
        for (body, expected) in cases {
            let kind = kind_of(&format!("{body}\nio.result(age);"));
            assert!(expected(&kind), "{body}: {kind:?}");
        }

        // alignment needs no catalog: the binds name their tables, the
        // slices their fragments
        let unaligned = |body: &str| {
            let src = format!(
                "a := sql.bind(\"t\", \"a\");\nb := sql.bind(\"t\", \"b\");\n{body}\nio.result(n);"
            );
            verify(&parse_program(&src).unwrap()).map_err(|e| e.kind)
        };
        let frags = "a0 := algebra.slice(a, 0, 2);\nb0 := algebra.slice(b, 0, 2);\nb1 := algebra.slice(b, 1, 2);\n";
        unaligned(&format!(
            "{frags}n := vector.pipeline[<@0, <@1; sum@2](a0, b0, b, 5, 6);"
        ))
        .unwrap();
        for body in [
            // another fragment; the whole column, when a fragment is scanned second
            format!("{frags}n := vector.pipeline[<@0; sum@1](a0, b1, 5);"),
            format!("{frags}n := vector.pipeline[<@0, <@1; count](a, b0, 5, 6);"),
            // another table
            "w := sql.bind(\"u\", \"w\");\nn := vector.pipeline[<@0; sum@1](a, w, 5);".to_string(),
        ] {
            let kind = unaligned(&body).unwrap_err();
            assert!(
                matches!(kind, VerifyErrorKind::Unaligned { arg: 1, .. }),
                "{body}: {kind:?}"
            );
        }
    }

    #[test]
    fn lints_unused_results() {
        let mut p = Program::new();
        let a = bind(&mut p, "t", "a");
        let rs = p.push(OpCode::Sort { desc: false }, vec![Arg::Var(a)]);
        p.push_result(&[rs[0]]);
        let lints = lint(&p);
        assert_eq!(
            lints,
            vec![Lint::UnusedResult {
                instr: 1,
                var: rs[1]
            }]
        );
    }
}
