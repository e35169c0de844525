//! The MAL plan verifier.
//!
//! Every optimizer module is an independent program→program rewrite, which
//! makes each pass a chance to silently miscompile a plan. The verifier is
//! the safety net: a linear walk over a [`Program`] that checks
//!
//! * **SSA discipline** — every variable is defined exactly once, before
//!   any use, and never used after `language.pass` ends its life;
//! * **arity** — each opcode receives exactly the argument count and binds
//!   exactly the result count it declares;
//! * **kind** — BAT-valued and scalar-valued argument slots get the right
//!   kind of operand;
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
    Arg, BaseRows, Instr, OpCode, PipelineOut, PipelineSink, PipelineSpec, Program, VarId,
};
use mammoth_algebra::AggKind;
use mammoth_storage::Catalog;
use mammoth_types::{LogicalType, Value};
use std::fmt;

/// What the verifier statically knows about one MAL variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarTy {
    /// A BAT; the tail type may be statically unknown (`None`).
    Bat(Option<LogicalType>),
    /// A scalar; the type may be statically unknown (`None`).
    Scalar(Option<LogicalType>),
}

impl VarTy {
    pub fn kind_name(&self) -> &'static str {
        match self {
            VarTy::Bat(_) => "bat",
            VarTy::Scalar(_) => "scalar",
        }
    }

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

/// The inferred types of an instruction's results. No opcode but the
/// pipeline binds more than two; a (checked) pipeline's are worked out one
/// at a time by [`Verifier::pipeline_result`].
enum ResultTys {
    Few([Option<VarTy>; 2]),
    Pipeline,
}

const NO_RESULT: ResultTys = ResultTys::Few([None, None]);

fn one(ty: VarTy) -> ResultTys {
    ResultTys::Few([Some(ty), None])
}

fn two(a: VarTy, b: VarTy) -> ResultTys {
    ResultTys::Few([Some(a), Some(b)])
}

impl Verifier<'_> {
    fn check(&self, prog: &Program) -> Result<(), VerifyError> {
        let mut state = vec![VarState::Undefined; prog.nvars()];
        let mut result_at: Option<usize> = None;

        for (idx, instr) in prog.instrs.iter().enumerate() {
            let err = |kind| VerifyError {
                instr: Some(idx),
                op: Some(instr.op.name()),
                kind,
            };
            if let Some(r) = result_at {
                return Err(err(VerifyErrorKind::CodeAfterResult { result_at: r }));
            }
            if instr.results.len() != instr.op.result_arity() {
                return Err(err(VerifyErrorKind::BadResultCount {
                    expected: instr.op.result_arity(),
                    got: instr.results.len(),
                }));
            }

            let result_tys = match &instr.op {
                OpCode::Pipeline(spec) => self.check_pipeline(idx, &prog.instrs, spec, &state)?,
                _ => self.check_instr(idx, instr, &state)?,
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
                let ty = match (&result_tys, &instr.op) {
                    (ResultTys::Pipeline, OpCode::Pipeline(spec)) => {
                        self.pipeline_result(idx, instr, spec, k, &state)?
                    }
                    (ResultTys::Few(tys), _) => tys[k].expect("one type per declared result"),
                    (ResultTys::Pipeline, _) => unreachable!("only a pipeline's check yields it"),
                };
                match state.get(rv) {
                    None => return Err(err(VerifyErrorKind::UnknownVar { var: rv })),
                    Some(VarState::Defined { at, .. }) => {
                        return Err(err(VerifyErrorKind::Redefinition {
                            var: rv,
                            first_def: *at,
                        }))
                    }
                    // a freed slot may not be re-bound either: the plan
                    // would no longer be SSA
                    Some(VarState::Freed { at }) => {
                        return Err(err(VerifyErrorKind::Redefinition {
                            var: rv,
                            first_def: *at,
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

    /// Check one instruction's argument count, kinds and types; return the
    /// inferred types of its results.
    fn check_instr(
        &self,
        idx: usize,
        instr: &Instr,
        state: &[VarState],
    ) -> Result<ResultTys, VerifyError> {
        let err = |kind| VerifyError {
            instr: Some(idx),
            op: Some(instr.op.name()),
            kind,
        };

        // `io.result` and `language.pass` take variables of any kind.
        match instr.op {
            OpCode::Result => {
                if instr.args.is_empty() {
                    return Err(err(VerifyErrorKind::BadArgCount {
                        expected: 1,
                        got: 0,
                    }));
                }
                for (k, a) in instr.args.iter().enumerate() {
                    match a {
                        Arg::Var(v) => {
                            self.arg_ty(idx, instr, k, *v, state)?;
                        }
                        Arg::Const(_) | Arg::Param(_) => {
                            return Err(err(VerifyErrorKind::VarArgExpected { arg: k }))
                        }
                    }
                }
                return Ok(NO_RESULT);
            }
            OpCode::Free => {
                if instr.args.len() != 1 {
                    return Err(err(VerifyErrorKind::BadArgCount {
                        expected: 1,
                        got: instr.args.len(),
                    }));
                }
                match &instr.args[0] {
                    Arg::Var(v) => {
                        self.arg_ty(idx, instr, 0, *v, state)?;
                    }
                    Arg::Const(_) | Arg::Param(_) => {
                        return Err(err(VerifyErrorKind::VarArgExpected { arg: 0 }))
                    }
                }
                return Ok(NO_RESULT);
            }
            // variadic merge operators: at least one argument, uniform kind
            OpCode::Pack => {
                if instr.args.is_empty() {
                    return Err(err(VerifyErrorKind::BadArgCount {
                        expected: 1,
                        got: 0,
                    }));
                }
                let mut ty: Option<LogicalType> = None;
                for k in 0..instr.args.len() {
                    let t = self.bat_arg(idx, instr, k, state)?;
                    match (ty, t) {
                        (Some(a), Some(b)) if a != b => {
                            return Err(err(VerifyErrorKind::TypeMismatch {
                                arg: k,
                                detail: format!(
                                    "cannot pack a {} fragment with {} fragments",
                                    b.name(),
                                    a.name()
                                ),
                            }))
                        }
                        (None, Some(b)) => ty = Some(b),
                        _ => {}
                    }
                }
                return Ok(one(VarTy::Bat(ty)));
            }
            OpCode::PackSum => {
                if instr.args.is_empty() {
                    return Err(err(VerifyErrorKind::BadArgCount {
                        expected: 1,
                        got: 0,
                    }));
                }
                let mut out: Option<LogicalType> = None;
                let mut all_known = true;
                for k in 0..instr.args.len() {
                    let t = self.scalar_arg(idx, instr, k, state)?;
                    self.numeric(idx, instr, k, t)?;
                    match (out, t) {
                        (Some(a), Some(b)) => out = LogicalType::widen(a, b),
                        (None, Some(b)) => out = Some(b),
                        _ => all_known = false,
                    }
                }
                return Ok(one(VarTy::Scalar(if all_known { out } else { None })));
            }
            _ => {}
        }

        let expected_args = match instr.op {
            OpCode::Bind
            | OpCode::ThetaSelect(_)
            | OpCode::Projection
            | OpCode::Join
            | OpCode::GroupRefine
            | OpCode::Calc(_)
            | OpCode::FirstN { .. } => 2,
            OpCode::RangeSelect { .. }
            | OpCode::AggrGrouped(_)
            | OpCode::Slice
            | OpCode::PartSlice => 3,
            OpCode::Group
            | OpCode::Aggr(_)
            | OpCode::Sort { .. }
            | OpCode::Count
            | OpCode::Mirror => 1,
            OpCode::SetProps => 2,
            OpCode::Result
            | OpCode::Free
            | OpCode::Pack
            | OpCode::PackSum
            | OpCode::Pipeline(_) => {
                unreachable!("handled above")
            }
        };
        // a selection may carry one more argument: its candidate list
        let has_cand = instr.select_args().is_some_and(|s| s.cand.is_some());
        if instr.args.len() != expected_args + has_cand as usize {
            return Err(err(VerifyErrorKind::BadArgCount {
                expected: expected_args,
                got: instr.args.len(),
            }));
        }

        match &instr.op {
            OpCode::Bind => {
                let mut names = [""; 2];
                for (k, a) in instr.args.iter().enumerate() {
                    match a {
                        Arg::Const(Value::Str(s)) => names[k] = s,
                        Arg::Const(other) => {
                            return Err(err(VerifyErrorKind::TypeMismatch {
                                arg: k,
                                detail: format!("expected a string constant, found {other:?}"),
                            }))
                        }
                        Arg::Var(_) | Arg::Param(_) => {
                            return Err(err(VerifyErrorKind::ConstArgExpected { arg: k }))
                        }
                    }
                }
                let [table, column] = names;
                let ty = match self.catalog {
                    None => None,
                    Some(cat) => {
                        let t = cat.table(table).map_err(|_| {
                            err(VerifyErrorKind::NoSuchTable {
                                table: table.to_string(),
                            })
                        })?;
                        let (_, col) = t.schema.column(column).map_err(|_| {
                            err(VerifyErrorKind::NoSuchColumn {
                                table: table.to_string(),
                                column: column.to_string(),
                            })
                        })?;
                        Some(col.ty)
                    }
                };
                Ok(one(VarTy::Bat(ty)))
            }
            OpCode::ThetaSelect(_) | OpCode::RangeSelect { .. } => {
                let b = self.bat_arg(idx, instr, 0, state)?;
                if has_cand {
                    self.candidate_arg(idx, instr, 1, state)?;
                }
                for k in 1 + has_cand as usize..instr.args.len() {
                    let c = self.scalar_arg(idx, instr, k, state)?;
                    self.comparable(idx, instr, k, b, c)?;
                }
                Ok(one(VarTy::Bat(Some(LogicalType::Oid))))
            }
            OpCode::Projection => {
                self.candidate_arg(idx, instr, 0, state)?;
                let t = self.bat_arg(idx, instr, 1, state)?;
                Ok(one(VarTy::Bat(t)))
            }
            OpCode::Join => {
                let l = self.bat_arg(idx, instr, 0, state)?;
                let r = self.bat_arg(idx, instr, 1, state)?;
                self.comparable(idx, instr, 1, l, r)?;
                Ok(two(
                    VarTy::Bat(Some(LogicalType::Oid)),
                    VarTy::Bat(Some(LogicalType::Oid)),
                ))
            }
            OpCode::Group => {
                self.bat_arg(idx, instr, 0, state)?;
                Ok(two(
                    VarTy::Bat(Some(LogicalType::Oid)),
                    VarTy::Bat(Some(LogicalType::Oid)),
                ))
            }
            OpCode::GroupRefine => {
                self.candidate_arg(idx, instr, 0, state)?;
                self.bat_arg(idx, instr, 1, state)?;
                Ok(two(
                    VarTy::Bat(Some(LogicalType::Oid)),
                    VarTy::Bat(Some(LogicalType::Oid)),
                ))
            }
            OpCode::Aggr(kind) => {
                let t = self.bat_arg(idx, instr, 0, state)?;
                self.aggregable(idx, instr, 0, *kind, t)?;
                Ok(one(VarTy::Scalar(agg_result_ty(*kind, t))))
            }
            OpCode::AggrGrouped(kind) => {
                let t = self.bat_arg(idx, instr, 0, state)?;
                self.aggregable(idx, instr, 0, *kind, t)?;
                self.candidate_arg(idx, instr, 1, state)?;
                self.candidate_arg(idx, instr, 2, state)?;
                Ok(one(VarTy::Bat(agg_result_ty(*kind, t))))
            }
            OpCode::Calc(_) => {
                let a = self.bat_arg(idx, instr, 0, state)?;
                self.numeric(idx, instr, 0, a)?;
                // the second operand may be a BAT or a scalar
                let b = match self.arg_any(idx, instr, 1, state)? {
                    VarTy::Bat(t) | VarTy::Scalar(t) => t,
                };
                if matches!(&instr.args[1], Arg::Const(Value::Null)) {
                    return Err(err(VerifyErrorKind::TypeMismatch {
                        arg: 1,
                        detail: "batcalc operand must not be the NULL literal".into(),
                    }));
                }
                self.numeric(idx, instr, 1, b)?;
                let out = match (a, b) {
                    (Some(x), Some(y)) => LogicalType::widen(x, y),
                    _ => None,
                };
                Ok(one(VarTy::Bat(out)))
            }
            OpCode::Sort { .. } => {
                let t = self.bat_arg(idx, instr, 0, state)?;
                Ok(two(VarTy::Bat(t), VarTy::Bat(Some(LogicalType::Oid))))
            }
            OpCode::FirstN { .. } => {
                let t = self.bat_arg(idx, instr, 0, state)?;
                self.row_count_arg(idx, instr, 1, "row count", state)?;
                Ok(two(VarTy::Bat(t), VarTy::Bat(Some(LogicalType::Oid))))
            }
            OpCode::Slice => {
                let t = self.bat_arg(idx, instr, 0, state)?;
                for k in 1..=2 {
                    self.row_count_arg(idx, instr, k, "slice bound", state)?;
                }
                Ok(one(VarTy::Bat(t)))
            }
            OpCode::PartSlice => {
                let t = self.bat_arg(idx, instr, 0, state)?;
                // the fragment coordinates are literal integer constants
                // with 0 <= i < k, so a malformed mitosis rewrite is caught
                // statically, not at runtime
                let mut vals = [0i64; 2];
                for (slot, k) in (1..=2).enumerate() {
                    match &instr.args[k] {
                        Arg::Var(_) | Arg::Param(_) => {
                            return Err(err(VerifyErrorKind::ConstArgExpected { arg: k }))
                        }
                        Arg::Const(c) => match (c.logical_type(), c.as_i64()) {
                            (
                                Some(
                                    LogicalType::I8
                                    | LogicalType::I16
                                    | LogicalType::I32
                                    | LogicalType::I64,
                                ),
                                Some(x),
                            ) => vals[slot] = x,
                            _ => {
                                return Err(err(VerifyErrorKind::TypeMismatch {
                                    arg: k,
                                    detail: format!(
                                    "fragment coordinate must be an integer constant, found {c:?}"
                                ),
                                }))
                            }
                        },
                    }
                }
                let (i, n) = (vals[0], vals[1]);
                if n < 1 || i < 0 || i >= n {
                    return Err(err(VerifyErrorKind::TypeMismatch {
                        arg: 1,
                        detail: format!("fragment {i} of {n} is out of range"),
                    }));
                }
                Ok(one(VarTy::Bat(t)))
            }
            OpCode::Count => {
                self.bat_arg(idx, instr, 0, state)?;
                Ok(one(VarTy::Scalar(Some(LogicalType::I64))))
            }
            OpCode::Mirror => {
                self.bat_arg(idx, instr, 0, state)?;
                Ok(one(VarTy::Bat(Some(LogicalType::Oid))))
            }
            OpCode::SetProps => {
                let t = self.bat_arg(idx, instr, 0, state)?;
                match instr.args.get(1) {
                    Some(Arg::Const(Value::Str(s)))
                        if crate::analysis::props::parse_claims(s).is_some() => {}
                    _ => {
                        return Err(err(VerifyErrorKind::TypeMismatch {
                            arg: 1,
                            detail: "expected a string constant of property claims \
                                     (sorted, revsorted, key, nonil)"
                                .into(),
                        }))
                    }
                }
                Ok(one(VarTy::Bat(t)))
            }
            OpCode::Result
            | OpCode::Free
            | OpCode::Pack
            | OpCode::PackSum
            | OpCode::Pipeline(_) => {
                unreachable!("handled above")
            }
        }
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
        idx: usize,
        instrs: &[Instr],
        spec: &PipelineSpec,
        state: &[VarState],
    ) -> Result<ResultTys, VerifyError> {
        let instr = &instrs[idx];
        let err = |kind| VerifyError {
            instr: Some(idx),
            op: Some(instr.op.name()),
            kind,
        };
        let shape = |detail: &str| {
            err(VerifyErrorKind::TypeMismatch {
                arg: 0,
                detail: detail.into(),
            })
        };
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
            return Err(err(VerifyErrorKind::BadArgCount {
                expected: spec.nargs(),
                got: instr.args.len(),
            }));
        }

        let ncols = spec.ncols();
        let driver = spec.filters[0].col;
        let base_of = |k: usize| match &instr.args[k] {
            Arg::Var(v) => match state.get(*v) {
                Some(VarState::Defined { base, .. }) => *base,
                _ => None,
            },
            _ => None,
        };
        for k in 0..ncols {
            let t = self.bat_arg(idx, instr, k, state)?;
            if t == Some(LogicalType::Str) {
                return Err(err(VerifyErrorKind::TypeMismatch {
                    arg: k,
                    detail: "expected a fixed-width column, found str".into(),
                }));
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
            return Err(err(VerifyErrorKind::Unaligned { arg: k, detail }));
        }
        let bounds = spec
            .filters_with_bounds(&instr.args)
            .expect("the argument count was checked above");
        let mut k = ncols;
        for (filter, bounds) in bounds {
            let col = self.bat_arg(idx, instr, filter.col, state)?;
            for _ in bounds {
                let c = self.scalar_arg(idx, instr, k, state)?;
                self.comparable(idx, instr, k, col, c)?;
                k += 1;
            }
        }
        for out in &spec.outs {
            if let PipelineOut::Agg(kind, c) = *out {
                let t = self.bat_arg(idx, instr, c, state)?;
                self.aggregable(idx, instr, c, kind, t)?;
            }
        }
        if matches!(spec.sink, PipelineSink::Top { .. }) {
            self.row_count_arg(idx, instr, k, "row count", state)?;
            if matches!(&instr.args[k], Arg::Const(n) if n.as_i64().is_some_and(|n| n < 0)) {
                return Err(err(VerifyErrorKind::TypeMismatch {
                    arg: k,
                    detail: "row count must not be negative".into(),
                }));
            }
        }
        Ok(ResultTys::Pipeline)
    }

    /// The type of result `k` of a pipeline [`Verifier::check_pipeline`]
    /// accepted.
    fn pipeline_result(
        &self,
        idx: usize,
        instr: &Instr,
        spec: &PipelineSpec,
        k: usize,
        state: &[VarState],
    ) -> Result<VarTy, VerifyError> {
        let value = |t| match spec.sink {
            PipelineSink::Rows => VarTy::Scalar(t),
            PipelineSink::Group(_) | PipelineSink::Top { .. } => VarTy::Bat(t),
        };
        Ok(match (spec.outs[k], spec.sink) {
            (PipelineOut::Key, PipelineSink::Group(key)) => {
                VarTy::Bat(self.bat_arg(idx, instr, key, state)?)
            }
            (PipelineOut::Key, _) => unreachable!("a key without a group was rejected"),
            (PipelineOut::Count, _) => value(Some(LogicalType::I64)),
            (PipelineOut::Agg(kind, c), _) => {
                value(agg_result_ty(kind, self.bat_arg(idx, instr, c, state)?))
            }
            (PipelineOut::Col(c), _) => VarTy::Bat(self.bat_arg(idx, instr, c, state)?),
        })
    }

    /// Resolve an argument to the verifier's view of its type.
    fn arg_any(
        &self,
        idx: usize,
        instr: &Instr,
        argno: usize,
        state: &[VarState],
    ) -> Result<VarTy, VerifyError> {
        match &instr.args[argno] {
            Arg::Const(c) => Ok(VarTy::Scalar(c.logical_type())),
            Arg::Var(v) => self.arg_ty(idx, instr, argno, *v, state),
            // a parameter slot is a scalar of (statically) unknown type;
            // EXECUTE substitutes a concrete constant before execution
            Arg::Param(_) => Ok(VarTy::Scalar(None)),
        }
    }

    fn arg_ty(
        &self,
        idx: usize,
        instr: &Instr,
        _argno: usize,
        v: VarId,
        state: &[VarState],
    ) -> Result<VarTy, VerifyError> {
        let err = |kind| VerifyError {
            instr: Some(idx),
            op: Some(instr.op.name()),
            kind,
        };
        match state.get(v) {
            None => Err(err(VerifyErrorKind::UnknownVar { var: v })),
            Some(VarState::Undefined) => Err(err(VerifyErrorKind::UseBeforeDef { var: v })),
            Some(VarState::Freed { at }) => Err(err(VerifyErrorKind::UseAfterFree {
                var: v,
                freed_at: *at,
            })),
            Some(VarState::Defined { ty, .. }) => Ok(*ty),
        }
    }

    /// The argument must be a BAT; returns its (possibly unknown) tail type.
    fn bat_arg(
        &self,
        idx: usize,
        instr: &Instr,
        argno: usize,
        state: &[VarState],
    ) -> Result<Option<LogicalType>, VerifyError> {
        match self.arg_any(idx, instr, argno, state)? {
            VarTy::Bat(t) => Ok(t),
            VarTy::Scalar(_) => Err(VerifyError {
                instr: Some(idx),
                op: Some(instr.op.name()),
                kind: VerifyErrorKind::KindMismatch {
                    arg: argno,
                    expected: "bat",
                    found: "scalar",
                },
            }),
        }
    }

    /// The argument must be a candidate/grouping BAT: tail type oid (or
    /// statically unknown).
    fn candidate_arg(
        &self,
        idx: usize,
        instr: &Instr,
        argno: usize,
        state: &[VarState],
    ) -> Result<(), VerifyError> {
        let t = self.bat_arg(idx, instr, argno, state)?;
        match t {
            None | Some(LogicalType::Oid) => Ok(()),
            Some(other) => Err(VerifyError {
                instr: Some(idx),
                op: Some(instr.op.name()),
                kind: VerifyErrorKind::TypeMismatch {
                    arg: argno,
                    detail: format!("expected a candidate (oid) bat, found {}", other.name()),
                },
            }),
        }
    }

    /// The argument must be an integer, non-NULL scalar (`what` names it in
    /// the error): a `bat.slice` bound or an `algebra.firstn` row count.
    fn row_count_arg(
        &self,
        idx: usize,
        instr: &Instr,
        argno: usize,
        what: &str,
        state: &[VarState],
    ) -> Result<(), VerifyError> {
        let detail = match self.scalar_arg(idx, instr, argno, state)? {
            Some(LogicalType::I8 | LogicalType::I16 | LogicalType::I32 | LogicalType::I64) => {
                return Ok(())
            }
            Some(ty) => format!("{what} must be an integer, found {}", ty.name()),
            None if matches!(&instr.args[argno], Arg::Const(Value::Null)) => {
                format!("{what} must not be NULL")
            }
            None => return Ok(()),
        };
        Err(VerifyError {
            instr: Some(idx),
            op: Some(instr.op.name()),
            kind: VerifyErrorKind::TypeMismatch { arg: argno, detail },
        })
    }

    /// The argument must be scalar; returns its (possibly unknown) type.
    fn scalar_arg(
        &self,
        idx: usize,
        instr: &Instr,
        argno: usize,
        state: &[VarState],
    ) -> Result<Option<LogicalType>, VerifyError> {
        match self.arg_any(idx, instr, argno, state)? {
            VarTy::Scalar(t) => Ok(t),
            VarTy::Bat(_) => Err(VerifyError {
                instr: Some(idx),
                op: Some(instr.op.name()),
                kind: VerifyErrorKind::KindMismatch {
                    arg: argno,
                    expected: "scalar",
                    found: "bat",
                },
            }),
        }
    }

    /// Two operand types that are compared or joined must agree: identical,
    /// or both from the numeric/oid family. Unknown types pass.
    fn comparable(
        &self,
        idx: usize,
        instr: &Instr,
        argno: usize,
        a: Option<LogicalType>,
        b: Option<LogicalType>,
    ) -> Result<(), VerifyError> {
        let (Some(a), Some(b)) = (a, b) else {
            return Ok(());
        };
        let num_like =
            |t: LogicalType| t.is_numeric() || t == LogicalType::Oid || t == LogicalType::Bool;
        if a == b || (num_like(a) && num_like(b)) {
            Ok(())
        } else {
            Err(VerifyError {
                instr: Some(idx),
                op: Some(instr.op.name()),
                kind: VerifyErrorKind::TypeMismatch {
                    arg: argno,
                    detail: format!("cannot compare {} with {}", a.name(), b.name()),
                },
            })
        }
    }

    /// SUM/AVG/MIN/MAX need numeric input; COUNT takes anything.
    fn aggregable(
        &self,
        idx: usize,
        instr: &Instr,
        argno: usize,
        kind: AggKind,
        t: Option<LogicalType>,
    ) -> Result<(), VerifyError> {
        if kind == AggKind::Count {
            return Ok(());
        }
        self.numeric(idx, instr, argno, t)
    }

    fn numeric(
        &self,
        idx: usize,
        instr: &Instr,
        argno: usize,
        t: Option<LogicalType>,
    ) -> Result<(), VerifyError> {
        match t {
            None => Ok(()),
            Some(t) if t.is_numeric() || t == LogicalType::Oid => Ok(()),
            Some(t) => Err(VerifyError {
                instr: Some(idx),
                op: Some(instr.op.name()),
                kind: VerifyErrorKind::TypeMismatch {
                    arg: argno,
                    detail: format!("expected a numeric operand, found {}", t.name()),
                },
            }),
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
