//! The optimizer-module pipeline: §3.1's second tier.
//!
//! "The second tier consists of a collection of optimizer modules, which
//! are assembled into optimization pipelines. … The approach breaks with
//! the hitherto omnipresent cost-based optimizers by recognition that not
//! all decisions can be cast together in a single cost formula."
//!
//! Each module is a standalone program→program rewrite. The default
//! pipeline runs constant folding, common-subexpression elimination and
//! dead-code elimination, in that order; [`GarbageCollect`] can be appended
//! to insert `language.pass` end-of-life markers. Because every pass is an
//! unconstrained rewrite, the pipeline re-verifies the plan after each pass
//! with [`crate::analysis::verify`] (always in debug builds, opt-in via
//! [`Pipeline::checked`] in release) and attributes any failure to the
//! offending pass.

use crate::analysis::props::{BatFacts, SelectVerdict};
use crate::analysis::{self, VerifyError};
use crate::program::{Arg, Instr, OpCode, Program, VarId};
use mammoth_algebra::{ArithOp, CmpOp};
use mammoth_types::Value;
use std::collections::HashMap;
use std::fmt;

/// One optimizer module.
/// An optimizer module. `Send + Sync` so a [`Pipeline`] (and the session
/// holding it) can be shared across the network server's worker threads.
pub trait OptimizerPass: Send + Sync {
    fn name(&self) -> &'static str;
    fn run(&self, prog: Program) -> Program;
}

/// A verification failure attributed to the optimizer pass whose output
/// first failed to verify.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassError {
    pub pass: &'static str,
    pub error: VerifyError,
}

impl fmt::Display for PassError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "optimizer pass '{}' produced an ill-formed plan: {}",
            self.pass, self.error
        )
    }
}

impl std::error::Error for PassError {}

/// An ordered pipeline of modules.
///
/// In debug builds the pipeline re-verifies the plan after every pass; a
/// pass that emits an ill-formed program is reported by name via
/// [`Pipeline::try_optimize`] (or a panic from [`Pipeline::optimize`]).
/// Release builds skip verification unless opted in with
/// [`Pipeline::checked`].
#[derive(Default)]
pub struct Pipeline {
    passes: Vec<Box<dyn OptimizerPass>>,
    checked: bool,
}

impl Pipeline {
    pub fn new() -> Pipeline {
        Pipeline::default()
    }

    pub fn with(mut self, pass: impl OptimizerPass + 'static) -> Pipeline {
        self.passes.push(Box::new(pass));
        self
    }

    /// Verify the plan after every pass even in release builds.
    pub fn checked(mut self) -> Pipeline {
        self.checked = true;
        self
    }

    /// Whether per-pass verification is active (always in debug builds).
    pub fn is_checked(&self) -> bool {
        self.checked || cfg!(debug_assertions)
    }

    /// Run all passes, verifying after each when [`Pipeline::is_checked`].
    pub fn try_optimize(&self, mut prog: Program) -> Result<Program, Box<PassError>> {
        for p in &self.passes {
            prog = p.run(prog);
            if self.is_checked() {
                if let Err(error) = analysis::verify(&prog) {
                    return Err(Box::new(PassError {
                        pass: p.name(),
                        error,
                    }));
                }
            }
        }
        Ok(prog)
    }

    /// Run all passes; panics if a checked pass miscompiles the plan.
    pub fn optimize(&self, prog: Program) -> Program {
        self.try_optimize(prog).unwrap_or_else(|e| panic!("{e}"))
    }

    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }
}

/// The default pipeline (mirrors MonetDB's default optimizer chain in
/// spirit).
pub fn default_pipeline() -> Pipeline {
    Pipeline::new()
        .with(ConstantFold)
        .with(CommonSubexpr)
        .with(DeadCode)
}

/// [`default_pipeline`] extended with the abstract-interpretation property
/// tier: after folding and CSE, [`SelectElimination`] and [`SortedSelect`]
/// rewrite selections using per-column statistics (`facts`, from
/// [`analysis::column_facts`] over the catalog the plan will run against),
/// then dead code is swept. The pipeline is [`Pipeline::checked`] because
/// these passes rewrite based on facts external to the plan text.
///
/// Invariant: `facts` must describe the catalog state the plan executes
/// against — the passes' proofs are only as sound as their premises.
pub fn default_pipeline_with_props(facts: analysis::PropFacts) -> Pipeline {
    Pipeline::new()
        .with(ConstantFold)
        .with(CommonSubexpr)
        .with(SelectElimination::new(facts.clone()))
        .with(SortedSelect::new(facts))
        .with(DeadCode)
        .checked()
}

/// Fold `batcalc` instructions whose *both* operands are constants, and
/// canonicalize constant-only arithmetic in arguments.
pub struct ConstantFold;

impl OptimizerPass for ConstantFold {
    fn name(&self) -> &'static str {
        "constant_fold"
    }

    fn run(&self, prog: Program) -> Program {
        // In this instruction set only scalar+scalar Calc can fold; the SQL
        // front-end already folds most of those, so the pass mainly
        // normalizes `x := calc(const, const)` produced by generators.
        let mut out = prog.clone();
        let mut folded: HashMap<usize, Value> = HashMap::new();
        out.instrs = prog
            .instrs
            .into_iter()
            .filter_map(|mut i| {
                // replace args that reference folded vars
                for a in &mut i.args {
                    if let Arg::Var(v) = a {
                        if let Some(c) = folded.get(v) {
                            *a = Arg::Const(c.clone());
                        }
                    }
                }
                // a freed var that folded to a constant has nothing left to
                // release — the marker disappears with the instruction
                if i.op == OpCode::Free && matches!(i.args.first(), Some(Arg::Const(_))) {
                    return None;
                }
                if let OpCode::Calc(op) = &i.op {
                    if let (Some(Arg::Const(a)), Some(Arg::Const(b))) =
                        (i.args.first(), i.args.get(1))
                    {
                        if let Some(c) = fold_arith(*op, a, b) {
                            folded.insert(i.results[0], c);
                            return None; // instruction disappears
                        }
                    }
                }
                Some(i)
            })
            .collect();
        out
    }
}

fn fold_arith(op: ArithOp, a: &Value, b: &Value) -> Option<Value> {
    if a.is_null() || b.is_null() {
        return Some(Value::Null);
    }
    if let (Some(x), Some(y)) = (a.as_i64(), b.as_i64()) {
        if a.logical_type() != Some(mammoth_types::LogicalType::F64)
            && b.logical_type() != Some(mammoth_types::LogicalType::F64)
        {
            return Some(Value::I64(match op {
                ArithOp::Add => x.wrapping_add(y),
                ArithOp::Sub => x.wrapping_sub(y),
                ArithOp::Mul => x.wrapping_mul(y),
                ArithOp::Div => {
                    if y == 0 {
                        return Some(Value::Null);
                    }
                    x.wrapping_div(y)
                }
                ArithOp::Mod => {
                    if y == 0 {
                        return Some(Value::Null);
                    }
                    x.wrapping_rem(y)
                }
            }));
        }
    }
    let (x, y) = (a.as_f64()?, b.as_f64()?);
    Some(Value::F64(match op {
        ArithOp::Add => x + y,
        ArithOp::Sub => x - y,
        ArithOp::Mul => x * y,
        ArithOp::Div => x / y,
        ArithOp::Mod => x % y,
    }))
}

/// Replace instructions identical to an earlier one (same op, same args)
/// with the earlier result — the materialize-everything paradigm makes this
/// safe for all pure instructions.
pub struct CommonSubexpr;

impl OptimizerPass for CommonSubexpr {
    fn name(&self) -> &'static str {
        "common_subexpression"
    }

    fn run(&self, prog: Program) -> Program {
        // Merging duplicates across `language.pass` markers is unsound:
        // redirecting uses onto the surviving var could read it after its
        // free. GC runs last in practice, so just leave such plans alone.
        if prog.instrs.iter().any(|i| i.op == OpCode::Free) {
            return prog;
        }
        let mut seen: HashMap<String, Vec<usize>> = HashMap::new();
        let mut replace: HashMap<usize, usize> = HashMap::new(); // var -> var
        let mut out = prog.clone();
        out.instrs = prog
            .instrs
            .into_iter()
            .filter_map(|mut i| {
                for a in &mut i.args {
                    if let Arg::Var(v) = a {
                        if let Some(&r) = replace.get(v) {
                            *a = Arg::Var(r);
                        }
                    }
                }
                if !i.op.is_pure() {
                    return Some(i);
                }
                let key = format!("{:?}|{:?}", i.op, i.args);
                match seen.get(&key) {
                    Some(prev) => {
                        for (mine, theirs) in i.results.iter().zip(prev) {
                            replace.insert(*mine, *theirs);
                        }
                        None
                    }
                    None => {
                        seen.insert(key, i.results.clone());
                        Some(i)
                    }
                }
            })
            .collect();
        out
    }
}

/// Remove pure instructions none of whose results are ever used.
pub struct DeadCode;

impl OptimizerPass for DeadCode {
    fn name(&self) -> &'static str {
        "dead_code"
    }

    fn run(&self, prog: Program) -> Program {
        // iterate to a fixed point (removing one instruction can orphan its
        // inputs)
        let mut instrs = prog.instrs.clone();
        loop {
            let mut used = vec![false; prog.nvars()];
            for i in &instrs {
                // a `language.pass` is not a real use: a var only freed is
                // dead, and its definition (plus the marker) can go
                if i.op == OpCode::Free {
                    continue;
                }
                for a in &i.args {
                    if let Arg::Var(v) = a {
                        used[*v] = true;
                    }
                }
            }
            let before = instrs.len();
            instrs.retain(|i: &Instr| !i.op.is_pure() || i.results.iter().any(|r| used[*r]));
            let mut defined = vec![false; prog.nvars()];
            for i in &instrs {
                for &r in &i.results {
                    defined[r] = true;
                }
            }
            instrs.retain(|i: &Instr| {
                i.op != OpCode::Free || matches!(i.args.first(), Some(Arg::Var(v)) if defined[*v])
            });
            if instrs.len() == before {
                break;
            }
        }
        let mut out = prog.clone();
        out.instrs = instrs;
        out
    }
}

/// Materialize the liveness analysis as explicit `language.pass` end-of-life
/// markers: after each variable's last use, a marker releases its value, so
/// the interpreter's variable table holds no dead BATs (MonetDB's
/// `garbagecollector` module). Idempotent: a var whose life already ends at
/// a `language.pass` gets no second marker.
pub struct GarbageCollect;

impl OptimizerPass for GarbageCollect {
    fn name(&self) -> &'static str {
        "garbage_collect"
    }

    fn run(&self, prog: Program) -> Program {
        let lv = analysis::analyze_liveness(&prog);
        let mut out = prog.clone();
        out.instrs = Vec::with_capacity(prog.instrs.len());
        for (idx, instr) in prog.instrs.iter().enumerate() {
            let op = instr.op.clone();
            out.instrs.push(instr.clone());
            // outputs die at io.result (nothing follows); a pass's operand
            // is already released by the pass itself
            if op == OpCode::Result || op == OpCode::Free {
                continue;
            }
            for &v in &lv.dies_at[idx] {
                out.instrs.push(Instr {
                    results: vec![],
                    op: OpCode::Free,
                    args: vec![Arg::Var(v)],
                });
            }
        }
        out
    }
}

/// Interval-based select elimination — the property tier's first consumer
/// (§3.1's "properties drive rewriting"). A selection whose predicate the
/// analysis proves accepts *every* row is replaced by a `bat.mirror`
/// pass-through (the candidate list of a dense-headed input at seqbase 0
/// is exactly its mirror); one that provably accepts *no* row becomes an
/// empty candidate list built as `bat.slice(b, 0, 0)` + `bat.mirror`.
/// With a candidate list the accept-all result is the list itself (later
/// uses are re-pointed at it) and the accept-none result is its empty
/// prefix, `bat.slice(cand, 0, 0)`. Both proofs compare the input's
/// inferred value interval (seeded from column statistics and zone maps)
/// against the constant predicate.
///
/// Soundness guards, in order:
/// * plans containing `language.pass` are left untouched (the rewrite
///   would have to re-derive end-of-life markers);
/// * the input must have a statically dense head at seqbase 0, so the
///   mirrored oid list is bit-identical to the select's candidate output;
/// * a candidate list must provably name rows of the input only —
///   otherwise the select would raise an out-of-range error at runtime,
///   and eliminating it would mask that error;
/// * every non-nil predicate constant must coerce losslessly into the
///   column's value type — otherwise the select would raise a type error
///   at runtime, and eliminating it would mask that error.
pub struct SelectElimination {
    facts: analysis::PropFacts,
}

impl SelectElimination {
    pub fn new(facts: analysis::PropFacts) -> SelectElimination {
        SelectElimination { facts }
    }

    fn verdict(an: &analysis::Analysis, instr: &Instr) -> SelectVerdict {
        let Some(sel) = instr.select_args() else {
            return SelectVerdict::Unknown;
        };
        let Some(f) = arg_facts(an, sel.input) else {
            return SelectVerdict::Unknown;
        };
        if !(f.props.void_head && f.seqbase == Some(0)) {
            return SelectVerdict::Unknown;
        }
        if let Some(cand) = sel.cand {
            if !arg_facts(an, cand).is_some_and(|c| cands_in_range(&c.props, &f.props)) {
                return SelectVerdict::Unknown;
            }
        }
        if !consts_coerce(f, sel.bounds) {
            return SelectVerdict::Unknown;
        }
        match &instr.op {
            OpCode::ThetaSelect(op) => analysis::props::select_verdict_theta(f, instr, *op),
            OpCode::RangeSelect { lo_incl, hi_incl } => {
                analysis::props::select_verdict_range(f, instr, *lo_incl, *hi_incl)
            }
            _ => SelectVerdict::Unknown,
        }
    }
}

fn arg_facts<'a>(an: &'a analysis::Analysis, a: &Arg) -> Option<&'a BatFacts> {
    match a {
        Arg::Var(v) => an.bat_facts(*v),
        Arg::Const(_) | Arg::Param(_) => None,
    }
}

/// True when every oid of a candidate list provably names a row of a
/// dense, seqbase-0 input: non-nil values inside `[0, |input|)`.
fn cands_in_range(cand: &analysis::Props, input: &analysis::Props) -> bool {
    let below = |n: u64| matches!(&cand.max, Some(Value::Oid(m)) if *m < n);
    // an empty list names no row at all
    cand.card_hi == Some(0) || (cand.nonil && below(input.card_lo))
}

/// True when every constant predicate argument either is nil (an open /
/// no-candidates bound the runtime handles without touching the column
/// type) or coerces losslessly into the type of the column's bounds.
fn consts_coerce(f: &BatFacts, preds: &[Arg]) -> bool {
    let consts = preds.iter().map(|a| match a {
        Arg::Const(c) => Some(c),
        // a parameter's value (and thus coercibility) is unknown until
        // EXECUTE binds it — treat like a variable: not provably safe
        Arg::Var(_) | Arg::Param(_) => None,
    });
    let bty = f
        .props
        .min
        .as_ref()
        .or(f.props.max.as_ref())
        .and_then(|v| v.logical_type());
    match bty {
        Some(ty) => consts
            .flatten()
            .all(|c| c.is_null() || c.coerce(ty).is_some()),
        None => consts.flatten().all(|c| c.is_null()),
    }
}

impl OptimizerPass for SelectElimination {
    fn name(&self) -> &'static str {
        "select_elimination"
    }

    fn run(&self, prog: Program) -> Program {
        if prog.instrs.iter().any(|i| i.op == OpCode::Free) {
            return prog;
        }
        let Ok(an) = analysis::analyze_props_with_facts(&prog, &self.facts) else {
            return prog;
        };
        let mut out = prog.clone();
        out.instrs = Vec::with_capacity(prog.instrs.len());
        // results proven equal to their candidate list: var -> that list
        let mut alias: HashMap<VarId, VarId> = HashMap::new();
        for instr in &prog.instrs {
            let mut instr = instr.clone();
            for a in &mut instr.args {
                if let Arg::Var(v) = a {
                    if let Some(&c) = alias.get(v) {
                        *a = Arg::Var(c);
                    }
                }
            }
            let cand = instr.select_args().and_then(|s| s.cand.cloned());
            let results = instr.results.clone();
            match (Self::verdict(&an, &instr), cand) {
                // accept-all of a candidate list is the list itself
                (SelectVerdict::All, Some(Arg::Var(c))) => {
                    alias.insert(results[0], c);
                }
                (SelectVerdict::All, None) => out.instrs.push(Instr {
                    results,
                    op: OpCode::Mirror,
                    args: vec![instr.args[0].clone()],
                }),
                // accept-none of a candidate list is its empty prefix
                (SelectVerdict::None, Some(c)) => out.instrs.push(empty_prefix(results, c)),
                (SelectVerdict::None, None) => {
                    let empty = out.var();
                    out.instrs
                        .push(empty_prefix(vec![empty], instr.args[0].clone()));
                    out.instrs.push(Instr {
                        results,
                        op: OpCode::Mirror,
                        args: vec![Arg::Var(empty)],
                    });
                }
                _ => out.instrs.push(instr),
            }
        }
        out
    }
}

/// `results := bat.slice(src, 0, 0)`.
fn empty_prefix(results: Vec<VarId>, src: Arg) -> Instr {
    Instr {
        results,
        op: OpCode::Slice,
        args: vec![src, Arg::Const(Value::I64(0)), Arg::Const(Value::I64(0))],
    }
}

/// Sorted-input select specialization. A theta-select over a column the
/// analysis proves `sorted` and `nonil` is rewritten into the equivalent
/// `algebra.select` range form over a `bat.setprops(b, "sorted,nonil")`
/// annotated input; the interpreter's binary-search fast path keys off the
/// *runtime* sorted/nonil flags the annotation establishes, replacing the
/// scan with two `partition_point` probes (a candidate list is then cut to
/// the qualifying oid run instead of being fetched through). Existing range
/// selects over proven-sorted inputs get the same annotation.
///
/// Answer preservation is independent of the annotation: the range form
/// computes the identical candidate set by scan whenever the runtime flags
/// are absent, and `bat.setprops` itself only asserts claims the analysis
/// already confirmed (the plan would not pass the property walk
/// otherwise). `!=` selects are not range-expressible and stay scans.
pub struct SortedSelect {
    facts: analysis::PropFacts,
}

impl SortedSelect {
    pub fn new(facts: analysis::PropFacts) -> SortedSelect {
        SortedSelect { facts }
    }

    /// Reuse or insert `sv := bat.setprops(v, "sorted,nonil")`.
    fn annotate(out: &mut Program, annotated: &mut HashMap<VarId, VarId>, v: VarId) -> VarId {
        if let Some(&sv) = annotated.get(&v) {
            return sv;
        }
        let sv = out.var();
        out.instrs.push(Instr {
            results: vec![sv],
            op: OpCode::SetProps,
            args: vec![Arg::Var(v), Arg::Const(Value::Str("sorted,nonil".into()))],
        });
        annotated.insert(v, sv);
        sv
    }
}

impl OptimizerPass for SortedSelect {
    fn name(&self) -> &'static str {
        "sorted_select"
    }

    fn run(&self, prog: Program) -> Program {
        if prog.instrs.iter().any(|i| i.op == OpCode::Free) {
            return prog;
        }
        let Ok(an) = analysis::analyze_props_with_facts(&prog, &self.facts) else {
            return prog;
        };
        let mut out = prog.clone();
        out.instrs = Vec::with_capacity(prog.instrs.len());
        let mut annotated: HashMap<VarId, VarId> = HashMap::new();
        for instr in &prog.instrs {
            let sorted_input = match instr.args.first() {
                Some(Arg::Var(v)) => an
                    .bat_facts(*v)
                    .filter(|f| f.props.sorted && f.props.nonil)
                    .map(|_| *v),
                _ => None,
            };
            match (&instr.op, sorted_input) {
                (OpCode::ThetaSelect(op), Some(v)) if *op != CmpOp::Ne => {
                    let sel = instr.select_args();
                    let c = match sel.as_ref().map(|s| s.bounds) {
                        Some([Arg::Const(c)]) if !c.is_null() => c.clone(),
                        _ => {
                            out.instrs.push(instr.clone());
                            continue;
                        }
                    };
                    let sv = Self::annotate(&mut out, &mut annotated, v);
                    let nil = || Arg::Const(Value::Null);
                    let cst = Arg::Const(c);
                    let (op2, lo, hi) = match op {
                        CmpOp::Lt => (range_op(true, false), nil(), cst),
                        CmpOp::Le => (range_op(true, true), nil(), cst),
                        CmpOp::Gt => (range_op(false, true), cst, nil()),
                        CmpOp::Ge => (range_op(true, true), cst, nil()),
                        CmpOp::Eq => (range_op(true, true), cst.clone(), cst),
                        CmpOp::Ne => unreachable!("guarded above"),
                    };
                    // the candidate list, when present, stays in place
                    let mut args = vec![Arg::Var(sv)];
                    args.extend(sel.and_then(|s| s.cand).cloned());
                    args.extend([lo, hi]);
                    out.instrs.push(Instr {
                        results: instr.results.clone(),
                        op: op2,
                        args,
                    });
                }
                (OpCode::RangeSelect { .. }, Some(v)) => {
                    let sv = Self::annotate(&mut out, &mut annotated, v);
                    let mut ni = instr.clone();
                    ni.args[0] = Arg::Var(sv);
                    out.instrs.push(ni);
                }
                _ => out.instrs.push(instr.clone()),
            }
        }
        out
    }
}

fn range_op(lo_incl: bool, hi_incl: bool) -> OpCode {
    OpCode::RangeSelect { lo_incl, hi_incl }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Interpreter;
    use mammoth_storage::{Bat, Catalog, Table};
    use mammoth_types::{ColumnDef, LogicalType, TableSchema};

    fn bind(p: &mut Program, t: &str, c: &str) -> usize {
        p.push(
            OpCode::Bind,
            vec![
                Arg::Const(Value::Str(t.into())),
                Arg::Const(Value::Str(c.into())),
            ],
        )[0]
    }

    #[test]
    fn dead_code_removes_unused_chains() {
        let mut p = Program::new();
        let a = bind(&mut p, "t", "a");
        let _unused_select = p.push(
            OpCode::ThetaSelect(CmpOp::Eq),
            vec![Arg::Var(a), Arg::Const(Value::I32(1))],
        );
        let b = bind(&mut p, "t", "b");
        p.push_result(&[b]);
        let out = DeadCode.run(p);
        // the select AND the bind feeding only it are gone
        assert_eq!(out.instrs.len(), 2);
        assert!(out
            .instrs
            .iter()
            .all(|i| !matches!(&i.op, OpCode::ThetaSelect(_))));
    }

    #[test]
    fn cse_merges_identical_instructions() {
        let mut p = Program::new();
        let a1 = bind(&mut p, "t", "a");
        let a2 = bind(&mut p, "t", "a");
        let s1 = p.push(
            OpCode::ThetaSelect(CmpOp::Eq),
            vec![Arg::Var(a1), Arg::Const(Value::I32(1))],
        )[0];
        let s2 = p.push(
            OpCode::ThetaSelect(CmpOp::Eq),
            vec![Arg::Var(a2), Arg::Const(Value::I32(1))],
        )[0];
        p.push_result(&[s1, s2]);
        let out = CommonSubexpr.run(p);
        // one bind + one select + result
        assert_eq!(out.instrs.len(), 3);
        // result now references the surviving select twice
        let res = out.instrs.last().unwrap();
        assert_eq!(res.args[0], res.args[1]);
    }

    #[test]
    fn constant_folding_removes_scalar_calc() {
        let mut p = Program::new();
        let c = p.push(
            OpCode::Calc(ArithOp::Add),
            vec![Arg::Const(Value::I32(2)), Arg::Const(Value::I32(3))],
        )[0];
        let a = bind(&mut p, "t", "a");
        let s = p.push(
            OpCode::ThetaSelect(CmpOp::Eq),
            vec![Arg::Var(a), Arg::Var(c)],
        )[0];
        p.push_result(&[s]);
        let out = ConstantFold.run(p);
        assert_eq!(out.instrs.len(), 3);
        let sel = &out.instrs[1];
        assert_eq!(sel.args[1], Arg::Const(Value::I64(5)));
    }

    #[test]
    fn fold_arith_rules() {
        assert_eq!(
            fold_arith(ArithOp::Mul, &Value::I32(6), &Value::I32(7)),
            Some(Value::I64(42))
        );
        assert_eq!(
            fold_arith(ArithOp::Div, &Value::I32(1), &Value::I32(0)),
            Some(Value::Null)
        );
        assert_eq!(
            fold_arith(ArithOp::Add, &Value::F64(0.5), &Value::I32(1)),
            Some(Value::F64(1.5))
        );
        assert_eq!(
            fold_arith(ArithOp::Add, &Value::Null, &Value::I32(1)),
            Some(Value::Null)
        );
    }

    #[test]
    fn garbage_collect_inserts_end_of_life_markers() {
        let mut p = Program::new();
        let age = bind(&mut p, "t", "age");
        let c = p.push(
            OpCode::ThetaSelect(CmpOp::Eq),
            vec![Arg::Var(age), Arg::Const(Value::I32(1))],
        )[0];
        let name = bind(&mut p, "t", "name");
        let out = p.push(OpCode::Projection, vec![Arg::Var(c), Arg::Var(name)])[0];
        p.push_result(&[out]);

        let gc = GarbageCollect.run(p);
        // age, c and name die at the projection: three markers appear
        let frees: Vec<&Instr> = gc.instrs.iter().filter(|i| i.op == OpCode::Free).collect();
        assert_eq!(frees.len(), 3);
        assert!(frees.iter().all(|i| i.results.is_empty()));
        // the program stays well-formed, and GC is idempotent
        analysis::verify(&gc).unwrap();
        let gc2 = GarbageCollect.run(gc.clone());
        assert_eq!(gc, gc2);
    }

    #[test]
    fn garbage_collect_skips_outputs() {
        let mut p = Program::new();
        let a = bind(&mut p, "t", "a");
        p.push_result(&[a]);
        let gc = GarbageCollect.run(p);
        assert!(gc.instrs.iter().all(|i| i.op != OpCode::Free));
    }

    #[test]
    fn dead_code_drops_vars_that_are_only_freed() {
        let mut p = Program::new();
        let a = bind(&mut p, "t", "a");
        let b = bind(&mut p, "t", "b");
        p.push(OpCode::Free, vec![Arg::Var(b)]); // b's only "use"
        p.push_result(&[a]);
        let out = DeadCode.run(p);
        assert_eq!(out.instrs.len(), 2); // bind a + result
        assert!(out.instrs.iter().all(|i| i.op != OpCode::Free));
    }

    #[test]
    fn cse_leaves_garbage_collected_plans_alone() {
        let mut p = Program::new();
        let a1 = bind(&mut p, "t", "a");
        let a2 = bind(&mut p, "t", "a"); // duplicate bind
        let s = p.push(
            OpCode::ThetaSelect(CmpOp::Eq),
            vec![Arg::Var(a2), Arg::Const(Value::I32(1))],
        )[0];
        p.push_result(&[s]);
        let _keep = a1;
        let gc = GarbageCollect.run(p);
        let out = CommonSubexpr.run(gc.clone());
        assert_eq!(out, gc, "CSE must not rewrite across language.pass");
    }

    #[test]
    fn checked_pipeline_reports_the_offending_pass() {
        struct Clobber;
        impl OptimizerPass for Clobber {
            fn name(&self) -> &'static str {
                "clobber"
            }
            fn run(&self, mut prog: Program) -> Program {
                // drop the first instruction: its result becomes undefined
                prog.instrs.remove(0);
                prog
            }
        }
        let mut p = Program::new();
        let a = bind(&mut p, "t", "a");
        let m = p.push(OpCode::Mirror, vec![Arg::Var(a)])[0];
        p.push_result(&[m]);

        let pl = Pipeline::new().with(Clobber).checked();
        let err = pl.try_optimize(p.clone()).unwrap_err();
        assert_eq!(err.pass, "clobber");
        assert!(matches!(
            err.error.kind,
            crate::analysis::VerifyErrorKind::UseBeforeDef { .. }
        ));
        assert!(err.to_string().contains("clobber"), "{err}");

        // a sound pipeline passes its own checks
        let pl = default_pipeline().with(GarbageCollect).checked();
        pl.try_optimize(p).unwrap();
    }

    #[test]
    fn default_pipeline_composes() {
        let pl = default_pipeline();
        assert_eq!(
            pl.pass_names(),
            vec!["constant_fold", "common_subexpression", "dead_code"]
        );
        let mut p = Program::new();
        let a1 = bind(&mut p, "t", "a");
        let _dead = bind(&mut p, "t", "zzz");
        let a2 = bind(&mut p, "t", "a"); // duplicate
        let s = p.push(
            OpCode::ThetaSelect(CmpOp::Lt),
            vec![Arg::Var(a2), Arg::Const(Value::I32(9))],
        )[0];
        p.push_result(&[s]);
        let _keep_a1_alive = a1;
        let out = pl.optimize(p);
        // bind(t.a) + select + result — dup bind and dead bind removed
        assert_eq!(out.instrs.len(), 3);
    }

    /// t.s is sorted 0..100 (statistics known); t.r is a scramble of the
    /// same values, so its interval is known but its order is not.
    fn props_catalog() -> Catalog {
        let mut cat = Catalog::new();
        let t = Table::from_bats(
            TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("s", LogicalType::I64),
                    ColumnDef::new("r", LogicalType::I64),
                ],
            ),
            vec![
                Bat::from_vec((0..100i64).collect::<Vec<_>>()),
                Bat::from_vec((0..100i64).map(|i| (i * 37) % 100).collect::<Vec<_>>()),
            ],
        )
        .unwrap();
        cat.create_table(t).unwrap();
        // twice as long as `t`: its oids overrun `t`'s columns
        let big = Table::from_bats(
            TableSchema::new("big", vec![ColumnDef::new("x", LogicalType::I64)]),
            vec![Bat::from_vec((0..200i64).collect::<Vec<_>>())],
        )
        .unwrap();
        cat.create_table(big).unwrap();
        cat
    }

    fn select_plan(col: &str, op: CmpOp, cut: i64) -> Program {
        let mut p = Program::new();
        let b = bind(&mut p, "t", col);
        let c = p.push(
            OpCode::ThetaSelect(op),
            vec![Arg::Var(b), Arg::Const(Value::I64(cut))],
        )[0];
        let v = p.push(OpCode::Projection, vec![Arg::Var(c), Arg::Var(b)])[0];
        p.push_result(&[v]);
        p
    }

    fn run_tail(cat: &Catalog, p: &Program) -> Vec<i64> {
        let out = Interpreter::new(cat).run(p).unwrap();
        out[0]
            .as_bat()
            .unwrap()
            .tail_slice::<i64>()
            .unwrap()
            .to_vec()
    }

    #[test]
    fn select_elimination_rewrites_trivial_selects() {
        let cat = props_catalog();
        let facts = analysis::column_facts(&cat);

        // every row < 1000: the select collapses into a mirror
        let p = select_plan("s", CmpOp::Lt, 1000);
        let out = SelectElimination::new(facts.clone()).run(p.clone());
        assert!(out.instrs.iter().any(|i| i.op == OpCode::Mirror));
        assert!(!out
            .instrs
            .iter()
            .any(|i| matches!(i.op, OpCode::ThetaSelect(_))));
        assert_eq!(run_tail(&cat, &p), run_tail(&cat, &out));

        // no row > 1000: the select collapses into an empty candidate list
        let p = select_plan("s", CmpOp::Gt, 1000);
        let out = SelectElimination::new(facts.clone()).run(p.clone());
        assert!(!out
            .instrs
            .iter()
            .any(|i| matches!(i.op, OpCode::ThetaSelect(_))));
        assert_eq!(run_tail(&cat, &p), Vec::<i64>::new());
        assert_eq!(run_tail(&cat, &out), Vec::<i64>::new());

        // a cut inside the interval: no proof, no rewrite
        let p = select_plan("r", CmpOp::Lt, 50);
        let out = SelectElimination::new(facts).run(p.clone());
        assert_eq!(out.instrs.len(), p.instrs.len());
    }

    /// `s < 1000` (all rows) → `r < 1000` over its candidates (all of
    /// them) → `r <op> cut` over those: the middle select dissolves into
    /// its candidate list, an accept-none tail becomes the empty prefix.
    fn threaded_plan(op: CmpOp, cut: i64) -> Program {
        let mut p = Program::new();
        let s = bind(&mut p, "t", "s");
        let r = bind(&mut p, "t", "r");
        let lt = |b: VarId, cand: Option<VarId>, op: CmpOp, cut: i64| {
            let mut args = vec![Arg::Var(b)];
            args.extend(cand.map(Arg::Var));
            args.push(Arg::Const(Value::I64(cut)));
            (OpCode::ThetaSelect(op), args)
        };
        let (o, a) = lt(s, None, CmpOp::Lt, 1000);
        let c1 = p.push(o, a)[0];
        let (o, a) = lt(r, Some(c1), CmpOp::Lt, 1000);
        let c2 = p.push(o, a)[0];
        let (o, a) = lt(r, Some(c2), op, cut);
        let c3 = p.push(o, a)[0];
        let v = p.push(OpCode::Projection, vec![Arg::Var(c3), Arg::Var(r)])[0];
        p.push_result(&[v]);
        p
    }

    #[test]
    fn select_elimination_over_candidate_lists() {
        let cat = props_catalog();
        let facts = analysis::column_facts(&cat);
        let thetas = |p: &Program| {
            p.instrs
                .iter()
                .filter(|i| matches!(i.op, OpCode::ThetaSelect(_)))
                .count()
        };
        // an undecided tail survives and now reads the first select's
        // mirror directly: the accept-all middle left no instruction
        let p = threaded_plan(CmpOp::Lt, 50);
        let out = default_pipeline_with_props(facts.clone()).optimize(p.clone());
        assert_eq!(thetas(&out), 1);
        let tail = out
            .instrs
            .iter()
            .find(|i| matches!(i.op, OpCode::ThetaSelect(_)))
            .unwrap();
        let mirror = out.instrs.iter().find(|i| i.op == OpCode::Mirror).unwrap();
        assert_eq!(tail.args[1], Arg::Var(mirror.results[0]));
        assert_eq!(run_tail(&cat, &p), run_tail(&cat, &out));
        assert_eq!(run_tail(&cat, &out).len(), 50);

        // an accept-none tail: no select is left at all
        let p = threaded_plan(CmpOp::Gt, 1000);
        let out = default_pipeline_with_props(facts.clone()).optimize(p.clone());
        assert_eq!(thetas(&out), 0);
        assert!(out.instrs.iter().any(|i| i.op == OpCode::Slice));
        assert_eq!(run_tail(&cat, &out), Vec::<i64>::new());

        // a list that may name rows the input lacks keeps its select:
        // dropping it would swallow the out-of-range error
        let mut p = Program::new();
        let x = bind(&mut p, "big", "x");
        let r = bind(&mut p, "t", "r");
        let all = |b: VarId| vec![Arg::Var(b), Arg::Const(Value::I64(1000))];
        let c1 = p.push(OpCode::ThetaSelect(CmpOp::Lt), all(x))[0];
        let mut args = all(r);
        args.insert(1, Arg::Var(c1));
        let c2 = p.push(OpCode::ThetaSelect(CmpOp::Lt), args)[0];
        p.push_result(&[c2]);
        let out = SelectElimination::new(facts).run(p);
        assert_eq!(thetas(&out), 1, "only the select over `big` is provable");
        assert!(matches!(
            Interpreter::new(&cat).run(&out),
            Err(mammoth_types::Error::OutOfRange { index: 100, .. })
        ));
    }

    #[test]
    fn select_elimination_keeps_type_error_behavior() {
        // i8 column, predicate constant outside the i8 range: the select
        // raises a type error at runtime, so the pass must leave it in
        // place even though the interval proof says "all rows match".
        let mut cat = Catalog::new();
        let t = Table::from_bats(
            TableSchema::new("t8", vec![ColumnDef::new("c", LogicalType::I8)]),
            vec![Bat::from_vec((0..10i8).collect::<Vec<_>>())],
        )
        .unwrap();
        cat.create_table(t).unwrap();
        let mut p = Program::new();
        let b = bind(&mut p, "t8", "c");
        let s = p.push(
            OpCode::ThetaSelect(CmpOp::Lt),
            vec![Arg::Var(b), Arg::Const(Value::I64(1000))],
        )[0];
        p.push_result(&[s]);
        let out = SelectElimination::new(analysis::column_facts(&cat)).run(p.clone());
        assert!(out
            .instrs
            .iter()
            .any(|i| matches!(i.op, OpCode::ThetaSelect(_))));
        assert!(Interpreter::new(&cat).run(&out).is_err());
    }

    #[test]
    fn sorted_select_specializes_to_annotated_range() {
        let cat = props_catalog();
        let facts = analysis::column_facts(&cat);
        for (op, cut) in [
            (CmpOp::Lt, 50),
            (CmpOp::Le, 50),
            (CmpOp::Gt, 97),
            (CmpOp::Ge, 0),
            (CmpOp::Eq, 42),
        ] {
            let p = select_plan("s", op, cut);
            let out = SortedSelect::new(facts.clone()).run(p.clone());
            assert!(
                out.instrs.iter().any(|i| i.op == OpCode::SetProps),
                "{op:?}"
            );
            assert!(
                out.instrs
                    .iter()
                    .any(|i| matches!(i.op, OpCode::RangeSelect { .. })),
                "{op:?}"
            );
            assert_eq!(run_tail(&cat, &p), run_tail(&cat, &out), "{op:?}");
        }
        // unsorted column: untouched
        let p = select_plan("r", CmpOp::Lt, 50);
        let out = SortedSelect::new(facts.clone()).run(p.clone());
        assert!(!out.instrs.iter().any(|i| i.op == OpCode::SetProps));
        // != is not range-expressible: untouched
        let p = select_plan("s", CmpOp::Ne, 50);
        let out = SortedSelect::new(facts).run(p.clone());
        assert!(!out
            .instrs
            .iter()
            .any(|i| matches!(i.op, OpCode::RangeSelect { .. })));
    }

    #[test]
    fn props_pipelines_preserve_answers() {
        let cat = props_catalog();
        let facts = analysis::column_facts(&cat);
        for (col, op, cut) in [
            ("s", CmpOp::Lt, 30),
            ("s", CmpOp::Gt, 1000),
            ("s", CmpOp::Lt, -5),
            ("s", CmpOp::Eq, 42),
            ("r", CmpOp::Ge, 50),
            ("r", CmpOp::Lt, 1000),
        ] {
            let p = select_plan(col, op, cut);
            let base = run_tail(&cat, &p);
            let opt = default_pipeline_with_props(facts.clone()).optimize(p);
            assert_eq!(base, run_tail(&cat, &opt), "{col} {op:?} {cut}");
        }
    }
}
