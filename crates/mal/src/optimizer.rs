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
//! to insert `language.pass` end-of-life markers.
//!
//! The pipeline is built to cost in proportion to the plan it rewrites
//! (`docs/MAL.md`, "What a pass may assume and what the pipeline
//! guarantees"):
//!
//! * a pass *owns* the [`Program`] it is handed and transforms it in
//!   place — no module copies its input;
//! * the property-driven passes share one abstract interpretation per
//!   pipeline run ([`SharedAnalysis`]), recomputed only after a pass
//!   actually changed the plan;
//! * a [`Pipeline::checked`] pipeline verifies with
//!   [`crate::analysis::verify`] the plan that will run, once, on exit;
//!   only when that fails does it replay the input pass by pass to name
//!   the offender. Debug builds verify after every pass.

use crate::analysis::props::{BatFacts, SelectVerdict};
use crate::analysis::{self, Analysis, PropFacts, VerifyError};
use crate::mitosis::{ColumnTypes, Mergetable, Mitosis};
use crate::program::{Arg, Instr, OpCode, Program, VarId};
use mammoth_algebra::{ArithOp, CmpOp};
use mammoth_types::Value;
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

#[cfg(test)]
mod differential;
mod fuse;
#[cfg(test)]
mod oracle;

pub use fuse::FusePipeline;

/// An optimizer module. `Send + Sync` so a [`Pipeline`] (and the session
/// holding it) can be shared across the network server's worker threads.
pub trait OptimizerPass: Send + Sync {
    fn name(&self) -> &'static str;

    /// Rewrite a plan. The pass owns `prog`: it transforms it in place and
    /// hands it back, untouched when it has nothing to do.
    fn run(&self, prog: Program) -> Program;

    /// [`OptimizerPass::run`] as one step of a pipeline run. A pass that
    /// reads the property analysis takes it from `shared`; a pass that
    /// changes the plan says so with [`SharedAnalysis::plan_changed`]. The
    /// default knows nothing about what `run` did, so it reports a change.
    fn run_with(&self, prog: Program, shared: &mut SharedAnalysis) -> Program {
        shared.plan_changed();
        self.run(prog)
    }
}

/// What the passes of one pipeline run share: the abstract interpretation
/// of the plan as it stands. It stays valid exactly as long as no pass
/// changes the plan, so a run whose property-driven passes all leave the
/// plan alone — the common case — walks it once.
#[derive(Default)]
pub struct SharedAnalysis {
    /// The facts the walk was seeded with and its result.
    current: Option<(Arc<PropFacts>, Analysis)>,
    /// How many walks this run has cost.
    walks: usize,
}

impl SharedAnalysis {
    /// The property analysis of `prog` seeded with `facts`: the one an
    /// earlier pass computed from the same facts if the plan has not
    /// changed since, a fresh walk otherwise. `None` when the plan carries
    /// a `bat.setprops` claim the analysis cannot confirm.
    pub fn get(&mut self, prog: &Program, facts: &Arc<PropFacts>) -> Option<&Analysis> {
        if !matches!(&self.current, Some((f, _)) if Arc::ptr_eq(f, facts)) {
            self.walks += 1;
            self.current = analysis::analyze_props_with_facts(prog, facts)
                .ok()
                .map(|an| (facts.clone(), an));
        }
        self.current.as_ref().map(|(_, an)| an)
    }

    /// The plan is no longer the one the analysis walked.
    pub fn plan_changed(&mut self) {
        self.current = None;
    }

    /// Abstract interpretations computed so far.
    pub fn walks(&self) -> usize {
        self.walks
    }
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

/// When a pipeline run verifies the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verify {
    Never,
    /// After every pass: the first ill-formed output names its pass.
    EachPass,
    /// Once, the plan that will run; the input is replayed pass by pass
    /// only if that fails.
    OnExit,
}

/// An ordered pipeline of modules.
///
/// A [`Pipeline::checked`] pipeline verifies the optimized plan; a pass
/// that emits an ill-formed program is reported by name via
/// [`Pipeline::try_optimize`] (or a panic from [`Pipeline::optimize`]).
/// Debug builds check every pipeline, after every pass.
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

    /// Verify the optimized plan even in release builds.
    pub fn checked(mut self) -> Pipeline {
        self.checked = true;
        self
    }

    /// Whether verification is active (always in debug builds).
    pub fn is_checked(&self) -> bool {
        self.checked || cfg!(debug_assertions)
    }

    /// Run all passes. When [`Pipeline::is_checked`], an ill-formed result
    /// is an error naming the pass that produced it.
    pub fn try_optimize(&self, prog: Program) -> Result<Program, Box<PassError>> {
        let verify = if cfg!(debug_assertions) {
            Verify::EachPass
        } else if self.checked {
            Verify::OnExit
        } else {
            Verify::Never
        };
        self.run_verifying(prog, verify)
    }

    fn run_verifying(&self, prog: Program, verify: Verify) -> Result<Program, Box<PassError>> {
        let Some(last) = self.passes.last() else {
            return Ok(prog);
        };
        if verify != Verify::OnExit {
            return self.run_passes(prog, verify == Verify::EachPass);
        }
        // the only copy the pipeline makes: what a replay would start from
        let input = prog.clone();
        let out = self.run_passes(prog, false)?;
        let Err(error) = analysis::verify(&out) else {
            return Ok(out);
        };
        // passes are deterministic, so the replay fails where this run
        // went wrong; should it not, the exit check's verdict stands
        let pass = last.name();
        self.run_passes(input, true)
            .and(Err(Box::new(PassError { pass, error })))
    }

    fn run_passes(&self, mut prog: Program, verify_each: bool) -> Result<Program, Box<PassError>> {
        let mut shared = SharedAnalysis::default();
        for p in &self.passes {
            prog = p.run_with(prog, &mut shared);
            if verify_each {
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

/// The pass order, written once: every pipeline a statement can be planned
/// with is this list with some of its passes left out. `fragments` (a piece
/// count and the bound columns' types, which keep float sums serial) adds
/// the multi-core passes; `facts` adds the three passes that rewrite on
/// per-column statistics. Invariant: `facts` must describe the catalog
/// state the plan executes against — the passes' proofs are only as sound
/// as their premises.
fn passes(fragments: Option<(usize, ColumnTypes)>, facts: Option<PropFacts>) -> Pipeline {
    let facts = facts.map(Arc::new);
    let parallel = fragments.is_some();
    let mut p = Pipeline::new().with(ConstantFold).with(CommonSubexpr);
    // before mitosis: a select proven trivial is not fragmented at all
    if let Some(facts) = &facts {
        p = p.with(SelectElimination::new(facts.clone()));
    }
    if let Some((pieces, types)) = fragments {
        p = p
            .with(Mitosis::new(pieces))
            .with(Mergetable::with_types(types));
    }
    // after mergetable: a fragment's `algebra.slice` inherits the base
    // column's order through the analysis's exact slice transfer function,
    // so each fragment's select gets its own binary-search annotation
    if let Some(facts) = &facts {
        p = p.with(SortedSelect::new(facts.clone()));
    }
    // before fusion: a fetch nobody reads any more, or an unused fragment,
    // must not look like a reader of its candidate list
    p = p.with(DeadCode);
    // what is still a filter → fetch → sink chain — under mitosis each
    // fragment's, on its own slice, the partials still meeting in
    // `mat.packsum` / `mat.pack` — becomes one instruction, which leaves
    // nothing dead behind
    if let Some(facts) = facts {
        p = p.with(FusePipeline::new(facts));
    }
    // end-of-life markers go in last
    if parallel {
        p = p.with(GarbageCollect);
    }
    p
}

/// The serial, fact-free view of the pass list (mirrors MonetDB's
/// default optimizer chain in spirit): folding, CSE, dead code. Unchecked
/// outside debug builds — it rewrites on the plan text alone.
pub fn default_pipeline() -> Pipeline {
    passes(None, None)
}

/// What a serial session plans with: the pass list less the multi-core
/// passes, [`Pipeline::checked`] because the fact-driven passes rewrite on
/// premises external to the plan text. `facts` come from
/// [`analysis::column_facts`] or [`analysis::bound_column_facts`].
pub fn default_pipeline_with_props(facts: PropFacts) -> Pipeline {
    passes(None, Some(facts)).checked()
}

/// The multi-core view without the fact-driven passes: the default chain
/// around mitosis + mergetable, then end-of-life markers — verified even
/// in release.
pub fn parallel_pipeline(pieces: usize, types: ColumnTypes) -> Pipeline {
    passes(Some((pieces, types)), None).checked()
}

/// What a dataflow session plans with: the whole pass list.
pub fn parallel_pipeline_with_props(
    pieces: usize,
    types: ColumnTypes,
    facts: PropFacts,
) -> Pipeline {
    passes(Some((pieces, types)), Some(facts)).checked()
}

fn has_end_of_life_markers(prog: &Program) -> bool {
    prog.instrs.iter().any(|i| i.op == OpCode::Free)
}

/// Fold `batcalc` instructions whose *both* operands are constants, and
/// canonicalize constant-only arithmetic in arguments.
pub struct ConstantFold;

impl OptimizerPass for ConstantFold {
    fn name(&self) -> &'static str {
        "constant_fold"
    }

    fn run(&self, prog: Program) -> Program {
        self.run_with(prog, &mut SharedAnalysis::default())
    }

    fn run_with(&self, mut prog: Program, shared: &mut SharedAnalysis) -> Program {
        // In this instruction set only scalar+scalar Calc can fold; the SQL
        // front-end already folds most of those, so the pass mainly
        // normalizes `x := calc(const, const)` produced by generators.
        let before = prog.instrs.len();
        let mut folded: HashMap<VarId, Value> = HashMap::new();
        prog.instrs.retain_mut(|i| {
            // replace args that reference folded vars
            if !folded.is_empty() {
                for a in &mut i.args {
                    if let Arg::Var(v) = a {
                        if let Some(c) = folded.get(v) {
                            *a = Arg::Const(c.clone());
                        }
                    }
                }
            }
            // a freed var that folded to a constant has nothing left to
            // release — the marker disappears with the instruction
            if i.op == OpCode::Free && matches!(i.args.first(), Some(Arg::Const(_))) {
                return false;
            }
            if let OpCode::Calc(op) = &i.op {
                if let (Some(Arg::Const(a)), Some(Arg::Const(b))) = (i.args.first(), i.args.get(1))
                {
                    if let Some(c) = fold_arith(*op, a, b) {
                        folded.insert(i.results[0], c);
                        return false; // instruction disappears
                    }
                }
            }
            true
        });
        // arguments are only ever substituted after a fold removed its
        // instruction, so the length tells whether anything happened
        if prog.instrs.len() != before {
            shared.plan_changed();
        }
        prog
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
///
/// Identity is structural: the opcode and every argument, constants by
/// variant and value, floats by bit pattern — `-0.0` and `0.0`, or two
/// NaNs of different payload, are different constants.
pub struct CommonSubexpr;

fn hash_computation(i: &Instr) -> u64 {
    let mut h = DefaultHasher::new();
    i.op.hash(&mut h);
    for a in &i.args {
        std::mem::discriminant(a).hash(&mut h);
        match a {
            Arg::Var(v) | Arg::Param(v) => v.hash(&mut h),
            Arg::Const(c) => {
                std::mem::discriminant(c).hash(&mut h);
                match c {
                    Value::Null => {}
                    Value::Bool(x) => x.hash(&mut h),
                    Value::I8(x) => x.hash(&mut h),
                    Value::I16(x) => x.hash(&mut h),
                    Value::I32(x) => x.hash(&mut h),
                    Value::I64(x) => x.hash(&mut h),
                    Value::F64(x) => x.to_bits().hash(&mut h),
                    Value::Str(x) => x.hash(&mut h),
                    Value::Oid(x) => x.hash(&mut h),
                }
            }
        }
    }
    h.finish()
}

fn same_computation(a: &Instr, b: &Instr) -> bool {
    a.op == b.op
        && a.args.len() == b.args.len()
        && a.args.iter().zip(&b.args).all(|pair| match pair {
            (Arg::Const(Value::F64(x)), Arg::Const(Value::F64(y))) => x.to_bits() == y.to_bits(),
            (x, y) => x == y,
        })
}

impl OptimizerPass for CommonSubexpr {
    fn name(&self) -> &'static str {
        "common_subexpression"
    }

    fn run(&self, prog: Program) -> Program {
        self.run_with(prog, &mut SharedAnalysis::default())
    }

    fn run_with(&self, mut prog: Program, shared: &mut SharedAnalysis) -> Program {
        // Merging duplicates across `language.pass` markers is unsound:
        // redirecting uses onto the surviving var could read it after its
        // free. GC runs last in practice, so just leave such plans alone.
        if has_end_of_life_markers(&prog) {
            return prog;
        }
        let instrs = &mut prog.instrs;
        // hash of a kept pure instruction -> its position; two different
        // instructions of one hash probe on to the next free key
        let mut seen: HashMap<u64, usize> = HashMap::with_capacity(instrs.len());
        // results of dropped duplicates -> the surviving results
        let mut replace: HashMap<VarId, VarId> = HashMap::new();
        let mut kept = 0;
        for idx in 0..instrs.len() {
            if !replace.is_empty() {
                for a in &mut instrs[idx].args {
                    if let Arg::Var(v) = a {
                        if let Some(&r) = replace.get(v) {
                            *a = Arg::Var(r);
                        }
                    }
                }
            }
            if instrs[idx].op.is_pure() {
                let mut key = hash_computation(&instrs[idx]);
                let earlier = loop {
                    match seen.entry(key) {
                        Entry::Vacant(slot) => {
                            slot.insert(kept);
                            break None;
                        }
                        Entry::Occupied(slot) => {
                            let prev = *slot.get();
                            if same_computation(&instrs[prev], &instrs[idx]) {
                                break Some(prev);
                            }
                            key = key.wrapping_add(1);
                        }
                    }
                };
                if let Some(prev) = earlier {
                    let (head, tail) = instrs.split_at(idx);
                    for (mine, theirs) in tail[0].results.iter().zip(&head[prev].results) {
                        replace.insert(*mine, *theirs);
                    }
                    continue;
                }
            }
            instrs.swap(kept, idx);
            kept += 1;
        }
        if kept != instrs.len() {
            instrs.truncate(kept);
            shared.plan_changed();
        }
        prog
    }
}

/// Remove pure instructions none of whose results are ever used.
pub struct DeadCode;

impl OptimizerPass for DeadCode {
    fn name(&self) -> &'static str {
        "dead_code"
    }

    fn run(&self, prog: Program) -> Program {
        self.run_with(prog, &mut SharedAnalysis::default())
    }

    fn run_with(&self, mut prog: Program, shared: &mut SharedAnalysis) -> Program {
        let start = prog.instrs.len();
        let mut used = vec![false; prog.nvars()];
        let mut defined = vec![false; prog.nvars()];
        // iterate to a fixed point (removing one instruction can orphan its
        // inputs)
        loop {
            used.fill(false);
            for i in &prog.instrs {
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
            let before = prog.instrs.len();
            prog.instrs
                .retain(|i| !i.op.is_pure() || i.results.iter().any(|r| used[*r]));
            defined.fill(false);
            for i in &prog.instrs {
                for &r in &i.results {
                    defined[r] = true;
                }
            }
            prog.instrs.retain(|i| {
                i.op != OpCode::Free || matches!(i.args.first(), Some(Arg::Var(v)) if defined[*v])
            });
            if prog.instrs.len() == before {
                break;
            }
        }
        if prog.instrs.len() != start {
            shared.plan_changed();
        }
        prog
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
        self.run_with(prog, &mut SharedAnalysis::default())
    }

    fn run_with(&self, mut prog: Program, shared: &mut SharedAnalysis) -> Program {
        let lv = analysis::analyze_liveness(&prog);
        let markers: usize = prog
            .instrs
            .iter()
            .enumerate()
            .map(|(idx, i)| released_after(&lv, idx, &i.op).len())
            .sum();
        if markers == 0 {
            return prog;
        }
        let old = std::mem::take(&mut prog.instrs);
        prog.instrs.reserve_exact(old.len() + markers);
        for (idx, instr) in old.into_iter().enumerate() {
            let dying = released_after(&lv, idx, &instr.op);
            prog.instrs.push(instr);
            prog.instrs.extend(dying.iter().map(|&v| Instr {
                results: vec![],
                op: OpCode::Free,
                args: vec![Arg::Var(v)],
            }));
        }
        shared.plan_changed();
        prog
    }
}

/// The variables to release right after instruction `idx`: those whose
/// life ends there. Outputs die at io.result (nothing follows); a pass's
/// operand is already released by the pass itself.
fn released_after<'a>(lv: &'a analysis::Liveness, idx: usize, op: &OpCode) -> &'a [VarId] {
    match op {
        OpCode::Result | OpCode::Free => &[],
        _ => &lv.dies_at[idx],
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
    facts: Arc<PropFacts>,
}

impl SelectElimination {
    /// `facts` by value or as the `Arc` the pipeline's other
    /// property-driven passes hold — sharing it is what lets them share
    /// one analysis.
    pub fn new(facts: impl Into<Arc<PropFacts>>) -> SelectElimination {
        SelectElimination {
            facts: facts.into(),
        }
    }

    fn verdict(an: &Analysis, instr: &Instr) -> SelectVerdict {
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
        analysis::props::select_verdict(f, &instr.op, sel.bounds)
    }
}

fn arg_facts<'a>(an: &'a Analysis, a: &Arg) -> Option<&'a BatFacts> {
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
        self.run_with(prog, &mut SharedAnalysis::default())
    }

    fn run_with(&self, mut prog: Program, shared: &mut SharedAnalysis) -> Program {
        if has_end_of_life_markers(&prog) {
            return prog;
        }
        let Some(an) = shared.get(&prog, &self.facts) else {
            return prog;
        };
        // most plans hold no selection the intervals decide, and stay as
        // they are; otherwise everything before the first one does
        let decided = |i: &Instr| Self::verdict(an, i) != SelectVerdict::Unknown;
        let Some(first) = prog.instrs.iter().position(decided) else {
            return prog;
        };
        let tail = prog.instrs.split_off(first);
        // results proven equal to their candidate list: var -> that list
        let mut alias: HashMap<VarId, VarId> = HashMap::new();
        for mut instr in tail {
            for a in &mut instr.args {
                if let Arg::Var(v) = a {
                    if let Some(&c) = alias.get(v) {
                        *a = Arg::Var(c);
                    }
                }
            }
            let cand = instr.select_args().and_then(|s| s.cand.cloned());
            match (Self::verdict(an, &instr), cand) {
                // accept-all of a candidate list is the list itself
                (SelectVerdict::All, Some(Arg::Var(c))) => {
                    alias.insert(instr.results[0], c);
                }
                (SelectVerdict::All, None) => {
                    instr.op = OpCode::Mirror;
                    instr.args.truncate(1);
                    prog.instrs.push(instr);
                }
                // accept-none of a candidate list is its empty prefix
                (SelectVerdict::None, Some(c)) => {
                    prog.instrs.push(empty_prefix(instr.results, c));
                }
                (SelectVerdict::None, None) => {
                    let empty = prog.var();
                    let input = instr.args.swap_remove(0);
                    prog.instrs.push(empty_prefix(vec![empty], input));
                    prog.instrs.push(Instr {
                        results: instr.results,
                        op: OpCode::Mirror,
                        args: vec![Arg::Var(empty)],
                    });
                }
                _ => prog.instrs.push(instr),
            }
        }
        shared.plan_changed();
        prog
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
    facts: Arc<PropFacts>,
}

impl SortedSelect {
    /// See [`SelectElimination::new`] on sharing `facts`.
    pub fn new(facts: impl Into<Arc<PropFacts>>) -> SortedSelect {
        SortedSelect {
            facts: facts.into(),
        }
    }

    /// The proven-sorted input of a selection this pass rewrites.
    fn sorted_input(an: &Analysis, instr: &Instr) -> Option<VarId> {
        let Some(Arg::Var(v)) = instr.args.first() else {
            return None;
        };
        an.bat_facts(*v)
            .filter(|f| f.props.sorted && f.props.nonil)?;
        let rewritable = match &instr.op {
            OpCode::ThetaSelect(op) => {
                *op != CmpOp::Ne
                    && matches!(instr.select_args()?.bounds, [Arg::Const(c)] if !c.is_null())
            }
            OpCode::RangeSelect { .. } => true,
            _ => false,
        };
        rewritable.then_some(*v)
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
        self.run_with(prog, &mut SharedAnalysis::default())
    }

    fn run_with(&self, mut prog: Program, shared: &mut SharedAnalysis) -> Program {
        if has_end_of_life_markers(&prog) {
            return prog;
        }
        let Some(an) = shared.get(&prog, &self.facts) else {
            return prog;
        };
        // a plan with no selection over a proven-sorted input stays as it
        // is; otherwise everything before the first one does
        let rewritten = |i: &Instr| Self::sorted_input(an, i).is_some();
        let Some(first) = prog.instrs.iter().position(rewritten) else {
            return prog;
        };
        let tail = prog.instrs.split_off(first);
        let mut annotated: HashMap<VarId, VarId> = HashMap::new();
        for mut instr in tail {
            if let Some(v) = Self::sorted_input(an, &instr) {
                let sv = Self::annotate(&mut prog, &mut annotated, v);
                instr.args[0] = Arg::Var(sv);
                if let OpCode::ThetaSelect(op) = instr.op {
                    // the candidate list, when present, stays in place
                    let cst = instr.args.pop().expect("a rewritable select has its bound");
                    let nil = || Arg::Const(Value::Null);
                    let (range, lo, hi) = match op {
                        CmpOp::Lt => (range_op(true, false), nil(), cst),
                        CmpOp::Le => (range_op(true, true), nil(), cst),
                        CmpOp::Gt => (range_op(false, true), cst, nil()),
                        CmpOp::Ge => (range_op(true, true), cst, nil()),
                        CmpOp::Eq => (range_op(true, true), cst.clone(), cst),
                        CmpOp::Ne => unreachable!("not rewritable"),
                    };
                    instr.op = range;
                    instr.args.extend([lo, hi]);
                }
            }
            prog.instrs.push(instr);
        }
        shared.plan_changed();
        prog
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

    /// What a release build's checked pipeline does, driven directly: one
    /// verification of the final plan, and a replay of the input that
    /// names the offender only when that fails.
    #[test]
    fn verify_on_exit_replays_to_name_the_offending_pass() {
        struct Clobber;
        impl OptimizerPass for Clobber {
            fn name(&self) -> &'static str {
                "clobber"
            }
            fn run(&self, mut prog: Program) -> Program {
                prog.instrs.remove(0);
                prog
            }
        }
        let mut p = Program::new();
        let a = bind(&mut p, "t", "a");
        let m = p.push(OpCode::Mirror, vec![Arg::Var(a)])[0];
        p.push_result(&[m]);

        // the offender sits mid-pipeline, and the pass after it would not
        // have been blamed by a check that only sees the final plan
        let pl = Pipeline::new()
            .with(ConstantFold)
            .with(Clobber)
            .with(GarbageCollect)
            .checked();
        for verify in [Verify::OnExit, Verify::EachPass] {
            let err = pl.run_verifying(p.clone(), verify).unwrap_err();
            assert_eq!(err.pass, "clobber", "{verify:?}");
            assert!(matches!(
                err.error.kind,
                crate::analysis::VerifyErrorKind::UseBeforeDef { .. }
            ));
        }
        // unchecked, the broken plan is the caller's problem
        assert!(pl.run_verifying(p.clone(), Verify::Never).is_ok());

        // a sound pipeline: the exit check returns what the passes made
        let pl = default_pipeline().with(GarbageCollect).checked();
        let plain = pl.run_verifying(p.clone(), Verify::Never).unwrap();
        assert_eq!(pl.run_verifying(p, Verify::OnExit).unwrap(), plain);
    }

    /// The four constructors are views of one pass list, and `benchmark/`
    /// and `tests/compile_budget.rs` replay two of them: what each runs is
    /// pinned here.
    #[test]
    fn the_four_pipelines_keep_their_pass_lists() {
        let facts = PropFacts::default;
        let types = ColumnTypes::new;
        assert_eq!(
            default_pipeline_with_props(facts()).pass_names(),
            [
                "constant_fold",
                "common_subexpression",
                "select_elimination",
                "sorted_select",
                "dead_code",
                "fuse_pipeline"
            ]
        );
        assert_eq!(
            parallel_pipeline(4, types()).pass_names(),
            [
                "constant_fold",
                "common_subexpression",
                "mitosis",
                "mergetable",
                "dead_code",
                "garbage_collect"
            ]
        );
        assert_eq!(
            parallel_pipeline_with_props(4, types(), facts()).pass_names(),
            [
                "constant_fold",
                "common_subexpression",
                "select_elimination",
                "mitosis",
                "mergetable",
                "sorted_select",
                "dead_code",
                "fuse_pipeline",
                "garbage_collect"
            ]
        );
        // release builds verify all of them but the fact-free serial one
        assert!(!default_pipeline().checked && parallel_pipeline(4, types()).checked);
        assert!(default_pipeline_with_props(facts()).checked);
        assert!(parallel_pipeline_with_props(4, types(), facts()).checked);
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
