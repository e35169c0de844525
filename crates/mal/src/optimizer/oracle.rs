//! The optimizer passes as they were before they rewrote in place.
//!
//! Every pass used to deep-copy the [`Program`] it was handed, rebuild the
//! instruction vector from clones, and — the property-driven ones — run
//! an abstract interpretation of its own; `CommonSubexpr` keyed
//! instructions on their `Debug` rendering. Those bodies live on here,
//! unchanged, as the oracle the in-place passes are checked against (the
//! pattern of `crates/algebra/src/oracle.rs`): same program, pass by pass
//! and end to end.
//!
//! One documented difference: the old CSE key rendered every NaN as
//! `"NaN"` and so merged instructions whose NaN constants differ in
//! payload; the structural key compares floats by bit pattern and keeps
//! them apart. No plan below carries two distinct NaNs.

use super::*;

pub(super) struct ConstantFoldOracle;

impl OptimizerPass for ConstantFoldOracle {
    fn name(&self) -> &'static str {
        "constant_fold"
    }

    fn run(&self, prog: Program) -> Program {
        let mut out = prog.clone();
        let mut folded: HashMap<usize, Value> = HashMap::new();
        out.instrs = prog
            .instrs
            .into_iter()
            .filter_map(|mut i| {
                for a in &mut i.args {
                    if let Arg::Var(v) = a {
                        if let Some(c) = folded.get(v) {
                            *a = Arg::Const(c.clone());
                        }
                    }
                }
                if i.op == OpCode::Free && matches!(i.args.first(), Some(Arg::Const(_))) {
                    return None;
                }
                if let OpCode::Calc(op) = &i.op {
                    if let (Some(Arg::Const(a)), Some(Arg::Const(b))) =
                        (i.args.first(), i.args.get(1))
                    {
                        if let Some(c) = fold_arith(*op, a, b) {
                            folded.insert(i.results[0], c);
                            return None;
                        }
                    }
                }
                Some(i)
            })
            .collect();
        out
    }
}

pub(super) struct CommonSubexprOracle;

impl OptimizerPass for CommonSubexprOracle {
    fn name(&self) -> &'static str {
        "common_subexpression"
    }

    fn run(&self, prog: Program) -> Program {
        if prog.instrs.iter().any(|i| i.op == OpCode::Free) {
            return prog;
        }
        let mut seen: HashMap<String, Vec<usize>> = HashMap::new();
        let mut replace: HashMap<usize, usize> = HashMap::new();
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

pub(super) struct DeadCodeOracle;

impl OptimizerPass for DeadCodeOracle {
    fn name(&self) -> &'static str {
        "dead_code"
    }

    fn run(&self, prog: Program) -> Program {
        let mut instrs = prog.instrs.clone();
        loop {
            let mut used = vec![false; prog.nvars()];
            for i in &instrs {
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

pub(super) struct GarbageCollectOracle;

impl OptimizerPass for GarbageCollectOracle {
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

pub(super) struct SelectEliminationOracle(pub analysis::PropFacts);

impl OptimizerPass for SelectEliminationOracle {
    fn name(&self) -> &'static str {
        "select_elimination"
    }

    fn run(&self, prog: Program) -> Program {
        if prog.instrs.iter().any(|i| i.op == OpCode::Free) {
            return prog;
        }
        let Ok(an) = analysis::analyze_props_with_facts(&prog, &self.0) else {
            return prog;
        };
        let mut out = prog.clone();
        out.instrs = Vec::with_capacity(prog.instrs.len());
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
            match (SelectElimination::verdict(&an, &instr), cand) {
                (SelectVerdict::All, Some(Arg::Var(c))) => {
                    alias.insert(results[0], c);
                }
                (SelectVerdict::All, None) => out.instrs.push(Instr {
                    results,
                    op: OpCode::Mirror,
                    args: vec![instr.args[0].clone()],
                }),
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

pub(super) struct SortedSelectOracle(pub analysis::PropFacts);

impl OptimizerPass for SortedSelectOracle {
    fn name(&self) -> &'static str {
        "sorted_select"
    }

    fn run(&self, prog: Program) -> Program {
        if prog.instrs.iter().any(|i| i.op == OpCode::Free) {
            return prog;
        }
        let Ok(an) = analysis::analyze_props_with_facts(&prog, &self.0) else {
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
                    let sv = SortedSelect::annotate(&mut out, &mut annotated, v);
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
                    let sv = SortedSelect::annotate(&mut out, &mut annotated, v);
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
