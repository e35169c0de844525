//! Horizontal parallelization: the `mitosis` and `mergetable` optimizer
//! modules (MonetDB's multi-core path).
//!
//! [`Mitosis`] splits every base-column `sql.bind` into `k` range fragments
//! via `algebra.slice(b, i, k)`. Fragments keep their void head with the
//! absolute seqbase, so fragment `i` addresses the same rows as positions
//! `[i*n/k, (i+1)*n/k)` of the parent — selections over a fragment emit
//! *absolute* base oids, which is what makes fragment-wise rewriting sound.
//!
//! [`Mergetable`] then propagates operators fragment-wise where the oid
//! spaces provably line up, and re-merges everywhere else:
//!
//! * `thetaselect`/`select` over a **range-aligned** fragment group → one
//!   select per fragment, yielding absolute-oid candidate fragments; a
//!   candidate argument cut along the same ranges is consumed fragment by
//!   fragment, any other one is packed and the select stays whole;
//! * `projection(cands_i, base)` when the candidate fragments carry
//!   absolute oids and the value operand is a full base column → one fetch
//!   per fragment;
//! * `batcalc` over one fragment group (with a scalar) or two groups of the
//!   same lineage → element-wise per fragment;
//! * `aggr.sum` / `aggr.count_nonnil` / `aggr.count` over a fragment group
//!   → per-fragment partials merged by `mat.packsum` (integer sums only:
//!   float addition is not associative, so f64 sums stay serial to remain
//!   bit-identical to the serial interpreter);
//! * every other consumer of a fragment group reads the whole value: a
//!   `mat.pack(f_0, …, f_k-1)` is emitted (once) right before the first
//!   such consumer, *defining the original variable id*, so downstream
//!   instructions need no rewriting at all.
//!
//! Selections over *derived* (seqbase-0) fragments are deliberately **not**
//! propagated: their candidates would be fragment-local positions, and
//! packing those would corrupt the plan. The pass tracks, per fragment
//! group, whether tails hold absolute base oids, fragment-local values, or
//! the base rows themselves, and only fires a rewrite when the rule's space
//! precondition holds. Everything it cannot prove stays serial — the
//! fallback is always the packed (or original) value, never a wrong one.
//!
//! Both passes are plain `Program → Program` rewrites that move the
//! instructions they keep, so
//! [`Pipeline::checked`](crate::optimizer::Pipeline::checked) verifies
//! their output like any other module's.

use crate::optimizer::OptimizerPass;
use crate::program::{Arg, Instr, OpCode, Program, VarId};
use mammoth_algebra::AggKind;
use mammoth_storage::Catalog;
use mammoth_types::{LogicalType, Value};
use std::collections::HashMap;

/// Column types keyed by `(table, column)`, used by
/// [`Mergetable`] to keep float sums serial. Snapshot with
/// [`column_types`].
pub type ColumnTypes = HashMap<(String, String), LogicalType>;

/// Snapshot the catalog's column types for [`Mergetable::with_types`].
pub fn column_types(catalog: &Catalog) -> ColumnTypes {
    let mut out = ColumnTypes::new();
    for name in catalog.table_names() {
        if let Ok(t) = catalog.table(name) {
            for c in &t.schema.columns {
                out.insert((name.to_string(), c.name.clone()), c.ty);
            }
        }
    }
    out
}

/// [`column_types`] for the columns `prog` binds and no others — all that
/// [`Mergetable`] looks up.
pub fn bound_column_types(prog: &Program, catalog: &Catalog) -> ColumnTypes {
    let mut out = ColumnTypes::new();
    for (t, c) in prog.bound_columns() {
        let def = catalog.table(t).and_then(|t| t.schema.column(c));
        if let Ok((_, def)) = def {
            out.insert((t.to_string(), c.to_string()), def.ty);
        }
    }
    out
}

/// Split every `sql.bind` into `pieces` horizontal fragments.
pub struct Mitosis {
    pieces: usize,
}

impl Mitosis {
    pub fn new(pieces: usize) -> Mitosis {
        Mitosis { pieces }
    }
}

impl OptimizerPass for Mitosis {
    fn name(&self) -> &'static str {
        "mitosis"
    }

    fn run(&self, mut prog: Program) -> Program {
        // fragmenting across end-of-life markers would need free-site
        // surgery; mitosis runs before garbage collection
        if self.pieces < 2 || prog.instrs.iter().any(|i| i.op == OpCode::Free) {
            return prog;
        }
        let binds = prog.instrs.iter().filter(|i| i.op == OpCode::Bind).count();
        let old = std::mem::take(&mut prog.instrs);
        prog.instrs.reserve_exact(old.len() + binds * self.pieces);
        for instr in old {
            let is_bind = instr.op == OpCode::Bind;
            let src = instr.results.first().copied();
            prog.instrs.push(instr);
            if let (true, Some(src)) = (is_bind, src) {
                for i in 0..self.pieces {
                    let r = prog.var();
                    prog.instrs.push(Instr {
                        results: vec![r],
                        op: OpCode::PartSlice,
                        args: vec![
                            Arg::Var(src),
                            Arg::Const(Value::I64(i as i64)),
                            Arg::Const(Value::I64(self.pieces as i64)),
                        ],
                    });
                }
            }
        }
        prog
    }
}

/// What a fragment group's tails hold, relative to the base row space.
/// Public so the shard scatter-gather combine builder ([`crate::combine`])
/// can tag network-delivered fragment groups with the same taxonomy the
/// in-process mergetable uses, and gate merges on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Range-aligned slices of a base column: fragment heads are void with
    /// the absolute seqbase, and packing them reproduces the original.
    AlignedBase,
    /// Candidate fragments whose tails are absolute base oids (selects
    /// over [`Kind::AlignedBase`] fragments).
    AbsCands,
    /// Value fragments in fragment-local (seqbase-0) space, aligned with
    /// the candidate group of the same lineage; packing concatenates them
    /// in fragment order, matching the serial result.
    LocalValues,
}

/// Which selection a fragment group is row-aligned with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lineage {
    /// The base rows of a table: all bind fragments of one table share it.
    Table(String),
    /// The candidate group born at this instruction index.
    Instr(usize),
}

struct Group {
    parts: Vec<VarId>,
    kind: Kind,
    ty: Option<LogicalType>,
    lineage: Lineage,
    /// The table whose fragment ranges cut this group: fragment `i` holds
    /// (for base slices) or names (for candidates) rows of range `i` only.
    /// Every bind of one table is sliced into the same ranges.
    table: Option<String>,
    /// Whether `<var> := mat.pack(parts…)` has been emitted already.
    packed: bool,
}

impl Group {
    /// Whether this candidate group is cut along the fragment ranges of
    /// the base group `base`.
    fn aligned_with(&self, base: &Group) -> bool {
        self.kind == Kind::AbsCands
            && self.table.is_some()
            && self.table == base.table
            && self.parts.len() == base.parts.len()
    }
}

/// Propagate operators fragment-wise through a mitosis-sliced plan and
/// insert `mat.pack` / `mat.packsum` merges.
#[derive(Default)]
pub struct Mergetable {
    types: ColumnTypes,
}

impl Mergetable {
    pub fn new() -> Mergetable {
        Mergetable::default()
    }

    /// Knowing column types lets the pass merge integer sums with
    /// `mat.packsum` while keeping f64 sums serial.
    pub fn with_types(types: ColumnTypes) -> Mergetable {
        Mergetable { types }
    }
}

impl OptimizerPass for Mergetable {
    fn name(&self) -> &'static str {
        "mergetable"
    }

    fn run(&self, prog: Program) -> Program {
        if prog.instrs.iter().any(|i| i.op == OpCode::Free) {
            return prog;
        }
        // nothing to propagate through a plan mitosis did not slice
        if !prog.instrs.iter().any(|i| i.op == OpCode::PartSlice) {
            return prog;
        }
        Rewriter {
            types: &self.types,
            groups: HashMap::new(),
            binds: HashMap::new(),
            out: prog,
        }
        .run()
    }
}

struct Rewriter<'a> {
    types: &'a ColumnTypes,
    /// Fragment groups keyed by the variable they fragment.
    groups: HashMap<VarId, Group>,
    /// `sql.bind` results: table name and column type.
    binds: HashMap<VarId, (String, Option<LogicalType>)>,
    out: Program,
}

impl Rewriter<'_> {
    fn run(mut self) -> Program {
        let instrs = std::mem::take(&mut self.out.instrs);
        self.out.instrs.reserve(instrs.len());
        // collect complete fragment groups emitted by mitosis:
        // src -> [(i, k, var)]
        let mut frags: HashMap<VarId, Vec<(i64, i64, VarId)>> = HashMap::new();
        for i in &instrs {
            if i.op == OpCode::PartSlice {
                if let [Arg::Var(src), Arg::Const(a), Arg::Const(b)] = &i.args[..] {
                    if let (Some(x), Some(k)) = (a.as_i64(), b.as_i64()) {
                        frags.entry(*src).or_default().push((x, k, i.results[0]));
                    }
                }
            }
        }

        for (idx, instr) in instrs.into_iter().enumerate() {
            match &instr.op {
                OpCode::Bind => {
                    if let [Arg::Const(Value::Str(t)), Arg::Const(Value::Str(c))] = &instr.args[..]
                    {
                        let key = (t.clone(), c.clone());
                        let ty = self.types.get(&key).copied();
                        self.binds.insert(instr.results[0], (key.0, ty));
                    }
                    self.out.instrs.push(instr);
                }
                OpCode::PartSlice => {
                    // once the last fragment of a complete bind group is in
                    // place, the source becomes a range-aligned group
                    if let Some(&Arg::Var(src)) = instr.args.first() {
                        if instr.results[0] == last_of_complete_group(&frags, src) {
                            if let Some((table, ty)) = self.binds.get(&src).cloned() {
                                let mut parts = frags[&src].clone();
                                parts.sort_by_key(|&(i, _, _)| i);
                                self.groups.insert(
                                    src,
                                    Group {
                                        parts: parts.iter().map(|&(_, _, v)| v).collect(),
                                        kind: Kind::AlignedBase,
                                        ty,
                                        lineage: Lineage::Table(table.clone()),
                                        table: Some(table),
                                        packed: true, // the bind itself is the whole
                                    },
                                );
                            }
                        }
                    }
                    self.out.instrs.push(instr);
                }
                OpCode::ThetaSelect(_) | OpCode::RangeSelect { .. } => {
                    self.rewrite_select(idx, instr);
                }
                OpCode::Projection => {
                    self.rewrite_projection(instr);
                }
                OpCode::Calc(_) => {
                    self.rewrite_calc(instr);
                }
                OpCode::Aggr(AggKind::Sum) | OpCode::Aggr(AggKind::Count) | OpCode::Count => {
                    self.rewrite_aggregate(instr);
                }
                _ => {
                    // a consumer with no fragment rule reads whole values
                    self.push_with_whole_args(instr);
                }
            }
        }
        self.out
    }

    /// Emit the instruction, packing any fragment-group argument back into
    /// its original variable first.
    fn push_with_whole_args(&mut self, instr: Instr) {
        for a in &instr.args {
            if let Arg::Var(v) = a {
                self.ensure_whole(*v);
            }
        }
        self.out.instrs.push(instr);
    }

    /// Make sure `v` is defined as a whole BAT: for a fragment group whose
    /// pack has not been emitted yet, emit `v := mat.pack(parts…)` here.
    fn ensure_whole(&mut self, v: VarId) {
        if let Some(g) = self.groups.get_mut(&v) {
            if !g.packed {
                g.packed = true;
                let args = g.parts.iter().map(|&p| Arg::Var(p)).collect();
                self.out.instrs.push(Instr {
                    results: vec![v],
                    op: OpCode::Pack,
                    args,
                });
            }
        }
    }

    /// Selections propagate only over range-aligned base fragments: each
    /// fragment keeps its absolute seqbase, so per-fragment candidates are
    /// absolute base oids and concatenate in ascending order.
    ///
    /// A candidate argument is consumed fragment-wise when it is itself a
    /// candidate group cut along the same table's fragment ranges (fragment
    /// `i` of the list then names rows of fragment `i` of the column only);
    /// any other combination selects over the whole column and the packed
    /// list.
    fn rewrite_select(&mut self, idx: usize, instr: Instr) {
        let sel = instr.select_args();
        let group_of = |a: Option<&Arg>| match a {
            Some(Arg::Var(v)) => self.groups.get(v),
            _ => None,
        };
        let src = group_of(sel.as_ref().map(|s| s.input)).filter(|g| g.kind == Kind::AlignedBase);
        let cand = match sel.as_ref().and_then(|s| s.cand) {
            None => Some(None),
            Some(c) => group_of(Some(c))
                .filter(|c| src.is_some_and(|g| c.aligned_with(g)))
                .map(|c| Some(c.parts.clone())),
        };
        let (Some(src), Some(cand_parts)) = (src, cand) else {
            self.push_with_whole_args(instr);
            return;
        };
        let (src_parts, table) = (src.parts.clone(), src.table.clone());
        let mut parts = Vec::with_capacity(src_parts.len());
        for (i, p) in src_parts.into_iter().enumerate() {
            let r = self.out.var();
            let mut args = instr.args.clone();
            args[0] = Arg::Var(p);
            if let Some(cp) = &cand_parts {
                args[1] = Arg::Var(cp[i]);
            }
            parts.push(r);
            self.out.instrs.push(Instr {
                results: vec![r],
                op: instr.op.clone(),
                args,
            });
        }
        self.groups.insert(
            instr.results[0],
            Group {
                parts,
                kind: Kind::AbsCands,
                ty: Some(LogicalType::Oid),
                lineage: Lineage::Instr(idx),
                table,
                packed: false,
            },
        );
    }

    /// `projection(cands, base)` propagates when the candidate fragments
    /// carry absolute base oids and the value operand is a full base
    /// column (a `sql.bind` result): each fetch stays in base space.
    fn rewrite_projection(&mut self, instr: Instr) {
        let (Some(&Arg::Var(c)), Some(&Arg::Var(v))) = (instr.args.first(), instr.args.get(1))
        else {
            self.push_with_whole_args(instr);
            return;
        };
        let cands_ok = self
            .groups
            .get(&c)
            .is_some_and(|g| g.kind == Kind::AbsCands);
        let base_ok = self.binds.contains_key(&v);
        if !(cands_ok && base_ok) {
            self.push_with_whole_args(instr);
            return;
        }
        let (src_parts, lineage) = {
            let g = &self.groups[&c];
            (g.parts.clone(), g.lineage.clone())
        };
        let ty = self.binds[&v].1;
        let mut parts = Vec::with_capacity(src_parts.len());
        for p in src_parts {
            let r = self.out.var();
            parts.push(r);
            self.out.instrs.push(Instr {
                results: vec![r],
                op: OpCode::Projection,
                args: vec![Arg::Var(p), Arg::Var(v)],
            });
        }
        self.groups.insert(
            instr.results[0],
            Group {
                parts,
                kind: Kind::LocalValues,
                ty,
                lineage,
                table: None,
                packed: false,
            },
        );
    }

    /// `batcalc` propagates over one fragment group with a scalar operand,
    /// or two groups of identical lineage (their fragments are row-aligned
    /// by construction).
    fn rewrite_calc(&mut self, instr: Instr) {
        let Some(ga) = (match instr.args.first() {
            Some(Arg::Var(a)) => self.groups.get(a),
            _ => None,
        }) else {
            self.push_with_whole_args(instr);
            return;
        };
        let (a_parts, a_ty, a_lineage) = (ga.parts.clone(), ga.ty, ga.lineage.clone());
        let other = match instr.args.get(1) {
            Some(Arg::Const(c)) => Some((None, c.logical_type())),
            // a parameter slot is a scalar operand of unknown type; it is
            // fragment-invariant like any other scalar
            Some(Arg::Param(_)) => Some((None, None)),
            Some(Arg::Var(b)) => match self.groups.get(b) {
                // a fragmented second operand must be row-aligned with the
                // first; different lineages would mix selections
                Some(gb) if gb.lineage == a_lineage && gb.parts.len() == a_parts.len() => {
                    Some((Some(gb.parts.clone()), gb.ty))
                }
                Some(_) => None,
                // a scalar variable is fragment-invariant
                None => Some((None, None)),
            },
            None => None,
        };
        let Some((b_parts, b_ty)) = other else {
            self.push_with_whole_args(instr);
            return;
        };
        let mut parts = Vec::with_capacity(a_parts.len());
        for (i, p) in a_parts.iter().enumerate() {
            let r = self.out.var();
            let mut args = instr.args.clone();
            args[0] = Arg::Var(*p);
            if let Some(bp) = &b_parts {
                args[1] = Arg::Var(bp[i]);
            }
            parts.push(r);
            self.out.instrs.push(Instr {
                results: vec![r],
                op: instr.op.clone(),
                args,
            });
        }
        let ty = match (a_ty, b_ty) {
            (Some(x), Some(y)) => LogicalType::widen(x, y),
            _ => None,
        };
        self.groups.insert(
            instr.results[0],
            Group {
                parts,
                kind: Kind::LocalValues,
                ty,
                lineage: a_lineage,
                table: None,
                packed: false,
            },
        );
    }

    /// Sums and counts merge per-fragment partials with `mat.packsum`.
    /// Integer sums only: wrapping i64 addition is associative, f64
    /// addition is not, and the parallel engine must stay bit-identical to
    /// the serial interpreter.
    fn rewrite_aggregate(&mut self, instr: Instr) {
        let Some(&Arg::Var(src)) = instr.args.first() else {
            self.push_with_whole_args(instr);
            return;
        };
        let mergeable = match (&instr.op, self.groups.get(&src)) {
            (_, None) => false,
            (OpCode::Count | OpCode::Aggr(AggKind::Count), Some(_)) => true,
            (OpCode::Aggr(AggKind::Sum), Some(g)) => matches!(
                g.ty,
                Some(LogicalType::I8 | LogicalType::I16 | LogicalType::I32 | LogicalType::I64)
            ),
            _ => false,
        };
        if !mergeable {
            self.push_with_whole_args(instr);
            return;
        }
        let src_parts = self.groups[&src].parts.clone();
        let mut partials = Vec::with_capacity(src_parts.len());
        for p in src_parts {
            let r = self.out.var();
            partials.push(r);
            self.out.instrs.push(Instr {
                results: vec![r],
                op: instr.op.clone(),
                args: vec![Arg::Var(p)],
            });
        }
        self.out.instrs.push(Instr {
            results: instr.results,
            op: OpCode::PackSum,
            args: partials.into_iter().map(Arg::Var).collect(),
        });
    }
}

/// The fragment var that completes `src`'s group, or `usize::MAX` when the
/// group is incomplete (missing or duplicated coordinates).
fn last_of_complete_group(frags: &HashMap<VarId, Vec<(i64, i64, VarId)>>, src: VarId) -> VarId {
    let Some(parts) = frags.get(&src) else {
        return VarId::MAX;
    };
    let Some(&(_, k, _)) = parts.first() else {
        return VarId::MAX;
    };
    if k < 1 || parts.len() != k as usize {
        return VarId::MAX;
    }
    let mut seen = vec![false; k as usize];
    for &(i, kk, _) in parts {
        if kk != k || i < 0 || i >= k || seen[i as usize] {
            return VarId::MAX;
        }
        seen[i as usize] = true;
    }
    parts.iter().map(|&(_, _, v)| v).max().unwrap_or(VarId::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis;
    use crate::interp::Interpreter;
    use crate::optimizer::{parallel_pipeline, GarbageCollect};
    use mammoth_algebra::CmpOp;
    use mammoth_storage::Table;
    use mammoth_types::{ColumnDef, TableSchema};

    fn catalog(n: i64) -> Catalog {
        let mut cat = Catalog::new();
        let mut t = Table::new(TableSchema::new(
            "t",
            vec![
                ColumnDef::new("a", LogicalType::I64),
                ColumnDef::new("b", LogicalType::I64),
            ],
        ))
        .unwrap();
        for i in 0..n {
            t.insert_row(&[Value::I64(i % 17), Value::I64(i)]).unwrap();
        }
        cat.create_table(t).unwrap();
        cat
    }

    fn scan_select_sum() -> Program {
        let mut p = Program::new();
        let a = p.push(
            OpCode::Bind,
            vec![
                Arg::Const(Value::Str("t".into())),
                Arg::Const(Value::Str("a".into())),
            ],
        )[0];
        let c = p.push(
            OpCode::ThetaSelect(CmpOp::Gt),
            vec![Arg::Var(a), Arg::Const(Value::I64(5))],
        )[0];
        let b = p.push(
            OpCode::Bind,
            vec![
                Arg::Const(Value::Str("t".into())),
                Arg::Const(Value::Str("b".into())),
            ],
        )[0];
        let f = p.push(OpCode::Projection, vec![Arg::Var(c), Arg::Var(b)])[0];
        let s = p.push(OpCode::Aggr(AggKind::Sum), vec![Arg::Var(f)])[0];
        let n = p.push(OpCode::Count, vec![Arg::Var(f)])[0];
        p.push_result(&[s, n]);
        p
    }

    #[test]
    fn mitosis_emits_complete_fragment_groups() {
        let p = scan_select_sum();
        let out = Mitosis::new(4).run(p);
        let slices: Vec<&Instr> = out
            .instrs
            .iter()
            .filter(|i| i.op == OpCode::PartSlice)
            .collect();
        assert_eq!(slices.len(), 8, "4 fragments per bind");
        analysis::verify(&out).unwrap();
    }

    #[test]
    fn mergetable_merges_sums_and_counts() {
        let cat = catalog(1000);
        let pl = parallel_pipeline(4, column_types(&cat));
        let out = pl.try_optimize(scan_select_sum()).unwrap();
        assert!(out.instrs.iter().any(|i| i.op == OpCode::PackSum));
        // the serial select/fetch chain is gone: fully fragment-parallel
        let selects = out
            .instrs
            .iter()
            .filter(|i| matches!(i.op, OpCode::ThetaSelect(_)))
            .count();
        assert_eq!(selects, 4);
        analysis::verify_with_catalog(&out, &cat).unwrap();
    }

    #[test]
    fn rewritten_plan_matches_serial_results() {
        let cat = catalog(1000);
        let prog = scan_select_sum();
        let serial = Interpreter::new(&cat).run(&prog).unwrap();
        for pieces in [2usize, 3, 7] {
            let pl = parallel_pipeline(pieces, column_types(&cat));
            let rewritten = pl.try_optimize(prog.clone()).unwrap();
            let par = Interpreter::new(&cat).run(&rewritten).unwrap();
            assert_eq!(
                serial[0].as_scalar().unwrap(),
                par[0].as_scalar().unwrap(),
                "pieces={pieces}"
            );
            assert_eq!(
                serial[1].as_scalar().unwrap(),
                par[1].as_scalar().unwrap(),
                "pieces={pieces}"
            );
        }
    }

    #[test]
    fn projection_output_packs_before_result() {
        let cat = catalog(100);
        let mut p = Program::new();
        let a = p.push(
            OpCode::Bind,
            vec![
                Arg::Const(Value::Str("t".into())),
                Arg::Const(Value::Str("a".into())),
            ],
        )[0];
        let c = p.push(
            OpCode::ThetaSelect(CmpOp::Lt),
            vec![Arg::Var(a), Arg::Const(Value::I64(3))],
        )[0];
        let b = p.push(
            OpCode::Bind,
            vec![
                Arg::Const(Value::Str("t".into())),
                Arg::Const(Value::Str("b".into())),
            ],
        )[0];
        let f = p.push(OpCode::Projection, vec![Arg::Var(c), Arg::Var(b)])[0];
        p.push_result(&[f]);

        let pl = parallel_pipeline(3, column_types(&cat));
        let out = pl.try_optimize(p.clone()).unwrap();
        assert!(out.instrs.iter().any(|i| i.op == OpCode::Pack));
        let serial = Interpreter::new(&cat).run(&p).unwrap();
        let par = Interpreter::new(&cat).run(&out).unwrap();
        let (sb, pb) = (serial[0].as_bat().unwrap(), par[0].as_bat().unwrap());
        assert_eq!(
            sb.tail_slice::<i64>().unwrap(),
            pb.tail_slice::<i64>().unwrap()
        );
    }

    #[test]
    fn derived_selects_and_float_sums_stay_serial() {
        // select over a projection result (fragment-local values) must not
        // fragment; the consumer sees the packed whole instead
        let cat = catalog(100);
        let mut p = Program::new();
        let a = p.push(
            OpCode::Bind,
            vec![
                Arg::Const(Value::Str("t".into())),
                Arg::Const(Value::Str("a".into())),
            ],
        )[0];
        let c1 = p.push(
            OpCode::ThetaSelect(CmpOp::Gt),
            vec![Arg::Var(a), Arg::Const(Value::I64(2))],
        )[0];
        let b = p.push(
            OpCode::Bind,
            vec![
                Arg::Const(Value::Str("t".into())),
                Arg::Const(Value::Str("b".into())),
            ],
        )[0];
        let f = p.push(OpCode::Projection, vec![Arg::Var(c1), Arg::Var(b)])[0];
        let c2 = p.push(
            OpCode::ThetaSelect(CmpOp::Lt),
            vec![Arg::Var(f), Arg::Const(Value::I64(50))],
        )[0];
        let f2 = p.push(OpCode::Projection, vec![Arg::Var(c2), Arg::Var(c1)])[0];
        let s = p.push(OpCode::Aggr(AggKind::Sum), vec![Arg::Var(f2)])[0];
        p.push_result(&[s]);

        let pl = parallel_pipeline(4, column_types(&cat));
        let out = pl.try_optimize(p.clone()).unwrap();
        let serial = Interpreter::new(&cat).run(&p).unwrap();
        let par = Interpreter::new(&cat).run(&out).unwrap();
        assert_eq!(serial[0].as_scalar().unwrap(), par[0].as_scalar().unwrap());
    }

    /// `a > 5 AND b < 500` as the compiler emits it: the second select
    /// tests the candidates of the first.
    fn threaded_selects(second_table: &str) -> Program {
        let bind = |p: &mut Program, t: &str, c: &str| {
            p.push(
                OpCode::Bind,
                vec![
                    Arg::Const(Value::Str(t.into())),
                    Arg::Const(Value::Str(c.into())),
                ],
            )[0]
        };
        let mut p = Program::new();
        let a = bind(&mut p, "t", "a");
        let c1 = p.push(
            OpCode::ThetaSelect(CmpOp::Gt),
            vec![Arg::Var(a), Arg::Const(Value::I64(5))],
        )[0];
        let b = bind(&mut p, second_table, "b");
        let c2 = p.push(
            OpCode::RangeSelect {
                lo_incl: true,
                hi_incl: false,
            },
            vec![
                Arg::Var(b),
                Arg::Var(c1),
                Arg::Const(Value::I64(100)),
                Arg::Const(Value::I64(500)),
            ],
        )[0];
        let f = p.push(OpCode::Projection, vec![Arg::Var(c2), Arg::Var(b)])[0];
        let s = p.push(OpCode::Aggr(AggKind::Sum), vec![Arg::Var(f)])[0];
        let n = p.push(OpCode::Count, vec![Arg::Var(c2)])[0];
        p.push_result(&[s, n]);
        p
    }

    fn scalars(cat: &Catalog, p: &Program) -> Vec<Value> {
        let out = Interpreter::new(cat).check_props(true).run(p).unwrap();
        out.iter().map(|v| v.as_scalar().unwrap().clone()).collect()
    }

    #[test]
    fn candidate_selects_propagate_fragment_wise() {
        let cat = catalog(1000);
        let prog = threaded_selects("t");
        let serial = scalars(&cat, &prog);
        for pieces in [2usize, 3, 7] {
            let out = parallel_pipeline(pieces, column_types(&cat))
                .try_optimize(prog.clone())
                .unwrap();
            // fragment i of the list feeds fragment i of the column: one
            // select of each kind per piece, and the list is never packed
            let count = |f: &dyn Fn(&Instr) -> bool| out.instrs.iter().filter(|i| f(i)).count();
            assert_eq!(count(&|i| matches!(i.op, OpCode::ThetaSelect(_))), pieces);
            let ranges: Vec<&Instr> = out
                .instrs
                .iter()
                .filter(|i| matches!(i.op, OpCode::RangeSelect { .. }))
                .collect();
            assert_eq!(ranges.len(), pieces);
            assert!(ranges.iter().all(|i| i.args.len() == 4));
            assert_eq!(count(&|i| i.op == OpCode::Pack), 0);
            assert_eq!(count(&|i| i.op == OpCode::PackSum), 2);
            analysis::verify_with_catalog(&out, &cat).unwrap();
            assert_eq!(serial, scalars(&cat, &out), "pieces={pieces}");
        }
    }

    #[test]
    fn candidates_cut_along_another_table_are_packed() {
        // same shape, but the candidates come from table `u`, whose
        // fragment ranges say nothing about `t`'s: the select over `t.b`
        // must read the whole column and the packed list
        let mut cat = catalog(1000);
        let mut u = Table::new(TableSchema::new(
            "u",
            vec![ColumnDef::new("b", LogicalType::I64)],
        ))
        .unwrap();
        for i in 0..400 {
            u.insert_row(&[Value::I64(i * 2)]).unwrap();
        }
        cat.create_table(u).unwrap();
        // candidates of t.a > 5 (up to oid 999) would overrun u.b, so
        // select from u and test t's rows instead
        let mut prog = threaded_selects("t");
        prog.instrs[0].args[0] = Arg::Const(Value::Str("u".into()));
        prog.instrs[0].args[1] = Arg::Const(Value::Str("b".into()));
        let serial = scalars(&cat, &prog);
        let out = parallel_pipeline(4, column_types(&cat))
            .try_optimize(prog)
            .unwrap();
        let ranges: Vec<&Instr> = out
            .instrs
            .iter()
            .filter(|i| matches!(i.op, OpCode::RangeSelect { .. }))
            .collect();
        assert_eq!(ranges.len(), 1, "the select stays whole");
        assert!(out.instrs.iter().any(|i| i.op == OpCode::Pack));
        analysis::verify_with_catalog(&out, &cat).unwrap();
        assert_eq!(serial, scalars(&cat, &out));
    }

    #[test]
    fn mitosis_is_a_noop_below_two_pieces_and_after_gc() {
        let p = scan_select_sum();
        assert_eq!(Mitosis::new(1).run(p.clone()), p);
        let gc = GarbageCollect.run(p);
        assert_eq!(Mitosis::new(4).run(gc.clone()), gc);
        assert_eq!(Mergetable::new().run(gc.clone()), gc);
    }
}
