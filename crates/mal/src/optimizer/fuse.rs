//! `fuse_pipeline`: a scan stops materializing.
//!
//! Column-at-a-time execution pays for every intermediate it writes. For a
//! filtered statement those are the candidate list of each selection and
//! one gathered column per column it goes on to read — BATs that are read
//! once and dropped, or of which a top-N keeps ten rows. This pass
//! recognises the chain
//!
//! ```text
//! c1 := select(col, bounds…)            no candidate list: scans the column
//! c2 := select(col', c1, bounds…) …     each threads the list on
//! v  := algebra.projection(ck, col'')   any number, all through the last list
//! ```
//!
//! ending in one of four sinks
//!
//! ```text
//! s  := aggr.<kind>(v) | aggr.count(ck)               global aggregates
//! (g, e) := group.group(v); aggr.sub<kind>(v', g, e)  one single-key
//!           | aggr.subcount_nonnil(g, g, e) | algebra.projection(e, v)  grouping
//! io.result(v…) | algebra.join(v, _) | bat.slice(v, _, _) | mat.pack(v…)
//!                                                     emitted columns
//! (s, o) := algebra.firstn(v, n); w := algebra.projection(o, v') …
//!                                                     a top-N, `n` a constant or `?N`
//! ```
//!
//! over row-aligned base columns of one table and replaces it with one
//! [`OpCode::Pipeline`] instruction binding the sink's results — which the
//! interpreter hands to `mammoth-vectorized`, a vector at a time, with no
//! intermediate at all. An emitted column is a fetched `v` one of the four
//! readers named above takes from outside the chain: it becomes a result
//! of the instruction instead of a reason to refuse. A top-N binds `s` and
//! every `w`, keeping the best `n` rows while the vectors stream past.
//!
//! It fuses only what it can prove is the whole story. Every other variable
//! the chain defines must be read by the chain alone (a candidate list, a
//! `firstn` order or a group id that also feeds `io.result`, a join, a
//! `mat.pack` … is somebody's input, and stays; so does a fetched column
//! read by anything but those four — `algebra.sort`, `batcalc`,
//! `group.refine`, a `firstn` over a variable count); every column must be
//! a `sql.bind` — or a mitosis `algebra.slice` of one — whose fixed-width
//! type the optimizer's column facts state (so string columns, `batcalc`
//! results, packed fragments and `bat.setprops`-annotated inputs of the
//! binary-search select rewrite never qualify), holding the rows the first
//! filter scans; and a sink is of one kind — all scalar, one `group.group`
//! (no `group.refine`), all columns, or one top-N — never two. Anything
//! else is left exactly as it was: the unfused plan is always a correct
//! plan, so there is no fallback to get wrong.

use super::{has_end_of_life_markers, OptimizerPass, SharedAnalysis};
use crate::analysis::PropFacts;
use crate::program::{
    Arg, BaseRows, FilterTest, Instr, OpCode, PipelineFilter, PipelineOut, PipelineSink,
    PipelineSpec, Program, VarId,
};
use mammoth_algebra::AggKind;
use mammoth_types::{LogicalType, Value};
use std::sync::Arc;

/// Fuse select → projection → sink chains into `vector.pipeline`
/// instructions (see the module docs for what qualifies).
pub struct FusePipeline {
    facts: Arc<PropFacts>,
}

impl FusePipeline {
    /// `facts` name the types of the bound columns; see
    /// [`super::SelectElimination::new`] on sharing them.
    pub fn new(facts: impl Into<Arc<PropFacts>>) -> FusePipeline {
        FusePipeline {
            facts: facts.into(),
        }
    }
}

/// What a variable is to the chains being traced.
#[derive(Clone, Copy)]
enum Role {
    /// Nothing a chain cares about.
    Other,
    /// A base column: anyone may read it.
    Column {
        rows: BaseRows,
        ty: LogicalType,
        defined_at: usize,
    },
    /// A chain's candidate list.
    Cands(usize),
    /// A chain's column `col`, fetched through its last candidate list.
    Fetched(usize, usize),
    /// A chain's `group.group` results.
    Gids(usize),
    Extents(usize),
    /// The order of a chain's `algebra.firstn`.
    Order(usize),
    /// A result of a chain's sink: the world reads these.
    Sunk(usize),
}

impl Role {
    /// The chain whose private intermediate the variable is.
    fn intermediate_of(&self) -> Option<usize> {
        match *self {
            Role::Sunk(_) => None,
            _ => self.chain(),
        }
    }

    /// The chain one of whose links defines the variable.
    fn chain(&self) -> Option<usize> {
        match *self {
            Role::Cands(c)
            | Role::Fetched(c, _)
            | Role::Gids(c)
            | Role::Extents(c)
            | Role::Order(c)
            | Role::Sunk(c) => Some(c),
            Role::Other | Role::Column { .. } => None,
        }
    }
}

/// What a chain's sink has turned out to be: of one kind, fixed by the
/// first instruction that sinks anything.
#[derive(Clone, PartialEq)]
enum Sink {
    /// Nothing sunk yet.
    Open,
    Scalars,
    /// `group.group` of the fetched `key` (column `col`).
    Group {
        col: usize,
        key: VarId,
        gids: VarId,
        extents: VarId,
    },
    Columns,
    /// `algebra.firstn` of the fetched column `col`, `n` rows, binding
    /// `order`.
    Top {
        col: usize,
        desc: bool,
        n: Arg,
        order: VarId,
    },
}

/// One candidate chain, traced from its first selection.
struct Chain {
    scanned: BaseRows,
    /// The column arguments of the fused instruction (its bounds join them
    /// at the end).
    args: Vec<Arg>,
    /// The latest definition among the columns: the fused instruction
    /// must come after it.
    inputs_defined: usize,
    /// The candidate list the next filter, fetch or count must read.
    tip: VarId,
    /// The last list has been fetched through or counted: no more filters.
    sealed: bool,
    sink: Sink,
    outs: Vec<PipelineOut>,
    results: Vec<VarId>,
    /// Where the fused instruction goes: the first replaced instruction
    /// that has every column defined before it.
    slot: Option<usize>,
    /// The earliest read of a sink result by anyone outside.
    first_read: usize,
    broken: bool,
    /// The instruction the chain fused into, once built.
    fused: Option<Instr>,
}

impl Chain {
    fn column(&mut self, v: VarId, defined_at: usize) -> usize {
        // a column defined after the chosen slot moves the slot on
        if self.slot.is_some_and(|slot| slot < defined_at) {
            self.slot = None;
        }
        self.inputs_defined = self.inputs_defined.max(defined_at);
        match self.args.iter().position(|c| *c == Arg::Var(v)) {
            Some(k) => k,
            None => {
                self.args.push(Arg::Var(v));
                self.args.len() - 1
            }
        }
    }

    fn sink(&mut self, out: PipelineOut, result: VarId) {
        self.outs.push(out);
        self.results.push(result);
    }

    /// Settle the sink's kind as `kind`: true when it was open, or is
    /// that already.
    fn sinks_as(&mut self, kind: Sink) -> bool {
        if self.sink == Sink::Open {
            self.sink = kind;
            return true;
        }
        self.sink == kind
    }

    /// Whether the trace found a complete chain with a place to put it:
    /// after its last input, before the first reader of a result.
    fn fuses(&self) -> bool {
        let placed = self.slot.is_some_and(|slot| slot < self.first_read);
        !self.broken && !self.outs.is_empty() && placed
    }
}

struct Tracer<'p> {
    facts: &'p PropFacts,
    instrs: &'p [Instr],
    roles: Vec<Role>,
    chains: Vec<Chain>,
}

impl Tracer<'_> {
    fn role(&self, a: &Arg) -> Role {
        match a {
            Arg::Var(v) => self.roles.get(*v).copied().unwrap_or(Role::Other),
            Arg::Const(_) | Arg::Param(_) => Role::Other,
        }
    }

    /// A chain that can still grow, by index.
    fn open(&mut self, c: usize) -> Option<&mut Chain> {
        self.chains.get_mut(c).filter(|ch| !ch.broken)
    }

    /// Try to read `instr` as the next link of a chain. On success its
    /// results get their roles — which is also what marks it as replaced.
    fn link(&mut self, idx: usize, instr: &Instr) -> Option<()> {
        let var = |a: &Arg| match a {
            Arg::Var(v) => Some(*v),
            Arg::Const(_) | Arg::Param(_) => None,
        };
        let chain = match (&instr.op, &instr.args[..]) {
            (OpCode::ThetaSelect(_) | OpCode::RangeSelect { .. }, _) => {
                let sel = instr.select_args()?;
                // bounds are constants or `?N`: nothing to define first
                if sel.bounds.iter().any(|b| matches!(b, Arg::Var(_))) {
                    return None;
                }
                let Role::Column {
                    rows, defined_at, ..
                } = self.role(sel.input)
                else {
                    return None;
                };
                let input = var(sel.input)?;
                let c = match sel.cand {
                    None => {
                        self.chains.push(Chain {
                            scanned: rows,
                            // room for a few columns and their bounds
                            args: Vec::with_capacity(8),
                            inputs_defined: 0,
                            tip: instr.results[0],
                            sealed: false,
                            sink: Sink::Open,
                            outs: Vec::new(),
                            results: Vec::new(),
                            slot: None,
                            first_read: usize::MAX,
                            broken: false,
                            fused: None,
                        });
                        self.chains.len() - 1
                    }
                    Some(cand) => {
                        let Role::Cands(c) = self.role(cand) else {
                            return None;
                        };
                        let (tip, instrs) = (var(cand)?, self.instrs);
                        self.open(c).filter(|ch| {
                            ch.tip == tip && !ch.sealed && rows.covers(&ch.scanned, instrs)
                        })?;
                        c
                    }
                };
                let ch = &mut self.chains[c];
                ch.column(input, defined_at);
                ch.tip = instr.results[0];
                self.roles[instr.results[0]] = Role::Cands(c);
                c
            }
            (OpCode::Projection, [through, values]) => {
                match (self.role(through), self.role(values)) {
                    (
                        Role::Cands(c),
                        Role::Column {
                            rows, defined_at, ..
                        },
                    ) => {
                        let (tip, v, instrs) = (var(through)?, var(values)?, self.instrs);
                        let ch = self
                            .open(c)
                            .filter(|ch| ch.tip == tip && rows.covers(&ch.scanned, instrs))?;
                        ch.sealed = true;
                        let col = ch.column(v, defined_at);
                        self.roles[instr.results[0]] = Role::Fetched(c, col);
                        c
                    }
                    // the key's value per group, fetched at the extents
                    (Role::Extents(c), Role::Fetched(c2, _)) if c == c2 => {
                        let (e, v) = (var(through)?, var(values)?);
                        let ch = self.open(c)?;
                        let Sink::Group { key, extents, .. } = ch.sink else {
                            return None;
                        };
                        if (key, extents) != (v, e) {
                            return None;
                        }
                        ch.sink(PipelineOut::Key, instr.results[0]);
                        self.roles[instr.results[0]] = Role::Sunk(c);
                        c
                    }
                    // a column of the top rows, fetched in their order
                    (Role::Order(c), Role::Fetched(c2, col)) if c == c2 => {
                        let o = var(through)?;
                        let ch = self.open(c)?;
                        if !matches!(ch.sink, Sink::Top { order, .. } if order == o) {
                            return None;
                        }
                        ch.sink(PipelineOut::Col(col), instr.results[0]);
                        self.roles[instr.results[0]] = Role::Sunk(c);
                        c
                    }
                    _ => return None,
                }
            }
            (OpCode::Count, [cands]) => {
                let Role::Cands(c) = self.role(cands) else {
                    return None;
                };
                let tip = var(cands)?;
                let ch = self.open(c).filter(|ch| ch.tip == tip)?;
                if !ch.sinks_as(Sink::Scalars) {
                    return None;
                }
                ch.sealed = true;
                ch.sink(PipelineOut::Count, instr.results[0]);
                self.roles[instr.results[0]] = Role::Sunk(c);
                c
            }
            (OpCode::Aggr(kind), [values]) => {
                let Role::Fetched(c, col) = self.role(values) else {
                    return None;
                };
                let folds = self.folds(c, col);
                let ch = self.open(c).filter(|_| folds)?;
                if !ch.sinks_as(Sink::Scalars) {
                    return None;
                }
                ch.sink(PipelineOut::Agg(*kind, col), instr.results[0]);
                self.roles[instr.results[0]] = Role::Sunk(c);
                c
            }
            (OpCode::Group, [key]) => {
                let Role::Fetched(c, col) = self.role(key) else {
                    return None;
                };
                let key = var(key)?;
                let ch = self.open(c).filter(|ch| ch.sink == Sink::Open)?;
                ch.sink = Sink::Group {
                    col,
                    key,
                    gids: instr.results[0],
                    extents: instr.results[1],
                };
                self.roles[instr.results[0]] = Role::Gids(c);
                self.roles[instr.results[1]] = Role::Extents(c);
                c
            }
            (OpCode::FirstN { desc }, [key, n]) => {
                let Role::Fetched(c, col) = self.role(key) else {
                    return None;
                };
                // a count the plan states: a constant, or `?N`
                let counts = match n {
                    Arg::Const(v) => v.as_i64().is_some_and(|n| n >= 0),
                    Arg::Param(_) => true,
                    Arg::Var(_) => false,
                };
                let ch = self.open(c).filter(|ch| counts && ch.sink == Sink::Open)?;
                ch.sink = Sink::Top {
                    col,
                    desc: *desc,
                    n: n.clone(),
                    order: instr.results[1],
                };
                ch.sink(PipelineOut::Col(col), instr.results[0]);
                self.roles[instr.results[0]] = Role::Sunk(c);
                self.roles[instr.results[1]] = Role::Order(c);
                c
            }
            (OpCode::AggrGrouped(kind), [values, gids, ext]) => {
                let (Role::Gids(c), Role::Extents(c2)) = (self.role(gids), self.role(ext)) else {
                    return None;
                };
                let out = match self.role(values) {
                    // group sizes: the never-nil group ids, counted
                    Role::Gids(_) if values == gids && *kind == AggKind::Count => {
                        PipelineOut::Count
                    }
                    Role::Fetched(c3, col) if c3 == c && self.folds(c, col) => {
                        PipelineOut::Agg(*kind, col)
                    }
                    _ => return None,
                };
                let ch = self.open(c).filter(|_| c == c2)?;
                let Sink::Group {
                    gids: g,
                    extents: e,
                    ..
                } = ch.sink
                else {
                    return None;
                };
                if (Some(g), Some(e)) != (var(gids), var(ext)) {
                    return None;
                }
                ch.sink(out, instr.results[0]);
                self.roles[instr.results[0]] = Role::Sunk(c);
                c
            }
            _ => return None,
        };
        let ch = &mut self.chains[chain];
        if ch.slot.is_none() && idx > ch.inputs_defined {
            ch.slot = Some(idx);
        }
        Some(())
    }

    /// Whether column `col` of chain `c` is of a type aggregates fold.
    fn folds(&self, c: usize, col: usize) -> bool {
        let column = self.chains.get(c).and_then(|ch| ch.args.get(col));
        matches!(
            column.map(|a| self.role(a)),
            Some(Role::Column { ty, .. }) if ty != LogicalType::Bool
        )
    }

    /// A base column's role, for the results of `sql.bind` / `algebra.slice`:
    /// the rows it holds, and the fixed-width type the column facts state.
    fn base_column(&self, idx: usize, instr: &Instr) -> Option<Role> {
        let rows = BaseRows::of(idx, instr, |v| match self.roles.get(v) {
            Some(Role::Column { rows, .. }) => Some(*rows),
            _ => None,
        })?;
        let ty = match &self.instrs[rows.bind].args[..] {
            [Arg::Const(Value::Str(table)), Arg::Const(Value::Str(column))] => {
                self.facts.type_of(table, column)?
            }
            _ => return None,
        };
        (ty != LogicalType::Str).then_some(Role::Column {
            rows,
            ty,
            defined_at: idx,
        })
    }

    fn trace(&mut self, idx: usize, instr: &Instr) {
        if let Some(role) = self.base_column(idx, instr) {
            self.roles[instr.results[0]] = role;
            return;
        }
        if self.link(idx, instr).is_some() {
            return;
        }
        // not a link: a fetched column one of these takes is the chain's
        // to emit; whatever other chain intermediates it reads have a
        // reader outside their chain; and sink results are being read
        let takes_columns = matches!(
            instr.op,
            OpCode::Result | OpCode::Join | OpCode::Slice | OpCode::Pack
        );
        for a in &instr.args {
            let mut role = self.role(a);
            if let (Role::Fetched(c, col), Arg::Var(v), true) = (role, a, takes_columns) {
                if !self.chains[c].broken && self.chains[c].sinks_as(Sink::Columns) {
                    self.chains[c].sink(PipelineOut::Col(col), *v);
                    role = Role::Sunk(c);
                    self.roles[*v] = role;
                }
            }
            match role {
                Role::Sunk(c) => {
                    let ch = &mut self.chains[c];
                    ch.first_read = ch.first_read.min(idx);
                }
                role => {
                    if let Some(c) = role.intermediate_of() {
                        self.chains[c].broken = true;
                    }
                }
            }
        }
    }
}

impl OptimizerPass for FusePipeline {
    fn name(&self) -> &'static str {
        "fuse_pipeline"
    }

    fn run(&self, prog: Program) -> Program {
        self.run_with(prog, &mut SharedAnalysis::default())
    }

    fn run_with(&self, mut prog: Program, shared: &mut SharedAnalysis) -> Program {
        // a chain runs from a selection over a whole column to a count of
        // its candidates or a fetch through them; a plan without such a
        // pair costs one look
        let scans = |i: &Instr| i.select_args().is_some_and(|s| s.cand.is_none());
        let sinks = |i: &Instr| matches!(i.op, OpCode::Count | OpCode::Projection);
        let instrs = &prog.instrs;
        if !(instrs.iter().any(scans) && instrs.iter().any(sinks)) || has_end_of_life_markers(&prog)
        {
            return prog;
        }
        let mut tracer = Tracer {
            facts: &self.facts,
            instrs: &prog.instrs,
            roles: vec![Role::Other; prog.nvars()],
            chains: Vec::new(),
        };
        for (idx, instr) in prog.instrs.iter().enumerate() {
            tracer.trace(idx, instr);
        }
        let Tracer {
            roles, mut chains, ..
        } = tracer;

        // build each fused instruction; it takes the slot of one of the
        // instructions it replaces, the others are dropped
        for (c, ch) in chains.iter_mut().enumerate().filter(|(_, ch)| ch.fuses()) {
            // the columns, then the bounds of the chain's selections — the
            // instructions that define its candidate lists, each a filter
            // on the column it reads — in order, then a top-N's row count
            let mut args = std::mem::take(&mut ch.args);
            let ncols = args.len();
            let mut filters = Vec::new();
            for instr in &prog.instrs {
                let Some(sel) = instr.select_args() else {
                    continue;
                };
                if !matches!(roles[instr.results[0]], Role::Cands(of) if of == c) {
                    continue;
                }
                let test = match instr.op {
                    OpCode::ThetaSelect(op) => FilterTest::Theta(op),
                    OpCode::RangeSelect { lo_incl, hi_incl } => {
                        FilterTest::Range { lo_incl, hi_incl }
                    }
                    _ => unreachable!("only selections have select_args"),
                };
                let col = args[..ncols].iter().position(|a| a == sel.input);
                let col = col.expect("a chain's selection reads one of its columns");
                filters.push(PipelineFilter { col, test });
                args.extend_from_slice(sel.bounds);
            }
            let sink = match std::mem::replace(&mut ch.sink, Sink::Open) {
                Sink::Group { col, .. } => PipelineSink::Group(col),
                Sink::Top { col, desc, n, .. } => {
                    args.push(n);
                    PipelineSink::Top { key: col, desc }
                }
                Sink::Open | Sink::Scalars | Sink::Columns => PipelineSink::Rows,
            };
            ch.fused = Some(Instr {
                args,
                results: std::mem::take(&mut ch.results),
                op: OpCode::Pipeline(Arc::new(PipelineSpec {
                    filters,
                    sink,
                    outs: std::mem::take(&mut ch.outs),
                })),
            });
        }
        if chains.iter().all(|ch| ch.fused.is_none()) {
            return prog;
        }
        let mut idx = 0;
        prog.instrs.retain_mut(|instr| {
            let at = idx;
            idx += 1;
            // a link is an instruction whose (first) result has a chain role
            let link_of = instr.results.first().and_then(|r| roles[*r].chain());
            let Some(ch) = link_of.map(|c| &mut chains[c]) else {
                return true;
            };
            match (&mut ch.fused, ch.slot) {
                // a chain that did not fuse keeps its links
                (None, _) => true,
                (Some(fused), Some(slot)) if slot == at => {
                    std::mem::swap(instr, fused);
                    true
                }
                (Some(_), _) => false,
            }
        });
        shared.plan_changed();
        prog
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{column_facts, verify_with_catalog};
    use crate::interp::Interpreter;
    use crate::parser::parse_program;
    use crate::program::MalValue;
    use mammoth_storage::{Bat, Catalog, Table};
    use mammoth_types::{ColumnDef, TableSchema};

    /// `t(a, b: i64, s: str)` and `u(w: i64)`, 40 rows each.
    fn catalog() -> Catalog {
        let ints = |f: fn(i64) -> i64| Bat::from_vec((0..40).map(f).collect::<Vec<i64>>());
        let words: Vec<String> = (0..40).map(|i| format!("w{}", i % 3)).collect();
        let mut cat = Catalog::new();
        let t = TableSchema::new(
            "t",
            vec![
                ColumnDef::new("a", LogicalType::I64),
                ColumnDef::new("b", LogicalType::I64),
                ColumnDef::new("s", LogicalType::Str),
            ],
        );
        let s = Bat::from_strings(words.iter().map(|w| Some(w.as_str())));
        let bats = vec![ints(|i| (i * 7) % 40), ints(|i| i % 4), s];
        cat.create_table(Table::from_bats(t, bats).unwrap())
            .unwrap();
        let u = TableSchema::new("u", vec![ColumnDef::new("w", LogicalType::I64)]);
        cat.create_table(Table::from_bats(u, vec![ints(|i| i)]).unwrap())
            .unwrap();
        cat
    }

    fn pipelines(p: &Program) -> usize {
        let fused = |i: &&Instr| matches!(i.op, OpCode::Pipeline(_));
        p.instrs.iter().filter(fused).count()
    }

    fn values(cat: &Catalog, p: &Program) -> Vec<String> {
        let out = Interpreter::new(cat).check_props(true).run(p).unwrap();
        let show = |v: &MalValue| match v {
            MalValue::Scalar(s) => format!("{s:?}"),
            MalValue::Bat(b) => format!(
                "{:?}",
                (0..b.len()).map(|i| b.value_at(i)).collect::<Vec<_>>()
            ),
        };
        out.iter().map(show).collect()
    }

    /// Run the pass over `src`; the result must verify and answer as `src`.
    fn fuse(src: &str) -> Program {
        let cat = catalog();
        let plan = parse_program(src).unwrap();
        let fused = FusePipeline::new(column_facts(&cat)).run(plan.clone());
        verify_with_catalog(&fused, &cat).unwrap_or_else(|e| panic!("{e}\n{fused}"));
        assert_eq!(values(&cat, &fused), values(&cat, &plan), "{fused}");
        fused
    }

    const BINDS: &str = "a := sql.bind(\"t\", \"a\");\nb := sql.bind(\"t\", \"b\");\n";

    #[test]
    fn a_whole_chain_becomes_one_instruction_in_place() {
        let p = fuse(&format!(
            "{BINDS}c1 := algebra.select(a, 5, 30, true, false);
            c2 := algebra.thetaselect[!=](b, c1, 2);
            n := aggr.count(c2);
            v := algebra.projection(c2, a);
            s := aggr.sum(v);
            m := aggr.max(v);
            io.result(n, s, m);"
        ));
        assert_eq!(
            p.to_string().lines().nth(2).unwrap(),
            "(x4, x6, x7) := vector.pipeline[>=<@0, !=@1; count, sum@0, max@0](x0, x1, 5, 30, 2);"
        );
        assert_eq!(
            p.instrs.len(),
            4,
            "two binds, the pipeline, io.result:\n{p}"
        );
    }

    #[test]
    fn a_grouped_sink_keeps_key_sizes_and_aggregates() {
        let p = fuse(&format!(
            "{BINDS}c := algebra.thetaselect[>=](a, 3);
            k := algebra.projection(c, b);
            (g, e) := group.group(k);
            key := algebra.projection(e, k);
            n := aggr.subcount_nonnil(g, g, e);
            v := algebra.projection(c, a);
            s := aggr.subsum(v, g, e);
            io.result(key, n, s);"
        ));
        assert!(
            p.to_string()
                .contains("vector.pipeline[>=@0; group@1: key, count, sum@0](x0, x1, 3);"),
            "{p}"
        );
        assert_eq!(p.instrs.len(), 4, "{p}");
    }

    fn line_with<'a>(text: &'a str, needle: &str) -> &'a str {
        let found = text.lines().find(|l| l.contains(needle));
        found.unwrap_or_else(|| panic!("no {needle} in\n{text}"))
    }

    #[test]
    fn a_fetched_column_somebody_takes_becomes_a_result() {
        // io.result: two columns of the rows two filters keep
        let p = fuse(&format!(
            "{BINDS}c1 := algebra.select(a, 5, 30, true, false);
            c2 := algebra.thetaselect[!=](b, c1, 2);
            va := algebra.projection(c2, a);
            vb := algebra.projection(c2, b);
            io.result(vb, va);"
        ));
        assert_eq!(
            p.to_string().lines().nth(2).unwrap(),
            "(x5, x4) := vector.pipeline[>=<@0, !=@1; col@1, col@0](x0, x1, 5, 30, 2);"
        );
        assert_eq!(p.instrs.len(), 4, "{p}");
        // the probe side of a join, a LIMIT's slice, a fragment's pack
        for (taker, rest) in [
            (
                "(l, r) := algebra.join(v, w);",
                "n := aggr.count(l);\nio.result(n);",
            ),
            ("s := bat.slice(v, 0, 3);", "io.result(s);"),
            ("m := mat.pack(v, w);", "io.result(m);"),
        ] {
            let p = fuse(&format!(
                "{BINDS}w := sql.bind(\"u\", \"w\");
                c := algebra.thetaselect[<](a, 9);
                v := algebra.projection(c, b);
                {taker}\n{rest}"
            ));
            let text = p.to_string();
            assert!(
                text.contains(":= vector.pipeline[<@0; col@1](x0, x1, 9);"),
                "{taker}\n{text}"
            );
            assert!(!text.contains("algebra.projection"), "{text}");
        }
    }

    #[test]
    fn a_top_n_keeps_its_rows_while_the_filters_stream() {
        let chain = |firstn: &str| {
            format!(
                "{BINDS}c := algebra.select(a, 3, 36, true, true);
                vb := algebra.projection(c, b);
                va := algebra.projection(c, a);
                (s, o) := {firstn};
                w := algebra.projection(o, va);
                io.result(w, s);"
            )
        };
        // `b` has four values over 34 rows: position decides the ties
        let p = fuse(&chain("algebra.firstn(vb, 6)"));
        let text = p.to_string();
        assert_eq!(
            line_with(&text, "vector.pipeline"),
            "(x5, x7) := vector.pipeline[>=<=@0; top@1: col@1, col@0](x0, x1, 3, 36, 6);"
        );
        assert_eq!(p.instrs.len(), 4, "{p}");
        let p = fuse(&chain("algebra.firstn[desc](vb, 100)"));
        assert!(p
            .to_string()
            .contains("top.desc@1: col@1, col@0](x0, x1, 3, 36, 100);"));
        // no rows asked for; and a count that is a parameter stays one
        fuse(&chain("algebra.firstn(vb, 0)"));
        let plan = parse_program(&chain("algebra.firstn[desc](vb, ?0)")).unwrap();
        let fused = FusePipeline::new(column_facts(&catalog())).run(plan);
        verify_with_catalog(&fused, &catalog()).unwrap();
        assert!(
            fused
                .to_string()
                .contains("top.desc@1: col@1, col@0](x0, x1, 3, 36, ?0);"),
            "{fused}"
        );
    }

    #[test]
    fn anything_with_another_reader_or_shape_is_left_alone() {
        let unfusable = [
            // the candidate list is also an output
            "c := algebra.thetaselect[<](a, 9);\nn := aggr.count(c);\nio.result(n, c);",
            // the fetched column is also an output
            "c := algebra.thetaselect[<](a, 9);\nv := algebra.projection(c, b);
             s := aggr.sum(v);\nio.result(s, v);",
            // an earlier list has a second reader
            "c1 := algebra.thetaselect[<](a, 30);\nc2 := algebra.thetaselect[>](b, c1, 0);
             n1 := aggr.count(c1);\nn2 := aggr.count(c2);\nio.result(n1, n2);",
            // a string column: filtered, or aggregated
            "s := sql.bind(\"t\", \"s\");\nc := algebra.thetaselect[==](s, \"w1\");
             n := aggr.count(c);\nio.result(n);",
            "s := sql.bind(\"t\", \"s\");\nc := algebra.thetaselect[<](a, 9);
             v := algebra.projection(c, s);\nn := aggr.count_nonnil(v);\nio.result(n);",
            // a column of another table
            "w := sql.bind(\"u\", \"w\");\nc := algebra.thetaselect[<](a, 9);
             v := algebra.projection(c, w);\ns := aggr.sum(v);\nio.result(s);",
            // the binary-search rewrite's annotated input
            "sa := bat.setprops(a, \"nonil\");\nc := algebra.select(sa, 1, 9, true, true);
             n := aggr.count(c);\nio.result(n);",
            // a bound that is a variable
            "m := aggr.max(b);\nc := algebra.thetaselect[<](a, m);\nn := aggr.count(c);
             io.result(n);",
            // a computed column between fetch and aggregate
            "c := algebra.thetaselect[<](a, 9);\nv := algebra.projection(c, b);
             d := batcalc.*(v, 2);\ns := aggr.sum(d);\nio.result(s);",
            // two grouping keys
            "c := algebra.thetaselect[<](a, 30);\nk := algebra.projection(c, b);
             (g, e) := group.group(k);\nk2 := algebra.projection(c, a);
             (g2, e2) := group.refine(g, k2);\nn := aggr.subcount_nonnil(g2, g2, e2);
             io.result(n);",
            // global and grouped results of one list
            "c := algebra.thetaselect[<](a, 30);\nn := aggr.count(c);
             k := algebra.projection(c, b);\n(g, e) := group.group(k);
             key := algebra.projection(e, k);\nio.result(n, key);",
            // a result read before the chain's last column is bound
            "c := algebra.thetaselect[<](a, 30);\nn := aggr.count(c);\nn2 := mat.packsum(n);
             a2 := sql.bind(\"t\", \"a\");\nv := algebra.projection(c, a2);\ns := aggr.sum(v);
             io.result(n2, s);",
            // an emitted column beside its candidate list
            "c := algebra.thetaselect[<](a, 9);\nv := algebra.projection(c, b);\nio.result(v, c);",
            // a fetched column taken by something that is not a sink: a
            // whole sort, a top-N over a variable count
            "c := algebra.thetaselect[<](a, 30);\nv := algebra.projection(c, b);
             (s, o) := algebra.sort(v);\nio.result(s);",
            "c := algebra.thetaselect[<](a, 30);\nv := algebra.projection(c, b);
             m := aggr.max(b);\n(s, o) := algebra.firstn(v, m);\nio.result(s);",
            // a top-N that gives nothing, and one whose order gets out
            "c := algebra.thetaselect[<](a, 30);\nv := algebra.projection(c, b);
             (s, o) := algebra.firstn(v, -1);\nio.result(s);",
            "c := algebra.thetaselect[<](a, 30);\nv := algebra.projection(c, b);
             (s, o) := algebra.firstn(v, 5);\nio.result(s, o);",
            // a top-N beside the column it sorted, and beside an aggregate
            "c := algebra.thetaselect[<](a, 30);\nv := algebra.projection(c, b);
             (s, o) := algebra.firstn(v, 5);\nio.result(s, v);",
            "c := algebra.thetaselect[<](a, 30);\nv := algebra.projection(c, b);
             n := aggr.count(c);\n(s, o) := algebra.firstn(v, 5);\nio.result(s, n);",
            // a string sort key, and the key of packed fragments
            "s := sql.bind(\"t\", \"s\");\nc := algebra.thetaselect[<](a, 9);
             v := algebra.projection(c, s);\n(f, o) := algebra.firstn(v, 3);\nio.result(f);",
            "a0 := algebra.slice(a, 0, 2);\na1 := algebra.slice(a, 1, 2);
             m := mat.pack(a0, a1);\n(f, o) := algebra.firstn(m, 3);\nio.result(f);",
        ];
        for body in unfusable {
            let src = format!("{BINDS}{body}");
            let p = fuse(&src);
            assert_eq!(pipelines(&p), 0, "fused:\n{src}\ninto\n{p}");
            assert_eq!(
                p,
                parse_program(&src).unwrap(),
                "the plan was touched:\n{src}"
            );
        }
    }

    #[test]
    fn fragments_fuse_with_the_whole_columns_they_fetch() {
        let slices = "a0 := algebra.slice(a, 0, 2);\na1 := algebra.slice(a, 1, 2);
            b1 := algebra.slice(b, 1, 2);\n";
        // fragment 1 of `a` filters; `b`'s fragment 1 and the whole `a` cover it
        let p = fuse(&format!(
            "{BINDS}{slices}c := algebra.thetaselect[<](a1, 30);
            c2 := algebra.thetaselect[>](b1, c, 0);
            v := algebra.projection(c2, a);
            s := aggr.sum(v);
            io.result(s);"
        ));
        assert_eq!(pipelines(&p), 1, "{p}");
        // fragment 0 of `a` filters: fragment 1 of `b` holds other rows
        let p = fuse(&format!(
            "{BINDS}{slices}c := algebra.thetaselect[<](a0, 30);
            v := algebra.projection(c, a);
            s := aggr.sum(v);
            io.result(s);"
        ));
        assert_eq!(pipelines(&p), 1, "{p}");
        let src = format!(
            "{BINDS}{slices}c := algebra.thetaselect[<](a, 30);
            c2 := algebra.thetaselect[>](b1, c, 0);
            n := aggr.count(c2);
            io.result(n);"
        );
        let plan = parse_program(&src).unwrap();
        let fused = FusePipeline::new(column_facts(&catalog())).run(plan.clone());
        assert_eq!(
            fused, plan,
            "a fragment cannot be read at the whole column's oids"
        );
    }
}
