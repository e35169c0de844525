//! The MAL interpreter: §3.1's third tier.
//!
//! Executes a [`Program`] against a [`Catalog`] by calling the BAT Algebra
//! operator library, materializing every intermediate (operator-at-a-time).
//!
//! The interpreter is a *scheduler* over the shared execution core in
//! [`crate::frame`]: it steps instructions in program order and adds
//! nothing else. The slots, the counters, the property check and the
//! profiler events are the core's — the same ones the dataflow scheduler
//! (`mammoth-parallel`) and the memoizing one (§6.1) run on. This module
//! also holds [`execute_instr`], the single point where MAL opcodes meet
//! the BAT Algebra.

use crate::frame::{ExecStats, Frame, StepCtx};
use crate::program::{
    FilterTest, Instr, MalValue, OpCode, PipelineOut, PipelineSink, PipelineSpec, Program,
};
use mammoth_algebra as alg;
use mammoth_storage::{Bat, Catalog, HeadColumn, Properties, TailHeap};
use mammoth_types::{Error, Oid, ProfiledRun, Result, TraceEvent, Value};
use mammoth_vectorized as vx;
use std::sync::Arc;

/// The interpreter. Holds the catalog immutably; queries never mutate.
pub struct Interpreter<'a> {
    catalog: &'a Catalog,
    profiled: bool,
    check_props: bool,
    frame: Frame,
}

impl<'a> Interpreter<'a> {
    pub fn new(catalog: &'a Catalog) -> Interpreter<'a> {
        Interpreter {
            catalog,
            profiled: false,
            check_props: crate::analysis::check_props_enabled(),
            frame: Frame::new(1),
        }
    }

    /// Cross-check every materialized BAT against the properties the
    /// abstract interpretation inferred for its variable; a violation aborts
    /// the run with an internal error naming the instruction. Defaults to
    /// the `MAMMOTH_CHECK_PROPS` environment variable; this builder pins it
    /// explicitly (tests use it to avoid process-global environment races).
    pub fn check_props(mut self, on: bool) -> Interpreter<'a> {
        self.check_props = on;
        self
    }

    /// Record one [`TraceEvent`] per executed instruction: opcode, rendered
    /// args, wall time, input/result BAT rows and heap bytes. `io.result`
    /// and `language.pass` are bookkeeping, not work, so they get no event
    /// — `events.len() == executed` holds.
    pub fn profiled(mut self, on: bool) -> Interpreter<'a> {
        self.profiled = on;
        self
    }

    pub fn stats(&self) -> &ExecStats {
        &self.frame.stats
    }

    /// Drain the profiler events recorded so far (empty unless
    /// [`Interpreter::profiled`] was enabled).
    pub fn take_events(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.frame.events)
    }

    /// The stats and events folded into the engine-neutral profile.
    pub fn profiled_run(&mut self, engine: &str) -> ProfiledRun {
        let events = self.take_events();
        self.frame.stats.fold_into(engine, events)
    }

    /// Run a program; returns the values marked by `io.result`:
    /// program-order scheduling of [`StepCtx::step`] over the shared
    /// [`Frame`].
    pub fn run(&mut self, prog: &Program) -> Result<Vec<MalValue>> {
        let ctx = StepCtx::new(self.catalog, prog, self.check_props, self.profiled)?;
        self.frame.reset(prog.nvars());
        for (idx, instr) in prog.instrs.iter().enumerate() {
            if self.frame.marker(instr)? {
                continue;
            }
            let args = self.frame.args(instr)?;
            let done = ctx.step(0, idx, &args)?;
            self.frame.commit(instr, done);
        }
        self.frame.stats.elapsed_ns += ctx.elapsed_ns();
        Ok(std::mem::take(&mut self.frame.outputs))
    }
}

/// An executor of verified MAL plans. The serial [`Interpreter`] and the
/// dataflow scheduler in `mammoth-parallel` both fit behind this trait, so
/// the SQL session can swap engines without knowing either.
pub trait PlanExecutor: Send + Sync {
    /// Run a program; returns the values marked by `io.result`.
    fn run_plan(&self, catalog: &Catalog, prog: &Program) -> Result<Vec<MalValue>>;
    /// A short engine name for diagnostics.
    fn engine_name(&self) -> &'static str;
    /// Run a program with per-instruction profiling.
    fn run_plan_profiled(
        &self,
        catalog: &Catalog,
        prog: &Program,
    ) -> Result<(Vec<MalValue>, ProfiledRun)>;
}

fn instr_bat(args: &[MalValue], k: usize) -> Result<Arc<Bat>> {
    match &args[k] {
        MalValue::Bat(b) => Ok(Arc::clone(b)),
        MalValue::Scalar(s) => Err(Error::TypeMismatch {
            expected: "bat".into(),
            found: format!("{s:?}"),
        }),
    }
}

fn instr_const(args: &[MalValue], k: usize) -> Result<Value> {
    match &args[k] {
        MalValue::Scalar(v) => Ok(v.clone()),
        MalValue::Bat(_) => Err(Error::TypeMismatch {
            expected: "scalar".into(),
            found: "bat".into(),
        }),
    }
}

/// The `n` of `algebra.firstn` and of a top-N pipeline sink: a nil count is
/// no limit, a negative one none at all.
fn row_count(arg: Option<&MalValue>) -> Result<usize> {
    match arg {
        Some(MalValue::Scalar(n)) => Ok(n.as_i64().unwrap_or(i64::MAX).max(0) as usize),
        _ => Err(Error::TypeMismatch {
            expected: "a scalar row count".into(),
            found: "bat".into(),
        }),
    }
}

/// Split a selection's resolved arguments after the input column into the
/// optional candidate list and its `nbounds` predicate constants.
fn select_operands<'a>(
    instr: &Instr,
    args: &'a [MalValue],
    nbounds: usize,
) -> Result<(Option<Arc<Bat>>, &'a [MalValue])> {
    match args.len().checked_sub(1 + nbounds) {
        Some(0) => Ok((None, &args[1..])),
        Some(1) => Ok((Some(instr_bat(args, 1)?), &args[2..])),
        _ => Err(Error::Internal(format!(
            "{} takes {} or {} arguments, got {}",
            instr.op.name(),
            1 + nbounds,
            2 + nbounds,
            args.len()
        ))),
    }
}

/// Execute one pure instruction given its resolved argument values (one
/// entry per `instr.args`, constants resolved to scalars). This is the
/// single point where MAL opcodes meet the BAT Algebra; the serial
/// interpreter and the parallel dataflow workers share it, so both engines
/// compute bit-identical results by construction.
pub fn execute_instr(catalog: &Catalog, instr: &Instr, args: &[MalValue]) -> Result<Vec<MalValue>> {
    let bat = |b: Bat| MalValue::Bat(Arc::new(b));
    Ok(match &instr.op {
        OpCode::Bind => {
            let t = instr_const(args, 0)?;
            let c = instr_const(args, 1)?;
            let (Value::Str(t), Value::Str(c)) = (t, c) else {
                return Err(Error::Bind("sql.bind expects string constants".into()));
            };
            let col = catalog.table(&t)?.column_by_name(&c)?;
            // zero-copy when the column has no pending deltas
            vec![MalValue::Bat(col.materialize_shared())]
        }
        OpCode::ThetaSelect(op) => {
            let b = instr_bat(args, 0)?;
            let (cand, bounds) = select_operands(instr, args, 1)?;
            let c = instr_const(bounds, 0)?;
            vec![bat(match cand {
                None => alg::select_cmp(&b, *op, &c)?,
                Some(cand) => alg::select_cmp_cand(&b, &cand, *op, &c)?,
            })]
        }
        OpCode::RangeSelect { lo_incl, hi_incl } => {
            let b = instr_bat(args, 0)?;
            let (cand, bounds) = select_operands(instr, args, 2)?;
            // a nil bound is open
            let lo = instr_const(bounds, 0)?;
            let hi = instr_const(bounds, 1)?;
            let lo = (!lo.is_null()).then_some(&lo);
            let hi = (!hi.is_null()).then_some(&hi);
            vec![bat(match cand {
                None => alg::select_range(&b, lo, hi, *lo_incl, *hi_incl)?,
                Some(cand) => alg::select_range_cand(&b, &cand, lo, hi, *lo_incl, *hi_incl)?,
            })]
        }
        OpCode::Projection => {
            let cands = instr_bat(args, 0)?;
            let b = instr_bat(args, 1)?;
            vec![bat(alg::fetch_join(&cands, &b)?)]
        }
        OpCode::Join => {
            let l = instr_bat(args, 0)?;
            let r = instr_bat(args, 1)?;
            let ji = alg::hash_join(&l, &r)?;
            vec![
                bat(Bat::dense(0, TailHeap::from_vec(ji.left))),
                bat(Bat::dense(0, TailHeap::from_vec(ji.right))),
            ]
        }
        OpCode::Group => {
            let b = instr_bat(args, 0)?;
            let (gids, _n, extents) = alg::group_by(&b)?;
            let ext: Vec<Oid> = extents.iter().map(|&p| p as Oid).collect();
            vec![bat(gids), bat(Bat::dense(0, TailHeap::from_vec(ext)))]
        }
        OpCode::GroupRefine => {
            let gids = instr_bat(args, 0)?;
            let b = instr_bat(args, 1)?;
            let (gids2, _n, extents) = alg::group_refine(&gids, &b)?;
            let ext: Vec<Oid> = extents.iter().map(|&p| p as Oid).collect();
            vec![bat(gids2), bat(Bat::dense(0, TailHeap::from_vec(ext)))]
        }
        OpCode::Aggr(kind) => {
            let b = instr_bat(args, 0)?;
            vec![MalValue::Scalar(alg::aggregate_scalar(*kind, &b)?)]
        }
        OpCode::AggrGrouped(kind) => {
            let b = instr_bat(args, 0)?;
            let gids = instr_bat(args, 1)?;
            let ext = instr_bat(args, 2)?;
            vec![bat(alg::grouped_aggregate(*kind, &b, &gids, ext.len())?)]
        }
        OpCode::Calc(op) => {
            let a = instr_bat(args, 0)?;
            match &args[1] {
                MalValue::Bat(b2) => vec![bat(alg::arith_bat(*op, &a, b2)?)],
                MalValue::Scalar(c) => vec![bat(alg::arith_const(*op, &a, c)?)],
            }
        }
        OpCode::Sort { desc } => {
            let b = instr_bat(args, 0)?;
            let (sorted, order) = alg::sort_bat_dir(&b, *desc)?;
            vec![bat(sorted), bat(order)]
        }
        OpCode::FirstN { desc } => {
            let b = instr_bat(args, 0)?;
            let (sorted, order) = alg::firstn(&b, row_count(args.get(1))?, *desc)?;
            vec![bat(sorted), bat(order)]
        }
        OpCode::Slice => {
            let b = instr_bat(args, 0)?;
            let lo = instr_const(args, 1)?.as_i64().unwrap_or(0).max(0) as usize;
            let hi = instr_const(args, 2)?.as_i64().unwrap_or(i64::MAX).max(0) as usize;
            let hi = hi.min(b.len());
            let lo = lo.min(hi);
            vec![bat(b.slice(lo, hi)?)]
        }
        OpCode::PartSlice => {
            let b = instr_bat(args, 0)?;
            let i = instr_const(args, 1)?.as_i64().unwrap_or(0);
            let k = instr_const(args, 2)?.as_i64().unwrap_or(1);
            if k < 1 || i < 0 || i >= k {
                return Err(Error::Internal(format!(
                    "algebra.slice: fragment {i} of {k} is out of range"
                )));
            }
            let (i, k) = (i as usize, k as usize);
            let lo = i * b.len() / k;
            let hi = (i + 1) * b.len() / k;
            vec![bat(b.slice(lo, hi)?)]
        }
        OpCode::Pack => {
            let bats: Vec<Arc<Bat>> = (0..args.len())
                .map(|k| instr_bat(args, k))
                .collect::<Result<_>>()?;
            let refs: Vec<&Bat> = bats.iter().map(|b| b.as_ref()).collect();
            vec![bat(alg::pack(&refs)?)]
        }
        OpCode::PackSum => {
            let parts: Vec<Value> = (0..args.len())
                .map(|k| instr_const(args, k))
                .collect::<Result<_>>()?;
            vec![MalValue::Scalar(alg::packsum(&parts)?)]
        }
        OpCode::Count => {
            let b = instr_bat(args, 0)?;
            vec![MalValue::Scalar(Value::I64(b.len() as i64))]
        }
        OpCode::Mirror => {
            let b = instr_bat(args, 0)?;
            vec![bat(b.mirror())]
        }
        OpCode::SetProps => {
            let b = instr_bat(args, 0)?;
            let claims = match instr_const(args, 1)? {
                Value::Str(s) => crate::analysis::props::parse_claims(&s).ok_or_else(|| {
                    Error::Internal(format!("bat.setprops: malformed claim '{s}'"))
                })?,
                v => {
                    return Err(Error::Internal(format!(
                        "bat.setprops expects a string claim, got {v}"
                    )))
                }
            };
            let have = b.props();
            let implied = (!claims.sorted || have.sorted)
                && (!claims.revsorted || have.revsorted)
                && (!claims.key || have.key)
                && (!claims.nonil || have.nonil);
            if implied {
                // already tagged: pass the Arc through, O(1)
                vec![MalValue::Bat(b)]
            } else {
                // tag a copy — sound because the checked pipeline only
                // emits claims the property analysis proved
                let mut nb = (*b).clone();
                let mut props = nb.props().clone();
                props.sorted |= claims.sorted;
                props.revsorted |= claims.revsorted;
                props.key |= claims.key;
                props.nonil |= claims.nonil;
                nb.set_props(props);
                vec![bat(nb)]
            }
        }
        OpCode::Pipeline(spec) => run_pipeline(spec, args)?,
        OpCode::Result | OpCode::Free => unreachable!("handled by the scheduler"),
    })
}

/// `vector.pipeline`: borrow the column tails where they lie, bind the
/// filter constants, and hand the lot to the vectorized driver. The first
/// filter scans its whole column; every other column is read at the same
/// oids, so a mitosis fragment pairs with the whole columns it is fetched
/// against.
fn run_pipeline(spec: &PipelineSpec, args: &[MalValue]) -> Result<Vec<MalValue>> {
    let columns: Vec<Arc<Bat>> = (0..spec.ncols())
        .map(|k| instr_bat(args, k))
        .collect::<Result<_>>()?;
    let rows_of = |b: &Bat| match b.head() {
        HeadColumn::Void { seqbase } => Ok(*seqbase..*seqbase + b.len() as Oid),
        HeadColumn::Oids(_) => Err(Error::Internal(
            "vector.pipeline reads void-headed base columns".into(),
        )),
    };
    let scanned = match spec.filters.first() {
        Some(first) => rows_of(&columns[first.col])?,
        None => return Err(Error::Internal("vector.pipeline without a filter".into())),
    };
    let vectors = columns.iter().map(|b| {
        let column = vx::Column::of(b)?;
        let skip = scanned.start.checked_sub(rows_of(b)?.start);
        let rows = (scanned.end - scanned.start) as usize;
        skip.and_then(|skip| column.slice(skip as usize, rows))
            .ok_or(Error::OutOfRange {
                index: scanned.end.max(1) - 1,
                len: b.len() as u64,
            })
    });
    let vectors = vx::ColumnSet::new(vectors.collect::<Result<_>>()?)?;

    let filters = spec
        .filters_with_bounds(args)
        .ok_or_else(|| Error::Internal("vector.pipeline is missing filter bounds".into()))?;
    let stages = filters.map(|(f, bounds)| {
        let pred = match f.test {
            FilterTest::Theta(op) => vx::Filter::Theta(op, instr_const(bounds, 0)?),
            FilterTest::Range { lo_incl, hi_incl } => {
                // a nil bound is open
                let open = |k| instr_const(bounds, k).map(|v| (!v.is_null()).then_some(v));
                vx::Filter::Range {
                    lo: open(0)?,
                    hi: open(1)?,
                    lo_incl,
                    hi_incl,
                }
            }
        };
        Ok(vx::Stage::Filter {
            col: vx::ColRef::Source(f.col),
            pred,
        })
    });
    let outs = spec.outs.iter().map(|o| match *o {
        PipelineOut::Key => vx::Out::Key,
        PipelineOut::Count => vx::Out::Count,
        PipelineOut::Agg(kind, c) => vx::Out::Agg(kind, vx::ColRef::Source(c)),
        PipelineOut::Col(c) => vx::Out::Col(vx::ColRef::Source(c)),
    });
    let kind = match spec.sink {
        PipelineSink::Rows => vx::SinkKind::Rows,
        PipelineSink::Group(key) => vx::SinkKind::GroupBy(vx::ColRef::Source(key)),
        PipelineSink::Top { key, desc } => vx::SinkKind::Top {
            key: vx::ColRef::Source(key),
            n: row_count(args.last())?,
            descending: desc,
        },
    };
    let pipeline = vx::Pipeline {
        stages: stages.collect::<Result<_>>()?,
        sink: vx::Sink {
            kind,
            outs: outs.collect(),
        },
        computed_slots: 0,
    };
    Ok(match pipeline.run(&vectors, vx::VECTOR_SIZE)? {
        vx::Output::Scalars(values) => values.into_iter().map(MalValue::Scalar).collect(),
        vx::Output::Columns(heaps) => heaps
            .into_iter()
            .zip(&spec.outs)
            .map(|(h, out)| {
                // the runtime properties the unfused instructions tag their
                // results with: a fetch through a selection's (ascending)
                // candidates, `algebra.firstn`'s sorted keys
                let props = match (spec.sink, *out) {
                    (PipelineSink::Rows, PipelineOut::Col(c)) => columns[c].props().after_filter(),
                    (PipelineSink::Top { key, desc }, PipelineOut::Col(c)) if c == key => {
                        alg::sorted_props(&h, desc)
                    }
                    _ => Properties::unknown(),
                };
                MalValue::Bat(Arc::new(Bat::dense(0, h).with_props(props)))
            })
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Arg;
    use mammoth_algebra::{AggKind, CmpOp};
    use mammoth_storage::Table;
    use mammoth_types::{ColumnDef, LogicalType, TableSchema};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let mut t = Table::new(TableSchema::new(
            "people",
            vec![
                ColumnDef::new("name", LogicalType::Str),
                ColumnDef::new("age", LogicalType::I32),
            ],
        ))
        .unwrap();
        for (n, a) in [
            ("John Wayne", 1907),
            ("Roger Moore", 1927),
            ("Bob Fosse", 1927),
            ("Will Smith", 1968),
        ] {
            t.insert_row(&[Value::Str(n.into()), Value::I32(a)])
                .unwrap();
        }
        cat.create_table(t).unwrap();
        cat
    }

    /// Figure 1's query as a MAL program: select(age, 1927), fetch names.
    fn figure1_program() -> Program {
        let mut p = Program::new();
        let age = p.push(
            OpCode::Bind,
            vec![
                Arg::Const(Value::Str("people".into())),
                Arg::Const(Value::Str("age".into())),
            ],
        )[0];
        let cands = p.push(
            OpCode::ThetaSelect(CmpOp::Eq),
            vec![Arg::Var(age), Arg::Const(Value::I32(1927))],
        )[0];
        let name = p.push(
            OpCode::Bind,
            vec![
                Arg::Const(Value::Str("people".into())),
                Arg::Const(Value::Str("name".into())),
            ],
        )[0];
        let out = p.push(OpCode::Projection, vec![Arg::Var(cands), Arg::Var(name)])[0];
        p.push_result(&[out]);
        p
    }

    #[test]
    fn figure1_end_to_end() {
        let cat = catalog();
        let mut interp = Interpreter::new(&cat);
        let out = interp.run(&figure1_program()).unwrap();
        assert_eq!(out.len(), 1);
        let b = out[0].as_bat().unwrap();
        assert_eq!(b.len(), 2);
        assert_eq!(b.value_at(0), Value::Str("Roger Moore".into()));
        assert_eq!(b.value_at(1), Value::Str("Bob Fosse".into()));
        assert_eq!(interp.stats().executed, 4);
    }

    #[test]
    fn grouped_aggregation_program() {
        let cat = catalog();
        let mut p = Program::new();
        let age = p.push(
            OpCode::Bind,
            vec![
                Arg::Const(Value::Str("people".into())),
                Arg::Const(Value::Str("age".into())),
            ],
        )[0];
        let g = p.push(OpCode::Group, vec![Arg::Var(age)]);
        let cnt = p.push(
            OpCode::AggrGrouped(AggKind::Count),
            vec![Arg::Var(age), Arg::Var(g[0]), Arg::Var(g[1])],
        )[0];
        let keys = p.push(OpCode::Projection, vec![Arg::Var(g[1]), Arg::Var(age)])[0];
        p.push_result(&[keys, cnt]);

        let mut interp = Interpreter::new(&cat);
        let out = interp.run(&p).unwrap();
        let keys = out[0].as_bat().unwrap();
        let counts = out[1].as_bat().unwrap();
        assert_eq!(keys.tail_slice::<i32>().unwrap(), &[1907, 1927, 1968]);
        assert_eq!(counts.tail_slice::<i64>().unwrap(), &[1, 2, 1]);
    }

    #[test]
    fn scalar_aggregates_and_calc() {
        let cat = catalog();
        let mut p = Program::new();
        let age = p.push(
            OpCode::Bind,
            vec![
                Arg::Const(Value::Str("people".into())),
                Arg::Const(Value::Str("age".into())),
            ],
        )[0];
        let doubled = p.push(
            OpCode::Calc(mammoth_algebra::ArithOp::Mul),
            vec![Arg::Var(age), Arg::Const(Value::I32(2))],
        )[0];
        let s = p.push(OpCode::Aggr(AggKind::Sum), vec![Arg::Var(doubled)])[0];
        let n = p.push(OpCode::Count, vec![Arg::Var(age)])[0];
        p.push_result(&[s, n]);
        let mut interp = Interpreter::new(&cat);
        let out = interp.run(&p).unwrap();
        assert_eq!(
            out[0].as_scalar().unwrap(),
            &Value::I64(2 * (1907 + 1927 + 1927 + 1968))
        );
        assert_eq!(out[1].as_scalar().unwrap(), &Value::I64(4));
    }

    /// A two-join plan whose base and index BATs all stay live to the end
    /// unless `language.pass` markers release them.
    fn multi_join_program() -> Program {
        let mut p = Program::new();
        let age1 = p.push(
            OpCode::Bind,
            vec![
                Arg::Const(Value::Str("people".into())),
                Arg::Const(Value::Str("age".into())),
            ],
        )[0];
        let age2 = p.push(
            OpCode::Bind,
            vec![
                Arg::Const(Value::Str("people".into())),
                Arg::Const(Value::Str("age".into())),
            ],
        )[0];
        let j1 = p.push(OpCode::Join, vec![Arg::Var(age1), Arg::Var(age2)]);
        let f1 = p.push(OpCode::Projection, vec![Arg::Var(j1[0]), Arg::Var(age1)])[0];
        let j2 = p.push(OpCode::Join, vec![Arg::Var(f1), Arg::Var(age2)]);
        let f2 = p.push(OpCode::Projection, vec![Arg::Var(j2[0]), Arg::Var(f1)])[0];
        let s = p.push(OpCode::Aggr(AggKind::Sum), vec![Arg::Var(f2)])[0];
        p.push_result(&[s]);
        p
    }

    #[test]
    fn language_pass_releases_and_interops_with_gc_pass() {
        use crate::optimizer::{GarbageCollect, OptimizerPass};
        let cat = catalog();
        let prog = multi_join_program();
        let gc = GarbageCollect.run(prog.clone());

        let mut plain = Interpreter::new(&cat);
        let out = plain.run(&prog).unwrap();
        // every BAT intermediate stays live: 2 binds + 2 per join + 2
        // projections = 8
        assert_eq!(plain.stats().peak_live_bats, 8);
        assert_eq!(plain.stats().released_early, 0);
        let mut gcd = Interpreter::new(&cat);
        let out_gc = gcd.run(&gc).unwrap();
        assert!(gcd.stats().released_early > 0);
        assert!(gcd.stats().peak_live_bats < plain.stats().peak_live_bats);
        assert_eq!(out[0].as_scalar().unwrap(), out_gc[0].as_scalar().unwrap());
    }

    #[test]
    fn errors_are_propagated() {
        let cat = catalog();
        let mut p = Program::new();
        p.push(
            OpCode::Bind,
            vec![
                Arg::Const(Value::Str("nonexistent".into())),
                Arg::Const(Value::Str("x".into())),
            ],
        );
        let mut interp = Interpreter::new(&cat);
        assert!(interp.run(&p).is_err());

        // unbound variable
        let mut p = Program::new();
        let ghost = p.var();
        p.push(OpCode::Count, vec![Arg::Var(ghost)]);
        assert!(Interpreter::new(&cat).run(&p).is_err());
    }

    #[test]
    fn sort_and_slice() {
        let cat = catalog();
        let mut p = Program::new();
        let age = p.push(
            OpCode::Bind,
            vec![
                Arg::Const(Value::Str("people".into())),
                Arg::Const(Value::Str("age".into())),
            ],
        )[0];
        let s = p.push(OpCode::Sort { desc: false }, vec![Arg::Var(age)]);
        let top2 = p.push(
            OpCode::Slice,
            vec![
                Arg::Var(s[0]),
                Arg::Const(Value::I64(0)),
                Arg::Const(Value::I64(2)),
            ],
        )[0];
        p.push_result(&[top2]);
        let out = Interpreter::new(&cat).run(&p).unwrap();
        assert_eq!(
            out[0].as_bat().unwrap().tail_slice::<i32>().unwrap(),
            &[1907, 1927]
        );
    }
}
