//! Multi-core MAL execution (§3.1's `dataflow` module).
//!
//! The serial [`Interpreter`](mammoth_mal::Interpreter) walks a plan top to
//! bottom, one instruction at a time. This crate executes the same plan as
//! a *dependency DAG*: an instruction becomes runnable the moment every
//! instruction it reads from has finished, and a fixed pool of worker
//! threads drains the runnable set concurrently. Combined with the
//! `mitosis`/`mergetable` optimizer modules — which rewrite a scan into k
//! independent fragment pipelines merged by `mat.pack`/`mat.packsum` — this
//! turns one query into k parallel operator chains plus a merge, MonetDB's
//! multi-core execution model.
//!
//! The scheduler adds **no new execution semantics**: it runs on the same
//! core as the serial interpreter — `mammoth_mal::frame`'s [`Frame`] (slots,
//! counters, `io.result` / `language.pass` handling) and [`StepCtx::step`]
//! (`execute_instr`, property check, profiler event) — so both engines
//! compute bit-identical results and tell the same story about them by
//! construction. What this crate owns is the *order*:
//!
//! * `io.result` depends on its arguments like any other node;
//! * `language.pass x` carries *anti-dependency* edges on every earlier
//!   reader of x, so a slot is freed only after all its consumers ran —
//!   the verifier already guarantees no instruction reads x after its
//!   `language.pass`, and the anti-edges enforce the same order under
//!   concurrency.
//!
//! One mutex guards the scheduler state (the frame, in-degrees, the ready
//! queue); `step` runs strictly *outside* the lock. Arguments are
//! Arc-cloned under the lock — cloning a
//! [`MalValue`] is O(1) — so the critical sections
//! stay tiny and workers contend only on bookkeeping, never on data.

#![deny(unsafe_code)]

use mammoth_mal::{
    check_props_enabled, Arg, ExecStats, Frame, MalValue, OpCode, PlanExecutor, Program, StepCtx,
};
use mammoth_storage::Catalog;
use mammoth_types::{Error, ProfiledRun, Result, TraceEvent};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Condvar, Mutex, PoisonError};

/// Scheduler state shared by the worker pool; one mutex guards all of it.
struct State {
    frame: Frame,
    indeg: Vec<usize>,
    /// Runnable instructions, lowest index first: one worker therefore
    /// runs the plan in program order, exactly as the serial interpreter.
    ready: BinaryHeap<Reverse<usize>>,
    done: usize,
    inflight: u64,
    error: Option<Error>,
}

/// The dependency DAG of a plan: for each instruction, the instructions
/// that become runnable once it finishes.
struct Dag {
    succs: Vec<Vec<usize>>,
    indeg: Vec<usize>,
}

/// Build def→use edges plus the `language.pass` anti-edges (a free waits
/// for every earlier reader of its variable).
fn build_dag(prog: &Program) -> Dag {
    let n = prog.instrs.len();
    let mut def_site: Vec<Option<usize>> = vec![None; prog.nvars()];
    let mut readers: Vec<Vec<usize>> = vec![Vec::new(); prog.nvars()];
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut indeg = vec![0usize; n];
    for (idx, instr) in prog.instrs.iter().enumerate() {
        let mut deps: Vec<usize> = Vec::new();
        for a in &instr.args {
            if let Arg::Var(v) = a {
                if let Some(d) = def_site[*v] {
                    deps.push(d);
                }
            }
        }
        if instr.op == OpCode::Free {
            if let Some(Arg::Var(v)) = instr.args.first() {
                deps.extend_from_slice(&readers[*v]);
            }
        } else {
            for a in &instr.args {
                if let Arg::Var(v) = a {
                    readers[*v].push(idx);
                }
            }
        }
        deps.sort_unstable();
        deps.dedup();
        indeg[idx] = deps.len();
        for d in deps {
            succs[d].push(idx);
        }
        for r in &instr.results {
            def_site[*r] = Some(idx);
        }
    }
    Dag { succs, indeg }
}

/// Execute a plan as a dependency DAG on `threads` workers.
///
/// Returns the `io.result` values (in argument order) and the run's
/// counters. Instructions are dispatched the moment their dependencies
/// finish; `io.result` and `language.pass` run under the scheduler lock
/// (they only move/drop already-computed values), everything else steps
/// on a worker outside the lock.
pub fn run_dataflow(
    catalog: &Catalog,
    prog: &Program,
    threads: usize,
) -> Result<(Vec<MalValue>, ExecStats)> {
    let (out, stats, _) = run_dataflow_inner(catalog, prog, threads, false)?;
    Ok((out, stats))
}

/// [`run_dataflow`] with the per-instruction profiler on: each executed
/// instruction additionally yields a [`TraceEvent`] carrying the worker id
/// that ran it and its start offset / duration relative to the run's t0.
/// Event order follows completion order, which is nondeterministic under
/// concurrency — consumers compare traces as multisets.
pub fn run_dataflow_profiled(
    catalog: &Catalog,
    prog: &Program,
    threads: usize,
) -> Result<(Vec<MalValue>, ExecStats, Vec<TraceEvent>)> {
    run_dataflow_inner(catalog, prog, threads, true)
}

fn run_dataflow_inner(
    catalog: &Catalog,
    prog: &Program,
    threads: usize,
    profiled: bool,
) -> Result<(Vec<MalValue>, ExecStats, Vec<TraceEvent>)> {
    let threads = threads.max(1);
    let ctx = StepCtx::new(catalog, prog, check_props_enabled(), profiled)?;
    let mut frame = Frame::new(threads);
    frame.reset(prog.nvars());
    let total = prog.instrs.len();
    let dag = build_dag(prog);
    let ready = (0..total)
        .filter(|&i| dag.indeg[i] == 0)
        .map(Reverse)
        .collect();
    let state = Mutex::new(State {
        frame,
        indeg: dag.indeg,
        ready,
        done: 0,
        inflight: 0,
        error: None,
    });
    let cv = Condvar::new();

    std::thread::scope(|s| {
        for wid in 0..threads {
            let (ctx, state, cv, succs) = (&ctx, &state, &cv, &dag.succs);
            s.spawn(move || worker(ctx, prog, succs, state, cv, wid));
        }
    });

    let mut st = state.into_inner().unwrap_or_else(PoisonError::into_inner);
    if let Some(e) = st.error.take() {
        return Err(e);
    }
    st.frame.stats.elapsed_ns = ctx.elapsed_ns();
    Ok((st.frame.outputs, st.frame.stats, st.frame.events))
}

/// Ready-queue scheduling of [`StepCtx::step`]: pop a runnable
/// instruction, resolve its arguments under the lock, step outside it,
/// commit under it, and release whatever that made runnable.
fn worker(
    ctx: &StepCtx<'_>,
    prog: &Program,
    succs: &[Vec<usize>],
    state: &Mutex<State>,
    cv: &Condvar,
    wid: usize,
) {
    let total = prog.instrs.len();
    let mut guard = state.lock().unwrap_or_else(PoisonError::into_inner);
    loop {
        while guard.ready.is_empty() && guard.done < total && guard.error.is_none() {
            guard = cv.wait(guard).unwrap_or_else(PoisonError::into_inner);
        }
        if guard.done >= total || guard.error.is_some() {
            cv.notify_all();
            return;
        }
        let Reverse(idx) = guard.ready.pop().expect("checked non-empty");
        let st = &mut *guard;
        st.inflight += 1;
        st.frame.stats.max_inflight = st.frame.stats.max_inflight.max(st.inflight);
        let instr = &prog.instrs[idx];

        let outcome: Result<()> = match guard.frame.marker(instr) {
            Ok(true) => Ok(()),
            Err(e) => Err(e),
            Ok(false) => match guard.frame.args(instr) {
                Err(e) => Err(e),
                Ok(args) => {
                    drop(guard);
                    let done = ctx.step(wid, idx, &args);
                    guard = state.lock().unwrap_or_else(PoisonError::into_inner);
                    done.map(|done| guard.frame.commit(instr, done))
                }
            },
        };

        guard.inflight -= 1;
        match outcome {
            Err(e) => {
                // first error wins; wake everyone up so the pool drains
                guard.error.get_or_insert(e);
                cv.notify_all();
                return;
            }
            Ok(()) => {
                guard.done += 1;
                for &nxt in &succs[idx] {
                    guard.indeg[nxt] -= 1;
                    if guard.indeg[nxt] == 0 {
                        guard.ready.push(Reverse(nxt));
                    }
                }
                if guard.done >= total || !guard.ready.is_empty() {
                    cv.notify_all();
                }
            }
        }
    }
}

/// Resolve a requested thread count: `0` means "pick for me" — the
/// `MAMMOTH_THREADS` environment variable if set, otherwise the machine's
/// available parallelism.
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Ok(s) = std::env::var("MAMMOTH_THREADS") {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The dataflow engine behind the [`PlanExecutor`] trait: the scheduler at
/// a fixed thread count.
pub struct ParallelExecutor {
    threads: usize,
}

impl ParallelExecutor {
    /// `threads == 0` delegates to [`resolve_threads`].
    pub fn new(threads: usize) -> ParallelExecutor {
        ParallelExecutor {
            threads: resolve_threads(threads),
        }
    }

    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl PlanExecutor for ParallelExecutor {
    fn run_plan(&self, catalog: &Catalog, prog: &Program) -> Result<Vec<MalValue>> {
        run_dataflow(catalog, prog, self.threads).map(|(out, _)| out)
    }

    fn engine_name(&self) -> &'static str {
        "dataflow"
    }

    fn run_plan_profiled(
        &self,
        catalog: &Catalog,
        prog: &Program,
    ) -> Result<(Vec<MalValue>, ProfiledRun)> {
        let (out, stats, events) = run_dataflow_profiled(catalog, prog, self.threads)?;
        Ok((out, stats.fold_into(self.engine_name(), events)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mammoth_algebra::{AggKind, CmpOp};
    use mammoth_mal::{column_types, parallel_pipeline, Instr, Interpreter};
    use mammoth_storage::Table;
    use mammoth_types::{ColumnDef, LogicalType, TableSchema, Value};

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
            t.insert_row(&[Value::I64(i % 31), Value::I64(i)]).unwrap();
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
            vec![Arg::Var(a), Arg::Const(Value::I64(7))],
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
    fn dataflow_matches_serial_across_thread_counts() {
        let cat = catalog(5000);
        let prog = scan_select_sum();
        let serial = Interpreter::new(&cat).run(&prog).unwrap();
        for threads in [1usize, 2, 4, 8] {
            let (out, stats) = run_dataflow(&cat, &prog, threads).unwrap();
            assert_eq!(out.len(), serial.len());
            assert_eq!(out[0].as_scalar(), serial[0].as_scalar());
            assert_eq!(out[1].as_scalar(), serial[1].as_scalar());
            assert_eq!(stats.executed, 6);
            assert_eq!(stats.threads, threads);
        }
    }

    #[test]
    fn dataflow_runs_mitosis_rewritten_plans() {
        let cat = catalog(5000);
        let prog = scan_select_sum();
        let serial = Interpreter::new(&cat).run(&prog).unwrap();
        let pl = parallel_pipeline(4, column_types(&cat));
        let rewritten = pl.try_optimize(prog).unwrap();
        for threads in [1usize, 4] {
            let (out, stats) = run_dataflow(&cat, &rewritten, threads).unwrap();
            assert_eq!(out[0].as_scalar(), serial[0].as_scalar());
            assert_eq!(out[1].as_scalar(), serial[1].as_scalar());
            // GC markers release fragments as the pipelines drain
            assert!(stats.released_early > 0);
            assert_eq!(stats.double_releases, 0);
        }
    }

    #[test]
    fn frees_wait_for_all_readers() {
        // b is read by two selects; language.pass b must run after both
        let cat = catalog(100);
        let mut p = Program::new();
        let b = p.push(
            OpCode::Bind,
            vec![
                Arg::Const(Value::Str("t".into())),
                Arg::Const(Value::Str("b".into())),
            ],
        )[0];
        let c1 = p.push(
            OpCode::ThetaSelect(CmpOp::Lt),
            vec![Arg::Var(b), Arg::Const(Value::I64(10))],
        )[0];
        let c2 = p.push(
            OpCode::ThetaSelect(CmpOp::Ge),
            vec![Arg::Var(b), Arg::Const(Value::I64(90))],
        )[0];
        p.instrs.push(Instr {
            results: vec![],
            op: OpCode::Free,
            args: vec![Arg::Var(b)],
        });
        let n1 = p.push(OpCode::Count, vec![Arg::Var(c1)])[0];
        let n2 = p.push(OpCode::Count, vec![Arg::Var(c2)])[0];
        p.push_result(&[n1, n2]);
        for threads in [1usize, 4, 8] {
            let (out, stats) = run_dataflow(&cat, &p, threads).unwrap();
            assert_eq!(out[0].as_scalar(), Some(&Value::I64(10)));
            assert_eq!(out[1].as_scalar(), Some(&Value::I64(10)));
            assert_eq!(stats.released_early, 1);
            assert_eq!(stats.double_releases, 0);
        }
    }

    #[test]
    fn errors_propagate_and_drain_the_pool() {
        let cat = catalog(10);
        let mut p = Program::new();
        p.push(
            OpCode::Bind,
            vec![
                Arg::Const(Value::Str("missing".into())),
                Arg::Const(Value::Str("x".into())),
            ],
        );
        let ok = p.push(
            OpCode::Bind,
            vec![
                Arg::Const(Value::Str("t".into())),
                Arg::Const(Value::Str("a".into())),
            ],
        )[0];
        let n = p.push(OpCode::Count, vec![Arg::Var(ok)])[0];
        p.push_result(&[n]);
        for threads in [1usize, 4] {
            assert!(run_dataflow(&cat, &p, threads).is_err());
        }

        // an unbound `?N` or variable is the frame's error, word for word,
        // whichever scheduler runs into it
        let mut unbound = Program::new();
        let ghost = unbound.var();
        for arg in [Arg::Param(0), Arg::Var(ghost)] {
            let mut p = unbound.clone();
            let n = p.push(OpCode::Count, vec![arg])[0];
            p.push_result(&[n]);
            let serial = Interpreter::new(&cat).run(&p).unwrap_err().to_string();
            assert!(serial.contains("use of unbound"), "{serial}");
            for threads in [1usize, 4] {
                let err = run_dataflow(&cat, &p, threads).unwrap_err();
                assert_eq!(err.to_string(), serial);
            }
        }
    }

    #[test]
    fn executor_trait_and_thread_resolution() {
        let cat = catalog(500);
        let prog = scan_select_sum();
        let serial = Interpreter::new(&cat).run(&prog).unwrap();
        let ex = ParallelExecutor::new(3);
        assert_eq!(ex.threads(), 3);
        assert_eq!(ex.engine_name(), "dataflow");
        let out = ex.run_plan(&cat, &prog).unwrap();
        assert_eq!(out[0].as_scalar(), serial[0].as_scalar());
        let (out, run) = ex.run_plan_profiled(&cat, &prog).unwrap();
        assert_eq!(out[0].as_scalar(), serial[0].as_scalar());
        assert_eq!((run.executed, run.threads), (6, 3));
        assert!(resolve_threads(5) == 5 && resolve_threads(0) >= 1);
    }
}
