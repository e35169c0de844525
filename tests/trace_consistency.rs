//! Differential testing of the profiler: every engine that runs a plan
//! must agree on the *answers* and tell a mutually consistent *story*
//! about how it got them.
//!
//! A corpus of randomized scan/select/project/calc/join/aggregate plans
//! (i64 columns only, scalar outputs, so results compare bit-exactly)
//! runs on:
//!
//! * the serial interpreter,
//! * the recycling scheduler (`mammoth::recycler`), twice (cold, then warm),
//! * the dataflow worker pool at 1, 2 and 4 threads — on the *same*
//!   unrewritten plan, so the executed-opcode multiset must match the
//!   serial one exactly.
//!
//! Checked invariants per plan:
//!
//! * all engines return identical scalar results;
//! * `events.len() == executed + recycled` in every trace;
//! * every event nests inside the run: `start_ns + dur_ns <= elapsed_ns`;
//! * the multiset of executed opcodes is identical across serial and
//!   dataflow runs, and identical modulo the `recycled` flag for the warm
//!   recycler run (`warm.executed + warm.recycled == serial.executed`);
//! * every serialized trace passes the schema validator;
//! * with `garbage_collect`'s release markers in the plan, serial and
//!   dataflow x1 are the same run — `executed`, `released_early`,
//!   `peak_live_bats` and the events `(instr, op, rows_in, rows_out,
//!   bytes_out)` in the same order — and dataflow x2/x4 differ from it
//!   only in order and peak: both engines schedule one `step` over one
//!   kind of frame, and markers are the only thing that frees a slot.

use mammoth::mal::{Arg, GarbageCollect, Interpreter, MalValue, OpCode, OptimizerPass, Program};
use mammoth::parallel::run_dataflow_profiled;
use mammoth::recycler::{run_recycling_profiled, EvictPolicy, Recycler};
use mammoth::storage::{Bat, Catalog, Table};
use mammoth::types::{ColumnDef, EventKind, LogicalType, ProfiledRun, TableSchema, Value};
use mammoth::workload::uniform_i64;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use mammoth::algebra::{AggKind, ArithOp, CmpOp};

const ROWS: usize = 4096;
const DIM_ROWS: usize = 64;

fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    let fact = Table::from_bats(
        TableSchema::new(
            "t",
            vec![
                ColumnDef::new("c0", LogicalType::I64),
                ColumnDef::new("c1", LogicalType::I64),
                ColumnDef::new("c2", LogicalType::I64),
            ],
        ),
        vec![
            Bat::from_vec(uniform_i64(ROWS, 0, 1000, 11)),
            Bat::from_vec(uniform_i64(ROWS, 0, 1000, 12)),
            Bat::from_vec(uniform_i64(ROWS, 0, DIM_ROWS as i64, 13)),
        ],
    )
    .unwrap();
    cat.create_table(fact).unwrap();
    let dim = Table::from_bats(
        TableSchema::new("d", vec![ColumnDef::new("k", LogicalType::I64)]),
        vec![Bat::from_vec((0..DIM_ROWS as i64).collect::<Vec<_>>())],
    )
    .unwrap();
    cat.create_table(dim).unwrap();
    cat
}

fn bind(p: &mut Program, table: &str, col: &str) -> usize {
    p.push(
        OpCode::Bind,
        vec![
            Arg::Const(Value::Str(table.into())),
            Arg::Const(Value::Str(col.into())),
        ],
    )[0]
}

/// One randomized plan: select on a random column, project a random
/// payload, an optional calc chain, an optional join against the
/// dimension, scalar aggregates at the end.
fn random_plan(rng: &mut StdRng) -> Program {
    let cols = ["c0", "c1", "c2"];
    let mut p = Program::new();
    let sel_col = cols[rng.random_range(0..cols.len())];
    let a = bind(&mut p, "t", sel_col);
    let cmp = [CmpOp::Gt, CmpOp::Lt, CmpOp::Ge, CmpOp::Le][rng.random_range(0..4usize)];
    let cut = rng.random_range(0..1000i64);
    let cands = p.push(
        OpCode::ThetaSelect(cmp),
        vec![Arg::Var(a), Arg::Const(Value::I64(cut))],
    )[0];
    let pay_col = cols[rng.random_range(0..cols.len())];
    let b = bind(&mut p, "t", pay_col);
    let mut v = p.push(OpCode::Projection, vec![Arg::Var(cands), Arg::Var(b)])[0];
    for _ in 0..rng.random_range(0..3usize) {
        let op = [ArithOp::Add, ArithOp::Mul][rng.random_range(0..2usize)];
        let k = rng.random_range(1..10i64);
        v = p.push(
            OpCode::Calc(op),
            vec![Arg::Var(v), Arg::Const(Value::I64(k))],
        )[0];
    }
    let mut outs = Vec::new();
    if rng.random_bool(0.5) {
        let fk = bind(&mut p, "t", "c2");
        let keys = p.push(OpCode::Projection, vec![Arg::Var(cands), Arg::Var(fk)])[0];
        let dk = bind(&mut p, "d", "k");
        let j = p.push(OpCode::Join, vec![Arg::Var(keys), Arg::Var(dk)]);
        outs.push(p.push(OpCode::Count, vec![Arg::Var(j[0])])[0]);
    }
    outs.push(p.push(OpCode::Aggr(AggKind::Sum), vec![Arg::Var(v)])[0]);
    outs.push(p.push(OpCode::Count, vec![Arg::Var(v)])[0]);
    p.push_result(&outs);
    p
}

fn scalars(vals: &[MalValue]) -> Vec<Value> {
    vals.iter()
        .map(|v| v.as_scalar().expect("scalar output").clone())
        .collect()
}

/// Sorted multiset of executed opcode names; with `include_recycled`, hits
/// served from the recycler count too (they stand in for an execution).
fn op_multiset(run: &ProfiledRun, include_recycled: bool) -> Vec<String> {
    let mut ops: Vec<String> = run
        .events
        .iter()
        .filter(|e| include_recycled || !e.recycled)
        .map(|e| e.op.clone())
        .collect();
    ops.sort();
    ops
}

/// What each event says happened, without when or on which worker.
fn story(run: &ProfiledRun) -> Vec<(i64, String, u64, u64, u64)> {
    run.events
        .iter()
        .map(|e| (e.instr, e.op.clone(), e.rows_in, e.rows_out, e.bytes_out))
        .collect()
}

/// The shared trace invariants every profiled run must satisfy.
fn check_run(run: &ProfiledRun, ctx: &str) {
    assert_eq!(
        run.events.len() as u64,
        run.executed + run.recycled,
        "{ctx}: one event per executed-or-recycled instruction"
    );
    for (i, e) in run.events.iter().enumerate() {
        assert!(
            e.start_ns + e.dur_ns <= run.elapsed_ns,
            "{ctx}: event {i} ({}) [{}..{}] escapes run wall time {}",
            e.op,
            e.start_ns,
            e.start_ns + e.dur_ns,
            run.elapsed_ns
        );
    }
    mammoth::types::validate_trace(&run.to_json_lines())
        .unwrap_or_else(|e| panic!("{ctx}: trace fails schema validation: {e}"));
}

#[test]
fn engines_agree_on_results_and_traces() {
    let cat = catalog();
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for plan_no in 0..25 {
        let prog = random_plan(&mut rng);
        let ctx = format!("plan {plan_no}");

        // serial reference
        let mut serial = Interpreter::new(&cat).profiled(true);
        let expected = scalars(&serial.run(&prog).unwrap());
        let serial_run = serial.profiled_run("serial");
        check_run(&serial_run, &format!("{ctx} serial"));
        assert_eq!(serial_run.engine, "serial");
        assert_eq!(serial_run.threads, 1);
        assert_eq!(serial_run.recycled, 0, "{ctx}: no recycler, no hits");
        let reference_ops = op_multiset(&serial_run, true);

        // the recycling scheduler: cold, then warm on the same cache. Its
        // trace also carries the cache's own decisions (`recycler.*`
        // events); the invariants are stated over the instruction timeline
        let mut rec = Recycler::new(16 << 20, EvictPolicy::Lru);
        let mut recycling = |phase: &str| {
            let (vals, mut run) = run_recycling_profiled(&cat, &prog, &mut rec).unwrap();
            assert_eq!(scalars(&vals), expected, "{ctx} {phase}");
            assert_eq!(run.engine, "serial+recycler");
            mammoth::types::validate_trace(&run.to_json_lines())
                .unwrap_or_else(|e| panic!("{ctx} {phase}: {e}"));
            run.events.retain(|e| e.kind == EventKind::Instr);
            check_run(&run, &format!("{ctx} {phase}"));
            run
        };
        let cold_run = recycling("cold");
        let warm_run = recycling("warm");
        assert_eq!(
            warm_run.executed + warm_run.recycled,
            serial_run.executed,
            "{ctx}: recycler hits must stand in 1:1 for executions"
        );
        assert!(
            warm_run.recycled >= cold_run.recycled,
            "{ctx}: a warm cache cannot hit less than a cold one"
        );
        assert_eq!(
            op_multiset(&warm_run, true),
            reference_ops,
            "{ctx}: warm recycler run must tell the same story modulo hits"
        );

        // dataflow on the same (unrewritten) plan: same opcode multiset
        for threads in [1usize, 2, 4] {
            let (vals, stats, events) = run_dataflow_profiled(&cat, &prog, threads).unwrap();
            assert_eq!(scalars(&vals), expected, "{ctx} @ {threads} threads");
            let run = stats.fold_into("dataflow", events);
            check_run(&run, &format!("{ctx} dataflow x{threads}"));
            assert_eq!(run.engine, "dataflow");
            assert_eq!(run.threads, threads);
            assert_eq!(run.recycled, 0, "{ctx}: the pool has no recycler");
            assert_eq!(
                op_multiset(&run, true),
                reference_ops,
                "{ctx}: dataflow x{threads} must execute the same multiset"
            );
            for e in &run.events {
                assert!(
                    e.worker < threads,
                    "{ctx}: worker id {} out of range for {threads} threads",
                    e.worker
                );
            }
        }

        // the same plan with release markers: one core, two schedulers
        let marked = GarbageCollect.run(prog.clone());
        let mut serial = Interpreter::new(&cat).profiled(true);
        assert_eq!(scalars(&serial.run(&marked).unwrap()), expected, "{ctx} gc");
        assert_eq!(serial.stats().double_releases, 0, "{ctx} gc serial");
        let serial_gc = serial.profiled_run("serial");
        check_run(&serial_gc, &format!("{ctx} gc serial"));
        assert!(serial_gc.released_early > 0, "{ctx}: markers release slots");
        assert!(
            serial_gc.peak_live_bats <= serial_run.peak_live_bats,
            "{ctx}"
        );
        for threads in [1usize, 2, 4] {
            let ctx = format!("{ctx} gc dataflow x{threads}");
            let (vals, stats, events) = run_dataflow_profiled(&cat, &marked, threads).unwrap();
            assert_eq!(scalars(&vals), expected, "{ctx}");
            assert_eq!(stats.double_releases, 0, "{ctx}");
            let run = stats.fold_into("dataflow", events);
            check_run(&run, &ctx);
            assert_eq!(run.executed, serial_gc.executed, "{ctx}");
            assert_eq!(run.released_early, serial_gc.released_early, "{ctx}");
            let (mut got, mut want) = (story(&run), story(&serial_gc));
            if threads == 1 {
                assert_eq!(run.peak_live_bats, serial_gc.peak_live_bats, "{ctx}");
            } else {
                got.sort();
                want.sort();
            }
            assert_eq!(got, want, "{ctx}");
        }
    }
}
