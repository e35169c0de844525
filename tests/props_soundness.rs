//! Randomized soundness harness for the property tier (the
//! abstract-interpretation analogue of `trace_consistency`).
//!
//! A corpus of randomized scan/select/project/calc/join/aggregate plans —
//! over columns with known statistics, including a provably sorted one and
//! predicate cuts that land outside the value intervals — and of
//! filter → fetch → aggregate / group / emit / top-N chains, which the
//! optimizer fuses into one `vector.pipeline` instruction (so that opcode's
//! transfer function is checked against what each sink materializes), runs
//! with the
//! `MAMMOTH_CHECK_PROPS` runtime checker on, both as compiled and after
//! the property-driven optimizer passes, on:
//!
//! * the serial interpreter,
//! * the serial interpreter with a recycler (cold, then warm — recycled
//!   BATs are checked too),
//! * the dataflow worker pool at 4 threads.
//!
//! Checked invariants per plan:
//!
//! * zero property violations on every engine (every materialized BAT
//!   satisfies the statically inferred `Props`);
//! * results with the property passes enabled are identical to results
//!   with them disabled, on every engine.

use mammoth::mal::{
    column_facts_with_zonemaps, default_pipeline_with_props, Arg, Interpreter, MalValue, OpCode,
    Program, CHECK_PROPS_ENV,
};
use mammoth::parallel::run_dataflow;
use mammoth::recycler::{run_recycling, EvictPolicy, Recycler};
use mammoth::storage::{Bat, Catalog, Table};
use mammoth::types::{ColumnDef, LogicalType, TableSchema, Value};
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
                ColumnDef::new("s", LogicalType::I64),
                ColumnDef::new("c2", LogicalType::I64),
            ],
        ),
        vec![
            Bat::from_vec(uniform_i64(ROWS, 0, 1000, 11)),
            Bat::from_vec(uniform_i64(ROWS, 0, 1000, 12)),
            // provably sorted and nil-free: SortedSelect fires on this one
            Bat::from_vec((0..ROWS as i64).collect::<Vec<_>>()),
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

/// One randomized plan: select on a random column (cuts deliberately range
/// past both interval ends, so accept-all / accept-none proofs fire),
/// project a random payload, an optional calc chain, an optional join
/// against the dimension, scalar aggregates at the end.
fn random_plan(rng: &mut StdRng) -> Program {
    let cols = ["c0", "c1", "s", "c2"];
    let mut p = Program::new();
    let sel_col = cols[rng.random_range(0..cols.len())];
    let a = bind(&mut p, "t", sel_col);
    let cmp = [CmpOp::Gt, CmpOp::Lt, CmpOp::Ge, CmpOp::Le][rng.random_range(0..4usize)];
    let cut = rng.random_range(-100..1100i64);
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

/// One randomized chain the `fuse_pipeline` pass takes whole: one to three
/// selections threading a candidate list (cuts past both interval ends
/// again), fetched columns, and one of the four sinks: global aggregates; a
/// grouping with its key, group sizes and grouped aggregates; the fetched
/// columns themselves; or a top-N of one of them with the others fetched in
/// its order.
fn random_fusable_plan(rng: &mut StdRng) -> Program {
    // the sorted column is left out: a select over it becomes a binary
    // search, which is not fused
    let cols = ["c0", "c1", "c2"];
    let mut p = Program::new();
    let mut cands = None;
    for _ in 0..rng.random_range(1..4usize) {
        let col = bind(&mut p, "t", cols[rng.random_range(0..cols.len())]);
        let mut args = vec![Arg::Var(col)];
        args.extend(cands.map(Arg::Var));
        let cut = |rng: &mut StdRng| Arg::Const(Value::I64(rng.random_range(-100..1100i64)));
        let op = if rng.random_bool(0.5) {
            args.push(cut(rng));
            OpCode::ThetaSelect([CmpOp::Gt, CmpOp::Lt, CmpOp::Ne][rng.random_range(0..3usize)])
        } else {
            args.extend([cut(rng), cut(rng)]);
            OpCode::RangeSelect {
                lo_incl: rng.random_bool(0.5),
                hi_incl: rng.random_bool(0.5),
            }
        };
        cands = Some(p.push(op, args)[0]);
    }
    let cands = cands.expect("at least one selection");
    let fetch = |p: &mut Program, rng: &mut StdRng| {
        let col = bind(p, "t", cols[rng.random_range(0..cols.len())]);
        p.push(OpCode::Projection, vec![Arg::Var(cands), Arg::Var(col)])[0]
    };
    let kinds = [
        AggKind::Count,
        AggKind::Sum,
        AggKind::Min,
        AggKind::Max,
        AggKind::Avg,
    ];
    let mut outs = Vec::new();
    let sink = rng.random_range(0..4usize);
    if sink == 0 {
        for _ in 0..rng.random_range(1..4usize) {
            outs.push(fetch(&mut p, rng));
        }
    } else if sink == 1 {
        let key = fetch(&mut p, rng);
        let others: Vec<usize> = (0..rng.random_range(0..3usize))
            .map(|_| fetch(&mut p, rng))
            .collect();
        let desc = rng.random_bool(0.5);
        let n = [0, 1, 10, ROWS as i64 / 2, 2 * ROWS as i64][rng.random_range(0..5usize)];
        let top = p.push(
            OpCode::FirstN { desc },
            vec![Arg::Var(key), Arg::Const(Value::I64(n))],
        );
        outs.push(top[0]);
        for v in others {
            outs.push(p.push(OpCode::Projection, vec![Arg::Var(top[1]), Arg::Var(v)])[0]);
        }
    } else if sink == 2 {
        outs.push(p.push(OpCode::Count, vec![Arg::Var(cands)])[0]);
        for _ in 0..rng.random_range(1..4usize) {
            let v = fetch(&mut p, rng);
            let kind = kinds[rng.random_range(0..kinds.len())];
            outs.push(p.push(OpCode::Aggr(kind), vec![Arg::Var(v)])[0]);
        }
    } else {
        let key = fetch(&mut p, rng);
        let g = p.push(OpCode::Group, vec![Arg::Var(key)]);
        let (gids, ext) = (Arg::Var(g[0]), Arg::Var(g[1]));
        outs.push(p.push(OpCode::Projection, vec![ext.clone(), Arg::Var(key)])[0]);
        let sizes = vec![gids.clone(), gids.clone(), ext.clone()];
        outs.push(p.push(OpCode::AggrGrouped(AggKind::Count), sizes)[0]);
        for _ in 0..rng.random_range(1..4usize) {
            let v = fetch(&mut p, rng);
            let kind = kinds[rng.random_range(0..kinds.len())];
            let args = vec![Arg::Var(v), gids.clone(), ext.clone()];
            outs.push(p.push(OpCode::AggrGrouped(kind), args)[0]);
        }
    }
    p.push_result(&outs);
    p
}

/// Every output, scalar or BAT, as its values in order.
fn answers(vals: &[MalValue]) -> Vec<Vec<Value>> {
    vals.iter()
        .map(|v| match v {
            MalValue::Scalar(s) => vec![s.clone()],
            MalValue::Bat(b) => (0..b.len()).map(|i| b.value_at(i)).collect(),
        })
        .collect()
}

#[test]
fn property_checker_reports_zero_violations_across_engines() {
    // the dataflow engine reads the environment flag; the serial
    // interpreters pin the checker explicitly via the builder as well
    std::env::set_var(CHECK_PROPS_ENV, "1");
    let cat = catalog();
    let facts = column_facts_with_zonemaps(&cat);
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    // chains that ran fused, by the kind of result their sink binds
    let (mut scalars, mut bats) = (0, 0);
    for plan_no in 0..80 {
        // every other plan is a chain the optimizer fuses
        let fusable = plan_no % 2 == 1;
        let prog = match fusable {
            false => random_plan(&mut rng),
            true => random_fusable_plan(&mut rng),
        };
        let ctx = format!("plan {plan_no}");

        // reference: property passes disabled, checker on
        let expected = answers(
            &Interpreter::new(&cat)
                .check_props(true)
                .run(&prog)
                .unwrap_or_else(|e| panic!("{ctx} serial/unoptimized: {e}")),
        );

        // property passes enabled
        let opt = default_pipeline_with_props(facts.clone()).optimize(prog.clone());
        // a chain fuses unless the interval proofs got to its selections
        // first (an accept-all select is a mirror, not a filter)
        let pipelines = opt
            .instrs
            .iter()
            .filter(|i| matches!(i.op, OpCode::Pipeline(_)));
        let pipelines: Vec<_> = pipelines.collect();
        assert!(pipelines.len() <= fusable as usize, "{ctx}:\n{opt}");
        for fused in pipelines {
            let scalar = matches!(&fused.op, OpCode::Pipeline(spec) if spec.binds_scalars());
            *(if scalar { &mut scalars } else { &mut bats }) += 1;
        }
        let got = answers(
            &Interpreter::new(&cat)
                .check_props(true)
                .run(&opt)
                .unwrap_or_else(|e| panic!("{ctx} serial/optimized: {e}")),
        );
        assert_eq!(got, expected, "{ctx}: passes must preserve answers");

        // recycler, cold then warm: recycled BATs are checked too (this
        // scheduler and the pool below take the checker from
        // MAMMOTH_CHECK_PROPS, set above)
        let mut rec = Recycler::new(16 << 20, EvictPolicy::Lru);
        for phase in ["cold", "warm"] {
            let (vals, _) = run_recycling(&cat, &opt, &mut rec)
                .unwrap_or_else(|e| panic!("{ctx} recycler/{phase}: {e}"));
            assert_eq!(answers(&vals), expected, "{ctx} recycler/{phase}");
        }

        // dataflow pool, on both the unoptimized and the optimized plan
        for (name, plan) in [("unoptimized", &prog), ("optimized", &opt)] {
            let (vals, _) = run_dataflow(&cat, plan, 4)
                .unwrap_or_else(|e| panic!("{ctx} dataflow/{name}: {e}"));
            assert_eq!(answers(&vals), expected, "{ctx} dataflow/{name}");
        }
    }
    assert!(
        scalars >= 3 && bats >= 10,
        "of 40 chains only {scalars} ran fused into scalars and {bats} into BATs"
    );
}

/// A bound column's cardinality fact is its *live* row count: `sql.bind`
/// does not yield the deleted rows. (The fact was once the stored length,
/// deleted positions included, and the checker rejected this very script
/// with "cardinality 2 below inferred floor 4" — unseen, because no
/// checked test selected after a DELETE.)
#[test]
fn bound_column_facts_count_live_rows_after_a_delete() {
    use mammoth::{Database, Engine, QueryOutput};
    std::env::set_var(CHECK_PROPS_ENV, "1");
    for engine in [Engine::Serial, Engine::Parallel { threads: 2 }] {
        let mut db = Database::with_engine(engine);
        db.execute("CREATE TABLE t (k BIGINT NOT NULL, v BIGINT)")
            .unwrap();
        db.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30), (4, 40)")
            .unwrap();
        db.execute("PREPARE live AS SELECT COUNT(*), SUM(v) FROM t WHERE k >= ?")
            .unwrap();
        db.execute("DELETE FROM t WHERE k < 3").unwrap();
        let expect = |out: QueryOutput, count: i64, sum: i64, ctx: &str| {
            let QueryOutput::Table { rows, .. } = out else {
                panic!("{engine:?} {ctx}: not a table")
            };
            assert_eq!(
                rows,
                vec![vec![Value::I64(count), Value::I64(sum)]],
                "{engine:?} {ctx}"
            );
        };
        for round in ["deletes pending", "inserts pending too", "merged"] {
            let (count, sum) = if round == "deletes pending" {
                (2, 70)
            } else {
                (3, 120)
            };
            let adhoc = db
                .execute("SELECT COUNT(*), SUM(v) FROM t WHERE k >= 0")
                .unwrap_or_else(|e| panic!("{engine:?} ad hoc, {round}: {e}"));
            expect(adhoc, count, sum, round);
            let prepared = db
                .execute("EXECUTE live (0)")
                .unwrap_or_else(|e| panic!("{engine:?} prepared, {round}: {e}"));
            expect(prepared, count, sum, round);
            match round {
                "deletes pending" => {
                    db.execute("INSERT INTO t VALUES (5, 50)").unwrap();
                }
                _ => db.catalog_mut().table_mut("t").unwrap().merge_all(),
            }
        }
    }
}
