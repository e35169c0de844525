//! Randomized soundness harness for the property tier (the
//! abstract-interpretation analogue of `trace_consistency`).
//!
//! A corpus of randomized scan/select/project/calc/join/aggregate plans
//! (`support::gen`, which the trace tier draws its corpus from too) —
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
    column_facts_with_zonemaps, default_pipeline_with_props, Interpreter, MalValue, OpCode,
    CHECK_PROPS_ENV,
};
use mammoth::parallel::run_dataflow;
use mammoth::recycler::{run_recycling, EvictPolicy, Recycler};
use mammoth::types::{LogicalType, Value};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

mod support;
use support::gen::{catalog, random_fusable_plan, random_plan};

/// The fused chains' columns: the sorted one is left out, as a select over
/// it becomes a binary search, which is not fused.
const FUSABLE: [(&str, LogicalType); 3] = [
    ("c0", LogicalType::I64),
    ("c1", LogicalType::I64),
    ("c2", LogicalType::I64),
];

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
            true => random_fusable_plan(&mut rng, "t", &FUSABLE, |_, rng| {
                Value::I64(rng.random_range(-100..1100))
            }),
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
        // first (an accept-all select is a mirror, not a filter); a plain
        // plan may fuse the probe side of its join
        let pipelines = opt
            .instrs
            .iter()
            .filter(|i| matches!(i.op, OpCode::Pipeline(_)));
        let pipelines: Vec<_> = pipelines.collect();
        assert!(pipelines.len() <= 1, "{ctx}:\n{opt}");
        for fused in pipelines.into_iter().filter(|_| fusable) {
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
