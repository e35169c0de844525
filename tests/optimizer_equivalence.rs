//! The optimizer pipeline must never change results — only plans.
//!
//! Random-ish SQL queries over generated tables run twice: once through the
//! raw compiled plan and once through the default optimizer pipeline
//! (constant folding, CSE, dead code). Outputs must be identical, the plan
//! after every individual pass must satisfy the MAL verifier, and the
//! textual MAL round-trip (render → parse → run) must agree too.
//! Deliberately malformed plans must be *rejected* by the verifier with an
//! error naming the offending instruction.

use mammoth::mal::{default_pipeline, parse_program, Interpreter};
use mammoth::sql::{compile_select, parse_sql, Statement};
use mammoth::storage::{Bat, Catalog, Table};
use mammoth::types::{ColumnDef, LogicalType, TableSchema};
use mammoth::workload::{strings_low_card, uniform_i64};

mod support;

fn catalog(rows: usize) -> Catalog {
    let mut cat = Catalog::new();
    let names = strings_low_card(rows, 8, 5);
    let t = Table::from_bats(
        TableSchema::new(
            "t",
            vec![
                ColumnDef::new("a", LogicalType::I64),
                ColumnDef::new("b", LogicalType::I64),
                ColumnDef::new("s", LogicalType::Str),
            ],
        ),
        vec![
            Bat::from_vec(uniform_i64(rows, 0, 100, 1)),
            Bat::from_vec(uniform_i64(rows, -50, 50, 2)),
            Bat::from_strings(names.iter().map(|s| Some(s.as_str()))),
        ],
    )
    .unwrap();
    cat.create_table(t).unwrap();

    let u = Table::from_bats(
        TableSchema::new(
            "u",
            vec![
                ColumnDef::new("a", LogicalType::I64),
                ColumnDef::new("w", LogicalType::I64),
            ],
        ),
        vec![
            Bat::from_vec(uniform_i64(rows / 2, 0, 100, 3)),
            Bat::from_vec(uniform_i64(rows / 2, 0, 10, 4)),
        ],
    )
    .unwrap();
    cat.create_table(u).unwrap();
    cat
}

include!("corpus/select_queries.rs");

fn render(values: Vec<mammoth::mal::MalValue>) -> Vec<String> {
    values
        .iter()
        .map(|v| match v {
            mammoth::mal::MalValue::Scalar(s) => format!("scalar:{s:?}"),
            mammoth::mal::MalValue::Bat(b) => {
                let mut s = String::new();
                for i in 0..b.len() {
                    s.push_str(&format!("{:?};", b.value_at(i)));
                }
                s
            }
        })
        .collect()
}

#[test]
fn optimized_plans_return_identical_results() {
    let cat = catalog(2000);
    let pipeline = default_pipeline();
    for sql in QUERIES {
        let Statement::Select(stmt) = parse_sql(sql).unwrap() else {
            panic!()
        };
        let (raw, _names) = compile_select(&cat, &stmt).unwrap();
        let optimized = pipeline.optimize(raw.clone());
        assert!(
            optimized.instrs.len() <= raw.instrs.len(),
            "optimizer must not grow plans: {sql}"
        );
        let out_raw = Interpreter::new(&cat).run(&raw).unwrap();
        let out_opt = Interpreter::new(&cat).run(&optimized).unwrap();
        assert_eq!(render(out_raw), render(out_opt), "query: {sql}");
    }
}

/// The property tier's rewrites (select elimination, sorted-select) and the
/// mitosis/mergetable fragmenting see candidate-form selects and top-N now;
/// neither may change an answer, and every fact they infer must hold on the
/// BATs the interpreter materializes.
#[test]
fn property_and_fragment_pipelines_preserve_candidate_form_results() {
    use mammoth::mal::{
        column_facts, column_types, default_pipeline_with_props, parallel_pipeline_with_props,
    };
    let cat = catalog(2000);
    let facts = column_facts(&cat);
    for sql in QUERIES {
        let Statement::Select(stmt) = parse_sql(sql).unwrap() else {
            panic!()
        };
        let (raw, _) = compile_select(&cat, &stmt).unwrap();
        let baseline = render(Interpreter::new(&cat).run(&raw).unwrap());
        let serial = default_pipeline_with_props(facts.clone())
            .try_optimize(raw.clone())
            .unwrap_or_else(|e| panic!("{sql}: {e}"));
        let out = Interpreter::new(&cat).check_props(true).run(&serial);
        assert_eq!(baseline, render(out.unwrap()), "props pipeline: {sql}");
        for pieces in [2usize, 3, 7] {
            let par = parallel_pipeline_with_props(pieces, column_types(&cat), facts.clone())
                .try_optimize(raw.clone())
                .unwrap_or_else(|e| panic!("{sql} x{pieces}: {e}"));
            let out = Interpreter::new(&cat).check_props(true).run(&par);
            assert_eq!(baseline, render(out.unwrap()), "{pieces} pieces: {sql}");
        }
    }
}

/// `ORDER BY … LIMIT n` compiles to a top-N; ties must come out exactly as
/// the stable sort followed by a slice orders them.
#[test]
fn top_n_equals_sort_then_slice() {
    let cat = catalog(1500);
    for (order, n) in [
        ("b", 10),
        ("b DESC", 10),
        ("s", 40),
        ("a DESC", 1),
        ("a", 5000),
    ] {
        let run = |sql: &str| {
            let Statement::Select(stmt) = parse_sql(sql).unwrap() else {
                panic!()
            };
            let (prog, _) = compile_select(&cat, &stmt).unwrap();
            (prog.to_string(), Interpreter::new(&cat).run(&prog).unwrap())
        };
        let base = format!("SELECT a, b, s FROM t WHERE a >= 5 ORDER BY {order}");
        let (top_plan, top) = run(&format!("{base} LIMIT {n}"));
        let (sort_plan, sorted) = run(&base);
        assert!(top_plan.contains("algebra.firstn") && sort_plan.contains("algebra.sort"));
        for (t, s) in top.iter().zip(&sorted) {
            let (t, s) = (t.as_bat().unwrap(), s.as_bat().unwrap());
            assert_eq!(t.len(), n.min(s.len()), "{order} {n}");
            for i in 0..t.len() {
                assert_eq!(t.value_at(i), s.value_at(i), "{order} {n} row {i}");
            }
        }
    }
}

#[test]
fn textual_mal_roundtrip_preserves_semantics() {
    let cat = catalog(500);
    for sql in QUERIES {
        let Statement::Select(stmt) = parse_sql(sql).unwrap() else {
            panic!()
        };
        let (prog, _) = compile_select(&cat, &stmt).unwrap();
        let text = prog.to_string();
        let reparsed =
            parse_program(&text).unwrap_or_else(|e| panic!("reparse of {sql}: {e}\n{text}"));
        let out_a = Interpreter::new(&cat).run(&prog).unwrap();
        let out_b = Interpreter::new(&cat).run(&reparsed).unwrap();
        assert_eq!(render(out_a), render(out_b), "query: {sql}");
    }
}

#[test]
fn cse_actually_fires_on_shared_binds() {
    let cat = catalog(100);
    let Statement::Select(stmt) = parse_sql("SELECT a, b FROM t WHERE a > 10 AND a < 90").unwrap()
    else {
        panic!()
    };
    let (raw, _) = compile_select(&cat, &stmt).unwrap();
    let optimized = default_pipeline().optimize(raw.clone());
    // the compiler binds t.a for both predicates and the projection; CSE
    // must collapse those binds
    let binds = |p: &mammoth::mal::Program| {
        p.instrs
            .iter()
            .filter(|i| i.op == mammoth::mal::OpCode::Bind)
            .count()
    };
    assert!(
        binds(&optimized) < binds(&raw),
        "CSE should deduplicate binds: {} -> {}",
        binds(&raw),
        binds(&optimized)
    );
}

#[test]
fn recycled_and_cold_runs_agree_per_value() {
    use mammoth::recycler::{run_recycling, EvictPolicy, Recycler};
    let cat = catalog(1000);
    let mut rec = Recycler::new(64 << 20, EvictPolicy::Lru);
    for sql in QUERIES {
        let Statement::Select(stmt) = parse_sql(sql).unwrap() else {
            panic!()
        };
        let (prog, _) = compile_select(&cat, &stmt).unwrap();
        let cold = Interpreter::new(&cat).run(&prog).unwrap();
        // twice through the recycler: second run is fully cached
        let (warm1, _) = run_recycling(&cat, &prog, &mut rec).unwrap();
        let (warm2, _) = run_recycling(&cat, &prog, &mut rec).unwrap();
        assert_eq!(render(cold.clone()), render(warm1), "{sql}");
        assert_eq!(render(cold), render(warm2), "{sql}");
    }
}

#[test]
fn every_pass_alone_is_sound_and_verifier_clean() {
    use mammoth::mal::analysis::verify_with_catalog;
    use mammoth::mal::optimizer::{
        CommonSubexpr, ConstantFold, DeadCode, FusePipeline, GarbageCollect, OptimizerPass,
    };
    let cat = catalog(800);
    let passes: Vec<Box<dyn OptimizerPass>> = vec![
        Box::new(ConstantFold),
        Box::new(CommonSubexpr),
        Box::new(DeadCode),
        Box::new(GarbageCollect),
        Box::new(FusePipeline::new(mammoth::mal::column_facts(&cat))),
    ];
    for sql in QUERIES {
        let Statement::Select(stmt) = parse_sql(sql).unwrap() else {
            panic!()
        };
        let (raw, _) = compile_select(&cat, &stmt).unwrap();
        let baseline = render(Interpreter::new(&cat).run(&raw).unwrap());
        for pass in &passes {
            let rewritten = pass.run(raw.clone());
            verify_with_catalog(&rewritten, &cat)
                .unwrap_or_else(|e| panic!("pass {} broke the plan for {sql}: {e}", pass.name()));
            let out = Interpreter::new(&cat).run(&rewritten).unwrap();
            assert_eq!(baseline, render(out), "pass {}: {sql}", pass.name());
        }
    }
}

#[test]
fn checked_pipeline_accepts_all_compiler_output() {
    use mammoth::mal::analysis::verify_with_catalog;
    use mammoth::mal::GarbageCollect;
    let cat = catalog(600);
    let pipeline = default_pipeline().with(GarbageCollect).checked();
    for sql in QUERIES {
        let Statement::Select(stmt) = parse_sql(sql).unwrap() else {
            panic!()
        };
        let (raw, _) = compile_select(&cat, &stmt).unwrap();
        verify_with_catalog(&raw, &cat)
            .unwrap_or_else(|e| panic!("compiler output failed to verify for {sql}: {e}"));
        let optimized = pipeline
            .try_optimize(raw.clone())
            .unwrap_or_else(|e| panic!("checked pipeline rejected {sql}: {e}"));
        verify_with_catalog(&optimized, &cat).unwrap();
        let out_raw = Interpreter::new(&cat).run(&raw).unwrap();
        let out_opt = Interpreter::new(&cat).run(&optimized).unwrap();
        assert_eq!(render(out_raw), render(out_opt), "query: {sql}");
    }
}

#[test]
fn malformed_plans_are_rejected_with_targeted_errors() {
    use mammoth::mal::analysis::{verify, verify_with_catalog, VerifyErrorKind};
    let cat = catalog(100);
    // (plan text, expected instruction index) — one per malformation class
    let cases: &[(&str, usize)] = &[
        // use before def
        ("c := algebra.thetaselect[==](ghost, 1);\nio.result(c);", 0),
        // argument arity
        (
            "a := sql.bind(\"t\", \"a\");\nf := algebra.projection(a);\nio.result(f);",
            1,
        ),
        // kind mismatch: scalar into a bat slot
        (
            "a := sql.bind(\"t\", \"a\");\nn := aggr.count(a);\nm := bat.mirror(n);\nio.result(m);",
            2,
        ),
        // use after free
        (
            "a := sql.bind(\"t\", \"a\");\nlanguage.pass(a);\nm := bat.mirror(a);\nio.result(m);",
            2,
        ),
        // code after io.result
        (
            "a := sql.bind(\"t\", \"a\");\nio.result(a);\nb := sql.bind(\"t\", \"b\");\nio.result(b);",
            2,
        ),
    ];
    for (src, at) in cases {
        let prog = parse_program(src).unwrap();
        let err = verify(&prog).unwrap_err();
        assert_eq!(err.instr, Some(*at), "wrong location for:\n{src}\n{err}");
    }

    // type mismatches surface once the catalog pins the column types
    let typed = parse_program(
        "s := sql.bind(\"t\", \"s\");\nc := algebra.thetaselect[==](s, 7);\nio.result(c);",
    )
    .unwrap();
    verify(&typed).unwrap(); // without a catalog the string column is opaque
    let err = verify_with_catalog(&typed, &cat).unwrap_err();
    assert_eq!(err.instr, Some(1));
    assert!(matches!(
        err.kind,
        VerifyErrorKind::TypeMismatch { arg: 1, .. }
    ));

    let join = parse_program(
        "s := sql.bind(\"t\", \"s\");\nw := sql.bind(\"u\", \"w\");\n(l, r) := algebra.join(s, w);\nio.result(l);",
    )
    .unwrap();
    let err = verify_with_catalog(&join, &cat).unwrap_err();
    assert!(matches!(err.kind, VerifyErrorKind::TypeMismatch { .. }));

    // plans with no io.result are rejected as structurally incomplete
    let noresult = parse_program("a := sql.bind(\"t\", \"a\");").unwrap();
    let err = verify(&noresult).unwrap_err();
    assert!(matches!(err.kind, VerifyErrorKind::MissingResult));
}

#[test]
fn garbage_collect_shrinks_peak_live_bats_on_join_plans() {
    use mammoth::mal::{GarbageCollect, OptimizerPass};
    let cat = catalog(1000);
    let sql = "SELECT t.s, u.w FROM t JOIN u ON t.a = u.a WHERE b > 0 ORDER BY s LIMIT 50";
    let Statement::Select(stmt) = parse_sql(sql).unwrap() else {
        panic!()
    };
    let (prog, _) = compile_select(&cat, &stmt).unwrap();

    let mut plain = Interpreter::new(&cat);
    let out_plain = plain.run(&prog).unwrap();
    // the pass alone, on the unoptimized plan: `language.pass` markers at
    // each intermediate's last use are the only thing that releases a slot
    let mut marked = Interpreter::new(&cat);
    let out_marked = marked.run(&GarbageCollect.run(prog.clone())).unwrap();

    assert_eq!(
        render(out_plain.clone()),
        render(out_marked),
        "query: {sql}"
    );
    assert_eq!(plain.stats().released_early, 0);
    assert!(
        marked.stats().peak_live_bats < plain.stats().peak_live_bats,
        "release markers should lower the peak: {} -> {}",
        plain.stats().peak_live_bats,
        marked.stats().peak_live_bats
    );
    assert!(marked.stats().released_early > 0);
    assert_eq!(marked.stats().double_releases, 0);

    // and behind the default pipeline
    let gcd = default_pipeline().with(GarbageCollect).optimize(prog);
    let mut gc_run = Interpreter::new(&cat);
    assert_eq!(render(out_plain), render(gc_run.run(&gcd).unwrap()));
    assert!(gc_run.stats().peak_live_bats < plain.stats().peak_live_bats);
}

/// `SELECT COUNT(*) … JOIN …` counts the join's own result: fetching the
/// left candidates through it first would gather a BAT only to take its
/// length. Same answer — checked against a nested loop — one projection
/// fewer.
#[test]
fn count_over_a_join_counts_the_join_result() {
    let cat = catalog(600);
    let sql = "SELECT COUNT(*) FROM t JOIN u ON t.a = u.a WHERE b > 0 AND w < 5";
    let Statement::Select(stmt) = parse_sql(sql).unwrap() else {
        panic!()
    };
    let (raw, _) = compile_select(&cat, &stmt).unwrap();
    let optimized = default_pipeline().optimize(raw.clone());
    let join = optimized
        .instrs
        .iter()
        .find(|i| i.op == mammoth::mal::OpCode::Join)
        .expect("the plan joins");
    let text = optimized.to_string();
    assert!(
        text.contains(&format!("aggr.count(x{});", join.results[0])),
        "COUNT(*) should read the join's left result:\n{text}"
    );

    let col = |t: &str, c: &str| {
        let column = cat.table(t).unwrap().column_by_name(c).unwrap();
        column.base().tail_slice::<i64>().unwrap().to_vec()
    };
    let (ta, tb, ua, uw) = (col("t", "a"), col("t", "b"), col("u", "a"), col("u", "w"));
    let mut pairs = 0i64;
    for i in 0..ta.len() {
        for j in 0..ua.len() {
            pairs += (tb[i] > 0 && uw[j] < 5 && ta[i] == ua[j]) as i64;
        }
    }
    let want = vec![format!("scalar:{:?}", mammoth::types::Value::I64(pairs))];
    assert_eq!(render(Interpreter::new(&cat).run(&raw).unwrap()), want);
    assert_eq!(
        render(Interpreter::new(&cat).run(&optimized).unwrap()),
        want
    );
}

/// The fused pipeline instruction against the chain it replaces.
///
/// Random tables — every fixed-width type, nils, `-0.0` and NaN, row counts
/// on both sides of every vector boundary — under random chains
/// (`support::gen::random_fusable_plan`) of one to three filters
/// (constants inside and outside the column's domain, NULL,
/// open and inverted ranges: selections from empty to accept-all) into
/// every sink: any mix of global aggregates; a grouping on any column with
/// key, count and aggregates; emitted columns, bare or under a `bat.slice`;
/// or a top-N on any column, either direction, of a count from none to
/// more than there are rows (the drawn domain is a dozen values, so ties
/// are the rule and position decides them). The unfused plan is the
/// oracle: the fused one must return the same values bit for bit (float
/// sums and averages included), the same rows and groups in the same
/// order, and the same error when a constant does not fit its column.
mod fused_pipeline {
    use super::support::gen::random_fusable_plan;
    use super::*;
    use mammoth::algebra::CmpOp;
    use mammoth::mal::optimizer::{FusePipeline, OptimizerPass};
    use mammoth::mal::{column_facts, verify_with_catalog, MalValue, OpCode, Program};
    use mammoth::types::{NativeType, Oid, Value};
    use mammoth::vectorized::VECTOR_SIZE;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    const COLUMNS: [(&str, LogicalType); 7] = [
        ("flag", LogicalType::Bool),
        ("tiny", LogicalType::I8),
        ("small", LogicalType::I16),
        ("int", LogicalType::I32),
        ("big", LogicalType::I64),
        ("real", LogicalType::F64),
        ("ref", LogicalType::Oid),
    ];

    /// A value of the small domain every column draws from (so groups
    /// repeat and predicates cut anywhere), nil one time in eight.
    fn draw(rng: &mut StdRng) -> Option<i64> {
        (rng.random_range(0..8) != 0).then(|| rng.random_range(-6i64..7))
    }

    fn column(ty: LogicalType, rows: usize, rng: &mut StdRng) -> Bat {
        fn ints<T: NativeType + mammoth::storage::FixedTail>(
            rows: usize,
            rng: &mut StdRng,
            from: impl Fn(i64) -> T,
        ) -> Bat {
            Bat::from_vec((0..rows).map(|_| draw(rng).map_or(T::NIL, &from)).collect())
        }
        match ty {
            LogicalType::Bool => Bat::from_vec((0..rows).map(|_| rng.random_bool(0.5)).collect()),
            LogicalType::I8 => ints(rows, rng, |x| x as i8),
            LogicalType::I16 => ints(rows, rng, |x| (x * 1000) as i16),
            LogicalType::I32 => ints(rows, rng, |x| (x * 100_000) as i32),
            // wide enough that a sum of a few thousand wraps
            LogicalType::I64 => ints(rows, rng, |x| x * (i64::MAX / 8)),
            LogicalType::F64 => ints(rows, rng, |x| match x {
                0 => -0.0,
                3 => 0.0,
                // thirds, so float sums depend on their order
                x => x as f64 / 3.0,
            }),
            LogicalType::Oid => ints(rows, rng, |x| (x + 6) as Oid),
            LogicalType::Str => unreachable!("no string column here"),
        }
    }

    fn table(rows: usize, rng: &mut StdRng) -> Catalog {
        let schema = COLUMNS.map(|(name, ty)| ColumnDef::new(name, ty)).to_vec();
        let bats = COLUMNS.map(|(_, ty)| column(ty, rows, rng)).to_vec();
        let mut cat = Catalog::new();
        cat.create_table(Table::from_bats(TableSchema::new("w", schema), bats).unwrap())
            .unwrap();
        cat
    }

    /// A predicate constant for a column of type `ty`: mostly inside the
    /// drawn domain, sometimes far outside, sometimes NULL, once in a while
    /// of a width the column cannot hold.
    fn constant(ty: LogicalType, rng: &mut StdRng) -> Value {
        let x = match rng.random_range(0..12) {
            0 => return Value::Null,
            1 => -9,
            2 => 9,
            _ => rng.random_range(-6i64..7),
        };
        match ty {
            LogicalType::Bool => Value::Bool(x > 0),
            LogicalType::I8 if rng.random_range(0..40) == 0 => Value::I64(1000),
            LogicalType::I8 => Value::I64(x),
            LogicalType::I16 => Value::I64(x * 1000),
            LogicalType::I32 => Value::I32((x * 100_000) as i32),
            LogicalType::I64 => Value::I64(x.saturating_mul(i64::MAX / 8)),
            LogicalType::F64 => Value::F64(if x == 0 { -0.0 } else { x as f64 / 3.0 }),
            LogicalType::Oid => Value::I64(x + 6),
            LogicalType::Str => unreachable!("no string column here"),
        }
    }

    /// Every output value with floats by bit pattern, or the error text.
    fn answer(cat: &Catalog, p: &Program) -> Result<Vec<Vec<String>>, String> {
        let bits = |v: Value| match v {
            Value::F64(x) => format!("f64:{:016x}", x.to_bits()),
            other => format!("{other:?}"),
        };
        let out = Interpreter::new(cat).check_props(true).run(p);
        let out = out.map_err(|e| e.to_string())?;
        Ok(out
            .iter()
            .map(|v| match v {
                MalValue::Scalar(s) => vec![bits(s.clone())],
                MalValue::Bat(b) => (0..b.len()).map(|i| bits(b.value_at(i))).collect(),
            })
            .collect())
    }

    /// `?N` is an ordinary argument of either new sink: a filter bound of
    /// an emitting pipeline, the row count of a top-N. The plan fuses with
    /// the slots in place, and binding them afterwards answers as binding
    /// them first and never fusing.
    #[test]
    fn parameters_bind_through_the_fused_instruction() {
        let mut rng = StdRng::seed_from_u64(28);
        let cat = table(VECTOR_SIZE + 9, &mut rng);
        let fuse = FusePipeline::new(column_facts(&cat));
        let plans = [
            "a := sql.bind(\"w\", \"int\");\nb := sql.bind(\"w\", \"real\");
             c := algebra.thetaselect[>=](a, ?0);\nva := algebra.projection(c, a);
             vb := algebra.projection(c, b);\n(s, o) := algebra.firstn[desc](vb, ?1);
             w := algebra.projection(o, va);\nio.result(s, w);",
            "a := sql.bind(\"w\", \"int\");\nb := sql.bind(\"w\", \"tiny\");
             c := algebra.select(a, ?0, nil, false, true);\nvb := algebra.projection(c, b);
             s := bat.slice(vb, 0, ?1);\nio.result(s);",
        ];
        for text in plans {
            let unfused = mammoth::mal::parse_program(text).unwrap();
            let fused = fuse.run(unfused.clone());
            verify_with_catalog(&fused, &cat).unwrap_or_else(|e| panic!("{e}\n{fused}"));
            assert!(fused.to_string().contains("vector.pipeline["), "{fused}");
            assert!(!fused.to_string().contains("algebra."), "{fused}");
            for n in [0i64, 1, 7, 1 << 40] {
                let args = [Value::I32(-200_000), Value::I64(n)];
                let bound = |p: &Program| mammoth_planner::bind_program(p, &args).unwrap();
                let (got, want) = (answer(&cat, &bound(&fused)), answer(&cat, &bound(&unfused)));
                assert!(want.is_ok(), "{want:?}");
                assert_eq!(got, want, "n = {n}:\n{fused}");
            }
        }
    }

    proptest! {
        // The top-N sink against the kernels it replaces, below the plan:
        // `algebra.firstn` over the fetch of the selected keys, and a fetch
        // of a second column through its order — any vector size, either
        // direction, counts from none to more than qualify, nils and
        // duplicate keys throughout.
        #[test]
        fn top_n_sink_is_firstn_of_the_projection(
            keys in proptest::collection::vec(-4i64..5, 0..300),
            cut in -4i64..5,
            n in 0usize..40,
            desc in 0u8..2,
            vector_size in 1usize..70,
        ) {
            use mammoth::algebra::{fetch_join, firstn, select_cmp};
            use mammoth::vectorized::{
                ColRef, Column, ColumnSet, Out, Output, Pipeline, Sink, SinkKind, Stage,
            };
            // -4 stands for nil; the payload is the row's own position
            let keys: Vec<i64> = keys.iter().map(|&k| if k == -4 { i64::NIL } else { k }).collect();
            let payload: Vec<i64> = (0..keys.len() as i64).collect();
            let (kb, pb) = (Bat::from_vec(keys.clone()), Bat::from_vec(payload.clone()));
            let cands = select_cmp(&kb, CmpOp::Ge, &Value::I64(cut)).unwrap();
            let desc = desc == 1;
            let (sorted, order) = firstn(&fetch_join(&cands, &kb).unwrap(), n, desc).unwrap();
            let through = fetch_join(&order, &fetch_join(&cands, &pb).unwrap()).unwrap();

            let pipeline = Pipeline {
                stages: vec![Stage::theta(ColRef::Source(0), CmpOp::Ge, cut)],
                sink: Sink {
                    kind: SinkKind::Top { key: ColRef::Source(0), n, descending: desc },
                    outs: vec![Out::Col(ColRef::Source(0)), Out::Col(ColRef::Source(1))],
                },
                computed_slots: 0,
            };
            let columns = ColumnSet::new(vec![Column::I64(&keys), Column::I64(&payload)]).unwrap();
            let Output::Columns(got) = pipeline.run(&columns, vector_size).unwrap() else {
                panic!("a top-N sink binds columns")
            };
            prop_assert_eq!(got[0].as_slice::<i64>(), Some(sorted.tail_slice::<i64>().unwrap()));
            prop_assert_eq!(got[1].as_slice::<i64>(), Some(through.tail_slice::<i64>().unwrap()));
        }

        #[test]
        fn fused_equals_unfused_bit_for_bit(seed in proptest::num::u64::ANY) {
            let mut rng = StdRng::seed_from_u64(seed);
            let v = VECTOR_SIZE;
            for rows in [0, 1, v - 1, v, v + 1, 3 * v + 7] {
                let cat = table(rows, &mut rng);
                let fuse = FusePipeline::new(column_facts(&cat));
                let unfused = random_fusable_plan(&mut rng, "w", &COLUMNS, constant);
                let fused = fuse.run(unfused.clone());
                verify_with_catalog(&fused, &cat)
                    .unwrap_or_else(|e| panic!("seed {seed}, {rows} rows: {e}\n{fused}"));
                let ops = |p: &Program, f: &dyn Fn(&OpCode) -> bool| {
                    p.instrs.iter().filter(|i| f(&i.op)).count()
                };
                prop_assert_eq!(
                    ops(&fused, &|op| matches!(op, OpCode::Pipeline(_))),
                    1,
                    "seed {}, {} rows: not fused:\n{}", seed, rows, fused
                );
                prop_assert_eq!(
                    ops(&fused, &|op| !matches!(
                        op,
                        OpCode::Bind | OpCode::Pipeline(_) | OpCode::Slice | OpCode::Result
                    )),
                    0,
                    "seed {}, {} rows: something was left beside the pipeline:\n{}",
                    seed, rows, fused
                );
                prop_assert_eq!(
                    answer(&cat, &fused),
                    answer(&cat, &unfused),
                    "seed {}, {} rows:\n{}\n{}", seed, rows, unfused, fused
                );
            }
        }
    }
}
