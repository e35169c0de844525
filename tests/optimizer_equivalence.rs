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
    use mammoth::recycler::{EvictPolicy, Recycler};
    let cat = catalog(1000);
    let mut rec = Recycler::new(64 << 20, EvictPolicy::Lru);
    for sql in QUERIES {
        let Statement::Select(stmt) = parse_sql(sql).unwrap() else {
            panic!()
        };
        let (prog, _) = compile_select(&cat, &stmt).unwrap();
        let cold = Interpreter::new(&cat).run(&prog).unwrap();
        // twice through the recycler: second run is fully cached
        let warm1 = Interpreter::with_recycler(&cat, &mut rec)
            .run(&prog)
            .unwrap();
        let warm2 = Interpreter::with_recycler(&cat, &mut rec)
            .run(&prog)
            .unwrap();
        assert_eq!(render(cold.clone()), render(warm1), "{sql}");
        assert_eq!(render(cold), render(warm2), "{sql}");
    }
}

#[test]
fn every_pass_alone_is_sound_and_verifier_clean() {
    use mammoth::mal::analysis::verify_with_catalog;
    use mammoth::mal::optimizer::{
        CommonSubexpr, ConstantFold, DeadCode, GarbageCollect, OptimizerPass,
    };
    let cat = catalog(800);
    let passes: Vec<Box<dyn OptimizerPass>> = vec![
        Box::new(ConstantFold),
        Box::new(CommonSubexpr),
        Box::new(DeadCode),
        Box::new(GarbageCollect),
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
