//! The planner differential tier (PR 10).
//!
//! Invariants under test:
//!
//! * **Prepared == ad-hoc** — for the SELECTs of the statement generator
//!   (`support::gen`: point, range, fused-pair, conjunctive, aggregate,
//!   GROUP BY, join and ORDER BY … LIMIT selects, with NULL and nil-sentinel
//!   literals), running the statement ad-hoc and running it as
//!   `PREPARE`/`EXECUTE` with the constants bound as parameters produces
//!   *identical* result tables — under both the serial interpreter and the
//!   parallel dataflow engine, and identically on the cold (first) and warm
//!   (cached-plan) execution.
//! * **Bound laws** (property tests) — the statistics INSERTs fold count
//!   exactly the cells that read back as NULL as nulls, and every other
//!   cell lies in the column's `[min, max]`.
//! * **Estimate quality** — on single-predicate selects over data the
//!   statistics have seen, the planner's row estimate is within a small
//!   q-error of the true cardinality, on an in-memory session and on a
//!   durable one whose CHECKPOINT rebuilt its statistics.
//! * **Cost-guided ordering** — writing the same conjunctive predicates
//!   in their worst textual order compiles to the *same* optimized MAL as
//!   the best order (the planner re-orders by estimated selectivity), so
//!   the cost-guided choice cannot lose to the default by more than
//!   noise. A generous wall-clock bound backs the plan-text equality.

use mammoth_parallel::ParallelExecutor;
use mammoth_sql::{QueryOutput, Session, Statement};
use mammoth_types::Value;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

mod support;
use support::gen::{parameterize, Gen};

const ROWS: usize = 4000;

fn session(parallel: bool) -> Session {
    let s = Session::new();
    if parallel {
        s.with_executor(Box::new(ParallelExecutor::new(2)), 4)
    } else {
        s
    }
}

/// Seeded table: k clusters (selective), v wide-uniform, s short strings.
fn seed_table(s: &mut Session, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    s.execute("CREATE TABLE t (k INT, v BIGINT, s VARCHAR)")
        .unwrap();
    let mut vals = Vec::with_capacity(ROWS);
    for _ in 0..ROWS {
        let k = rng.random_range(0i64..50);
        let v = rng.random_range(-10_000i64..10_000);
        let sv = format!("w{}", rng.random_range(0i64..12));
        vals.push(format!("({k}, {v}, '{sv}')"));
    }
    for chunk in vals.chunks(500) {
        s.execute(&format!("INSERT INTO t VALUES {}", chunk.join(", ")))
            .unwrap();
    }
}

/// Seed `seed`'s generated tables, their rows folded into the bases (so the
/// ad hoc plans are proved against column facts), then forty generated
/// SELECTs, each run ad hoc and as `PREPARE`/`EXECUTE` of its
/// [`parameterize`]d form. A SELECT drawn to be refused is refused by
/// `PREPARE` with the ad hoc error.
fn differential(seed: u64, parallel: bool) {
    let mut s = session(parallel);
    s.set_merge_threshold(1);
    let mut g = Gen::new(seed);
    g.refusals = false;
    for load in [
        g.create(0),
        g.insert_rows(0, 1500),
        g.create(1),
        g.insert_rows(1, 60),
    ] {
        s.execute(&g.render(&load)).unwrap();
    }
    g.refusals = true;
    for i in 0..40 {
        let adhoc = g.select(0);
        let ctx = format!("seed {seed} step {i}, parallel={parallel}: {adhoc}");
        let want = s.execute(&g.render(&adhoc));
        assert_eq!(want.is_err(), g.refused(&adhoc), "{ctx}: {want:?}");
        let (body, args) = parameterize(&adhoc);
        let name = format!("p{i}");
        let exec = g.render(&Statement::Execute { name, args });
        let (name, stmt) = (format!("p{i}"), Box::new(body));
        let cold = s.execute(&g.render(&Statement::Prepare { name, stmt }));
        let cold = cold.and_then(|_| s.execute(&exec));
        assert_eq!(cold, want, "cold EXECUTE != ad hoc, {ctx}");
        if want.is_ok() {
            assert_eq!(s.execute(&exec), cold, "warm EXECUTE != cold, {ctx}");
        }
    }
}

#[test]
fn prepared_matches_adhoc_serial() {
    for seed in [1, 11, 29] {
        differential(seed, false);
    }
}

#[test]
fn prepared_matches_adhoc_parallel() {
    for seed in [1, 11, 29] {
        differential(seed, true);
    }
}

/// NULL bounds in the ad-hoc == cold == warm tier: a NULL literal and a
/// NULL bound to a placeholder both select nothing — also when the other
/// bound of the same column would fuse with it into a range select, and
/// also when the cached plan served non-NULL bindings before and after.
#[test]
fn null_bounds_select_nothing_adhoc_cold_and_warm() {
    for parallel in [false, true] {
        let mut s = session(parallel);
        seed_table(&mut s, 5);
        let shapes = [
            ("k >= {} AND k < {}", ["NULL", "30"], ["3", "30"]),
            ("k >= {} AND k < {}", ["3", "NULL"], ["3", "30"]),
            ("k BETWEEN {} AND {}", ["NULL", "9"], ["2", "9"]),
            (
                "v > {} AND v <= {} AND k < 40",
                ["-500", "NULL"],
                ["-500", "500"],
            ),
        ];
        for (i, (shape, with_null, without)) in shapes.iter().enumerate() {
            let fill =
                |args: &[&str; 2]| shape.replacen("{}", args[0], 1).replacen("{}", args[1], 1);
            let body = "SELECT COUNT(*), MIN(v), MAX(v) FROM t WHERE";
            s.execute(&format!("PREPARE n{i} AS {body} {}", fill(&["?", "?"])))
                .unwrap();
            for args in [without, with_null, without, with_null] {
                let want = s.execute(&format!("{body} {}", fill(args))).unwrap();
                let exec = format!("EXECUTE n{i} ({}, {})", args[0], args[1]);
                let cold = s.execute(&exec).unwrap();
                let warm = s.execute(&exec).unwrap();
                assert_eq!(cold, want, "parallel={parallel}: {exec}");
                assert_eq!(warm, want, "parallel={parallel}: warm {exec}");
                let QueryOutput::Table { rows, .. } = want else {
                    panic!("not a table")
                };
                let nothing = rows[0][0] == Value::I64(0);
                assert_eq!(nothing, args.contains(&"NULL"), "{exec}: {rows:?}");
            }
        }
    }
}

/// A `?` in a fused filter stays an ordinary argument of the pipeline
/// instruction, so one cached plan serves every binding: ad-hoc == cold ==
/// warm for each, a NULL binding still selects nothing, a number no value
/// of the column's type holds compares by value, and a binding SQL does not
/// order against the column is the error the ad-hoc statement raises.
#[test]
fn fused_filter_bounds_bind_like_any_parameter() {
    use mammoth_mal::{bound_column_facts, default_pipeline_with_props, Arg, OpCode};
    use mammoth_sql::{compile_select, parse_sql};
    let body = |lo: &str, hi: &str, cut: &str| {
        format!(
            "SELECT COUNT(*), SUM(v), MIN(k) FROM t WHERE k >= {lo} AND k < {hi} AND v <= {cut}"
        )
    };
    let mut s = session(false);
    seed_table(&mut s, 17);

    // what PREPARE caches: one pipeline instruction, its bounds still `?N`
    let Statement::Select(stmt) = parse_sql(&body("?", "?", "?")).unwrap() else {
        panic!("a SELECT")
    };
    let (raw, _) = compile_select(s.catalog(), &stmt).unwrap();
    let plan = default_pipeline_with_props(bound_column_facts(&raw, s.catalog())).optimize(raw);
    let fused: Vec<_> = plan
        .instrs
        .iter()
        .filter(|i| matches!(i.op, OpCode::Pipeline(_)))
        .collect();
    assert_eq!(fused.len(), 1, "{plan}");
    let params = fused[0].args.iter().filter(|a| matches!(a, Arg::Param(_)));
    assert_eq!(params.count(), 3, "{plan}");

    s.execute(&format!("PREPARE f AS {}", body("?", "?", "?")))
        .unwrap();
    for args in [
        ["3", "30", "500"],
        ["NULL", "30", "500"],
        ["10", "12", "-20000"],
        ["3", "30", "NULL"],
        ["0", "50", "20000"],
        ["3", "5000000000", "500"],
        ["-5000000000", "30.5", "500"],
    ] {
        let want = s.execute(&body(args[0], args[1], args[2])).unwrap();
        let exec = format!("EXECUTE f ({})", args.join(", "));
        assert_eq!(s.execute(&exec).unwrap(), want, "cold {exec}");
        assert_eq!(s.execute(&exec).unwrap(), want, "warm {exec}");
        let QueryOutput::Table { rows, .. } = want else {
            panic!("not a table")
        };
        let nothing = rows[0] == vec![Value::I64(0), Value::Null, Value::Null];
        assert_eq!(
            nothing,
            args.contains(&"NULL") || args[2] == "-20000",
            "{exec}"
        );
    }
    // `k` is an INT column: a string bound is refused alike
    let adhoc = s.execute(&body("3", "'x'", "0")).unwrap_err();
    let bound = s.execute("EXECUTE f (3, 'x', 0)").unwrap_err();
    assert_eq!(adhoc.to_string(), bound.to_string());
}

/// Interleave DML between EXECUTEs: the cached plan must track premise
/// changes (stats drift, prop invalidation) and stay correct.
#[test]
fn prepared_stays_correct_across_dml() {
    let mut s = session(false);
    seed_table(&mut s, 7);
    s.execute("PREPARE q AS SELECT COUNT(*) FROM t WHERE k = ?")
        .unwrap();
    for round in 0..5 {
        let want = s.execute("SELECT COUNT(*) FROM t WHERE k = 13").unwrap();
        let got = s.execute("EXECUTE q (13)").unwrap();
        assert_eq!(got, want, "round {round}");
        s.execute(&format!("INSERT INTO t VALUES (13, {round}, 'x')"))
            .unwrap();
        s.execute(&format!("DELETE FROM t WHERE v = {}", round * 17 + 1))
            .unwrap();
    }
}

/// Estimate quality: single-predicate selects over stats-covered data
/// land within a small q-error of the truth — on an in-memory session,
/// whose statistics the INSERTs folded, and on a durable one, whose
/// CHECKPOINT rebuilt them from the live columns.
#[test]
fn estimates_bound_q_error_on_single_predicates() {
    use mammoth_algebra::CmpOp;
    let mut in_memory = session(false);
    seed_table(&mut in_memory, 23);
    let mut durable =
        Session::open_durable_with(support::mem_disk(), support::STORE.into()).unwrap();
    seed_table(&mut durable, 23);
    durable.execute("CHECKPOINT").unwrap();
    for (regime, mut s) in [("in-memory", in_memory), ("checkpointed", durable)] {
        let stats = s.stats_catalog();
        let total = stats.table("t").unwrap().rows as f64;
        let mut worst: f64 = 1.0;
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..30 {
            let (col, op, c) = match rng.random_range(0i64..4) {
                0 => ("k", CmpOp::Eq, rng.random_range(0i64..50)),
                1 => ("k", CmpOp::Le, rng.random_range(0i64..50)),
                2 => ("v", CmpOp::Ge, rng.random_range(-10_000i64..10_000)),
                _ => ("v", CmpOp::Lt, rng.random_range(-10_000i64..10_000)),
            };
            let frac = mammoth_planner::selectivity(&stats, "t", col, op, Some(&Value::I64(c)));
            let est = (frac * total).max(1.0);
            let opstr = match op {
                CmpOp::Eq => "=",
                CmpOp::Le => "<=",
                CmpOp::Ge => ">=",
                CmpOp::Lt => "<",
                _ => unreachable!(),
            };
            let out = s
                .execute(&format!("SELECT COUNT(*) FROM t WHERE {col} {opstr} {c}"))
                .unwrap();
            let QueryOutput::Table { rows, .. } = out else {
                panic!()
            };
            let actual = rows[0][0].as_i64().unwrap() as f64;
            let q = (est / actual.max(1.0)).max(actual.max(1.0) / est);
            worst = worst.max(q);
            assert!(
                q <= 8.0,
                "{regime}: q-error {q:.2} too large: {col} {opstr} {c}, est {est:.1} vs actual {actual}"
            );
        }
        // The workload must exercise real estimation, not degenerate cases.
        assert!(worst > 1.0, "{regime}: every estimate exact is suspicious");
    }
}

/// An integer literal INSERTed into a DOUBLE column sets the sketch bit
/// of the double the column stores, so the statistics INSERTs fold equal
/// the ones a CHECKPOINT rebuilds from the column, sketch included.
/// (`Gen` draws no such literal.)
#[test]
fn integer_literals_in_a_double_column_fold_as_the_rebuild_reads_them() {
    let mut s = Session::open_durable_with(support::mem_disk(), support::STORE.into()).unwrap();
    s.execute("CREATE TABLE d (x DOUBLE, y DOUBLE)").unwrap();
    for i in 0..40 {
        s.execute(&format!("INSERT INTO d VALUES ({i}, {}.5)", i * 3))
            .unwrap();
    }
    let incremental = s.stats_catalog();
    s.execute("CHECKPOINT").unwrap();
    assert_eq!(incremental, s.stats_catalog());
}

/// A table the statistics have never seen — made from whole columns
/// through `Catalog::create_table`, as every bulk load is — is costed at the
/// catalog's live row count. (It used to be a constant 1 000 rows: every
/// `TRACE` of a bulk-loaded table printed `est_rows 1000` beside its true
/// `rows`, so a q-error over exactly the big tables meant nothing.) The
/// plans chosen for such a table do not move: what the cost model gates on
/// — the binary-search select, here — it gated open when it knew nothing.
#[test]
fn bulk_loaded_tables_are_costed_at_their_live_row_count() {
    use mammoth_storage::{Bat, Table};
    use mammoth_types::{ColumnDef, LogicalType, TableSchema};
    const BULK: i64 = 3000;
    let mut s = session(false);
    let int = |name: &str| ColumnDef::new(name, LogicalType::I64);
    let fact = Table::from_bats(
        TableSchema::new("fact", vec![int("a"), int("b"), int("k")]),
        vec![
            Bat::from_vec((0..BULK).map(|i| (i * 1237) % BULK).collect::<Vec<_>>()),
            Bat::from_vec((0..BULK).map(|i| i % 16).collect::<Vec<_>>()),
            Bat::from_vec((0..BULK).collect::<Vec<_>>()),
        ],
    )
    .unwrap();
    s.catalog_mut().create_table(fact).unwrap();
    assert!(s.stats_catalog().table("fact").is_none());

    let column = |s: &mut Session, sql: &str, name: &str| -> Vec<Value> {
        let QueryOutput::Table { columns, rows } = s.execute(sql).unwrap() else {
            panic!("{sql}: not a table")
        };
        let at = columns.iter().position(|c| c == name).expect(name);
        rows.into_iter().map(|mut r| r.swap_remove(at)).collect()
    };
    let trace = "TRACE SELECT SUM(b), COUNT(*) FROM fact WHERE a < 300";
    let ops = column(&mut s, trace, "op");
    let (est, rows) = (
        column(&mut s, trace, "est_rows"),
        column(&mut s, trace, "rows_out"),
    );
    let mut binds = 0;
    for ((op, est), rows) in ops.iter().zip(&est).zip(&rows) {
        if *op == Value::Str("sql.bind".into()) {
            assert_eq!((est, rows), (&Value::I64(BULK), &Value::I64(BULK)));
            binds += 1;
        }
    }
    assert_eq!(binds, 2, "{ops:?}");
    // the plans are the ones chosen before: a fused scan of an unsorted
    // column, a binary search of the sorted one
    let plan = |s: &mut Session, sql: &str| -> Vec<String> {
        let mal = column(s, &format!("EXPLAIN {sql}"), "mal");
        mal.iter().map(|v| v.to_string()).collect()
    };
    let fused = plan(&mut s, "SELECT SUM(b), COUNT(*) FROM fact WHERE a < 300");
    assert_eq!(fused.len(), 4, "{fused:#?}");
    assert!(
        fused[2].contains(":= vector.pipeline[<@0; sum@1, count]("),
        "{fused:#?}"
    );
    let searched = plan(
        &mut s,
        "SELECT COUNT(*) FROM fact WHERE k >= 2500 AND k < 2600",
    );
    assert!(
        searched.iter().any(|l| l.contains("bat.setprops(")) && searched.len() == 5,
        "{searched:#?}"
    );

    // the estimate follows the table as rows go
    s.execute("DELETE FROM fact WHERE a < 1000").unwrap();
    assert_eq!(
        column(
            &mut s,
            "EXPLAIN SELECT b FROM fact WHERE a < 2000",
            "est_rows"
        )[0],
        Value::I64(BULK - 1000)
    );
}

/// Cost-guided predicate ordering: the worst textual order compiles to
/// the same optimized MAL as the best order, and therefore runs in the
/// same ballpark.
#[test]
fn predicate_order_is_normalized_by_cost() {
    let mut s = session(false);
    seed_table(&mut s, 41);
    // `k = 7` keeps ~1/50 of rows; `v >= -10000` keeps everything.
    let bad = "SELECT COUNT(*) FROM t WHERE v >= -10000 AND k = 7";
    let good = "SELECT COUNT(*) FROM t WHERE k = 7 AND v >= -10000";
    let explain = |s: &mut Session, q: &str| -> String {
        let QueryOutput::Table { rows, .. } = s.execute(&format!("EXPLAIN {q}")).unwrap() else {
            panic!()
        };
        rows.iter()
            .map(|r| format!("{:?}", r[0]))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        explain(&mut s, bad),
        explain(&mut s, good),
        "the planner must reorder the unselective predicate behind the selective one"
    );
    // Identical plans run identically; a generous wall-clock bound guards
    // against the reorder pass silently dropping out.
    let time = |s: &mut Session, q: &str| {
        let t0 = std::time::Instant::now();
        for _ in 0..5 {
            s.execute(q).unwrap();
        }
        t0.elapsed()
    };
    let tb = time(&mut s, bad);
    let tg = time(&mut s, good);
    assert!(
        tb < tg * 8 + std::time::Duration::from_millis(50),
        "worst-order query {tb:?} lost badly to best-order {tg:?}"
    );
}

mod stats_bound_props {
    use proptest::prelude::*;

    proptest! {
        // The statistics a session folds as INSERTs apply, nil sentinels
        // among the values: the nulls are exactly the values that read
        // back as NULL, and every other one lies in the column's
        // [min, max].
        #[test]
        fn prop_session_inserts_keep_the_laws(
            cells in proptest::collection::vec((0u8..10, -400i64..400), 1..120),
            batch in 1usize..24,
        ) {
            use mammoth_sql::{QueryOutput, Scalar, Session, Statement};
            use mammoth_types::Value;
            let mut s = Session::new();
            s.execute("CREATE TABLE h (b BIGINT, x DOUBLE)").unwrap();
            let rows: Vec<Vec<Scalar>> = cells
                .iter()
                .map(|&(code, v)| {
                    let (b, x) = match code {
                        0 => (Value::Null, Value::Null),
                        1 => (Value::I64(i64::MIN), Value::F64(f64::NAN)),
                        2 => (Value::I32(v as i32), Value::F64(-0.0)),
                        3 => (Value::I64(v), Value::F64(if v < 0 { f64::NEG_INFINITY } else { f64::INFINITY })),
                        _ => (Value::I64(v), Value::F64(v as f64 / 3.0)),
                    };
                    vec![Scalar::Lit(b), Scalar::Lit(x)]
                })
                .collect();
            for chunk in rows.chunks(batch) {
                let insert = Statement::Insert { table: "h".into(), rows: chunk.iter().cloned().collect() };
                s.execute_stmt(insert).unwrap();
            }
            let stats = s.stats_catalog();
            for col in ["b", "x"] {
                let QueryOutput::Table { rows: read, .. } =
                    s.execute(&format!("SELECT {col} FROM h")).unwrap()
                else {
                    panic!("not a table")
                };
                let live: Vec<&Value> = read.iter().map(|r| &r[0]).filter(|v| !v.is_null()).collect();
                let c = stats.column("h", col).unwrap();
                prop_assert_eq!(c.nulls, (read.len() - live.len()) as u64, "{}", col);
                let (Some(lo), Some(hi)) = (&c.min, &c.max) else {
                    prop_assert!(live.is_empty() && c.min.is_none() && c.max.is_none(), "{}: {:?}", col, c);
                    continue;
                };
                for v in live {
                    let inside = v.sql_cmp(lo).is_some_and(|o| o.is_ge())
                        && v.sql_cmp(hi).is_some_and(|o| o.is_le());
                    prop_assert!(inside, "{}: {:?} outside [{:?}, {:?}]", col, v, lo, hi);
                }
            }
        }
    }
}

mod stats_batching {
    //! The statistics fold a statement's rows a column at a time; the
    //! result must not depend on how the rows were batched into statements.
    use mammoth_sql::{Rows, Scalar, Session, Statement};
    use mammoth_types::Value;
    use proptest::prelude::*;

    const DDL: &str = "CREATE TABLE t (k BIGINT NOT NULL, b BIGINT, x DOUBLE, s VARCHAR, i INT)";
    const WORDS: [&str; 6] = ["naïve", "日本語", "straße", "", "e\u{301}", "zz"];

    /// Row `k` of the generated table: NULLs, duplicates from small
    /// domains, INT literals into BIGINT (and BIGINT into INT), −0.0, ±inf
    /// and multibyte strings.
    fn row(k: i64, (code, v, word): (u8, i64, usize)) -> Vec<Scalar> {
        let b = match code % 4 {
            0 => Value::Null,
            1 => Value::I32(v as i32),
            _ => Value::I64(v),
        };
        let x = match code % 7 {
            0 => Value::Null,
            1 => Value::F64(-0.0),
            2 => Value::F64(0.0),
            3 => Value::F64(f64::INFINITY),
            4 => Value::F64(f64::NEG_INFINITY),
            5 => Value::I64(v),
            _ => Value::F64(v as f64 / 4.0),
        };
        let s = match word {
            6 => Value::Null,
            w => Value::Str(WORDS[w].into()),
        };
        let i = if code % 5 == 0 {
            Value::Null
        } else {
            Value::I64(v)
        };
        [Value::I64(k), b, x, s, i]
            .into_iter()
            .map(Scalar::Lit)
            .collect()
    }

    proptest! {
        #[test]
        fn prop_one_statement_folds_like_one_statement_per_row(
            cells in proptest::collection::vec((0u8..140, -20i64..20, 0usize..7), 1..80),
            cut in (0usize..80, 0usize..80),
        ) {
            let rows: Vec<Vec<Scalar>> =
                cells.iter().enumerate().map(|(k, &c)| row(k as i64, c)).collect();
            let (mut batched, mut single) = (Session::new(), Session::new());
            batched.execute(DDL).unwrap();
            single.execute(DDL).unwrap();
            let insert = |rows: Rows| Statement::Insert { table: "t".into(), rows };
            batched.execute_stmt(insert(rows.iter().cloned().collect())).unwrap();
            for r in rows {
                single.execute_stmt(insert(Rows::from_iter([r]))).unwrap();
            }
            prop_assert_eq!(batched.stats_catalog(), single.stats_catalog());

            let n = cells.len();
            let (lo, hi) = (cut.0 % n, cut.0 % n + cut.1 % (n - cut.0 % n + 1));
            batched.execute(&format!("DELETE FROM t WHERE k >= {lo} AND k < {hi}")).unwrap();
            for k in lo..hi {
                single.execute(&format!("DELETE FROM t WHERE k = {k}")).unwrap();
            }
            prop_assert_eq!(batched.stats_catalog(), single.stats_catalog());
        }
    }
}
