//! The planner differential tier (PR 10).
//!
//! Invariants under test:
//!
//! * **Prepared == ad-hoc** — for a seeded randomized workload of point,
//!   range, BETWEEN, conjunctive, aggregate and ORDER BY selects, running
//!   the statement ad-hoc and running it as `PREPARE`/`EXECUTE` with the
//!   constants bound as parameters produces *identical* result tables —
//!   under both the serial interpreter and the parallel dataflow engine,
//!   and identically on the cold (first) and warm (cached-plan) execution.
//! * **Histogram laws** (property tests) — equi-depth histograms keep
//!   their bucket counts summing to the row count, bounds sorted, and
//!   min/max containment, through any interleaving of incremental
//!   folds; and a fold-maintained total always matches a from-scratch
//!   rebuild of the surviving multiset.
//! * **Estimate quality** — on single-predicate selects over data the
//!   statistics have seen, the planner's row estimate is within a small
//!   q-error of the true cardinality.
//! * **Cost-guided ordering** — writing the same conjunctive predicates
//!   in their worst textual order compiles to the *same* optimized MAL as
//!   the best order (the planner re-orders by estimated selectivity), so
//!   the cost-guided choice cannot lose to the default by more than
//!   noise. A generous wall-clock bound backs the plan-text equality.

use mammoth_parallel::ParallelExecutor;
use mammoth_sql::{QueryOutput, Session};
use mammoth_types::Value;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

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

/// One generated query as (ad-hoc SQL, parameterized body, argument
/// literals in placeholder order).
fn gen_query(rng: &mut StdRng) -> (String, String, Vec<String>) {
    let shapes = [
        "SELECT k, v FROM t",
        "SELECT COUNT(*), MIN(v), MAX(v) FROM t",
        "SELECT k FROM t",
        "SELECT v FROM t",
    ];
    let shape = shapes[rng.random_range(0i64..shapes.len() as i64) as usize];
    let npreds = 1 + rng.random_range(0i64..2);
    let mut adhoc = Vec::new();
    let mut prepd = Vec::new();
    let mut args = Vec::new();
    for _ in 0..npreds {
        let (col, lo, hi) = if rng.random_bool(0.5) {
            ("k", 0i64, 50i64)
        } else {
            ("v", -10_000i64, 10_000i64)
        };
        let c = rng.random_range(lo..hi);
        match rng.random_range(0i64..6) {
            0 => {
                adhoc.push(format!("{col} = {c}"));
                prepd.push(format!("{col} = ?"));
                args.push(c.to_string());
            }
            1 => {
                adhoc.push(format!("{col} < {c}"));
                prepd.push(format!("{col} < ?"));
                args.push(c.to_string());
            }
            2 => {
                adhoc.push(format!("{col} > {c}"));
                prepd.push(format!("{col} > ?"));
                args.push(c.to_string());
            }
            3 => {
                adhoc.push(format!("{col} <= {c}"));
                prepd.push(format!("{col} <= ?"));
                args.push(c.to_string());
            }
            4 => {
                adhoc.push(format!("{col} >= {c}"));
                prepd.push(format!("{col} >= ?"));
                args.push(c.to_string());
            }
            _ => {
                let d = rng.random_range(1i64..(hi - lo) / 4);
                adhoc.push(format!("{col} BETWEEN {c} AND {}", c + d));
                prepd.push(format!("{col} BETWEEN ? AND ?"));
                args.push(c.to_string());
                args.push((c + d).to_string());
            }
        }
    }
    // ORDER BY a projected column keeps row order deterministic where the
    // statement asks for order; unordered shapes compare exactly anyway
    // because both paths execute the identical plan.
    let tail = if shape == "SELECT k FROM t" {
        " ORDER BY k LIMIT 200".to_string()
    } else if shape == "SELECT v FROM t" {
        " ORDER BY v LIMIT 200".to_string()
    } else {
        String::new()
    };
    (
        format!("{shape} WHERE {}{tail}", adhoc.join(" AND ")),
        format!("{shape} WHERE {}{tail}", prepd.join(" AND ")),
        args,
    )
}

fn differential(seed: u64, parallel: bool) {
    let mut s = session(parallel);
    seed_table(&mut s, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37);
    for i in 0..40 {
        let (adhoc, prepd, args) = gen_query(&mut rng);
        let want = s.execute(&adhoc).unwrap_or_else(|e| {
            panic!("ad-hoc {adhoc:?} failed: {e}");
        });
        s.execute(&format!("PREPARE p{i} AS {prepd}")).unwrap();
        let exec = if args.is_empty() {
            format!("EXECUTE p{i}")
        } else {
            format!("EXECUTE p{i} ({})", args.join(", "))
        };
        let cold = s.execute(&exec).unwrap();
        let warm = s.execute(&exec).unwrap();
        assert_eq!(cold, want, "cold EXECUTE != ad-hoc for {adhoc:?}");
        assert_eq!(warm, cold, "warm EXECUTE != cold for {adhoc:?}");
    }
}

#[test]
fn prepared_matches_adhoc_serial() {
    for seed in [11, 29] {
        differential(seed, false);
    }
}

#[test]
fn prepared_matches_adhoc_parallel() {
    for seed in [11, 29] {
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
/// warm for each, a NULL binding still selects nothing, and a binding the
/// column's type cannot hold is the error the ad-hoc statement raises.
#[test]
fn fused_filter_bounds_bind_like_any_parameter() {
    use mammoth_mal::{bound_column_facts, default_pipeline_with_props, Arg, OpCode};
    use mammoth_sql::{compile_select, parse_sql, Statement};
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
    // `k` is an INT column: a bound only a BIGINT holds is refused alike
    let adhoc = s.execute(&body("3", "5000000000", "0")).unwrap_err();
    let bound = s.execute("EXECUTE f (3, 5000000000, 0)").unwrap_err();
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
/// land within a small q-error of the truth.
#[test]
fn estimates_bound_q_error_on_single_predicates() {
    use mammoth_algebra::CmpOp;
    let mut s = session(false);
    seed_table(&mut s, 23);
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
            "q-error {q:.2} too large: {col} {opstr} {c}, est {est:.1} vs actual {actual}"
        );
    }
    // The workload must exercise real estimation, not degenerate cases.
    assert!(worst > 1.0, "every estimate exact is suspicious");
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

mod histogram_props {
    use mammoth_planner::Histogram;
    use proptest::prelude::*;

    fn check_invariants(h: &Histogram) {
        assert_eq!(
            h.counts.iter().sum::<u64>(),
            h.total,
            "bucket counts must sum to the row count"
        );
        assert_eq!(h.counts.len(), h.bounds.len());
        let mut prev = h.lo;
        for &b in &h.bounds {
            assert!(b >= prev, "bounds must be non-decreasing from lo");
            prev = b;
        }
    }

    proptest! {
        #[test]
        fn prop_build_sums_and_contains(
            vals in proptest::collection::vec(-1000i64..1000, 1..300),
            buckets in 1usize..20,
        ) {
            let f: Vec<f64> = vals.iter().map(|&v| v as f64).collect();
            let h = Histogram::build(f.clone(), buckets).unwrap();
            check_invariants(&h);
            prop_assert_eq!(h.total, vals.len() as u64);
            let mn = f.iter().cloned().fold(f64::INFINITY, f64::min);
            let mx = f.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert_eq!(h.lo, mn);
            prop_assert_eq!(*h.bounds.last().unwrap(), mx);
            // every value is inside [lo, last bound]
            for v in &f {
                prop_assert!(*v >= h.lo && *v <= *h.bounds.last().unwrap());
            }
        }

        #[test]
        fn prop_incremental_fold_matches_rebuild_total(
            base in proptest::collection::vec(-500i64..500, 1..150),
            adds in proptest::collection::vec(-800i64..800, 0..80),
            dels in proptest::collection::vec(0usize..100, 0..40),
        ) {
            let mut live: Vec<f64> = base.iter().map(|&v| v as f64).collect();
            let mut h = Histogram::build(live.clone(), 8).unwrap();
            for &a in &adds {
                h.add(a as f64);
                live.push(a as f64);
            }
            for &d in &dels {
                if live.is_empty() { break; }
                let idx = d % live.len();
                let v = live.swap_remove(idx);
                h.remove(v);
            }
            check_invariants(&h);
            // The incrementally-folded total tracks the live multiset
            // exactly; bucket placement may drift (the CHECKPOINT fold
            // rebuilds), but never the mass.
            prop_assert_eq!(h.total, live.len() as u64);
            if !live.is_empty() {
                let rebuilt = Histogram::build(live.clone(), 8).unwrap();
                prop_assert_eq!(rebuilt.total, h.total);
                // containment survives folding: min/max of the live set
                // stay inside the folded histogram's recorded range
                let mn = live.iter().cloned().fold(f64::INFINITY, f64::min);
                let mx = live.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                prop_assert!(h.lo <= mn);
                prop_assert!(*h.bounds.last().unwrap() >= mx);
            }
        }
    }
}
