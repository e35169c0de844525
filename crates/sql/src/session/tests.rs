//! Unit tests of the session, through its public doors.

use super::*;

fn seeded() -> Session {
    let mut s = Session::new();
    s.execute("CREATE TABLE people (name VARCHAR, age INT NOT NULL)")
        .unwrap();
    s.execute(
        "INSERT INTO people VALUES ('John Wayne', 1907), ('Roger Moore', 1927), \
         ('Bob Fosse', 1927), ('Will Smith', 1968)",
    )
    .unwrap();
    s
}

#[test]
fn figure1_in_sql() {
    let mut s = seeded();
    let out = s
        .execute("SELECT name FROM people WHERE age = 1927")
        .unwrap();
    assert_eq!(
        out,
        QueryOutput::Table {
            columns: vec!["name".into()],
            rows: vec![
                vec![Value::Str("Roger Moore".into())],
                vec![Value::Str("Bob Fosse".into())],
            ],
        }
    );
}

#[test]
fn aggregates() {
    let mut s = seeded();
    let out = s
        .execute("SELECT COUNT(*), MIN(age), MAX(age), AVG(age) FROM people")
        .unwrap();
    let QueryOutput::Table { rows, .. } = out else {
        panic!()
    };
    assert_eq!(rows[0][0], Value::I64(4));
    assert_eq!(rows[0][1], Value::I64(1907));
    assert_eq!(rows[0][2], Value::I64(1968));
    assert_eq!(
        rows[0][3],
        Value::F64((1907 + 1927 + 1927 + 1968) as f64 / 4.0)
    );
}

#[test]
fn group_by_and_order() {
    let mut s = seeded();
    let out = s
        .execute("SELECT age, COUNT(*) FROM people GROUP BY age ORDER BY age DESC")
        .unwrap();
    let QueryOutput::Table { rows, .. } = out else {
        panic!()
    };
    assert_eq!(
        rows,
        vec![
            vec![Value::I32(1968), Value::I64(1)],
            vec![Value::I32(1927), Value::I64(2)],
            vec![Value::I32(1907), Value::I64(1)],
        ]
    );
}

#[test]
fn join_two_tables() {
    let mut s = seeded();
    s.execute("CREATE TABLE films (star VARCHAR, title VARCHAR)")
        .unwrap();
    s.execute(
        "INSERT INTO films VALUES ('Roger Moore', 'Moonraker'), \
         ('Will Smith', 'Ali'), ('Roger Moore', 'Octopussy')",
    )
    .unwrap();
    let out = s
        .execute(
            "SELECT name, title FROM people JOIN films ON people.name = films.star \
             WHERE age > 1920 ORDER BY name LIMIT 10",
        )
        .unwrap();
    let QueryOutput::Table { rows, .. } = out else {
        panic!()
    };
    assert_eq!(rows.len(), 3);
    assert!(rows.iter().any(|r| r[1] == Value::Str("Moonraker".into())));
    assert!(rows.iter().any(|r| r[1] == Value::Str("Ali".into())));
}

#[test]
fn dml_roundtrip() {
    let mut s = seeded();
    let out = s.execute("DELETE FROM people WHERE age = 1927").unwrap();
    assert_eq!(out, QueryOutput::Affected(2));
    let out = s.execute("SELECT COUNT(*) FROM people").unwrap();
    let QueryOutput::Table { rows, .. } = out else {
        panic!()
    };
    assert_eq!(rows[0][0], Value::I64(2));
    // delete with no predicate wipes the table
    assert_eq!(
        s.execute("DELETE FROM people").unwrap(),
        QueryOutput::Affected(2)
    );
    s.execute("DROP TABLE people").unwrap();
    assert!(s.execute("SELECT name FROM people").is_err());
}

#[test]
fn explain_returns_optimized_mal_text() {
    let mut s = seeded();
    let out = s
        .execute("EXPLAIN SELECT name FROM people WHERE age = 1927")
        .unwrap();
    let QueryOutput::Table { columns, rows } = out else {
        panic!()
    };
    assert_eq!(
        columns,
        vec![
            "mal".to_string(),
            "props".to_string(),
            "est_rows".to_string(),
            "est_cost".to_string()
        ]
    );
    let text: Vec<String> = rows
        .iter()
        .map(|r| match &r[0] {
            Value::Str(s) => s.clone(),
            v => panic!("non-string plan line {v:?}"),
        })
        .collect();
    assert!(text.iter().any(|l| l.contains("sql.bind")));
    assert!(text.iter().any(|l| l.contains("algebra.thetaselect")));
    assert!(text.iter().any(|l| l.contains("io.result")));
    // the props column carries the inferred facts: the binds over the
    // 4-row people table get an exact cardinality
    let props: Vec<String> = rows
        .iter()
        .map(|r| match &r[1] {
            Value::Str(s) => s.clone(),
            v => panic!("non-string props {v:?}"),
        })
        .collect();
    assert!(props.iter().any(|p| p.contains("rows=4")), "{props:?}");
}

#[test]
fn trace_returns_per_instruction_profile() {
    let mut s = seeded();
    let out = s
        .execute("TRACE SELECT name FROM people WHERE age = 1927")
        .unwrap();
    let QueryOutput::Table { columns, rows } = out else {
        panic!()
    };
    assert_eq!(columns[0], "instr");
    assert_eq!(columns[2], "op");
    assert!(!rows.is_empty());
    let ops: Vec<String> = rows
        .iter()
        .map(|r| match &r[2] {
            Value::Str(s) => s.clone(),
            v => panic!("non-string op {v:?}"),
        })
        .collect();
    assert!(ops.iter().any(|o| o == "sql.bind"));
    assert!(ops.iter().any(|o| o.starts_with("algebra.thetaselect")));
    // the profile is also available programmatically
    let run = s.last_profile().unwrap();
    assert_eq!(run.engine, "serial");
    assert_eq!(run.events.len() as u64, run.executed);
    assert!(run
        .events
        .iter()
        .all(|e| e.start_ns + e.dur_ns <= run.elapsed_ns));
}

#[test]
fn limit_and_empty_results() {
    let mut s = seeded();
    let out = s
        .execute("SELECT name FROM people WHERE age = 1 LIMIT 3")
        .unwrap();
    let QueryOutput::Table { rows, .. } = out else {
        panic!()
    };
    assert!(rows.is_empty());
    let out = s.execute("SELECT name FROM people LIMIT 2").unwrap();
    let QueryOutput::Table { rows, .. } = out else {
        panic!()
    };
    assert_eq!(rows.len(), 2);
}

#[test]
fn text_rendering() {
    let mut s = seeded();
    let out = s
        .execute("SELECT name, age FROM people WHERE age = 1907")
        .unwrap();
    let text = out.to_text();
    assert!(text.contains("name"));
    assert!(text.contains("John Wayne"));
    assert!(text.lines().count() >= 3);
}

#[test]
fn malformed_sql_errors_leave_session_usable() {
    let mut s = seeded();
    // every flavor of malformed input must return Err, never panic
    for bad in [
        "SELECT name FROM people WHERE name = 'oops", // unterminated string
        "SELECT 99999999999999999999999 FROM people", // integer overflow
        "SELECT FROM people",                         // missing select list
        "INSERT INTO people VALUES (1907)",           // arity mismatch
        "INSERT INTO people VALUES ('x', 'not a number')", // type mismatch
        "DELETE FROM nope WHERE age = 1",             // unknown table
        "EXPLAIN INSERT INTO people VALUES (1)",      // EXPLAIN of non-SELECT
        "TRACE DROP TABLE people",                    // TRACE of non-SELECT
        "SELECT name FROM people \u{0};",             // stray control byte
        "CREATE TABLE people (x INT)",                // duplicate table
    ] {
        assert!(s.execute(bad).is_err(), "expected error for: {bad}");
    }
    // ...and the session keeps answering queries afterwards
    let out = s.execute("SELECT COUNT(*) FROM people").unwrap();
    let QueryOutput::Table { rows, .. } = out else {
        panic!()
    };
    assert_eq!(rows[0][0], Value::I64(4));
}

#[test]
fn failed_insert_mutates_nothing() {
    let mut s = seeded();
    // multi-row insert where a later row is invalid: nothing lands
    assert!(s
        .execute("INSERT INTO people VALUES ('ok', 1), ('bad', NULL)")
        .is_err());
    let out = s.execute("SELECT COUNT(*) FROM people").unwrap();
    let QueryOutput::Table { rows, .. } = out else {
        panic!()
    };
    assert_eq!(rows[0][0], Value::I64(4), "partial insert must not land");
}

#[test]
fn checkpoint_requires_durable_session() {
    let mut s = Session::new();
    let err = s.execute("CHECKPOINT").unwrap_err();
    assert!(matches!(err, Error::Unsupported(_)), "{err}");
}

#[test]
fn durable_session_survives_reopen() {
    let dir = std::env::temp_dir().join(format!(
        "mammoth-sql-durable-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut s = Session::open_durable(&dir).unwrap();
        s.execute("CREATE TABLE kv (k VARCHAR NOT NULL, v INT)")
            .unwrap();
        s.execute("INSERT INTO kv VALUES ('a', 1), ('b', 2)")
            .unwrap();
        s.execute("CHECKPOINT").unwrap();
        s.execute("INSERT INTO kv VALUES ('c', 3)").unwrap();
        s.execute("DELETE FROM kv WHERE k = 'a'").unwrap();
        // no clean shutdown: durability must come from WAL + checkpoint
    }
    {
        let mut s = Session::open_durable(&dir).unwrap();
        assert!(s.is_durable());
        let out = s.execute("SELECT k, v FROM kv ORDER BY k").unwrap();
        let QueryOutput::Table { rows, .. } = out else {
            panic!()
        };
        assert_eq!(
            rows,
            vec![
                vec![Value::Str("b".into()), Value::I32(2)],
                vec![Value::Str("c".into()), Value::I32(3)],
            ]
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn explain_replication_reports_role_and_provider_pairs() {
    let mut s = seeded();
    assert!(parse_sql("EXPLAIN REPLICATION").unwrap().is_read());
    let want_primary = QueryOutput::Table {
        columns: vec!["field".into(), "value".into()],
        rows: vec![vec![
            Value::Str("role".into()),
            Value::Str("primary".into()),
        ]],
    };
    assert_eq!(s.execute_read("EXPLAIN REPLICATION").unwrap(), want_primary);
    assert_eq!(
        s.execute("  explain replication ; ").unwrap(),
        want_primary,
        "case- and whitespace-insensitive, via execute too"
    );
    s.set_status_provider(Arc::new(|| {
        vec![
            ("role".into(), "replica".into()),
            ("lag_bytes".into(), "42".into()),
        ]
    }));
    match s.execute_read("EXPLAIN REPLICATION").unwrap() {
        QueryOutput::Table { rows, .. } => {
            assert_eq!(rows.len(), 2);
            assert_eq!(rows[1][1], Value::Str("42".into()));
        }
        other => panic!("expected table, got {other:?}"),
    }
}

/// `execute` and `execute_read` enter one dispatcher: every read-capable
/// statement kind answers identically through both doors, ad hoc and
/// prepared, on every engine, and writes bounce off the read door typed.
#[test]
fn execute_read_agrees_with_execute_on_every_engine() {
    use mammoth_parallel::ParallelExecutor;
    // (ad hoc text, the same statement with its literal lifted to `?`)
    let reads = [
        (
            "SELECT name FROM people WHERE age = 1927",
            "SELECT name FROM people WHERE age = ?",
        ),
        (
            "SELECT age, COUNT(*) FROM people WHERE age > 1927 GROUP BY age ORDER BY age",
            "SELECT age, COUNT(*) FROM people WHERE age > ? GROUP BY age ORDER BY age",
        ),
        (
            "EXPLAIN SELECT name FROM people WHERE age = 1927",
            "EXPLAIN SELECT name FROM people WHERE age = ?",
        ),
    ];
    let engines = [
        ("serial", seeded()),
        (
            "dataflow",
            seeded().with_executor(Box::new(ParallelExecutor::new(2)), 2),
        ),
    ];
    for (engine, mut s) in engines {
        for (adhoc, body) in reads {
            let want = s.execute(adhoc).unwrap();
            assert_eq!(s.execute_read(adhoc).unwrap(), want, "{engine}: {adhoc}");
            // the prepared verbs themselves are read-door statements
            s.execute_read(&format!("PREPARE p AS {body}")).unwrap();
            assert_eq!(s.execute("EXECUTE p (1927)").unwrap(), want, "{engine}");
            assert_eq!(
                s.execute_read("EXECUTE p (1927)").unwrap(),
                want,
                "{engine}"
            );
            s.execute_read("DEALLOCATE p").unwrap();
        }
        for bad in [
            "INSERT INTO people VALUES ('x', 1)",
            "DELETE FROM people",
            "DROP TABLE people",
            "CREATE TABLE z (a INT)",
            "CHECKPOINT",
            "TRACE SELECT name FROM people",
        ] {
            assert!(
                matches!(s.execute_read(bad), Err(Error::Unsupported(_))),
                "{engine}: {bad}"
            );
        }
        // what only a daemon answers, a session refuses typed at both doors
        for q in ["EXPLAIN SHARDING", "PROMOTE"] {
            assert!(matches!(s.execute(q), Err(Error::Unsupported(_))), "{q}");
            assert!(
                matches!(s.execute_read(q), Err(Error::Unsupported(_))),
                "{q}"
            );
        }
        // a stray placeholder is refused at the dispatcher, not wherever
        // the door's own compile path happens to trip over it
        let stray = "SELECT name FROM people WHERE age = ?";
        assert!(matches!(s.execute(stray), Err(Error::Bind(_))));
        assert_eq!(
            s.execute_read(stray).unwrap_err().to_string(),
            s.execute(stray).unwrap_err().to_string()
        );
        // prepared DML bounces off the read door with the typed signal
        // for "retry me exclusively", leaving the table untouched
        s.execute("PREPARE wr AS DELETE FROM people WHERE age = ?")
            .unwrap();
        assert!(matches!(
            s.execute_read("EXECUTE wr (1927)"),
            Err(Error::NeedsWrite)
        ));
        assert_eq!(
            s.execute("EXECUTE wr (1927)").unwrap(),
            QueryOutput::Affected(2),
            "{engine}"
        );
    }
}

#[test]
fn read_only_classifier_agrees_with_grammar() {
    // the door is picked from the parsed statement, so text that is
    // not a statement gets no door at all: it fails before admission
    let is_read = |q: &str| parse_sql(q).ok().map(|s| s.is_read());
    for q in [
        "  select name FROM people",
        "explain select a from t",
        "explain replication",
    ] {
        assert_eq!(is_read(q), Some(true), "{q}");
    }
    for q in [
        "INSERT INTO t VALUES (1)",
        "CHECKPOINT",
        "DELETE FROM t",
        // no session's to answer: refused behind the exclusive door
        "EXPLAIN SHARDING",
        "PROMOTE",
    ] {
        assert_eq!(is_read(q), Some(false), "{q}");
    }
    for q in [
        "SELECT 1",
        "\n\tEXPLAIN SELECT 1",
        "TRACE SELECT 1",
        "SELECTX FROM t",
        "",
    ] {
        assert_eq!(is_read(q), None, "{q}");
    }
    // TRACE records the session's last profile: a write
    assert_eq!(is_read("trace select a from t"), Some(false));
}

#[test]
fn setters_chain_builder_style() {
    let mut s = Session::new();
    // chaining compiles and the threshold clamps at >= 1
    s.set_merge_threshold(0).set_wal_batch(64);
    assert_eq!(s.merge_threshold, 1);
}

#[test]
fn nulls_in_dml_and_select() {
    let mut s = Session::new();
    s.execute("CREATE TABLE t (a INT, b VARCHAR)").unwrap();
    s.execute("INSERT INTO t VALUES (1, NULL), (NULL, 'x')")
        .unwrap();
    let out = s.execute("SELECT a, b FROM t WHERE a >= 0").unwrap();
    let QueryOutput::Table { rows, .. } = out else {
        panic!()
    };
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0][1], Value::Null);
    // NOT NULL violation
    s.execute("CREATE TABLE u (a INT NOT NULL)").unwrap();
    assert!(s.execute("INSERT INTO u VALUES (NULL)").is_err());
}

#[test]
fn prepare_execute_deallocate_roundtrip() {
    let mut s = seeded();
    assert_eq!(
        s.execute("PREPARE by_age AS SELECT name FROM people WHERE age = ?")
            .unwrap(),
        QueryOutput::Ok
    );
    // Same plan, two different bindings.
    let out = s.execute("EXECUTE by_age (1927)").unwrap();
    assert_eq!(
        out,
        s.execute("SELECT name FROM people WHERE age = 1927")
            .unwrap()
    );
    let out = s.execute("EXECUTE by_age (1968)").unwrap();
    let QueryOutput::Table { rows, .. } = out else {
        panic!()
    };
    assert_eq!(rows, vec![vec![Value::Str("Will Smith".into())]]);
    // Arity mismatch, unknown name, duplicate PREPARE: typed errors.
    assert!(matches!(
        s.execute("EXECUTE by_age (1, 2)"),
        Err(Error::Bind(_))
    ));
    assert!(matches!(
        s.execute("EXECUTE nope (1)"),
        Err(Error::NotFound { .. })
    ));
    assert!(matches!(
        s.execute("PREPARE by_age AS SELECT age FROM people"),
        Err(Error::AlreadyExists { .. })
    ));
    // Deallocate removes it; a second deallocate is NotFound.
    assert_eq!(s.execute("DEALLOCATE by_age").unwrap(), QueryOutput::Ok);
    assert!(matches!(
        s.execute("EXECUTE by_age (1927)"),
        Err(Error::NotFound { .. })
    ));
    assert!(matches!(
        s.execute("DEALLOCATE by_age"),
        Err(Error::NotFound { .. })
    ));
}

#[test]
fn prepared_dml_binds_parameters() {
    let mut s = seeded();
    s.execute("PREPARE add AS INSERT INTO people VALUES (?, ?)")
        .unwrap();
    assert_eq!(
        s.execute("EXECUTE add ('Buster Keaton', 1895)").unwrap(),
        QueryOutput::Affected(1)
    );
    s.execute("PREPARE del AS DELETE FROM people WHERE age < ?")
        .unwrap();
    assert_eq!(
        s.execute("EXECUTE del (1900)").unwrap(),
        QueryOutput::Affected(1)
    );
    let QueryOutput::Table { rows, .. } = s.execute("SELECT COUNT(*) FROM people").unwrap() else {
        panic!()
    };
    assert_eq!(rows[0][0], Value::I64(4));
    // A bare placeholder outside PREPARE is rejected up front.
    assert!(matches!(
        s.execute("SELECT name FROM people WHERE age = ?"),
        Err(Error::Bind(_))
    ));
}

/// EXECUTE of a prepared SELECT hits the session plan cache: the
/// second run reuses the compiled MAL instead of re-optimizing.
#[test]
fn repeated_execute_hits_the_plan_cache() {
    let mut s = seeded();
    s.execute("PREPARE q AS SELECT name FROM people WHERE age = ?")
        .unwrap();
    let (_, compiles_after_prepare) = s.plan_cache_stats();
    assert!(compiles_after_prepare >= 1, "PREPARE compiles eagerly");
    s.execute("EXECUTE q (1927)").unwrap();
    s.execute("EXECUTE q (1968)").unwrap();
    s.execute("EXECUTE q (1907)").unwrap();
    let (hits, compiles) = s.plan_cache_stats();
    assert_eq!(
        compiles, compiles_after_prepare,
        "EXECUTE must not recompile a cached plan"
    );
    assert!(hits >= 3, "each EXECUTE is a cache hit, saw {hits}");
}

/// The DDL-invalidation satellite: DROP + CREATE between EXECUTEs must
/// recompile against the new table, never replay the stale plan.
#[test]
fn ddl_invalidates_cached_plans_between_executes() {
    let mut s = Session::new();
    s.execute("CREATE TABLE t (a INT, b INT)").unwrap();
    s.execute("INSERT INTO t VALUES (1, 10), (2, 20)").unwrap();
    s.execute("PREPARE q AS SELECT a FROM t WHERE a >= ?")
        .unwrap();
    let QueryOutput::Table { rows, .. } = s.execute("EXECUTE q (0)").unwrap() else {
        panic!()
    };
    assert_eq!(rows.len(), 2);
    let (_, compiles_warm) = s.plan_cache_stats();
    // Replace the table wholesale: same name, same column names, new
    // contents (and a different column order to catch stale binding).
    s.execute("DROP TABLE t").unwrap();
    s.execute("CREATE TABLE t (b INT, a INT)").unwrap();
    s.execute("INSERT INTO t VALUES (100, 7)").unwrap();
    let QueryOutput::Table { rows, .. } = s.execute("EXECUTE q (0)").unwrap() else {
        panic!()
    };
    assert_eq!(rows, vec![vec![Value::I32(7)]], "stale plan replayed");
    let (_, compiles_after_ddl) = s.plan_cache_stats();
    assert!(
        compiles_after_ddl > compiles_warm,
        "DDL must force a recompile"
    );
    // Dropping the table without recreating it: EXECUTE now fails
    // cleanly instead of resurrecting the cached plan.
    s.execute("DROP TABLE t").unwrap();
    assert!(s.execute("EXECUTE q (0)").is_err());
}

/// Statistics ride the checkpoint sidecar: a reopened durable session
/// sees the same per-column stats without a rebuild.
#[test]
fn durable_stats_survive_reopen_via_sidecar() {
    let dir = std::env::temp_dir().join(format!(
        "mammoth-stats-sidecar-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    {
        let mut s = Session::open_durable(dir.clone()).unwrap();
        s.execute("CREATE TABLE t (a INT)").unwrap();
        s.execute("INSERT INTO t VALUES (1), (2), (3), (4), (5)")
            .unwrap();
        s.execute("CHECKPOINT").unwrap();
    }
    let s = Session::open_durable(dir.clone()).unwrap();
    let stats = s.stats_catalog();
    let t = stats.table("t").expect("sidecar stats for t");
    assert_eq!(t.rows, 5);
    let col = stats.column("t", "a").expect("column stats for t.a");
    assert_eq!(col.rows, 5);
    assert_eq!(col.min.as_ref().and_then(Value::as_i64), Some(1));
    assert_eq!(col.max.as_ref().and_then(Value::as_i64), Some(5));
    assert!(col.histogram.is_some(), "histogram folded into sidecar");
    let _ = std::fs::remove_dir_all(&dir);
}
