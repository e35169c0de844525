//! End-to-end SQL workout: DDL, bulk DML, joins, grouping, ordering,
//! persistence — the downstream-user path through the whole stack.

use mammoth::types::Value;
use mammoth::{Database, QueryOutput};

fn rows(out: QueryOutput) -> Vec<Vec<Value>> {
    match out {
        QueryOutput::Table { rows, .. } => rows,
        other => panic!("expected a table, got {other:?}"),
    }
}

#[test]
fn orders_and_customers() {
    let mut db = Database::new();
    db.execute("CREATE TABLE customers (id INT NOT NULL, name VARCHAR, city VARCHAR)")
        .unwrap();
    db.execute("CREATE TABLE orders (cust INT NOT NULL, amount BIGINT, item VARCHAR)")
        .unwrap();
    db.execute(
        "INSERT INTO customers VALUES (1, 'ada', 'amsterdam'), (2, 'bob', 'berlin'), \
         (3, 'cleo', 'amsterdam'), (4, 'dan', 'paris')",
    )
    .unwrap();
    db.execute(
        "INSERT INTO orders VALUES (1, 120, 'keyboard'), (1, 80, 'mouse'), \
         (2, 500, 'monitor'), (3, 40, 'cable'), (3, 60, 'hub'), (3, 10, 'tape')",
    )
    .unwrap();

    // join + filter + order
    let r = rows(
        db.execute(
            "SELECT name, amount FROM customers JOIN orders ON customers.id = orders.cust \
             WHERE amount >= 60 ORDER BY amount DESC",
        )
        .unwrap(),
    );
    assert_eq!(
        r,
        vec![
            vec![Value::Str("bob".into()), Value::I64(500)],
            vec![Value::Str("ada".into()), Value::I64(120)],
            vec![Value::Str("ada".into()), Value::I64(80)],
            vec![Value::Str("cleo".into()), Value::I64(60)],
        ]
    );

    // grouped aggregates over a join
    let r = rows(
        db.execute(
            "SELECT name, COUNT(*), SUM(amount) FROM customers \
             JOIN orders ON customers.id = orders.cust GROUP BY name ORDER BY name",
        )
        .unwrap(),
    );
    assert_eq!(
        r,
        vec![
            vec![Value::Str("ada".into()), Value::I64(2), Value::I64(200)],
            vec![Value::Str("bob".into()), Value::I64(1), Value::I64(500)],
            vec![Value::Str("cleo".into()), Value::I64(3), Value::I64(110)],
        ]
    );

    // multi-column GROUP BY
    db.execute("INSERT INTO orders VALUES (4, 70, 'keyboard'), (4, 70, 'keyboard')")
        .unwrap();
    let r = rows(
        db.execute(
            "SELECT city, COUNT(*) FROM customers JOIN orders ON customers.id = orders.cust \
             GROUP BY city ORDER BY city",
        )
        .unwrap(),
    );
    assert_eq!(
        r,
        vec![
            vec![Value::Str("amsterdam".into()), Value::I64(5)],
            vec![Value::Str("berlin".into()), Value::I64(1)],
            vec![Value::Str("paris".into()), Value::I64(2)],
        ]
    );

    // DELETE + re-query
    db.execute("DELETE FROM orders WHERE amount < 50").unwrap();
    let r = rows(db.execute("SELECT COUNT(*) FROM orders").unwrap());
    assert_eq!(r[0][0], Value::I64(6));
}

#[test]
fn persistence_survives_restart_mid_workload() {
    let dir = std::env::temp_dir().join(format!("mammoth-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut db = Database::new();
        db.execute("CREATE TABLE kv (k INT NOT NULL, v VARCHAR)")
            .unwrap();
        for batch in 0..10 {
            let values: Vec<String> = (0..100)
                .map(|i| format!("({}, 'v{}')", batch * 100 + i, batch * 100 + i))
                .collect();
            db.execute(&format!("INSERT INTO kv VALUES {}", values.join(", ")))
                .unwrap();
        }
        db.execute("DELETE FROM kv WHERE k >= 900").unwrap();
        db.save(&dir).unwrap();
    }
    let mut db = Database::open(&dir).unwrap();
    let r = rows(db.execute("SELECT COUNT(*) FROM kv").unwrap());
    assert_eq!(r[0][0], Value::I64(900));
    let r = rows(db.execute("SELECT v FROM kv WHERE k = 555").unwrap());
    assert_eq!(r, vec![vec![Value::Str("v555".into())]]);
    // keep writing after reopen
    db.execute("INSERT INTO kv VALUES (900, 'again')").unwrap();
    let r = rows(db.execute("SELECT COUNT(*) FROM kv").unwrap());
    assert_eq!(r[0][0], Value::I64(901));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn between_limit_and_floats() {
    let mut db = Database::new();
    db.execute("CREATE TABLE m (x INT, y DOUBLE)").unwrap();
    db.execute("INSERT INTO m VALUES (1, 0.5), (2, 1.5), (3, 2.5), (4, NULL)")
        .unwrap();
    let r = rows(
        db.execute("SELECT x FROM m WHERE x BETWEEN 2 AND 3 ORDER BY x LIMIT 1")
            .unwrap(),
    );
    assert_eq!(r, vec![vec![Value::I32(2)]]);
    let r = rows(
        db.execute("SELECT SUM(y), COUNT(y), AVG(y) FROM m")
            .unwrap(),
    );
    assert_eq!(r[0][0], Value::F64(4.5));
    assert_eq!(r[0][1], Value::I64(3), "COUNT(col) skips NULL");
    assert_eq!(r[0][2], Value::F64(1.5));
}

/// A comparison with NULL selects nothing. A lower and an upper bound on
/// one column compile to a single range select whose nil bounds would be
/// *open*, so NULL bounds must never reach it — neither as literals nor
/// bound to a `?` at EXECUTE time.
#[test]
fn null_bounds_select_nothing_not_everything() {
    let mut db = Database::new();
    db.execute("CREATE TABLE m (x INT, y DOUBLE)").unwrap();
    db.execute("INSERT INTO m VALUES (1, 0.5), (2, 1.5), (3, 2.5), (4, NULL)")
        .unwrap();
    let count = |db: &mut Database, sql: &str| rows(db.execute(sql).unwrap())[0][0].clone();
    for pred in [
        "x >= NULL",
        "x >= NULL AND x < 3",
        "x > 1 AND x <= NULL",
        "x BETWEEN NULL AND 3",
        "x BETWEEN 1 AND NULL",
        "y >= NULL AND y < 2.0 AND x > 0",
    ] {
        let sql = format!("SELECT COUNT(*) FROM m WHERE {pred}");
        assert_eq!(count(&mut db, &sql), Value::I64(0), "{pred}");
        let sql = format!("SELECT x FROM m WHERE {pred} ORDER BY x LIMIT 2");
        assert!(rows(db.execute(&sql).unwrap()).is_empty(), "{pred}");
    }
    // the same bounds, non-NULL, do select — and fuse without losing rows
    let sql = "SELECT COUNT(*) FROM m WHERE x >= 1 AND x < 3";
    assert_eq!(count(&mut db, sql), Value::I64(2));
    let sql = "SELECT COUNT(*) FROM m WHERE y > 0.5 AND y <= 2.5 AND x BETWEEN 1 AND 4";
    assert_eq!(count(&mut db, sql), Value::I64(2));

    db.execute("PREPARE p AS SELECT COUNT(*) FROM m WHERE x >= ? AND x < ?")
        .unwrap();
    assert_eq!(count(&mut db, "EXECUTE p (1, 3)"), Value::I64(2));
    assert_eq!(count(&mut db, "EXECUTE p (NULL, 3)"), Value::I64(0));
    assert_eq!(count(&mut db, "EXECUTE p (1, NULL)"), Value::I64(0));
    assert_eq!(count(&mut db, "EXECUTE p (2, 9)"), Value::I64(3));
}

/// What `EXPLAIN` and `TRACE` show of the scan shapes: a filter feeding
/// aggregates or one grouping is a single `vector.pipeline` instruction
/// with nothing of the chain left beside it; a join or a top-N keeps its
/// column-at-a-time plan — and a `COUNT(*)` over a join counts the join's
/// result instead of a fetch through it.
#[test]
fn scan_shapes_fuse_into_one_pipeline_instruction() {
    const ROWS: i64 = 500;
    let mut db = Database::new();
    db.execute("CREATE TABLE fact (a BIGINT, b BIGINT, k BIGINT)")
        .unwrap();
    db.execute("CREATE TABLE dim (k BIGINT)").unwrap();
    let fact: Vec<String> = (0..ROWS)
        .map(|i| format!("({}, {}, {})", (i * 37) % ROWS, i % 8, i % 50))
        .collect();
    db.execute(&format!("INSERT INTO fact VALUES {}", fact.join(", ")))
        .unwrap();
    let dim: Vec<String> = (0..20).map(|k| format!("({k})")).collect();
    db.execute(&format!("INSERT INTO dim VALUES {}", dim.join(", ")))
        .unwrap();

    let column = |db: &mut Database, sql: &str, name: &str| -> Vec<Value> {
        let QueryOutput::Table { columns, rows } = db.execute(sql).unwrap() else {
            panic!("{sql}: not a table")
        };
        let at = columns.iter().position(|c| c == name).expect(name);
        rows.into_iter().map(|mut r| r.swap_remove(at)).collect()
    };
    let plan = |db: &mut Database, sql: &str| -> Vec<String> {
        let mal = column(db, &format!("EXPLAIN {sql}"), "mal");
        mal.iter().map(|v| v.to_string()).collect()
    };

    let fused = [
        "SELECT SUM(b), COUNT(*) FROM fact WHERE a < 50",
        "SELECT COUNT(*), SUM(a) FROM fact WHERE a BETWEEN 400 AND 480 AND b < 4",
        "SELECT b, COUNT(*), SUM(a) FROM fact WHERE a < 70 AND a >= 10 GROUP BY b",
        "SELECT MIN(b), MAX(b), MIN(k), MAX(k) FROM fact WHERE a < 130 AND a >= 5",
    ];
    for sql in fused {
        let lines = plan(&mut db, sql);
        let count = |needle: &str| lines.iter().filter(|l| l.contains(needle)).count();
        assert_eq!(count("vector.pipeline"), 1, "{sql}:\n{lines:#?}");
        for gone in ["algebra.", "aggr.", "group."] {
            assert_eq!(
                count(gone),
                0,
                "{sql}: {gone} beside the pipeline:\n{lines:#?}"
            );
        }
    }

    // a top-N is the two binds and one instruction that keeps ten rows
    let topn = "SELECT a, b FROM fact WHERE a < 60 AND a >= 10 ORDER BY a LIMIT 10";
    let lines = plan(&mut db, topn);
    assert_eq!(lines.len(), 4, "{lines:#?}");
    assert!(lines[..2].iter().all(|l| l.contains(":= sql.bind(")));
    assert!(
        lines[2].contains(":= vector.pipeline[>=<@0; top@0: col@0, col@1]("),
        "{lines:#?}"
    );
    assert_eq!(
        column(&mut db, topn, "a"),
        (10..20).map(Value::I64).collect::<Vec<_>>()
    );

    // the probe side of a join is one scan emitting the join column, and
    // COUNT(*) still reads the join's left result
    let join_count = "SELECT COUNT(*) FROM fact JOIN dim ON fact.k = dim.k WHERE fact.a < 300";
    let lines = plan(&mut db, join_count);
    let at = |needle: &str| lines.iter().position(|l| l.contains(needle));
    let join = at(":= algebra.join(").expect("the plan joins");
    assert!(
        at(":= vector.pipeline[<@0; col@1](").is_some_and(|p| p < join),
        "{lines:#?}"
    );
    for gone in ["algebra.thetaselect", "algebra.projection"] {
        assert_eq!(at(gone), None, "{gone} beside the pipeline:\n{lines:#?}");
    }
    let left = &lines[join][1..lines[join].find(',').expect("two results")];
    let counted = format!(":= aggr.count({left});");
    assert!(
        lines.iter().any(|l| l.ends_with(&counted)),
        "COUNT(*) reads the join's left result {left}:\n{lines:#?}"
    );

    // TRACE: the instruction read the table's rows once and produced its sink's
    for (sql, sink_rows) in [(fused[1], 1), (fused[2], 8), (topn, 10)] {
        let trace = format!("TRACE {sql}");
        let ops = column(&mut db, &trace, "op");
        let at = ops
            .iter()
            .position(|op| op.to_string().starts_with("vector.pipeline["))
            .unwrap_or_else(|| panic!("{sql}: no pipeline event in {ops:?}"));
        assert_eq!(
            column(&mut db, &trace, "rows_in")[at],
            Value::I64(ROWS),
            "{sql}"
        );
        assert_eq!(
            column(&mut db, &trace, "rows_out")[at],
            Value::I64(sink_rows),
            "{sql}"
        );
    }
}

#[test]
fn error_paths_are_clean() {
    let mut db = Database::new();
    assert!(db.execute("SELECT * FROM nowhere").is_err());
    db.execute("CREATE TABLE t (a INT)").unwrap();
    assert!(db.execute("CREATE TABLE t (a INT)").is_err());
    assert!(db.execute("INSERT INTO t VALUES ('wrong type')").is_err());
    assert!(db.execute("SELECT b FROM t").is_err());
    assert!(db.execute("SELEKT a FROM t").is_err());
    // the failed statements must not have corrupted anything
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    let r = rows(db.execute("SELECT COUNT(*) FROM t").unwrap());
    assert_eq!(r[0][0], Value::I64(1));
}
