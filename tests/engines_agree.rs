//! Integration test: the execution paradigms — tuple-at-a-time (volcano),
//! column-at-a-time (BAT algebra via SQL), vectorized (X100-style), and the
//! multi-core dataflow engine — must return identical answers on the same
//! generated data. This is the correctness backbone of experiment E08 and
//! of the benchmark's `scan_dataflow` workload.

use mammoth::mal::{default_pipeline, Interpreter};
use mammoth::sql::{compile_select, parse_sql, render_outputs, Statement};
use mammoth::storage::{Bat, Table};
use mammoth::types::{ColumnDef, LogicalType, NativeType, TableSchema, Value};
use mammoth::vectorized::{
    AggKind, CmpOp as VCmp, ColRef, Column, ColumnSet, MapOp, Operand, Out, Output, Pipeline, Sink,
    Stage,
};
use mammoth::{Database, Engine, QueryOutput};
use mammoth_volcano::{
    expr::CmpOp as ExprCmp, iter::AggFn, Expr, FilterOp, HashAggOp, NsmTable, SeqScanOp,
};
use mammoth_workload::LineitemSlice;

mod support;
use support::gen::Gen;

const N: usize = 20_000;
/// The statement generator's seed for the engine differential.
const SEED: u64 = 7;
const CUTOFF: i64 = 10_000;
const QTY: i64 = 25;

fn slice() -> LineitemSlice {
    LineitemSlice::generate(N, 99)
}

/// The oracle: a plain loop.
fn oracle() -> (i64, i64) {
    let s = slice();
    let (count, _sq, sp) = s.q1_reference(CUTOFF, QTY);
    // our query sums qty*price instead of price: recompute
    let mut spq = 0;
    for i in 0..s.len() {
        if s.shipdate[i] <= CUTOFF && s.quantity[i] < QTY {
            spq += s.quantity[i] * s.extendedprice[i];
        }
    }
    let _ = sp;
    (count, spq)
}

#[test]
fn volcano_engine_matches_oracle() {
    let s = slice();
    let table = NsmTable::from_columns(
        TableSchema::new(
            "lineitem",
            vec![
                ColumnDef::new("qty", LogicalType::I64),
                ColumnDef::new("price", LogicalType::I64),
                ColumnDef::new("shipdate", LogicalType::I64),
            ],
        ),
        &[
            s.quantity.iter().map(|&x| Value::I64(x)).collect(),
            s.extendedprice.iter().map(|&x| Value::I64(x)).collect(),
            s.shipdate.iter().map(|&x| Value::I64(x)).collect(),
        ],
    )
    .unwrap();
    let pred = Expr::and(
        Expr::cmp(ExprCmp::Le, Expr::col(2), Expr::lit(CUTOFF)),
        Expr::cmp(ExprCmp::Lt, Expr::col(0), Expr::lit(QTY)),
    );
    // project qty*price then aggregate
    let plan = HashAggOp::new(
        mammoth_volcano::ProjectOp::new(
            FilterOp::new(SeqScanOp::new(&table.file), pred),
            vec![Expr::arith(
                mammoth_volcano::expr::ArithOp::Mul,
                Expr::col(0),
                Expr::col(1),
            )],
        ),
        vec![],
        vec![AggFn::CountStar, AggFn::Sum(0)],
    );
    let rows = mammoth_volcano::iter::collect_all(plan).unwrap();
    let (count, sum) = oracle();
    assert_eq!(rows[0][0], Value::I64(count));
    assert_eq!(rows[0][1], Value::F64(sum as f64));
}

#[test]
fn column_engine_matches_oracle() {
    let s = slice();
    let mut db = Database::new();
    let table = Table::from_bats(
        TableSchema::new(
            "lineitem",
            vec![
                ColumnDef::new("qty", LogicalType::I64),
                ColumnDef::new("price", LogicalType::I64),
                ColumnDef::new("shipdate", LogicalType::I64),
            ],
        ),
        vec![
            Bat::from_vec(s.quantity.clone()),
            Bat::from_vec(s.extendedprice.clone()),
            Bat::from_vec(s.shipdate.clone()),
        ],
    )
    .unwrap();
    db.catalog_mut().create_table(table).unwrap();
    // SQL can't express qty*price yet, so drive the MAL program directly
    let out = db
        .execute_mal(&format!(
            r#"
            qty   := sql.bind("lineitem", "qty");
            price := sql.bind("lineitem", "price");
            ship  := sql.bind("lineitem", "shipdate");
            c1    := algebra.thetaselect[<=](ship, {CUTOFF});
            qty1  := algebra.projection(c1, qty);
            c2l   := algebra.thetaselect[<](qty1, {QTY});
            c2    := algebra.projection(c2l, c1);
            qty2  := algebra.projection(c2, qty);
            pr2   := algebra.projection(c2, price);
            prod  := batcalc.*(qty2, pr2);
            total := aggr.sum(prod);
            n     := aggr.count(prod);
            io.result(n, total);
        "#
        ))
        .unwrap();
    let (count, sum) = oracle();
    assert_eq!(out[0].as_scalar().unwrap(), &Value::I64(count));
    assert_eq!(out[1].as_scalar().unwrap(), &Value::I64(sum));
}

#[test]
fn vectorized_engine_matches_oracle_at_all_vector_sizes() {
    let s = slice();
    let cols = ColumnSet::new(vec![
        Column::I64(&s.quantity),
        Column::I64(&s.extendedprice),
        Column::I64(&s.shipdate),
    ])
    .unwrap();
    let pipeline = Pipeline {
        stages: vec![
            Stage::theta(ColRef::Source(2), VCmp::Le, CUTOFF),
            Stage::theta(ColRef::Source(0), VCmp::Lt, QTY),
            Stage::Map {
                op: MapOp::Mul,
                l: ColRef::Source(0),
                r: Operand::Col(ColRef::Source(1)),
                out: 0,
            },
        ],
        sink: Sink::aggregate(vec![
            Out::Count,
            Out::Agg(AggKind::Sum, ColRef::Computed(0)),
        ]),
        computed_slots: 1,
    };
    let (count, sum) = oracle();
    for vs in [1usize, 13, 128, 1024, N] {
        let Output::Scalars(aggs) = pipeline.run(&cols, vs).unwrap() else {
            panic!("a global sink yields scalars")
        };
        assert_eq!(
            aggs,
            vec![Value::I64(count), Value::I64(sum)],
            "vector size {vs}"
        );
    }
}

/// And plain SQL agrees with everything for a simpler filter+count.
#[test]
fn sql_count_agrees_with_volcano() {
    let s = slice();
    let expect = s.quantity.iter().filter(|&&q| q < QTY).count() as i64;

    let mut db = Database::new();
    db.catalog_mut()
        .create_table(
            Table::from_bats(
                TableSchema::new("li", vec![ColumnDef::new("qty", LogicalType::I64)]),
                vec![Bat::from_vec(s.quantity.clone())],
            )
            .unwrap(),
        )
        .unwrap();
    let out = db
        .execute(&format!("SELECT COUNT(qty) FROM li WHERE qty < {QTY}"))
        .unwrap();
    let QueryOutput::Table { rows, .. } = out else {
        panic!()
    };
    assert_eq!(rows[0][0], Value::I64(expect));

    let table = NsmTable::from_columns(
        TableSchema::new("li", vec![ColumnDef::new("qty", LogicalType::I64)]),
        &[s.quantity.iter().map(|&x| Value::I64(x)).collect()],
    )
    .unwrap();
    let plan = HashAggOp::new(
        FilterOp::new(
            SeqScanOp::new(&table.file),
            Expr::cmp(ExprCmp::Lt, Expr::col(0), Expr::lit(QTY)),
        ),
        vec![],
        vec![AggFn::CountStar],
    );
    let rows = mammoth_volcano::iter::collect_all(plan).unwrap();
    assert_eq!(rows[0][0], Value::I64(expect));
}

/// Build the lineitem slice as a columnar table in `db`.
fn load_lineitem(db: &mut Database, s: &LineitemSlice) {
    let table = Table::from_bats(
        TableSchema::new(
            "lineitem",
            vec![
                ColumnDef::new("qty", LogicalType::I64),
                ColumnDef::new("price", LogicalType::I64),
                ColumnDef::new("shipdate", LogicalType::I64),
            ],
        ),
        vec![
            Bat::from_vec(s.quantity.clone()),
            Bat::from_vec(s.extendedprice.clone()),
            Bat::from_vec(s.shipdate.clone()),
        ],
    )
    .unwrap();
    db.catalog_mut().create_table(table).unwrap();
}

/// The parallel dataflow engine must agree with the serial interpreter on
/// every compiled query, at every thread count (`threads: 0` resolves
/// through MAMMOTH_THREADS, the knob the CI matrix turns): a dozen
/// generated SELECTs (`support::gen`) over generated tables, the fact table
/// past the 8 192 rows of one mitosis fragment.
#[test]
fn parallel_engine_matches_serial_at_every_thread_count() {
    let mut g = Gen::new(SEED);
    g.refusals = false;
    let load = [
        g.create(0),
        g.insert_rows(0, 9_000),
        g.create(1),
        g.insert_rows(1, 64),
    ];
    let load = load.map(|stmt| stmt.to_string());
    let queries: Vec<String> = (0..12).map(|_| g.select(0).to_string()).collect();
    let database = |engine| {
        let mut db = Database::with_engine(engine);
        for stmt in &load {
            db.execute(stmt).unwrap();
        }
        db
    };
    let mut serial = database(Engine::Serial);
    let want: Vec<QueryOutput> = queries.iter().map(|q| serial.execute(q).unwrap()).collect();
    for threads in [1usize, 2, 4, 8, 0] {
        let mut par = database(Engine::Parallel { threads });
        for (step, (q, want)) in queries.iter().zip(&want).enumerate() {
            let ctx = format!("seed {SEED} step {step}, threads={threads}: {q}");
            assert_eq!(&par.execute(q).unwrap(), want, "{ctx}");
        }
    }
}

/// The candidate-threaded plan shapes — several predicates on one column
/// (fused and not), predicates across columns, a BETWEEN with a third
/// predicate, predicates over a joined side, `ORDER BY … LIMIT` — against a
/// plain loop over the generated vectors, on the serial engine and on the
/// dataflow engine at every thread count (`threads: 0` takes the CI
/// matrix's MAMMOTH_THREADS).
#[test]
fn candidate_threaded_shapes_match_a_plain_loop_on_every_engine() {
    let s = slice();
    let rows = |keep: &dyn Fn(usize) -> bool| (0..s.len()).filter(|&i| keep(i)).collect::<Vec<_>>();
    let count_sum = |keep: &dyn Fn(usize) -> bool| {
        let hit = rows(keep);
        let sum: i64 = hit.iter().map(|&i| s.extendedprice[i]).sum();
        vec![vec![Value::I64(hit.len() as i64), Value::I64(sum)]]
    };
    let (q, d, p) = (&s.quantity, &s.shipdate, &s.extendedprice);
    // dim(q, w): quantities 1..=30 (so 31..=50 find no partner), w = q % 7
    let joined = |keep: &dyn Fn(usize) -> bool| {
        let n = rows(&|i| q[i] <= 30 && keep(i)).len();
        vec![vec![Value::I64(n as i64)]]
    };
    let top = |keep: &dyn Fn(usize) -> bool, desc: bool, n: usize| {
        let mut hit = rows(keep);
        // a stable sort; descending is its exact reverse
        hit.sort_by_key(|&i| p[i]);
        if desc {
            hit.reverse();
        }
        hit.truncate(n);
        hit.iter()
            .map(|&i| vec![Value::I64(p[i]), Value::I64(q[i])])
            .collect::<Vec<_>>()
    };
    let cases: Vec<(String, Vec<Vec<Value>>)> = vec![
        (
            "SELECT COUNT(*), SUM(price) FROM lineitem WHERE qty >= 10 AND qty < 20".into(),
            count_sum(&|i| q[i] >= 10 && q[i] < 20),
        ),
        (
            "SELECT COUNT(*), SUM(price) FROM lineitem WHERE qty > 10 AND qty <= 40 AND qty <> 25"
                .into(),
            count_sum(&|i| q[i] > 10 && q[i] <= 40 && q[i] != 25),
        ),
        (
            format!(
                "SELECT COUNT(*), SUM(price) FROM lineitem \
                 WHERE shipdate BETWEEN 9000 AND {CUTOFF} AND qty < {QTY}"
            ),
            count_sum(&|i| d[i] >= 9000 && d[i] <= CUTOFF && q[i] < QTY),
        ),
        (
            format!(
                "SELECT COUNT(*), SUM(price) FROM lineitem \
                 WHERE qty < {QTY} AND shipdate <= {CUTOFF} AND price > 500000"
            ),
            count_sum(&|i| q[i] < QTY && d[i] <= CUTOFF && p[i] > 500_000),
        ),
        (
            "SELECT COUNT(*), SUM(price) FROM lineitem WHERE qty > 40 AND qty < 10".into(),
            vec![vec![Value::I64(0), Value::Null]],
        ),
        (
            format!(
                "SELECT COUNT(*) FROM lineitem JOIN dim ON lineitem.qty = dim.q \
                 WHERE dim.w >= 2 AND dim.w < 5 AND lineitem.shipdate <= {CUTOFF}"
            ),
            joined(&|i| (2..5).contains(&(q[i] % 7)) && d[i] <= CUTOFF),
        ),
        (
            "SELECT price, qty FROM lineitem WHERE qty >= 20 AND qty < 23 ORDER BY price LIMIT 15"
                .into(),
            top(&|i| q[i] >= 20 && q[i] < 23, false, 15),
        ),
        (
            format!(
                "SELECT price, qty FROM lineitem WHERE shipdate <= {CUTOFF} \
                 ORDER BY price DESC LIMIT 9"
            ),
            top(&|i| d[i] <= CUTOFF, true, 9),
        ),
    ];
    let load = |db: &mut Database| {
        load_lineitem(db, &s);
        let dim = Table::from_bats(
            TableSchema::new(
                "dim",
                vec![
                    ColumnDef::new("q", LogicalType::I64),
                    ColumnDef::new("w", LogicalType::I64),
                ],
            ),
            vec![
                Bat::from_vec((1..=30i64).collect::<Vec<_>>()),
                Bat::from_vec((1..=30i64).map(|x| x % 7).collect::<Vec<_>>()),
            ],
        )
        .unwrap();
        db.catalog_mut().create_table(dim).unwrap();
    };
    let engines = [1usize, 2, 4, 0]
        .map(|threads| Engine::Parallel { threads })
        .into_iter()
        .chain([Engine::Serial]);
    for engine in engines {
        let mut db = Database::with_engine(engine);
        load(&mut db);
        for (sql, want) in &cases {
            let QueryOutput::Table { rows, .. } = db.execute(sql).unwrap() else {
                panic!("{sql}: not a table")
            };
            assert_eq!(&rows, want, "{engine:?}: {sql}");
        }
    }
}

/// A join whose build side is a dense key domain and a NULL key, probed by
/// an INT foreign key that is NULL every ninth row, against a plain nested
/// loop on both engines: once with unique keys (the positional build
/// table) and once with repeated ones (the hashed table). The BIGINT keys
/// start at -2147483648, the value an INT column stores its NULL as: a
/// NULL foreign key must still find no partner.
#[test]
fn a_dense_dimension_with_null_foreign_keys_joins_on_every_engine() {
    // keys base..base+16, with 24 rows the first eight twice, then a NULL key
    for dim_rows in [16, 24] {
        dense_dimension_join_on_every_engine(dim_rows);
    }
}

fn dense_dimension_join_on_every_engine(dim_rows: i64) {
    let base = i32::MIN as i64;
    let dim_k: Vec<i64> = (0..dim_rows)
        .map(|i| base + i % 16)
        .chain([i64::NIL])
        .collect();
    let dim_w: Vec<i64> = (0..=dim_rows).map(|i| i % 5).collect();
    // foreign keys base+1..base+24 (a third find no partner), NULL every ninth row
    let fk: Vec<Option<i64>> = (0..2_000i64)
        .map(|i| (i % 9 != 0).then_some(base + 1 + i * 7 % 24))
        .collect();
    let v: Vec<i64> = (0..2_000i64).map(|i| i * 13 % 1000).collect();
    let pairs: Vec<(usize, usize)> = (0..fk.len())
        .flat_map(|i| (0..dim_k.len()).map(move |j| (i, j)))
        .filter(|&(i, j)| fk[i] == Some(dim_k[j]) && !dim_k[j].is_nil())
        .collect();
    let count_sum = |keep: &dyn Fn(usize) -> bool| {
        let hit: Vec<_> = pairs.iter().filter(|&&(i, _)| keep(i)).collect();
        let sum: i64 = hit.iter().map(|&&(i, _)| v[i]).sum();
        vec![vec![Value::I64(hit.len() as i64), Value::I64(sum)]]
    };
    let mut by_w: Vec<Vec<Value>> = (0..5)
        .map(|w| {
            let n = pairs.iter().filter(|&&(_, j)| dim_w[j] == w).count();
            vec![Value::I64(w), Value::I64(n as i64)]
        })
        .collect();
    by_w.sort_by_key(|row| format!("{row:?}"));
    let cases = [
        (
            "SELECT COUNT(*), SUM(fact.v) FROM fact JOIN dim ON fact.fk = dim.k",
            count_sum(&|_| true),
        ),
        (
            "SELECT COUNT(*), SUM(fact.v) FROM fact JOIN dim ON fact.fk = dim.k \
             WHERE fact.v < 400",
            count_sum(&|i| v[i] < 400),
        ),
        (
            "SELECT dim.w, COUNT(*) FROM fact JOIN dim ON fact.fk = dim.k GROUP BY dim.w",
            by_w,
        ),
    ];
    for engine in [Engine::Serial, Engine::Parallel { threads: 2 }] {
        let mut db = Database::with_engine(engine);
        let fact = Table::from_bats(
            TableSchema::new(
                "fact",
                vec![
                    ColumnDef::new("fk", LogicalType::I32),
                    ColumnDef::new("v", LogicalType::I64),
                ],
            ),
            vec![
                Bat::from_vec(
                    fk.iter()
                        .map(|k| k.map_or(i32::NIL, |k| k as i32))
                        .collect(),
                ),
                Bat::from_vec(v.clone()),
            ],
        )
        .unwrap();
        let dim = Table::from_bats(
            TableSchema::new(
                "dim",
                vec![
                    ColumnDef::new("k", LogicalType::I64),
                    ColumnDef::new("w", LogicalType::I64),
                ],
            ),
            vec![Bat::from_vec(dim_k.clone()), Bat::from_vec(dim_w.clone())],
        )
        .unwrap();
        for t in [fact, dim] {
            db.catalog_mut().create_table(t).unwrap();
        }
        for (sql, want) in &cases {
            let QueryOutput::Table { mut rows, .. } = db.execute(sql).unwrap() else {
                panic!("{sql}: not a table")
            };
            rows.sort_by_key(|row| format!("{row:?}"));
            assert_eq!(&rows, want, "{engine:?}, {dim_rows} dim rows: {sql}");
        }
    }
}

/// Filter → aggregate, filter → fetch and filter → top-N statements run as
/// one fused `vector.pipeline` instruction on the serial engine, and per
/// mitosis fragment (sums, counts and fetched columns) or not at all
/// (grouping, MIN/MAX and top-N, which `mat.pack` first) on the dataflow
/// engine. The oracle is the column-at-a-time plan of the same statement —
/// compiled, run through the fact-free `default_pipeline()` (which cannot
/// fuse) and interpreted — and every engine at every thread count must
/// return its answer exactly: float sums, nil placement and the order of
/// ties included.
#[test]
fn fused_plans_agree_with_the_unfused_plan_on_every_engine() {
    let s = slice();
    let sevens = s.quantity.iter().filter(|&&q| q == 7).count();
    let queries = [
        format!("SELECT SUM(price), COUNT(*) FROM lineitem WHERE shipdate < {CUTOFF}"),
        format!(
            "SELECT COUNT(*), SUM(shipdate) FROM lineitem \
             WHERE shipdate BETWEEN 9000 AND {CUTOFF} AND qty < {QTY}"
        ),
        format!(
            "SELECT qty, COUNT(*), SUM(price), AVG(ratio) FROM lineitem \
             WHERE shipdate < {CUTOFF} AND shipdate >= 9000 GROUP BY qty"
        ),
        format!(
            "SELECT MIN(qty), MAX(qty), MIN(price), MAX(price) FROM lineitem \
             WHERE shipdate < {CUTOFF} AND shipdate >= 9500"
        ),
        "SELECT SUM(ratio), AVG(ratio), COUNT(ratio) FROM lineitem WHERE qty <> 25".to_string(),
        "SELECT COUNT(*) FROM lineitem WHERE qty > 45".to_string(),
        // emitted columns: two of them, a float one, one under a LIMIT,
        // the probe side of a join, an empty selection
        format!("SELECT price, qty FROM lineitem WHERE shipdate < {CUTOFF} AND shipdate >= 9000"),
        "SELECT ratio, disc FROM lineitem WHERE qty = 7".to_string(),
        "SELECT price FROM lineitem WHERE qty < 5 LIMIT 7".to_string(),
        format!(
            "SELECT COUNT(*) FROM lineitem JOIN dim ON lineitem.qty = dim.q \
             WHERE lineitem.shipdate <= {CUTOFF}"
        ),
        "SELECT price, ratio FROM lineitem WHERE qty = 7 AND qty = 8".to_string(),
        // top-N: fifty distinct keys over 20 000 rows, so position decides
        // nearly every tie; a nullable key sorts its nils first ascending
        // and last descending; a float key
        format!("SELECT qty, price FROM lineitem WHERE shipdate < {CUTOFF} ORDER BY qty LIMIT 25"),
        format!(
            "SELECT price, qty FROM lineitem WHERE shipdate < {CUTOFF} ORDER BY qty DESC LIMIT 25"
        ),
        "SELECT disc, price FROM lineitem WHERE qty < 10 ORDER BY disc LIMIT 400".to_string(),
        "SELECT disc, price FROM lineitem WHERE qty < 10 ORDER BY disc DESC LIMIT 3800".to_string(),
        "SELECT ratio, qty FROM lineitem WHERE qty >= 48 ORDER BY ratio DESC LIMIT 11".to_string(),
        // n: none, one, every qualifying row exactly, more than there are
        "SELECT price, qty FROM lineitem WHERE qty = 7 ORDER BY price LIMIT 0".to_string(),
        "SELECT price, qty FROM lineitem WHERE qty = 7 ORDER BY price LIMIT 1".to_string(),
        format!("SELECT price, qty FROM lineitem WHERE qty = 7 ORDER BY price LIMIT {sevens}"),
        format!("SELECT price, qty FROM lineitem WHERE qty = 7 ORDER BY price DESC LIMIT {N}"),
        "SELECT price, qty FROM lineitem WHERE qty = 7 AND qty = 8 ORDER BY price LIMIT 5"
            .to_string(),
    ];
    // what stays column at a time keeps its plan byte for byte: an ORDER BY
    // without a LIMIT is sorted whole
    let unsorted =
        format!("SELECT price, qty FROM lineitem WHERE shipdate < {CUTOFF} ORDER BY price");
    // a float column whose sum depends on the order of its terms
    let ratio: Vec<f64> = (0..s.len())
        .map(|i| s.extendedprice[i] as f64 / (3 + s.quantity[i]) as f64)
        .collect();
    // a narrow nullable column of a few distinct values: nil every seventh row
    let disc: Vec<i32> = (0..s.len())
        .map(|i| match i % 7 {
            0 => i32::NIL,
            _ => (s.extendedprice[i] % 11) as i32,
        })
        .collect();
    let load = |db: &mut Database| {
        let table = Table::from_bats(
            TableSchema::new(
                "lineitem",
                vec![
                    ColumnDef::new("qty", LogicalType::I64),
                    ColumnDef::new("price", LogicalType::I64),
                    ColumnDef::new("shipdate", LogicalType::I64),
                    ColumnDef::new("ratio", LogicalType::F64),
                    ColumnDef::new("disc", LogicalType::I32),
                ],
            ),
            vec![
                Bat::from_vec(s.quantity.clone()),
                Bat::from_vec(s.extendedprice.clone()),
                Bat::from_vec(s.shipdate.clone()),
                Bat::from_vec(ratio.clone()),
                Bat::from_vec(disc.clone()),
            ],
        )
        .unwrap();
        db.catalog_mut().create_table(table).unwrap();
        let q = Bat::from_vec((1..=30i64).collect::<Vec<_>>());
        let dim = TableSchema::new("dim", vec![ColumnDef::new("q", LogicalType::I64)]);
        let dim = Table::from_bats(dim, vec![q]).unwrap();
        db.catalog_mut().create_table(dim).unwrap();
    };
    let plan = |db: &mut Database, q: &str| match db.execute(&format!("EXPLAIN {q}")).unwrap() {
        QueryOutput::Table { rows, .. } => rows
            .iter()
            .map(|r| format!("{}\n", r[0]))
            .collect::<String>(),
        other => panic!("EXPLAIN {q}: {other:?}"),
    };

    let mut serial = Database::new();
    load(&mut serial);
    // the unfused plan of `q` as text, and its answer
    let unfused = |db: &Database, q: &str| {
        let Statement::Select(sel) = parse_sql(q).unwrap() else {
            panic!("not a SELECT: {q}")
        };
        let (prog, names) = compile_select(db.catalog(), &sel).unwrap();
        let prog = default_pipeline().optimize(prog);
        let outputs = Interpreter::new(db.catalog()).run(&prog).unwrap();
        (prog.to_string(), render_outputs(names, outputs).unwrap())
    };
    let want: Vec<QueryOutput> = queries
        .iter()
        .map(|q| {
            let (text, want) = unfused(&serial, q);
            assert!(!text.contains("vector.pipeline"), "{q}");
            want
        })
        .collect();
    for q in &queries {
        assert!(plan(&mut serial, q).contains("vector.pipeline"), "{q}");
    }
    let sorted_whole = plan(&mut serial, &unsorted);
    assert!(
        sorted_whole.contains("algebra.sort(") && sorted_whole.contains("algebra.thetaselect"),
        "{sorted_whole}"
    );
    assert_eq!(sorted_whole, unfused(&serial, &unsorted).0);
    let engines = [1usize, 2, 4, 0]
        .map(|threads| Engine::Parallel { threads })
        .into_iter()
        .chain([Engine::Serial]);
    for engine in engines {
        let mut db = Database::with_engine(engine);
        load(&mut db);
        for (q, want) in queries.iter().zip(&want) {
            assert_eq!(&db.execute(q).unwrap(), want, "{engine:?}: {q}");
        }
    }
    // the dataflow plans fuse too, fragment by fragment: partial sums meet
    // in `mat.packsum`, fetched slices in `mat.pack` — under the top-N as well
    let mut par = Database::with_engine(Engine::Parallel { threads: 2 });
    load(&mut par);
    for (q, merge) in [
        (0, "mat.packsum"),
        (6, "mat.pack("),
        (11, "algebra.firstn("),
    ] {
        let text = plan(&mut par, &queries[q]);
        assert!(
            text.matches("vector.pipeline").count() >= 2 && text.contains(merge),
            "per-fragment pipelines merged by {merge}:\n{text}"
        );
    }
}

/// `Engine::Parallel { threads: 0 }` resolves via MAMMOTH_THREADS (the
/// knob the CI matrix turns); it must agree with serial too.
#[test]
fn parallel_engine_default_thread_resolution_agrees() {
    let s = slice();
    let mut serial = Database::new();
    load_lineitem(&mut serial, &s);
    let mut par = Database::with_engine(Engine::Parallel { threads: 0 });
    load_lineitem(&mut par, &s);
    let q = format!("SELECT SUM(qty), COUNT(qty) FROM lineitem WHERE shipdate <= {CUTOFF}");
    assert_eq!(serial.execute(&q).unwrap(), par.execute(&q).unwrap());
}

mod props_compat {
    use super::support::gen::{bind, int_table};
    use super::*;
    use mammoth::algebra::{AggKind, CmpOp};
    use mammoth::mal::{
        analyze_props, column_facts, column_types, default_pipeline_with_props,
        parallel_pipeline_with_props, Arg, Interpreter, OpCode, Program,
    };
    use mammoth::storage::Catalog;

    fn catalog(n: i64) -> Catalog {
        let mut cat = Catalog::new();
        let sorted = (0..n).collect();
        let scrambled = (0..n).map(|i| (i * 131) % n).collect();
        int_table(&mut cat, "t", vec![("v", sorted), ("w", scrambled)]);
        cat
    }

    fn plan(col: &str, cut: i64) -> Program {
        let mut p = Program::new();
        let b = bind(&mut p, "t", col);
        let cut = Arg::Const(Value::I64(cut));
        let c = p.push(OpCode::ThetaSelect(CmpOp::Lt), vec![Arg::Var(b), cut])[0];
        let v = p.push(OpCode::Projection, vec![Arg::Var(c), Arg::Var(b)])[0];
        let s = p.push(OpCode::Aggr(AggKind::Sum), vec![Arg::Var(v)])[0];
        let n = p.push(OpCode::Count, vec![Arg::Var(v)])[0];
        p.push_result(&[s, n]);
        p
    }

    /// The serial and the mitosis/mergetable plan for the same query must
    /// infer *compatible* properties: both pass the property walk (every
    /// `bat.setprops` claim confirmed), and executing either plan under
    /// the runtime property checker reports zero violations — including
    /// the fragments `algebra.slice` makes and the `mat.pack`
    /// re-assemblies, whose transfer functions restore the parent's facts.
    /// Answers must of course still agree.
    #[test]
    fn serial_and_parallel_plans_infer_compatible_props() {
        let n = 4096;
        let cat = catalog(n);
        let facts = column_facts(&cat);
        for col in ["v", "w"] {
            for cut in [-1, 100, n / 2, n + 50] {
                let p = plan(col, cut);
                let serial = default_pipeline_with_props(facts.clone()).optimize(p.clone());
                analyze_props(&serial, &cat).expect("serial plan claims confirmed");
                let a = Interpreter::new(&cat)
                    .check_props(true)
                    .run(&serial)
                    .expect("serial: zero property violations");
                for pieces in [2usize, 3, 7] {
                    let par =
                        parallel_pipeline_with_props(pieces, column_types(&cat), facts.clone())
                            .try_optimize(p.clone())
                            .unwrap();
                    analyze_props(&par, &cat).expect("parallel plan claims confirmed");
                    let b = Interpreter::new(&cat)
                        .check_props(true)
                        .run(&par)
                        .expect("parallel: zero property violations");
                    assert_eq!(a.len(), b.len());
                    for (x, y) in a.iter().zip(&b) {
                        assert_eq!(
                            x.as_scalar().unwrap(),
                            y.as_scalar().unwrap(),
                            "col={col} cut={cut} pieces={pieces}"
                        );
                    }
                }
            }
        }
    }
}

mod pack_props {
    use super::*;
    use proptest::prelude::*;

    // The mitosis/mergetable soundness core: re-assembling the k range
    // fragments of any BAT reproduces it exactly, for any k.
    proptest! {
        #[test]
        fn prop_pack_of_slices_is_identity(
            vals in proptest::collection::vec(-1000i64..1000, 0..200),
            k in 1usize..12,
        ) {
            let b = Bat::from_vec(vals);
            let n = b.len();
            let parts: Vec<Bat> = (0..k)
                .map(|i| b.slice(i * n / k, (i + 1) * n / k).unwrap())
                .collect();
            let refs: Vec<&Bat> = parts.iter().collect();
            let packed = mammoth::algebra::pack(&refs).unwrap();
            prop_assert_eq!(packed.len(), b.len());
            prop_assert_eq!(
                packed.tail_slice::<i64>().unwrap(),
                b.tail_slice::<i64>().unwrap()
            );
            // heads re-assemble to the parent's void head
            prop_assert_eq!(packed.head(), b.head());
        }
    }
}
