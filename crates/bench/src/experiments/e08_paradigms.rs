//! E08 — Execution paradigms head to head (§3, \[6\]).
//!
//! The same Q1-like query executed by:
//! * the **tuple-at-a-time** Volcano engine (NSM pages, per-tuple `next()`,
//!   tree-walking expression interpreter) — the dinosaur;
//! * the **column-at-a-time** BAT Algebra through the MAL interpreter
//!   (full materialization, zero-freedom operators);
//! * the **vectorized** X100 engine at vector size 1024 — and at 1, which
//!   deliberately degenerates to tuple-at-a-time.

use crate::experiments::e07_vector_size;
use crate::table::TextTable;
use crate::{fmt_secs, ns_per, timed, Report, Scale};
use mammoth_mal::{parse_program, Interpreter};
use mammoth_storage::{Bat, Table};
use mammoth_types::{ColumnDef, LogicalType, TableSchema, Value};
use mammoth_volcano::expr::{ArithOp, CmpOp};
use mammoth_volcano::iter::{collect_all, AggFn};
use mammoth_volcano::{Expr, FilterOp, HashAggOp, NsmTable, ProjectOp, SeqScanOp};
use mammoth_workload::LineitemSlice;

const PARADIGMS: &str =
    "column-at-a-time and vectorized execution leave the tuple-at-a-time interpreter far behind";

pub fn run(scale: Scale) -> Report {
    let n = scale.pick(1 << 16, 1 << 21);
    let li = LineitemSlice::generate(n, 42);

    let mut out = String::new();
    out.push_str(&format!(
        "E08  One query, three execution paradigms ({n} rows):\n"
    ));
    out.push_str("     count(*), sum(qty*price) WHERE shipdate <= 10500 AND qty < 25\n\n");

    let columns = [&li.quantity, &li.extendedprice, &li.shipdate];
    let schema = TableSchema::new(
        "li",
        ["qty", "price", "shipdate"]
            .map(|c| ColumnDef::new(c, LogicalType::I64))
            .to_vec(),
    );

    // --- tuple-at-a-time (volcano) ---
    let nsm = NsmTable::from_columns(
        schema.clone(),
        &columns.map(|c| c.iter().map(|&x| Value::I64(x)).collect()),
    )
    .unwrap();
    let (volcano_rows, t_volcano) = timed(|| {
        let pred = Expr::and(
            Expr::cmp(CmpOp::Le, Expr::col(2), Expr::lit(10_500i64)),
            Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::lit(25i64)),
        );
        let plan = HashAggOp::new(
            ProjectOp::new(
                FilterOp::new(SeqScanOp::new(&nsm.file), pred),
                vec![Expr::arith(ArithOp::Mul, Expr::col(0), Expr::col(1))],
            ),
            vec![],
            vec![AggFn::CountStar, AggFn::Sum(0)],
        );
        collect_all(plan).unwrap()
    });
    let count_v = volcano_rows[0][0].as_i64().unwrap();
    let sum_v = volcano_rows[0][1].as_f64().unwrap() as i64;

    // --- column-at-a-time (BAT algebra via MAL) ---
    let bats = columns.map(|c| Bat::from_vec(c.clone())).to_vec();
    let table = Table::from_bats(schema, bats).unwrap();
    let mut db = mammoth_sql::Session::new();
    db.catalog_mut().create_table(table).unwrap();
    let mal = r#"
        qty   := sql.bind("li", "qty");
        price := sql.bind("li", "price");
        ship  := sql.bind("li", "shipdate");
        c1    := algebra.thetaselect[<=](ship, 10500);
        qty1  := algebra.projection(c1, qty);
        c2l   := algebra.thetaselect[<](qty1, 25);
        c2    := algebra.projection(c2l, c1);
        qty2  := algebra.projection(c2, qty);
        pr2   := algebra.projection(c2, price);
        prod  := batcalc.*(qty2, pr2);
        total := aggr.sum(prod);
        nrows := aggr.count(prod);
        io.result(nrows, total);
    "#;
    let run_mal = || Interpreter::new(db.catalog()).run(&parse_program(mal)?);
    let (mal_out, t_bat) = timed(|| run_mal().unwrap());
    let count_b = mal_out[0].as_scalar().unwrap().as_i64().unwrap();
    let sum_b = mal_out[1].as_scalar().unwrap().as_i64().unwrap();

    // --- vectorized (X100) ---
    let cols = e07_vector_size::columns(&li);
    let pipe = e07_vector_size::q1();
    let (_r1, t_vec1) = timed(|| pipe.run(&cols, 1).unwrap());
    let (_r2, t_vec1024) = timed(|| pipe.run(&cols, 1024).unwrap());

    assert_eq!(count_v, count_b);
    assert_eq!(sum_v, sum_b);

    let mut t = TextTable::new(vec!["engine", "time", "ns/tuple", "vs volcano"]);
    t.row(vec![
        "volcano tuple-at-a-time (NSM, interpreter)".to_string(),
        fmt_secs(t_volcano),
        format!("{:.1}", ns_per(t_volcano, n)),
        "-".to_string(),
    ]);
    for (name, secs) in [
        ("vectorized, vector size 1 (degenerate)", t_vec1),
        ("BAT algebra column-at-a-time (MAL)", t_bat),
        ("vectorized, vector size 1024 (X100)", t_vec1024),
    ] {
        t.row(vec![
            name.to_string(),
            fmt_secs(secs),
            format!("{:.1}", ns_per(secs, n)),
            format!("{:.1}x", t_volcano / secs),
        ]);
    }
    out.push_str(&t.render());
    Report::new(out).wall_clock("§3 [6]", PARADIGMS)
}
