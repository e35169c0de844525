//! One plan per statement: the plan a `Session` gives a SELECT is a function
//! of the statement, the catalog and the piece count, and it is the plan
//! anyone gets who calls the `mammoth_mal` pipeline constructors directly —
//! which is what `tests/compile_budget.rs` and the benchmark's staged replay
//! do. No session option, table size or attached component may come between
//! the two: the small table below is one a cardinality gate would plan
//! differently (a serial session once dropped `sorted_select` under 256
//! rows), the large one fragments under mitosis.

use mammoth::mal::{
    bound_column_facts, bound_column_types, default_pipeline_with_props,
    parallel_pipeline_with_props,
};
use mammoth::parallel::ParallelExecutor;
use mammoth::sql::{compile_select, parse_sql, QueryOutput, Session, Statement};
use mammoth::storage::{Bat, Table};
use mammoth::types::{ColumnDef, LogicalType, TableSchema};
use mammoth_planner::choose_pieces;

const STATEMENTS: [&str; 6] = [
    "SELECT COUNT(*) FROM t WHERE a < 50",
    "SELECT b FROM t WHERE a >= 10 AND a < 60",
    "SELECT a, b FROM t WHERE a < 50 ORDER BY b",
    "SELECT b, COUNT(*) FROM t WHERE a > 5 GROUP BY b",
    "SELECT SUM(b) FROM t WHERE b < 100 AND a < 150",
    "SELECT a, b FROM t WHERE a >= 20 ORDER BY a LIMIT 10",
];

/// `t(a, b)` of `rows` rows: `a` sorted and nil-free — the column the
/// sorted-select rewrite fires on — and `b` scrambled.
fn table(rows: i64) -> Table {
    let schema = TableSchema::new(
        "t",
        vec![
            ColumnDef::new("a", LogicalType::I64),
            ColumnDef::new("b", LogicalType::I64),
        ],
    );
    let a = Bat::from_vec((0..rows).collect::<Vec<_>>());
    let b = Bat::from_vec((0..rows).map(|i| (i * 131) % 197).collect::<Vec<_>>());
    Table::from_bats(schema, vec![a, b]).unwrap()
}

fn explain(session: &mut Session, sql: &str) -> String {
    match session.execute(&format!("EXPLAIN {sql}")).unwrap() {
        QueryOutput::Table { rows, .. } => rows.iter().map(|r| format!("{}\n", r[0])).collect(),
        other => panic!("EXPLAIN {sql}: {other:?}"),
    }
}

#[test]
fn a_session_plans_with_exactly_the_public_pipelines() {
    const MAX_PIECES: usize = 4;
    for rows in [200, 40_000] {
        let mut serial = Session::new();
        serial.catalog_mut().create_table(table(rows)).unwrap();
        let mut dataflow =
            Session::new().with_executor(Box::new(ParallelExecutor::new(2)), MAX_PIECES);
        dataflow.catalog_mut().create_table(table(rows)).unwrap();

        for sql in STATEMENTS {
            let Statement::Select(sel) = parse_sql(sql).unwrap() else {
                panic!("not a SELECT: {sql}")
            };
            let cat = serial.catalog();
            let (compiled, _) = compile_select(cat, &sel).unwrap();
            let facts = bound_column_facts(&compiled, cat);

            let want = default_pipeline_with_props(facts.clone()).optimize(compiled.clone());
            assert_eq!(
                explain(&mut serial, sql),
                want.to_string(),
                "{rows} rows: {sql}"
            );

            let pieces = choose_pieces(rows as u64, MAX_PIECES);
            let types = bound_column_types(&compiled, dataflow.catalog());
            let want = parallel_pipeline_with_props(pieces, types, facts).optimize(compiled);
            assert_eq!(
                explain(&mut dataflow, sql),
                want.to_string(),
                "{rows} rows, {pieces} pieces: {sql}"
            );
        }
    }
}
