//! The write path's budget, counted rather than timed.
//!
//! A bulk INSERT is the repo benchmark's `ingest_durable` preload: 512
//! rows into `ev (k BIGINT NOT NULL, v BIGINT, s VARCHAR)`. What it costs
//! beyond parsing should be paid per column — bind the literals by move,
//! validate each row once, append each column in one loop, fold each
//! column's statistics once — and an in-memory session logs nothing, so
//! it builds no redo records. Heap allocations pin that shape: a cost per
//! *cell* shows up as hundreds of them.
//!
//! One test function on purpose: the counter is per thread, and nothing
//! else may allocate on it between the two readings.

#[path = "support/alloc.rs"]
mod alloc;

use alloc::allocations;
use mammoth::sql::{parse_sql, QueryOutput, Session};

const EV: &str = "ev (k BIGINT NOT NULL, v BIGINT, s VARCHAR)";
const WIDE: &str = "ev (k BIGINT NOT NULL, v BIGINT, s VARCHAR, a BIGINT, b BIGINT, c BIGINT)";
/// A BOOLEAN column's cells are hashed into its statistics like any other
/// column's, from their bytes.
const FL: &str = "fl (k BIGINT NOT NULL, f BOOLEAN)";

/// An in-memory 512-row INSERT into `ev` or `fl`, parsing excluded (7 and
/// 3 when this was written: one reserve per column delta, the string
/// heap's growth, the new maximum tag).
const INSERT_BUDGET: u64 = 16;
/// What one more BIGINT column may add to the same statement, whatever
/// its row count (1 when this was written: its delta's reserve).
const COLUMN_BUDGET: u64 = 2;

/// Row `k` of `ev` plus `extra` BIGINT cells — the benchmark generator's
/// shape: ascending keys, distinct tags.
fn ev(extra: usize) -> impl Fn(i64) -> String {
    move |k| {
        let wide = format!(", {k}").repeat(extra);
        format!(
            "({k}, {}, 'e{:04}'{wide})",
            (k * 7919) % 1_000_000,
            k % 10_000
        )
    }
}

/// Allocations of a warm `rows`-row INSERT into a fresh table `ddl`, its
/// row `k` spelled by `row`.
fn measure(ddl: &str, rows: i64, row: impl Fn(i64) -> String) -> u64 {
    let table = ddl.split(' ').next().unwrap();
    let insert = |from: i64| {
        let tuples: Vec<String> = (from..from + rows).map(&row).collect();
        parse_sql(&format!("INSERT INTO {table} VALUES {}", tuples.join(", "))).unwrap()
    };
    let mut s = Session::new();
    s.execute(&format!("CREATE TABLE {ddl}")).unwrap();
    // the first statement sizes the deltas and creates the histograms
    s.execute_stmt(insert(0)).unwrap();
    let stmt = insert(rows);
    let (n, out) = allocations(|| s.execute_stmt(stmt).unwrap());
    assert_eq!(out, QueryOutput::Affected(rows as usize));
    n
}

#[test]
fn a_bulk_insert_allocates_per_column_not_per_cell() {
    let ev_512 = measure(EV, 512, ev(0));
    let fl_512 = measure(FL, 512, |k| format!("({k}, {})", k % 3 == 0));
    for (table, n) in [("ev", ev_512), ("fl", fl_512)] {
        assert!(
            n <= INSERT_BUDGET,
            "a 512-row INSERT into {table} took {n} allocations (budget {INSERT_BUDGET})"
        );
    }
    for rows in [64, 512] {
        let (narrow, wide) = (measure(EV, rows, ev(0)), measure(WIDE, rows, ev(3)));
        assert!(
            wide <= narrow + 3 * COLUMN_BUDGET,
            "three more BIGINT columns took {wide} allocations against {narrow} at {rows} rows \
             (budget {COLUMN_BUDGET} a column)"
        );
    }
}
