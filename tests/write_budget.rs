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
use mammoth::sql::{parse_sql, QueryOutput, Session, Statement};

const EV: &str = "ev (k BIGINT NOT NULL, v BIGINT, s VARCHAR)";
const WIDE: &str = "ev (k BIGINT NOT NULL, v BIGINT, s VARCHAR, a BIGINT, b BIGINT, c BIGINT)";

/// An in-memory 512-row INSERT into `ev`, parsing excluded (11 when this
/// was written: a lowercased name per table and column, one reserve per
/// column delta, the string heap's growth, the new maximum tag).
const INSERT_BUDGET: u64 = 16;
/// What one more BIGINT column may add to the same statement, whatever
/// its row count (2: its lowercased name and its delta's reserve).
const COLUMN_BUDGET: u64 = 2;

/// `rows` rows of `ev` from key `from`, plus `extra` BIGINT cells each —
/// the benchmark generator's shape: ascending keys, distinct tags.
fn insert(from: i64, rows: i64, extra: usize) -> Statement {
    let tuples: Vec<String> = (from..from + rows)
        .map(|k| {
            let wide = format!(", {k}").repeat(extra);
            format!(
                "({k}, {}, 'e{:04}'{wide})",
                (k * 7919) % 1_000_000,
                k % 10_000
            )
        })
        .collect();
    parse_sql(&format!("INSERT INTO ev VALUES {}", tuples.join(", "))).unwrap()
}

/// Allocations of a warm `rows`-row INSERT into a fresh table `ddl`.
fn measure(ddl: &str, extra: usize, rows: i64) -> u64 {
    let mut s = Session::new();
    s.execute(&format!("CREATE TABLE {ddl}")).unwrap();
    // the first statement sizes the deltas and creates the histograms
    s.execute_stmt(insert(0, rows, extra)).unwrap();
    let stmt = insert(rows, rows, extra);
    let (n, out) = allocations(|| s.execute_stmt(stmt).unwrap());
    assert_eq!(out, QueryOutput::Affected(rows as usize));
    n
}

#[test]
fn a_bulk_insert_allocates_per_column_not_per_cell() {
    let ev = measure(EV, 0, 512);
    assert!(
        ev <= INSERT_BUDGET,
        "a 512-row INSERT into ev took {ev} allocations (budget {INSERT_BUDGET})"
    );
    for rows in [64, 512] {
        let (narrow, wide) = (measure(EV, 0, rows), measure(WIDE, 3, rows));
        assert!(
            wide <= narrow + 3 * COLUMN_BUDGET,
            "three more BIGINT columns took {wide} allocations against {narrow} at {rows} rows \
             (budget {COLUMN_BUDGET} a column)"
        );
    }
}
