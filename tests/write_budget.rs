//! The write path's budget, counted rather than timed.
//!
//! A bulk INSERT is the repo benchmark's `ingest_durable` preload: 512
//! rows into `ev (k BIGINT NOT NULL, v BIGINT, s VARCHAR)`. Parsing it
//! should cost one allocation per string cell and a few for the one
//! row-major cell array — the lexer's tokens borrow the text, and no row
//! is a `Vec` of its own. Executing it should be paid per column — bind
//! the literals by move, validate each row once, append each column in one
//! loop, fold each column's statistics once — and an in-memory session
//! logs nothing, so it builds no redo records. Heap allocations pin that
//! shape: a cost per *cell* shows up as hundreds of them.
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
/// Parsing the 512-row INSERT into `ev`: one `String` for each of its 512
/// string cells, the table name, the cell array's growth — 523 when this
/// was written (2 062 when a peeked token was lexed again and every row
/// was a `Vec` of its own).
const PARSE_BUDGET: u64 = 523;
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

/// The text of a `rows`-row INSERT into the table of `ddl`, from key
/// `from`, its row `k` spelled by `row`.
fn insert_sql(ddl: &str, from: i64, rows: i64, row: impl Fn(i64) -> String) -> String {
    let table = ddl.split(' ').next().unwrap();
    let tuples: Vec<String> = (from..from + rows).map(row).collect();
    format!("INSERT INTO {table} VALUES {}", tuples.join(", "))
}

/// Allocations of a warm `rows`-row INSERT into a fresh table `ddl`, its
/// row `k` spelled by `row`, and of parsing it.
fn measure(ddl: &str, rows: i64, row: impl Fn(i64) -> String) -> (u64, u64) {
    let mut s = Session::new();
    s.execute(&format!("CREATE TABLE {ddl}")).unwrap();
    // the first statement sizes the deltas and the statistics' ndv sketches
    s.execute(&insert_sql(ddl, 0, rows, &row)).unwrap();
    let text = insert_sql(ddl, rows, rows, &row);
    let (parse, stmt) = allocations(|| parse_sql(&text).unwrap());
    let (n, out) = allocations(|| s.execute_stmt(stmt).unwrap());
    assert_eq!(out, QueryOutput::Affected(rows as usize));
    (n, parse)
}

#[test]
fn a_bulk_insert_allocates_per_column_not_per_cell() {
    let (ev_512, ev_parse) = measure(EV, 512, ev(0));
    assert!(
        ev_parse <= PARSE_BUDGET,
        "parsing a 512-row INSERT into ev took {ev_parse} allocations (budget {PARSE_BUDGET})"
    );
    let (fl_512, _) = measure(FL, 512, |k| format!("({k}, {})", k % 3 == 0));
    for (table, n) in [("ev", ev_512), ("fl", fl_512)] {
        assert!(
            n <= INSERT_BUDGET,
            "a 512-row INSERT into {table} took {n} allocations (budget {INSERT_BUDGET})"
        );
    }
    for rows in [64, 512] {
        let (narrow, wide) = (measure(EV, rows, ev(0)).0, measure(WIDE, rows, ev(3)).0);
        assert!(
            wide <= narrow + 3 * COLUMN_BUDGET,
            "three more BIGINT columns took {wide} allocations against {narrow} at {rows} rows \
             (budget {COLUMN_BUDGET} a column)"
        );
    }
}
