//! A durable session against a plain-Rust model of its table
//! (`support::gen::Model`, whose WHERE is the naive `holds`).
//!
//! A seeded script interleaves the statement generator's INSERTs, DELETEs
//! (whose WHERE runs through the select kernels, in place over bases and
//! insert deltas) and counting reads with CHECKPOINTs and — through a small
//! merge threshold — logged threshold merges. Every so often the process "crashes" (the session is dropped
//! with its WAL as the last statement left it) and recovers from disk.
//! At each crash, [`Catalog::logical_dump`] of the online state, of the
//! recovered state and the model's rows must all be the same; every
//! statement's row count and every read must match the model as well.
//! Around every CHECKPOINT, the statistics DML kept up incrementally must
//! agree with the ones it rebuilds (see [`check_statistics`]). Some INSERTs
//! carry a column's nil sentinel: a nullable column stores it as NULL, and
//! the NOT NULL key refuses the statement, leaving the table as it was.
//!
//! Runs under `MAMMOTH_CHECK_PROPS=1` in CI: the reads bind columns with
//! deletes pending, which is where a fact about the *stored* column (its
//! total length) once passed for a fact about the *bound* one.

use mammoth_planner::StatsCatalog;
use mammoth_sql::{QueryOutput, Session};
use mammoth_types::Value;
use std::cmp::Ordering;

mod support;
use support::gen::{Gen, Model};
use support::Scratch;

fn table_rows(s: &Session) -> Vec<Vec<Value>> {
    let dump = s.catalog().logical_dump();
    assert_eq!(dump.len(), 1);
    dump.into_iter().next().unwrap().2
}

/// The statistics DML kept up incrementally against the ones CHECKPOINT
/// rebuilds from the live columns: the same row and null counts per
/// column, and bounds that contain the rebuilt ones (a DELETE never
/// narrows them).
fn check_statistics(incremental: &StatsCatalog, rebuilt: &StatsCatalog, ctx: &str) {
    for col in incremental.table("t").unwrap().columns.keys() {
        let (inc, built) = (
            incremental.column("t", col).unwrap(),
            rebuilt.column("t", col).unwrap(),
        );
        assert_eq!(
            (inc.rows, inc.nulls),
            (built.rows, built.nulls),
            "{ctx}: rows and nulls of {col}"
        );
        // `inc` is at or beyond `built` on the `side` it bounds
        let contains =
            |inc: &Option<Value>, built: &Option<Value>, side: Ordering| match (inc, built) {
                (_, None) => true,
                (Some(i), Some(b)) => matches!(i.sql_cmp(b), Some(o) if o != side.reverse()),
                (None, Some(_)) => false,
            };
        assert!(
            contains(&inc.min, &built.min, Ordering::Less)
                && contains(&inc.max, &built.max, Ordering::Greater),
            "{ctx}: [{:?}, {:?}] of {col} does not contain the rebuilt [{:?}, {:?}]",
            inc.min,
            inc.max,
            built.min,
            built.max
        );
    }
}

fn run(seed: u64) {
    let root = Scratch::new(&format!("dml-model-{seed}"));
    let open = || {
        let mut s = Session::open_durable(root.to_path_buf()).unwrap();
        s.set_merge_threshold(24);
        s
    };
    let mut s = open();
    let mut g = Gen::new(seed);
    let create = g.create(0);
    s.execute(&g.render(&create)).unwrap();
    let mut model = Model::new(&g.tables[0]);
    let (mut merges_seen, mut crashes) = (0, 0);
    for step in 0..400 {
        let ctx = |stmt: &dyn std::fmt::Display| format!("seed {seed} step {step}: {stmt}");
        match g.below(20) {
            // INSERTs — now and then with a nil sentinel: NULL in a nullable
            // column, the whole statement refused in a NOT NULL one — and
            // DELETEs, whose WHERE runs through the select kernels
            kind @ 0..=14 => {
                let stmt = if kind < 10 { g.insert(0) } else { g.delete(0) };
                let want = model.apply(&stmt).map(QueryOutput::Affected);
                assert_eq!(s.execute(&g.render(&stmt)).ok(), want, "{}", ctx(&stmt));
            }
            15 | 16 => {
                // a read through whatever deltas are pending
                let read = g.tally(0);
                let QueryOutput::Table { rows, .. } = s.execute(&g.render(&read)).unwrap() else {
                    panic!("{}: not a table", ctx(&read))
                };
                let got: Vec<Option<i64>> = rows[0].iter().map(Value::as_i64).collect();
                assert_eq!(got, model.tally(&read), "{}", ctx(&read));
            }
            17 => {
                let incremental = s.stats_catalog();
                s.execute("CHECKPOINT").unwrap();
                let t = s.catalog().table("t").unwrap();
                assert_eq!(t.total_len(), t.live_len(), "a checkpoint folds the deltas");
                check_statistics(&incremental, &s.stats_catalog(), &ctx(&"CHECKPOINT"));
            }
            _ => {
                // crash: what the WAL and the last checkpoint hold is all
                // that survives; it must be everything acknowledged
                let online = table_rows(&s);
                assert_eq!(online, model.rows, "{}", ctx(&"online"));
                drop(s);
                s = open();
                assert_eq!(table_rows(&s), online, "{}", ctx(&"recovered"));
                crashes += 1;
            }
        }
        let t = s.catalog().table("t").unwrap();
        assert_eq!(t.live_len(), model.rows.len(), "seed {seed} step {step}");
        // a threshold merge leaves the deltas empty after a DML statement
        merges_seen += (t.total_len() == t.live_len() && t.column(0).pending_inserts() == 0) as u32;
    }
    assert_eq!(table_rows(&s), model.rows);
    assert!(
        crashes > 5 && merges_seen > 10,
        "{crashes} crashes, {merges_seen} folds"
    );
}

#[test]
fn interleaved_dml_checkpoints_merges_and_crashes_match_the_model() {
    for seed in 1..=6 {
        run(seed);
    }
}
