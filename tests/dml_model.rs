//! A durable session against a plain-Rust model of its table.
//!
//! A seeded script interleaves INSERTs, DELETEs (whose WHERE runs through
//! the select kernels, in place over bases and insert deltas), reads,
//! CHECKPOINTs and — through a small merge threshold — logged threshold
//! merges. Every so often the process "crashes" (the session is dropped
//! with its WAL as the last statement left it) and recovers from disk.
//! At each crash, [`Catalog::logical_dump`] of the online state, of the
//! recovered state and the model's rows must all be the same; every
//! statement's row count and every read must match the model as well.
//!
//! Runs under `MAMMOTH_CHECK_PROPS=1` in CI: the reads bind columns with
//! deletes pending, which is where a fact about the *stored* column (its
//! total length) once passed for a fact about the *bound* one.

use mammoth_sql::{QueryOutput, Session};
use mammoth_types::Value;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::path::PathBuf;

/// A draw from `0..n`.
fn below(r: &mut StdRng, n: u64) -> u64 {
    r.random_range(0..n)
}

/// One row of `t (a BIGINT NOT NULL, b INT, s VARCHAR)`.
type Row = (i64, Option<i64>, Option<String>);

fn as_values(r: &Row) -> Vec<Value> {
    vec![
        Value::I64(r.0),
        r.1.map_or(Value::Null, |b| Value::I32(b as i32)),
        r.2.clone().map_or(Value::Null, Value::Str),
    ]
}

fn sql_literal(v: &Value) -> String {
    match v {
        Value::Null => "NULL".into(),
        Value::Str(s) => format!("'{s}'"),
        other => other.to_string(),
    }
}

/// A DELETE's WHERE and the model's reading of it.
struct Where {
    sql: String,
    keep: Box<dyn Fn(&Row) -> bool>,
}

fn random_where(r: &mut StdRng, next_key: i64) -> Where {
    let lo = below(r, next_key.max(1) as u64) as i64;
    let hi = lo + 1 + below(r, 12) as i64;
    let b = below(r, 9) as i64 - 4;
    let tag = format!("s{}", below(r, 5));
    match below(r, 6) {
        // a range on the key: two bounds on one column, fused
        0 | 1 => Where {
            sql: format!("a >= {lo} AND a < {hi}"),
            keep: Box::new(move |row| !(row.0 >= lo && row.0 < hi)),
        },
        2 => Where {
            sql: format!("b = {b}"),
            keep: Box::new(move |row| row.1 != Some(b)),
        },
        3 => Where {
            sql: format!("s = '{tag}' AND a < {hi}"),
            keep: Box::new(move |row| !(row.2.as_deref() == Some(&tag) && row.0 < hi)),
        },
        4 => Where {
            sql: format!("b < {b} AND a > {lo} AND b <> -4"),
            keep: Box::new(move |row| !(row.1.is_some_and(|x| x < b && x != -4) && row.0 > lo)),
        },
        // a literal no INT holds: every non-NULL b qualifies
        _ => Where {
            sql: format!("b < 5000000000 AND a >= {lo} AND a <= {hi}"),
            keep: Box::new(move |row| !(row.1.is_some() && row.0 >= lo && row.0 <= hi)),
        },
    }
}

fn dump_of(model: &[Row]) -> Vec<Vec<Value>> {
    model.iter().map(as_values).collect()
}

fn table_rows(s: &Session) -> Vec<Vec<Value>> {
    let dump = s.catalog().logical_dump();
    assert_eq!(dump.len(), 1);
    dump.into_iter().next().unwrap().2
}

fn run(seed: u64, root: PathBuf) {
    let _ = std::fs::remove_dir_all(&root);
    let open = |root: &PathBuf| {
        let mut s = Session::open_durable(root.clone()).unwrap();
        s.set_merge_threshold(24);
        s
    };
    let mut s = open(&root);
    s.execute("CREATE TABLE t (a BIGINT NOT NULL, b INT, s VARCHAR)")
        .unwrap();
    let mut r = StdRng::seed_from_u64(seed);
    let mut model: Vec<Row> = Vec::new();
    let mut next_key = 0i64;
    let (mut merges_seen, mut crashes) = (0, 0);
    for step in 0..400 {
        match below(&mut r, 20) {
            0..=9 => {
                let rows: Vec<Row> = (0..1 + below(&mut r, 6))
                    .map(|_| {
                        next_key += 1;
                        let b = (below(&mut r, 5) != 0).then(|| below(&mut r, 9) as i64 - 4);
                        let tag = (below(&mut r, 4) != 0).then(|| format!("s{}", below(&mut r, 5)));
                        (next_key - 1, b, tag)
                    })
                    .collect();
                let tuples: Vec<String> = rows
                    .iter()
                    .map(|row| {
                        let cells: Vec<String> = as_values(row).iter().map(sql_literal).collect();
                        format!("({})", cells.join(", "))
                    })
                    .collect();
                let out = s
                    .execute(&format!("INSERT INTO t VALUES {}", tuples.join(", ")))
                    .unwrap();
                assert_eq!(out, QueryOutput::Affected(rows.len()));
                model.extend(rows);
            }
            10..=14 => {
                let w = random_where(&mut r, next_key);
                let before = model.len();
                model.retain(|row| (w.keep)(row));
                let out = s
                    .execute(&format!("DELETE FROM t WHERE {}", w.sql))
                    .unwrap();
                assert_eq!(
                    out,
                    QueryOutput::Affected(before - model.len()),
                    "seed {seed} step {step}: DELETE FROM t WHERE {}",
                    w.sql
                );
            }
            15 | 16 => {
                // a read through whatever deltas are pending
                let lo = below(&mut r, next_key.max(1) as u64) as i64;
                let live: Vec<&Row> = model.iter().filter(|row| row.0 >= lo).collect();
                let sum: i64 = live.iter().filter_map(|row| row.1).sum();
                let nonnull = live.iter().filter(|row| row.1.is_some()).count();
                let out = s
                    .execute(&format!("SELECT COUNT(*), SUM(b) FROM t WHERE a >= {lo}"))
                    .unwrap();
                let QueryOutput::Table { rows, .. } = out else {
                    panic!("SELECT returned {out:?}")
                };
                assert_eq!(rows[0][0].as_i64(), Some(live.len() as i64), "seed {seed}");
                if nonnull > 0 {
                    assert_eq!(rows[0][1].as_i64(), Some(sum), "seed {seed} step {step}");
                }
            }
            17 => {
                s.execute("CHECKPOINT").unwrap();
                let t = s.catalog().table("t").unwrap();
                assert_eq!(t.total_len(), t.live_len(), "a checkpoint folds the deltas");
            }
            _ => {
                // crash: what the WAL and the last checkpoint hold is all
                // that survives; it must be everything acknowledged
                let online = table_rows(&s);
                assert_eq!(online, dump_of(&model), "seed {seed} step {step}: online");
                drop(s);
                s = open(&root);
                assert_eq!(table_rows(&s), online, "seed {seed} step {step}: recovered");
                crashes += 1;
            }
        }
        let t = s.catalog().table("t").unwrap();
        assert_eq!(t.live_len(), model.len(), "seed {seed} step {step}");
        // a threshold merge leaves the deltas empty after a DML statement
        merges_seen += (t.total_len() == t.live_len() && t.column(0).pending_inserts() == 0) as u32;
    }
    assert_eq!(table_rows(&s), dump_of(&model));
    assert!(
        crashes > 5 && merges_seen > 10,
        "{crashes} crashes, {merges_seen} folds"
    );
    drop(s);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn interleaved_dml_checkpoints_merges_and_crashes_match_the_model() {
    for seed in 1..=6 {
        let root =
            std::env::temp_dir().join(format!("mammoth-dml-model-{seed}-{}", std::process::id()));
        run(seed, root);
    }
}
