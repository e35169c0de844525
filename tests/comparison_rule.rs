//! One rule for `column op literal`, whatever the literal's type: on every
//! column type, for every class of literal and every operator, the rows a
//! SELECT counts are the rows a DELETE removes, on an in-memory session and
//! on a durable one (whose first rows sit in the checkpointed base, the
//! rest in the insert delta). Where SQL orders the pair, both equal the
//! naive `support::gen::holds`; where it does not, both fail with the one
//! `TypeMismatch` that `selects_with` names.

use mammoth::algebra::selects_with;
use mammoth::sql::{parse_sql, QueryOutput, Session, Statement};
use mammoth::types::{TableSchema, Value};
use std::path::PathBuf;

mod support;
use support::gen::{holds, stored};
use support::{mem_disk, STORE};

/// A column type, the cells its table holds, and literals of each class:
/// in range, a fraction, beyond the type, the type's nil sentinel, NULL,
/// another type.
struct Column {
    ty: &'static str,
    cells: &'static [&'static str],
    literals: &'static [&'static str],
}

#[rustfmt::skip]
const COLUMNS: [Column; 7] = [
    Column {
        ty: "TINYINT",
        cells: &["-127", "-5", "0", "3", "127", "NULL"],
        literals: &["3", "-5", "2.5", "-0.5", "200", "-200", "5000000000", "-128", "NULL", "'3'", "TRUE"],
    },
    Column {
        ty: "INT",
        cells: &["-2147483647", "-5", "0", "3", "2147483647", "NULL"],
        literals: &["3", "2.5", "-0.5", "5000000000", "-5000000000", "-2147483648", "NULL", "'3'", "TRUE"],
    },
    Column {
        ty: "BIGINT",
        cells: &["-9223372036854775807", "-5", "0", "3", "9223372036854775807", "NULL"],
        literals: &["3", "2.5", "1e19", "-1e19", "-9223372036854775808", "NULL", "'3'", "TRUE"],
    },
    Column {
        ty: "DOUBLE",
        cells: &["-1e300", "-5.5", "0", "3", "1e300", "NULL"],
        literals: &["3", "-5.5", "2.5", "9007199254740993", "1e308", "NULL", "'3'", "TRUE"],
    },
    Column {
        ty: "OID",
        cells: &["0", "3", "5", "4611686018427387904", "NULL"],
        literals: &["3", "2.5", "-0.5", "-1", "1e20", "NULL", "'3'", "TRUE"],
    },
    Column {
        ty: "VARCHAR",
        cells: &["'a'", "'b'", "''", "'z'", "NULL"],
        literals: &["'b'", "''", "NULL", "3", "2.5", "TRUE"],
    },
    Column {
        ty: "BOOLEAN",
        cells: &["TRUE", "FALSE", "TRUE"],
        literals: &["TRUE", "FALSE", "NULL", "1", "2.5", "'x'"],
    },
];

const OPS: [&str; 6] = ["=", "<>", "<", "<=", ">", ">="];

/// A table `t (c <ty>)` holding `cells`: the first half checkpointed into
/// the base when `durable`, the rest in the insert delta.
fn session(col: &Column, durable: bool) -> Session {
    let mut s = match durable {
        true => Session::open_durable_with(mem_disk(), PathBuf::from(STORE)).unwrap(),
        false => Session::new(),
    };
    s.execute(&format!("CREATE TABLE t (c {})", col.ty))
        .unwrap();
    let (first, rest) = col.cells.split_at(col.cells.len() / 2);
    for (part, checkpoint) in [(first, durable), (rest, false)] {
        let rows: Vec<String> = part.iter().map(|c| format!("({c})")).collect();
        s.execute(&format!("INSERT INTO t VALUES {}", rows.join(", ")))
            .unwrap();
        if checkpoint {
            s.execute("CHECKPOINT").unwrap();
        }
    }
    s
}

/// The table's rows as it stores them, for [`holds`].
fn model(col: &Column) -> (TableSchema, Vec<Vec<Value>>) {
    let Ok(Statement::CreateTable(schema)) = parse_sql(&format!("CREATE TABLE t (c {})", col.ty))
    else {
        panic!("a CREATE TABLE")
    };
    let values: Vec<String> = col.cells.iter().map(|c| format!("({c})")).collect();
    let insert = format!("INSERT INTO t VALUES {}", values.join(", "));
    let Ok(Statement::Insert { rows, .. }) = parse_sql(&insert) else {
        panic!("an INSERT")
    };
    let rows = rows
        .iter()
        .map(|r| stored(&schema, r).expect("a stored row"));
    let rows = rows.collect();
    (schema, rows)
}

#[test]
fn select_counts_what_delete_removes_for_every_type_literal_and_operator() {
    let mut refused = 0;
    for col in &COLUMNS {
        let (schema, rows) = model(col);
        let ty = schema.columns[0].ty;
        for lit in col.literals {
            for op in OPS {
                let delete = format!("DELETE FROM t WHERE c {op} {lit}");
                let Ok(Statement::Delete { where_, .. }) = parse_sql(&delete) else {
                    panic!("{delete}: not a DELETE")
                };
                let literal = where_[0].value.as_lit().unwrap();
                let select = format!("SELECT COUNT(*) FROM t WHERE c {op} {lit}");
                for durable in [false, true] {
                    let ctx = format!("{} {delete} (durable: {durable})", col.ty);
                    let mut s = session(col, durable);
                    let counted = s.execute(&select).map(|out| match out {
                        QueryOutput::Table { rows, .. } => rows[0][0].as_i64().unwrap() as usize,
                        other => panic!("{ctx}: {other:?}"),
                    });
                    let removed = s.execute(&delete).map(|out| match out {
                        QueryOutput::Affected(n) => n,
                        other => panic!("{ctx}: {other:?}"),
                    });
                    match selects_with(ty, literal) {
                        Ok(()) => {
                            let want = rows.iter().filter(|r| holds(&where_, &schema, r));
                            let want = want.count();
                            assert_eq!(counted, Ok(want), "{ctx}: SELECT");
                            assert_eq!(removed, Ok(want), "{ctx}: DELETE");
                        }
                        Err(e) => {
                            refused += 1;
                            assert_eq!(counted, Err(e.clone()), "{ctx}: SELECT");
                            assert_eq!(removed, Err(e), "{ctx}: DELETE");
                        }
                    }
                }
            }
        }
    }
    assert!(refused > 100, "{refused} refused statements");
}
