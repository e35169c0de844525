//! DELETE's victims, kernel path against its retained predecessor.
//!
//! [`Session::matching_positions`] used to walk every position of the
//! table through a liveness lookup, a boxed `Value` per cell and SQL's
//! dynamic comparison. It now threads a candidate list through the
//! `mammoth_algebra` select kernels, in place over each column's base and
//! insert delta. The old loop lives on here, as the oracle the new path is
//! checked against (the pattern of `crates/algebra/src/oracle.rs`).
//!
//! Two documented differences, both where the kernels do what SELECT
//! always has. A literal SQL does not order against the column (a string
//! against a number, a BOOLEAN against either) fails the statement with
//! the `TypeMismatch` SELECT raises, where the old loop matched no row.
//! And a literal equal to an integer type's minimum *is* that type's nil
//! sentinel (the engine cannot store it either), so the kernels take
//! `x > -128` on a TINYINT for a comparison with NULL. No literal below is
//! a sentinel.

use super::*;
use crate::ast::{ColumnRef, Predicate, Scalar};
use mammoth_algebra::{selects_with, CmpOp};
use mammoth_types::Oid;
use std::cmp::Ordering;

impl Session {
    /// The predecessor of [`Session::matching_positions`].
    fn matching_positions_oracle(&self, table: &str, preds: &[Predicate]) -> Vec<Oid> {
        let t = self.catalog.table(table).unwrap();
        let resolved: Vec<_> = preds
            .iter()
            .map(|p| {
                let lit = p.value.as_lit().expect("oracle takes bound predicates");
                (t.column_by_name(&p.col.column).unwrap(), p, lit)
            })
            .collect();
        let mut out = Vec::new();
        'rows: for pos in 0..t.total_len() as Oid {
            if !t.column(0).is_live(pos) {
                continue;
            }
            for (col, p, lit) in &resolved {
                let v = col.get(pos).unwrap_or(Value::Null);
                let keep = match v.sql_cmp(lit) {
                    None => false,
                    Some(ord) => match p.op {
                        CmpOp::Eq => ord == Ordering::Equal,
                        CmpOp::Ne => ord != Ordering::Equal,
                        CmpOp::Lt => ord == Ordering::Less,
                        CmpOp::Le => ord != Ordering::Greater,
                        CmpOp::Gt => ord == Ordering::Greater,
                        CmpOp::Ge => ord != Ordering::Less,
                    },
                };
                if !keep {
                    continue 'rows;
                }
            }
            out.push(pos);
        }
        out
    }
}

const OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

fn pred(column: &str, op: CmpOp, lit: &Value) -> Predicate {
    Predicate {
        col: ColumnRef::new(None, column),
        op,
        value: Scalar::Lit(lit.clone()),
    }
}

/// `a` ascends and is NOT NULL (a sorted, nil-free base: the kernels
/// binary-search it); `b`, `c`, `f`, `s` are unordered with NULL cells;
/// `ok` is a BOOLEAN. Rows 0..40 are folded into the bases, 40..60 live
/// only in the insert deltas, and a range straddling the two is already
/// deleted, as is a run inside the base.
fn table() -> Session {
    let mut s = Session::new();
    s.execute(
        "CREATE TABLE t (a INT NOT NULL, b BIGINT, c SMALLINT, f DOUBLE, s VARCHAR, \
         ok BOOLEAN NOT NULL)",
    )
    .unwrap();
    let rows = |lo: i64, hi: i64| -> String {
        (lo..hi)
            .map(|i| {
                let b = match i % 6 {
                    0 => "NULL".to_string(),
                    _ => ((i * 7919) % 23 - 11).to_string(),
                };
                let c = match i % 5 {
                    1 => "NULL".to_string(),
                    _ => ((i * 31) % 17 * 1000 - 8000).to_string(),
                };
                let f = match i % 7 {
                    2 => "NULL".to_string(),
                    _ => format!("{}.5", (i * 13) % 19 - 9),
                };
                let st = match i % 4 {
                    3 => "NULL".to_string(),
                    _ => format!("'s{}'", (i * 5) % 9),
                };
                let ok = if i % 3 == 0 { "TRUE" } else { "FALSE" };
                format!("({}, {b}, {c}, {f}, {st}, {ok})", i * 2 - 20)
            })
            .collect::<Vec<_>>()
            .join(", ")
    };
    s.execute(&format!("INSERT INTO t VALUES {}", rows(0, 40)))
        .unwrap();
    s.catalog_mut().table_mut("t").unwrap().merge_all();
    s.execute(&format!("INSERT INTO t VALUES {}", rows(40, 60)))
        .unwrap();
    let t = s.catalog_mut().table_mut("t").unwrap();
    for pos in (10..14).chain(36..45) {
        assert!(t.delete_row(pos));
    }
    assert_eq!((t.total_len(), t.live_len()), (60, 47));
    assert!(t.column(0).base().props().sorted);
    s
}

/// Literals per column: in and out of the data's range, NULL, a narrower
/// and a wider integer type than the column's (the parser types an
/// integer literal `INT` when it fits and `BIGINT` when not; `EXECUTE`
/// ships whatever the client bound), values no cell of the column's type
/// can hold, fractions against integer columns, and types SQL does not
/// compare with the column's.
fn literals(column: &str) -> Vec<Value> {
    let mut lits = vec![Value::Null];
    let ints = |xs: &[i64]| -> Vec<Value> {
        xs.iter()
            .flat_map(|&x| {
                let narrow = i8::try_from(x).ok().map(Value::I8);
                let mid = i32::try_from(x).ok().map(Value::I32);
                narrow.into_iter().chain(mid).chain([Value::I64(x)])
            })
            .collect()
    };
    match column {
        "a" => {
            lits.extend(ints(&[-20, -21, 0, 1, 37, 98, 99, 1000, -1000]));
            lits.extend(ints(&[5_000_000_000, -5_000_000_000, i64::MAX]));
            lits.extend([-0.5, 0.0, 2.0, 2.5, 97.9, 1e12, -1e12].map(Value::F64));
            lits.push(Value::Str("7".into()));
            lits.push(Value::Bool(true));
        }
        "b" => {
            lits.extend(ints(&[-11, -12, 0, 3, 11, 12]));
            lits.extend([-11.0, -0.25, 10.75, 1e19, -1e19].map(Value::F64));
        }
        "c" => {
            lits.extend(ints(&[-8000, 0, 8000, 40_000, -40_000, 32_767]));
            lits.extend([7999.5, 1e6].map(Value::F64));
        }
        "f" => {
            lits.extend(ints(&[-10, -9, 0, 9, 10]));
            lits.extend([-9.5, -9.25, 0.5, 9.5].map(Value::F64));
            lits.push(Value::Str("0.5".into()));
        }
        "s" => {
            lits.extend(["", "s0", "s4", "s45", "s8", "t"].map(|x| Value::Str(x.into())));
            lits.push(Value::I32(4));
        }
        "ok" => {
            lits.extend([Value::Bool(true), Value::Bool(false), Value::I32(1)]);
        }
        _ => unreachable!(),
    }
    lits
}

const COLUMNS: [&str; 6] = ["a", "b", "c", "f", "s", "ok"];

/// The kernel path against the oracle, or, where a literal is one SQL does
/// not order against its column, the error a SELECT raises for it.
fn check(s: &Session, preds: &[Predicate]) {
    let t = s.catalog().table("t").unwrap();
    let refused: Vec<Error> = preds
        .iter()
        .filter_map(|p| {
            let (_, def) = t.schema.column(&p.col.column).unwrap();
            selects_with(def.ty, p.value.as_lit().unwrap()).err()
        })
        .collect();
    let got = s.matching_positions("t", preds);
    if refused.is_empty() {
        let got = got.unwrap_or_else(|e| panic!("{preds:?}: {e}"));
        assert_eq!(got, s.matching_positions_oracle("t", preds), "{preds:?}");
    } else {
        let e = got.expect_err("a literal SQL does not order");
        assert!(refused.contains(&e), "{preds:?}: {e}");
    }
}

#[test]
fn one_predicate_every_op_column_and_literal() {
    let s = table();
    let mut nonempty = 0;
    for column in COLUMNS {
        for lit in literals(column) {
            for op in OPS {
                let p = [pred(column, op, &lit)];
                check(&s, &p);
                let hit = s.matching_positions("t", &p).is_ok_and(|v| !v.is_empty());
                nonempty += hit as usize;
            }
        }
    }
    assert!(nonempty > 300, "the literals must hit the data: {nonempty}");
}

#[test]
fn two_predicates_on_one_column_and_on_two() {
    let s = table();
    // a few literals per column, every pair of operators: lower + upper
    // bounds fuse into one range select, the other pairs chain
    let few = |column: &str| -> Vec<Value> {
        let all = literals(column);
        all.iter()
            .step_by((all.len() / 6).max(1))
            .cloned()
            .collect()
    };
    for c1 in COLUMNS {
        for c2 in COLUMNS {
            for l1 in few(c1) {
                for l2 in few(c2) {
                    for o1 in OPS {
                        for o2 in OPS {
                            check(&s, &[pred(c1, o1, &l1), pred(c2, o2, &l2)]);
                        }
                    }
                }
            }
        }
    }
    // three conjuncts: the fused pair need not be adjacent
    check(
        &s,
        &[
            pred("a", CmpOp::Ge, &Value::I32(-4)),
            pred("ok", CmpOp::Eq, &Value::Bool(false)),
            pred("a", CmpOp::Lt, &Value::I64(90)),
        ],
    );
}

#[test]
fn no_predicate_selects_the_live_rows() {
    let s = table();
    let all = s.matching_positions("t", &[]).unwrap();
    assert_eq!(all, s.matching_positions_oracle("t", &[]));
    assert_eq!(all.len(), 47);
}

#[test]
fn victims_are_what_delete_removes() {
    let mut s = table();
    let before = s.catalog().table("t").unwrap().rows();
    let preds = [
        pred("a", CmpOp::Ge, &Value::I32(30)),
        pred("a", CmpOp::Lt, &Value::I32(80)),
    ];
    let victims = s.matching_positions_oracle("t", &preds);
    let doomed: Vec<Vec<Value>> = {
        let t = s.catalog().table("t").unwrap();
        victims.iter().map(|&p| t.get_row(p).unwrap()).collect()
    };
    assert!(!doomed.is_empty());
    let out = s.execute("DELETE FROM t WHERE a >= 30 AND a < 80").unwrap();
    assert_eq!(out, QueryOutput::Affected(doomed.len()));
    let after = s.catalog().table("t").unwrap().rows();
    let kept: Vec<_> = before.into_iter().filter(|r| !doomed.contains(r)).collect();
    assert_eq!(after, kept);
    // deleting them again finds nothing: the candidates the kernels return
    // are taken minus the deleted positions
    let again = s.execute("DELETE FROM t WHERE a >= 30 AND a < 80").unwrap();
    assert_eq!(again, QueryOutput::Affected(0));
}

#[test]
fn errors_are_the_predecessors() {
    let s = table();
    let unbound = Predicate {
        col: ColumnRef::new(None, "a"),
        op: CmpOp::Eq,
        value: Scalar::Param(0),
    };
    let foreign = Predicate {
        col: ColumnRef::new(Some("u"), "a"),
        op: CmpOp::Eq,
        value: Scalar::Lit(Value::I32(1)),
    };
    for (p, what) in [(unbound, "placeholder"), (foreign, "references table u")] {
        let e = s.matching_positions("t", &[p]).unwrap_err();
        assert!(e.to_string().contains(what), "{e}");
    }
    let missing = pred("nope", CmpOp::Eq, &Value::I32(1));
    assert!(s.matching_positions("t", &[missing]).is_err());
    assert!(s.matching_positions("nope", &[]).is_err());
}
