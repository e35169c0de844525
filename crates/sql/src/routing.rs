//! Scatter-gather routing for the shard coordinator (`crates/shard`).
//!
//! The coordinator parses and compiles every statement exactly once
//! against its planning catalog, verifies the plan with the MAL analysis
//! tier, then uses these helpers to decide how the statement travels:
//!
//! * **aggregate pushdown** — single-table scalar aggregates whose
//!   partials merge losslessly (`COUNT`, integer `SUM`, `MIN`, `MAX`) ship
//!   the whole statement to every shard and merge the one-row partials
//!   with `mat.packsum` / `mat.pack` ([`mammoth_mal::aggregate_combine`]);
//! * **gather** — everything else ships per-table column fragments
//!   (filters pushed down where sound) and re-runs the original verified
//!   plan against the recombined catalog.
//!
//! `AVG` and float `SUM` always gather: f64 addition is not associative,
//! and the distributed result must stay bit-identical to single-node —
//! the same discipline the in-process mergetable applies.

use crate::ast::{ColumnRef, Predicate, SelectItem, SelectStmt};
use crate::printer::{Literal, Where};
use mammoth_algebra::AggKind;
use mammoth_mal::PartialMerge;
use mammoth_storage::Catalog;
use mammoth_types::{LogicalType, Value};

/// A value as the literal the lexer reads back (see the printer for the
/// spelling rules).
pub fn sql_literal(v: &Value) -> String {
    Literal(v).to_string()
}

/// One table's gather fragment: every column (schema order) plus the
/// filters that may run on the shard before shipping.
#[derive(Debug, Clone, PartialEq)]
pub struct GatherTable {
    pub table: String,
    /// Column names, in schema order — `Table::from_bats` needs full
    /// schema alignment when the coordinator rebuilds the table.
    pub columns: Vec<String>,
    /// `SELECT <columns> FROM <table> [WHERE <pushed filters>]`.
    pub fragment_sql: String,
}

/// How one SELECT executes across the shards.
#[derive(Debug, Clone, PartialEq)]
pub enum ScatterPlan {
    /// Ship the statement itself; merge one-row partials per `merges`.
    Aggregates {
        fragment_sql: String,
        merges: Vec<PartialMerge>,
    },
    /// Ship column fragments per table; re-run the original plan whole.
    Gather { tables: Vec<GatherTable> },
}

/// Resolve the type of `col` against the statement's FROM table, if the
/// reference (possibly qualified) lands there.
fn column_type(catalog: &Catalog, stmt: &SelectStmt, col: &ColumnRef) -> Option<LogicalType> {
    if let Some(t) = &col.table {
        if !t.eq_ignore_ascii_case(&stmt.from) {
            return None;
        }
    }
    catalog
        .table(&stmt.from)
        .ok()?
        .schema
        .columns
        .iter()
        .find(|c| c.name.eq_ignore_ascii_case(&col.column))
        .map(|c| c.ty)
}

fn int_type(ty: LogicalType) -> bool {
    matches!(
        ty,
        LogicalType::I8 | LogicalType::I16 | LogicalType::I32 | LogicalType::I64
    )
}

/// Pick the scatter strategy for one SELECT. `catalog` is the
/// coordinator's planning catalog (schemas only; row counts don't
/// matter). Statements that cannot merge from partials — joins, GROUP
/// BY, ORDER BY/LIMIT, `AVG`, float `SUM`, or anything unresolvable —
/// fall back to the gather plan, whose semantics the original verified
/// plan defines.
pub fn classify(catalog: &Catalog, stmt: &SelectStmt) -> ScatterPlan {
    let aggregates = aggregate_merges(catalog, stmt);
    if let Some(merges) = aggregates {
        return ScatterPlan::Aggregates {
            fragment_sql: stmt.to_string(),
            merges,
        };
    }
    let mut tables = Vec::new();
    let mut add = |table: &str, preds: &[Predicate]| {
        let Ok(t) = catalog.table(table) else {
            // Unknown table: emit an empty fragment list; the original
            // plan's compile error is the user-visible outcome.
            return;
        };
        let columns: Vec<String> = t.schema.columns.iter().map(|c| c.name.clone()).collect();
        let fragment_sql = format!("SELECT {} FROM {table}{}", columns.join(", "), Where(preds));
        tables.push(GatherTable {
            table: table.to_string(),
            columns,
            fragment_sql,
        });
    };
    match &stmt.join {
        None => {
            // Single table: every predicate names it, and re-applying a
            // filter to pre-filtered rows is idempotent — push them all.
            add(&stmt.from, &stmt.where_);
        }
        Some(j) => {
            // With a join, unqualified predicate columns resolve by
            // schema lookup inside the compiler; don't second-guess it —
            // ship both tables unfiltered and let the verified plan
            // filter after the gather.
            add(&stmt.from, &[]);
            add(&j.table, &[]);
        }
    }
    ScatterPlan::Gather { tables }
}

/// `Some(merges)` when every output is a scalar aggregate whose partials
/// merge losslessly; `None` otherwise.
fn aggregate_merges(catalog: &Catalog, stmt: &SelectStmt) -> Option<Vec<PartialMerge>> {
    if stmt.join.is_some()
        || !stmt.group_by.is_empty()
        || stmt.order_by.is_some()
        || stmt.limit.is_some()
        || stmt.items.is_empty()
    {
        return None;
    }
    stmt.items
        .iter()
        .map(|item| match item {
            SelectItem::CountStar => Some(PartialMerge::Count),
            SelectItem::Agg(AggKind::Count, _) => Some(PartialMerge::Count),
            SelectItem::Agg(AggKind::Sum, c) => {
                int_type(column_type(catalog, stmt, c)?).then_some(PartialMerge::SumInt)
            }
            SelectItem::Agg(AggKind::Min, c) => {
                let ty = column_type(catalog, stmt, c)?;
                (int_type(ty) || ty == LogicalType::F64).then_some(PartialMerge::Min)
            }
            SelectItem::Agg(AggKind::Max, c) => {
                let ty = column_type(catalog, stmt, c)?;
                (int_type(ty) || ty == LogicalType::F64).then_some(PartialMerge::Max)
            }
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_sql;
    use crate::Statement;
    use mammoth_storage::Table;
    use mammoth_types::{ColumnDef, TableSchema};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.create_table(
            Table::new(TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("a", LogicalType::I32),
                    ColumnDef::new("f", LogicalType::F64),
                    ColumnDef::new("s", LogicalType::Str),
                ],
            ))
            .unwrap(),
        )
        .unwrap();
        cat.create_table(
            Table::new(TableSchema::new(
                "u",
                vec![ColumnDef::new("b", LogicalType::I64)],
            ))
            .unwrap(),
        )
        .unwrap();
        cat
    }

    fn select(sql: &str) -> SelectStmt {
        match parse_sql(sql).unwrap() {
            Statement::Select(s) => s,
            other => panic!("expected select, got {other:?}"),
        }
    }

    #[test]
    fn lossless_aggregates_push_down() {
        let cat = catalog();
        let plan = classify(
            &cat,
            &select("SELECT COUNT(*), SUM(a), MIN(a), MAX(f) FROM t WHERE a > 2"),
        );
        match plan {
            ScatterPlan::Aggregates {
                merges,
                fragment_sql,
            } => {
                assert_eq!(
                    merges,
                    vec![
                        PartialMerge::Count,
                        PartialMerge::SumInt,
                        PartialMerge::Min,
                        PartialMerge::Max
                    ]
                );
                assert!(fragment_sql.contains("WHERE a > 2"));
            }
            other => panic!("expected aggregate pushdown, got {other:?}"),
        }
    }

    #[test]
    fn float_sum_avg_and_shapes_gather() {
        let cat = catalog();
        for sql in [
            "SELECT SUM(f) FROM t",              // f64 sum: not associative
            "SELECT AVG(a) FROM t",              // avg needs sum+count pair
            "SELECT a FROM t",                   // plain scan
            "SELECT COUNT(*) FROM t GROUP BY a", // grouped
            "SELECT COUNT(*) FROM t ORDER BY a", // ordered
            "SELECT MIN(s) FROM t",              // string min: engine decides
        ] {
            assert!(
                matches!(classify(&cat, &select(sql)), ScatterPlan::Gather { .. }),
                "{sql} must gather"
            );
        }
    }

    #[test]
    fn gather_pushes_filters_on_single_table_only() {
        let cat = catalog();
        match classify(&cat, &select("SELECT a FROM t WHERE a > 5 AND s = 'x'")) {
            ScatterPlan::Gather { tables } => {
                assert_eq!(tables.len(), 1);
                assert_eq!(tables[0].columns, vec!["a", "f", "s"]);
                assert_eq!(
                    tables[0].fragment_sql,
                    "SELECT a, f, s FROM t WHERE a > 5 AND s = 'x'"
                );
            }
            other => panic!("{other:?}"),
        }
        match classify(
            &cat,
            &select("SELECT t.a FROM t JOIN u ON t.a = u.b WHERE a > 5"),
        ) {
            ScatterPlan::Gather { tables } => {
                assert_eq!(tables.len(), 2);
                assert!(!tables[0].fragment_sql.contains("WHERE"));
                assert!(!tables[1].fragment_sql.contains("WHERE"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn literals_roundtrip() {
        assert_eq!(sql_literal(&Value::Str("it's".into())), "'it''s'");
        assert_eq!(sql_literal(&Value::F64(1.0)), "1.0");
        assert_eq!(sql_literal(&Value::Null), "NULL");
        assert_eq!(sql_literal(&Value::I64(-7)), "-7");
    }
}
