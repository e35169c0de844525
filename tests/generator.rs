//! The statement generator every differential tier draws from
//! (`support::gen`), held to what the tiers take from it, over seed 1's
//! first few hundred statements of the mixed workload:
//!
//! * each statement reads back from its text (`parse_sql`) as the tiers
//!   send it, recased by [`Gen::render`], and [`parameterize`] is the
//!   inverse of binding its literals;
//! * a census: every production appears at least once;
//! * each statement runs on a durable [`Session`] over the generated schema,
//!   and the only failures are the refusals drawn on purpose — an INSERT of
//!   a nil sentinel into a NOT NULL column, SUM / AVG / MIN / MAX over a
//!   VARCHAR column — which fail with their typed errors;
//! * under the sharding tier's limits, ORDER BY takes only the key and no
//!   SUM or AVG runs over the DOUBLE column.

use mammoth_algebra::AggKind::{Avg, Sum};
use mammoth_algebra::CmpOp;
use mammoth_sql::{parse_sql, Predicate, Rows, Scalar, SelectItem, SelectStmt, Session, Statement};
use mammoth_types::{Error, TableSchema, Value};
use std::collections::BTreeMap;

mod support;
use support::gen::{parameterize, Gen};
use support::Scratch;

/// Every production of the generator over `tables`, and whether `stmt`
/// shows it.
fn productions(stmt: &Statement, tables: &[TableSchema]) -> Vec<(String, bool)> {
    use CmpOp::*;
    let (select, rows, where_): (_, Option<&Rows>, &[Predicate]) = match stmt {
        Statement::Select(s) => (Some(s), None, &s.where_),
        Statement::Insert { rows, .. } => (None, Some(rows), &[]),
        Statement::Delete { where_, .. } => (None, None, where_),
        _ => (None, None, &[]),
    };
    let cells: &[Scalar] = rows.map_or(&[], |r| &r.cells);
    let (int_nil, big_nil) = (Value::I32(i32::MIN), Value::I64(i64::MIN));
    let lit = |v: &Value| where_.iter().any(|p| p.value.as_lit() == Some(v));
    let cell = |v: &Value| cells.iter().any(|c| c.as_lit() == Some(v));
    // a column name has one type in every generated table
    let columns = tables.iter().flat_map(|t| &t.columns);
    let ty = |p: &Predicate| columns.clone().find(|c| c.name == p.col.column).unwrap().ty;
    let pairs = |p: &Predicate| where_.iter().any(|q| p.range_with(q, ty(p)).is_some());
    let nil = |p: &Predicate| [&int_nil, &big_nil].map(Some).contains(&p.value.as_lit());
    let nil_bound = where_.iter().any(|p| nil(p) && !matches!(p.op, Eq | Ne));
    let fused = where_.iter().any(pairs);
    let sel = |shows: &dyn Fn(&SelectStmt) -> bool| select.is_some_and(shows);
    let ordered =
        |desc| sel(&|s| s.limit.is_some() && s.order_by.as_ref().map(|o| o.1) == Some(desc));
    let agg = |i: &SelectItem| matches!(i, SelectItem::Agg(..));
    let delete = matches!(stmt, Statement::Delete { .. });
    let point = where_.len() == 1 && where_[0].op == Eq;
    let ops =
        [Eq, Ne, Lt, Le, Gt, Ge].map(|op| (format!("{op:?}"), where_.iter().any(|p| p.op == op)));
    let shown = [
        ("fused range", fused),
        ("NULL literal", lit(&Value::Null)),
        ("INT sentinel literal", lit(&int_nil)),
        ("BIGINT sentinel literal", lit(&big_nil)),
        ("sentinel range bound", nil_bound),
        ("GROUP BY", sel(&|s| !s.group_by.is_empty())),
        ("ORDER BY … LIMIT", ordered(false)),
        ("ORDER BY … DESC LIMIT", ordered(true)),
        ("JOIN", sel(&|s| s.join.is_some())),
        ("aggregate", sel(&|s| s.items.iter().any(agg))),
        ("multi-row INSERT", rows.is_some_and(|r| r.len() > 1)),
        ("sentinel cell", cell(&int_nil) || cell(&big_nil)),
        ("point DELETE", delete && point),
        ("range DELETE", delete && fused),
        ("CREATE TABLE", matches!(stmt, Statement::CreateTable(_))),
        ("DROP TABLE", matches!(stmt, Statement::DropTable { .. })),
        ("CHECKPOINT", *stmt == Statement::Checkpoint),
    ];
    ops.into_iter()
        .chain(shown.map(|(name, on)| (name.to_string(), on)))
        .collect()
}

#[test]
fn generated_statements_read_back_cover_the_grammar_and_run() {
    let dir = Scratch::new("generator");
    let mut s = Session::open_durable(dir.to_path_buf()).unwrap();
    let mut g = Gen::new(1);
    let mut census = BTreeMap::<String, usize>::new();
    for step in 0..300 {
        let stmt = g.next().unwrap();
        let text = g.render(&stmt);
        let ctx = format!("seed 1 step {step}: {text}");
        assert_eq!(parse_sql(&text).as_ref(), Ok(&stmt), "{ctx}");
        let (body, args) = parameterize(&stmt);
        assert_eq!(body.bind_params(&args).as_ref(), Ok(&stmt), "{ctx}");
        let refused = g.refused(&stmt);
        let insert = matches!(stmt, Statement::Insert { .. });
        let shown = productions(&stmt, &g.tables).into_iter().chain([
            ("refused INSERT".into(), refused && insert),
            ("refused aggregate".into(), refused && !insert),
            ("recased".into(), text != stmt.to_string()),
        ]);
        for (name, on) in shown {
            *census.entry(name).or_default() += on as usize;
        }
        match s.execute(&text) {
            Ok(_) => assert!(!refused, "{ctx}: accepted"),
            Err(e) => {
                let typed = match &e {
                    Error::Bind(m) => insert && m.contains("NULL not allowed in column"),
                    Error::Unsupported(m) => !insert && m.contains("only COUNT aggregates"),
                    _ => false,
                };
                assert!(refused && typed, "{ctx}: {e}");
            }
        }
    }
    census.retain(|_, shown| *shown == 0);
    assert!(census.is_empty(), "seed 1 shows no {:?}", census.keys());
    // a tier's limits are fields of the generator: the sharding tier's
    let mut g = Gen::new(1);
    (g.key_order, g.float_sums) = (true, false);
    for stmt in g.take(300) {
        let Statement::Select(s) = &stmt else {
            continue;
        };
        let by_key = s.order_by.as_ref().is_none_or(|(c, _)| c.column == "k");
        let float_sum =
            |i: &SelectItem| matches!(i, SelectItem::Agg(Sum | Avg, c) if c.column == "d");
        assert!(by_key && !s.items.iter().any(float_sum), "{stmt}");
    }
}
