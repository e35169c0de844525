//! SELECT → MAL compilation.
//!
//! The translation follows the MonetDB/SQL recipe: WHERE clauses become
//! chains of selections threading one *candidate* BAT per table (two bounds
//! on a column fuse into a range select); projections are positional
//! fetches through the candidates; joins produce two aligned candidate BATs
//! that route each side's fetches; grouping is the `group.group` /
//! `group.refine` / `aggr.sub*` triple; ORDER BY sorts one output column (a
//! top-N under a LIMIT) and re-fetches the others through the order index.

use crate::ast::{ColumnRef, JoinClause, Predicate, Scalar, SelectItem, SelectStmt};
use mammoth_algebra::AggKind;
use mammoth_mal::{Arg, OpCode, Program, VarId};
use mammoth_storage::Catalog;
use mammoth_types::{Error, Result, Value};

/// Which side of the plan a column belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    Left,
    Right,
}

struct Compiler<'a> {
    catalog: &'a Catalog,
    prog: Program,
    left_table: String,
    right_table: Option<String>,
    /// Candidate BATs narrowing each side (None = all rows).
    cands: [Option<VarId>; 2],
    /// The join's left result: one row per joined pair, whatever the
    /// sides' candidates have since been routed through.
    joined: Option<VarId>,
}

/// Compile a SELECT into a MAL program. Output columns appear in `io.result`
/// in SELECT-list order; the returned vector carries their display names.
pub fn compile_select(catalog: &Catalog, stmt: &SelectStmt) -> Result<(Program, Vec<String>)> {
    compile_select_ordered(catalog, stmt, stmt.where_.iter().collect())
}

/// [`compile_select`] with the WHERE conjuncts applied in the order given
/// (`where_` is `stmt.where_`, permuted): the planner's most-selective-first
/// ordering, without a reordered copy of the statement.
pub(crate) fn compile_select_ordered(
    catalog: &Catalog,
    stmt: &SelectStmt,
    where_: Vec<&Predicate>,
) -> Result<(Program, Vec<String>)> {
    let mut c = Compiler {
        catalog,
        prog: Program::new(),
        left_table: stmt.from.clone(),
        right_table: stmt.join.as_ref().map(|j| j.table.clone()),
        cands: [None, None],
        joined: None,
    };
    c.check_tables()?;

    // WHERE: each predicate selects among the rows its table's candidates
    // name; a lower and an upper bound on one column are one range select
    let mut todo = where_;
    while !todo.is_empty() {
        let pred = todo.remove(0);
        let side = c.side_of(&pred.col)?;
        let partner = todo.iter().position(|other| {
            pred.range_with(other).is_some() && c.side_of(&other.col).ok() == Some(side)
        });
        let (op, bounds) = match partner.and_then(|k| pred.range_with(todo.remove(k))) {
            Some((lo, hi)) => {
                let (lo_incl, hi_incl) = (lo.inclusive, hi.inclusive);
                let bounds = [lo, hi].map(|b| Arg::Const(b.value.clone()));
                (OpCode::RangeSelect { lo_incl, hi_incl }, bounds.to_vec())
            }
            None => {
                let value = match &pred.value {
                    Scalar::Lit(v) => Arg::Const(v.clone()),
                    Scalar::Param(n) => Arg::Param(*n),
                };
                (OpCode::ThetaSelect(pred.op), vec![value])
            }
        };
        let mut args = vec![Arg::Var(c.bind(side, &pred.col.column)?)];
        args.extend(c.cands[side as usize].map(Arg::Var));
        args.extend(bounds);
        c.cands[side as usize] = Some(c.prog.push(op, args)[0]);
    }

    // JOIN: combine candidates through the join index
    if let Some(join) = &stmt.join {
        c.apply_join(join)?;
    }

    let has_aggs = stmt
        .items
        .iter()
        .any(|i| !matches!(i, SelectItem::Column(_)));
    let mut names = Vec::new();
    let mut outs: Vec<VarId> = Vec::new();

    if !stmt.group_by.is_empty() {
        // grouped aggregation
        let mut gids = None;
        let mut ext = None;
        let mut key_fetched: Vec<(ColumnRef, VarId)> = Vec::new();
        for key in &stmt.group_by {
            let fetched = c.fetch_column(key)?;
            key_fetched.push((key.clone(), fetched));
            let rs = match gids {
                None => c.prog.push(OpCode::Group, vec![Arg::Var(fetched)]),
                Some(g) => c
                    .prog
                    .push(OpCode::GroupRefine, vec![Arg::Var(g), Arg::Var(fetched)]),
            };
            gids = Some(rs[0]);
            ext = Some(rs[1]);
        }
        let (gids, ext) = (gids.unwrap(), ext.unwrap());
        for item in &stmt.items {
            match item {
                SelectItem::Column(col) => {
                    let fetched = key_fetched
                        .iter()
                        .find(|(k, _)| c.same_column(k, col))
                        .map(|(_, v)| *v)
                        .ok_or_else(|| {
                            Error::Bind(format!("column {} must appear in GROUP BY", col.column))
                        })?;
                    outs.push(c.project(ext, fetched));
                    names.push(col.column.clone());
                }
                SelectItem::CountStar => {
                    // group sizes: count the (never-nil) gid column per group
                    let v = c.prog.push(
                        OpCode::AggrGrouped(AggKind::Count),
                        vec![Arg::Var(gids), Arg::Var(gids), Arg::Var(ext)],
                    )[0];
                    outs.push(v);
                    names.push("count".into());
                }
                SelectItem::Agg(kind, col) => {
                    let fetched = c.fetch_column(col)?;
                    let v = c.prog.push(
                        OpCode::AggrGrouped(*kind),
                        vec![Arg::Var(fetched), Arg::Var(gids), Arg::Var(ext)],
                    )[0];
                    outs.push(v);
                    names.push(format!("{}({})", agg_label(*kind), col.column));
                }
            }
        }
    } else if has_aggs {
        // scalar aggregates
        for item in &stmt.items {
            match item {
                SelectItem::CountStar => {
                    // rows are counted where they were produced: fetching
                    // the left candidates through the join result first
                    // would gather a BAT only to take its length
                    let counted = match c.joined.or(c.cands[0]) {
                        Some(cv) => cv,
                        None => c.bind_first_column(Side::Left)?,
                    };
                    let v = c.prog.push(OpCode::Count, vec![Arg::Var(counted)])[0];
                    outs.push(v);
                    names.push("count".into());
                }
                SelectItem::Agg(kind, col) => {
                    let fetched = c.fetch_column(col)?;
                    let v = c.prog.push(OpCode::Aggr(*kind), vec![Arg::Var(fetched)])[0];
                    outs.push(v);
                    names.push(format!("{}({})", agg_label(*kind), col.column));
                }
                SelectItem::Column(col) => {
                    return Err(Error::Bind(format!(
                        "column {} mixed with aggregates needs GROUP BY",
                        col.column
                    )))
                }
            }
        }
    } else {
        // plain projection
        for item in &stmt.items {
            let SelectItem::Column(col) = item else {
                unreachable!()
            };
            let v = c.fetch_column(col)?;
            outs.push(v);
            names.push(col.column.clone());
        }
    }

    // ORDER BY: sort the chosen column (a top-N under a LIMIT), re-fetch all outputs
    if let Some((col, desc)) = &stmt.order_by {
        let key_idx = stmt
            .items
            .iter()
            .position(|i| matches!(i, SelectItem::Column(k) if c.same_column(k, col)))
            .ok_or_else(|| {
                Error::Bind(format!(
                    "ORDER BY column {} must be in the SELECT list",
                    col.column
                ))
            })?;
        let key = Arg::Var(outs[key_idx]);
        let sr = match stmt.limit {
            Some(n) => c.prog.push(
                OpCode::FirstN { desc: *desc },
                vec![key, Arg::Const(Value::I64(n as i64))],
            ),
            None => c.prog.push(OpCode::Sort { desc: *desc }, vec![key]),
        };
        let order = sr[1];
        for (i, out) in outs.iter_mut().enumerate() {
            *out = if i == key_idx {
                sr[0]
            } else {
                c.project(order, *out)
            };
        }
    }

    // LIMIT, unless the ORDER BY has cut the outputs already
    if let (Some(n), None) = (stmt.limit, &stmt.order_by) {
        for out in outs.iter_mut() {
            *out = c.prog.push(
                OpCode::Slice,
                vec![
                    Arg::Var(*out),
                    Arg::Const(Value::I64(0)),
                    Arg::Const(Value::I64(n as i64)),
                ],
            )[0];
        }
    }

    c.prog.push_result(&outs);

    // the compiler's contract: every emitted plan satisfies the MAL
    // verifier against the catalog it was compiled for
    #[cfg(debug_assertions)]
    if let Err(e) = mammoth_mal::analysis::verify_with_catalog(&c.prog, catalog) {
        panic!(
            "compile_select emitted an ill-formed plan (compiler bug):\n{}error: {e}",
            c.prog
        );
    }

    Ok((c.prog, names))
}

fn agg_label(kind: AggKind) -> &'static str {
    match kind {
        AggKind::Count => "count",
        AggKind::Sum => "sum",
        AggKind::Min => "min",
        AggKind::Max => "max",
        AggKind::Avg => "avg",
    }
}

impl Compiler<'_> {
    fn check_tables(&self) -> Result<()> {
        self.catalog.table(&self.left_table)?;
        if let Some(r) = &self.right_table {
            self.catalog.table(r)?;
        }
        Ok(())
    }

    /// Resolve which side a column reference belongs to.
    fn side_of(&self, col: &ColumnRef) -> Result<Side> {
        if let Some(t) = &col.table {
            if t.eq_ignore_ascii_case(&self.left_table) {
                return Ok(Side::Left);
            }
            if let Some(r) = &self.right_table {
                if t.eq_ignore_ascii_case(r) {
                    return Ok(Side::Right);
                }
            }
            return Err(Error::NotFound {
                kind: "table",
                name: t.clone(),
            });
        }
        // unqualified: look it up in both schemas
        let in_left = self
            .catalog
            .table(&self.left_table)?
            .schema
            .column_index(&col.column)
            .is_some();
        let in_right = match &self.right_table {
            Some(r) => self
                .catalog
                .table(r)?
                .schema
                .column_index(&col.column)
                .is_some(),
            None => false,
        };
        match (in_left, in_right) {
            (true, true) => Err(Error::Bind(format!("ambiguous column {}", col.column))),
            (true, false) => Ok(Side::Left),
            (false, true) => Ok(Side::Right),
            (false, false) => Err(Error::NotFound {
                kind: "column",
                name: col.column.clone(),
            }),
        }
    }

    fn table_of(&self, side: Side) -> &str {
        match side {
            Side::Left => &self.left_table,
            Side::Right => self.right_table.as_deref().expect("side checked"),
        }
    }

    fn bind(&mut self, side: Side, column: &str) -> Result<VarId> {
        // validate eagerly for a friendly error at compile time
        let table = self.table_of(side).to_string();
        self.catalog.table(&table)?.schema.column(column)?;
        Ok(self.prog.push(
            OpCode::Bind,
            vec![
                Arg::Const(Value::Str(table)),
                Arg::Const(Value::Str(column.to_string())),
            ],
        )[0])
    }

    fn bind_first_column(&mut self, side: Side) -> Result<VarId> {
        let table = self.table_of(side).to_string();
        let first = self
            .catalog
            .table(&table)?
            .schema
            .columns
            .first()
            .ok_or_else(|| Error::Bind(format!("table {table} has no columns")))?
            .name
            .clone();
        self.bind(side, &first)
    }

    /// `algebra.projection(cands, values)`.
    fn project(&mut self, cands: VarId, values: VarId) -> VarId {
        let args = vec![Arg::Var(cands), Arg::Var(values)];
        self.prog.push(OpCode::Projection, args)[0]
    }

    /// Bind a column and fetch it through the side's candidates, if any.
    fn fetch_column(&mut self, col: &ColumnRef) -> Result<VarId> {
        let side = self.side_of(col)?;
        let bound = self.bind(side, &col.column)?;
        Ok(match self.cands[side as usize] {
            None => bound,
            Some(cv) => self.project(cv, bound),
        })
    }

    fn apply_join(&mut self, join: &JoinClause) -> Result<()> {
        // normalize: `left` may syntactically mention either table
        let lside = self.side_of(&join.left)?;
        let (lcol, rcol) = if lside == Side::Left {
            (&join.left, &join.right)
        } else {
            (&join.right, &join.left)
        };
        if self.side_of(lcol)? != Side::Left || self.side_of(rcol)? != Side::Right {
            return Err(Error::Bind(
                "JOIN condition must reference both tables".into(),
            ));
        }
        let lk = self.fetch_column(lcol)?;
        let rk = self.fetch_column(rcol)?;
        let rs = self
            .prog
            .push(OpCode::Join, vec![Arg::Var(lk), Arg::Var(rk)]);
        self.joined = Some(rs[0]);
        // join oids index into lk/rk; route through prior candidates
        for (side, joined) in rs.into_iter().enumerate() {
            self.cands[side] = Some(match self.cands[side] {
                None => joined,
                Some(cv) => self.project(joined, cv),
            });
        }
        Ok(())
    }

    fn same_column(&self, a: &ColumnRef, b: &ColumnRef) -> bool {
        if !a.column.eq_ignore_ascii_case(&b.column) {
            return false;
        }
        match (&a.table, &b.table) {
            (Some(x), Some(y)) => x.eq_ignore_ascii_case(y),
            _ => true, // unqualified matches qualified of same name
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Statement;
    use crate::parser::parse_sql;
    use mammoth_storage::Table;
    use mammoth_types::{ColumnDef, LogicalType, TableSchema};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let mut t = Table::new(TableSchema::new(
            "people",
            vec![
                ColumnDef::new("name", LogicalType::Str),
                ColumnDef::new("age", LogicalType::I32),
            ],
        ))
        .unwrap();
        for (n, a) in [("a", 1), ("b", 2)] {
            t.insert_row(&[Value::Str(n.into()), Value::I32(a)])
                .unwrap();
        }
        cat.create_table(t).unwrap();
        let films = Table::new(TableSchema::new(
            "films",
            vec![
                ColumnDef::new("star", LogicalType::Str),
                ColumnDef::new("year", LogicalType::I32),
            ],
        ))
        .unwrap();
        cat.create_table(films).unwrap();
        cat
    }

    fn compile(sql: &str) -> Result<(Program, Vec<String>)> {
        let Statement::Select(s) = parse_sql(sql)? else {
            panic!("not a select")
        };
        compile_select(&catalog(), &s)
    }

    #[test]
    fn simple_select_shape() {
        let (p, names) = compile("SELECT name FROM people WHERE age = 1927").unwrap();
        assert_eq!(names, vec!["name"]);
        let text = p.to_string();
        assert!(text.contains("sql.bind(\"people\", \"age\")"));
        assert!(text.contains("algebra.thetaselect[==]"));
        assert!(text.contains("algebra.projection"));
        assert!(text.contains("io.result"));
    }

    #[test]
    fn predicates_thread_one_candidate_list() {
        let (p, _) =
            compile("SELECT name FROM people WHERE age > 10 AND age < 20 AND name <> 'x'").unwrap();
        let text = p.to_string();
        // the two bounds on `age` fuse; `name <> 'x'` tests its candidates
        assert!(text.contains("x1 := algebra.select(x0, 10, 20, false, false);"));
        assert!(text.contains("x3 := algebra.thetaselect[!=](x2, x1, \"x\");"));
        assert_eq!(text.matches("algebra.thetaselect").count(), 1);
        // no gather between predicates: only the output column is fetched
        assert_eq!(text.matches("algebra.projection").count(), 1);
        assert!(!text.contains("bat.mirror"));
    }

    #[test]
    fn range_fusion_pairs_bounds_per_column_and_side() {
        let selects = |sql: &str| {
            let text = compile(sql).unwrap().0.to_string();
            (
                text.matches("algebra.select(").count(),
                text.matches("algebra.thetaselect").count(),
            )
        };
        // a BETWEEN plus a third bound: one pair fuses, the rest threads on
        let q = "SELECT name FROM people WHERE age BETWEEN 1 AND 9 AND age < 7";
        assert_eq!(selects(q), (1, 1));
        // two lower bounds have no partner; neither has an equality
        let q = "SELECT name FROM people WHERE age > 1 AND age >= 2 AND age = 3";
        assert_eq!(selects(q), (0, 3));
        // a NULL literal is a comparison that selects nothing, never an
        // open bound, and a `?` may be bound to NULL at EXECUTE time
        let q = "SELECT name FROM people WHERE age >= NULL AND age < 3";
        assert_eq!(selects(q), (0, 2));
        let Statement::Prepare { stmt, .. } =
            parse_sql("PREPARE p AS SELECT name FROM people WHERE age >= ? AND age < 3").unwrap()
        else {
            panic!("not a prepare")
        };
        let Statement::Select(sel) = *stmt else {
            panic!("not a select")
        };
        let text = compile_select(&catalog(), &sel).unwrap().0.to_string();
        assert_eq!(text.matches("algebra.thetaselect").count(), 2);
        // bounds on same-named columns of two tables stay apart
        let q = "SELECT people.name FROM people JOIN films ON people.name = films.star \
                 WHERE people.age > 1 AND films.year < 9";
        assert_eq!(selects(q), (0, 2));
    }

    #[test]
    fn aggregate_compilation() {
        let (_, names) = compile("SELECT COUNT(*), SUM(age) FROM people").unwrap();
        assert_eq!(names, vec!["count", "sum(age)"]);
        let (p, names) = compile("SELECT age, COUNT(*) FROM people GROUP BY age").unwrap();
        assert_eq!(names, vec!["age", "count"]);
        assert!(p.to_string().contains("group.group"));
        assert!(p.to_string().contains("aggr.subcount_nonnil"));
    }

    #[test]
    fn join_compilation() {
        let (p, _) = compile(
            "SELECT people.name, films.year FROM people JOIN films ON people.name = films.star",
        )
        .unwrap();
        assert!(p.to_string().contains("algebra.join"));
    }

    #[test]
    fn binding_errors() {
        assert!(compile("SELECT nosuch FROM people").is_err());
        assert!(compile("SELECT name FROM missing_table").is_err());
        assert!(compile("SELECT name, COUNT(*) FROM people").is_err());
        assert!(
            compile("SELECT name FROM people ORDER BY age").is_err(),
            "ORDER BY column must be selected"
        );
        // ambiguous unqualified column across a join
        let err = compile(
            "SELECT name FROM people JOIN films ON people.name = films.star WHERE year = 1",
        );
        assert!(err.is_ok(), "year is unambiguous (films only)");
    }

    #[test]
    fn order_and_limit_shape() {
        // ORDER BY + LIMIT is a top-N: nothing is fully sorted or sliced
        let (p, _) = compile("SELECT name, age FROM people ORDER BY age DESC LIMIT 5").unwrap();
        let text = p.to_string();
        assert!(text.contains("algebra.firstn[desc](x1, 5)"), "{text}");
        assert!(!text.contains("algebra.sort") && !text.contains("bat.slice"));
        let (p, _) = compile("SELECT name, age FROM people ORDER BY age DESC").unwrap();
        assert!(p.to_string().contains("algebra.sort[desc]"));
        let (p, _) = compile("SELECT name, age FROM people LIMIT 5").unwrap();
        assert_eq!(p.to_string().matches("bat.slice").count(), 2);
    }
}
