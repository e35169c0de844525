//! Recursive-descent SQL parser.

use crate::ast::*;
use crate::lexer::{is_kw, SqlLexer, Token};
use mammoth_algebra::{AggKind, CmpOp};
use mammoth_types::{ColumnDef, Error, LogicalType, Result, TableSchema, Value};

/// Parse one SQL statement (a trailing `;` is optional).
pub fn parse_sql(src: &str) -> Result<Statement> {
    let mut p = Parser {
        lex: SqlLexer::new(src),
        nparams: 0,
    };
    let stmt = p.statement()?;
    // allow trailing semicolon and require EOF
    if p.lex.peek()? == Token::Semi {
        p.lex.next()?;
    }
    match p.lex.next()? {
        Token::Eof => Ok(stmt),
        t => Err(p.lex.err(format!("trailing input: {t:?}"))),
    }
}

/// `PREPARE name AS body` from its two parts — what a protocol-v4
/// `Prepare` frame carries. `name` must be one identifier, as the grammar
/// would have read it.
pub fn parse_prepare(name: &str, body: &str) -> Result<Statement> {
    let mut lex = SqlLexer::new(name);
    match (lex.next()?, lex.next()?) {
        (Token::Ident(name), Token::Eof) => prepared(name, parse_sql(body)?, 0),
        _ => Err(lex.err("a prepared statement's name is one identifier")),
    }
}

/// `PREPARE name AS stmt`, for a `stmt` that began at `pos`.
fn prepared(name: String, stmt: Statement, pos: usize) -> Result<Statement> {
    match stmt {
        Statement::Prepare { .. } | Statement::Execute { .. } | Statement::Deallocate { .. } => {
            Err(Error::Parse {
                pos,
                message: "PREPARE cannot wrap PREPARE/EXECUTE/DEALLOCATE".into(),
            })
        }
        stmt => Ok(Statement::Prepare {
            name,
            stmt: Box::new(stmt),
        }),
    }
}

struct Parser<'a> {
    lex: SqlLexer<'a>,
    /// `?` placeholders seen so far — they number left-to-right.
    nparams: usize,
}

impl Parser<'_> {
    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        let t = self.lex.next()?;
        if is_kw(&t, kw) {
            Ok(())
        } else {
            Err(self.lex.err(format!("expected {kw}, got {t:?}")))
        }
    }

    fn accept_kw(&mut self, kw: &str) -> Result<bool> {
        if is_kw(&self.lex.peek()?, kw) {
            self.lex.next()?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    fn expect(&mut self, t: Token) -> Result<()> {
        let got = self.lex.next()?;
        if got == t {
            Ok(())
        } else {
            Err(self.lex.err(format!("expected {t:?}, got {got:?}")))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.lex.next()? {
            Token::Ident(s) => Ok(s),
            t => Err(self.lex.err(format!("expected identifier, got {t:?}"))),
        }
    }

    /// `item, item, …`: one or more.
    fn list<T>(&mut self, mut item: impl FnMut(&mut Self) -> Result<T>) -> Result<Vec<T>> {
        let mut out = vec![item(self)?];
        while self.lex.peek()? == Token::Comma {
            self.lex.next()?;
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// `(item, item, …)`.
    fn tuple<T>(&mut self, item: impl FnMut(&mut Self) -> Result<T>) -> Result<Vec<T>> {
        self.expect(Token::LParen)?;
        let out = self.list(item)?;
        match self.lex.next()? {
            Token::RParen => Ok(out),
            t => Err(self.lex.err(format!("expected ',' or ')', got {t:?}"))),
        }
    }

    fn statement(&mut self) -> Result<Statement> {
        let t = self.lex.peek()?;
        if is_kw(&t, "SELECT") {
            Ok(Statement::Select(self.select()?))
        } else if is_kw(&t, "EXPLAIN") {
            self.lex.next()?;
            if self.accept_kw("REPLICATION")? {
                Ok(Statement::ExplainReplication)
            } else if self.accept_kw("SHARDING")? {
                Ok(Statement::ExplainSharding)
            } else {
                Ok(Statement::Explain(self.select()?))
            }
        } else if is_kw(&t, "TRACE") {
            self.lex.next()?;
            Ok(Statement::Trace(self.select()?))
        } else if is_kw(&t, "CREATE") {
            self.create_table()
        } else if is_kw(&t, "DROP") {
            self.lex.next()?;
            self.expect_kw("TABLE")?;
            Ok(Statement::DropTable {
                name: self.ident()?,
            })
        } else if is_kw(&t, "INSERT") {
            self.insert()
        } else if is_kw(&t, "DELETE") {
            self.delete()
        } else if is_kw(&t, "CHECKPOINT") {
            self.lex.next()?;
            Ok(Statement::Checkpoint)
        } else if is_kw(&t, "PROMOTE") {
            self.lex.next()?;
            Ok(Statement::Promote)
        } else if is_kw(&t, "PREPARE") {
            self.prepare()
        } else if is_kw(&t, "EXECUTE") {
            self.execute()
        } else if is_kw(&t, "DEALLOCATE") {
            self.lex.next()?;
            let _ = self.accept_kw("PREPARE")?;
            Ok(Statement::Deallocate {
                name: self.ident()?,
            })
        } else {
            Err(self.lex.err(format!("expected a statement, got {t:?}")))
        }
    }

    fn prepare(&mut self) -> Result<Statement> {
        self.expect_kw("PREPARE")?;
        let name = self.ident()?;
        self.expect_kw("AS")?;
        let pos = self.lex.pos;
        prepared(name, self.statement()?, pos)
    }

    fn execute(&mut self) -> Result<Statement> {
        self.expect_kw("EXECUTE")?;
        let name = self.ident()?;
        let mut args = Vec::new();
        if self.lex.peek()? == Token::LParen {
            let open = self.lex.pos;
            self.lex.next()?;
            if self.lex.peek()? == Token::RParen {
                self.lex.next()?; // `()`: no arguments
            } else {
                self.lex.pos = open;
                args = self.tuple(Self::literal)?;
            }
        }
        Ok(Statement::Execute { name, args })
    }

    fn create_table(&mut self) -> Result<Statement> {
        self.expect_kw("CREATE")?;
        self.expect_kw("TABLE")?;
        let name = self.ident()?;
        let columns = self.tuple(|p| {
            let cname = p.ident()?;
            let tyname = p.ident()?;
            let ty = LogicalType::parse(&tyname)
                .ok_or_else(|| p.lex.err(format!("unknown type {tyname}")))?;
            let not_null = p.accept_kw("NOT")?;
            if not_null {
                p.expect_kw("NULL")?;
            }
            Ok(ColumnDef {
                name: cname,
                ty,
                nullable: !not_null,
            })
        })?;
        Ok(Statement::CreateTable(TableSchema::new(name, columns)))
    }

    fn literal(&mut self) -> Result<Value> {
        Ok(match self.lex.next()? {
            Token::Int(x) => {
                if let Ok(v) = i32::try_from(x) {
                    Value::I32(v)
                } else {
                    Value::I64(x)
                }
            }
            Token::Float(f) => Value::F64(f),
            Token::Str(s) => Value::Str(s),
            Token::Ident(s) if s.eq_ignore_ascii_case("NULL") => Value::Null,
            Token::Ident(s) if s.eq_ignore_ascii_case("TRUE") => Value::Bool(true),
            Token::Ident(s) if s.eq_ignore_ascii_case("FALSE") => Value::Bool(false),
            t => return Err(self.lex.err(format!("expected a literal, got {t:?}"))),
        })
    }

    /// A literal or a `?` placeholder (numbered in occurrence order).
    fn scalar(&mut self) -> Result<Scalar> {
        if self.lex.peek()? == Token::Question {
            self.lex.next()?;
            let n = self.nparams;
            self.nparams += 1;
            return Ok(Scalar::Param(n));
        }
        Ok(Scalar::Lit(self.literal()?))
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_kw("INSERT")?;
        self.expect_kw("INTO")?;
        let table = self.ident()?;
        self.expect_kw("VALUES")?;
        let rows = self.list(|p| p.tuple(Self::scalar))?;
        Ok(Statement::Insert { table, rows })
    }

    fn delete(&mut self) -> Result<Statement> {
        self.expect_kw("DELETE")?;
        self.expect_kw("FROM")?;
        let table = self.ident()?;
        let where_ = if self.accept_kw("WHERE")? {
            self.predicates()?
        } else {
            Vec::new()
        };
        Ok(Statement::Delete { table, where_ })
    }

    fn column_ref(&mut self) -> Result<ColumnRef> {
        let first = self.ident()?;
        if self.lex.peek()? == Token::Dot {
            self.lex.next()?;
            let col = self.ident()?;
            Ok(ColumnRef {
                table: Some(first),
                column: col,
            })
        } else {
            Ok(ColumnRef {
                table: None,
                column: first,
            })
        }
    }

    fn predicates(&mut self) -> Result<Vec<Predicate>> {
        let mut out = Vec::new();
        loop {
            let col = self.column_ref()?;
            if self.accept_kw("BETWEEN")? {
                let lo = self.scalar()?;
                self.expect_kw("AND")?;
                let hi = self.scalar()?;
                out.push(Predicate {
                    col: col.clone(),
                    op: CmpOp::Ge,
                    value: lo,
                });
                out.push(Predicate {
                    col,
                    op: CmpOp::Le,
                    value: hi,
                });
            } else {
                let op = match self.lex.next()? {
                    Token::Op(op) => op,
                    t => return Err(self.lex.err(format!("expected operator, got {t:?}"))),
                };
                let value = self.scalar()?;
                out.push(Predicate { col, op, value });
            }
            if self.accept_kw("AND")? {
                continue;
            }
            break;
        }
        Ok(out)
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        let t = self.lex.peek()?;
        if let Some(&(_, kind)) = AGGREGATES.iter().find(|(name, _)| is_kw(&t, name)) {
            // aggregates require parentheses; a bare identifier named like
            // an aggregate is treated as a column
            let save = self.lex.pos;
            self.lex.next()?; // the keyword
            if self.lex.peek()? == Token::LParen {
                self.lex.next()?;
                if kind == AggKind::Count && self.lex.peek()? == Token::Star {
                    self.lex.next()?;
                    self.expect(Token::RParen)?;
                    return Ok(SelectItem::CountStar);
                }
                let col = self.column_ref()?;
                self.expect(Token::RParen)?;
                return Ok(SelectItem::Agg(kind, col));
            }
            self.lex.pos = save;
        }
        Ok(SelectItem::Column(self.column_ref()?))
    }

    fn select(&mut self) -> Result<SelectStmt> {
        self.expect_kw("SELECT")?;
        let items = self.list(Self::select_item)?;
        self.expect_kw("FROM")?;
        let from = self.ident()?;
        let join = if self.accept_kw("JOIN")? {
            let table = self.ident()?;
            self.expect_kw("ON")?;
            let left = self.column_ref()?;
            match self.lex.next()? {
                Token::Op(CmpOp::Eq) => {}
                t => return Err(self.lex.err(format!("JOIN requires '=', got {t:?}"))),
            }
            let right = self.column_ref()?;
            Some(JoinClause { table, left, right })
        } else {
            None
        };
        let where_ = if self.accept_kw("WHERE")? {
            self.predicates()?
        } else {
            Vec::new()
        };
        let group_by = if self.accept_kw("GROUP")? {
            self.expect_kw("BY")?;
            self.list(Self::column_ref)?
        } else {
            Vec::new()
        };
        let order_by = if self.accept_kw("ORDER")? {
            self.expect_kw("BY")?;
            let col = self.column_ref()?;
            let desc = if self.accept_kw("DESC")? {
                true
            } else {
                let _ = self.accept_kw("ASC")?;
                false
            };
            Some((col, desc))
        } else {
            None
        };
        let limit = if self.accept_kw("LIMIT")? {
            match self.lex.next()? {
                Token::Int(n) if n >= 0 => Some(n as usize),
                t => return Err(self.lex.err(format!("LIMIT needs a count, got {t:?}"))),
            }
        } else {
            None
        };
        Ok(SelectStmt {
            items,
            from,
            join,
            where_,
            group_by,
            order_by,
            limit,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_select() {
        let s = parse_sql("SELECT name, age FROM people WHERE age = 1927").unwrap();
        let Statement::Select(s) = s else { panic!() };
        assert_eq!(s.items.len(), 2);
        assert_eq!(s.from, "people");
        assert_eq!(s.where_.len(), 1);
        assert_eq!(s.where_[0].op, CmpOp::Eq);
    }

    #[test]
    fn parses_explain_and_trace() {
        let s = parse_sql("EXPLAIN SELECT name FROM people WHERE age = 1927").unwrap();
        let Statement::Explain(inner) = s else {
            panic!("expected Explain, got {s:?}")
        };
        assert_eq!(inner.from, "people");
        // the keywords are case-insensitive like the rest of the grammar
        let s = parse_sql("trace select name from people;").unwrap();
        let Statement::Trace(inner) = s else {
            panic!("expected Trace, got {s:?}")
        };
        assert_eq!(inner.from, "people");
        // the EXPLAIN surfaces and PROMOTE, which plan nothing
        for (sql, want) in [
            ("EXPLAIN REPLICATION", Statement::ExplainReplication),
            ("  explain sharding ; ", Statement::ExplainSharding),
            ("promote;", Statement::Promote),
        ] {
            assert_eq!(parse_sql(sql).unwrap(), want, "{sql}");
        }
        assert!(parse_sql("EXPLAIN SHARDING t").is_err());
        assert!(parse_sql("PROMOTE now").is_err());
        // EXPLAIN/TRACE wrap SELECT only
        assert!(parse_sql("EXPLAIN DROP TABLE people").is_err());
        assert!(parse_sql("TRACE INSERT INTO t VALUES (1)").is_err());
    }

    #[test]
    fn parses_aggregates_and_groups() {
        let Statement::Select(s) = parse_sql(
            "SELECT age, COUNT(*), SUM(age) FROM people GROUP BY age ORDER BY age DESC LIMIT 3;",
        )
        .unwrap() else {
            panic!()
        };
        assert_eq!(s.items[1], SelectItem::CountStar);
        assert!(matches!(s.items[2], SelectItem::Agg(AggKind::Sum, _)));
        assert_eq!(s.group_by.len(), 1);
        assert!(s.order_by.as_ref().unwrap().1);
        assert_eq!(s.limit, Some(3));
    }

    #[test]
    fn parses_between_as_two_preds() {
        let Statement::Select(s) =
            parse_sql("SELECT a FROM t WHERE a BETWEEN 5 AND 10 AND b = 'x'").unwrap()
        else {
            panic!()
        };
        assert_eq!(s.where_.len(), 3);
        assert_eq!(s.where_[0].op, CmpOp::Ge);
        assert_eq!(s.where_[1].op, CmpOp::Le);
        assert_eq!(s.where_[2].value, Scalar::Lit(Value::Str("x".into())));
    }

    #[test]
    fn parses_join() {
        let Statement::Select(s) =
            parse_sql("SELECT p.name, c.title FROM p JOIN c ON p.id = c.pid WHERE p.age > 30")
                .unwrap()
        else {
            panic!()
        };
        let j = s.join.unwrap();
        assert_eq!(j.table, "c");
        assert_eq!(j.left.table.as_deref(), Some("p"));
        assert_eq!(j.right.column, "pid");
    }

    #[test]
    fn parses_ddl_dml() {
        let s = parse_sql("CREATE TABLE t (a INT NOT NULL, b VARCHAR, c DOUBLE)").unwrap();
        let Statement::CreateTable(schema) = s else {
            panic!()
        };
        assert_eq!(schema.name, "t");
        assert_eq!(schema.columns.len(), 3);
        assert!(!schema.columns[0].nullable);
        assert_eq!(schema.columns[1].ty, LogicalType::Str);

        let s = parse_sql("INSERT INTO t VALUES (1, 'x', 2.5), (2, NULL, 0.5)").unwrap();
        let Statement::Insert { rows, .. } = s else {
            panic!()
        };
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1][1], Scalar::Lit(Value::Null));

        let s = parse_sql("DELETE FROM t WHERE a < 5").unwrap();
        assert!(matches!(s, Statement::Delete { .. }));
        let s = parse_sql("DROP TABLE t").unwrap();
        assert!(matches!(s, Statement::DropTable { .. }));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_sql("SELECT FROM").is_err());
        assert!(parse_sql("NONSENSE").is_err());
        assert!(parse_sql("SELECT a FROM t WHERE a ~ 3").is_err());
        assert!(parse_sql("SELECT a FROM t extra").is_err());
        assert!(parse_sql("CREATE TABLE t (a BLOB)").is_err());
    }

    #[test]
    fn parses_prepare_execute_deallocate() {
        let s =
            parse_sql("PREPARE q1 AS SELECT name FROM people WHERE age = ? AND name <> ?").unwrap();
        let Statement::Prepare { name, stmt } = s else {
            panic!()
        };
        assert_eq!(name, "q1");
        assert_eq!(stmt.param_count(), 2);
        let Statement::Select(inner) = *stmt else {
            panic!()
        };
        assert_eq!(inner.where_[0].value, Scalar::Param(0));
        assert_eq!(inner.where_[1].value, Scalar::Param(1));

        let s = parse_sql("EXECUTE q1 (1927, 'x');").unwrap();
        let Statement::Execute { name, args } = s else {
            panic!()
        };
        assert_eq!(name, "q1");
        assert_eq!(args, vec![Value::I32(1927), Value::Str("x".into())]);
        // zero-arg spellings, with and without parens
        assert!(matches!(
            parse_sql("EXECUTE q2").unwrap(),
            Statement::Execute { args, .. } if args.is_empty()
        ));
        assert!(matches!(
            parse_sql("EXECUTE q2 ()").unwrap(),
            Statement::Execute { args, .. } if args.is_empty()
        ));
        assert!(matches!(
            parse_sql("DEALLOCATE q1").unwrap(),
            Statement::Deallocate { name } if name == "q1"
        ));
        assert!(matches!(
            parse_sql("DEALLOCATE PREPARE q1").unwrap(),
            Statement::Deallocate { name } if name == "q1"
        ));
    }

    #[test]
    fn params_number_left_to_right_across_clauses() {
        let s = parse_sql("PREPARE ins AS INSERT INTO t VALUES (?, 'a', ?), (3, ?, ?)").unwrap();
        let Statement::Prepare { stmt, .. } = s else {
            panic!()
        };
        assert_eq!(stmt.param_count(), 4);
        let Statement::Insert { rows, .. } = *stmt else {
            panic!()
        };
        assert_eq!(rows[0][0], Scalar::Param(0));
        assert_eq!(rows[0][2], Scalar::Param(1));
        assert_eq!(rows[1][1], Scalar::Param(2));
        assert_eq!(rows[1][2], Scalar::Param(3));
        // BETWEEN expands with params too
        let s = parse_sql("PREPARE r AS SELECT a FROM t WHERE a BETWEEN ? AND ?").unwrap();
        assert_eq!(s.param_count(), 2);
    }

    #[test]
    fn prepare_rejects_nesting_and_execute_rejects_placeholders() {
        assert!(parse_sql("PREPARE a AS PREPARE b AS SELECT 1 FROM t").is_err());
        assert!(parse_sql("PREPARE a AS EXECUTE b").is_err());
        assert!(parse_sql("PREPARE a AS DEALLOCATE b").is_err());
        // EXECUTE arguments are literals, never placeholders
        assert!(parse_sql("EXECUTE q (?)").is_err());
    }

    #[test]
    fn a_prepare_frame_parses_to_the_statement_its_text_would() {
        let body = "SELECT a FROM t WHERE a > ? AND b = ?;";
        let framed = parse_prepare("q1", body).unwrap();
        assert_eq!(framed, parse_sql(&format!("PREPARE q1 AS {body}")).unwrap());
        assert_eq!(framed.param_count(), 2);
        for name in ["", "1x", "a b", "a; DROP TABLE t", "'q'"] {
            assert!(parse_prepare(name, body).is_err(), "{name:?}");
        }
        assert!(parse_prepare("q", "EXECUTE other").is_err());
        assert!(parse_prepare("q", "SELECT FROM").is_err());
    }

    #[test]
    fn exponent_floats_are_literals() {
        let Statement::Insert { rows, .. } =
            parse_sql("INSERT INTO t VALUES (1e-7, 2.5E+16, -1e300)").unwrap()
        else {
            panic!()
        };
        let want = [1e-7, 2.5e16, -1e300].map(|f| Scalar::Lit(Value::F64(f)));
        assert_eq!(rows, vec![want.to_vec()]);
    }

    #[test]
    fn bind_params_substitutes_and_checks_arity() {
        let Statement::Prepare { stmt, .. } =
            parse_sql("PREPARE q AS SELECT a FROM t WHERE a > ? AND b = ?").unwrap()
        else {
            panic!()
        };
        let bound = stmt
            .bind_params(&[Value::I32(5), Value::Str("x".into())])
            .unwrap();
        let Statement::Select(s) = bound else {
            panic!()
        };
        assert_eq!(s.where_[0].value, Scalar::Lit(Value::I32(5)));
        assert_eq!(s.where_[1].value, Scalar::Lit(Value::Str("x".into())));
        assert!(stmt.bind_params(&[Value::I32(5)]).is_err(), "too few args");
    }

    #[test]
    fn count_as_column_name_is_allowed() {
        // `count` without parens is an identifier
        let Statement::Select(s) = parse_sql("SELECT count FROM t").unwrap() else {
            panic!()
        };
        assert!(matches!(&s.items[0], SelectItem::Column(c) if c.column == "count"));
    }
}
