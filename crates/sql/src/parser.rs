//! Recursive-descent SQL parser.
//!
//! The parser reads each token once: it keeps one token of lookahead, so
//! [`Parser::peek`] never lexes again, and it never rewinds the lexer. A
//! name is folded to ASCII lowercase here, once, when the parser takes it
//! as an owned `String` (the lexer's tokens borrow the source as written).

use crate::ast::*;
use crate::lexer::{unquote, SqlLexer, Token};
use mammoth_algebra::{AggKind, CmpOp};
use mammoth_types::{ColumnDef, Error, LogicalType, Result, TableSchema, Value};

/// Parse one SQL statement (a trailing `;` is optional).
pub fn parse_sql(src: &str) -> Result<Statement> {
    let mut p = Parser::new(src);
    let stmt = p.statement()?;
    // allow trailing semicolon and require EOF
    if p.peek()? == Token::Semi {
        p.next()?;
    }
    match p.next()? {
        Token::Eof => Ok(stmt),
        t => Err(p.err(format!("trailing input: {t:?}"))),
    }
}

/// `PREPARE name AS body` from its two parts — what a protocol-v4
/// `Prepare` frame carries. `name` must be one identifier, as the grammar
/// would have read it.
pub fn parse_prepare(name: &str, body: &str) -> Result<Statement> {
    let mut p = Parser::new(name);
    match (p.next()?, p.next()?) {
        (Token::Ident(name), Token::Eof) => prepared(fold(name), parse_sql(body)?, 0),
        _ => Err(p.err("a prepared statement's name is one identifier")),
    }
}

/// A name as the catalog and the prepared-statement registry hold it: ASCII
/// lowercase (DESIGN.md, the `sql` row).
fn fold(name: &str) -> String {
    name.to_ascii_lowercase()
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
    /// The lookahead slot: a token [`Parser::peek`] lexed and nothing took
    /// yet, with the offset it was lexed from.
    ahead: Option<(usize, Token<'a>)>,
    /// `?` placeholders seen so far — they number left-to-right.
    nparams: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Parser<'a> {
        Parser {
            lex: SqlLexer::new(src),
            ahead: None,
            nparams: 0,
        }
    }

    /// The next token, left in place for [`Parser::next`].
    fn peek(&mut self) -> Result<Token<'a>> {
        if let Some((_, t)) = self.ahead {
            return Ok(t);
        }
        let pos = self.lex.pos();
        let t = self.lex.next()?;
        self.ahead = Some((pos, t));
        Ok(t)
    }

    /// The next token, taken.
    fn next(&mut self) -> Result<Token<'a>> {
        match self.ahead.take() {
            Some((_, t)) => Ok(t),
            None => self.lex.next(),
        }
    }

    /// The offset parsing has reached: before a peeked token, after a
    /// taken one.
    fn pos(&self) -> usize {
        self.ahead.map_or(self.lex.pos(), |(pos, _)| pos)
    }

    fn err(&self, message: impl Into<String>) -> Error {
        Error::Parse {
            pos: self.pos(),
            message: message.into(),
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        let t = self.next()?;
        if t.is_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected {kw}, got {t:?}")))
        }
    }

    fn accept_kw(&mut self, kw: &str) -> Result<bool> {
        let hit = self.peek()?.is_kw(kw);
        if hit {
            self.next()?;
        }
        Ok(hit)
    }

    /// Take the next token if it is `t`.
    fn accept(&mut self, t: Token<'_>) -> Result<bool> {
        let hit = self.peek()? == t;
        if hit {
            self.next()?;
        }
        Ok(hit)
    }

    fn expect(&mut self, t: Token<'_>) -> Result<()> {
        let got = self.next()?;
        if got == t {
            Ok(())
        } else {
            Err(self.err(format!("expected {t:?}, got {got:?}")))
        }
    }

    /// An identifier, folded: a name as the catalog holds it.
    fn ident(&mut self) -> Result<String> {
        match self.next()? {
            Token::Ident(s) => Ok(fold(s)),
            t => Err(self.err(format!("expected identifier, got {t:?}"))),
        }
    }

    /// `item, item, …`: one or more.
    fn list<T>(&mut self, mut item: impl FnMut(&mut Self) -> Result<T>) -> Result<Vec<T>> {
        let mut out = vec![item(self)?];
        while self.accept(Token::Comma)? {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// `(item, item, …)`.
    fn tuple<T>(&mut self, item: impl FnMut(&mut Self) -> Result<T>) -> Result<Vec<T>> {
        self.expect(Token::LParen)?;
        let mut out = Vec::new();
        self.tuple_into(&mut out, item)?;
        Ok(out)
    }

    /// `item, item, …)`: the rest of a tuple whose `(` was taken, each item
    /// pushed onto `out` as it is read.
    fn tuple_into<T>(
        &mut self,
        out: &mut Vec<T>,
        mut item: impl FnMut(&mut Self) -> Result<T>,
    ) -> Result<()> {
        loop {
            out.push(item(self)?);
            match self.next()? {
                Token::Comma => {}
                Token::RParen => return Ok(()),
                t => return Err(self.err(format!("expected ',' or ')', got {t:?}"))),
            }
        }
    }

    fn statement(&mut self) -> Result<Statement> {
        let t = self.peek()?;
        if t.is_kw("SELECT") {
            Ok(Statement::Select(self.select()?))
        } else if t.is_kw("EXPLAIN") {
            self.next()?;
            if self.accept_kw("REPLICATION")? {
                Ok(Statement::ExplainReplication)
            } else if self.accept_kw("SHARDING")? {
                Ok(Statement::ExplainSharding)
            } else {
                Ok(Statement::Explain(self.select()?))
            }
        } else if t.is_kw("TRACE") {
            self.next()?;
            Ok(Statement::Trace(self.select()?))
        } else if t.is_kw("CREATE") {
            self.create_table()
        } else if t.is_kw("DROP") {
            self.next()?;
            self.expect_kw("TABLE")?;
            Ok(Statement::DropTable {
                name: self.ident()?,
            })
        } else if t.is_kw("INSERT") {
            self.insert()
        } else if t.is_kw("DELETE") {
            self.delete()
        } else if t.is_kw("CHECKPOINT") {
            self.next()?;
            Ok(Statement::Checkpoint)
        } else if t.is_kw("PROMOTE") {
            self.next()?;
            Ok(Statement::Promote)
        } else if t.is_kw("PREPARE") {
            self.prepare()
        } else if t.is_kw("EXECUTE") {
            self.execute()
        } else if t.is_kw("DEALLOCATE") {
            self.next()?;
            let _ = self.accept_kw("PREPARE")?;
            Ok(Statement::Deallocate {
                name: self.ident()?,
            })
        } else {
            Err(self.err(format!("expected a statement, got {t:?}")))
        }
    }

    fn prepare(&mut self) -> Result<Statement> {
        self.expect_kw("PREPARE")?;
        let name = self.ident()?;
        self.expect_kw("AS")?;
        let pos = self.pos();
        prepared(name, self.statement()?, pos)
    }

    fn execute(&mut self) -> Result<Statement> {
        self.expect_kw("EXECUTE")?;
        let name = self.ident()?;
        let mut args = Vec::new();
        // `()` is no arguments, as is no tuple at all
        if self.accept(Token::LParen)? && !self.accept(Token::RParen)? {
            self.tuple_into(&mut args, Self::literal)?;
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
                .ok_or_else(|| p.err(format!("unknown type {tyname}")))?;
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
        let t = self.next()?;
        self.literal_of(t)
    }

    /// The literal `t` spells.
    fn literal_of(&self, t: Token<'_>) -> Result<Value> {
        Ok(match t {
            Token::Int(x) => {
                if let Ok(v) = i32::try_from(x) {
                    Value::I32(v)
                } else {
                    Value::I64(x)
                }
            }
            Token::Float(f) => Value::F64(f),
            Token::Str { raw, escaped } => Value::Str(unquote(raw, escaped)),
            t if t.is_kw("NULL") => Value::Null,
            t if t.is_kw("TRUE") => Value::Bool(true),
            t if t.is_kw("FALSE") => Value::Bool(false),
            t => return Err(self.err(format!("expected a literal, got {t:?}"))),
        })
    }

    /// A literal or a `?` placeholder (numbered in occurrence order).
    fn scalar(&mut self) -> Result<Scalar> {
        match self.next()? {
            Token::Question => {
                let n = self.nparams;
                self.nparams += 1;
                Ok(Scalar::Param(n))
            }
            t => Ok(Scalar::Lit(self.literal_of(t)?)),
        }
    }

    /// `INSERT INTO t VALUES (…), (…)`: every tuple's cells land in one
    /// row-major array, as wide as the first tuple — a tuple of another
    /// width is a parse error naming it.
    fn insert(&mut self) -> Result<Statement> {
        self.expect_kw("INSERT")?;
        self.expect_kw("INTO")?;
        let table = self.ident()?;
        self.expect_kw("VALUES")?;
        let mut cells = Vec::new();
        let mut width = 0;
        let mut row = 1;
        loop {
            self.expect(Token::LParen)?;
            let start = cells.len();
            self.tuple_into(&mut cells, Self::scalar)?;
            let len = cells.len() - start;
            if row == 1 {
                width = len;
            } else if len != width {
                return Err(self.err(format!(
                    "VALUES row {row} has {len} value(s), row 1 has {width}"
                )));
            }
            if !self.accept(Token::Comma)? {
                break;
            }
            row += 1;
        }
        let rows = Rows { width, cells };
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
        self.column_ref_after(first)
    }

    /// The rest of a column reference whose first name was taken.
    fn column_ref_after(&mut self, first: String) -> Result<ColumnRef> {
        if self.accept(Token::Dot)? {
            Ok(ColumnRef {
                table: Some(first),
                column: self.ident()?,
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
                let op = match self.next()? {
                    Token::Op(op) => op,
                    t => return Err(self.err(format!("expected operator, got {t:?}"))),
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
        let t = self.peek()?;
        if let Some(&(_, kind)) = AGGREGATES.iter().find(|(name, _)| t.is_kw(name)) {
            // aggregates require parentheses; a bare identifier named like
            // an aggregate is a column
            let name = self.ident()?;
            if !self.accept(Token::LParen)? {
                return Ok(SelectItem::Column(self.column_ref_after(name)?));
            }
            if kind == AggKind::Count && self.accept(Token::Star)? {
                self.expect(Token::RParen)?;
                return Ok(SelectItem::CountStar);
            }
            let col = self.column_ref()?;
            self.expect(Token::RParen)?;
            return Ok(SelectItem::Agg(kind, col));
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
            match self.next()? {
                Token::Op(CmpOp::Eq) => {}
                t => return Err(self.err(format!("JOIN requires '=', got {t:?}"))),
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
            match self.next()? {
                Token::Int(n) if n >= 0 => Some(n as usize),
                t => return Err(self.err(format!("LIMIT needs a count, got {t:?}"))),
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
        assert_eq!(rows, Rows::from_iter([want]));
    }

    #[test]
    fn values_land_row_major_in_one_array() {
        let Statement::Insert { table, rows } =
            parse_sql("insert into T values (1, 'a'), (2, 'b''c'), (3, NULL)").unwrap()
        else {
            panic!()
        };
        assert_eq!(table, "t");
        assert_eq!((rows.width, rows.len()), (2, 3));
        let int = |k| Scalar::Lit(Value::I32(k));
        let text = |s: &str| Scalar::Lit(Value::Str(s.into()));
        let null = Scalar::Lit(Value::Null);
        let want = [int(1), text("a"), int(2), text("b'c"), int(3), null];
        assert_eq!(rows.cells, want);
        let second: Vec<&[Scalar]> = rows.iter().skip(1).take(1).collect();
        assert_eq!(second, [&rows[1]]);
    }

    #[test]
    fn a_ragged_values_list_is_a_parse_error_naming_the_row() {
        for (sql, row) in [
            ("INSERT INTO t VALUES (1, 2), (3)", 2),
            ("INSERT INTO t VALUES (1), (2), (3, 4)", 3),
            ("INSERT INTO t VALUES (1, 2), (3, 4), (5, 6, 7), (8)", 3),
        ] {
            match parse_sql(sql) {
                Err(Error::Parse { message, .. }) => {
                    assert!(message.contains(&format!("row {row} ")), "{sql}: {message}");
                }
                other => panic!("{sql}: {other:?}"),
            }
        }
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
