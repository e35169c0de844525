//! The SQL printer: `Display` for the AST, the inverse of [`crate::parser`].
//!
//! `parse_sql(&stmt.to_string()) == Ok(stmt)` for every statement the
//! parser produces. The shard coordinator relies on it: what it ships to a
//! shard is a statement printed here and read back there. One spelling
//! per construct: `BETWEEN` prints as the two comparisons it parsed into,
//! `<>` for both inequality spellings, `EXECUTE p` without parentheses
//! when there are no arguments.

use crate::ast::*;
use mammoth_algebra::CmpOp;
use mammoth_types::Value;
use std::fmt::{self, Display, Formatter};

/// A value as the literal the lexer reads back: `''`-doubled strings,
/// `{:?}` floats (so `1.0` stays a float, and small or large ones carry
/// an exponent), bare digits for integers. The parser types an integer
/// literal by its size alone, so `I8`, `I16` and `Oid` come back as `I32`
/// or `I64`; a non-finite float has no literal at all.
pub(crate) struct Literal<'a>(pub &'a Value);

impl Display for Literal<'_> {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        match self.0 {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => f.write_str(if *b { "TRUE" } else { "FALSE" }),
            Value::I8(x) => write!(f, "{x}"),
            Value::I16(x) => write!(f, "{x}"),
            Value::I32(x) => write!(f, "{x}"),
            Value::I64(x) => write!(f, "{x}"),
            Value::F64(x) => write!(f, "{x:?}"),
            Value::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
            Value::Oid(x) => write!(f, "{x}"),
        }
    }
}

/// `items` separated by `sep`.
fn join<T: Display>(
    f: &mut Formatter<'_>,
    items: impl IntoIterator<Item = T>,
    sep: &str,
) -> fmt::Result {
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            f.write_str(sep)?;
        }
        item.fmt(f)?;
    }
    Ok(())
}

/// ` WHERE p AND q`, or nothing for no predicates.
pub(crate) struct Where<'a>(pub &'a [Predicate]);

impl Display for Where<'_> {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return Ok(());
        }
        f.write_str(" WHERE ")?;
        join(f, self.0, " AND ")
    }
}

impl Display for ColumnRef {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        if let Some(t) = &self.table {
            write!(f, "{t}.")?;
        }
        f.write_str(&self.column)
    }
}

impl Display for Scalar {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        match self {
            Scalar::Lit(v) => Literal(v).fmt(f),
            Scalar::Param(_) => f.write_str("?"),
        }
    }
}

impl Display for Predicate {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        let op = match self.op {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{} {op} {}", self.col, self.value)
    }
}

impl Display for SelectItem {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        match self {
            SelectItem::Column(c) => c.fmt(f),
            SelectItem::CountStar => f.write_str("COUNT(*)"),
            SelectItem::Agg(kind, c) => {
                let named = AGGREGATES.iter().find(|(_, k)| k == kind);
                write!(f, "{}({c})", named.expect("every kind has a name").0)
            }
        }
    }
}

impl Display for SelectStmt {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        f.write_str("SELECT ")?;
        join(f, &self.items, ", ")?;
        write!(f, " FROM {}", self.from)?;
        if let Some(j) = &self.join {
            write!(f, " JOIN {} ON {} = {}", j.table, j.left, j.right)?;
        }
        Where(&self.where_).fmt(f)?;
        if !self.group_by.is_empty() {
            f.write_str(" GROUP BY ")?;
            join(f, &self.group_by, ", ")?;
        }
        if let Some((c, desc)) = &self.order_by {
            write!(f, " ORDER BY {c}{}", if *desc { " DESC" } else { "" })?;
        }
        if let Some(n) = self.limit {
            write!(f, " LIMIT {n}")?;
        }
        Ok(())
    }
}

impl Display for Statement {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        match self {
            Statement::CreateTable(schema) => {
                write!(f, "CREATE TABLE {} (", schema.name)?;
                for (i, c) in schema.columns.iter().enumerate() {
                    let sep = if i > 0 { ", " } else { "" };
                    let not_null = if c.nullable { "" } else { " NOT NULL" };
                    write!(f, "{sep}{} {}{not_null}", c.name, c.ty)?;
                }
                f.write_str(")")
            }
            Statement::DropTable { name } => write!(f, "DROP TABLE {name}"),
            Statement::Insert { table, rows } => {
                write!(f, "INSERT INTO {table} VALUES ")?;
                for (i, row) in rows.iter().enumerate() {
                    f.write_str(if i > 0 { ", (" } else { "(" })?;
                    join(f, row, ", ")?;
                    f.write_str(")")?;
                }
                Ok(())
            }
            Statement::Delete { table, where_ } => {
                write!(f, "DELETE FROM {table}{}", Where(where_))
            }
            Statement::Select(s) => s.fmt(f),
            Statement::Explain(s) => write!(f, "EXPLAIN {s}"),
            Statement::ExplainReplication => f.write_str("EXPLAIN REPLICATION"),
            Statement::ExplainSharding => f.write_str("EXPLAIN SHARDING"),
            Statement::Promote => f.write_str("PROMOTE"),
            Statement::Trace(s) => write!(f, "TRACE {s}"),
            Statement::Checkpoint => f.write_str("CHECKPOINT"),
            Statement::Prepare { name, stmt } => write!(f, "PREPARE {name} AS {stmt}"),
            Statement::Execute { name, args } if args.is_empty() => write!(f, "EXECUTE {name}"),
            Statement::Execute { name, args } => {
                write!(f, "EXECUTE {name} (")?;
                join(f, args.iter().map(Literal), ", ")?;
                f.write_str(")")
            }
            Statement::Deallocate { name } => write!(f, "DEALLOCATE {name}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_sql;
    use mammoth_types::{ColumnDef, LogicalType, TableSchema};
    use proptest::prelude::*;
    use proptest::TestRng;

    /// Draws statements from the parser's image: what `parse_sql` can
    /// return, so integer literals are `I32` when they fit and `I64`
    /// otherwise, and `?` placeholders number left to right.
    struct Gen<'r> {
        rng: &'r mut TestRng,
        nparams: usize,
    }

    impl Gen<'_> {
        fn below(&mut self, n: usize) -> usize {
            (0..n).generate(self.rng)
        }

        fn some<T>(&mut self, mut one: impl FnMut(&mut Self) -> T, lo: usize, hi: usize) -> Vec<T> {
            let n = lo + self.below(hi - lo + 1);
            (0..n).map(|_| one(self)).collect()
        }

        /// No keyword of the grammar starts with an `x`.
        fn ident(&mut self) -> String {
            format!("x{}", "[a-z0-9_]{0,5}".generate(self.rng))
        }

        fn column(&mut self) -> ColumnRef {
            let table = (self.below(3) == 0).then(|| self.ident());
            let column = self.ident();
            ColumnRef { table, column }
        }

        fn value(&mut self) -> Value {
            match self.below(8) {
                0 => Value::Null,
                1 => Value::Bool(self.below(2) == 0),
                2 => Value::I32(proptest::num::i32::ANY.generate(self.rng)),
                3 => match proptest::num::i64::ANY.generate(self.rng) {
                    x if i32::try_from(x).is_ok() => Value::I32(x as i32),
                    x => Value::I64(x),
                },
                // Rust prints an exponent below 1e-5 and from 1e16 up
                4 => Value::F64([1e-7, 2.5e16, -1e300, 1e16, 9.9e-6, -0.0, 1.0][self.below(7)]),
                5 => {
                    let mantissa = f64::from(proptest::num::i32::ANY.generate(self.rng));
                    Value::F64(mantissa * 10f64.powi((-300..=290).generate(self.rng)))
                }
                _ => Value::Str("[a-zA-Z0-9' \n;?%é-]{0,8}".generate(self.rng)),
            }
        }

        fn scalar(&mut self) -> Scalar {
            if self.below(4) == 0 {
                self.nparams += 1;
                return Scalar::Param(self.nparams - 1);
            }
            Scalar::Lit(self.value())
        }

        fn predicate(&mut self) -> Predicate {
            use CmpOp::*;
            Predicate {
                col: self.column(),
                op: [Eq, Ne, Lt, Le, Gt, Ge][self.below(6)],
                value: self.scalar(),
            }
        }

        fn select(&mut self) -> SelectStmt {
            let items = self.some(
                |g| match g.below(3) {
                    0 => SelectItem::CountStar,
                    1 => SelectItem::Column(g.column()),
                    _ => SelectItem::Agg(AGGREGATES[g.below(5)].1, g.column()),
                },
                1,
                3,
            );
            let from = self.ident();
            let join = (self.below(3) == 0).then(|| JoinClause {
                table: self.ident(),
                left: self.column(),
                right: self.column(),
            });
            SelectStmt {
                items,
                from,
                join,
                where_: self.some(Self::predicate, 0, 3),
                group_by: self.some(Self::column, 0, 2),
                order_by: (self.below(2) == 0).then(|| (self.column(), self.below(2) == 0)),
                limit: (self.below(2) == 0).then(|| self.below(1000)),
            }
        }

        /// Variant `which` of the fifteen.
        fn statement(&mut self, which: usize) -> Statement {
            use LogicalType::*;
            match which {
                0 => {
                    let column = |g: &mut Self| ColumnDef {
                        name: g.ident(),
                        ty: [Bool, I8, I16, I32, I64, F64, Str, Oid][g.below(8)],
                        nullable: g.below(2) == 0,
                    };
                    let columns = self.some(column, 1, 4);
                    Statement::CreateTable(TableSchema::new(self.ident(), columns))
                }
                1 => Statement::DropTable { name: self.ident() },
                2 => {
                    let table = self.ident();
                    let (width, n) = (1 + self.below(3), 1 + self.below(3));
                    let cells = self.some(Self::scalar, width * n, width * n);
                    let rows = Rows { width, cells };
                    Statement::Insert { table, rows }
                }
                3 => Statement::Delete {
                    table: self.ident(),
                    where_: self.some(Self::predicate, 0, 3),
                },
                4 => Statement::Select(self.select()),
                5 => Statement::Explain(self.select()),
                6 => Statement::Trace(self.select()),
                7 => Statement::ExplainReplication,
                8 => Statement::ExplainSharding,
                9 => Statement::Promote,
                10 => Statement::Checkpoint,
                11 => Statement::Execute {
                    name: self.ident(),
                    args: self.some(Self::value, 0, 3),
                },
                12 => Statement::Deallocate { name: self.ident() },
                // PREPARE wraps anything but the prepared-statement verbs
                _ => {
                    let inner = self.below(11);
                    Statement::Prepare {
                        name: self.ident(),
                        stmt: Box::new(self.statement(inner)),
                    }
                }
            }
        }
    }

    /// One statement of every variant (`PREPARE` twice).
    struct EveryVariant;

    impl Strategy for EveryVariant {
        type Value = Vec<Statement>;

        fn generate(&self, rng: &mut TestRng) -> Vec<Statement> {
            let one = |which| Gen { rng, nparams: 0 }.statement(which);
            (0..15).map(one).collect()
        }
    }

    proptest! {
        #[test]
        fn the_parser_reads_back_what_the_printer_wrote(stmts in EveryVariant) {
            for stmt in stmts {
                let text = stmt.to_string();
                prop_assert_eq!(parse_sql(&text), Ok(stmt), "{}", text);
            }
        }
    }

    /// The text the coordinator's scatter legs and plan-cache keys are made
    /// of is pinned to the character: fragments cross the wire as this.
    #[test]
    fn statements_print_in_one_canonical_spelling() {
        for sql in [
            "SELECT a, s FROM t",
            "SELECT t.a FROM t JOIN u ON t.a = u.b WHERE a > 3 AND s = 'it''s'",
            "SELECT a, COUNT(*) FROM t GROUP BY a ORDER BY a DESC LIMIT 7",
            "SELECT MIN(f), MAX(a) FROM t WHERE f < 2.5 AND g >= 1e-7 AND h <> ?",
            "INSERT INTO t VALUES (1, 'x', NULL), (-2, TRUE, 1e16)",
            "DELETE FROM t WHERE a = 9223372036854775807",
            "CREATE TABLE t (a int NOT NULL, b string, c double)",
            "PREPARE p AS DELETE FROM t WHERE a < ?",
            "EXECUTE p (1, 'it''s', 2.0, NULL)",
            "EXECUTE p",
        ] {
            assert_eq!(parse_sql(sql).unwrap().to_string(), sql);
        }
        let spelled = |sql: &str| parse_sql(sql).unwrap().to_string();
        assert_eq!(
            spelled("select a from t where a between 1 and 2 and b != 3;"),
            "SELECT a FROM t WHERE a >= 1 AND a <= 2 AND b <> 3"
        );
        assert_eq!(spelled("EXECUTE p ()"), "EXECUTE p");
        assert_eq!(spelled("DEALLOCATE PREPARE p"), "DEALLOCATE p");
    }
}
