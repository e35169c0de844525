//! The SQL abstract syntax tree.

use mammoth_algebra::{AggKind, CmpOp};
use mammoth_types::{Error, LogicalType, Result, TableSchema, Value};

/// A (possibly table-qualified) column reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnRef {
    pub table: Option<String>,
    pub column: String,
}

impl ColumnRef {
    pub fn new(table: Option<&str>, column: &str) -> ColumnRef {
        ColumnRef {
            table: table.map(|s| s.to_string()),
            column: column.to_string(),
        }
    }
}

/// The aggregate functions by name, as the parser reads them (in any
/// case) and the printer writes them.
pub(crate) const AGGREGATES: [(&str, AggKind); 5] = [
    ("COUNT", AggKind::Count),
    ("SUM", AggKind::Sum),
    ("MIN", AggKind::Min),
    ("MAX", AggKind::Max),
    ("AVG", AggKind::Avg),
];

/// One item of the SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// A plain column.
    Column(ColumnRef),
    /// `COUNT(*)`.
    CountStar,
    /// `SUM(col)`, `MIN(col)`, `MAX(col)`, `AVG(col)`, `COUNT(col)`.
    Agg(AggKind, ColumnRef),
}

/// A literal value or a `?` parameter placeholder. Placeholders are
/// numbered left-to-right (0-based) across the whole statement; they are
/// legal only inside `PREPARE` — executing a statement that still carries
/// one is a bind error.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar {
    Lit(Value),
    Param(usize),
}

impl Scalar {
    /// The literal value, if this is not a placeholder.
    pub fn as_lit(&self) -> Option<&Value> {
        match self {
            Scalar::Lit(v) => Some(v),
            Scalar::Param(_) => None,
        }
    }

    /// Resolve against EXECUTE bindings: a literal passes through, a
    /// placeholder takes `args[n]`.
    pub fn bind(&self, args: &[Value]) -> Result<Value> {
        match self {
            Scalar::Lit(v) => Ok(v.clone()),
            Scalar::Param(n) => args.get(*n).cloned().ok_or_else(|| {
                Error::Bind(format!(
                    "EXECUTE supplies {} argument(s) but the statement uses ?{n}",
                    args.len()
                ))
            }),
        }
    }

    /// [`Scalar::bind`] by move: a literal is taken, not copied.
    pub fn into_bound(self, args: &[Value]) -> Result<Value> {
        match self {
            Scalar::Lit(v) => Ok(v),
            param => param.bind(args),
        }
    }
}

impl From<Value> for Scalar {
    fn from(v: Value) -> Scalar {
        Scalar::Lit(v)
    }
}

/// A conjunct of the WHERE clause: `col op literal-or-param`.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    pub col: ColumnRef,
    pub op: CmpOp,
    pub value: Scalar,
}

/// A [`Predicate`] read as one side of a range over its column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangeBound<'a> {
    pub lower: bool,
    pub inclusive: bool,
    pub value: &'a Value,
}

impl Predicate {
    /// This predicate as a range bound on a column of type `ty`, if it is
    /// one. Only literals the column does not store as its nil qualify: a
    /// range select reads a nil bound as *open*, while a comparison with
    /// NULL — written out, bound to a `?` at EXECUTE time, or a literal that
    /// is the column type's nil sentinel — selects nothing.
    fn range_bound(&self, ty: LogicalType) -> Option<RangeBound<'_>> {
        let (lower, inclusive) = match self.op {
            CmpOp::Gt => (true, false),
            CmpOp::Ge => (true, true),
            CmpOp::Lt => (false, false),
            CmpOp::Le => (false, true),
            CmpOp::Eq | CmpOp::Ne => return None,
        };
        let value = self.value.as_lit().filter(|v| !v.reads_as_null(ty))?;
        Some(RangeBound {
            lower,
            inclusive,
            value,
        })
    }

    /// `(lo, hi)` when `self` and `other` bound the same-named column, of
    /// type `ty`, from opposite sides, so one range select can evaluate both.
    pub fn range_with<'a>(
        &'a self,
        other: &'a Predicate,
        ty: LogicalType,
    ) -> Option<(RangeBound<'a>, RangeBound<'a>)> {
        let (a, b) = (self.range_bound(ty)?, other.range_bound(ty)?);
        let same_column = self.col.column == other.col.column;
        (same_column && a.lower != b.lower).then_some(if a.lower { (a, b) } else { (b, a) })
    }
}

/// An inner equi-join: `JOIN <table> ON <left col> = <right col>`.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinClause {
    pub table: String,
    pub left: ColumnRef,
    pub right: ColumnRef,
}

/// A SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    pub items: Vec<SelectItem>,
    pub from: String,
    pub join: Option<JoinClause>,
    /// AND-composed predicates.
    pub where_: Vec<Predicate>,
    pub group_by: Vec<ColumnRef>,
    pub order_by: Option<(ColumnRef, bool)>, // (column, descending)
    pub limit: Option<usize>,
}

/// Any supported statement.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)] // statements are built once per query
pub enum Statement {
    CreateTable(TableSchema),
    DropTable {
        name: String,
    },
    Insert {
        table: String,
        rows: Vec<Vec<Scalar>>,
    },
    Delete {
        table: String,
        where_: Vec<Predicate>,
    },
    Select(SelectStmt),
    /// `EXPLAIN SELECT ...` — the optimized MAL plan as a result table.
    Explain(SelectStmt),
    /// `EXPLAIN REPLICATION` — the node's replication role and lag as a
    /// `(field, value)` table; nothing to plan.
    ExplainReplication,
    /// `EXPLAIN SHARDING` — the partition map and per-shard row counts.
    /// A shard coordinator answers it; a single node has no shards to
    /// report and refuses.
    ExplainSharding,
    /// `PROMOTE` — ask a read-only replica to take over as primary. The
    /// replica's server answers it in front of its read-only gate; a
    /// session on its own has no role to change and refuses.
    Promote,
    /// `TRACE SELECT ...` — execute and return the per-instruction profile.
    Trace(SelectStmt),
    /// `CHECKPOINT` — fold the WAL into a fresh atomic checkpoint
    /// (durable sessions only).
    Checkpoint,
    /// `PREPARE name AS <stmt>` — register a (possibly parameterized)
    /// statement under a handle.
    Prepare {
        name: String,
        stmt: Box<Statement>,
    },
    /// `EXECUTE name (args)` — run a prepared statement with bindings.
    Execute {
        name: String,
        args: Vec<Value>,
    },
    /// `DEALLOCATE [PREPARE] name` — drop a prepared statement.
    Deallocate {
        name: String,
    },
}

impl Statement {
    /// Whether the statement can run through `&Session` next to other
    /// readers: `SELECT` / `EXPLAIN …`, and the prepared-statement verbs
    /// (which only touch the Mutex-guarded registry). `TRACE` is not — it
    /// records the session's last profile. `EXECUTE` of prepared DML reads
    /// as far as the registry and then turns out to write:
    /// [`Session::execute_read_stmt`](crate::Session::execute_read_stmt)
    /// hands that statement back for the exclusive path. `EXPLAIN SHARDING`
    /// and `PROMOTE` are no session's to answer at either door; they take
    /// the exclusive one to be refused there.
    pub fn is_read(&self) -> bool {
        matches!(
            self,
            Statement::Select(_)
                | Statement::Explain(_)
                | Statement::ExplainReplication
                | Statement::Prepare { .. }
                | Statement::Execute { .. }
                | Statement::Deallocate { .. }
        )
    }

    /// Where the statement holds its literals and placeholders, in the
    /// order the parser numbers them: `WHERE` conjuncts or `VALUES` rows —
    /// for a `PREPARE`, those of the statement it wraps.
    fn slots(&self) -> (&[Predicate], &[Vec<Scalar>]) {
        match self {
            Statement::Select(s) | Statement::Explain(s) | Statement::Trace(s) => (&s.where_, &[]),
            Statement::Delete { where_, .. } => (where_, &[]),
            Statement::Insert { rows, .. } => (&[], rows),
            Statement::Prepare { stmt, .. } => stmt.slots(),
            _ => (&[], &[]),
        }
    }

    fn slots_mut(&mut self) -> (&mut [Predicate], &mut [Vec<Scalar>]) {
        match self {
            Statement::Select(s) | Statement::Explain(s) | Statement::Trace(s) => {
                (&mut s.where_, &mut [])
            }
            Statement::Delete { where_, .. } => (where_, &mut []),
            Statement::Insert { rows, .. } => (&mut [], rows),
            Statement::Prepare { stmt, .. } => stmt.slots_mut(),
            _ => (&mut [], &mut []),
        }
    }

    /// The number of `?` placeholder slots this statement uses
    /// (`max index + 1`; placeholders are numbered densely by the parser).
    pub fn param_count(&self) -> usize {
        let (preds, rows) = self.slots();
        let scalars = preds.iter().map(|p| &p.value).chain(rows.iter().flatten());
        let used = scalars.filter_map(|s| match s {
            Scalar::Param(n) => Some(n + 1),
            Scalar::Lit(_) => None,
        });
        used.max().unwrap_or(0)
    }

    /// Substitute every `?` placeholder from `args`, producing a fully
    /// concrete statement. Errors when `args` is too short; extra
    /// arguments are rejected by the caller (which knows the handle name).
    pub fn bind_params(&self, args: &[Value]) -> Result<Statement> {
        let mut bound = self.clone();
        let (preds, rows) = bound.slots_mut();
        let scalars = preds.iter_mut().map(|p| &mut p.value);
        for s in scalars.chain(rows.iter_mut().flatten()) {
            if let Scalar::Param(_) = s {
                *s = Scalar::Lit(s.bind(args)?);
            }
        }
        Ok(bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_ref_builds() {
        let c = ColumnRef::new(Some("t"), "a");
        assert_eq!(c.table.as_deref(), Some("t"));
        let c = ColumnRef::new(None, "a");
        assert!(c.table.is_none());
    }
}
