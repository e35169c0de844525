//! Tables and the catalog.
//!
//! Per the Decomposed Storage Model, a [`Table`] is nothing but a set of
//! aligned [`VersionedColumn`]s, the table's [`DeletionSet`] and a
//! [`TableSchema`]. The [`Catalog`] maps names to tables and to
//! free-standing named BATs (used by the MAL layer for join indices and
//! other auxiliary structures).

use crate::bat::Bat;
use crate::delta::{ColumnView, DeletionSet, Snapshot, VersionedColumn};
use mammoth_types::{Error, Oid, Result, TableSchema, Value};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A vertically fragmented relational table.
///
/// Deliberately not `Clone`: a copy costs every pending delta of every
/// column, and no statement needs one.
#[derive(Debug)]
pub struct Table {
    pub schema: TableSchema,
    columns: Vec<VersionedColumn>,
    /// §3.2: "for each table, a BAT with deleted positions is kept".
    deleted: DeletionSet,
}

/// A table's compacted columns — live rows only, positions renumbered
/// `0..live`: what a checkpoint writes, what a fold installs as the new
/// bases, and what the statistics are rebuilt from. A column without
/// pending deltas appears as its shared base, not a copy.
#[derive(Debug, Clone)]
pub struct TableImage {
    /// The table's key in the catalog (its normalized name).
    pub name: String,
    pub schema: TableSchema,
    pub columns: Vec<Arc<Bat>>,
}

impl Table {
    /// Create an empty table from a schema.
    pub fn new(schema: TableSchema) -> Result<Table> {
        schema.validate()?;
        let columns = schema
            .columns
            .iter()
            .map(|c| VersionedColumn::new(c.ty))
            .collect();
        Ok(Table {
            schema,
            columns,
            deleted: DeletionSet::new(),
        })
    }

    /// Adopt pre-built aligned BATs as the table's columns.
    pub fn from_bats(schema: TableSchema, bats: Vec<Bat>) -> Result<Table> {
        schema.validate()?;
        if bats.len() != schema.columns.len() {
            return Err(Error::LengthMismatch {
                left: bats.len(),
                right: schema.columns.len(),
            });
        }
        let len0 = bats.first().map_or(0, |b| b.len());
        for (b, c) in bats.iter().zip(&schema.columns) {
            // table columns are positional: dense heads starting at 0, so
            // materialize_shared can hand out the base without renumbering
            if !matches!(b.head(), crate::bat::HeadColumn::Void { seqbase: 0 }) {
                return Err(Error::Unsupported(
                    "table columns must have a void head with seqbase 0".into(),
                ));
            }
            if b.ty() != c.ty {
                return Err(Error::TypeMismatch {
                    expected: c.ty.name().into(),
                    found: b.ty().name().into(),
                });
            }
            if b.len() != len0 {
                return Err(Error::LengthMismatch {
                    left: b.len(),
                    right: len0,
                });
            }
        }
        Ok(Table {
            schema,
            columns: bats.into_iter().map(VersionedColumn::from_bat).collect(),
            deleted: DeletionSet::new(),
        })
    }

    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Live row count (all columns are aligned).
    pub fn live_len(&self) -> usize {
        self.total_len() - self.deleted.len()
    }

    /// Total positions including deleted.
    pub fn total_len(&self) -> usize {
        self.columns.first().map_or(0, |c| c.total_len())
    }

    /// Column `idx`, read through the table's deleted positions.
    pub fn column(&self, idx: usize) -> ColumnView<'_> {
        self.columns[idx].view(&self.deleted)
    }

    pub fn column_by_name(&self, name: &str) -> Result<ColumnView<'_>> {
        let (i, _) = self.schema.column(name)?;
        Ok(self.column(i))
    }

    /// Column `idx` as stored: the base and the insert delta, deleted rows
    /// included. Selections run over these in place; their results are
    /// positions, to be taken minus [`Table::deleted`].
    pub fn stored_column(&self, idx: usize) -> &VersionedColumn {
        &self.columns[idx]
    }

    /// The deleted positions.
    pub fn deleted(&self) -> &DeletionSet {
        &self.deleted
    }

    /// Check a row the way a statement must before it is logged, without
    /// mutating anything: arity, type coercibility and NOT NULL — where a
    /// value the column stores as its nil sentinel (`i64::MIN` in a BIGINT,
    /// a NaN in a DOUBLE) *is* NULL, since that is what reads return for
    /// it. [`Table::append_rows`] of validated rows cannot fail, which is
    /// what both the WAL-before-mutate discipline and column alignment rely
    /// on (a type error after some columns were appended would leave the
    /// table misaligned).
    pub fn validate_row(&self, row: &[Value]) -> Result<()> {
        self.check_row(row, true)
    }

    /// Arity and coercibility; NOT NULL rejects a literal NULL, and with
    /// `nil_is_null` a nil sentinel too.
    fn check_row(&self, row: &[Value], nil_is_null: bool) -> Result<()> {
        if row.len() != self.arity() {
            return Err(Error::LengthMismatch {
                left: row.len(),
                right: self.arity(),
            });
        }
        for (c, def) in row.iter().zip(&self.schema.columns) {
            let nil = c.stored_nil(def.ty);
            if !def.nullable && (c.is_null() || nil_is_null && nil == Some(true)) {
                let sentinel = if c.is_null() {
                    String::new()
                } else {
                    format!(" ({c} is {}'s nil)", def.ty)
                };
                return Err(Error::Bind(format!(
                    "NULL not allowed in column {}{sentinel}",
                    def.name
                )));
            }
            if nil.is_none() {
                return Err(Error::TypeMismatch {
                    expected: def.ty.name().into(),
                    found: format!("{c:?}"),
                });
            }
        }
        Ok(())
    }

    /// Append rows that passed [`Table::validate_row`], one column at a
    /// time: one typed loop per column over all of them.
    pub fn append_rows<R: AsRef<[Value]>>(&mut self, rows: &[R]) -> Result<()> {
        debug_assert!(rows
            .iter()
            .all(|r| self.check_row(r.as_ref(), false).is_ok()));
        for (i, col) in self.columns.iter_mut().enumerate() {
            col.extend(rows.iter().map(|r| &r.as_ref()[i]))?;
        }
        Ok(())
    }

    /// Insert one logged row — the replay path (WAL recovery, replica
    /// apply); values are coerced to the column types. Checks what the
    /// columns' alignment needs, but reads a nil sentinel in a NOT NULL
    /// column as the NULL it always read back as: records an older build
    /// acknowledged may hold one.
    pub fn insert_row(&mut self, row: &[Value]) -> Result<Oid> {
        self.check_row(row, false)?;
        self.append_rows(&[row])?;
        Ok(self.total_len().saturating_sub(1) as Oid)
    }

    /// Delete the row at position `pos`. Returns false if it was already
    /// deleted or out of range.
    pub fn delete_row(&mut self, pos: Oid) -> bool {
        (pos as usize) < self.total_len() && self.deleted.insert(pos)
    }

    /// Point-in-time snapshots of all columns (a consistent table view,
    /// assuming the caller holds the table borrow while snapshotting).
    /// Copies only the deltas; the deleted positions are copied once and
    /// shared.
    pub fn snapshot(&self) -> Vec<Snapshot> {
        let deleted = Arc::new(self.deleted.clone());
        (0..self.arity())
            .map(|i| self.column(i).snapshot_sharing(Arc::clone(&deleted)))
            .collect()
    }

    /// Fold the deltas into the bases if more than `threshold_rows` rows
    /// are pending. Returns true if a merge happened.
    pub fn maybe_merge_all(&mut self, threshold_rows: usize) -> bool {
        // Merge is all-or-none so the columns stay position-aligned.
        let inserted = self.columns.first().map_or(0, |c| c.pending_inserts());
        let need = inserted + self.deleted.len() > threshold_rows;
        if need {
            self.merge_all();
        }
        need
    }

    /// Unconditionally fold every column's deltas into a fresh base.
    /// WAL replay uses this: the online merge decision was already taken
    /// and logged, so replay must repeat it exactly rather than re-apply
    /// a (possibly different) threshold.
    pub fn merge_all(&mut self) {
        let columns = self.compacted();
        self.adopt(columns);
    }

    /// Every column compacted: one typed pass each, or the shared base
    /// when nothing is pending.
    fn compacted(&self) -> Vec<Arc<Bat>> {
        (0..self.arity())
            .map(|i| self.column(i).materialize_shared())
            .collect()
    }

    /// Install what [`Table::compacted`] returned for the current state as
    /// the new bases; positions are renumbered `0..live`.
    fn adopt(&mut self, columns: Vec<Arc<Bat>>) {
        debug_assert!(columns.iter().all(|b| b.len() == self.live_len()));
        for (col, image) in self.columns.iter_mut().zip(columns) {
            col.adopt(image);
        }
        self.deleted = DeletionSet::new();
    }

    /// Read one full row (None if deleted/out of range).
    pub fn get_row(&self, pos: Oid) -> Option<Vec<Value>> {
        let live = (pos as usize) < self.total_len() && !self.deleted.contains(pos);
        live.then(|| self.row_at(pos as usize))
    }

    fn row_at(&self, pos: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.value(pos)).collect()
    }

    /// All live rows in position order — the table's *logical content*,
    /// independent of how it is split between base and deltas.
    pub fn rows(&self) -> Vec<Vec<Value>> {
        self.deleted
            .live_runs(self.total_len())
            .flatten()
            .map(|p| self.row_at(p))
            .collect()
    }
}

/// The name → object map of a database instance.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: BTreeMap<String, Table>,
    /// Free-standing named BATs (join indices, MAL scratch objects).
    bats: BTreeMap<String, Bat>,
}

/// The catalog's key for `name`: ASCII-lowercased — borrowed when it
/// already is, as every name that came through the lexer is, so that a
/// lookup does not allocate. (Lookups fold because untyped callers reach
/// them; [`Catalog::create_table`] is where a stored name is folded.)
fn norm(name: &str) -> Cow<'_, str> {
    if name.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(name.to_ascii_lowercase())
    } else {
        Cow::Borrowed(name)
    }
}

impl Catalog {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `table`, its name and its column names folded to ASCII
    /// lowercase: every table enters here — SQL DDL, WAL replay, checkpoint
    /// load and the embedding API — so every stored name is canonical and
    /// compares byte for byte (DESIGN.md, the `sql` row).
    pub fn create_table(&mut self, mut table: Table) -> Result<()> {
        let schema = &mut table.schema;
        schema.name.make_ascii_lowercase();
        for c in &mut schema.columns {
            c.name.make_ascii_lowercase();
        }
        if self.tables.contains_key(&schema.name) {
            return Err(Error::AlreadyExists {
                kind: "table",
                name: schema.name.clone(),
            });
        }
        self.tables.insert(schema.name.clone(), table);
        Ok(())
    }

    pub fn drop_table(&mut self, name: &str) -> Result<Table> {
        self.tables
            .remove(norm(name).as_ref())
            .ok_or_else(|| Error::NotFound {
                kind: "table",
                name: name.to_string(),
            })
    }

    pub fn table(&self, name: &str) -> Result<&Table> {
        self.tables
            .get(norm(name).as_ref())
            .ok_or_else(|| Error::NotFound {
                kind: "table",
                name: name.to_string(),
            })
    }

    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        self.tables
            .get_mut(norm(name).as_ref())
            .ok_or_else(|| Error::NotFound {
                kind: "table",
                name: name.to_string(),
            })
    }

    pub fn table_names(&self) -> impl Iterator<Item = &str> {
        self.tables.keys().map(|s| s.as_str())
    }

    pub fn register_bat(&mut self, name: &str, bat: Bat) {
        self.bats.insert(norm(name).into_owned(), bat);
    }

    pub fn bat(&self, name: &str) -> Result<&Bat> {
        self.bats
            .get(norm(name).as_ref())
            .ok_or_else(|| Error::NotFound {
                kind: "bat",
                name: name.to_string(),
            })
    }

    pub fn unregister_bat(&mut self, name: &str) -> Option<Bat> {
        self.bats.remove(norm(name).as_ref())
    }

    pub fn bat_names(&self) -> impl Iterator<Item = &str> {
        self.bats.keys().map(|s| s.as_str())
    }

    /// Every table compacted (see [`TableImage`]), in name order. Nothing
    /// is folded yet: pass the result to [`Catalog::adopt_image`] once it
    /// has been written, with no statement in between.
    pub fn image(&self) -> Vec<TableImage> {
        self.tables
            .iter()
            .map(|(name, t)| TableImage {
                name: name.clone(),
                schema: t.schema.clone(),
                columns: t.compacted(),
            })
            .collect()
    }

    /// Fold every table onto its image: the compacted columns become the
    /// bases, the deltas empty, positions renumbered — exactly what
    /// loading the written image would give.
    pub fn adopt_image(&mut self, image: Vec<TableImage>) {
        for ti in image {
            if let Some(t) = self.tables.get_mut(&ti.name) {
                t.adopt(ti.columns);
            }
        }
    }

    /// A logical dump of every table: (normalized name, schema, live rows
    /// in position order). Two catalogs with equal dumps are observably
    /// identical to queries — the crash-matrix oracle compares these.
    /// Free-standing BATs are transient (not logged) and excluded.
    pub fn logical_dump(&self) -> Vec<(String, TableSchema, Vec<Vec<Value>>)> {
        self.tables
            .iter()
            .map(|(k, t)| (k.clone(), t.schema.clone(), t.rows()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mammoth_types::{ColumnDef, LogicalType};

    fn people() -> Table {
        Table::new(TableSchema::new(
            "people",
            vec![
                ColumnDef::new("name", LogicalType::Str),
                ColumnDef::new("age", LogicalType::I32).not_null(),
            ],
        ))
        .unwrap()
    }

    #[test]
    fn insert_and_read_rows() {
        let mut t = people();
        let p = t
            .insert_row(&[Value::Str("John Wayne".into()), Value::I32(1907)])
            .unwrap();
        t.insert_row(&[Value::Str("Roger Moore".into()), Value::I32(1927)])
            .unwrap();
        assert_eq!(t.live_len(), 2);
        assert_eq!(
            t.get_row(p),
            Some(vec![Value::Str("John Wayne".into()), Value::I32(1907)])
        );
        assert!(t.delete_row(p));
        assert_eq!(t.get_row(p), None);
        assert_eq!(t.live_len(), 1);
    }

    #[test]
    fn not_null_enforced() {
        let mut t = people();
        let e = t.insert_row(&[Value::Null, Value::Null]).unwrap_err();
        assert!(e.to_string().contains("age"));
        // nullable column accepts NULL
        t.insert_row(&[Value::Null, Value::I32(2000)]).unwrap();
    }

    /// A statement may not store a nil sentinel in a NOT NULL column;
    /// replaying a record that holds one reads it back as NULL.
    #[test]
    fn nil_sentinels_are_null_to_a_statement_not_to_replay() {
        let mut t = people();
        let row = [Value::Str("x".into()), Value::I32(i32::MIN)];
        let e = t.validate_row(&row).unwrap_err();
        assert!(e.to_string().contains("age"), "{e}");
        t.insert_row(&row).unwrap();
        assert_eq!(
            t.get_row(0),
            Some(vec![Value::Str("x".into()), Value::Null])
        );
        // an INT literal is coerced, so its image is what counts
        assert!(t
            .validate_row(&[Value::Null, Value::I64(i32::MIN.into())])
            .is_err());
        assert!(t
            .validate_row(&[Value::Null, Value::I64(i64::MIN)])
            .is_err());
    }

    #[test]
    fn rows_append_a_column_at_a_time() {
        let mut t = people();
        let rows: Vec<Vec<Value>> = (0..5)
            .map(|i| vec![Value::Str(format!("p{i}")), Value::I64(i)])
            .collect();
        rows.iter().try_for_each(|r| t.validate_row(r)).unwrap();
        t.append_rows(&rows).unwrap();
        t.insert_row(&[Value::Null, Value::I32(5)]).unwrap();
        assert_eq!(t.live_len(), 6);
        assert_eq!(
            t.get_row(4),
            Some(vec![Value::Str("p4".into()), Value::I32(4)])
        );
        assert_eq!(t.get_row(5), Some(vec![Value::Null, Value::I32(5)]));
    }

    #[test]
    fn arity_checked() {
        let mut t = people();
        assert!(t.insert_row(&[Value::I32(1)]).is_err());
    }

    #[test]
    fn from_bats_validates() {
        let schema = TableSchema::new(
            "t",
            vec![
                ColumnDef::new("a", LogicalType::I32),
                ColumnDef::new("b", LogicalType::I64),
            ],
        );
        let ok = Table::from_bats(
            schema.clone(),
            vec![Bat::from_vec(vec![1i32, 2]), Bat::from_vec(vec![1i64, 2])],
        );
        assert!(ok.is_ok());
        // wrong type
        assert!(Table::from_bats(
            schema.clone(),
            vec![Bat::from_vec(vec![1i32, 2]), Bat::from_vec(vec![1i32, 2])],
        )
        .is_err());
        // misaligned lengths
        assert!(Table::from_bats(
            schema,
            vec![Bat::from_vec(vec![1i32]), Bat::from_vec(vec![1i64, 2])],
        )
        .is_err());
    }

    #[test]
    fn catalog_names_case_insensitive() {
        let mut c = Catalog::new();
        let mut shouting = people();
        shouting.schema.name = "People".into();
        shouting.schema.columns[1].name = "AGE".into();
        c.create_table(shouting).unwrap();
        // stored folded, looked up folding
        assert_eq!(c.table_names().collect::<Vec<_>>(), ["people"]);
        assert_eq!(c.table("PEOPLE").unwrap().schema, people().schema);
        assert!(c.create_table(people()).is_err());
        assert!(c.drop_table("People").is_ok());
        assert!(c.table("people").is_err());
    }

    #[test]
    fn named_bats() {
        let mut c = Catalog::new();
        c.register_bat("idx_people_age", Bat::from_vec(vec![1i32]));
        assert!(c.bat("IDX_people_age").is_ok());
        assert!(c.bat("missing").is_err());
        assert!(c.unregister_bat("idx_people_age").is_some());
        assert!(c.bat("idx_people_age").is_err());
    }

    #[test]
    fn merge_keeps_alignment() {
        let mut t = people();
        for i in 0..50 {
            t.insert_row(&[Value::Str(format!("p{i}")), Value::I32(i)])
                .unwrap();
        }
        t.delete_row(10);
        assert!(t.maybe_merge_all(8));
        assert_eq!(t.live_len(), 49);
        assert_eq!(t.column(0).pending_inserts(), 0);
        assert_eq!(t.column(1).pending_inserts(), 0);
        // row 10 (p10) is gone; position 10 now holds p11
        assert_eq!(
            t.get_row(10),
            Some(vec![Value::Str("p11".into()), Value::I32(11)])
        );
    }
}
