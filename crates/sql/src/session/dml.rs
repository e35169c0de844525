//! The write path of a [`Session`]: DDL and DML under the write-ahead
//! discipline, and the statistics upkeep that follows them.

use super::column_test::ColumnTest;
use super::explain::profile_table;
use super::{QueryOutput, Session};
use crate::ast::{Predicate, Statement};
use mammoth_planner::{ColumnStats, StatsCatalog};
use mammoth_storage::{Bat, Table, TableImage, TailHeap, WalRecord};
use mammoth_types::{Error, Oid, Result, Value};

impl Session {
    /// The statements that need `&mut self` — what [`Session::dispatch`]
    /// hands back as [`Step::Write`].
    pub(super) fn apply(&mut self, stmt: Statement) -> Result<QueryOutput> {
        match stmt {
            Statement::CreateTable(schema) => {
                let table = Table::new(schema)?;
                if self.catalog.table(&table.schema.name).is_ok() {
                    return Err(Error::AlreadyExists {
                        kind: "table",
                        name: table.schema.name.clone(),
                    });
                }
                self.wal_write(|wal| {
                    wal.append(&WalRecord::CreateTable {
                        schema: table.schema.clone(),
                    })
                })?;
                let colnames: Vec<String> = table
                    .schema
                    .columns
                    .iter()
                    .map(|c| c.name.clone())
                    .collect();
                let tname = table.schema.name.clone();
                self.catalog.create_table(table)?;
                self.stats.lock().unwrap().create_table(&tname, &colnames);
                // DDL invalidates wholesale: a cached plan may bind a
                // same-named column of the old table
                self.plan_cache.lock().unwrap().clear();
                self.wal_commit_statement()?;
                Ok(QueryOutput::Ok)
            }
            Statement::DropTable { name } => {
                self.catalog.table(&name)?; // existence check before logging
                self.wal_write(|wal| wal.append(&WalRecord::DropTable { name: name.clone() }))?;
                self.catalog.drop_table(&name)?;
                self.stats.lock().unwrap().drop_table(&name);
                self.plan_cache.lock().unwrap().clear();
                self.wal_commit_statement()?;
                Ok(QueryOutput::Ok)
            }
            Statement::Insert { table, rows } => {
                // placeholders were rejected above, so every scalar is a
                // literal and binding against no arguments cannot fail
                let rows: Vec<Vec<Value>> = rows
                    .into_iter()
                    .map(|r| r.into_iter().map(|s| s.into_bound(&[])).collect())
                    .collect::<Result<_>>()?;
                let n = rows.len();
                {
                    // full validation up front, once per row: after the WAL
                    // records are written, the mutation below must not be
                    // able to fail
                    let t = self.catalog.table(&table)?;
                    for row in &rows {
                        t.validate_row(row)?;
                    }
                }
                self.wal_write(|wal| {
                    rows.iter()
                        .try_for_each(|row| wal.append_insert(&table, row))
                })?;
                let merged = {
                    let t = self.catalog.table_mut(&table)?;
                    t.append_rows(&rows)?;
                    t.maybe_merge_all(self.merge_threshold)
                };
                if merged {
                    // merges renumber positions, so replay must repeat them
                    // at the same point in the record stream
                    self.wal_write(|wal| {
                        wal.append(&WalRecord::Merge {
                            table: table.clone(),
                        })
                    })?;
                }
                let schema = &self.catalog.table(&table)?.schema;
                self.stats.lock().unwrap().on_insert(schema, &rows);
                self.wal_commit_statement()?;
                Ok(QueryOutput::Affected(n))
            }
            Statement::Delete { table, where_ } => {
                let victims = self.matching_positions(&table, &where_)?;
                let n = victims.len();
                // capture the doomed rows for the statistics before the
                // positions are gone
                let deleted: Vec<Vec<Value>> = {
                    let t = self.catalog.table(&table)?;
                    victims.iter().filter_map(|&pos| t.get_row(pos)).collect()
                };
                self.wal_write(|wal| {
                    victims
                        .iter()
                        .try_for_each(|&pos| wal.append_delete(&table, pos))
                })?;
                let merged = {
                    let t = self.catalog.table_mut(&table)?;
                    for pos in victims {
                        t.delete_row(pos);
                    }
                    t.maybe_merge_all(self.merge_threshold)
                };
                if merged {
                    self.wal_write(|wal| {
                        wal.append(&WalRecord::Merge {
                            table: table.clone(),
                        })
                    })?;
                }
                let schema = &self.catalog.table(&table)?.schema;
                self.stats.lock().unwrap().on_delete(schema, &deleted);
                self.wal_commit_statement()?;
                Ok(QueryOutput::Affected(n))
            }
            Statement::Checkpoint => {
                self.checkpoint()?;
                Ok(QueryOutput::Ok)
            }
            Statement::Trace(sel) => {
                let (prog, _) = self.compile_optimized(&sel)?;
                self.run_exclusive(&prog, true)?;
                let run = self.last_profile.as_ref();
                Ok(profile_table(run.expect("a profiled run was just stashed")))
            }
            Statement::ExplainSharding | Statement::Promote => Err(Error::Unsupported(format!(
                "{stmt} is answered by the daemon it is meant for (a shard coordinator, a \
                 replica's server), not by a session"
            ))),
            other => Err(Error::Internal(format!(
                "{other:?} is served by the dispatcher, not the write path"
            ))),
        }
    }

    /// A snapshot of the planner's statistics catalog (it is small:
    /// histograms and scalars, no data).
    pub fn stats_catalog(&self) -> StatsCatalog {
        self.stats.lock().unwrap().clone()
    }

    /// Reconcile the statistics catalog with the live tables, given as
    /// their compacted image: drop stats of vanished tables and (re)build
    /// any table whose stats are absent, stale by row count, or — when
    /// `force` — unconditionally. Each column is read in place, as the
    /// typed array it is.
    pub(super) fn sync_stats(&self, image: &[TableImage], force: bool) {
        let mut stats = self.stats.lock().unwrap();
        let known: Vec<String> = stats.table_names().map(str::to_string).collect();
        for k in known {
            if !image.iter().any(|t| t.name == k) {
                stats.drop_table(&k);
            }
        }
        for t in image {
            let rows = t.columns.first().map_or(0, |b| b.len()) as u64;
            let fresh = !force && stats.table(&t.name).is_some_and(|ts| ts.rows == rows);
            if !fresh {
                let columns = t.schema.columns.iter().zip(&t.columns);
                let built = columns.map(|(def, bat)| (def.name.clone(), column_stats(bat)));
                stats.rebuild_table(&t.name, built.collect());
            }
        }
    }

    /// Positions (delta oids) of live rows matching the AND-ed predicates —
    /// the DELETE path. The WHERE chain runs the way a SELECT's does: one
    /// candidate list threaded through the `mammoth_algebra` select
    /// kernels, a lower and an upper bound on one column fused into one
    /// range select. The kernels run in place over each column's shared
    /// base and its insert delta (so a sorted base is binary-searched, not
    /// scanned); what they find is then taken minus the deleted positions.
    pub(super) fn matching_positions(&self, table: &str, preds: &[Predicate]) -> Result<Vec<Oid>> {
        let t = self.catalog.table(table)?;
        // resolve predicate columns and literals up-front
        let mut todo: Vec<(usize, ColumnTest)> = Vec::new();
        let mut satisfiable = true;
        for p in preds {
            if let Some(pt) = &p.col.table {
                if pt != table {
                    return Err(Error::Bind(format!(
                        "DELETE predicate references table {pt}"
                    )));
                }
            }
            let lit = p.value.as_lit().ok_or_else(|| {
                Error::Bind("DELETE predicate has an unbound placeholder (?)".into())
            })?;
            let (idx, def) = t.schema.column(&p.col.column)?;
            match ColumnTest::new(def.ty, p.op, lit) {
                Some(test) => todo.push((idx, test)),
                None => satisfiable = false,
            }
        }
        if !satisfiable {
            return Ok(Vec::new());
        }
        // candidates among the base rows and among the insert delta's
        let mut cands: [Option<Bat>; 2] = [None, None];
        while !todo.is_empty() {
            let (idx, mut test) = todo.remove(0);
            let partner = todo.iter().enumerate().find_map(|(k, (i, other))| {
                let fused = if *i == idx { test.fuse(other) } else { None };
                fused.map(|f| (k, f))
            });
            if let Some((k, fused)) = partner {
                todo.remove(k);
                test = fused;
            }
            let col = t.stored_column(idx);
            for (part, cand) in [col.base().as_ref(), col.inserts()]
                .into_iter()
                .zip(&mut cands)
            {
                *cand = Some(test.select(part, cand.as_ref())?);
            }
        }
        let total = t.total_len();
        let mut out: Vec<Oid> = Vec::new();
        match cands {
            [Some(base), Some(inserts)] => {
                // the insert delta's oids continue the base's: ascending
                out.extend_from_slice(base.tail_slice::<Oid>()?);
                out.extend_from_slice(inserts.tail_slice::<Oid>()?);
                out.retain(|&pos| !t.deleted().contains(pos));
            }
            // no WHERE clause: every live row
            _ => out.extend(t.deleted().live_runs(total).flatten().map(|p| p as Oid)),
        }
        Ok(out)
    }
}

/// Statistics of one compacted column, read as the typed array it is.
fn column_stats(bat: &Bat) -> ColumnStats {
    match bat.tail() {
        TailHeap::Bool(v) => ColumnStats::build_native(v),
        TailHeap::I8(v) => ColumnStats::build_native(v),
        TailHeap::I16(v) => ColumnStats::build_native(v),
        TailHeap::I32(v) => ColumnStats::build_native(v),
        TailHeap::I64(v) => ColumnStats::build_native(v),
        TailHeap::F64(v) => ColumnStats::build_native(v),
        TailHeap::Oid(v) => ColumnStats::build_native(v),
        TailHeap::Str(h) => ColumnStats::build_strs(h.iter()),
    }
}
