//! The prepared-statement registry.
//!
//! `PREPARE name AS stmt` / `EXECUTE name (args)` / `DEALLOCATE name` keep
//! their naming rules and error text here, once, for every front door that
//! serves them: the single-node [`crate::Session`] and the shard
//! coordinator. Names are case-insensitive; the statement is stored parsed
//! and is bound (never re-parsed) at `EXECUTE`.

use crate::ast::{SelectStmt, Statement};
use mammoth_planner::normalize_sql;
use mammoth_types::{Error, Result};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// A registered prepared statement.
#[derive(Debug, Clone)]
pub struct PreparedStmt {
    pub stmt: Statement,
    pub nparams: usize,
    /// A SELECT's normalized text, placeholders in place: the key the
    /// session's plan cache files its plan under. Derived at `PREPARE`,
    /// once, so that no `EXECUTE` renders the statement again to find its
    /// plan.
    plan_key: Option<String>,
}

impl PreparedStmt {
    /// The statement, if it is a SELECT, with the key its plan is cached
    /// under.
    pub fn cached_select(&self) -> Option<(&SelectStmt, &str)> {
        match (&self.stmt, &self.plan_key) {
            (Statement::Select(sel), Some(key)) => Some((sel, key)),
            _ => None,
        }
    }
}

/// Prepared statements by lowercased name. Mutex'd so the verbs can run on
/// a concurrent-reader path (`&self`) — they mutate bookkeeping, never data.
#[derive(Default)]
pub struct PreparedRegistry {
    stmts: Mutex<HashMap<String, Arc<PreparedStmt>>>,
}

impl PreparedRegistry {
    fn stmts(&self) -> MutexGuard<'_, HashMap<String, Arc<PreparedStmt>>> {
        // inserts and removes leave the map valid at every step
        self.stmts.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Register `stmt` under `name`. `admit` runs after the duplicate-name
    /// check and before the insert: the owner's chance to refuse a
    /// statement kind or warm its plan cache, failing the `PREPARE` whole.
    pub fn register<E: From<Error>>(
        &self,
        name: String,
        stmt: Statement,
        admit: impl FnOnce(&PreparedStmt) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        let key = name.to_lowercase();
        if self.stmts().contains_key(&key) {
            return Err(Error::AlreadyExists {
                kind: "prepared statement",
                name,
            }
            .into());
        }
        let prepared = PreparedStmt {
            nparams: stmt.param_count(),
            plan_key: match &stmt {
                Statement::Select(sel) => Some(normalize_sql(&sel.to_string())),
                _ => None,
            },
            stmt,
        };
        admit(&prepared)?;
        self.stmts().insert(key, Arc::new(prepared));
        Ok(())
    }

    /// Fetch a prepared statement and check the `EXECUTE` argument count.
    pub fn lookup(&self, name: &str, nargs: usize) -> Result<Arc<PreparedStmt>> {
        let p = self
            .stmts()
            .get(&name.to_lowercase())
            .cloned()
            .ok_or_else(|| not_found(name))?;
        if nargs != p.nparams {
            return Err(Error::Bind(format!(
                "prepared statement {name} takes {} argument(s), EXECUTE supplies {nargs}",
                p.nparams
            )));
        }
        Ok(p)
    }

    /// Drop a prepared statement (`DEALLOCATE`).
    pub fn remove(&self, name: &str) -> Result<()> {
        match self.stmts().remove(&name.to_lowercase()) {
            Some(_) => Ok(()),
            None => Err(not_found(name)),
        }
    }
}

fn not_found(name: &str) -> Error {
    Error::NotFound {
        kind: "prepared statement",
        name: name.to_string(),
    }
}

/// `?` placeholders only mean something inside `PREPARE`; anywhere else
/// there is no `EXECUTE` to supply their values.
pub fn reject_stray_params(stmt: &Statement) -> Result<()> {
    if !matches!(stmt, Statement::Prepare { .. }) && stmt.param_count() > 0 {
        return Err(Error::Bind(
            "placeholders (?) are only allowed inside PREPARE; supply values with EXECUTE".into(),
        ));
    }
    Ok(())
}
