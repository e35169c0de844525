//! The SQL session: parse → compile → optimize → interpret.
//!
//! Since the planner tier, compilation is *statistics-fed*: the session
//! maintains a [`StatsCatalog`] (incremental on DML, rebuilt from the
//! tables at CHECKPOINT and when a durable store opens), consults it for
//! predicate ordering and mitosis piece counts, and serves `PREPARE`d
//! statements from a premise-checked [`PlanCache`].
//!
//! This file holds the type, its constructors and its doors — `execute*`,
//! the one `dispatch`, `run_plan`. The rest of `impl Session` lives beside
//! it: `durable` (WAL and checkpoint), `plan` (compilation and the plan
//! cache), `dml` (the write path and its statistics upkeep), `explain`
//! (`EXPLAIN`/`TRACE` tables and the trace export).

use crate::ast::Statement;
use crate::parser::parse_sql;
use crate::prepared::{reject_stray_params, PreparedRegistry};
use explain::{export_profile, trace_env_on};
use mammoth_mal::{EventKind, Interpreter, MalValue, PlanExecutor, ProfiledRun, Program};
use mammoth_planner::{bind_program, PlanCache, StatsCatalog};
use mammoth_storage::{Catalog, RealFs, Vfs};
use mammoth_types::{Error, Result, Value};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// The result of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutput {
    /// A result table: column names and row-major values.
    Table {
        columns: Vec<String>,
        rows: Vec<Vec<Value>>,
    },
    /// Rows affected by DML.
    Affected(usize),
    /// DDL succeeded.
    Ok,
}

impl QueryOutput {
    /// Render as simple aligned text (for examples and the REPL-ish demos).
    pub fn to_text(&self) -> String {
        match self {
            QueryOutput::Ok => "ok".to_string(),
            QueryOutput::Affected(n) => format!("{n} rows affected"),
            QueryOutput::Table { columns, rows } => {
                let mut widths: Vec<usize> = columns.iter().map(|c| c.len()).collect();
                let rendered: Vec<Vec<String>> = rows
                    .iter()
                    .map(|r| r.iter().map(|v| v.to_string()).collect())
                    .collect();
                for r in &rendered {
                    for (i, cell) in r.iter().enumerate() {
                        widths[i] = widths[i].max(cell.len());
                    }
                }
                let mut out = String::new();
                for (i, c) in columns.iter().enumerate() {
                    out.push_str(&format!("{:<w$}  ", c, w = widths[i]));
                }
                out.push('\n');
                for (i, _) in columns.iter().enumerate() {
                    out.push_str(&"-".repeat(widths[i]));
                    out.push_str("  ");
                }
                out.push('\n');
                for r in &rendered {
                    for (i, cell) in r.iter().enumerate() {
                        out.push_str(&format!("{:<w$}  ", cell, w = widths[i]));
                    }
                    out.push('\n');
                }
                out
            }
        }
    }
}

/// A callback surfacing replication status as `(field, value)` pairs —
/// what `EXPLAIN REPLICATION` renders. A replica's server installs one
/// that reports its role, generation, stream offsets and lag; sessions
/// without a provider report `role = primary`.
pub type StatusProvider = Arc<dyn Fn() -> Vec<(String, String)> + Send + Sync>;

/// A database session: a catalog and per-statement optimizer pipelines
/// (rebuilt so the property-driven passes see column statistics for the
/// catalog state each plan runs against).
pub struct Session {
    catalog: Catalog,
    /// WAL + checkpoint state; `None` for in-memory sessions.
    durable: Option<durable::Durability>,
    /// An alternative plan executor (the dataflow engine). When set,
    /// SELECTs run through the mitosis/mergetable pipeline and this
    /// executor instead of the serial interpreter.
    executor: Option<Box<dyn PlanExecutor>>,
    /// Fragments per base column for the mitosis pass.
    pieces: usize,
    /// Delta merge threshold (rows) applied after DML.
    merge_threshold: usize,
    /// The profile of the most recent profiled SELECT (a `TRACE` statement,
    /// or any SELECT while `MAMMOTH_TRACE` is set).
    last_profile: Option<ProfiledRun>,
    /// Replication status callback for `EXPLAIN REPLICATION`.
    status_provider: Option<StatusProvider>,
    /// `PREPARE`d statements.
    prepared: PreparedRegistry,
    /// Compiled/verified/optimized plans of prepared SELECTs, keyed by
    /// normalized statement text. Cleared on DDL and recovery; premise
    /// mismatches (column properties drifted under DML) evict per-entry.
    plan_cache: Mutex<PlanCache>,
    /// Per-column statistics feeding the cost model.
    stats: Mutex<StatsCatalog>,
}

/// What [`Session::dispatch`] resolved a statement to.
enum Step {
    /// Answered from session bookkeeping alone (`EXPLAIN`, `PREPARE`,
    /// `DEALLOCATE`).
    Done(QueryOutput),
    /// A SELECT — ad hoc, or a prepared one with its arguments bound —
    /// compiled, verified and optimized: the plan and its column names.
    Run(Program, Vec<String>),
    /// A statement only [`Session::apply`] can serve — DDL, DML,
    /// `CHECKPOINT`, `TRACE` — as written or bound from a prepared one.
    Write(Box<Statement>),
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

impl Session {
    pub fn new() -> Session {
        Session {
            catalog: Catalog::new(),
            durable: None,
            executor: None,
            pieces: 1,
            merge_threshold: 64 * 1024,
            last_profile: None,
            status_provider: None,
            prepared: PreparedRegistry::default(),
            plan_cache: Mutex::new(PlanCache::new()),
            stats: Mutex::new(StatsCatalog::new()),
        }
    }

    /// Open a crash-safe session rooted at `root` on the real filesystem.
    ///
    /// Recovery runs first: the last committed checkpoint is loaded and the
    /// WAL tail replayed, so the session starts from exactly the state the
    /// previous process made durable. DML thereafter is logged to the WAL
    /// *before* touching the delta BATs and fsync'd at statement commit.
    pub fn open_durable(root: impl Into<PathBuf>) -> Result<Session> {
        Session::open_durable_with(Arc::new(RealFs), root.into())
    }

    /// [`Session::open_durable`] over an explicit [`Vfs`] — the hook the
    /// fault-injection harness uses to script crashes into the I/O path.
    pub fn open_durable_with(fs: Arc<dyn Vfs>, root: PathBuf) -> Result<Session> {
        let mut s = Session::new();
        s.attach_durable(fs, root)?;
        Ok(s)
    }

    /// Pending-delta size at which a table is folded into its base columns.
    /// Lowering this makes merges (and their WAL records) frequent enough to
    /// exercise in small tests. Returns `&mut Self` for builder-style
    /// chaining.
    pub fn set_merge_threshold(&mut self, rows: usize) -> &mut Self {
        self.merge_threshold = rows.max(1);
        self
    }

    /// Run SELECTs on `executor` over plans fragmented into `pieces` by the
    /// mitosis/mergetable optimizer modules. The pipeline is rebuilt per
    /// query (it snapshots the bound columns' types and statistics from the
    /// live catalog) and runs checked: the plan is verified before execution.
    pub fn with_executor(mut self, executor: Box<dyn PlanExecutor>, pieces: usize) -> Session {
        self.executor = Some(executor);
        self.pieces = pieces.max(1);
        self
    }

    /// The alternative plan executor, if one is attached.
    pub fn executor(&self) -> Option<&dyn PlanExecutor> {
        self.executor.as_deref()
    }

    /// Install the `EXPLAIN REPLICATION` status callback. Returns `&mut
    /// Self` so the builder chain reads naturally.
    pub fn set_status_provider(&mut self, p: StatusProvider) -> &mut Self {
        self.status_provider = Some(p);
        self
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// The profile of the most recent profiled SELECT — the programmatic
    /// counterpart of the `MAMMOTH_TRACE` file export.
    pub fn last_profile(&self) -> Option<&ProfiledRun> {
        self.last_profile.as_ref()
    }

    /// Execute one SQL statement.
    ///
    /// On a durable session every DML statement follows the write-ahead
    /// discipline: validate against the schema, append redo records to the
    /// WAL, *then* mutate the in-memory deltas, and commit (fsync) at the
    /// statement boundary. A failure before the mutation leaves both log
    /// and catalog untouched.
    pub fn execute(&mut self, sql: &str) -> Result<QueryOutput> {
        self.execute_stmt(parse_sql(sql)?)
    }

    /// [`Session::execute`] for a statement that is already parsed.
    pub fn execute_stmt(&mut self, stmt: Statement) -> Result<QueryOutput> {
        match self.dispatch(stmt)? {
            Step::Done(out) => Ok(out),
            // with MAMMOTH_TRACE set, SELECTs run profiled and append
            // their trace to the named file
            Step::Run(prog, names) => {
                render_outputs(names, self.run_exclusive(&prog, trace_env_on())?)
            }
            Step::Write(stmt) => self.apply(*stmt),
        }
    }

    /// Execute a read-only statement (`SELECT` / `EXPLAIN`) through `&self`.
    ///
    /// This is the concurrent-reader path the network server schedules N
    /// clients onto: it touches no session state, so any number of calls
    /// may run at once while DML waits for exclusive access. The
    /// `MAMMOTH_TRACE` per-query profile requires `&mut self` and is
    /// bypassed here — it is transparent to results, and the server layer
    /// emits its own `server.statement` trace events instead.
    ///
    /// Statements that mutate data (DML, DDL, `CHECKPOINT`, `TRACE` —
    /// which records [`Session::last_profile`]) return
    /// [`Error::Unsupported`]; route them through [`Session::execute`].
    /// `PREPARE`/`DEALLOCATE` are served here (they mutate only the
    /// Mutex-guarded session registry), and so is `EXECUTE` of a prepared
    /// SELECT; `EXECUTE` of prepared DML returns [`Error::NeedsWrite`],
    /// the typed signal for "retry me on the write path".
    pub fn execute_read(&self, sql: &str) -> Result<QueryOutput> {
        let stmt = parse_sql(sql)?;
        let prepared = matches!(stmt, Statement::Execute { .. });
        match self.execute_read_stmt(stmt)? {
            Ok(out) => Ok(out),
            Err(_) if prepared => Err(Error::NeedsWrite),
            Err(_) => Err(Error::Unsupported(
                "execute_read handles only SELECT/EXPLAIN and prepared statements; \
                 use execute for mutating statements"
                    .into(),
            )),
        }
    }

    /// [`Session::execute_read`] for a statement that is already parsed.
    /// A statement that turns out to write comes back as the inner `Err`,
    /// ready for [`Session::execute_stmt`]: for `EXECUTE` of prepared DML
    /// that is the prepared statement with its arguments bound, so the
    /// retry on the write path neither re-reads the text nor the registry.
    pub fn execute_read_stmt(
        &self,
        stmt: Statement,
    ) -> Result<std::result::Result<QueryOutput, Statement>> {
        Ok(match self.dispatch(stmt)? {
            Step::Done(out) => Ok(out),
            Step::Run(prog, names) => {
                let (outputs, _) = self.run_plan(&prog, false)?;
                Ok(render_outputs(names, outputs)?)
            }
            Step::Write(stmt) => Err(*stmt),
        })
    }

    /// The statement dispatcher both entry points share. Everything a
    /// reader may do is decided here, through `&self`: a SELECT comes back
    /// as a plan for the caller to run on its own terms (exclusive callers
    /// may attach the profiler, readers never), and whatever needs
    /// `&mut self` comes back as [`Step::Write`].
    fn dispatch(&self, stmt: Statement) -> Result<Step> {
        reject_stray_params(&stmt)?;
        Ok(match stmt {
            Statement::Select(sel) => {
                let (prog, names) = self.compile_optimized(&sel)?;
                Step::Run(prog, names)
            }
            Statement::Explain(sel) => {
                let (prog, _) = self.compile_optimized(&sel)?;
                Step::Done(self.explain_table(&prog))
            }
            Statement::ExplainReplication => Step::Done(self.replication_status()),
            Statement::Prepare { name, stmt } => {
                // eagerly warm the plan cache for SELECTs, so the first
                // EXECUTE already hits
                self.prepared
                    .register(name, *stmt, |p| match p.cached_select() {
                        Some((sel, key)) => self.cached_plan_for(key, sel, p.nparams).map(drop),
                        None => Ok(()),
                    })?;
                Step::Done(QueryOutput::Ok)
            }
            Statement::Execute { name, args } => {
                let p = self.prepared.lookup(&name, args.len())?;
                match p.cached_select() {
                    // cached plan + parameter substitution: a hit skips
                    // parse/compile/verify/optimize entirely
                    Some((sel, key)) => {
                        let plan = self.cached_plan_for(key, sel, p.nparams)?;
                        Step::Run(bind_program(&plan.prog, &args)?, plan.names.clone())
                    }
                    None => return self.dispatch(p.stmt.bind_params(&args)?),
                }
            }
            // the cached plan stays until DDL or premise drift evicts it
            // (another PREPARE of the same text reuses it)
            Statement::Deallocate { name } => {
                self.prepared.remove(&name)?;
                Step::Done(QueryOutput::Ok)
            }
            write => Step::Write(Box::new(write)),
        })
    }

    /// Run a plan on the session's engine — the one place a plan meets an
    /// executor. With `profiled`, the per-instruction profile rides along.
    fn run_plan(
        &self,
        prog: &Program,
        profiled: bool,
    ) -> Result<(Vec<MalValue>, Option<ProfiledRun>)> {
        if let Some(ex) = self.executor() {
            return Ok(if profiled {
                let (outputs, run) = ex.run_plan_profiled(&self.catalog, prog)?;
                (outputs, Some(run))
            } else {
                (ex.run_plan(&self.catalog, prog)?, None)
            });
        }
        let mut interp = Interpreter::new(&self.catalog).profiled(profiled);
        let outputs = interp.run(prog)?;
        Ok((outputs, profiled.then(|| interp.profiled_run("serial"))))
    }

    /// [`Session::run_plan`] with exclusive access: a `profiled` run is
    /// stamped with the cost model's `est_rows` per instruction (so `TRACE`
    /// output diffs estimated against measured cardinality), exported, and
    /// kept as [`Session::last_profile`].
    fn run_exclusive(&mut self, prog: &Program, profiled: bool) -> Result<Vec<MalValue>> {
        let (outputs, run) = self.run_plan(prog, profiled)?;
        if let Some(mut run) = run {
            let estimates = self.estimates(prog);
            for e in &mut run.events {
                if e.kind == EventKind::Instr && e.instr >= 0 {
                    if let Some(est) = estimates.get(e.instr as usize) {
                        e.est_rows = est.rows as i64;
                    }
                }
            }
            export_profile(&run);
            self.last_profile = Some(run);
        }
        Ok(outputs)
    }
}

/// Align a plan's outputs with their column names as a result table:
/// all-scalar outputs become a single row, BAT outputs become aligned
/// columns. Public for the shard coordinator, which runs verified plans
/// outside a [`Session`] and renders through the same rules.
pub fn render_outputs(names: Vec<String>, outputs: Vec<MalValue>) -> Result<QueryOutput> {
    if names.len() != outputs.len() {
        return Err(Error::Internal(format!(
            "plan produced {} outputs for {} columns",
            outputs.len(),
            names.len()
        )));
    }
    // scalar-only results form a single row
    if outputs.iter().all(|o| o.as_scalar().is_some()) && !outputs.is_empty() {
        let row: Vec<Value> = outputs
            .iter()
            .map(|o| o.as_scalar().unwrap().clone())
            .collect();
        return Ok(QueryOutput::Table {
            columns: names,
            rows: vec![row],
        });
    }
    let mut nrows = None;
    for o in &outputs {
        if let Some(b) = o.as_bat() {
            let l = b.len();
            if *nrows.get_or_insert(l) != l {
                return Err(Error::Internal("misaligned output columns".into()));
            }
        }
    }
    let nrows = nrows.unwrap_or(0);
    let mut rows = Vec::with_capacity(nrows);
    for i in 0..nrows {
        let mut row = Vec::with_capacity(outputs.len());
        for o in &outputs {
            row.push(match o {
                MalValue::Bat(b) => b.value_at(i),
                MalValue::Scalar(v) => v.clone(),
            });
        }
        rows.push(row);
    }
    Ok(QueryOutput::Table {
        columns: names,
        rows,
    })
}

#[cfg(test)]
mod delete_oracle;
mod dml;
mod durable;
mod explain;
mod plan;
#[cfg(test)]
mod tests;
