//! The SQL session: parse → compile → optimize → interpret.
//!
//! Since the planner tier, compilation is *statistics-fed*: the session
//! maintains a [`StatsCatalog`] (incremental on DML, folded at
//! CHECKPOINT, persisted as a checkpoint sidecar), consults it for
//! predicate ordering, select-algorithm gating and mitosis piece counts,
//! and serves `PREPARE`d statements from a premise-checked [`PlanCache`].

use crate::ast::{Predicate, SelectStmt, Statement};
use crate::compile::compile_select_ordered;
use crate::parser::parse_sql;
use crate::prepared::{reject_stray_params, PreparedRegistry};
use column_test::ColumnTest;
use mammoth_mal::{
    analyze_props, bound_column_facts, bound_column_types, column_props,
    default_pipeline_with_props, parallel_pipeline_with_props, Arg, CommonSubexpr, ConstantFold,
    DeadCode, EventKind, FusePipeline, Interpreter, MalValue, OpCode, Pipeline, PlanExecutor,
    ProfiledRun, Program, PropFacts, SelectElimination, SortedSelect, TraceEvent, TRACE_ENV,
};
use mammoth_planner::{
    bind_program, choose_pieces, estimate_program, referenced_columns, selectivity,
    use_sorted_select, CachedPlan, ColumnStats, PlanCache, StatsCatalog,
};
use mammoth_recycler::{EvictPolicy, Recycler};
use mammoth_storage::{
    persist, Bat, Catalog, RealFs, Table, TableImage, TailHeap, Vfs, Wal, WalRecord,
};
use mammoth_types::{ColumnDef, Error, Oid, Result, TableSchema, Value};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// File name of the statistics sidecar inside a checkpoint directory.
const STATS_SIDECAR: &str = "stats.mstats";

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

/// The crash-safety state of a durable session: the VFS it performs file
/// operations through, the root directory, and the open redo log.
struct Durability {
    fs: Arc<dyn Vfs>,
    root: PathBuf,
    wal: Wal,
}

/// A callback surfacing replication status as `(field, value)` pairs —
/// what `EXPLAIN REPLICATION` renders. A replica's server installs one
/// that reports its role, generation, stream offsets and lag; sessions
/// without a provider report `role = primary`.
pub type StatusProvider = Arc<dyn Fn() -> Vec<(String, String)> + Send + Sync>;

/// A database session: a catalog, per-statement optimizer pipelines (rebuilt
/// so the property-driven passes see column statistics for the catalog state
/// each plan runs against), and optionally the recycler.
pub struct Session {
    catalog: Catalog,
    recycler: Option<Recycler>,
    /// WAL + checkpoint state; `None` for in-memory sessions.
    durable: Option<Durability>,
    /// An alternative plan executor (the dataflow engine). When set,
    /// SELECTs run through the mitosis/mergetable pipeline and this
    /// executor instead of the serial interpreter; the recycler (a serial,
    /// mutable-state optimization) is bypassed.
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
            recycler: None,
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

    fn attach_durable(&mut self, fs: Arc<dyn Vfs>, root: PathBuf) -> Result<()> {
        let rec = persist::recover_vfs(fs.as_ref(), &root)?;
        let mut wal = Wal::open(Arc::clone(&fs), rec.wal_path.clone())?;
        let tracing = trace_env_on();
        wal.set_tracing(tracing);
        self.catalog = rec.catalog;
        // cached intermediates and cracked copies describe the pre-crash
        // process's columns; none of them survive recovery
        if let Some(r) = &mut self.recycler {
            r.clear();
        }
        // compiled plans were proven against the pre-recovery catalog
        self.plan_cache.lock().unwrap().clear();
        // restore the statistics sidecar of the committed checkpoint and
        // self-heal: the sidecar describes the image, not the WAL tail
        // replayed on top of it, so any replayed records (or a missing /
        // unreadable sidecar) force a rebuild from the live columns
        let loaded = persist::read_sidecar(fs.as_ref(), &root, STATS_SIDECAR)
            .ok()
            .flatten()
            .and_then(|bytes| StatsCatalog::deserialize(&bytes).ok())
            .unwrap_or_default();
        *self.stats.lock().unwrap() = loaded;
        self.sync_stats(&self.catalog.image(), rec.wal_records > 0);
        self.durable = Some(Durability { fs, root, wal });
        if tracing {
            self.export_durability_events(vec![TraceEvent {
                kind: EventKind::Recover,
                op: "recover".to_string(),
                args: format!(
                    "ckpt-{} + {} wal records{}",
                    rec.gen,
                    rec.wal_records,
                    if rec.tail_discarded {
                        ", torn tail discarded"
                    } else {
                        ""
                    }
                ),
                rows_in: rec.wal_records as u64,
                ..TraceEvent::default()
            }]);
        }
        Ok(())
    }

    /// Whether this session persists through a WAL.
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// Group-commit batch size: records per fsync (default 1 = commit at
    /// every statement boundary). Larger batches trade the durability of
    /// the last `n-1` acknowledged records for fewer fsyncs. Returns
    /// `&mut Self` so configuration chains builder-style, consistent with
    /// [`Session::with_recycler`]/[`Session::with_executor`].
    pub fn set_wal_batch(&mut self, n: usize) -> &mut Self {
        if let Some(d) = &mut self.durable {
            d.wal.set_batch(n);
        }
        self
    }

    /// Pending-delta size at which a table is folded into its base columns.
    /// Lowering this makes merges (and their WAL records) frequent enough to
    /// exercise in small tests. Returns `&mut Self` for builder-style
    /// chaining.
    pub fn set_merge_threshold(&mut self, rows: usize) -> &mut Self {
        self.merge_threshold = rows.max(1);
        self
    }

    /// Fold the current catalog into a fresh atomic checkpoint and start a
    /// new (empty) WAL generation. The flip is atomic: a crash at any point
    /// leaves the store wholly on the old generation or wholly on the new.
    pub fn checkpoint(&mut self) -> Result<()> {
        if self.durable.is_none() {
            return Err(Error::Unsupported(
                "CHECKPOINT requires a durable session (Session::open_durable)".into(),
            ));
        }
        // every column compacted, once: what the checkpoint writes, what
        // the statistics are rebuilt from and — once it is on disk — the
        // tables' new bases
        let image = self.catalog.image();
        // fold the statistics: a deterministic rebuild from the live
        // columns squashes the approximation drift the incremental DML
        // maintenance accumulated, and the serialized catalog rides the
        // checkpoint image as a sidecar (committing — and replicating —
        // atomically with the data it describes)
        self.sync_stats(&image, true);
        let sidecar = self.stats.lock().unwrap().serialize();
        let d = self.durable.as_mut().unwrap();
        d.wal.commit()?;
        let (gen, wal_path) = persist::checkpoint_image_with(
            d.fs.as_ref(),
            &image,
            &d.root,
            &[(STATS_SIDECAR.to_string(), sidecar)],
        )?;
        let mut wal = Wal::open(Arc::clone(&d.fs), wal_path)?;
        let tracing = trace_env_on();
        wal.set_tracing(tracing);
        d.wal = wal;
        // the image just written is compacted: deltas folded into the base,
        // positions renumbered. Fold the live tables onto it, so the
        // positions in post-checkpoint WAL records mean the same thing
        // online and on replay — and invalidate cached intermediates that
        // the renumbering stales.
        for t in &image {
            Self::invalidate_table(&mut self.recycler, &t.schema);
        }
        self.catalog.adopt_image(image);
        if tracing {
            self.export_durability_events(vec![TraceEvent {
                kind: EventKind::Checkpoint,
                op: "checkpoint".to_string(),
                args: format!("ckpt-{gen}"),
                ..TraceEvent::default()
            }]);
        }
        Ok(())
    }

    /// Append redo records for the statement being executed. On any append
    /// failure the partial batch is rolled back so the log never holds half
    /// a statement. No-op for in-memory sessions.
    fn wal_write(&mut self, recs: Vec<WalRecord>) -> Result<()> {
        let Some(d) = &mut self.durable else {
            return Ok(());
        };
        for r in &recs {
            if let Err(e) = d.wal.append(r) {
                d.wal.rollback_pending();
                return Err(e);
            }
        }
        Ok(())
    }

    /// Commit the statement's records (fsync, unless group commit is still
    /// batching) and flush any pending durability trace events.
    fn wal_commit_statement(&mut self) -> Result<()> {
        let Some(d) = &mut self.durable else {
            return Ok(());
        };
        let res = d.wal.statement_boundary();
        let events = d.wal.take_events();
        self.export_durability_events(events);
        res
    }

    /// Export durability trace events (WAL appends, checkpoints, recovery)
    /// as an `engine: "durability"` run on the `MAMMOTH_TRACE` sink.
    fn export_durability_events(&mut self, events: Vec<TraceEvent>) {
        if events.is_empty() {
            return;
        }
        let mut run = ProfiledRun::new("durability", 1);
        run.events = events;
        export_profile(&run);
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

    /// Enable the recycler with a budget in bytes.
    pub fn with_recycler(mut self, capacity_bytes: usize) -> Session {
        self.recycler = Some(
            Recycler::new(capacity_bytes, EvictPolicy::BenefitPerByte)
                // zero-copy binds recompute in microseconds; don't cache them
                .with_min_cost_ns(20_000),
        );
        self
    }

    /// Install the `EXPLAIN REPLICATION` status callback. Returns `&mut
    /// Self` so the builder chain reads naturally.
    pub fn set_status_provider(&mut self, p: StatusProvider) -> &mut Self {
        self.status_provider = Some(p);
        self
    }

    /// The `EXPLAIN REPLICATION` result: a two-column `(field, value)`
    /// table from the installed provider, or `role = primary` without one.
    fn replication_status(&self) -> QueryOutput {
        let pairs = match &self.status_provider {
            Some(p) => p(),
            None => vec![("role".to_string(), "primary".to_string())],
        };
        QueryOutput::Table {
            columns: vec!["field".into(), "value".into()],
            rows: pairs
                .into_iter()
                .map(|(k, v)| vec![Value::Str(k), Value::Str(v)])
                .collect(),
        }
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    pub fn recycler_stats(&self) -> Option<&mammoth_recycler::RecyclerStats> {
        self.recycler.as_ref().map(|r| r.stats())
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
    /// may run at once while DML waits for exclusive access. The recycler
    /// and the `MAMMOTH_TRACE` per-query profile both require `&mut self`
    /// and are bypassed here — both are transparent to results, and the
    /// server layer emits its own `server.statement` trace events instead.
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
                let (outputs, _) =
                    Self::run_plan(&self.catalog, self.executor(), None, &prog, false)?;
                Ok(render_outputs(names, outputs)?)
            }
            Step::Write(stmt) => Err(*stmt),
        })
    }

    /// The statement dispatcher both entry points share. Everything a
    /// reader may do is decided here, through `&self`: a SELECT comes back
    /// as a plan for the caller to run on its own terms (exclusive callers
    /// attach the recycler and the profiler, readers neither), and
    /// whatever needs `&mut self` comes back as [`Step::Write`].
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
    /// executor. Takes the fields it needs rather than `&self` so the
    /// exclusive path can lend its recycler while readers share the rest.
    /// With `profiled`, the per-instruction profile rides along (and, under
    /// the recycler, its cache decisions in the same run).
    fn run_plan(
        catalog: &Catalog,
        executor: Option<&dyn PlanExecutor>,
        mut recycler: Option<&mut Recycler>,
        prog: &Program,
        profiled: bool,
    ) -> Result<(Vec<MalValue>, Option<ProfiledRun>)> {
        if let Some(ex) = executor {
            return Ok(if profiled {
                let (outputs, run) = ex.run_plan_profiled(catalog, prog)?;
                (outputs, Some(run))
            } else {
                (ex.run_plan(catalog, prog)?, None)
            });
        }
        let (engine, mut interp) = match recycler.as_deref_mut() {
            Some(r) => {
                r.set_tracing(profiled);
                ("serial+recycler", Interpreter::with_recycler(catalog, r))
            }
            None => ("serial", Interpreter::new(catalog)),
        };
        interp = interp.profiled(profiled);
        let res = interp.run(prog);
        let mut run = profiled.then(|| interp.profiled_run(engine));
        drop(interp);
        if let (Some(run), Some(r)) = (&mut run, recycler) {
            run.events.extend(r.take_events());
            r.set_tracing(false);
        }
        Ok((res?, run))
    }

    /// [`Session::run_plan`] with exclusive access: the recycler is
    /// attached, and a `profiled` run is stamped with the cost model's
    /// `est_rows` per instruction (so `TRACE` output diffs estimated
    /// against measured cardinality), exported, and kept as
    /// [`Session::last_profile`].
    fn run_exclusive(&mut self, prog: &Program, profiled: bool) -> Result<Vec<MalValue>> {
        let (outputs, run) = Self::run_plan(
            &self.catalog,
            self.executor.as_deref(),
            self.recycler.as_mut(),
            prog,
            profiled,
        )?;
        if let Some(mut run) = run {
            let estimates = estimate_program(prog, &self.stats.lock().unwrap());
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

    /// The statements that need `&mut self` — what [`Session::dispatch`]
    /// hands back as [`Step::Write`].
    fn apply(&mut self, stmt: Statement) -> Result<QueryOutput> {
        match stmt {
            Statement::CreateTable { name, columns } => {
                let defs: Vec<ColumnDef> = columns
                    .into_iter()
                    .map(|(n, ty, nullable)| {
                        let mut d = ColumnDef::new(n, ty);
                        d.nullable = nullable;
                        d
                    })
                    .collect();
                let table = Table::new(TableSchema::new(name, defs))?;
                if self.catalog.table(&table.schema.name).is_ok() {
                    return Err(Error::AlreadyExists {
                        kind: "table",
                        name: table.schema.name.clone(),
                    });
                }
                self.wal_write(vec![WalRecord::CreateTable {
                    schema: table.schema.clone(),
                }])?;
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
                self.wal_write(vec![WalRecord::DropTable { name: name.clone() }])?;
                let t = self.catalog.drop_table(&name)?;
                Self::invalidate_table(&mut self.recycler, &t.schema);
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
                    .map(|r| r.into_iter().map(|s| s.bind(&[])).collect())
                    .collect::<Result<_>>()?;
                let n = rows.len();
                {
                    // full validation up front: after the WAL records are
                    // written, the mutation below must not be able to fail
                    let t = self.catalog.table(&table)?;
                    for row in &rows {
                        t.validate_row(row)?;
                    }
                }
                self.wal_write(
                    rows.iter()
                        .map(|row| WalRecord::Insert {
                            table: table.clone(),
                            row: row.clone(),
                        })
                        .collect(),
                )?;
                let merged = {
                    let t = self.catalog.table_mut(&table)?;
                    for row in &rows {
                        t.insert_row(row)?;
                    }
                    t.maybe_merge_all(self.merge_threshold)
                };
                if merged {
                    // merges renumber positions, so replay must repeat them
                    // at the same point in the record stream
                    self.wal_write(vec![WalRecord::Merge {
                        table: table.clone(),
                    }])?;
                }
                let schema = &self.catalog.table(&table)?.schema;
                Self::invalidate_table(&mut self.recycler, schema);
                let colnames: Vec<String> = schema.columns.iter().map(|c| c.name.clone()).collect();
                self.stats
                    .lock()
                    .unwrap()
                    .on_insert(&table, &colnames, &rows);
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
                self.wal_write(
                    victims
                        .iter()
                        .map(|&pos| WalRecord::Delete {
                            table: table.clone(),
                            pos,
                        })
                        .collect(),
                )?;
                let merged = {
                    let t = self.catalog.table_mut(&table)?;
                    for pos in victims {
                        t.delete_row(pos);
                    }
                    t.maybe_merge_all(self.merge_threshold)
                };
                if merged {
                    self.wal_write(vec![WalRecord::Merge {
                        table: table.clone(),
                    }])?;
                }
                let schema = &self.catalog.table(&table)?.schema;
                Self::invalidate_table(&mut self.recycler, schema);
                let colnames: Vec<String> = schema.columns.iter().map(|c| c.name.clone()).collect();
                self.stats
                    .lock()
                    .unwrap()
                    .on_delete(&table, &colnames, &deleted);
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
            other => Err(Error::Internal(format!(
                "{other:?} is served by the dispatcher, not the write path"
            ))),
        }
    }

    // -- the planner tier -------------------------------------------------

    /// The plan-cache lookup/compile path for a prepared SELECT, filed
    /// under `key` (its [`crate::PreparedStmt::plan_key`]).
    ///
    /// A hit requires every premise to re-check: the live properties of
    /// each column the plan binds must equal the snapshot the optimizer
    /// proved its rewrites against. DML that changes a premise (cardinality,
    /// bounds, sortedness) misses here and recompiles — correctness never
    /// rests on the cache. Those columns are all a hit looks at, and what
    /// it hands out is the shared entry, not a copy.
    fn cached_plan_for(
        &self,
        key: &str,
        stmt: &SelectStmt,
        nparams: usize,
    ) -> Result<Arc<CachedPlan>> {
        let live = |t: &str, c: &str| column_props(&self.catalog, t, c);
        if let Some(plan) = self.plan_cache.lock().unwrap().lookup(key, live) {
            export_plan_event(EventKind::PlanCacheHit, key, plan.est_rows);
            return Ok(plan);
        }
        let (prog, names) = self.compile_optimized(stmt)?;
        // the catalog cannot have moved under `&self` since the optimizer
        // read it, so what `live` reports now is what the plan was proven
        // against
        let premises = referenced_columns(&prog)
            .into_iter()
            .filter_map(|(t, c)| {
                let p = live(&t, &c)?;
                Some(((t.to_lowercase(), c.to_lowercase()), p))
            })
            .collect();
        let est_rows = output_rows_estimate(&prog, &self.stats.lock().unwrap());
        let plan = CachedPlan {
            prog,
            names,
            nparams,
            premises,
            parallel: self.executor.is_some(),
            est_rows,
        };
        let plan = self
            .plan_cache
            .lock()
            .unwrap()
            .insert(key.to_string(), plan);
        export_plan_event(EventKind::PlanCompile, key, est_rows);
        Ok(plan)
    }

    /// Compile and optimize a SELECT with the cost model in the loop:
    /// predicates applied most-selective-first, the select-algorithm
    /// rewrite gated by estimated cardinality, and the mitosis piece
    /// count scaled to the table. The optimizer is told about the columns
    /// the compiled plan binds — not about the catalog.
    fn compile_optimized(&self, stmt: &SelectStmt) -> Result<(Program, Vec<String>)> {
        // one look at the statistics serves every cost-model question
        let (where_, est_rows) = {
            let stats = self.stats.lock().unwrap();
            let rows = stats.table(&stmt.from).map(|t| t.rows);
            (Self::order_predicates(stmt, &stats), rows)
        };
        let (prog, names) = compile_select_ordered(&self.catalog, stmt, where_)?;
        let facts = bound_column_facts(&prog, &self.catalog);
        let (engine, pipeline) = if self.executor.is_some() {
            // fragments stay worth their scheduling overhead: the cost
            // model scales pieces down for small tables
            let pieces = match est_rows {
                Some(rows) if rows > 0 => choose_pieces(rows, self.pieces),
                _ => self.pieces,
            };
            let types = bound_column_types(&prog, &self.catalog);
            let pipeline = parallel_pipeline_with_props(pieces, types, facts);
            ("parallel", pipeline)
        } else {
            let pipeline = Self::serial_pipeline_for(est_rows, self.recycler.is_some(), facts);
            ("serial", pipeline)
        };
        let prog = pipeline
            .try_optimize(prog)
            .map_err(|e| Error::Internal(format!("{engine} pipeline rejected plan: {e}")))?;
        Ok((prog, names))
    }

    /// The AND-ed predicates by ascending estimated selectivity, so the
    /// cheapest (most selective) select narrows the candidates first.
    /// Sound: candidate composition of an AND chain is order-independent
    /// (the result — ascending positions satisfying every predicate — is
    /// the same set in the same order); the sort is stable so equal
    /// estimates keep statement order and plans stay deterministic.
    fn order_predicates<'s>(stmt: &'s SelectStmt, stats: &StatsCatalog) -> Vec<&'s Predicate> {
        let mut where_: Vec<&Predicate> = stmt.where_.iter().collect();
        if where_.len() > 1 {
            let sel = |p: &Predicate| {
                let table = p.col.table.as_deref().unwrap_or(&stmt.from);
                selectivity(stats, table, &p.col.column, p.op, p.value.as_lit())
            };
            where_.sort_by(|a, b| {
                sel(a)
                    .partial_cmp(&sel(b))
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
        }
        where_
    }

    /// The serial pipeline — [`default_pipeline_with_props`] less what this
    /// session is better off without. The binary-search select rewrite is
    /// gated by estimated input cardinality: below
    /// [`mammoth_planner::SORTED_SELECT_MIN_ROWS`] a scan's sequential
    /// sweep beats the rewrite's setup. Pipeline fusion is left out when a
    /// recycler is attached: what it removes — the candidate lists and
    /// fetched columns between a filter and its aggregate — is exactly what
    /// the recycler keeps for the next statement to reuse.
    fn serial_pipeline_for(est_rows: Option<u64>, recycling: bool, facts: PropFacts) -> Pipeline {
        let sorted_select = est_rows.is_none_or(use_sorted_select);
        if sorted_select && !recycling {
            return default_pipeline_with_props(facts);
        }
        let facts = Arc::new(facts);
        let mut pipeline = Pipeline::new()
            .with(ConstantFold)
            .with(CommonSubexpr)
            .with(SelectElimination::new(facts.clone()));
        if sorted_select {
            pipeline = pipeline.with(SortedSelect::new(facts.clone()));
        }
        if !recycling {
            pipeline = pipeline.with(FusePipeline::new(facts));
        }
        pipeline.with(DeadCode).checked()
    }

    /// How many `?` placeholders the prepared statement `name` takes;
    /// `None` when no such statement is registered.
    pub fn prepared_params(&self, name: &str) -> Option<usize> {
        self.prepared.nparams(name)
    }

    /// Plan-cache hit/compile counters `(hits, compiles)` — what the
    /// regression tests assert one-compile-per-statement against.
    pub fn plan_cache_stats(&self) -> (u64, u64) {
        let c = self.plan_cache.lock().unwrap();
        (c.hits(), c.compiles())
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
    fn sync_stats(&self, image: &[TableImage], force: bool) {
        let mut stats = self.stats.lock().unwrap();
        let known: Vec<String> = stats.table_names().map(str::to_string).collect();
        for k in known {
            if !image.iter().any(|t| t.name.eq_ignore_ascii_case(&k)) {
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

    /// Render an optimized plan as the `EXPLAIN` result: one row per
    /// instruction — the MAL text, the properties the abstract
    /// interpretation inferred for its results, and the cost model's
    /// cardinality/cost estimates for the instruction.
    fn explain_table(&self, prog: &Program) -> QueryOutput {
        let analysis = analyze_props(prog, &self.catalog).ok();
        let estimates = {
            let stats = self.stats.lock().unwrap();
            estimate_program(prog, &stats)
        };
        let text = prog.to_string();
        let rows = text
            .lines()
            .zip(&prog.instrs)
            .zip(&estimates)
            .map(|((l, i), e)| {
                let props = analysis
                    .as_ref()
                    .map(|a| a.describe_instr(i))
                    .unwrap_or_default();
                vec![
                    Value::Str(l.to_string()),
                    Value::Str(props),
                    Value::I64(e.rows as i64),
                    Value::I64(e.cost as i64),
                ]
            })
            .collect();
        QueryOutput::Table {
            columns: vec![
                "mal".to_string(),
                "props".to_string(),
                "est_rows".to_string(),
                "est_cost".to_string(),
            ],
            rows,
        }
    }

    /// Drop recycled intermediates that depend on any column of a table.
    fn invalidate_table(recycler: &mut Option<Recycler>, schema: &TableSchema) {
        let Some(r) = recycler else { return };
        for c in &schema.columns {
            r.invalidate(&format!("{}.{}", schema.name.to_lowercase(), c.name));
            r.invalidate(&format!("{}.{}", schema.name, c.name));
        }
    }

    /// Positions (delta oids) of live rows matching the AND-ed predicates —
    /// the DELETE path. The WHERE chain runs the way a SELECT's does: one
    /// candidate list threaded through the `mammoth_algebra` select
    /// kernels, a lower and an upper bound on one column fused into one
    /// range select. The kernels run in place over each column's shared
    /// base and its insert delta (so a sorted base is binary-searched, not
    /// scanned); what they find is then taken minus the deleted positions.
    fn matching_positions(&self, table: &str, preds: &[Predicate]) -> Result<Vec<Oid>> {
        let t = self.catalog.table(table)?;
        // resolve predicate columns and literals up-front
        let mut todo: Vec<(usize, ColumnTest)> = Vec::new();
        let mut satisfiable = true;
        for p in preds {
            if let Some(pt) = &p.col.table {
                if !pt.eq_ignore_ascii_case(table) {
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

/// Whether `MAMMOTH_TRACE` names a trace sink.
fn trace_env_on() -> bool {
    std::env::var(TRACE_ENV).is_ok_and(|p| !p.is_empty())
}

/// Export a `plan.compile` / `plan.cache_hit` event to the `MAMMOTH_TRACE`
/// sink (no-op when unset): one single-event run labelled `planner`, the
/// normalized statement text as the event's args and the plan's estimated
/// result cardinality as `est_rows`.
fn export_plan_event(kind: EventKind, key: &str, est_rows: Option<u64>) {
    if !trace_env_on() {
        return;
    }
    let mut run = ProfiledRun::new("planner", 1);
    run.events.push(TraceEvent {
        kind,
        op: "plan".to_string(),
        args: key.to_string(),
        est_rows: est_rows.map_or(-1, |n| n as i64),
        ..TraceEvent::default()
    });
    export_profile(&run);
}

/// The cost model's estimate of a plan's result cardinality: the row
/// estimate of the instruction producing the first `Result` operand.
fn output_rows_estimate(prog: &Program, stats: &StatsCatalog) -> Option<u64> {
    let est = estimate_program(prog, stats);
    let result = prog
        .instrs
        .iter()
        .find(|i| matches!(i.op, OpCode::Result))?;
    let var = result.args.iter().find_map(|a| match a {
        Arg::Var(v) => Some(*v),
        _ => None,
    })?;
    prog.instrs
        .iter()
        .position(|i| i.results.contains(&var))
        .and_then(|idx| est.get(idx))
        .map(|e| e.rows)
}

/// Append the run to the `MAMMOTH_TRACE` file (no-op when unset). An
/// unwritable trace path degrades to a stderr warning — tracing must never
/// fail the query that produced the trace.
fn export_profile(run: &ProfiledRun) {
    if let Err(e) = run.export_env() {
        eprintln!("warning: {TRACE_ENV} export failed: {e}");
    }
}

/// Render a profile as the `TRACE <query>` result table: one row per event.
fn profile_table(run: &ProfiledRun) -> QueryOutput {
    let columns = vec![
        "instr".to_string(),
        "event".to_string(),
        "op".to_string(),
        "args".to_string(),
        "worker".to_string(),
        "start_ns".to_string(),
        "dur_ns".to_string(),
        "rows_in".to_string(),
        "rows_out".to_string(),
        "bytes_out".to_string(),
        "recycled".to_string(),
        "est_rows".to_string(),
    ];
    let rows = run
        .events
        .iter()
        .map(|e| {
            vec![
                Value::I64(e.instr),
                Value::Str(e.kind.as_str().to_string()),
                Value::Str(e.op.clone()),
                Value::Str(e.args.clone()),
                Value::I64(e.worker as i64),
                Value::I64(e.start_ns as i64),
                Value::I64(e.dur_ns as i64),
                Value::I64(e.rows_in as i64),
                Value::I64(e.rows_out as i64),
                Value::I64(e.bytes_out as i64),
                Value::Bool(e.recycled),
                Value::I64(e.est_rows),
            ]
        })
        .collect();
    QueryOutput::Table { columns, rows }
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

mod column_test;
#[cfg(test)]
mod delete_oracle;

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded() -> Session {
        let mut s = Session::new();
        s.execute("CREATE TABLE people (name VARCHAR, age INT NOT NULL)")
            .unwrap();
        s.execute(
            "INSERT INTO people VALUES ('John Wayne', 1907), ('Roger Moore', 1927), \
             ('Bob Fosse', 1927), ('Will Smith', 1968)",
        )
        .unwrap();
        s
    }

    #[test]
    fn figure1_in_sql() {
        let mut s = seeded();
        let out = s
            .execute("SELECT name FROM people WHERE age = 1927")
            .unwrap();
        assert_eq!(
            out,
            QueryOutput::Table {
                columns: vec!["name".into()],
                rows: vec![
                    vec![Value::Str("Roger Moore".into())],
                    vec![Value::Str("Bob Fosse".into())],
                ],
            }
        );
    }

    #[test]
    fn aggregates() {
        let mut s = seeded();
        let out = s
            .execute("SELECT COUNT(*), MIN(age), MAX(age), AVG(age) FROM people")
            .unwrap();
        let QueryOutput::Table { rows, .. } = out else {
            panic!()
        };
        assert_eq!(rows[0][0], Value::I64(4));
        assert_eq!(rows[0][1], Value::I64(1907));
        assert_eq!(rows[0][2], Value::I64(1968));
        assert_eq!(
            rows[0][3],
            Value::F64((1907 + 1927 + 1927 + 1968) as f64 / 4.0)
        );
    }

    #[test]
    fn group_by_and_order() {
        let mut s = seeded();
        let out = s
            .execute("SELECT age, COUNT(*) FROM people GROUP BY age ORDER BY age DESC")
            .unwrap();
        let QueryOutput::Table { rows, .. } = out else {
            panic!()
        };
        assert_eq!(
            rows,
            vec![
                vec![Value::I32(1968), Value::I64(1)],
                vec![Value::I32(1927), Value::I64(2)],
                vec![Value::I32(1907), Value::I64(1)],
            ]
        );
    }

    #[test]
    fn join_two_tables() {
        let mut s = seeded();
        s.execute("CREATE TABLE films (star VARCHAR, title VARCHAR)")
            .unwrap();
        s.execute(
            "INSERT INTO films VALUES ('Roger Moore', 'Moonraker'), \
             ('Will Smith', 'Ali'), ('Roger Moore', 'Octopussy')",
        )
        .unwrap();
        let out = s
            .execute(
                "SELECT name, title FROM people JOIN films ON people.name = films.star \
                 WHERE age > 1920 ORDER BY name LIMIT 10",
            )
            .unwrap();
        let QueryOutput::Table { rows, .. } = out else {
            panic!()
        };
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().any(|r| r[1] == Value::Str("Moonraker".into())));
        assert!(rows.iter().any(|r| r[1] == Value::Str("Ali".into())));
    }

    #[test]
    fn dml_roundtrip() {
        let mut s = seeded();
        let out = s.execute("DELETE FROM people WHERE age = 1927").unwrap();
        assert_eq!(out, QueryOutput::Affected(2));
        let out = s.execute("SELECT COUNT(*) FROM people").unwrap();
        let QueryOutput::Table { rows, .. } = out else {
            panic!()
        };
        assert_eq!(rows[0][0], Value::I64(2));
        // delete with no predicate wipes the table
        assert_eq!(
            s.execute("DELETE FROM people").unwrap(),
            QueryOutput::Affected(2)
        );
        s.execute("DROP TABLE people").unwrap();
        assert!(s.execute("SELECT name FROM people").is_err());
    }

    #[test]
    fn recycler_sees_repeats_and_invalidation() {
        use mammoth_storage::Bat;
        let mut s = Session::new().with_recycler(64 << 20);
        // big enough to clear the recycler's admission cost floor
        let data: Vec<i64> = (0..300_000).map(|i| i % 7).collect();
        let table = Table::from_bats(
            TableSchema::new(
                "t",
                vec![ColumnDef::new("a", mammoth_types::LogicalType::I64)],
            ),
            vec![Bat::from_vec(data)],
        )
        .unwrap();
        s.catalog_mut().create_table(table).unwrap();
        s.execute("SELECT COUNT(a) FROM t WHERE a > 1").unwrap();
        s.execute("SELECT COUNT(a) FROM t WHERE a > 1").unwrap();
        let stats = s.recycler_stats().unwrap();
        assert!(stats.exact_hits >= 1, "repeat hits: {stats:?}");
        // DML invalidates: count changes after an insert
        let out = s.execute("SELECT COUNT(a) FROM t WHERE a > 1").unwrap();
        let QueryOutput::Table { rows: r1, .. } = out else {
            panic!()
        };
        s.execute("INSERT INTO t VALUES (5)").unwrap();
        let out = s.execute("SELECT COUNT(a) FROM t WHERE a > 1").unwrap();
        let QueryOutput::Table { rows: r2, .. } = out else {
            panic!()
        };
        assert_eq!(
            r2[0][0].as_i64().unwrap(),
            r1[0][0].as_i64().unwrap() + 1,
            "stale cache must not be served"
        );
    }

    /// The recycler's product is the intermediates — the candidate lists
    /// and fetched columns a later statement can reuse — so a session with
    /// one keeps its plans column-at-a-time, where a plain session fuses
    /// the same statements into one pipeline instruction.
    #[test]
    fn recycler_sessions_plan_no_pipeline_instruction() {
        let plan = |s: &mut Session, sql: &str| {
            let QueryOutput::Table { rows, .. } = s.execute(&format!("EXPLAIN {sql}")).unwrap()
            else {
                panic!("EXPLAIN yields a table")
            };
            let line = |r: &Vec<Value>| format!("{}\n", r[0]);
            rows.iter().map(line).collect::<String>()
        };
        let statements = [
            "SELECT COUNT(*), SUM(age) FROM people WHERE age > 1910",
            "SELECT age, COUNT(*) FROM people WHERE age >= 1907 AND age < 1968 GROUP BY age",
            "SELECT MIN(age), MAX(age) FROM people WHERE age <> 1927",
        ];
        let mut fusing = seeded();
        let mut recycling = seeded().with_recycler(64 << 20);
        for sql in statements {
            let fused = plan(&mut fusing, sql);
            assert_eq!(fused.matches("vector.pipeline").count(), 1, "{fused}");
            assert!(
                !fused.contains("algebra.") && !fused.contains("aggr."),
                "{fused}"
            );
            let kept = plan(&mut recycling, sql);
            assert!(!kept.contains("vector.pipeline"), "{kept}");
            assert!(
                kept.contains("algebra.") && kept.contains("aggr."),
                "{kept}"
            );
            assert_eq!(
                fusing.execute(sql).unwrap(),
                recycling.execute(sql).unwrap()
            );
        }
    }

    /// `a <= x < b` and `a <= x <= b` are both `algebra.select(x, a, b)` by
    /// name; the recycler must not answer one with the other's candidates.
    #[test]
    fn recycled_range_selects_keep_their_inclusivity_apart() {
        use mammoth_storage::Bat;
        let mut s = Session::new().with_recycler(64 << 20);
        // big enough to clear the recycler's admission cost floor
        let data: Vec<i64> = (0..300_000).map(|i| i % 7).collect();
        let schema = TableSchema::new(
            "t",
            vec![ColumnDef::new("a", mammoth_types::LogicalType::I64)],
        );
        let table = Table::from_bats(schema, vec![Bat::from_vec(data)]).unwrap();
        s.catalog_mut().create_table(table).unwrap();
        let count = |s: &mut Session, sql: &str| match s.execute(sql).unwrap() {
            QueryOutput::Table { rows, .. } => rows[0][0].as_i64().unwrap(),
            other => panic!("{sql}: {other:?}"),
        };
        let closed = count(&mut s, "SELECT COUNT(a) FROM t WHERE a BETWEEN 2 AND 4");
        let half_open = count(&mut s, "SELECT COUNT(a) FROM t WHERE a >= 2 AND a < 4");
        assert_eq!((closed, half_open), (128_571, 85_714));
    }

    #[test]
    fn explain_returns_optimized_mal_text() {
        let mut s = seeded();
        let out = s
            .execute("EXPLAIN SELECT name FROM people WHERE age = 1927")
            .unwrap();
        let QueryOutput::Table { columns, rows } = out else {
            panic!()
        };
        assert_eq!(
            columns,
            vec![
                "mal".to_string(),
                "props".to_string(),
                "est_rows".to_string(),
                "est_cost".to_string()
            ]
        );
        let text: Vec<String> = rows
            .iter()
            .map(|r| match &r[0] {
                Value::Str(s) => s.clone(),
                v => panic!("non-string plan line {v:?}"),
            })
            .collect();
        assert!(text.iter().any(|l| l.contains("sql.bind")));
        assert!(text.iter().any(|l| l.contains("algebra.thetaselect")));
        assert!(text.iter().any(|l| l.contains("io.result")));
        // the props column carries the inferred facts: the binds over the
        // 4-row people table get an exact cardinality
        let props: Vec<String> = rows
            .iter()
            .map(|r| match &r[1] {
                Value::Str(s) => s.clone(),
                v => panic!("non-string props {v:?}"),
            })
            .collect();
        assert!(props.iter().any(|p| p.contains("rows=4")), "{props:?}");
    }

    #[test]
    fn trace_returns_per_instruction_profile() {
        let mut s = seeded();
        let out = s
            .execute("TRACE SELECT name FROM people WHERE age = 1927")
            .unwrap();
        let QueryOutput::Table { columns, rows } = out else {
            panic!()
        };
        assert_eq!(columns[0], "instr");
        assert_eq!(columns[2], "op");
        assert!(!rows.is_empty());
        let ops: Vec<String> = rows
            .iter()
            .map(|r| match &r[2] {
                Value::Str(s) => s.clone(),
                v => panic!("non-string op {v:?}"),
            })
            .collect();
        assert!(ops.iter().any(|o| o == "sql.bind"));
        assert!(ops.iter().any(|o| o.starts_with("algebra.thetaselect")));
        // the profile is also available programmatically
        let run = s.last_profile().unwrap();
        assert_eq!(run.engine, "serial");
        assert_eq!(run.events.len() as u64, run.executed + run.recycled);
        assert!(run
            .events
            .iter()
            .all(|e| e.start_ns + e.dur_ns <= run.elapsed_ns));
    }

    #[test]
    fn trace_under_recycler_marks_hits() {
        let mut s = seeded().with_recycler(64 << 20);
        s.execute("TRACE SELECT name FROM people WHERE age = 1927")
            .unwrap();
        let first = s.last_profile().unwrap().clone();
        assert_eq!(first.engine, "serial+recycler");
        assert_eq!(first.recycled, 0);
        s.execute("TRACE SELECT name FROM people WHERE age = 1927")
            .unwrap();
        let second = s.last_profile().unwrap();
        // the people table is tiny, so nothing clears the recycler's
        // admission cost floor deterministically — but the counters and the
        // event invariant must still line up
        assert_eq!(
            second.executed + second.recycled,
            first.executed + first.recycled
        );
        let instr_events = second
            .events
            .iter()
            .filter(|e| e.kind == mammoth_mal::EventKind::Instr)
            .count() as u64;
        assert_eq!(instr_events, second.executed + second.recycled);
    }

    #[test]
    fn limit_and_empty_results() {
        let mut s = seeded();
        let out = s
            .execute("SELECT name FROM people WHERE age = 1 LIMIT 3")
            .unwrap();
        let QueryOutput::Table { rows, .. } = out else {
            panic!()
        };
        assert!(rows.is_empty());
        let out = s.execute("SELECT name FROM people LIMIT 2").unwrap();
        let QueryOutput::Table { rows, .. } = out else {
            panic!()
        };
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn text_rendering() {
        let mut s = seeded();
        let out = s
            .execute("SELECT name, age FROM people WHERE age = 1907")
            .unwrap();
        let text = out.to_text();
        assert!(text.contains("name"));
        assert!(text.contains("John Wayne"));
        assert!(text.lines().count() >= 3);
    }

    #[test]
    fn malformed_sql_errors_leave_session_usable() {
        let mut s = seeded();
        // every flavor of malformed input must return Err, never panic
        for bad in [
            "SELECT name FROM people WHERE name = 'oops", // unterminated string
            "SELECT 99999999999999999999999 FROM people", // integer overflow
            "SELECT FROM people",                         // missing select list
            "INSERT INTO people VALUES (1907)",           // arity mismatch
            "INSERT INTO people VALUES ('x', 'not a number')", // type mismatch
            "DELETE FROM nope WHERE age = 1",             // unknown table
            "EXPLAIN INSERT INTO people VALUES (1)",      // EXPLAIN of non-SELECT
            "TRACE DROP TABLE people",                    // TRACE of non-SELECT
            "SELECT name FROM people \u{0};",             // stray control byte
            "CREATE TABLE people (x INT)",                // duplicate table
        ] {
            assert!(s.execute(bad).is_err(), "expected error for: {bad}");
        }
        // ...and the session keeps answering queries afterwards
        let out = s.execute("SELECT COUNT(*) FROM people").unwrap();
        let QueryOutput::Table { rows, .. } = out else {
            panic!()
        };
        assert_eq!(rows[0][0], Value::I64(4));
    }

    #[test]
    fn failed_insert_mutates_nothing() {
        let mut s = seeded();
        // multi-row insert where a later row is invalid: nothing lands
        assert!(s
            .execute("INSERT INTO people VALUES ('ok', 1), ('bad', NULL)")
            .is_err());
        let out = s.execute("SELECT COUNT(*) FROM people").unwrap();
        let QueryOutput::Table { rows, .. } = out else {
            panic!()
        };
        assert_eq!(rows[0][0], Value::I64(4), "partial insert must not land");
    }

    #[test]
    fn checkpoint_requires_durable_session() {
        let mut s = Session::new();
        let err = s.execute("CHECKPOINT").unwrap_err();
        assert!(matches!(err, Error::Unsupported(_)), "{err}");
    }

    #[test]
    fn durable_session_survives_reopen() {
        let dir = std::env::temp_dir().join(format!(
            "mammoth-sql-durable-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut s = Session::open_durable(&dir).unwrap();
            s.execute("CREATE TABLE kv (k VARCHAR NOT NULL, v INT)")
                .unwrap();
            s.execute("INSERT INTO kv VALUES ('a', 1), ('b', 2)")
                .unwrap();
            s.execute("CHECKPOINT").unwrap();
            s.execute("INSERT INTO kv VALUES ('c', 3)").unwrap();
            s.execute("DELETE FROM kv WHERE k = 'a'").unwrap();
            // no clean shutdown: durability must come from WAL + checkpoint
        }
        {
            let mut s = Session::open_durable(&dir).unwrap();
            assert!(s.is_durable());
            let out = s.execute("SELECT k, v FROM kv ORDER BY k").unwrap();
            let QueryOutput::Table { rows, .. } = out else {
                panic!()
            };
            assert_eq!(
                rows,
                vec![
                    vec![Value::Str("b".into()), Value::I32(2)],
                    vec![Value::Str("c".into()), Value::I32(3)],
                ]
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn explain_replication_reports_role_and_provider_pairs() {
        let mut s = seeded();
        assert!(parse_sql("EXPLAIN REPLICATION").unwrap().is_read());
        let want_primary = QueryOutput::Table {
            columns: vec!["field".into(), "value".into()],
            rows: vec![vec![
                Value::Str("role".into()),
                Value::Str("primary".into()),
            ]],
        };
        assert_eq!(s.execute_read("EXPLAIN REPLICATION").unwrap(), want_primary);
        assert_eq!(
            s.execute("  explain replication ; ").unwrap(),
            want_primary,
            "case- and whitespace-insensitive, via execute too"
        );
        s.set_status_provider(Arc::new(|| {
            vec![
                ("role".into(), "replica".into()),
                ("lag_bytes".into(), "42".into()),
            ]
        }));
        match s.execute_read("EXPLAIN REPLICATION").unwrap() {
            QueryOutput::Table { rows, .. } => {
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[1][1], Value::Str("42".into()));
            }
            other => panic!("expected table, got {other:?}"),
        }
    }

    /// `execute` and `execute_read` enter one dispatcher: every read-capable
    /// statement kind answers identically through both doors, ad hoc and
    /// prepared, on every engine, and writes bounce off the read door typed.
    #[test]
    fn execute_read_agrees_with_execute_on_every_engine() {
        use mammoth_parallel::ParallelExecutor;
        // (ad hoc text, the same statement with its literal lifted to `?`)
        let reads = [
            (
                "SELECT name FROM people WHERE age = 1927",
                "SELECT name FROM people WHERE age = ?",
            ),
            (
                "SELECT age, COUNT(*) FROM people WHERE age > 1927 GROUP BY age ORDER BY age",
                "SELECT age, COUNT(*) FROM people WHERE age > ? GROUP BY age ORDER BY age",
            ),
            (
                "EXPLAIN SELECT name FROM people WHERE age = 1927",
                "EXPLAIN SELECT name FROM people WHERE age = ?",
            ),
        ];
        let engines = [
            ("serial", seeded()),
            ("serial+recycler", seeded().with_recycler(64 << 20)),
            (
                "dataflow",
                seeded().with_executor(Box::new(ParallelExecutor::new(2)), 2),
            ),
        ];
        for (engine, mut s) in engines {
            for (adhoc, body) in reads {
                let want = s.execute(adhoc).unwrap();
                assert_eq!(s.execute_read(adhoc).unwrap(), want, "{engine}: {adhoc}");
                // the prepared verbs themselves are read-door statements
                s.execute_read(&format!("PREPARE p AS {body}")).unwrap();
                assert_eq!(s.execute("EXECUTE p (1927)").unwrap(), want, "{engine}");
                assert_eq!(
                    s.execute_read("EXECUTE p (1927)").unwrap(),
                    want,
                    "{engine}"
                );
                s.execute_read("DEALLOCATE p").unwrap();
            }
            for bad in [
                "INSERT INTO people VALUES ('x', 1)",
                "DELETE FROM people",
                "DROP TABLE people",
                "CREATE TABLE z (a INT)",
                "CHECKPOINT",
                "TRACE SELECT name FROM people",
            ] {
                assert!(
                    matches!(s.execute_read(bad), Err(Error::Unsupported(_))),
                    "{engine}: {bad}"
                );
            }
            // a stray placeholder is refused at the dispatcher, not wherever
            // the door's own compile path happens to trip over it
            let stray = "SELECT name FROM people WHERE age = ?";
            assert!(matches!(s.execute(stray), Err(Error::Bind(_))));
            assert_eq!(
                s.execute_read(stray).unwrap_err().to_string(),
                s.execute(stray).unwrap_err().to_string()
            );
            // prepared DML bounces off the read door with the typed signal
            // for "retry me exclusively", leaving the table untouched
            s.execute("PREPARE wr AS DELETE FROM people WHERE age = ?")
                .unwrap();
            assert!(matches!(
                s.execute_read("EXECUTE wr (1927)"),
                Err(Error::NeedsWrite)
            ));
            assert_eq!(
                s.execute("EXECUTE wr (1927)").unwrap(),
                QueryOutput::Affected(2),
                "{engine}"
            );
        }
    }

    #[test]
    fn read_only_classifier_agrees_with_grammar() {
        // the door is picked from the parsed statement, so text that is
        // not a statement gets no door at all: it fails before admission
        let is_read = |q: &str| parse_sql(q).ok().map(|s| s.is_read());
        for q in ["  select name FROM people", "explain select a from t"] {
            assert_eq!(is_read(q), Some(true), "{q}");
        }
        for q in ["INSERT INTO t VALUES (1)", "CHECKPOINT", "DELETE FROM t"] {
            assert_eq!(is_read(q), Some(false), "{q}");
        }
        for q in [
            "SELECT 1",
            "\n\tEXPLAIN SELECT 1",
            "TRACE SELECT 1",
            "SELECTX FROM t",
            "",
        ] {
            assert_eq!(is_read(q), None, "{q}");
        }
        // TRACE records the session's last profile: a write
        assert_eq!(is_read("trace select a from t"), Some(false));
    }

    #[test]
    fn setters_chain_builder_style() {
        let mut s = Session::new();
        // chaining compiles and the threshold clamps at >= 1
        s.set_merge_threshold(0).set_wal_batch(64);
        assert_eq!(s.merge_threshold, 1);
    }

    #[test]
    fn nulls_in_dml_and_select() {
        let mut s = Session::new();
        s.execute("CREATE TABLE t (a INT, b VARCHAR)").unwrap();
        s.execute("INSERT INTO t VALUES (1, NULL), (NULL, 'x')")
            .unwrap();
        let out = s.execute("SELECT a, b FROM t WHERE a >= 0").unwrap();
        let QueryOutput::Table { rows, .. } = out else {
            panic!()
        };
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][1], Value::Null);
        // NOT NULL violation
        s.execute("CREATE TABLE u (a INT NOT NULL)").unwrap();
        assert!(s.execute("INSERT INTO u VALUES (NULL)").is_err());
    }

    #[test]
    fn prepare_execute_deallocate_roundtrip() {
        let mut s = seeded();
        assert_eq!(
            s.execute("PREPARE by_age AS SELECT name FROM people WHERE age = ?")
                .unwrap(),
            QueryOutput::Ok
        );
        // Same plan, two different bindings.
        let out = s.execute("EXECUTE by_age (1927)").unwrap();
        assert_eq!(
            out,
            s.execute("SELECT name FROM people WHERE age = 1927")
                .unwrap()
        );
        let out = s.execute("EXECUTE by_age (1968)").unwrap();
        let QueryOutput::Table { rows, .. } = out else {
            panic!()
        };
        assert_eq!(rows, vec![vec![Value::Str("Will Smith".into())]]);
        // Arity mismatch, unknown name, duplicate PREPARE: typed errors.
        assert!(matches!(
            s.execute("EXECUTE by_age (1, 2)"),
            Err(Error::Bind(_))
        ));
        assert!(matches!(
            s.execute("EXECUTE nope (1)"),
            Err(Error::NotFound { .. })
        ));
        assert!(matches!(
            s.execute("PREPARE by_age AS SELECT age FROM people"),
            Err(Error::AlreadyExists { .. })
        ));
        // Deallocate removes it; a second deallocate is NotFound.
        assert_eq!(s.execute("DEALLOCATE by_age").unwrap(), QueryOutput::Ok);
        assert!(matches!(
            s.execute("EXECUTE by_age (1927)"),
            Err(Error::NotFound { .. })
        ));
        assert!(matches!(
            s.execute("DEALLOCATE by_age"),
            Err(Error::NotFound { .. })
        ));
    }

    #[test]
    fn prepared_dml_binds_parameters() {
        let mut s = seeded();
        s.execute("PREPARE add AS INSERT INTO people VALUES (?, ?)")
            .unwrap();
        assert_eq!(
            s.execute("EXECUTE add ('Buster Keaton', 1895)").unwrap(),
            QueryOutput::Affected(1)
        );
        s.execute("PREPARE del AS DELETE FROM people WHERE age < ?")
            .unwrap();
        assert_eq!(
            s.execute("EXECUTE del (1900)").unwrap(),
            QueryOutput::Affected(1)
        );
        let QueryOutput::Table { rows, .. } = s.execute("SELECT COUNT(*) FROM people").unwrap()
        else {
            panic!()
        };
        assert_eq!(rows[0][0], Value::I64(4));
        // A bare placeholder outside PREPARE is rejected up front.
        assert!(matches!(
            s.execute("SELECT name FROM people WHERE age = ?"),
            Err(Error::Bind(_))
        ));
    }

    /// EXECUTE of a prepared SELECT hits the session plan cache: the
    /// second run reuses the compiled MAL instead of re-optimizing.
    #[test]
    fn repeated_execute_hits_the_plan_cache() {
        let mut s = seeded();
        s.execute("PREPARE q AS SELECT name FROM people WHERE age = ?")
            .unwrap();
        let (_, compiles_after_prepare) = s.plan_cache_stats();
        assert!(compiles_after_prepare >= 1, "PREPARE compiles eagerly");
        s.execute("EXECUTE q (1927)").unwrap();
        s.execute("EXECUTE q (1968)").unwrap();
        s.execute("EXECUTE q (1907)").unwrap();
        let (hits, compiles) = s.plan_cache_stats();
        assert_eq!(
            compiles, compiles_after_prepare,
            "EXECUTE must not recompile a cached plan"
        );
        assert!(hits >= 3, "each EXECUTE is a cache hit, saw {hits}");
    }

    /// The DDL-invalidation satellite: DROP + CREATE between EXECUTEs must
    /// recompile against the new table, never replay the stale plan.
    #[test]
    fn ddl_invalidates_cached_plans_between_executes() {
        let mut s = Session::new();
        s.execute("CREATE TABLE t (a INT, b INT)").unwrap();
        s.execute("INSERT INTO t VALUES (1, 10), (2, 20)").unwrap();
        s.execute("PREPARE q AS SELECT a FROM t WHERE a >= ?")
            .unwrap();
        let QueryOutput::Table { rows, .. } = s.execute("EXECUTE q (0)").unwrap() else {
            panic!()
        };
        assert_eq!(rows.len(), 2);
        let (_, compiles_warm) = s.plan_cache_stats();
        // Replace the table wholesale: same name, same column names, new
        // contents (and a different column order to catch stale binding).
        s.execute("DROP TABLE t").unwrap();
        s.execute("CREATE TABLE t (b INT, a INT)").unwrap();
        s.execute("INSERT INTO t VALUES (100, 7)").unwrap();
        let QueryOutput::Table { rows, .. } = s.execute("EXECUTE q (0)").unwrap() else {
            panic!()
        };
        assert_eq!(rows, vec![vec![Value::I32(7)]], "stale plan replayed");
        let (_, compiles_after_ddl) = s.plan_cache_stats();
        assert!(
            compiles_after_ddl > compiles_warm,
            "DDL must force a recompile"
        );
        // Dropping the table without recreating it: EXECUTE now fails
        // cleanly instead of resurrecting the cached plan.
        s.execute("DROP TABLE t").unwrap();
        assert!(s.execute("EXECUTE q (0)").is_err());
    }

    /// Statistics ride the checkpoint sidecar: a reopened durable session
    /// sees the same per-column stats without a rebuild.
    #[test]
    fn durable_stats_survive_reopen_via_sidecar() {
        let dir = std::env::temp_dir().join(format!(
            "mammoth-stats-sidecar-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        {
            let mut s = Session::open_durable(dir.clone()).unwrap();
            s.execute("CREATE TABLE t (a INT)").unwrap();
            s.execute("INSERT INTO t VALUES (1), (2), (3), (4), (5)")
                .unwrap();
            s.execute("CHECKPOINT").unwrap();
        }
        let s = Session::open_durable(dir.clone()).unwrap();
        let stats = s.stats_catalog();
        let t = stats.table("t").expect("sidecar stats for t");
        assert_eq!(t.rows, 5);
        let col = stats.column("t", "a").expect("column stats for t.a");
        assert_eq!(col.rows, 5);
        assert_eq!(col.min.as_ref().and_then(Value::as_i64), Some(1));
        assert_eq!(col.max.as_ref().and_then(Value::as_i64), Some(5));
        assert!(col.histogram.is_some(), "histogram folded into sidecar");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
