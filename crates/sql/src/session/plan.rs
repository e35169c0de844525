//! The planner tier of a [`Session`]: statistics-fed compilation and the
//! premise-checked plan cache.

use super::explain::{export_profile, trace_env_on};
use super::Session;
use crate::ast::{Predicate, SelectStmt};
use crate::compile::compile_select_ordered;
use mammoth_mal::{
    bound_column_facts, bound_column_types, column_props, default_pipeline_with_props,
    parallel_pipeline_with_props, Arg, EventKind, OpCode, ProfiledRun, Program, TraceEvent,
};
use mammoth_planner::{
    choose_pieces, estimate_program, referenced_columns, selectivity, CachedPlan, InstrEstimate,
    StatsCatalog,
};
use mammoth_types::{Error, Result};
use std::sync::Arc;

impl Session {
    /// The plan-cache lookup/compile path for a prepared SELECT, filed
    /// under `key` (its [`crate::PreparedStmt::plan_key`]).
    ///
    /// A hit requires every premise to re-check: the live properties of
    /// each column the plan binds must equal the snapshot the optimizer
    /// proved its rewrites against. DML that changes a premise (cardinality,
    /// bounds, sortedness) misses here and recompiles — correctness never
    /// rests on the cache. Those columns are all a hit looks at, and what
    /// it hands out is the shared entry, not a copy.
    pub(super) fn cached_plan_for(
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
                Some(((t, c), p))
            })
            .collect();
        let est_rows = output_rows_estimate(&prog, &self.estimates(&prog));
        let plan = CachedPlan {
            prog,
            names,
            nparams,
            premises,
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

    /// The cost model's per-instruction estimates for `prog`, with the
    /// catalog's live row count standing in for a table the statistics
    /// have never seen (a bulk load through `Catalog::create_table`).
    pub(super) fn estimates(&self, prog: &Program) -> Vec<InstrEstimate> {
        estimate_program(prog, &self.stats.lock().unwrap(), |t| self.live_rows(t))
    }

    /// Live rows of table `t`, from the catalog: O(1).
    pub(super) fn live_rows(&self, t: &str) -> Option<u64> {
        self.catalog.table(t).ok().map(|t| t.live_len() as u64)
    }

    /// Compile and optimize a SELECT with the cost model in the loop:
    /// predicates applied most-selective-first and, on a dataflow session,
    /// the mitosis piece count scaled to the table. The plan is a function
    /// of the statement, the catalog and that piece count: one of the two
    /// `mammoth_mal` pipelines a session can have, told about the columns
    /// the compiled plan binds — not about the catalog.
    pub(super) fn compile_optimized(&self, stmt: &SelectStmt) -> Result<(Program, Vec<String>)> {
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
            let pieces = match est_rows.or_else(|| self.live_rows(&stmt.from)) {
                Some(rows) if rows > 0 => choose_pieces(rows, self.pieces),
                _ => self.pieces,
            };
            let types = bound_column_types(&prog, &self.catalog);
            let pipeline = parallel_pipeline_with_props(pieces, types, facts);
            ("parallel", pipeline)
        } else {
            ("serial", default_pipeline_with_props(facts))
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

    /// Plan-cache hit/compile counters `(hits, compiles)` — what the
    /// regression tests assert one-compile-per-statement against.
    pub fn plan_cache_stats(&self) -> (u64, u64) {
        let c = self.plan_cache.lock().unwrap();
        (c.hits(), c.compiles())
    }
}

/// Export a `plan.compile` / `plan.cache_hit` event to the `MAMMOTH_TRACE`
/// sink (no-op when unset): one single-event run labelled `planner`, the
/// statement's canonical text as the event's args and the plan's estimated
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
fn output_rows_estimate(prog: &Program, est: &[InstrEstimate]) -> Option<u64> {
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
