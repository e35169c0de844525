//! What a [`Session`] shows of itself: `EXPLAIN`, `TRACE` and
//! `EXPLAIN REPLICATION` result tables, and the `MAMMOTH_TRACE` export.

use super::{QueryOutput, Session};
use mammoth_mal::{analyze_props, ProfiledRun, Program, TRACE_ENV};
use mammoth_types::Value;

impl Session {
    /// The `EXPLAIN REPLICATION` result: a two-column `(field, value)`
    /// table from the installed provider, or `role = primary` without one.
    pub(super) fn replication_status(&self) -> QueryOutput {
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

    /// Render an optimized plan as the `EXPLAIN` result: one row per
    /// instruction — the MAL text, the properties the abstract
    /// interpretation inferred for its results, and the cost model's
    /// cardinality/cost estimates for the instruction.
    pub(super) fn explain_table(&self, prog: &Program) -> QueryOutput {
        let analysis = analyze_props(prog, &self.catalog).ok();
        let estimates = self.estimates(prog);
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
}

/// Whether `MAMMOTH_TRACE` names a trace sink.
pub(super) fn trace_env_on() -> bool {
    std::env::var(TRACE_ENV).is_ok_and(|p| !p.is_empty())
}

/// Append the run to the `MAMMOTH_TRACE` file (no-op when unset). An
/// unwritable trace path degrades to a stderr warning — tracing must never
/// fail the query that produced the trace.
pub(super) fn export_profile(run: &ProfiledRun) {
    if let Err(e) = run.export_env() {
        eprintln!("warning: {TRACE_ENV} export failed: {e}");
    }
}

/// Render a profile as the `TRACE <query>` result table: one row per event.
pub(super) fn profile_table(run: &ProfiledRun) -> QueryOutput {
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
