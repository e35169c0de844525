//! The innermost trace level: one SELECT taken through the layers' public
//! functions one call at a time, a span around each.
//!
//! This is what `Session::execute` does between its own entry and exit,
//! minus the parts that have no public entry point (predicate reordering,
//! the `column_facts` snapshot, the statistics lock) — those are what is
//! left when the stages' medians are subtracted from the session level's,
//! and are reported as `sql.session_other_us`.

use crate::gen::Reply;
use crate::harness::Spans;
use mammoth_mal::{
    column_facts, column_types, default_pipeline_with_props, parallel_pipeline_with_props,
    verify_with_catalog, Interpreter, Mergetable, Mitosis, OptimizerPass, Program, TraceEvent,
};
use mammoth_parallel::{run_dataflow, run_dataflow_profiled};
use mammoth_server::ServerMsg;
use mammoth_sql::{compile_select, parse_sql, render_outputs, Statement};
use mammoth_storage::Catalog;
use mammoth_types::framing;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    Serial,
    /// The dataflow scheduler over plans cut into `pieces` by mitosis.
    Dataflow {
        threads: usize,
        pieces: usize,
    },
}

#[derive(Debug, Clone, Copy)]
pub struct StagedOpts {
    pub engine: Engine,
    /// Also encode, frame and decode the response as the server would.
    pub wire: bool,
    /// False for a prepared statement: `EXECUTE` skips parse, compile and
    /// optimize, so those calls run here only to obtain the plan and get
    /// no span.
    pub front_end: bool,
}

/// Response frame size in bytes, when the wire stages ran.
pub type RespBytes = u64;

/// Records a stage as a span, or just runs it when no log is attached.
struct Stages<'a> {
    log: Option<(&'a mut Spans, u32, i64)>,
}

impl Stages<'_> {
    fn run<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        match &mut self.log {
            Some((spans, stmt, parent)) => spans.record(name, *stmt, *parent, f).0,
            None => f(),
        }
    }
}

/// Parse, compile and optimize `sql` the way the session's SELECT path
/// does, one stage per public call.
fn compile(
    cat: &Catalog,
    sql: &str,
    engine: Engine,
    mut stages: Stages<'_>,
) -> Result<(Program, Vec<String>), String> {
    let sel = match stages
        .run("sql.parse", || parse_sql(sql))
        .map_err(|e| e.to_string())?
    {
        Statement::Select(sel) => sel,
        other => return Err(format!("staged path takes SELECTs, got {other:?}")),
    };
    let (prog, names) = stages
        .run("sql.compile", || compile_select(cat, &sel))
        .map_err(|e| e.to_string())?;
    let facts = column_facts(cat);
    let pipeline = match engine {
        Engine::Serial => default_pipeline_with_props(facts),
        Engine::Dataflow { pieces, .. } => {
            parallel_pipeline_with_props(pieces, column_types(cat), facts)
        }
    };
    let prog = stages
        .run("mal.optimize", || pipeline.try_optimize(prog))
        .map_err(|e| e.to_string())?;
    Ok((prog, names))
}

/// Take `sql` through the stages, recording a span per stage under a
/// `staged` root span of statement `stmt_id`; `parent` is the span of the
/// same statement at the level outside this one.
pub fn run_select(
    spans: &mut Spans,
    stmt_id: u32,
    parent: i64,
    cat: &Catalog,
    sql: &str,
    opts: StagedOpts,
) -> Result<(Reply, RespBytes), String> {
    let (root, prog, names) = if opts.front_end {
        let root = spans.open("staged", stmt_id, parent);
        let log = Some((&mut *spans, stmt_id, root));
        let (prog, names) = compile(cat, sql, opts.engine, Stages { log })?;
        (root, prog, names)
    } else {
        let (prog, names) = compile(cat, sql, opts.engine, Stages { log: None })?;
        (spans.open("staged", stmt_id, parent), prog, names)
    };
    let (outputs, _) = spans.record("mal.execute", stmt_id, root, || match opts.engine {
        Engine::Serial => Interpreter::new(cat).run(&prog),
        Engine::Dataflow { threads, .. } => run_dataflow(cat, &prog, threads).map(|(o, _)| o),
    });
    let outputs = outputs.map_err(|e| e.to_string())?;
    let (rendered, _) = spans.record("sql.render", stmt_id, root, || {
        render_outputs(names, outputs)
    });
    let out = rendered.map_err(|e| e.to_string())?;
    if !opts.wire {
        spans.close(root);
        return Ok((out.into(), 0));
    }
    let (frame, _) = spans.record("server.encode", stmt_id, root, || {
        let payload = ServerMsg::from_output(out).encode();
        let mut frame = Vec::with_capacity(payload.len() + 8);
        framing::frame_into(&payload, &mut frame);
        frame
    });
    let (decoded, _) = spans.record("server.decode", stmt_id, root, || {
        // the 8-byte header is length + CRC; the client checks both
        let payload = &frame[8..];
        if framing::crc32(payload).to_le_bytes() != frame[4..8] {
            return Err("response frame fails its CRC".to_string());
        }
        ServerMsg::decode(payload).map_err(|e| e.to_string())
    });
    spans.close(root);
    let reply = match decoded? {
        ServerMsg::Table { rows, .. } => Reply::Rows(rows),
        ServerMsg::Affected { n } => Reply::Affected(n),
        ServerMsg::Ok => Reply::Ok,
        other => return Err(format!("unexpected response {other:?}")),
    };
    Ok((reply, frame.len() as u64))
}

/// Stand-alone costs that sit *inside* `mal.optimize` on the session path
/// and are timed separately for sizing only: one whole-plan verification
/// against the catalog, and (dataflow) the mitosis + mergetable rewrite.
pub fn time_verify_and_mitosis(
    spans: &mut Spans,
    stmt_id: u32,
    cat: &Catalog,
    sql: &str,
    engine: Engine,
) -> Result<(), String> {
    let (prog, _) = compile(cat, sql, engine, Stages { log: None })?;
    let (verdict, _) = spans.record("mal.verify", stmt_id, -1, || {
        verify_with_catalog(&prog, cat)
    });
    verdict.map_err(|e| e.to_string())?;
    if let Engine::Dataflow { pieces, .. } = engine {
        let (raw, _) = compile_unoptimized(cat, sql)?;
        let types = column_types(cat);
        spans.record("mal.mitosis", stmt_id, -1, || {
            Mergetable::with_types(types).run(Mitosis::new(pieces).run(raw))
        });
    }
    Ok(())
}

fn compile_unoptimized(cat: &Catalog, sql: &str) -> Result<(Program, Vec<String>), String> {
    match parse_sql(sql).map_err(|e| e.to_string())? {
        Statement::Select(sel) => compile_select(cat, &sel).map_err(|e| e.to_string()),
        other => Err(format!("staged path takes SELECTs, got {other:?}")),
    }
}

/// The operator families `mal.op.*_ns_per_row` reports.
pub const OP_FAMILIES: [&str; 6] = ["select", "projection", "aggr", "group", "join", "sort"];

fn family(op: &str) -> Option<usize> {
    let prefixes: [&[&str]; 6] = [
        &["algebra.thetaselect", "algebra.select"],
        &["algebra.projection"],
        &["aggr."],
        &["group."],
        &["algebra.join"],
        &["algebra.sort"],
    ];
    prefixes
        .iter()
        .position(|ps| ps.iter().any(|p| op.starts_with(p)))
}

/// Per-instruction profile totals over a pass, by operator family, plus
/// the dataflow scheduler's counters.
#[derive(Debug, Default)]
pub struct OpProfile {
    ns: [u64; 6],
    rows_in: [u64; 6],
    pub run_ns: Vec<u64>,
    busy_ns: u64,
    capacity_ns: u64,
    pub max_inflight: u64,
}

impl OpProfile {
    fn absorb(&mut self, events: &[TraceEvent]) {
        for e in events {
            if let Some(f) = family(&e.op) {
                self.ns[f] += e.dur_ns;
                self.rows_in[f] += e.rows_in;
            }
        }
    }

    /// `(family, ns per input row)`; 0 for a family that never ran.
    pub fn ns_per_row(&self) -> Vec<(&'static str, f64)> {
        OP_FAMILIES
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let v = if self.rows_in[i] == 0 {
                    0.0
                } else {
                    self.ns[i] as f64 / self.rows_in[i] as f64
                };
                (*f, v)
            })
            .collect()
    }

    /// Share of the worker pool's time spent inside instructions.
    pub fn busy_share(&self) -> f64 {
        if self.capacity_ns == 0 {
            0.0
        } else {
            self.busy_ns as f64 / self.capacity_ns as f64
        }
    }
}

/// Run `sql` once with the engine's public per-instruction profiler on.
pub fn profile_select(
    cat: &Catalog,
    sql: &str,
    engine: Engine,
    acc: &mut OpProfile,
) -> Result<(), String> {
    let (prog, _) = compile(cat, sql, engine, Stages { log: None })?;
    match engine {
        Engine::Serial => {
            let mut it = Interpreter::new(cat).profiled(true);
            it.run(&prog).map_err(|e| e.to_string())?;
            acc.absorb(&it.take_events());
        }
        Engine::Dataflow { threads, .. } => {
            let (_, stats, events) =
                run_dataflow_profiled(cat, &prog, threads).map_err(|e| e.to_string())?;
            acc.absorb(&events);
            acc.run_ns.push(stats.elapsed_ns);
            acc.busy_ns += events.iter().map(|e| e.dur_ns).sum::<u64>();
            acc.capacity_ns += stats.elapsed_ns * threads as u64;
            acc.max_inflight = acc.max_inflight.max(stats.max_inflight);
        }
    }
    Ok(())
}
