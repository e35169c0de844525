//! E13 — The recycler on a Skyserver-like log (§6.1, \[19\]).
//!
//! The same zipf-repetitive query log is compiled statement by statement to
//! the same column-at-a-time MAL plans (`compile_select` +
//! `default_pipeline()`, unfused: the intermediates are the recycler's
//! product) and run by the plain interpreter, by the recycling scheduler
//! under a roomy budget, and under a deliberately tiny one (to show graceful
//! degradation). A last row runs the log through `Session::execute` — the
//! fused plan a statement actually gets, no recycler — so the table shows
//! when recycling still beats fusion.

use crate::table::TextTable;
use crate::{fmt_secs, timed, Report, Scale};
use mammoth_mal::{default_pipeline, Interpreter, Program};
use mammoth_recycler::{run_recycling, EvictPolicy, Recycler};
use mammoth_sql::{compile_select, parse_sql, Session, Statement};
use mammoth_storage::{Bat, Catalog, Table};
use mammoth_types::{ColumnDef, LogicalType, TableSchema};
use mammoth_workload::{skyserver_log, uniform_i64};

/// The budget too small for the log's intermediates.
const TINY: usize = 2 << 20;

const RECYCLES: &str = "the recycler answers the log's repeats from kept intermediates, and a tiny budget evicts yet still hits";

/// How one row of the table runs the log.
enum Engine {
    /// The unfused plan under the plain interpreter.
    Interpreter,
    /// The unfused plan under the recycling scheduler, with this budget.
    Recycling(usize),
    /// `Session::execute`: the fused plan a statement gets today.
    Session,
}

fn build_session(nrows: usize) -> Session {
    let mut s = Session::new();
    let table = Table::from_bats(
        TableSchema::new(
            "sky",
            vec![
                ColumnDef::new("ra", LogicalType::I64),
                ColumnDef::new("dec", LogicalType::I64),
            ],
        ),
        vec![
            Bat::from_vec(uniform_i64(nrows, 0, 1_000_000, 31)),
            Bat::from_vec(uniform_i64(nrows, 0, 1_000_000, 32)),
        ],
    )
    .unwrap();
    s.catalog_mut().create_table(table).unwrap();
    s
}

/// Parse, compile and default-optimize one statement: the unfused plan.
fn unfused_plan(catalog: &Catalog, sql: &str) -> Program {
    let Statement::Select(sel) = parse_sql(sql).unwrap() else {
        panic!("the log holds SELECTs only");
    };
    let (prog, _) = compile_select(catalog, &sel).unwrap();
    default_pipeline().optimize(prog)
}

pub fn run(scale: Scale) -> Report {
    let nrows = scale.pick(100_000, 1_000_000);
    let nq = scale.pick(100, 400);
    let log = skyserver_log(nq, 2, 40, 1.1, 1_000_000, 33);

    let mut out = String::new();
    out.push_str(&format!(
        "E13  Skyserver-like log: {nq} queries (40 distinct, zipf-repeated) over {nrows} rows\n\n"
    ));

    let mut t = TextTable::new(vec![
        "configuration",
        "total time",
        "exact hits",
        "evictions",
        "speedup",
    ]);
    let mut session = build_session(nrows);
    let mut base_time = None;
    let mut recycles = true;
    for (name, engine) in [
        ("unfused, no recycler", Engine::Interpreter),
        ("unfused, recycler 256 MB", Engine::Recycling(256 << 20)),
        ("unfused, recycler 2 MB (tiny)", Engine::Recycling(TINY)),
        ("fused session, no recycler", Engine::Session),
    ] {
        let budget = match engine {
            Engine::Recycling(bytes) => bytes,
            _ => 0,
        };
        // zero-copy binds recompute in microseconds; don't cache them
        let mut rec = Recycler::new(budget, EvictPolicy::BenefitPerByte).with_min_cost_ns(20_000);
        let (_, secs) = timed(|| {
            for q in &log {
                let col = if q.column == 0 { "ra" } else { "dec" };
                let sql = format!(
                    "SELECT COUNT({col}) FROM sky WHERE {col} >= {} AND {col} <= {}",
                    q.range.lo, q.range.hi
                );
                let cat = session.catalog();
                let done = match engine {
                    Engine::Interpreter => {
                        let plan = unfused_plan(cat, &sql);
                        Interpreter::new(cat).run(&plan).map(drop)
                    }
                    Engine::Recycling(_) => {
                        run_recycling(cat, &unfused_plan(cat, &sql), &mut rec).map(drop)
                    }
                    Engine::Session => session.execute(&sql).map(drop),
                };
                done.unwrap();
            }
        });
        let stats = rec.stats();
        if let Engine::Recycling(bytes) = engine {
            // every budget hits; only the tiny one has to evict
            recycles &= stats.exact_hits > 0 && (stats.evictions > 0) == (bytes == TINY);
        }
        t.row(vec![
            name.to_string(),
            fmt_secs(secs),
            stats.exact_hits.to_string(),
            stats.evictions.to_string(),
            match base_time {
                None => "-".to_string(),
                Some(base) => format!("{:.2}x", base / secs),
            },
        ]);
        base_time.get_or_insert(secs);
    }
    out.push_str(&t.render());
    Report::new(out).exact("§6.1 [19]", RECYCLES, recycles)
}
