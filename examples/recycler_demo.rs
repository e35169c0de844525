//! The recycler: materialization turned into an advantage (§6.1).
//!
//! Replays a Skyserver-like query log (power-law repetition of range
//! queries) twice over the same column-at-a-time MAL plans — once through
//! the plain interpreter, once through the recycling scheduler, which
//! caches every materialized intermediate — and prints the hit statistics
//! and speedup.
//!
//! Run with: `cargo run --release --example recycler_demo`

use mammoth::mal::{default_pipeline, Interpreter, Program};
use mammoth::sql::{compile_select, parse_sql, Statement};
use mammoth::storage::{Bat, Catalog, Table};
use mammoth::types::{ColumnDef, LogicalType, TableSchema};
use mammoth_recycler::{run_recycling, EvictPolicy, Recycler};
use mammoth_workload::{skyserver_log, uniform_i64};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let nrows = 500_000;
    let mut catalog = Catalog::new();
    // bulk load via the storage API (examples should be quick)
    catalog.create_table(Table::from_bats(
        TableSchema::new(
            "sky",
            vec![
                ColumnDef::new("ra", LogicalType::I64),
                ColumnDef::new("dec", LogicalType::I64),
            ],
        ),
        vec![
            Bat::from_vec(uniform_i64(nrows, 0, 1_000_000, 1)),
            Bat::from_vec(uniform_i64(nrows, 0, 1_000_000, 2)),
        ],
    )?)?;

    // each statement compiled to its unfused plan: the candidate lists and
    // fetched columns between a filter and its aggregate are what recycles
    let mut plans: Vec<Program> = Vec::new();
    for q in skyserver_log(300, 2, 40, 1.1, 1_000_000, 11) {
        let col = if q.column == 0 { "ra" } else { "dec" };
        let sql = format!(
            "SELECT COUNT({col}) FROM sky WHERE {col} >= {} AND {col} <= {}",
            q.range.lo, q.range.hi
        );
        let Statement::Select(sel) = parse_sql(&sql)? else {
            unreachable!("the log holds SELECTs only");
        };
        let (prog, _) = compile_select(&catalog, &sel)?;
        plans.push(default_pipeline().optimize(prog));
    }

    let t0 = Instant::now();
    for plan in &plans {
        Interpreter::new(&catalog).run(plan)?;
    }
    let t_plain = t0.elapsed();

    let mut recycler = Recycler::new(256 << 20, EvictPolicy::BenefitPerByte)
        // zero-copy binds recompute in microseconds; don't cache them
        .with_min_cost_ns(20_000);
    let t0 = Instant::now();
    for plan in &plans {
        run_recycling(&catalog, plan, &mut recycler)?;
    }
    let t_recycled = t0.elapsed();

    println!(
        "{} queries over {nrows} rows (40 distinct, zipf-repeated):\n",
        plans.len()
    );
    println!("  without recycler : {t_plain:>10.2?}");
    println!("  with recycler    : {t_recycled:>10.2?}");
    let stats = recycler.stats();
    println!(
        "\nrecycler: {} lookups, {} hits, {} admissions, {} evictions, {} bytes resident",
        stats.lookups, stats.exact_hits, stats.admissions, stats.evictions, stats.resident_bytes
    );
    Ok(())
}
