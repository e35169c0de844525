//! DataCell stream processing (§6.2).
//!
//! Registers two continuous queries over a tick stream and feeds events in
//! bulk baskets — "incremental bulk-event processing using the binary
//! relational algebra engine".
//!
//! Run with: `cargo run --release --example datacell_stream`

use mammoth::algebra::{AggKind, CmpOp};
use mammoth::types::{ColumnDef, LogicalType, TableSchema, Value};
use mammoth_stream::{ContinuousQuery, DataCell, WindowKind};
use mammoth_workload::uniform_i64;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut cell = DataCell::new(TableSchema::new(
        "ticks",
        vec![
            ColumnDef::new("price", LogicalType::I64),
            ColumnDef::new("qty", LogicalType::I64),
        ],
    ))?;

    cell.register(ContinuousQuery {
        name: "sum_big_trades_per_1k".into(),
        value_col: 0,
        agg: AggKind::Sum,
        filter: Some((1, CmpOp::Ge, Value::I64(50))),
        window: WindowKind::Tumbling { size: 1000 },
    })?;
    cell.register(ContinuousQuery {
        name: "rolling_max_price".into(),
        value_col: 0,
        agg: AggKind::Max,
        filter: None,
        window: WindowKind::Sliding {
            size: 5000,
            slide: 1000,
        },
    })?;

    let n = 1_000_000;
    let price = uniform_i64(n, 100, 1000, 1);
    let qty = uniform_i64(n, 1, 100, 2);
    let events: Vec<Vec<Value>> = (0..n)
        .map(|i| vec![Value::I64(price[i]), Value::I64(qty[i])])
        .collect();

    let t0 = Instant::now();
    let mut windows = 0usize;
    let mut sample = None;
    for chunk in events.chunks(8192) {
        let fired = cell.append_batch(chunk)?;
        if sample.is_none() && !fired.is_empty() {
            sample = Some(fired[0].clone());
        }
        windows += fired.len();
    }
    let dt = t0.elapsed();

    println!(
        "ingested {n} events in {:.2?} ({:.1} M events/s), {windows} windows fired",
        dt,
        n as f64 / dt.as_secs_f64() / 1e6
    );
    if let Some(w) = sample {
        println!(
            "first window: query={} window#{} -> {} over {} events",
            w.query, w.window_no, w.value, w.events
        );
    }
    Ok(())
}
