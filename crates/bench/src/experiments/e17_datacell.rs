//! E17 (extension) — DataCell: incremental *bulk*-event processing (§6.2).
//!
//! "Its salient feature is to focus on incremental bulk-event processing
//! using the binary relational algebra engine." The same continuous query
//! (filtered tumbling-window aggregate) is fed the same event stream one
//! event at a time — the classical stream-engine interface — and in bulk
//! batches of growing size. Same windows fire; throughput differs.

use crate::table::TextTable;
use crate::{fmt_secs, timed, Report, Scale};
use mammoth_algebra::{AggKind, CmpOp};
use mammoth_stream::{ContinuousQuery, DataCell, WindowKind};
use mammoth_types::{ColumnDef, LogicalType, TableSchema, Value};
use mammoth_workload::uniform_i64;

const SAME_WINDOWS: &str =
    "the same windows fire with the same results whatever the ingestion batch size";
const BULK: &str =
    "bulk-event processing through the relational engine beats tuple-at-a-time streaming";

fn fresh_cell() -> DataCell {
    let mut cell = DataCell::new(TableSchema::new(
        "ticks",
        vec![
            ColumnDef::new("price", LogicalType::I64),
            ColumnDef::new("qty", LogicalType::I64),
        ],
    ))
    .unwrap();
    cell.register(ContinuousQuery {
        name: "vwapish".into(),
        value_col: 0,
        agg: AggKind::Sum,
        filter: Some((1, CmpOp::Ge, Value::I64(10))),
        window: WindowKind::Tumbling { size: 1000 },
    })
    .unwrap();
    cell.register(ContinuousQuery {
        name: "peak".into(),
        value_col: 0,
        agg: AggKind::Max,
        filter: None,
        window: WindowKind::Sliding {
            size: 2000,
            slide: 500,
        },
    })
    .unwrap();
    cell
}

pub fn run(scale: Scale) -> Report {
    let n = scale.pick(20_000, 400_000);
    let price = uniform_i64(n, 1, 1000, 61);
    let qty = uniform_i64(n, 0, 100, 62);
    let events: Vec<Vec<Value>> = (0..n)
        .map(|i| vec![Value::I64(price[i]), Value::I64(qty[i])])
        .collect();

    let mut out = String::new();
    out.push_str(&format!(
        "E17  DataCell: {n} events through 2 continuous queries (filtered tumbling\n\
        \u{20}    sum + sliding max), varying the ingestion batch size\n\n"
    ));

    let mut t = TextTable::new(vec![
        "batch size",
        "total time",
        "events/s",
        "windows fired",
        "speedup vs 1",
    ]);
    let mut t1 = None;
    let mut reference = None;
    let mut same_windows = true;
    for batch in [1usize, 16, 256, 4096, 65_536] {
        let mut cell = fresh_cell();
        let (fired, secs) = timed(|| {
            let mut fired = Vec::new();
            for chunk in events.chunks(batch) {
                fired.extend(cell.append_batch(chunk).unwrap());
            }
            fired
        });
        t.row(vec![
            batch.to_string(),
            fmt_secs(secs),
            format!("{:.0}", n as f64 / secs),
            fired.len().to_string(),
            match t1 {
                None => "-".to_string(),
                Some(t1) => format!("{:.1}x", t1 / secs),
            },
        ]);
        t1.get_or_insert(secs);
        // windows fire in the order of the events completing them: the
        // whole sequence is the same at every batch size
        match &reference {
            None => reference = Some(fired),
            Some(first) => same_windows &= *first == fired,
        }
    }
    out.push_str(&t.render());
    Report::new(out)
        .exact("§6.2", SAME_WINDOWS, same_windows)
        .wall_clock("§6.2", BULK)
}
