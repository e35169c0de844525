//! X100-style vectorized analytics (§5).
//!
//! Runs a TPC-H-Q1-flavoured scan+filter+aggregate over 4M lineitem-like
//! rows while sweeping the vector size from 1 (tuple-at-a-time, "as slow as
//! a typical RDBMS") through the cache-resident sweet spot (~1000) to full
//! columns (MonetDB-style materialization), then repeats the query over
//! PFOR-compressed columns, decoded first.
//!
//! Run with: `cargo run --release --example vectorized_analytics`

use mammoth::vectorized::{
    AggKind, CmpOp, ColRef, Column, ColumnSet, MapOp, Operand, Out, Output, Pipeline, Sink, Stage,
};
use mammoth_compression::{compress, decompress, Scheme};
use mammoth_workload::LineitemSlice;
use std::time::Instant;

fn q1_pipeline() -> Pipeline {
    // SELECT count(*), sum(qty*price) WHERE shipdate <= 10500 AND qty < 25
    Pipeline {
        stages: vec![
            Stage::theta(ColRef::Source(2), CmpOp::Le, 10_500i64),
            Stage::theta(ColRef::Source(0), CmpOp::Lt, 25i64),
            Stage::Map {
                op: MapOp::Mul,
                l: ColRef::Source(0),
                r: Operand::Col(ColRef::Source(1)),
                out: 0,
            },
        ],
        sink: Sink::aggregate(vec![
            Out::Count,
            Out::Agg(AggKind::Sum, ColRef::Computed(0)),
        ]),
        computed_slots: 1,
    }
}

fn main() {
    let n = 4_000_000;
    let li = LineitemSlice::generate(n, 42);
    // the engine borrows the columns where they lie: nothing is copied in
    let plain = ColumnSet::new(vec![
        Column::I64(&li.quantity),
        Column::I64(&li.extendedprice),
        Column::I64(&li.shipdate),
    ])
    .unwrap();

    println!("Q1-like query over {n} rows, sweeping the vector size:\n");
    println!("{:>10}  {:>12}  {:>14}", "vector", "time", "rows/s");
    let mut reference = None;
    for vs in [1usize, 4, 16, 64, 256, 1024, 4096, 65_536, n] {
        let t0 = Instant::now();
        let Output::Scalars(r) = q1_pipeline().run(&plain, vs).unwrap() else {
            unreachable!("a global sink yields scalars")
        };
        let dt = t0.elapsed();
        if let Some(prev) = &reference {
            assert_eq!(prev, &r, "vector size must not change the answer");
        } else {
            reference = Some(r);
        }
        println!(
            "{:>10}  {:>12.2?}  {:>14.0}",
            vs,
            dt,
            n as f64 / dt.as_secs_f64()
        );
    }
    if let Some(aggs) = reference {
        println!("\nanswer: {aggs:?}");
    }

    println!("\nsame query over PFOR-compressed columns, decoded before the scan:");
    let packed = [&li.quantity, &li.extendedprice, &li.shipdate].map(|c| compress(c, Scheme::Pfor));
    let t0 = Instant::now();
    let decoded = packed.map(|data| decompress(&data));
    let columns = ColumnSet::new(decoded.iter().map(|c| Column::I64(c)).collect()).unwrap();
    let r = q1_pipeline().run(&columns, 1024).unwrap();
    println!("  decode + vectors=1024: {:.2?} ({r:?})", t0.elapsed());
}
