//! Criterion bench for E08: the three execution paradigms on one query.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mammoth_bench::experiments::e07_vector_size::{columns, q1};
use mammoth_types::{ColumnDef, LogicalType, TableSchema, Value};
use mammoth_volcano::expr::{ArithOp, CmpOp};
use mammoth_volcano::iter::{collect_all, AggFn};
use mammoth_volcano::{Expr, FilterOp, HashAggOp, NsmTable, ProjectOp, SeqScanOp};
use mammoth_workload::LineitemSlice;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let n = 1 << 17;
    let li = LineitemSlice::generate(n, 42);
    let nsm = NsmTable::from_columns(
        TableSchema::new(
            "li",
            vec![
                ColumnDef::new("qty", LogicalType::I64),
                ColumnDef::new("price", LogicalType::I64),
                ColumnDef::new("shipdate", LogicalType::I64),
            ],
        ),
        &[
            li.quantity.iter().map(|&x| Value::I64(x)).collect(),
            li.extendedprice.iter().map(|&x| Value::I64(x)).collect(),
            li.shipdate.iter().map(|&x| Value::I64(x)).collect(),
        ],
    )
    .unwrap();
    let cols = columns(&li);
    let pipeline = q1();

    let mut g = c.benchmark_group("paradigms");
    g.sample_size(10);
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("volcano_tuple_at_a_time", |b| {
        b.iter(|| {
            let pred = Expr::and(
                Expr::cmp(CmpOp::Le, Expr::col(2), Expr::lit(10_500i64)),
                Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::lit(25i64)),
            );
            let plan = HashAggOp::new(
                ProjectOp::new(
                    FilterOp::new(SeqScanOp::new(&nsm.file), pred),
                    vec![Expr::arith(ArithOp::Mul, Expr::col(0), Expr::col(1))],
                ),
                vec![],
                vec![AggFn::CountStar, AggFn::Sum(0)],
            );
            black_box(collect_all(plan).unwrap())
        });
    });
    g.bench_function("vectorized_1024", |b| {
        b.iter(|| black_box(pipeline.run(&cols, 1024).unwrap()));
    });
    g.bench_function("column_at_a_time_full", |b| {
        b.iter(|| black_box(pipeline.run(&cols, n).unwrap()));
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
