//! Criterion bench for E07: the vector-size sweep.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mammoth_bench::experiments::e07_vector_size::{columns, lineitem, q1};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let n = 1 << 19;
    let li = lineitem(n);
    let cols = columns(&li);
    let pipeline = q1();

    let mut g = c.benchmark_group("vector_size");
    g.sample_size(10);
    g.throughput(Throughput::Elements(n as u64));
    for vs in [1usize, 64, 1024, 65_536, n] {
        g.bench_with_input(BenchmarkId::from_parameter(vs), &vs, |b, &vs| {
            b.iter(|| black_box(pipeline.run(&cols, vs).unwrap()));
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
