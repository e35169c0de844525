//! Criterion bench for E05: naive fetch vs radix-decluster projection.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mammoth_algebra::radix_decluster_fixed;
use mammoth_workload::uniform_i64;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let n = 1 << 20;
    let fetches = n / 2;
    let column = uniform_i64(n, 0, 1 << 30, 5);
    let mut rng = StdRng::seed_from_u64(9);
    let positions: Vec<u32> = (0..fetches)
        .map(|_| rng.random_range(0..n as u32))
        .collect();

    let mut g = c.benchmark_group("projection");
    g.sample_size(10);
    g.throughput(Throughput::Elements(fetches as u64));
    g.bench_function("naive_fetch", |b| {
        b.iter(|| {
            black_box(
                positions
                    .iter()
                    .map(|&p| column[p as usize])
                    .collect::<Vec<i64>>(),
            )
        });
    });
    for bits in [4u32, 6, 8] {
        g.bench_with_input(
            BenchmarkId::new("radix_decluster", bits),
            &bits,
            |b, &bits| {
                b.iter(|| black_box(radix_decluster_fixed(&positions, &column, bits, &mut ())));
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
