//! Criterion bench for E03: simple vs partitioned hash-join.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mammoth_algebra::{hash_join, partitioned_hash_join};
use mammoth_cache::trace::cluster_passes;
use mammoth_storage::Bat;
use mammoth_workload::permutation;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("hash_join");
    g.sample_size(10);
    for pow in [16u32, 19] {
        let n = 1usize << pow;
        let l = Bat::from_vec(permutation(n, 1));
        let r = Bat::from_vec(permutation(n, 2));
        let passes = cluster_passes(pow.saturating_sub(9), 6);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("simple", n), &n, |b, _| {
            b.iter(|| black_box(hash_join(&l, &r).unwrap().len()));
        });
        g.bench_with_input(BenchmarkId::new("partitioned", n), &n, |b, _| {
            b.iter(|| {
                black_box(
                    partitioned_hash_join(&l, &r, &passes, &mut ())
                        .unwrap()
                        .len(),
                )
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
