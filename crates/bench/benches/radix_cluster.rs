//! Criterion bench for E02: radix-cluster pass schedules.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mammoth_algebra::radix_cluster;
use mammoth_cache::trace::cluster_passes;
use mammoth_types::Oid;
use mammoth_workload::uniform_keys;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let n = 1 << 18;
    let keys = uniform_keys(n, 42);
    let oids: Vec<Oid> = (0..n as u64).collect();

    let mut g = c.benchmark_group("radix_cluster");
    g.sample_size(10);
    g.throughput(Throughput::Elements(n as u64));
    for bits in [6u32, 12] {
        for passes in [1u32, 2, 3] {
            let schedule = cluster_passes(bits, bits.div_ceil(passes));
            if schedule.len() != passes as usize {
                continue;
            }
            g.bench_with_input(
                BenchmarkId::new(format!("bits{bits}"), format!("{passes}pass")),
                &schedule,
                |b, schedule| {
                    b.iter(|| {
                        black_box(radix_cluster(keys.clone(), oids.clone(), schedule, &mut ()))
                    });
                },
            );
        }
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
