//! Event throughput of the asynchronous local-algorithm simulator (small n
//! and the `local-large` workload's n = 10⁵), and round cost of the
//! checkerboard runner's flat and sharded paths.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sops::core::sharded::{SerialExecutor, ShardedLocalRunner};
use sops::prelude::*;

fn bench_activations(c: &mut Criterion) {
    let mut group = c.benchmark_group("local_sim");
    for n in [25usize, 100, 400] {
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::new("activation", n), &n, |b, &n| {
            let start = ParticleSystem::connected(shapes::line(n)).unwrap();
            let mut runner = LocalRunner::from_seed(&start, 4.0, 5).unwrap();
            runner.run_rounds(20);
            b.iter(|| runner.step());
        });
    }
    // At the `local-large` workload's size, where the per-particle state
    // outgrows the small-n rows' caches: a random start warmed by one round.
    let n = 100_000usize;
    let mut rng = StdRng::seed_from_u64(2016);
    let start = ParticleSystem::connected(shapes::random_connected(n, &mut rng)).unwrap();
    group.bench_with_input(BenchmarkId::new("activation", n), &n, |b, _| {
        let mut runner = LocalRunner::from_seed(&start, 4.0, 5).unwrap();
        runner.run_rounds(1);
        b.iter(|| runner.step());
    });
    group.throughput(Throughput::Elements(100));
    group.bench_function("round_n100", |b| {
        let start = ParticleSystem::connected(shapes::line(100)).unwrap();
        let mut runner = LocalRunner::from_seed(&start, 4.0, 6).unwrap();
        b.iter(|| runner.run_rounds(1));
    });
    group.finish();
}

/// One checkerboard round at n = 20000 from a random connected start, on
/// a runner warmed by a few rounds: the sharded machinery on one thread
/// (`run_rounds_with(SerialExecutor)`: cells, halos, rims, merge) against
/// the flat reference (`run_rounds`).
fn bench_rounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("local_sim");
    let n = 20_000usize;
    let mut rng = StdRng::seed_from_u64(2016);
    let start = ParticleSystem::connected(shapes::random_connected(n, &mut rng)).unwrap();
    group.throughput(Throughput::Elements(n as u64));
    group.bench_with_input(BenchmarkId::new("sharded_round", n), &n, |b, _| {
        let mut runner = ShardedLocalRunner::from_seed(&start, 4.0, 7).unwrap();
        runner.run_rounds_with(5, &SerialExecutor);
        b.iter(|| runner.run_rounds_with(1, &SerialExecutor));
    });
    group.bench_with_input(BenchmarkId::new("flat_round", n), &n, |b, _| {
        let mut runner = ShardedLocalRunner::from_seed(&start, 4.0, 7).unwrap();
        runner.run_rounds(5);
        b.iter(|| runner.run_rounds(1));
    });
    group.finish();
}

criterion_group!(benches, bench_activations, bench_rounds);
criterion_main!(benches);
