//! Throughput of one step of Markov chain `M` as a function of system size.
//!
//! The figure-scale experiments run 5M–20M steps, so single-step cost is the
//! limiting factor of the whole harness. The `rng` group times the draws a
//! step makes, so their share of the step is visible.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::{Rng, RngCore};
use sops::prelude::*;

fn equilibrated_chain(n: usize, lambda: f64) -> CompressionChain {
    let start = ParticleSystem::connected(shapes::line(n)).unwrap();
    let mut chain = CompressionChain::from_seed(start, lambda, 7).unwrap();
    chain.run(20_000); // move past the highly-rejecting initial line
    chain
}

fn bench_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("chain_step");
    for n in [100usize, 400, 1600] {
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::new("lambda4", n), &n, |b, &n| {
            let mut chain = equilibrated_chain(n, 4.0);
            b.iter(|| chain.step());
        });
    }
    // Acceptance regime comparison at fixed n.
    for lambda in [0.5, 2.0, 6.0] {
        group.bench_with_input(
            BenchmarkId::new("n100_lambda", format!("{lambda}")),
            &lambda,
            |b, &lambda| {
                let mut chain = equilibrated_chain(100, lambda);
                b.iter(|| chain.step());
            },
        );
    }
    group.finish();
}

fn bench_run_block(c: &mut Criterion) {
    let mut group = c.benchmark_group("chain_run");
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("10k_steps_n100", |b| {
        let mut chain = equilibrated_chain(100, 4.0);
        b.iter(|| chain.run(10_000));
    });
    group.finish();
}

/// Raw generator cost: 1 000 `next_u64`s, and 1 000 `gen_range(0..60)`s
/// (the chain's particle draw at the `compress-line` size).
fn bench_rng(c: &mut Criterion) {
    let mut group = c.benchmark_group("rng");
    group.throughput(Throughput::Elements(1000));
    let mut rng = StdRng::seed_from_u64(7);
    group.bench_function("next_u64_x1000", |b| {
        b.iter(|| (0..1000).fold(0u64, |acc, _| acc ^ rng.next_u64()));
    });
    group.bench_with_input(
        BenchmarkId::new("gen_range_x1000", 60),
        &60usize,
        |b, &n| {
            b.iter(|| (0..1000).fold(0usize, |acc, _| acc ^ rng.gen_range(0..black_box(n))));
        },
    );
    group.finish();
}

criterion_group!(benches, bench_step, bench_run_block, bench_rng);
criterion_main!(benches);
