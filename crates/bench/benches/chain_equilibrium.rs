//! Accepted-moves/sec at the compressed equilibrium: `chain` vs `chain-kmc`.
//!
//! At λ = 6 (deep in the compression regime, λ > 2 + √2) a compressed blob
//! rejects almost every step of the naive chain — interior particles have
//! all six targets occupied, and most boundary moves fail the structural
//! conditions or the Metropolis draw — so the cost per *accepted* move is
//! the rejection count times the step cost. The rejection-free sampler does
//! work per accepted move only.
//!
//! Both samplers execute the same `CHUNK`-step budget per iteration, and at
//! stationarity their accepted-move counts per chunk share the same law, so
//! the accepted-moves/sec speedup equals the wall-clock ratio of the two
//! timings. The probe lines printed after the timings report the measured
//! acceptance rate (and thus accepted moves per chunk) used to convert
//! ns/iter into accepted-moves/sec in `BENCH_kmc.json`. `kmc_build/10000`
//! times the rejection-free sampler's construction alone.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sops::prelude::*;

/// Chain steps simulated per timed iteration.
const CHUNK: u64 = 50_000;
const LAMBDA: f64 = 6.0;
const BURN_IN: u64 = 50_000;
/// Size timed for `chain-kmc` alone.
const KMC_ONLY_N: usize = 10_000;

/// A compressed start: the hexagonal spiral is maximally dense, so
/// after a short burn-in the system sits at the α-compressed equilibrium
/// the paper's Theorem 4.5 describes.
fn compressed_start(n: usize) -> ParticleSystem {
    ParticleSystem::connected(shapes::spiral(n)).unwrap()
}

fn bench_equilibrium(c: &mut Criterion) {
    let mut group = c.benchmark_group("chain_equilibrium");
    for n in [100usize, 400, 1600] {
        group.throughput(Throughput::Elements(CHUNK));
        group.bench_with_input(BenchmarkId::new("chain", n), &n, |b, &n| {
            let mut chain = CompressionChain::from_seed(compressed_start(n), LAMBDA, 7).unwrap();
            chain.run(BURN_IN);
            b.iter(|| chain.run(CHUNK));
        });
        group.bench_with_input(BenchmarkId::new("kmc", n), &n, |b, &n| {
            let mut kmc = KmcChain::from_seed(compressed_start(n), LAMBDA, 7).unwrap();
            kmc.run(BURN_IN);
            b.iter(|| kmc.run(CHUNK));
        });
    }
    // The `kmc-equilibrium` workload's size, KMC only: the naive chain
    // would spend nearly every step rejecting.
    group.bench_with_input(BenchmarkId::new("kmc", KMC_ONLY_N), &KMC_ONLY_N, |b, &n| {
        let mut kmc = KmcChain::from_seed(compressed_start(n), LAMBDA, 7).unwrap();
        kmc.run(BURN_IN);
        b.iter(|| kmc.run(CHUNK));
    });
    // Building the mass table and the pair masks from the workload's
    // start; each iteration also clones the start (one grid copy).
    group.throughput(Throughput::Elements(KMC_ONLY_N as u64));
    group.bench_with_input(
        BenchmarkId::new("kmc_build", KMC_ONLY_N),
        &KMC_ONLY_N,
        |b, &n| {
            let start = compressed_start(n);
            b.iter(|| KmcChain::from_seed(start.clone(), LAMBDA, 7).unwrap());
        },
    );
    group.finish();

    // Acceptance-rate probes: accepted-moves/sec = rate · CHUNK / t_iter.
    for n in [100usize, 400, 1600, KMC_ONLY_N] {
        let mut probe = KmcChain::from_seed(compressed_start(n), LAMBDA, 7).unwrap();
        probe.run(BURN_IN);
        let before = probe.counts().moved;
        probe.run(1_000_000);
        let rate = (probe.counts().moved - before) as f64 / 1_000_000.0;
        println!(
            "chain_equilibrium/accept_rate/{n}: {rate:.5} \
             ({:.0} accepted moves per {CHUNK}-step iteration)",
            rate * CHUNK as f64
        );
    }
}

criterion_group!(benches, bench_equilibrium);
criterion_main!(benches);
