//! The tentpole gate for intra-run sharding: sharded ≡ unsharded, bit for
//! bit, at any worker count.
//!
//! The checkerboard-synchronous runner promises that its trajectory is a
//! pure function of `(start, λ, seed, region_tiles)` — never of how many
//! workers execute a color step. These differentials pin that promise
//! three ways against the flat single-threaded reference path
//! (`run_rounds`): full snapshot bytes (configuration + every counter),
//! FNV fingerprints of the tail configuration, and the probe metrics.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sops_core::sharded::{SerialExecutor, ShardedLocalRunner};
use sops_engine::testkit::{fnv, seed_corpus};
use sops_engine::PoolExecutor;
use sops_system::{shapes, ParticleSystem};

/// The differential's start shapes: a mix of sparse (line), dense
/// (hexagon), and irregular (spiral, random) geometry so region boundaries
/// land everywhere.
fn corpus_shapes(seed: u64) -> Vec<(&'static str, ParticleSystem)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    vec![
        ("line", ParticleSystem::connected(shapes::line(30)).unwrap()),
        (
            "spiral",
            ParticleSystem::connected(shapes::spiral(40)).unwrap(),
        ),
        (
            "hexagon",
            ParticleSystem::connected(shapes::hexagon(3)).unwrap(),
        ),
        (
            "random",
            ParticleSystem::connected(shapes::random_connected(36, &mut rng)).unwrap(),
        ),
    ]
}

/// A full-fidelity fingerprint of a finished run: the snapshot text covers
/// λ, seed, region size, round/activation/move counters, crash flags, and
/// every particle's exact state.
fn state_fnv(runner: &ShardedLocalRunner) -> u64 {
    fnv(runner.snapshot().as_bytes())
}

/// The primary gate: for every (shape, λ, seed) cell, runs at 1/2/4/8
/// pool workers and under the serial executor are byte-identical to the
/// flat reference — snapshots, fingerprints, and metrics alike.
#[test]
fn sharded_runs_are_byte_identical_at_1_2_4_8_workers() {
    for seed in seed_corpus(2016, 3) {
        for (shape, start) in corpus_shapes(seed) {
            for lambda in [2.5, 4.0] {
                let label = format!("{shape} λ={lambda} seed={seed}");
                let mut reference = ShardedLocalRunner::from_seed(&start, lambda, seed).unwrap();
                reference.run_rounds(80);
                reference.assert_invariants();
                let ref_snap = reference.snapshot();
                let ref_fnv = fnv(ref_snap.as_bytes());

                let mut serial = ShardedLocalRunner::from_seed(&start, lambda, seed).unwrap();
                serial.run_rounds_with(80, &SerialExecutor);
                assert_eq!(serial.snapshot(), ref_snap, "serial executor ({label})");

                for workers in [1usize, 2, 4, 8] {
                    let mut sharded = ShardedLocalRunner::from_seed(&start, lambda, seed).unwrap();
                    sharded.run_rounds_with(80, &PoolExecutor::new(workers));
                    sharded.assert_invariants();
                    assert_eq!(
                        sharded.snapshot(),
                        ref_snap,
                        "snapshot bytes differ at {workers} workers ({label})"
                    );
                    assert_eq!(
                        state_fnv(&sharded),
                        ref_fnv,
                        "fingerprint differs at {workers} workers ({label})"
                    );
                    // Metrics: the probe counters must agree exactly too.
                    assert_eq!(sharded.probes(), reference.probes(), "{label}");
                    assert_eq!(sharded.activations(), reference.activations(), "{label}");
                    assert_eq!(
                        sharded.moves_completed(),
                        reference.moves_completed(),
                        "{label}"
                    );
                    assert_eq!(
                        sharded.tail_system().positions(),
                        reference.tail_system().positions(),
                        "{label}"
                    );
                }
            }
        }
    }
}

/// Worker-count invariance holds mid-flight, not just at the end: a run
/// chunked across *different* worker counts (including the flat reference
/// path) matches a one-shot run, chunk boundary by chunk boundary.
#[test]
fn mixing_worker_counts_mid_run_preserves_bytes() {
    let start = ParticleSystem::connected(shapes::spiral(36)).unwrap();
    let mut one_shot = ShardedLocalRunner::from_seed(&start, 3.5, 77).unwrap();
    let mut mixed = ShardedLocalRunner::from_seed(&start, 3.5, 77).unwrap();
    let schedule: [(u64, usize); 5] = [(13, 1), (7, 4), (20, 0), (1, 8), (19, 2)];
    for (rounds, workers) in schedule {
        one_shot.run_rounds(rounds);
        if workers == 0 {
            mixed.run_rounds(rounds); // the flat reference path mid-stream
        } else {
            mixed.run_rounds_with(rounds, &PoolExecutor::new(workers));
        }
        assert_eq!(
            mixed.snapshot(),
            one_shot.snapshot(),
            "divergence after the ({rounds} rounds, {workers} workers) chunk"
        );
    }
}

/// Crashed particles freeze in place but keep blocking their sites — and
/// the crash set must not perturb worker-count invariance (crashed ids are
/// skipped identically in every region's schedule).
#[test]
fn crashes_preserve_worker_count_invariance() {
    let start = ParticleSystem::connected(shapes::line(24)).unwrap();
    let run = |workers: Option<usize>| -> String {
        let mut runner = ShardedLocalRunner::from_seed(&start, 4.0, 9).unwrap();
        runner.run_rounds(10);
        for id in [0, 5, 11, 23] {
            runner.crash(id);
        }
        match workers {
            None => runner.run_rounds(70),
            Some(w) => runner.run_rounds_with(70, &PoolExecutor::new(w)),
        }
        runner.assert_invariants();
        runner.snapshot()
    };
    let reference = run(None);
    for workers in [1, 2, 4, 8] {
        assert_eq!(run(Some(workers)), reference, "{workers} workers");
    }
}

/// Snapshot portability: state captured from a sharded run restores and
/// continues identically under any executor — the snapshot carries no
/// worker count to disagree about.
#[test]
fn snapshots_restore_across_worker_counts() {
    let start = ParticleSystem::connected(shapes::hexagon(3)).unwrap();
    let mut origin = ShardedLocalRunner::from_seed(&start, 5.0, 4).unwrap();
    origin.run_rounds_with(40, &PoolExecutor::new(4));
    let snap = origin.snapshot();
    origin.run_rounds(40); // reference continuation
    let final_snap = origin.snapshot();
    for workers in [1, 2, 8] {
        let mut resumed = ShardedLocalRunner::restore(&snap).unwrap();
        resumed.run_rounds_with(40, &PoolExecutor::new(workers));
        assert_eq!(
            resumed.snapshot(),
            final_snap,
            "restored run diverged at {workers} workers"
        );
    }
}

/// Many regions at once: a 3000-particle random blob spans dozens of
/// regions at either size, so every kind of region border — the ±2 halo
/// band, corners where three neighbors meet, heads overhanging into a
/// diagonal neighbor — is crossed thousands of times. The flat reference,
/// the serial executor and a 2-worker pool agree on snapshot bytes and
/// probes.
#[test]
fn many_region_runs_are_byte_identical() {
    let mut rng = StdRng::seed_from_u64(3000);
    let start = ParticleSystem::connected(shapes::random_connected(3000, &mut rng)).unwrap();
    for region_tiles in [1u32, 2] {
        for lambda in [2.5, 4.0] {
            let label = format!("region_tiles={region_tiles} λ={lambda}");
            let fresh =
                || ShardedLocalRunner::with_region_tiles(&start, lambda, 11, region_tiles).unwrap();
            let mut reference = fresh();
            reference.run_rounds(40);
            let mut serial = fresh();
            serial.run_rounds_with(40, &SerialExecutor);
            let mut pooled = fresh();
            pooled.run_rounds_with(40, &PoolExecutor::new(2));
            for (path, runner) in [("serial", &serial), ("pool(2)", &pooled)] {
                runner.assert_invariants();
                assert_eq!(runner.snapshot(), reference.snapshot(), "{path} ({label})");
                assert_eq!(runner.probes(), reference.probes(), "{path} ({label})");
            }
            assert!(reference.moves_completed() > 0, "{label}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized differential: arbitrary connected systems, λ, seeds,
    /// region sizes and a worker count — sharded equals flat, always.
    #[test]
    fn random_systems_are_worker_count_invariant(
        n in 4usize..40,
        shape_seed in any::<u64>(),
        seed in any::<u64>(),
        lambda_eighths in 9u32..48,
        region_tiles in 1u32..4,
        workers in 1usize..9,
    ) {
        let lambda = f64::from(lambda_eighths) / 8.0;
        let mut rng = StdRng::seed_from_u64(shape_seed);
        let start =
            ParticleSystem::connected(shapes::random_connected(n, &mut rng)).unwrap();
        let mut reference =
            ShardedLocalRunner::with_region_tiles(&start, lambda, seed, region_tiles).unwrap();
        reference.run_rounds(30);
        let mut sharded =
            ShardedLocalRunner::with_region_tiles(&start, lambda, seed, region_tiles).unwrap();
        sharded.run_rounds_with(30, &PoolExecutor::new(workers));
        prop_assert_eq!(sharded.snapshot(), reference.snapshot());
    }
}
