//! Absolute byte pins for both local-algorithm runners.
//!
//! The `GOLDEN_*` constants are FNV-1a fingerprints recorded from the
//! implementation in which `LocalRunner` still carried its own copy of
//! Algorithm `A` (before it moved onto the shared `activate_one` rule). Any
//! change to the rule, its RNG draw order, the slot encoding or either
//! snapshot format changes them.

use sops::core::local::{Activation, LocalRunner};
use sops::core::sharded::{SerialExecutor, ShardedLocalRunner};
use sops::system::{shapes, ParticleSystem};
use sops_engine::testkit::fnv;

/// Activations per pinned `LocalRunner` run.
const ACTIVATIONS: u64 = 20_000;
/// The activation after which particle 1 crashes.
const CRASH_AT: u64 = 5_000;

/// `(n, λ, seed, stream_fnv, snap_fnv)`: the `Debug`-formatted outcome of
/// every `step()` and the final `snapshot()` text, from `shapes::line(n)`.
const GOLDEN_LOCAL: [(usize, f64, u64, u64, u64); 3] = [
    (10, 4.0, 3, 0x2d87ef482c178ffd, 0x0c50b0d779fcded8),
    (30, 2.0, 7, 0x03fbbb19c3c43538, 0x2d4c3dd75cadbc6b),
    (60, 5.0, 11, 0x93a4ba77e019e280, 0x02d05a0e52e53eff),
];

/// `(n, λ, seed, snap_fnv)`: the `ShardedLocalRunner` snapshot after
/// [`SHARDED_ROUNDS`] rounds from `shapes::line(n)`.
const GOLDEN_SHARDED: [(usize, f64, u64, u64); 3] = [
    (10, 4.0, 3, 0xe2f3ef89484d706b),
    (30, 2.0, 7, 0xe2dda1e1e4ae583a),
    (60, 5.0, 11, 0x55d0f0a3ed30255c),
];

const SHARDED_ROUNDS: u64 = 120;

#[test]
fn local_outcome_stream_and_snapshot_match_golden_bytes() {
    for (n, lambda, seed, stream_fnv, snap_fnv) in GOLDEN_LOCAL {
        let start = ParticleSystem::connected(shapes::line(n)).unwrap();
        let mut runner = LocalRunner::from_seed(&start, lambda, seed).unwrap();
        let mut stream = String::new();
        for i in 0..ACTIVATIONS {
            if i == CRASH_AT {
                runner.crash(1);
            }
            let outcome: Option<Activation> = runner.step();
            stream.push_str(&format!("{outcome:?};"));
        }
        runner.assert_invariants();
        assert_eq!(
            fnv(stream.as_bytes()),
            stream_fnv,
            "outcome stream changed (n={n}, λ={lambda}, seed={seed})"
        );
        assert_eq!(
            fnv(runner.snapshot().as_bytes()),
            snap_fnv,
            "snapshot bytes changed (n={n}, λ={lambda}, seed={seed})"
        );
    }
}

#[test]
fn sharded_snapshots_match_golden_bytes_on_both_paths() {
    for (n, lambda, seed, snap_fnv) in GOLDEN_SHARDED {
        let start = ParticleSystem::connected(shapes::line(n)).unwrap();
        let mut flat = ShardedLocalRunner::from_seed(&start, lambda, seed).unwrap();
        let mut sharded = ShardedLocalRunner::from_seed(&start, lambda, seed).unwrap();
        flat.run_rounds(SHARDED_ROUNDS);
        sharded.run_rounds_with(SHARDED_ROUNDS, &SerialExecutor);
        for (path, runner) in [("run_rounds", &flat), ("run_rounds_with", &sharded)] {
            assert_eq!(
                fnv(runner.snapshot().as_bytes()),
                snap_fnv,
                "{path} snapshot changed (n={n}, λ={lambda}, seed={seed})"
            );
        }
    }
}
