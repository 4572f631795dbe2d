//! Absolute byte pins for both local-algorithm runners.
//!
//! The `GOLDEN_*` constants are FNV-1a fingerprints recorded from the
//! implementation in which `LocalRunner` still carried its own copy of
//! Algorithm `A` (before it moved onto the shared `activate_one` rule). Any
//! change to the rule, its RNG draw order, the slot encoding or either
//! snapshot format changes them.
//!
//! `GOLDEN_LOCAL`'s `snap_fnv` is the one exception: that implementation
//! listed `queue=` in its binary heap's storage order, and the pins hold
//! its snapshots with the queue re-sorted by id ([`queue_by_id`]), the
//! order `LocalRunner::snapshot` writes today. Every other byte is as
//! recorded.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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
    (10, 4.0, 3, 0x2d87ef482c178ffd, 0xf0bd57e162dae036),
    (30, 2.0, 7, 0x03fbbb19c3c43538, 0x22e7f47911c63a81),
    (60, 5.0, 11, 0x93a4ba77e019e280, 0x7e2a84cc2f5be5db),
];

/// `(n, λ, seed, snap_fnv)`: the `ShardedLocalRunner` snapshot after
/// [`SHARDED_ROUNDS`] rounds from `shapes::line(n)`.
const GOLDEN_SHARDED: [(usize, f64, u64, u64); 3] = [
    (10, 4.0, 3, 0xe2f3ef89484d706b),
    (30, 2.0, 7, 0xe2dda1e1e4ae583a),
    (60, 5.0, 11, 0x55d0f0a3ed30255c),
];

const SHARDED_ROUNDS: u64 = 120;

/// Outcomes compared after a restore from a reordered queue.
const RESUMED_ACTIVATIONS: u64 = 5_000;

/// `snapshot` with its `queue=` entries (`time:id`) re-sorted by id.
fn queue_by_id(snapshot: &str) -> String {
    with_queue(snapshot, |events| {
        events.sort_by_key(|e| e.split_once(':').unwrap().1.parse::<usize>().unwrap());
    })
}

/// `snapshot` with its `queue=` entries rearranged by `reorder`.
fn with_queue(snapshot: &str, mut reorder: impl FnMut(&mut [&str])) -> String {
    snapshot
        .lines()
        .map(|line| match line.strip_prefix("queue=") {
            Some(queue) => {
                let mut events: Vec<&str> = queue.split(';').filter(|e| !e.is_empty()).collect();
                reorder(&mut events);
                format!("queue={}\n", events.join(";"))
            }
            None => format!("{line}\n"),
        })
        .collect()
}

/// The `Debug`-formatted outcomes of the next `k` steps.
fn outcomes(runner: &mut LocalRunner, k: u64) -> String {
    let mut stream = String::new();
    for _ in 0..k {
        let outcome: Option<Activation> = runner.step();
        stream.push_str(&format!("{outcome:?};"));
    }
    stream
}

/// A `GOLDEN_LOCAL` run: `ACTIVATIONS` steps from `shapes::line(n)` with
/// particle 1 crashing after `CRASH_AT`. Returns the runner and its
/// outcome stream.
fn golden_run(n: usize, lambda: f64, seed: u64) -> (LocalRunner, String) {
    let start = ParticleSystem::connected(shapes::line(n)).unwrap();
    let mut runner = LocalRunner::from_seed(&start, lambda, seed).unwrap();
    let mut stream = outcomes(&mut runner, CRASH_AT);
    runner.crash(1);
    stream.push_str(&outcomes(&mut runner, ACTIVATIONS - CRASH_AT));
    (runner, stream)
}

#[test]
fn local_outcome_stream_and_snapshot_match_golden_bytes() {
    for (n, lambda, seed, stream_fnv, snap_fnv) in GOLDEN_LOCAL {
        let (runner, stream) = golden_run(n, lambda, seed);
        runner.assert_invariants();
        assert_eq!(
            fnv(stream.as_bytes()),
            stream_fnv,
            "outcome stream changed (n={n}, λ={lambda}, seed={seed})"
        );
        let snapshot = runner.snapshot();
        assert_eq!(
            fnv(snapshot.as_bytes()),
            snap_fnv,
            "snapshot bytes changed (n={n}, λ={lambda}, seed={seed})"
        );
        assert_eq!(queue_by_id(&snapshot), snapshot, "queue= not in id order");
    }
}

#[test]
fn restore_accepts_the_queue_in_any_order() {
    for (n, lambda, seed, _, _) in GOLDEN_LOCAL {
        let (mut runner, _) = golden_run(n, lambda, seed);
        let snapshot = runner.snapshot();
        let mut rng = StdRng::seed_from_u64(seed);
        let reversed = with_queue(&snapshot, |events| events.reverse());
        let shuffled = with_queue(&snapshot, |events| {
            for i in (1..events.len()).rev() {
                events.swap(i, rng.gen_range(0..=i));
            }
        });
        assert_ne!(reversed, snapshot);
        assert_ne!(shuffled, snapshot);
        let expected = outcomes(&mut runner, RESUMED_ACTIVATIONS);
        for (order, text) in [("reversed", &reversed), ("shuffled", &shuffled)] {
            let mut restored = LocalRunner::restore(text).unwrap();
            assert_eq!(restored.snapshot(), snapshot, "{order} queue (n={n})");
            assert_eq!(
                outcomes(&mut restored, RESUMED_ACTIVATIONS),
                expected,
                "{order} queue resumed differently (n={n})"
            );
            assert_eq!(restored.snapshot(), runner.snapshot(), "{order} (n={n})");
        }
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
