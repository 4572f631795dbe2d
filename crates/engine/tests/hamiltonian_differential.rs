//! Byte-identity regression gate for the Hamiltonian refactor, plus the
//! alignment scenario's end-to-end behavior.
//!
//! The `GOLDEN_*` constants are FNV-1a fingerprints recorded from the
//! pre-Hamiltonian implementation (commit `b91927d`, before `chain.rs` /
//! `kmc.rs` were made generic). The generic samplers with the default
//! edge-count Hamiltonian — and the engine sweeps built on them — must
//! reproduce those artifacts **byte for byte**: the chain's step stream,
//! both samplers' snapshot texts, trajectory samples, and sweep CSV/JSONL
//! outputs at any thread count. A step-by-step differential proptest
//! against an inline legacy reimplementation lives in
//! `crates/core/tests/proptests.rs`; this file pins the absolute bytes.

use rand::rngs::StdRng;
use sops::core::{Alignment, CompressionChain, Hamiltonian, KmcChain, StepOutcome};
use sops::system::{metrics, shapes, ParticleSystem};
use sops_engine::testkit::{fnv, tmp_dir};
use sops_engine::{Algorithm, CrashSpec, EngineConfig, GridSpec, HamiltonianSpec, JobSpec, Shape};

/// `(n, λ, seed, steps, stream_fnv, snap_fnv, snap_len)` recorded from the
/// pre-refactor chain: the formatted outcome stream of every step and the
/// exact snapshot text afterwards.
const GOLDEN_CHAIN: [(usize, f64, u64, u64, u64, u64, usize); 3] = [
    (
        10,
        3.0,
        7,
        2000,
        0xd05eb2abac9d4783,
        0xeeec58879ec2ba1d,
        254,
    ),
    (
        12,
        4.0,
        99,
        3333,
        0x86f32dbab94fbcdf,
        0x76bcc1f899297904,
        260,
    ),
    (
        8,
        0.5,
        21,
        2000,
        0x83196fc7965db171,
        0xe2e662aca4896ec9,
        246,
    ),
];

#[test]
fn chain_step_stream_and_snapshot_match_pre_refactor_bytes() {
    for (n, lambda, seed, steps, stream_fnv, snap_fnv, snap_len) in GOLDEN_CHAIN {
        let sys = ParticleSystem::connected(shapes::line(n)).unwrap();
        let mut chain = CompressionChain::from_seed(sys, lambda, seed).unwrap();
        let mut stream = String::new();
        for _ in 0..steps {
            match chain.step() {
                StepOutcome::Moved { id, dir, delta } => {
                    stream.push_str(&format!("M{id},{dir:?},{delta};"))
                }
                other => stream.push_str(&format!("{other:?};")),
            }
        }
        assert_eq!(
            fnv(stream.as_bytes()),
            stream_fnv,
            "chain step stream changed (n={n}, λ={lambda}, seed={seed})"
        );
        let snap = chain.snapshot();
        assert_eq!(snap.len(), snap_len, "snapshot length changed");
        assert_eq!(fnv(snap.as_bytes()), snap_fnv, "snapshot bytes changed");
        // Restoring must continue the identical stream (spot check).
        let restored: CompressionChain = CompressionChain::restore(&snap).unwrap();
        assert_eq!(restored.counts(), chain.counts());
    }
}

#[test]
fn chain_with_crashes_matches_pre_refactor_bytes() {
    let sys = ParticleSystem::connected(shapes::line(10)).unwrap();
    let mut chain = CompressionChain::from_seed(sys, 3.0, 4).unwrap();
    chain.crash(2);
    chain.crash(7);
    chain.run(5000);
    assert_eq!(fnv(chain.snapshot().as_bytes()), 0xeca4e3c459679db4);
    let c = chain.counts();
    assert_eq!(
        (c.moved, c.crashed, c.metropolis),
        (500, 996, 467),
        "crash-path outcome counts changed"
    );
}

/// `(shape, n, λ, seed, steps, snap_fnv, snap_len, hist)` recorded from the
/// pre-refactor rejection-free sampler. The n = 3000 row (282 words, 18
/// blocks and 2 superblocks per class bitset) was added later, recorded
/// before the mass table kept block counts.
#[allow(clippy::type_complexity)]
const GOLDEN_KMC: [(&str, usize, f64, u64, u64, u64, usize, [u64; 11]); 5] = [
    (
        "line",
        12,
        4.0,
        99,
        3333,
        0x9af113ef56d0b62e,
        263,
        [0, 0, 2, 5, 5, 3, 1, 3, 1, 0, 0],
    ),
    (
        "line",
        8,
        0.5,
        21,
        30000,
        0xc0d1d1f875c10d4e,
        254,
        [0, 0, 0, 0, 2, 7, 2, 0, 0, 0, 0],
    ),
    (
        "spiral",
        60,
        6.0,
        2,
        100_000,
        0x5f5b23094868823b,
        512,
        [0, 0, 23, 16, 5, 2, 0, 0, 0, 0, 0],
    ),
    (
        "annulus",
        3,
        4.0,
        11,
        50_000,
        0x8624ce63b704f3e7,
        318,
        [0, 0, 2, 11, 9, 4, 2, 0, 0, 0, 0],
    ),
    (
        "spiral",
        3000,
        6.0,
        5,
        2_000_000,
        0x09251e0305818704,
        18939,
        [0, 0, 117, 96, 44, 40, 15, 2, 3, 0, 0],
    ),
];

#[test]
fn kmc_snapshots_and_mass_histograms_match_pre_refactor_bytes() {
    for (shape, n, lambda, seed, steps, snap_fnv, snap_len, hist) in GOLDEN_KMC {
        let pts = match shape {
            "line" => shapes::line(n),
            "spiral" => shapes::spiral(n),
            _ => shapes::annulus(n as u32),
        };
        let sys = ParticleSystem::connected(pts).unwrap();
        let mut kmc = KmcChain::from_seed(sys, lambda, seed).unwrap();
        kmc.run(steps);
        let snap = kmc.snapshot();
        assert_eq!(
            snap.len(),
            snap_len,
            "kmc snapshot length changed ({shape})"
        );
        assert_eq!(
            fnv(snap.as_bytes()),
            snap_fnv,
            "kmc snapshot bytes changed ({shape}, n={n}, λ={lambda})"
        );
        assert_eq!(kmc.mass_histogram(), hist.to_vec(), "mass classes moved");
    }
}

/// A KMC run large enough that each class bitset of the mass table spans
/// many 16-word blocks (`6n/64` = 188 words, 12 blocks at n = 2000), under
/// the alignment Hamiltonian; the n = 3000 row of [`GOLDEN_KMC`] is the
/// edge-count counterpart. Both were recorded before the table kept block
/// counts, when drawing a member popcount-scanned the whole bitset.
#[test]
fn multiblock_alignment_kmc_matches_recorded_bytes() {
    let (n, lambda, seed) = (2000, 4.0, 8);
    let sys = ParticleSystem::connected(shapes::spiral(n))
        .unwrap()
        .with_random_orientations(3, seed ^ sops_engine::ORIENT_SALT);
    let mut kmc = KmcChain::from_seed_with(sys, lambda, seed, Alignment { q: 3 }).unwrap();
    kmc.run(1_000_000);
    let snap = kmc.snapshot();
    assert_eq!(snap.len(), 16490, "alignment kmc snapshot length changed");
    assert_eq!(
        fnv(snap.as_bytes()),
        0xd1ad6dbdc4a11e98,
        "alignment kmc snapshot bytes changed"
    );
    assert_eq!(
        kmc.mass_histogram(),
        [0, 0, 84, 210, 192, 180, 56, 15, 2, 0, 0],
        "mass classes moved"
    );
}

/// Runs `kmc` (a `spiral(500)` sampler at λ = 4) for 5·10⁵ steps: every
/// tenth particle crashes at 1.25·10⁵, and at 2.5·10⁵ the chain is
/// snapshotted and replaced by its restore. Returns the half-time and
/// final snapshots and the final mass histogram, after checking that the
/// restored chain ends where the uninterrupted one does.
fn crash_restore_run<H: Hamiltonian>(mut kmc: KmcChain<StdRng, H>) -> (String, String, Vec<u64>) {
    kmc.run(125_000);
    for id in (0..kmc.system().len()).step_by(10) {
        kmc.crash(id);
    }
    kmc.run(125_000);
    let half = kmc.snapshot();
    let mut restored: KmcChain<StdRng, H> = KmcChain::restore(&half).unwrap();
    assert_eq!(restored.snapshot(), half, "restore must round-trip");
    kmc.run(250_000);
    restored.run(250_000);
    let last = restored.snapshot();
    assert_eq!(kmc.snapshot(), last, "restored chain diverged");
    restored.assert_invariants();
    (half, last, restored.mass_histogram())
}

/// Crashes and a mid-run snapshot → restore on a few thousand accepted
/// moves, under both Hamiltonians, recorded before the mass table kept
/// per-pair ring masks.
#[test]
fn kmc_with_crashes_and_restore_matches_recorded_bytes() {
    let (n, lambda, seed) = (500, 4.0, 12);
    let sys = ParticleSystem::connected(shapes::spiral(n)).unwrap();
    let (half, last, hist) = crash_restore_run(KmcChain::from_seed(sys, lambda, seed).unwrap());
    assert_eq!(
        (half.len(), fnv(half.as_bytes())),
        (3089, 0x31b515948000001e),
        "half-time snapshot changed"
    );
    assert_eq!(
        (last.len(), fnv(last.as_bytes())),
        (3090, 0xa39bb23496d4e67d),
        "final snapshot changed"
    );
    assert_eq!(
        hist,
        [0, 0, 32, 37, 22, 20, 10, 2, 1, 0, 0],
        "mass classes moved"
    );

    let sys = ParticleSystem::connected(shapes::spiral(n))
        .unwrap()
        .with_random_orientations(2, seed ^ sops_engine::ORIENT_SALT);
    let kmc = KmcChain::from_seed_with(sys, lambda, seed, Alignment { q: 2 }).unwrap();
    let (half, last, hist) = crash_restore_run(kmc);
    assert_eq!(
        (half.len(), fnv(half.as_bytes())),
        (4159, 0xaf5b9d236d3ddb4d),
        "alignment half-time snapshot changed"
    );
    assert_eq!(
        (last.len(), fnv(last.as_bytes())),
        (4179, 0xf725824443534256),
        "alignment final snapshot changed"
    );
    assert_eq!(
        hist,
        [0, 0, 54, 76, 68, 49, 24, 6, 1, 0, 0],
        "alignment mass classes moved"
    );
}

#[test]
fn trajectory_samples_match_pre_refactor_bytes() {
    let sys = ParticleSystem::connected(shapes::line(10)).unwrap();
    let mut chain = CompressionChain::from_seed(sys, 2.0, 13).unwrap();
    let traj = chain.trajectory(1000, 100);
    assert_eq!(fnv(format!("{traj:?}").as_bytes()), 0x8f84541dd70ffb7b);
    let sys = ParticleSystem::connected(shapes::line(10)).unwrap();
    let mut kmc = KmcChain::from_seed(sys, 2.0, 13).unwrap();
    let traj = kmc.trajectory(1000, 100);
    assert_eq!(fnv(format!("{traj:?}").as_bytes()), 0xeee3ea3f68be6721);
}

/// The diverse sweep recorded before the refactor: all three algorithms ×
/// two biases × two shapes × crash on/off, events streamed on one thread.
fn golden_grid() -> Vec<JobSpec> {
    GridSpec {
        ns: vec![12],
        lambdas: vec![2.0, 4.0],
        shapes: vec![Shape::Line, Shape::Annulus(3)],
        algorithms: vec![Algorithm::CHAIN, Algorithm::CHAIN_KMC, Algorithm::Local],
        crashes: vec![
            None,
            Some(CrashSpec {
                percent: 20,
                after_burnin: true,
            }),
        ],
        steps: 4000,
        burnin: 500,
        samples: 5,
        ..GridSpec::default()
    }
    .build(9)
}

#[test]
fn engine_sweep_csv_and_jsonl_match_pre_refactor_bytes_at_any_thread_count() {
    // This test pins JSONL *bytes* (1-thread order included), so it reads
    // the raw event file instead of going through `testkit::sweep_artifacts`
    // (whose line-set view deliberately discards order).
    let dir = tmp_dir("hamiltonian_golden");
    std::fs::create_dir_all(&dir).unwrap();
    let events = dir.join("events.jsonl");
    let report = sops_engine::run_sweep(
        golden_grid(),
        &EngineConfig {
            threads: 1,
            checkpoint: None,
            events_path: Some(events.clone()),
            stop_after_checkpoints: None,
            experiment: None,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let csv = report.to_table().to_csv();
    assert_eq!(csv.len(), 2328, "sweep CSV length changed");
    assert_eq!(
        fnv(csv.as_bytes()),
        0x14f739106d057845,
        "sweep CSV bytes changed"
    );
    // On one thread the JSONL event stream is fully deterministic too; at
    // higher thread counts only the line *order* may differ (a documented
    // contract — see ARCHITECTURE.md), so the byte pin is 1-thread-only.
    let jsonl = std::fs::read_to_string(&events).unwrap();
    assert_eq!(
        fnv(jsonl.as_bytes()),
        0xe02a75ad0e549acd,
        "sweep JSONL bytes changed"
    );
    let report4 = sops_engine::run_sweep(
        golden_grid(),
        &EngineConfig {
            threads: 4,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    assert_eq!(
        csv,
        report4.to_table().to_csv(),
        "CSV must be byte-identical at any thread count"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn engine_first_hit_sweep_matches_pre_refactor_bytes() {
    let grid = GridSpec {
        ns: vec![15],
        lambdas: vec![6.0],
        algorithms: vec![Algorithm::CHAIN, Algorithm::CHAIN_KMC],
        steps: 2_000_000,
        samples: 0,
        until_alpha: Some(1.8),
        ..GridSpec::default()
    }
    .build(3);
    let report = sops_engine::run_sweep(
        grid,
        &EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let csv = report.to_table().to_csv();
    assert_eq!(
        fnv(csv.as_bytes()),
        0x5c03957a32c36599,
        "first-hit CSV changed"
    );
}

/// Acceptance gate for the second Hamiltonian: a small alignment sweep
/// completes on the engine, and the final alignment order parameter
/// `a(σ)/e(σ)` increases with λ for both samplers (λ = 1 is the unbiased
/// baseline).
#[test]
fn alignment_order_parameter_increases_with_lambda() {
    for algorithm in [Algorithm::CHAIN, Algorithm::CHAIN_KMC] {
        let grid = GridSpec {
            ns: vec![40],
            lambdas: vec![1.0, 3.0, 5.0],
            algorithms: vec![algorithm],
            hamiltonians: Some(vec![HamiltonianSpec::Alignment { q: 3 }]),
            steps: 300_000,
            samples: 4,
            ..GridSpec::default()
        }
        .build(5);
        let report = sops_engine::run_sweep(
            grid,
            &EngineConfig {
                threads: 2,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        assert!(report.is_complete());
        let orders: Vec<f64> = report
            .results
            .iter()
            .map(|r| {
                let aligned = r.final_aligned.expect("alignment jobs report a(σ)") as f64;
                aligned / r.final_edges as f64
            })
            .collect();
        assert_eq!(orders.len(), 3);
        assert!(
            orders[0] < orders[1] && orders[1] < orders[2],
            "alignment order must increase with λ ({algorithm}): {orders:?}"
        );
        assert!(
            orders[2] > 0.8,
            "λ = 5 should form strong single-orientation domains: {orders:?}"
        );
    }
}

/// Alignment jobs survive the full checkpoint/kill/resume cycle with
/// byte-identical results: the `chain-align` / `kmc-align` snapshot kinds
/// round-trip through the engine store (orientations included), and the
/// resumed sweep converges to the bytes of the uninterrupted one.
#[test]
fn alignment_sweep_interrupt_and_resume_is_byte_identical() {
    let dir = tmp_dir("alignment_resume");
    let grid = GridSpec {
        ns: vec![20],
        lambdas: vec![4.0],
        algorithms: vec![Algorithm::CHAIN, Algorithm::CHAIN_KMC],
        hamiltonians: Some(vec![HamiltonianSpec::Alignment { q: 3 }]),
        steps: 60_000,
        samples: 6,
        ..GridSpec::default()
    }
    .build(11);
    let uninterrupted = sops_engine::run_sweep(
        grid.clone(),
        &EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let interrupted = sops_engine::run_sweep(
        grid.clone(),
        &EngineConfig {
            threads: 1,
            checkpoint: Some(sops_engine::CheckpointConfig::new(&dir, 10_000)),
            stop_after_checkpoints: Some(2),
            ..EngineConfig::default()
        },
    )
    .unwrap();
    assert!(
        interrupted.interrupted,
        "stop_after must interrupt the sweep"
    );
    let resumed = sops_engine::run_sweep(
        grid.clone(),
        &EngineConfig {
            threads: 1,
            checkpoint: Some(sops_engine::CheckpointConfig::new(&dir, 10_000)),
            ..EngineConfig::default()
        },
    )
    .unwrap();
    assert!(resumed.is_complete());
    assert_eq!(
        uninterrupted.to_table().to_csv(),
        resumed.to_table().to_csv(),
        "resumed alignment sweep must reproduce the uninterrupted bytes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Specs are plain data, so a hand-built out-of-range alignment `q` must
/// surface as `InvalidInput` from the sweep — never a worker-thread panic,
/// and never silently-degenerate dynamics labeled `alignment:1`.
#[test]
fn out_of_range_alignment_q_is_an_error_not_a_panic() {
    for q in [0u8, 1, 65] {
        let spec = sops_engine::JobSpec::new(
            Algorithm::Chain(HamiltonianSpec::Alignment { q }),
            Shape::Line,
            10,
            2.0,
            100,
        );
        let err = sops_engine::run_sweep(vec![spec], &EngineConfig::default()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "q={q}");
    }
}

/// The orientation assignment is a pure function of `(q, seed ^ ORIENT_SALT)`
/// shared by `sops-cli simulate` and engine jobs, and it never perturbs the
/// simulation stream: an edge-count job with the same seed consumes the
/// identical randomness whether or not orientations are attached.
#[test]
fn orientation_assignment_never_perturbs_the_simulation_stream() {
    let seed = 77u64;
    let plain = ParticleSystem::connected(shapes::line(15)).unwrap();
    let oriented = plain
        .clone()
        .with_random_orientations(4, seed ^ sops_engine::ORIENT_SALT);
    let mut a = CompressionChain::from_seed(plain, 3.0, seed).unwrap();
    let mut b = CompressionChain::from_seed(oriented, 3.0, seed).unwrap();
    a.run(5_000);
    b.run(5_000);
    assert_eq!(a.counts(), b.counts());
    assert_eq!(a.system().positions(), b.system().positions());
    // The oriented run reports an order parameter; the plain one cannot.
    assert!(metrics::alignment_order(b.system()).is_finite());
    assert_eq!(metrics::aligned_pairs(a.system()), 0);
}
