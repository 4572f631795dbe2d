//! Property-based tests for the Markov chain and the local algorithm.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sops_core::chain::{CompressionChain, StepOutcome};
use sops_core::kmc::KmcChain;
use sops_core::local::LocalRunner;
use sops_core::Hamiltonian;
use sops_lattice::Direction;
use sops_system::{metrics, shapes, ParticleSystem};

fn arb_start() -> impl Strategy<Value = ParticleSystem> {
    (3usize..25, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        ParticleSystem::connected(shapes::random_connected(n, &mut rng)).unwrap()
    })
}

/// The pre-Hamiltonian chain `M`, reimplemented from the paper as a test
/// oracle: the hard-coded `λ^(e′−e)` Metropolis filter over the validity's
/// neighbor counts, consuming randomness in exactly the original order
/// (particle, direction, then `q` only when the threshold is below 1). The
/// generic chain with the default [`sops_core::EdgeCount`] Hamiltonian must
/// reproduce it bit for bit.
struct LegacyChain {
    sys: ParticleSystem,
    /// `lambda_pow[i]` = `λ^(i − 5)`, the original 11-entry table.
    lambda_pow: [f64; 11],
    rng: StdRng,
    crashed: Vec<bool>,
}

impl LegacyChain {
    fn new(sys: ParticleSystem, lambda: f64, seed: u64) -> LegacyChain {
        let mut lambda_pow = [0.0; 11];
        for (i, slot) in lambda_pow.iter_mut().enumerate() {
            *slot = lambda.powi(i as i32 - 5);
        }
        LegacyChain {
            crashed: vec![false; sys.len()],
            sys,
            lambda_pow,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// One legacy step, encoded as a comparable outcome string.
    fn step(&mut self) -> String {
        let n = self.sys.len();
        let id = self.rng.gen_range(0..n);
        let dir = Direction::ALL[self.rng.gen_range(0..6usize)];
        if self.crashed[id] {
            return "crashed".into();
        }
        let from = self.sys.position(id);
        if self.sys.is_occupied(from + dir) {
            return "occupied".into();
        }
        let validity = self.sys.check_move(from, dir);
        if validity.five_neighbor_blocked() {
            return "five".into();
        }
        if !(validity.property1 || validity.property2) {
            return "prop".into();
        }
        let delta = validity.edge_delta();
        let threshold = self.lambda_pow[(delta + 5) as usize];
        if threshold < 1.0 {
            let q: f64 = self.rng.gen();
            if q >= threshold {
                return "metropolis".into();
            }
        }
        self.sys.move_particle(id, dir).unwrap();
        format!("moved {id} {dir:?} {delta}")
    }
}

fn outcome_string(outcome: StepOutcome) -> String {
    match outcome {
        StepOutcome::Moved { id, dir, delta } => format!("moved {id} {dir:?} {delta}"),
        StepOutcome::TargetOccupied => "occupied".into(),
        StepOutcome::CrashedParticle => "crashed".into(),
        StepOutcome::FiveNeighborBlocked => "five".into(),
        StepOutcome::PropertyViolated => "prop".into(),
        StepOutcome::MetropolisRejected => "metropolis".into(),
    }
}

/// Runs `kmc` with validation on for `split` steps, crashes two
/// particles, runs `split` more, then continues both it and its restore for
/// 2000 steps, which must end in the same state.
fn pair_masks_survive<H: Hamiltonian>(
    mut kmc: KmcChain<StdRng, H>,
    seed: u64,
    split: u64,
) -> Result<(), TestCaseError> {
    let n = kmc.system().len();
    kmc.set_validation(true);
    kmc.run(split);
    kmc.crash(seed as usize % n);
    kmc.crash((seed >> 32) as usize % n);
    kmc.run(split);
    let snap = kmc.snapshot();
    let mut restored: KmcChain<StdRng, H> = KmcChain::restore(&snap).unwrap();
    restored.assert_invariants();
    kmc.run(2_000);
    restored.run(2_000);
    prop_assert_eq!(kmc.snapshot(), restored.snapshot());
    restored.assert_invariants();
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Differential oracle for the Hamiltonian refactor: the generic chain
    /// with the default edge-count Hamiltonian reproduces the legacy
    /// hard-coded chain **bit for bit** — identical outcome per step
    /// (including which particle/direction and the energy delta), identical
    /// RNG consumption (a single divergence would desynchronize every later
    /// step), identical final configuration — across random starts, biases
    /// on both sides of 1, and crash injection. Snapshot round-trips
    /// mid-stream must not perturb the stream either.
    #[test]
    fn default_hamiltonian_is_bit_identical_to_legacy_chain(
        start in arb_start(),
        lambda_pct in 30u32..700,
        seed in any::<u64>(),
        crash_one in any::<bool>(),
    ) {
        let lambda = lambda_pct as f64 / 100.0;
        let mut legacy = LegacyChain::new(start.clone(), lambda, seed);
        let mut chain = CompressionChain::from_seed(start, lambda, seed).unwrap();
        if crash_one {
            legacy.crashed[0] = true;
            chain.crash(0);
        }
        for step in 0..1_500u32 {
            if step == 700 {
                // Snapshot round-trip mid-stream: byte-stable format, and
                // the restored chain continues the identical stream.
                let snap = chain.snapshot();
                prop_assert!(!snap.contains("hamiltonian="), "default snapshots carry no hamiltonian line");
                prop_assert!(!snap.contains("orientations="), "default snapshots carry no orientations line");
                chain = CompressionChain::restore(&snap).unwrap();
            }
            let expected = legacy.step();
            let got = outcome_string(chain.step());
            prop_assert_eq!(expected, got, "diverged at step {}", step);
        }
        prop_assert_eq!(legacy.sys.positions(), chain.system().positions());
        prop_assert_eq!(legacy.sys.edge_count(), chain.system().edge_count());
    }

    /// The alignment Hamiltonian's local delta agrees with a global
    /// recount of aligned pairs across random oriented configurations —
    /// the correctness anchor for the KMC locality contract.
    #[test]
    fn alignment_delta_matches_global_recount_on_random_starts(
        start in arb_start(),
        oseed in any::<u64>(),
        q in 2u8..6,
    ) {
        use sops_core::hamiltonian::{Hamiltonian, MoveContext};
        let ham = sops_core::Alignment::new(q);
        let sys = start.with_random_orientations(q, oseed);
        let before = metrics::aligned_pairs(&sys);
        for id in 0..sys.len() {
            for dir in Direction::ALL {
                let from = sys.position(id);
                let validity = sys.check_move(from, dir);
                if !validity.is_structurally_valid() {
                    continue;
                }
                let ctx = MoveContext { sys: &sys, id, from, dir, validity };
                let local = ham.delta(&ctx);
                let mut moved = sys.clone();
                moved.move_particle(id, dir).unwrap();
                prop_assert_eq!(
                    local,
                    metrics::aligned_pairs(&moved) as i32 - before as i32
                );
            }
        }
    }

    /// The alignment KMC sampler's incrementally maintained mass table
    /// never drifts from a from-scratch recount, including under crashes —
    /// the same exactness guarantee the edge-count tower has.
    #[test]
    fn alignment_kmc_masses_match_recount(
        start in arb_start(),
        seed in any::<u64>(),
        lambda_pct in 50u32..500,
    ) {
        let lambda = lambda_pct as f64 / 100.0;
        let sys = start.with_random_orientations(3, seed ^ 0xa11);
        let mut kmc = KmcChain::from_seed_with(sys, lambda, seed, sops_core::Alignment::new(3)).unwrap();
        kmc.run(2_000);
        prop_assert_eq!(kmc.mass_histogram(), kmc.recomputed_mass_histogram());
        if kmc.system().len() > 1 {
            kmc.crash(1);
            kmc.run(1_000);
            prop_assert_eq!(kmc.mass_histogram(), kmc.recomputed_mass_histogram());
        }
    }

    /// Whatever happens, the chain's bookkeeping stays coherent: edge count
    /// matches a recount, outcome totals match the step count, positions and
    /// occupancy agree.
    #[test]
    fn chain_bookkeeping_is_coherent(start in arb_start(), lambda_pct in 30u32..700, seed in any::<u64>()) {
        let lambda = lambda_pct as f64 / 100.0;
        let mut chain = CompressionChain::from_seed(start, lambda, seed).unwrap();
        chain.run(2_000);
        prop_assert_eq!(chain.counts().total(), chain.steps());
        chain.system().assert_invariants();
    }

    /// Accepted moves always had a structurally valid shape: replaying the
    /// inverse move right after must also be structurally valid (Lemma 3.9
    /// on hole-free states).
    #[test]
    fn accepted_moves_are_reversible(start in arb_start(), seed in any::<u64>()) {
        prop_assume!(start.hole_count() == 0);
        let mut chain = CompressionChain::from_seed(start, 2.0, seed).unwrap();
        for _ in 0..500 {
            if let StepOutcome::Moved { id, dir, .. } = chain.step() {
                let back = chain
                    .system()
                    .check_move(chain.system().position(id), dir.opposite());
                prop_assert!(back.is_structurally_valid());
            }
        }
    }

    /// λ = 1 accepts every structurally valid move (the Metropolis filter
    /// never rejects), so no step outcome is MetropolisRejected.
    #[test]
    fn lambda_one_never_metropolis_rejects(start in arb_start(), seed in any::<u64>()) {
        let mut chain = CompressionChain::from_seed(start, 1.0, seed).unwrap();
        chain.run(2_000);
        prop_assert_eq!(chain.counts().metropolis, 0);
    }

    /// Large λ rejects at least as often via Metropolis as small λ on
    /// the same trajectory length from a line (biased chains resist
    /// perimeter-increasing moves).
    #[test]
    fn perimeter_never_below_pmin(start in arb_start(), seed in any::<u64>()) {
        let n = start.len();
        let mut chain = CompressionChain::from_seed(start, 5.0, seed).unwrap();
        chain.run(5_000);
        let p = chain.perimeter();
        prop_assert!(p >= metrics::pmin(n));
        if chain.is_hole_free() {
            prop_assert!(p <= metrics::pmax(n));
        }
    }

    /// The local runner's tail configuration always stays connected and its
    /// slot bookkeeping coherent, from any start and bias.
    #[test]
    fn local_runner_invariants(start in arb_start(), lambda_pct in 50u32..600, seed in any::<u64>()) {
        let lambda = lambda_pct as f64 / 100.0;
        let mut runner = LocalRunner::from_seed(&start, lambda, seed).unwrap();
        runner.run_activations(3_000);
        runner.assert_invariants();
        prop_assert!(runner.tail_system().is_connected());
        // The number of expanded particles is bounded by n.
        let expanded = (0..runner.len()).filter(|&i| runner.is_expanded(i)).count();
        prop_assert!(expanded <= runner.len());
    }

    /// Chain and local runner both conserve the particle count and anonymous
    /// multiset semantics: n never changes.
    #[test]
    fn particle_count_is_conserved(start in arb_start(), seed in any::<u64>()) {
        let n = start.len();
        let mut chain = CompressionChain::from_seed(start.clone(), 3.0, seed).unwrap();
        chain.run(1_000);
        prop_assert_eq!(chain.system().len(), n);
        let mut runner = LocalRunner::from_seed(&start, 3.0, seed).unwrap();
        runner.run_activations(1_000);
        prop_assert_eq!(runner.tail_system().len(), n);
    }

    /// Checkpointing is invisible: snapshotting the chain at an arbitrary
    /// step, restoring, and continuing produces the identical trajectory
    /// (outcome counts AND exact particle positions) to an uninterrupted
    /// run from the same seed.
    #[test]
    fn chain_snapshot_restore_matches_uninterrupted_run(
        start in arb_start(),
        lambda_pct in 50u32..600,
        seed in any::<u64>(),
        split in 0u64..3000,
    ) {
        let lambda = lambda_pct as f64 / 100.0;
        let mut full = CompressionChain::from_seed(start.clone(), lambda, seed).unwrap();
        let mut interrupted = CompressionChain::from_seed(start, lambda, seed).unwrap();
        interrupted.run(split);
        let mut resumed: CompressionChain = CompressionChain::restore(&interrupted.snapshot()).unwrap();
        full.run(split + 1_500);
        resumed.run(1_500);
        prop_assert_eq!(full.steps(), resumed.steps());
        prop_assert_eq!(full.counts(), resumed.counts());
        prop_assert_eq!(full.system().positions(), resumed.system().positions());
    }

    /// The rejection-free sampler's incrementally maintained acceptance
    /// masses exactly equal a from-scratch recomputation after arbitrary
    /// accepted-move sequences — including crash injections partway through.
    /// Both sides are integral per-class counts, so equality is exact, and
    /// the total mass S is a deterministic fold of the histogram.
    #[test]
    fn kmc_incremental_masses_match_recount(
        start in arb_start(),
        lambda_pct in 30u32..700,
        seed in any::<u64>(),
        crash_at in 0u64..2000,
    ) {
        let lambda = lambda_pct as f64 / 100.0;
        let n = start.len();
        let mut kmc = KmcChain::from_seed(start, lambda, seed).unwrap();
        kmc.run(crash_at);
        kmc.crash(seed as usize % n);
        kmc.run(5_000);
        prop_assert_eq!(kmc.mass_histogram(), kmc.recomputed_mass_histogram());
        kmc.assert_invariants();
        // The histogram fold is the only path to S, so S is exact too.
        let weights: f64 = kmc
            .mass_histogram()
            .iter()
            .enumerate()
            .map(|(c, &count)| count as f64 * lambda.powi(c as i32 - 5).min(1.0))
            .sum();
        prop_assert!((kmc.total_mass() - weights).abs() < 1e-12 * weights.max(1.0));
    }

    /// KMC checkpointing is invisible: snapshotting at an arbitrary step,
    /// restoring (which rebuilds the mass table from the configuration),
    /// and continuing produces the identical trajectory to an uninterrupted
    /// run — the canonical sorted-bucket form makes the rebuilt table
    /// sample identically.
    #[test]
    fn kmc_snapshot_restore_matches_uninterrupted_run(
        start in arb_start(),
        lambda_pct in 50u32..600,
        seed in any::<u64>(),
        split in 0u64..3000,
    ) {
        let lambda = lambda_pct as f64 / 100.0;
        let mut full = KmcChain::from_seed(start.clone(), lambda, seed).unwrap();
        let mut interrupted = KmcChain::from_seed(start, lambda, seed).unwrap();
        interrupted.run(split);
        let mut resumed: KmcChain = KmcChain::restore(&interrupted.snapshot()).unwrap();
        full.run(split + 1_500);
        resumed.run(1_500);
        prop_assert_eq!(full.steps(), resumed.steps());
        prop_assert_eq!(full.counts(), resumed.counts());
        prop_assert_eq!(full.system().positions(), resumed.system().positions());
    }

    /// The KMC sampler's stored pair masks, patched after every accepted
    /// move, equal a fresh gather at every particle, through crashes and a
    /// snapshot → restore, under the edge-count and `alignment:2`
    /// Hamiltonians. Validation re-checks the masks and the mass table
    /// after every accepted move, on both sides of the restore.
    #[test]
    fn kmc_pair_masks_survive_moves_crashes_and_restores(
        start in arb_start(),
        lambda_pct in 50u32..600,
        seed in any::<u64>(),
        split in 0u64..3000,
    ) {
        let lambda = lambda_pct as f64 / 100.0;
        let kmc = KmcChain::from_seed(start.clone(), lambda, seed).unwrap();
        pair_masks_survive(kmc, seed, split)?;
        let sys = start.with_random_orientations(2, seed ^ 0xa11);
        let kmc = KmcChain::from_seed_with(sys, lambda, seed, sops_core::Alignment::new(2)).unwrap();
        pair_masks_survive(kmc, seed, split)?;
    }

    /// Every move the KMC sampler executes is structurally valid under the
    /// paper's conditions: its mass table can only hold pairs passing the
    /// five-neighbor rule and Properties 1/2, so the configuration obeys the
    /// same invariants as the naive chain's (connectivity per Lemma 3.1).
    #[test]
    fn kmc_preserves_chain_invariants(start in arb_start(), seed in any::<u64>()) {
        let n = start.len();
        let mut kmc = KmcChain::from_seed(start, 3.0, seed).unwrap();
        kmc.set_validation(true);
        kmc.run(10_000);
        prop_assert!(kmc.system().is_connected());
        prop_assert_eq!(kmc.system().len(), n);
        kmc.system().assert_invariants();
        let p = kmc.perimeter();
        prop_assert!(p >= metrics::pmin(n));
    }

    /// The same for the local runner: snapshot → restore → continue equals
    /// an uninterrupted run, down to the simulated clock's exact bits and
    /// the configuration's canonical form.
    #[test]
    fn local_snapshot_restore_matches_uninterrupted_run(
        start in arb_start(),
        lambda_pct in 50u32..600,
        seed in any::<u64>(),
        split in 0u64..2000,
    ) {
        let lambda = lambda_pct as f64 / 100.0;
        let mut full = LocalRunner::from_seed(&start, lambda, seed).unwrap();
        let mut interrupted = LocalRunner::from_seed(&start, lambda, seed).unwrap();
        interrupted.run_activations(split);
        let mut resumed = LocalRunner::restore(&interrupted.snapshot()).unwrap();
        resumed.assert_invariants();
        full.run_activations(split + 1_000);
        resumed.run_activations(1_000);
        prop_assert_eq!(full.activations(), resumed.activations());
        prop_assert_eq!(full.moves_completed(), resumed.moves_completed());
        prop_assert_eq!(full.rounds(), resumed.rounds());
        prop_assert!(full.time().to_bits() == resumed.time().to_bits());
        prop_assert_eq!(
            full.tail_system().canonical_key(),
            resumed.tail_system().canonical_key()
        );
    }
}
