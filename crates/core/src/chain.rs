//! The Markov chain `M` for compression (Algorithm `M`, Section 3.1).
//!
//! One step of `M`, starting from a connected configuration of `n`
//! contracted particles:
//!
//! 1. Select a particle `P` uniformly at random; let `ℓ` be its location.
//! 2. Choose a neighboring location `ℓ′` and `q ∈ (0, 1)` uniformly.
//! 3. If `ℓ′` is unoccupied, `P` moves to `ℓ′` iff (1) `e ≠ 5`, (2) `(ℓ, ℓ′)`
//!    satisfies Property 1 or Property 2, and (3) `q < λ^(e′−e)`.
//!
//! The chain keeps the system connected (Lemma 3.1), eventually eliminates
//! holes and never re-creates them (Lemmas 3.2 and 3.8), is eventually
//! ergodic on the hole-free space `Ω*` (Corollary 3.11), and converges to
//! `π(σ) = λ^{e(σ)}/Z` (Lemma 3.13). For `λ > 2 + √2` the stationary
//! distribution is α-compressed with all but exponentially small probability
//! (Theorem 4.5); for `λ < 2.17` it is β-expanded (Theorem 5.7).
//!
//! The Metropolis exponent is pluggable: the chain is generic over a
//! [`Hamiltonian`] `H`, accepting with `min(1, λ^Δ)` for
//! `Δ = H(σ′) − H(σ)`, and converging to `π(σ) ∝ λ^{H(σ)}` (the structural
//! move conditions — and hence Lemmas 3.1/3.2 — do not depend on `H`). The
//! default [`EdgeCount`] instance *is* the paper's chain, bit for bit.
//!
//! [`CompressionChain`] is the shared [`Sampler`] (state, construction,
//! crashes, measurement, snapshots) over the [`Metropolis`] kernel, which
//! adds only [`CompressionChain::step`] and the [`StepCounts`].

use core::fmt;

use rand::rngs::StdRng;
use rand::Rng;
use sops_lattice::Direction;
use sops_system::{ParticleSystem, SystemError};

use crate::hamiltonian::{EdgeCount, Hamiltonian, MoveContext};
use crate::probes::ChainProbes;
use crate::sampler::{Acceptance, Kernel, Sampler};
use crate::snapshot::{Fields, SnapshotError};

/// Errors from constructing a [`CompressionChain`].
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum ChainError {
    /// The bias parameter must be finite and strictly positive.
    InvalidLambda(f64),
    /// The starting configuration must be connected (Section 3.1).
    NotConnected,
    /// The Hamiltonian rejected the configuration (missing or out-of-range
    /// per-particle state, or an unusable delta range).
    Hamiltonian(String),
    /// The underlying configuration was invalid.
    System(SystemError),
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainError::InvalidLambda(l) => {
                write!(f, "bias parameter must be finite and positive, got {l}")
            }
            ChainError::NotConnected => write!(f, "starting configuration must be connected"),
            ChainError::Hamiltonian(why) => write!(f, "hamiltonian rejected configuration: {why}"),
            ChainError::System(e) => write!(f, "invalid configuration: {e}"),
        }
    }
}

impl std::error::Error for ChainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ChainError::System(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SystemError> for ChainError {
    fn from(e: SystemError) -> ChainError {
        ChainError::System(e)
    }
}

/// The outcome of a single step of `M`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// The particle moved to the chosen neighboring location.
    Moved {
        /// The particle that moved.
        id: usize,
        /// The direction it moved in.
        dir: Direction,
        /// The resulting change `Δ = H(σ′) − H(σ)` in the Hamiltonian
        /// energy (the edge-count change for the default [`EdgeCount`]).
        delta: i32,
    },
    /// The chosen location was occupied; no move (Step 3 guard).
    TargetOccupied,
    /// The selected particle is crashed and cannot act (Section 3.3).
    CrashedParticle,
    /// Condition (1) failed: the particle has five neighbors.
    FiveNeighborBlocked,
    /// Condition (2) failed: neither Property 1 nor Property 2 holds.
    PropertyViolated,
    /// Condition (3) failed: the Metropolis draw rejected the move.
    MetropolisRejected,
}

/// Aggregate counts of step outcomes, for acceptance-rate diagnostics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StepCounts {
    /// Steps that moved a particle.
    pub moved: u64,
    /// Steps rejected because the target was occupied.
    pub target_occupied: u64,
    /// Steps rejected because the selected particle was crashed.
    pub crashed: u64,
    /// Steps rejected by the five-neighbor rule.
    pub five_neighbor: u64,
    /// Steps rejected because Properties 1/2 both failed.
    pub property: u64,
    /// Steps rejected by the Metropolis filter.
    pub metropolis: u64,
}

impl StepCounts {
    /// Total number of steps recorded.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.moved
            + self.target_occupied
            + self.crashed
            + self.five_neighbor
            + self.property
            + self.metropolis
    }

    /// Fraction of steps that moved a particle.
    #[must_use]
    pub fn acceptance_rate(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        self.moved as f64 / total as f64
    }

    fn record(&mut self, outcome: StepOutcome) {
        match outcome {
            StepOutcome::Moved { .. } => self.moved += 1,
            StepOutcome::TargetOccupied => self.target_occupied += 1,
            StepOutcome::CrashedParticle => self.crashed += 1,
            StepOutcome::FiveNeighborBlocked => self.five_neighbor += 1,
            StepOutcome::PropertyViolated => self.property += 1,
            StepOutcome::MetropolisRejected => self.metropolis += 1,
        }
    }
}

/// A sampled point of a chain trajectory.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrajectoryPoint {
    /// Chain step at which the sample was taken.
    pub step: u64,
    /// Configuration edge count `e(σ)`.
    pub edges: u64,
    /// Configuration perimeter `p(σ)`.
    pub perimeter: u64,
    /// Number of holes.
    pub holes: usize,
    /// Compression ratio `p / pmin` (∞ when `pmin = 0`).
    pub alpha: f64,
    /// Expansion ratio `p / pmax` (NaN when `pmax = 0`).
    pub beta: f64,
}

/// The chain's kernel: `M` taken literally, one step at a time, with
/// per-category rejection counts.
#[derive(Clone, Debug, Default)]
pub struct Metropolis {
    counts: StepCounts,
    /// Telemetry side channel: never serialized, never read by the
    /// algorithm (see [`crate::probes`] for the determinism contract).
    probes: ChainProbes,
}

/// The Markov chain `M`, run step by step: a [`Sampler`] over the
/// [`Metropolis`] kernel.
///
/// # Example
///
/// ```
/// use sops_core::chain::CompressionChain;
/// use sops_system::{shapes, ParticleSystem};
///
/// let start = ParticleSystem::connected(shapes::line(20)).unwrap();
/// let mut chain = CompressionChain::from_seed(start, 4.0, 1).unwrap();
/// chain.run(1_000);
/// assert_eq!(chain.counts().total(), 1_000);
/// ```
pub type CompressionChain<R = StdRng, H = EdgeCount> = Sampler<Metropolis, R, H>;

impl Kernel for Metropolis {
    const HEADER: &'static str = "sops-chain-snapshot v1";
    type Counts = StepCounts;
    type Probes = ChainProbes;

    fn new<H: Hamiltonian>(_: &ParticleSystem, _: &H, _: &Acceptance) -> Metropolis {
        Metropolis::default()
    }

    fn run<R: Rng, H: Hamiltonian>(chain: &mut CompressionChain<R, H>, steps: u64) -> u64 {
        let before = chain.kernel.counts.moved;
        for _ in 0..steps {
            chain.step();
        }
        chain.kernel.counts.moved - before
    }

    fn counts(&self) -> StepCounts {
        self.counts
    }

    fn probes(&self) -> &ChainProbes {
        &self.probes
    }

    fn encode(&self, out: &mut String) {
        let c = self.counts;
        out.push_str(&format!(
            "counts={},{},{},{},{},{}\n",
            c.moved, c.target_occupied, c.crashed, c.five_neighbor, c.property, c.metropolis
        ));
    }

    fn decode(&mut self, fields: &Fields<'_>, steps: u64) -> Result<(), SnapshotError> {
        let counts: [u64; 6] = fields.parse_array("counts")?;
        // Every step records exactly one outcome.
        let total = counts.iter().try_fold(0u64, |sum, &c| sum.checked_add(c));
        if total != Some(steps) {
            return Err(SnapshotError::Invalid(format!(
                "outcome counts {counts:?} do not sum to steps={steps}"
            )));
        }
        let [moved, target_occupied, crashed, five_neighbor, property, metropolis] = counts;
        self.counts = StepCounts {
            moved,
            target_occupied,
            crashed,
            five_neighbor,
            property,
            metropolis,
        };
        Ok(())
    }
}

impl<R: Rng, H: Hamiltonian> CompressionChain<R, H> {
    /// Executes one step of `M` (Algorithm `M`, Steps 1–8).
    pub fn step(&mut self) -> StepOutcome {
        self.steps += 1;
        let n = self.sys.len();
        // Step 1: uniform particle.
        let id = self.rng.gen_range(0..n);
        // Step 2: uniform neighboring location and uniform q ∈ (0, 1).
        // (q is drawn lazily below; the acceptance law is identical.)
        let dir = Direction::ALL[self.rng.gen_range(0..6usize)];
        let outcome = self.try_move(id, dir);
        self.kernel.counts.record(outcome);
        outcome
    }

    fn try_move(&mut self, id: usize, dir: Direction) -> StepOutcome {
        if self.crashed[id] {
            return StepOutcome::CrashedParticle;
        }
        let from = self.sys.position(id);
        // Occupied targets (the most common rejection) need one occupancy
        // bit, not the full ring mask; no RNG is consumed either way.
        if self.sys.is_occupied(from + dir) {
            return StepOutcome::TargetOccupied;
        }
        let validity = self.sys.check_move(from, dir);
        if validity.five_neighbor_blocked() {
            return StepOutcome::FiveNeighborBlocked;
        }
        if !(validity.property1 || validity.property2) {
            return StepOutcome::PropertyViolated;
        }
        // Condition (3): Metropolis filter with probability min(1, λ^Δ),
        // Δ the Hamiltonian's local energy change (e′ − e by default).
        let ctx = MoveContext {
            sys: &self.sys,
            id,
            from,
            dir,
            validity,
        };
        let delta = self.hamiltonian.delta(&ctx);
        let threshold = self.acceptance.weight(delta);
        if threshold < 1.0 {
            let q: f64 = self.rng.gen();
            if q >= threshold {
                return StepOutcome::MetropolisRejected;
            }
        }
        self.sys
            .move_particle(id, dir)
            .expect("validated move must apply");
        self.check_lemmas();
        self.kernel
            .probes
            .accepted_delta
            .record(self.acceptance.class(delta) as u64);
        StepOutcome::Moved { id, dir, delta }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sops_system::{metrics, shapes};

    fn line_chain(n: usize, lambda: f64, seed: u64) -> CompressionChain {
        let sys = ParticleSystem::connected(shapes::line(n)).unwrap();
        CompressionChain::from_seed(sys, lambda, seed).unwrap()
    }

    #[test]
    fn rejects_bad_lambda() {
        let sys = ParticleSystem::connected(shapes::line(3)).unwrap();
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = CompressionChain::from_seed(sys.clone(), bad, 0).unwrap_err();
            assert!(matches!(err, ChainError::InvalidLambda(_)), "{bad}");
        }
    }

    #[test]
    fn rejects_disconnected_start() {
        let sys = ParticleSystem::new([
            sops_lattice::TriPoint::new(0, 0),
            sops_lattice::TriPoint::new(9, 9),
        ])
        .unwrap();
        let err = CompressionChain::from_seed(sys, 2.0, 0).unwrap_err();
        assert_eq!(err, ChainError::NotConnected);
    }

    #[test]
    fn steps_are_counted_and_reproducible() {
        let mut a = line_chain(10, 4.0, 42);
        let mut b = line_chain(10, 4.0, 42);
        a.run(5000);
        b.run(5000);
        assert_eq!(a.steps(), 5000);
        assert_eq!(a.counts(), b.counts());
        assert_eq!(a.system().canonical_key(), b.system().canonical_key());
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = line_chain(10, 4.0, 1);
        let mut b = line_chain(10, 4.0, 2);
        a.run(5000);
        b.run(5000);
        // Overwhelmingly likely to differ.
        assert_ne!(a.counts(), b.counts());
    }

    #[test]
    fn invariants_hold_with_validation() {
        let mut chain = line_chain(12, 4.0, 7);
        chain.set_validation(true);
        chain.run(20_000);
        chain.system().assert_invariants();
        assert!(chain.system().is_connected());
        assert!(chain.is_hole_free());
    }

    #[test]
    fn compression_happens_at_high_lambda() {
        let mut chain = line_chain(20, 5.0, 3);
        chain.run(200_000);
        let p = chain.perimeter();
        assert!(
            p <= 2 * metrics::pmin(20),
            "perimeter {p} should approach pmin = {}",
            metrics::pmin(20)
        );
    }

    #[test]
    fn hole_elimination_from_annulus() {
        let sys = ParticleSystem::connected(shapes::annulus(3)).unwrap();
        let mut chain = CompressionChain::from_seed(sys, 4.0, 9).unwrap();
        assert!(!chain.is_hole_free());
        chain.run(200_000);
        assert!(chain.is_hole_free(), "holes must eventually vanish");
        // After elimination the perimeter formula is consistent with a full
        // hole analysis.
        assert_eq!(chain.perimeter(), chain.system().perimeter());
    }

    #[test]
    fn crashed_particles_never_move() {
        let mut chain = line_chain(10, 4.0, 5);
        let frozen = chain.system().position(0);
        chain.crash(0);
        assert!(chain.crash(0), "second crash reports prior state");
        assert_eq!(chain.crashed_count(), 1);
        chain.run(20_000);
        assert_eq!(chain.system().position(0), frozen);
        assert!(chain.counts().crashed > 0);
    }

    #[test]
    fn run_until_compressed_reports_first_hit() {
        let mut chain = line_chain(15, 6.0, 11);
        let hit = chain.run_until_compressed(1.8, 2_000_000);
        assert!(hit.is_some(), "λ=6 must compress a 15-particle line");
        let p = chain.perimeter() as f64;
        assert!(p <= 1.8 * metrics::pmin(15) as f64);
    }

    #[test]
    fn trajectory_samples_are_monotone_in_step() {
        let mut chain = line_chain(10, 2.0, 13);
        let traj = chain.trajectory(1000, 100);
        assert_eq!(traj.len(), 11);
        for w in traj.windows(2) {
            assert!(w[0].step < w[1].step);
        }
        // Perimeter and edges always satisfy the hole-free identity once
        // hole-free (a line is hole-free from the start).
        for pt in traj {
            assert_eq!(pt.holes, 0);
            assert_eq!(pt.edges, 3 * 10 - pt.perimeter - 3);
        }
    }

    #[test]
    fn snapshot_restore_continues_identically() {
        let mut a = line_chain(12, 4.0, 99);
        a.run(3_333);
        let snap = a.snapshot();
        let mut b: CompressionChain = CompressionChain::restore(&snap).unwrap();
        assert_eq!(a.steps(), b.steps());
        assert_eq!(a.counts(), b.counts());
        a.run(5_000);
        b.run(5_000);
        assert_eq!(a.counts(), b.counts());
        assert_eq!(a.system().positions(), b.system().positions());
    }

    #[test]
    fn snapshot_preserves_crash_set_and_flags() {
        let mut a = line_chain(10, 3.0, 4);
        a.crash(2);
        a.crash(7);
        a.set_validation(true);
        a.run(1_000);
        let b: CompressionChain = CompressionChain::restore(&a.snapshot()).unwrap();
        assert_eq!(b.crashed_count(), 2);
        assert!((b.lambda() - 3.0).abs() < 1e-15);
    }

    #[test]
    fn restore_rejects_malformed_snapshots() {
        use crate::snapshot::SnapshotError;
        assert!(matches!(
            CompressionChain::<StdRng>::restore("not a snapshot").unwrap_err(),
            SnapshotError::WrongHeader { .. }
        ));
        let valid = line_chain(5, 2.0, 1).snapshot();
        let truncated: String = valid
            .lines()
            .filter(|l| !l.starts_with("rng="))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(matches!(
            CompressionChain::<StdRng>::restore(&truncated).unwrap_err(),
            SnapshotError::MissingField("rng")
        ));
        // A word index past the block's 16 words is corrupt, not clamped.
        let bad_index: String = valid
            .lines()
            .map(|l| match l.strip_prefix("rng=") {
                Some(rng) => format!("rng={}/99", &rng[..rng.rfind('/').unwrap()]),
                None => l.to_string(),
            })
            .collect::<Vec<_>>()
            .join("\n");
        assert!(matches!(
            CompressionChain::<StdRng>::restore(&bad_index).unwrap_err(),
            SnapshotError::BadField { field: "rng", .. }
        ));
    }

    #[test]
    fn restore_rejects_a_hole_free_latch_on_a_configuration_with_holes() {
        let sys = ParticleSystem::connected(shapes::annulus(3)).unwrap();
        let chain = CompressionChain::from_seed(sys, 4.0, 9).unwrap();
        let snap = chain.snapshot();
        assert!(snap.contains("hole_free=0\n"));
        let forged = snap.replace("hole_free=0\n", "hole_free=1\n");
        assert!(matches!(
            CompressionChain::<StdRng>::restore(&forged).unwrap_err(),
            SnapshotError::Invalid(_)
        ));
        // A clear latch on a hole-free configuration stays legal: the latch
        // is lazy.
        let line = line_chain(6, 4.0, 1).snapshot();
        let lazy = line.replace("hole_free=1\n", "hole_free=0\n");
        let mut restored = CompressionChain::<StdRng>::restore(&lazy).unwrap();
        assert!(restored.is_hole_free());
    }

    #[test]
    fn alignment_chain_runs_validates_and_snapshots() {
        use crate::hamiltonian::Alignment;
        let sys = ParticleSystem::connected(shapes::line(12))
            .unwrap()
            .with_random_orientations(3, 5);
        let mut a = CompressionChain::from_seed_with(sys, 4.0, 7, Alignment::new(3)).unwrap();
        a.set_validation(true);
        a.run(20_000);
        assert!(a.system().is_connected());
        assert!(a.counts().moved > 0);
        let snap = a.snapshot();
        assert!(snap.contains("hamiltonian=alignment:3"));
        assert!(snap.contains("orientations="));
        let mut b: CompressionChain<StdRng, Alignment> = CompressionChain::restore(&snap).unwrap();
        assert_eq!(b.hamiltonian(), &Alignment::new(3));
        a.run(5_000);
        b.run(5_000);
        assert_eq!(a.counts(), b.counts());
        assert_eq!(a.system().positions(), b.system().positions());
        assert_eq!(a.system().orientations(), b.system().orientations());
        // Restoring under the wrong Hamiltonian type is an error, not a
        // silent reinterpretation.
        assert!(matches!(
            CompressionChain::<StdRng>::restore(&snap).unwrap_err(),
            crate::snapshot::SnapshotError::Invalid(_)
        ));
    }

    #[test]
    fn alignment_requires_orientations() {
        use crate::hamiltonian::Alignment;
        let sys = ParticleSystem::connected(shapes::line(5)).unwrap();
        let err = CompressionChain::from_seed_with(sys, 2.0, 0, Alignment::new(3)).unwrap_err();
        assert!(matches!(err, ChainError::Hamiltonian(_)));
    }

    #[test]
    fn acceptance_rate_is_sane() {
        let mut chain = line_chain(10, 4.0, 17);
        chain.run(10_000);
        let rate = chain.counts().acceptance_rate();
        assert!(rate > 0.0 && rate < 1.0, "rate {rate}");
        assert_eq!(chain.counts().total(), 10_000);
    }
}
