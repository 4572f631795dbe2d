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

use core::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sops_lattice::Direction;
use sops_system::{metrics, ParticleSystem, SystemError};

use crate::hamiltonian::{EdgeCount, Hamiltonian, MoveContext};
use crate::measure::HoleTracker;
use crate::probes::ChainProbes;
use crate::snapshot::{self, SnapshotError};

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

/// The Markov chain `M`, biased by `λ` toward configurations with higher
/// Hamiltonian energy (more edges, under the default [`EdgeCount`]).
///
/// Generic over the random source and the [`Hamiltonian`]; the
/// [`CompressionChain::from_seed`] convenience constructor uses a seeded
/// [`StdRng`] for exact reproducibility, and
/// [`CompressionChain::with_hamiltonian`] selects a non-default energy.
#[derive(Clone, Debug)]
pub struct CompressionChain<R: Rng = StdRng, H: Hamiltonian = EdgeCount> {
    sys: ParticleSystem,
    lambda: f64,
    hamiltonian: H,
    /// `bias[i]` = `λ^(delta_min + i)` for deltas in
    /// `[delta_min, delta_max]` (the `λ^Δ` of the Metropolis filter).
    bias: Vec<f64>,
    /// Cached `hamiltonian.delta_min()` — the index offset into `bias`.
    delta_min: i32,
    rng: R,
    steps: u64,
    counts: StepCounts,
    /// Telemetry side channel: never serialized, never read by the
    /// algorithm (see [`crate::probes`] for the determinism contract).
    probes: ChainProbes,
    /// Hole-free latch + reusable trace scratch (shared implementation
    /// with the KMC sampler; scratch is transient, not part of snapshots).
    measure: HoleTracker,
    crashed: Vec<bool>,
    crashed_count: usize,
    validate: bool,
}

impl CompressionChain<StdRng> {
    /// Builds an edge-count chain with a [`StdRng`] seeded from `seed`.
    ///
    /// # Errors
    ///
    /// Same as [`CompressionChain::new`].
    pub fn from_seed(
        sys: ParticleSystem,
        lambda: f64,
        seed: u64,
    ) -> Result<CompressionChain<StdRng>, ChainError> {
        CompressionChain::new(sys, lambda, StdRng::seed_from_u64(seed))
    }
}

impl<H: Hamiltonian> CompressionChain<StdRng, H> {
    /// Builds a chain over `hamiltonian` with a [`StdRng`] seeded from
    /// `seed`.
    ///
    /// # Errors
    ///
    /// Same as [`CompressionChain::with_hamiltonian`].
    pub fn from_seed_with(
        sys: ParticleSystem,
        lambda: f64,
        seed: u64,
        hamiltonian: H,
    ) -> Result<CompressionChain<StdRng, H>, ChainError> {
        CompressionChain::with_hamiltonian(sys, lambda, StdRng::seed_from_u64(seed), hamiltonian)
    }

    /// Serializes the full chain state — configuration, λ, counters, crash
    /// set and exact RNG state — as a compact text snapshot.
    ///
    /// [`CompressionChain::restore`] rebuilds a chain whose continued
    /// trajectory is bitwise identical to running this one uninterrupted;
    /// see [`crate::snapshot`] for the format and guarantees. The
    /// `hamiltonian` and `orientations` lines appear only for non-default
    /// Hamiltonians / oriented configurations, keeping default snapshots
    /// byte-identical to the pre-trait format.
    #[must_use]
    pub fn snapshot(&self) -> String {
        use core::fmt::Write as _;
        let c = self.counts;
        let crashed: Vec<String> = self
            .crashed
            .iter()
            .enumerate()
            .filter(|(_, &dead)| dead)
            .map(|(id, _)| id.to_string())
            .collect();
        let mut s = String::from("sops-chain-snapshot v1\n");
        let _ = writeln!(s, "lambda={}", snapshot::f64_to_hex(self.lambda));
        let name = self.hamiltonian.name();
        if name != "edges" {
            let _ = writeln!(s, "hamiltonian={name}");
        }
        let _ = writeln!(s, "steps={}", self.steps);
        let _ = writeln!(
            s,
            "counts={},{},{},{},{},{}",
            c.moved, c.target_occupied, c.crashed, c.five_neighbor, c.property, c.metropolis
        );
        let _ = writeln!(s, "hole_free={}", u8::from(self.measure.latched()));
        let _ = writeln!(s, "validate={}", u8::from(self.validate));
        let _ = writeln!(s, "crashed={}", crashed.join(","));
        let _ = writeln!(s, "rng={}", snapshot::rng_to_string(&self.rng));
        let _ = writeln!(
            s,
            "positions={}",
            snapshot::points_to_string(self.sys.positions().iter().copied())
        );
        if let Some(orientations) = self.sys.orientations() {
            let _ = writeln!(s, "orientations={}", snapshot::u8s_to_string(orientations));
        }
        s
    }

    /// Rebuilds a chain from a [`CompressionChain::snapshot`] text.
    ///
    /// The snapshot's `hamiltonian` line (default: `edges`) must describe
    /// an instance of `H` — restoring a snapshot under the wrong
    /// Hamiltonian type is rejected rather than silently reinterpreted.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] when the text is malformed or describes an invalid
    /// state (duplicate positions, disconnected configuration, out-of-range
    /// crash ids, bad λ, a Hamiltonian `H` cannot parse).
    pub fn restore(text: &str) -> Result<CompressionChain<StdRng, H>, SnapshotError> {
        let fields = snapshot::Fields::parse(text, "sops-chain-snapshot v1")?;
        let positions = snapshot::points_from_string("positions", fields.get("positions")?)?;
        let mut sys = ParticleSystem::connected(positions)
            .map_err(|e| SnapshotError::Invalid(e.to_string()))?;
        sys = snapshot::attach_orientations(sys, &fields)?;
        let hamiltonian = snapshot::hamiltonian_from_fields::<H>(&fields)?;
        let lambda = fields.parse_f64_bits("lambda")?;
        let rng = snapshot::rng_from_string("rng", fields.get("rng")?)?;
        let mut chain = CompressionChain::with_hamiltonian(sys, lambda, rng, hamiltonian)
            .map_err(|e| SnapshotError::Invalid(e.to_string()))?;
        chain.steps = fields.parse_num("steps")?;
        let counts: Vec<u64> = fields.parse_list("counts")?;
        let [moved, target_occupied, crashed, five_neighbor, property, metropolis] = counts[..]
        else {
            return Err(SnapshotError::BadField {
                field: "counts",
                value: fields.get("counts")?.to_string(),
            });
        };
        chain.counts = StepCounts {
            moved,
            target_occupied,
            crashed,
            five_neighbor,
            property,
            metropolis,
        };
        // The hole-free flag is lazily monotone; restoring the stored value
        // (rather than recomputing) preserves the exact observable behavior.
        chain
            .measure
            .set_latched(fields.parse_num::<u8>("hole_free")? != 0);
        chain.validate = fields.parse_num::<u8>("validate")? != 0;
        for id in fields.parse_list::<usize>("crashed")? {
            if id >= chain.crashed.len() {
                return Err(SnapshotError::Invalid(format!(
                    "crashed id {id} out of range for {} particles",
                    chain.crashed.len()
                )));
            }
            chain.crash(id);
        }
        Ok(chain)
    }
}

impl<R: Rng> CompressionChain<R> {
    /// Builds the paper's edge-count chain from a connected starting
    /// configuration `σ₀` and bias `λ`.
    ///
    /// `λ > 1` biases particles toward having more neighbors; the paper's
    /// main results require `λ > 2 + √2` for compression and show
    /// `0 < λ < 2.17` yields expansion instead. Any finite positive `λ` is
    /// accepted.
    ///
    /// # Errors
    ///
    /// [`ChainError::InvalidLambda`] for non-finite or non-positive `λ`,
    /// [`ChainError::NotConnected`] for a disconnected start.
    pub fn new(
        sys: ParticleSystem,
        lambda: f64,
        rng: R,
    ) -> Result<CompressionChain<R>, ChainError> {
        CompressionChain::with_hamiltonian(sys, lambda, rng, EdgeCount)
    }
}

impl<R: Rng, H: Hamiltonian> CompressionChain<R, H> {
    /// Builds the chain over an explicit [`Hamiltonian`]: the Metropolis
    /// filter accepts with `min(1, λ^Δ)` for `Δ = H(σ′) − H(σ)`, so the
    /// stationary distribution becomes `π(σ) ∝ λ^{H(σ)}` over the same
    /// hole-free connected state space.
    ///
    /// # Errors
    ///
    /// [`ChainError::InvalidLambda`] for non-finite or non-positive `λ`,
    /// [`ChainError::NotConnected`] for a disconnected start, and
    /// [`ChainError::Hamiltonian`] when the Hamiltonian rejects the
    /// configuration (e.g. [`crate::hamiltonian::Alignment`] without
    /// orientations) or declares an unusable delta range.
    pub fn with_hamiltonian(
        sys: ParticleSystem,
        lambda: f64,
        rng: R,
        hamiltonian: H,
    ) -> Result<CompressionChain<R, H>, ChainError> {
        if !lambda.is_finite() || lambda <= 0.0 {
            return Err(ChainError::InvalidLambda(lambda));
        }
        if !sys.is_connected() {
            return Err(ChainError::NotConnected);
        }
        hamiltonian
            .validate(&sys)
            .map_err(ChainError::Hamiltonian)?;
        let (delta_min, delta_max) = (hamiltonian.delta_min(), hamiltonian.delta_max());
        if delta_min > delta_max || delta_max.saturating_sub(delta_min) > 254 {
            return Err(ChainError::Hamiltonian(format!(
                "unusable delta range [{delta_min}, {delta_max}]"
            )));
        }
        let bias: Vec<f64> = (delta_min..=delta_max).map(|d| lambda.powi(d)).collect();
        let hole_free = sys.hole_count() == 0;
        let n = sys.len();
        Ok(CompressionChain {
            sys,
            lambda,
            hamiltonian,
            bias,
            delta_min,
            rng,
            steps: 0,
            counts: StepCounts::default(),
            probes: ChainProbes::default(),
            measure: HoleTracker::new(hole_free),
            crashed: vec![false; n],
            crashed_count: 0,
            validate: false,
        })
    }

    /// The bias parameter `λ`.
    #[must_use]
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// The Hamiltonian driving the Metropolis filter.
    #[must_use]
    pub fn hamiltonian(&self) -> &H {
        &self.hamiltonian
    }

    /// The current configuration.
    #[must_use]
    pub fn system(&self) -> &ParticleSystem {
        &self.sys
    }

    /// Consumes the chain and returns the final configuration.
    #[must_use]
    pub fn into_system(self) -> ParticleSystem {
        self.sys
    }

    /// Number of steps executed so far.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Outcome counts since construction.
    #[must_use]
    pub fn counts(&self) -> StepCounts {
        self.counts
    }

    /// Telemetry probes accumulated since construction (or since the last
    /// restore — probes are not part of snapshots).
    #[must_use]
    pub fn probes(&self) -> &ChainProbes {
        &self.probes
    }

    /// Enables per-move invariant validation (connectivity and
    /// hole-freeness re-checked after every accepted move). Expensive;
    /// intended for tests and the invariant experiment (E9).
    pub fn set_validation(&mut self, enabled: bool) {
        self.validate = enabled;
    }

    /// Marks a particle as crashed: it stays in place forever and acts as a
    /// fixed obstacle (Section 3.3). Returns the previous crash state.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn crash(&mut self, id: usize) -> bool {
        let was = self.crashed[id];
        if !was {
            self.crashed[id] = true;
            self.crashed_count += 1;
        }
        was
    }

    /// Number of crashed particles.
    #[must_use]
    pub fn crashed_count(&self) -> usize {
        self.crashed_count
    }

    /// `true` once the configuration is hole-free; monotone by Lemma 3.2.
    ///
    /// Lazily recomputed while holes remain, via an allocation-free
    /// boundary trace over reused scratch (the chain keeps the
    /// configuration connected — Lemma 3.1 — which the tracer requires).
    pub fn is_hole_free(&mut self) -> bool {
        self.measure.is_hole_free(&self.sys)
    }

    /// The current perimeter `p(σ)`.
    ///
    /// O(1) once the chain has reached the hole-free space `Ω*`; before
    /// that, one scratch-backed boundary trace serves both the monotone
    /// hole-free latch and the hole count of the perimeter formula (the
    /// latch and the measurement used to flood-fill separately, tracing the
    /// boundary twice per pre-latch check).
    #[must_use = "perimeter is a measurement; ignoring it wastes a flood fill"]
    pub fn perimeter(&mut self) -> u64 {
        self.measure.perimeter(&self.sys)
    }

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
        self.counts.record(outcome);
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
        debug_assert!(
            (0..self.bias.len() as i32).contains(&(delta - self.delta_min)),
            "hamiltonian delta {delta} violates its declared range"
        );
        let threshold = self.bias[(delta - self.delta_min) as usize];
        if threshold < 1.0 {
            let q: f64 = self.rng.gen();
            if q >= threshold {
                return StepOutcome::MetropolisRejected;
            }
        }
        self.sys
            .move_particle(id, dir)
            .expect("validated move must apply");
        if self.validate {
            assert!(self.sys.is_connected(), "Lemma 3.1 violated: disconnected");
            if self.measure.latched() {
                assert_eq!(self.sys.hole_count(), 0, "Lemma 3.2 violated: hole");
            }
        }
        self.probes
            .accepted_delta
            .record((delta - self.delta_min) as u64);
        StepOutcome::Moved { id, dir, delta }
    }

    /// Runs `steps` steps and returns the number of accepted moves.
    pub fn run(&mut self, steps: u64) -> u64 {
        let before = self.counts.moved;
        for _ in 0..steps {
            self.step();
        }
        self.counts.moved - before
    }

    /// Runs until the configuration is α-compressed (`p ≤ α · pmin`) or
    /// `max_steps` elapse; returns the step count at first hit.
    ///
    /// Checks the perimeter every `n` steps (one expected activation per
    /// particle).
    pub fn run_until_compressed(&mut self, alpha: f64, max_steps: u64) -> Option<u64> {
        let n = self.sys.len() as u64;
        let target = alpha * metrics::pmin(self.sys.len()) as f64;
        let check_every = n.max(1);
        let start = self.steps;
        loop {
            if self.perimeter() as f64 <= target {
                return Some(self.steps);
            }
            if self.steps - start >= max_steps {
                return None;
            }
            for _ in 0..check_every {
                self.step();
            }
        }
    }

    /// Samples the current trajectory point (perimeter, edges, ratios).
    ///
    /// Allocation-free in the steady state: the hole count comes from the
    /// reused boundary-trace scratch (and is skipped entirely once the
    /// chain is known hole-free); one trace serves both the monotone
    /// hole-free latch and the sample.
    pub fn sample(&mut self) -> TrajectoryPoint {
        self.measure.sample(&self.sys, self.steps)
    }

    /// Runs the chain, sampling every `interval` steps, for `total` steps.
    pub fn trajectory(&mut self, total: u64, interval: u64) -> Vec<TrajectoryPoint> {
        let interval = interval.max(1);
        let mut points = vec![self.sample()];
        let mut done = 0u64;
        while done < total {
            let burst = interval.min(total - done);
            self.run(burst);
            done += burst;
            points.push(self.sample());
        }
        points
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sops_system::shapes;

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
