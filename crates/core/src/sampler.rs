//! The half of chain `M` its two samplers share.
//!
//! [`crate::chain::CompressionChain`] (the chain step by step) and
//! [`crate::kmc::KmcChain`] (its rejection-free re-sampling) are one type,
//! [`Sampler`], over two [`Kernel`]s. The sampler holds what `M` is: the
//! configuration, `λ`, the [`Hamiltonian`], the Metropolis filter
//! ([`Acceptance`]), the RNG, the step counter, the crash set, the
//! hole-free latch and the validation flag. Construction, crash injection,
//! measurement and the snapshot codec are written here once; a kernel adds
//! only how steps are taken ([`Kernel::run`]), its counters, its probes and
//! whatever state that needs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sops_system::{metrics, ParticleSystem};

use crate::chain::{ChainError, TrajectoryPoint};
use crate::hamiltonian::{EdgeCount, Hamiltonian, MoveContext};
use crate::measure::HoleTracker;
use crate::snapshot::{self, Fields, SnapshotError};

/// The Metropolis filter of `M`: a structurally valid move with energy
/// change `Δ` is made with probability `min(1, λ^Δ)`, tabulated over the
/// [`Hamiltonian`]'s declared delta range.
///
/// The chain draws `q` against it, the KMC sampler weighs its classes with
/// it, and `sops_enumerate` builds the exact transition matrix from it.
#[derive(Clone, Debug)]
pub struct Acceptance {
    delta_min: i32,
    /// `weight[c]` = `min(1, λ^(delta_min + c))`.
    weight: Vec<f64>,
}

impl Acceptance {
    /// Tabulates `min(1, λ^Δ)` for every `Δ` `hamiltonian` declares.
    ///
    /// # Errors
    ///
    /// [`ChainError::InvalidLambda`] for non-finite or non-positive `λ`,
    /// [`ChainError::Hamiltonian`] for an empty delta range or one wider
    /// than 255 classes.
    pub fn new<H: Hamiltonian>(hamiltonian: &H, lambda: f64) -> Result<Acceptance, ChainError> {
        if !lambda.is_finite() || lambda <= 0.0 {
            return Err(ChainError::InvalidLambda(lambda));
        }
        let (delta_min, delta_max) = (hamiltonian.delta_min(), hamiltonian.delta_max());
        if delta_min > delta_max || delta_max.saturating_sub(delta_min) > 254 {
            return Err(ChainError::Hamiltonian(format!(
                "unusable delta range [{delta_min}, {delta_max}]"
            )));
        }
        let weight = (delta_min..=delta_max)
            .map(|d| lambda.powi(d).min(1.0))
            .collect();
        Ok(Acceptance { delta_min, weight })
    }

    /// The class of `delta`: its index into [`Acceptance::weights`].
    #[inline]
    #[must_use]
    pub fn class(&self, delta: i32) -> usize {
        debug_assert!(
            (0..self.weight.len() as i32).contains(&(delta - self.delta_min)),
            "hamiltonian delta {delta} violates its declared range"
        );
        (delta - self.delta_min) as usize
    }

    /// The acceptance probability `min(1, λ^Δ)` of a move with `Δ = delta`.
    #[inline]
    #[must_use]
    pub fn weight(&self, delta: i32) -> f64 {
        self.weight[self.class(delta)]
    }

    /// The acceptance probability of every class, in class order.
    #[must_use]
    pub fn weights(&self) -> &[f64] {
        &self.weight
    }
}

/// The energy change `Δ` of the move in `ctx` under `hamiltonian`, or
/// `None` when `M` never makes it (target occupied, `e = 5`, or neither
/// Property holds). Structural validity does not depend on the
/// Hamiltonian, and `Δ` is only evaluated on valid moves.
#[inline]
pub fn move_delta<H: Hamiltonian>(hamiltonian: &H, ctx: &MoveContext<'_>) -> Option<i32> {
    ctx.validity
        .is_structurally_valid()
        .then(|| hamiltonian.delta(ctx))
}

/// How a [`Sampler`] takes its steps: implemented by
/// [`crate::chain::Metropolis`] and [`crate::kmc::RejectionFree`].
pub trait Kernel: Sized {
    /// The first line of this sampler's snapshots.
    const HEADER: &'static str;
    /// Outcome counters; part of snapshots.
    type Counts: Copy;
    /// Telemetry probes; never part of snapshots (see [`crate::probes`]).
    type Probes;

    /// The kernel of a freshly built sampler, before any crash.
    fn new<H: Hamiltonian>(sys: &ParticleSystem, hamiltonian: &H, acceptance: &Acceptance) -> Self;

    /// Simulates exactly `steps` steps of `M`; returns the accepted moves.
    fn run<R: Rng, H: Hamiltonian>(sim: &mut Sampler<Self, R, H>, steps: u64) -> u64;

    /// The outcome counters.
    fn counts(&self) -> Self::Counts;

    /// The telemetry probes.
    fn probes(&self) -> &Self::Probes;

    /// Drops what particle `id` contributed; called once, when it crashes.
    fn crash(&mut self, id: usize) {
        let _ = id;
    }

    /// Writes the `counts=` line and any further kernel lines.
    fn encode(&self, out: &mut String);

    /// Restores what [`Kernel::encode`] wrote, after the crash set; `steps`
    /// is the restored step counter.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] on a missing, malformed or inconsistent field.
    fn decode(&mut self, fields: &Fields<'_>, steps: u64) -> Result<(), SnapshotError>;
}

/// Markov chain `M`, biased by `λ` toward configurations with higher
/// Hamiltonian energy (more edges, under the default [`EdgeCount`]),
/// sampled by the kernel `K`.
///
/// Generic over the random source and the [`Hamiltonian`]; `from_seed`
/// uses a seeded [`StdRng`] for exact reproducibility, and
/// `with_hamiltonian` selects a non-default energy.
#[derive(Clone, Debug)]
pub struct Sampler<K, R: Rng = StdRng, H: Hamiltonian = EdgeCount> {
    pub(crate) sys: ParticleSystem,
    pub(crate) lambda: f64,
    pub(crate) hamiltonian: H,
    pub(crate) acceptance: Acceptance,
    pub(crate) rng: R,
    pub(crate) steps: u64,
    /// Hole-free latch + reusable trace scratch; only the latch is
    /// serialized.
    pub(crate) measure: HoleTracker,
    pub(crate) crashed: Vec<bool>,
    pub(crate) crashed_count: usize,
    pub(crate) validate: bool,
    pub(crate) kernel: K,
}

impl<K: Kernel> Sampler<K> {
    /// Builds an edge-count sampler with a [`StdRng`] seeded from `seed`.
    ///
    /// # Errors
    ///
    /// Same as [`Sampler::new`].
    pub fn from_seed(sys: ParticleSystem, lambda: f64, seed: u64) -> Result<Self, ChainError> {
        Sampler::new(sys, lambda, StdRng::seed_from_u64(seed))
    }
}

impl<K: Kernel, H: Hamiltonian> Sampler<K, StdRng, H> {
    /// Builds a sampler over `hamiltonian` with a [`StdRng`] seeded from
    /// `seed`.
    ///
    /// # Errors
    ///
    /// Same as [`Sampler::with_hamiltonian`].
    pub fn from_seed_with(
        sys: ParticleSystem,
        lambda: f64,
        seed: u64,
        hamiltonian: H,
    ) -> Result<Self, ChainError> {
        Sampler::with_hamiltonian(sys, lambda, StdRng::seed_from_u64(seed), hamiltonian)
    }

    /// Serializes the full state — configuration, λ, counters, crash set
    /// and exact RNG state — as a compact text snapshot (format in
    /// [`crate::snapshot`]).
    ///
    /// [`Sampler::restore`] rebuilds a sampler whose continued trajectory
    /// is bitwise identical to running this one uninterrupted. State that
    /// is a pure function of the configuration and crash set (the KMC mass
    /// table and pair masks) is not stored.
    #[must_use]
    pub fn snapshot(&self) -> String {
        use core::fmt::Write as _;
        let crashed: Vec<String> = (0..self.crashed.len())
            .filter(|&id| self.crashed[id])
            .map(|id| id.to_string())
            .collect();
        let mut s = format!("{}\n", K::HEADER);
        let _ = writeln!(s, "lambda={}", snapshot::f64_to_hex(self.lambda));
        let name = self.hamiltonian.name();
        if name != "edges" {
            let _ = writeln!(s, "hamiltonian={name}");
        }
        let _ = writeln!(s, "steps={}", self.steps);
        self.kernel.encode(&mut s);
        let _ = writeln!(s, "hole_free={}", u8::from(self.measure.latched()));
        let _ = writeln!(s, "validate={}", u8::from(self.validate));
        let _ = writeln!(s, "crashed={}", crashed.join(","));
        let _ = writeln!(s, "rng={}", snapshot::rng_to_string(&self.rng));
        let positions = snapshot::points_to_string(self.sys.positions().iter().copied());
        let _ = writeln!(s, "positions={positions}");
        if let Some(orientations) = self.sys.orientations() {
            let _ = writeln!(s, "orientations={}", snapshot::u8s_to_string(orientations));
        }
        s
    }

    /// Rebuilds a sampler from a [`Sampler::snapshot`] text.
    ///
    /// The snapshot's `hamiltonian` line (default: `edges`) must describe
    /// an instance of `H`, and its header must be this kernel's: a
    /// snapshot of the other sampler, or under another Hamiltonian type,
    /// is rejected rather than reinterpreted.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] when the text is malformed or describes an invalid
    /// state (duplicate positions, disconnected configuration, out-of-range
    /// crash ids, bad λ, a Hamiltonian `H` cannot parse, a hole-free latch
    /// on a configuration with holes).
    pub fn restore(text: &str) -> Result<Self, SnapshotError> {
        let fields = Fields::parse(text, K::HEADER)?;
        let positions = snapshot::points_from_string("positions", fields.get("positions")?)?;
        let sys = ParticleSystem::connected(positions)
            .map_err(|e| SnapshotError::Invalid(e.to_string()))?;
        let sys = snapshot::attach_orientations(sys, &fields)?;
        let hamiltonian = snapshot::hamiltonian_from_fields::<H>(&fields)?;
        let lambda = fields.parse_f64_bits("lambda")?;
        let rng = snapshot::rng_from_string("rng", fields.get("rng")?)?;
        let mut sim = Self::with_hamiltonian(sys, lambda, rng, hamiltonian)
            .map_err(|e| SnapshotError::Invalid(e.to_string()))?;
        sim.steps = fields.parse_num("steps")?;
        // The latch is lazily monotone: restoring the stored value (rather
        // than recomputing) preserves the exact observable behavior. A set
        // latch on a configuration with holes would hide them from
        // `perimeter` and `is_hole_free`, so it is rejected.
        let hole_free = fields.parse_num::<u8>("hole_free")? != 0;
        if hole_free && !sim.measure.latched() {
            return Err(SnapshotError::Invalid(
                "hole_free=1 but the configuration has holes".into(),
            ));
        }
        sim.measure.set_latched(hole_free);
        sim.validate = fields.parse_num::<u8>("validate")? != 0;
        for id in fields.parse_list::<usize>("crashed")? {
            if id >= sim.crashed.len() {
                return Err(SnapshotError::Invalid(format!(
                    "crashed id {id} out of range for {} particles",
                    sim.crashed.len()
                )));
            }
            sim.crash(id);
        }
        sim.kernel.decode(&fields, sim.steps)?;
        Ok(sim)
    }
}

impl<K: Kernel, R: Rng> Sampler<K, R> {
    /// Builds the paper's edge-count sampler from a connected starting
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
    pub fn new(sys: ParticleSystem, lambda: f64, rng: R) -> Result<Self, ChainError> {
        Sampler::with_hamiltonian(sys, lambda, rng, EdgeCount)
    }
}

impl<K: Kernel, R: Rng, H: Hamiltonian> Sampler<K, R, H> {
    /// Builds the sampler over an explicit [`Hamiltonian`]: moves are
    /// accepted with `min(1, λ^Δ)` for `Δ = H(σ′) − H(σ)`, so the
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
    ) -> Result<Self, ChainError> {
        let acceptance = Acceptance::new(&hamiltonian, lambda)?;
        if !sys.is_connected() {
            return Err(ChainError::NotConnected);
        }
        hamiltonian
            .validate(&sys)
            .map_err(ChainError::Hamiltonian)?;
        let hole_free = sys.hole_count() == 0;
        let n = sys.len();
        Ok(Sampler {
            kernel: K::new(&sys, &hamiltonian, &acceptance),
            sys,
            lambda,
            hamiltonian,
            acceptance,
            rng,
            steps: 0,
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

    /// Consumes the sampler and returns the final configuration.
    #[must_use]
    pub fn into_system(self) -> ParticleSystem {
        self.sys
    }

    /// Number of steps of `M` simulated so far (including any the kernel
    /// skipped as rejections).
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Outcome counts since construction.
    #[must_use]
    pub fn counts(&self) -> K::Counts {
        self.kernel.counts()
    }

    /// Telemetry probes accumulated since construction (or since the last
    /// restore — probes are not part of snapshots).
    #[must_use]
    pub fn probes(&self) -> &K::Probes {
        self.kernel.probes()
    }

    /// Enables per-move invariant validation (connectivity and
    /// hole-freeness, plus the KMC tables, re-checked after every accepted
    /// move). Expensive; intended for tests and the invariant experiment.
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
            self.kernel.crash(id);
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

    /// The current perimeter `p(σ)`: O(1) once the chain has reached the
    /// hole-free space `Ω*`, before that one scratch-backed boundary trace
    /// serving both the hole-free latch and the hole count.
    #[must_use = "perimeter is a measurement; ignoring it wastes a flood fill"]
    pub fn perimeter(&mut self) -> u64 {
        self.measure.perimeter(&self.sys)
    }

    /// Simulates exactly `steps` steps of `M` and returns the number of
    /// accepted moves.
    pub fn run(&mut self, steps: u64) -> u64 {
        K::run(self, steps)
    }

    /// Runs until the configuration is α-compressed (`p ≤ α · pmin`) or
    /// `max_steps` elapse; returns the step count at first hit.
    ///
    /// Checks the perimeter every `n` steps (one expected activation per
    /// particle), on the same step grid for both kernels.
    pub fn run_until_compressed(&mut self, alpha: f64, max_steps: u64) -> Option<u64> {
        let target = alpha * metrics::pmin(self.sys.len()) as f64;
        let check_every = (self.sys.len() as u64).max(1);
        let start = self.steps;
        loop {
            if self.perimeter() as f64 <= target {
                return Some(self.steps);
            }
            if self.steps - start >= max_steps {
                return None;
            }
            self.run(check_every);
        }
    }

    /// Samples the current trajectory point (perimeter, edges, ratios).
    ///
    /// Allocation-free in the steady state: one boundary trace serves both
    /// the hole-free latch and the sample, and none runs once latched.
    pub fn sample(&mut self) -> TrajectoryPoint {
        self.measure.sample(&self.sys, self.steps)
    }

    /// Runs for `total` steps, sampling every `interval` steps.
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

    /// With validation on, re-checks Lemmas 3.1 and 3.2 after an accepted
    /// move.
    #[inline]
    pub(crate) fn check_lemmas(&self) {
        if self.validate {
            assert!(self.sys.is_connected(), "Lemma 3.1 violated: disconnected");
            if self.measure.latched() {
                assert_eq!(self.sys.hole_count(), 0, "Lemma 3.2 violated: hole");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acceptance_tabulates_min_one_lambda_to_the_delta() {
        for lambda in [0.5, 1.0, 3.0, 4.0] {
            let acceptance = Acceptance::new(&EdgeCount, lambda).unwrap();
            assert_eq!(acceptance.weights().len(), 11);
            for delta in -5..=5 {
                let expected = lambda.powi(delta).min(1.0);
                assert_eq!(acceptance.weight(delta).to_bits(), expected.to_bits());
                assert_eq!(acceptance.class(delta), (delta + 5) as usize);
            }
        }
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                Acceptance::new(&EdgeCount, bad),
                Err(ChainError::InvalidLambda(_))
            ));
        }
    }
}
