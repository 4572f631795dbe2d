//! The sweep description model: [`JobSpec`], [`GridSpec`] and their axes.
//!
//! A sweep is a list of independent [`JobSpec`]s. [`GridSpec`] builds the
//! cross product of its axes (algorithm × shape × n × λ × crash × rep) in a
//! fixed, documented order and assigns each job an id and a
//! SplitMix-derived child seed (see [`crate::seed`]); hand-built spec lists
//! get the same treatment through [`assign_ids_and_seeds`].

use core::fmt;
use core::str::FromStr;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sops::core::hamiltonian::HamiltonianSpec;
use sops::system::{shapes, ParticleSystem, SystemError};

use crate::ablation::Guards;
use crate::seed::child_seed;

/// Salt deriving a job's orientation-assignment seed from its seed —
/// a dedicated stream, like the crash-victim salt `0xc4a5`, so attaching
/// orientations never perturbs the simulation RNG. Public so `sops-cli
/// simulate` can assign the same orientations a sweep job with the same
/// seed would get.
pub const ORIENT_SALT: u64 = 0x0413;

/// Which simulator a job runs.
///
/// The two chain samplers carry a [`HamiltonianSpec`] selecting the local
/// energy they sample (`π(σ) ∝ λ^{H(σ)}`); [`Algorithm::CHAIN`] and
/// [`Algorithm::CHAIN_KMC`] are the default edge-count instances, whose
/// string form stays the bare `"chain"` / `"chain-kmc"` (so sweep CSVs,
/// JSONL events and checkpoint metadata are unchanged for default jobs).
/// Non-default Hamiltonians render as `chain+alignment:3` and parse back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algorithm {
    /// The centralized Markov chain `M` over the given Hamiltonian; work
    /// units are chain steps.
    Chain(HamiltonianSpec),
    /// The rejection-free kinetic sampler of `M` (`sops_core::kmc`): equal
    /// in law to [`Algorithm::Chain`] at step granularity, but doing work
    /// per accepted move only. Work units are chain steps (including the
    /// skipped rejections).
    ChainKmc(HamiltonianSpec),
    /// The asynchronous local algorithm `A`; work units are rounds.
    Local,
    /// The checkerboard-synchronous variant of `A` built for intra-run
    /// sharding (`sops_core::sharded`); work units are rounds. Its
    /// trajectory is a pure function of the spec — the engine's `shards`
    /// setting only changes how many workers execute each round.
    LocalSharded,
    /// The deliberately weakened chain (see [`crate::ablation`]); work
    /// units are chain steps.
    Ablation(Guards),
}

impl Algorithm {
    /// The paper's chain: [`Algorithm::Chain`] over the edge-count
    /// Hamiltonian.
    pub const CHAIN: Algorithm = Algorithm::Chain(HamiltonianSpec::Edges);

    /// The rejection-free sampler over the edge-count Hamiltonian.
    pub const CHAIN_KMC: Algorithm = Algorithm::ChainKmc(HamiltonianSpec::Edges);

    /// Whether this algorithm samples chain `M` step-for-step — the family
    /// first-hit (`until_alpha`) mode applies to.
    #[must_use]
    pub fn is_chain_sampler(&self) -> bool {
        matches!(self, Algorithm::Chain(_) | Algorithm::ChainKmc(_))
    }

    /// The Hamiltonian a chain-sampler job runs (`None` for the local
    /// algorithm and the ablation chain, which are edge-count-only).
    #[must_use]
    pub fn hamiltonian(&self) -> Option<HamiltonianSpec> {
        match self {
            Algorithm::Chain(h) | Algorithm::ChainKmc(h) => Some(*h),
            Algorithm::Local | Algorithm::LocalSharded | Algorithm::Ablation(_) => None,
        }
    }

    /// This algorithm with its Hamiltonian replaced — a no-op for the
    /// algorithms that do not take one.
    #[must_use]
    pub fn with_hamiltonian(self, hamiltonian: HamiltonianSpec) -> Algorithm {
        match self {
            Algorithm::Chain(_) => Algorithm::Chain(hamiltonian),
            Algorithm::ChainKmc(_) => Algorithm::ChainKmc(hamiltonian),
            other => other,
        }
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let chain = |f: &mut fmt::Formatter<'_>, base: &str, h: &HamiltonianSpec| {
            if h.is_default() {
                write!(f, "{base}")
            } else {
                write!(f, "{base}+{h}")
            }
        };
        match self {
            Algorithm::Chain(h) => chain(f, "chain", h),
            Algorithm::ChainKmc(h) => chain(f, "chain-kmc", h),
            Algorithm::Local => write!(f, "local"),
            Algorithm::LocalSharded => write!(f, "local-sharded"),
            Algorithm::Ablation(g) => match (g.five_neighbor_rule, g.properties) {
                (true, true) => write!(f, "ablation-full"),
                (false, true) => write!(f, "ablation-no-five"),
                (true, false) => write!(f, "ablation-no-prop"),
                (false, false) => write!(f, "ablation-none"),
            },
        }
    }
}

impl FromStr for Algorithm {
    type Err = String;

    fn from_str(s: &str) -> Result<Algorithm, String> {
        // `chain+<hamiltonian>` / `chain-kmc+<hamiltonian>` select a
        // non-default energy; the bare names are the edge-count defaults.
        let (base, hamiltonian, explicit) = match s.split_once('+') {
            Some((base, h)) => (base, h.parse::<HamiltonianSpec>()?, true),
            None => (s, HamiltonianSpec::Edges, false),
        };
        let algorithm = match base {
            "chain" => Algorithm::Chain(hamiltonian),
            "chain-kmc" | "kmc" => Algorithm::ChainKmc(hamiltonian),
            "local" => Algorithm::Local,
            "local-sharded" => Algorithm::LocalSharded,
            "ablation-full" | "ablation" => Algorithm::Ablation(Guards::full()),
            "ablation-no-five" => Algorithm::Ablation(Guards::without_five_neighbor_rule()),
            "ablation-no-prop" => Algorithm::Ablation(Guards::without_properties()),
            "ablation-none" => Algorithm::Ablation(Guards {
                five_neighbor_rule: false,
                properties: false,
            }),
            other => {
                return Err(format!(
                    "unknown algorithm {other:?} \
                     (try chain|chain-kmc|local|local-sharded|ablation-full|ablation-no-five|\
                     ablation-no-prop, optionally with +<hamiltonian> on the chain samplers)"
                ))
            }
        };
        // Any `+` suffix on a non-chain algorithm is an error — even
        // `local+edges` — rather than being silently discarded.
        if explicit && !algorithm.is_chain_sampler() {
            return Err(format!(
                "algorithm {base:?} does not take a hamiltonian (only chain and chain-kmc do)"
            ));
        }
        Ok(algorithm)
    }
}

/// The starting configuration family of a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// A straight line of `n` particles (the paper's canonical start).
    Line,
    /// A hexagonal spiral of `n` particles (maximally compressed: achieves
    /// `pmin(n)`).
    Spiral,
    /// An annulus of the given radius (starts with a hole; `n` is ignored).
    Annulus(u32),
    /// Seeded Eden-growth random connected configuration of `n` particles.
    Random,
}

impl Shape {
    /// Builds the starting configuration for a job of `n` particles.
    ///
    /// `Random` derives its growth RNG from `seed`, so the same job spec
    /// always starts from the same configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`SystemError`] (e.g. `n = 0`).
    pub fn build(&self, n: usize, seed: u64) -> Result<ParticleSystem, SystemError> {
        let points = match *self {
            Shape::Line => shapes::line(n),
            Shape::Spiral => shapes::spiral(n),
            Shape::Annulus(r) => shapes::annulus(r),
            Shape::Random => shapes::random_connected(n, &mut StdRng::seed_from_u64(seed ^ 0x5eed)),
        };
        ParticleSystem::connected(points)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Shape::Line => write!(f, "line"),
            Shape::Spiral => write!(f, "spiral"),
            Shape::Annulus(r) => write!(f, "annulus:{r}"),
            Shape::Random => write!(f, "random"),
        }
    }
}

impl FromStr for Shape {
    type Err = String;

    fn from_str(s: &str) -> Result<Shape, String> {
        if let Some(radius) = s.strip_prefix("annulus:") {
            return radius
                .parse()
                .map(Shape::Annulus)
                .map_err(|_| format!("bad annulus radius in {s:?}"));
        }
        match s {
            "line" => Ok(Shape::Line),
            "spiral" => Ok(Shape::Spiral),
            "annulus" => Ok(Shape::Annulus(3)),
            "random" => Ok(Shape::Random),
            other => Err(format!(
                "unknown shape {other:?} (try line|spiral|annulus:<r>|random)"
            )),
        }
    }
}

/// A crash-failure scenario applied to a job (Section 3.3 of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashSpec {
    /// Percentage of particles to crash (0–100).
    pub percent: usize,
    /// `false`: crash before any work (adversarial, anchors the start
    /// shape). `true`: crash once burn-in completes (the paper's mid-run
    /// scenario).
    pub after_burnin: bool,
}

impl fmt::Display for CrashSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let when = if self.after_burnin { "mid" } else { "start" };
        write!(f, "{}%@{}", self.percent, when)
    }
}

impl FromStr for CrashSpec {
    type Err = String;

    /// Parses the [`fmt::Display`] form back: `<pct>%@start` (adversarial,
    /// before any work) or `<pct>%@mid` (the paper's after-burn-in
    /// scenario). The `"none"` spelling of an absent crash is handled by the
    /// axis parsers (`Option<CrashSpec>`), not here.
    fn from_str(s: &str) -> Result<CrashSpec, String> {
        let bad = || format!("bad crash spec {s:?} (try none|<pct>%@start|<pct>%@mid)");
        let (percent, when) = s.split_once("%@").ok_or_else(bad)?;
        let percent: usize = percent.parse().map_err(|_| bad())?;
        if percent > 100 {
            return Err(format!("crash percentage must be 0..=100, got {percent}"));
        }
        let after_burnin = match when {
            "start" => false,
            "mid" => true,
            _ => return Err(bad()),
        };
        Ok(CrashSpec {
            percent,
            after_burnin,
        })
    }
}

/// One independent unit of sweep work.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JobSpec {
    /// Position in the sweep; assigned by [`assign_ids_and_seeds`].
    pub id: usize,
    /// Which simulator to run.
    pub algorithm: Algorithm,
    /// Starting configuration family.
    pub shape: Shape,
    /// Number of particles.
    pub n: usize,
    /// The bias parameter λ.
    pub lambda: f64,
    /// Work units (chain steps / local rounds) before sampling starts.
    pub burnin: u64,
    /// Work units over which perimeter samples are taken.
    pub steps: u64,
    /// Number of evenly spaced perimeter samples over `steps`.
    pub samples: u64,
    /// Chain-only: stop at the first step where `p ≤ α · pmin` (checked
    /// every `n` steps) and record it; sampling is skipped in this mode.
    pub until_alpha: Option<f64>,
    /// Optional crash-failure scenario.
    pub crash: Option<CrashSpec>,
    /// Repetition index (distinguishes otherwise identical cells).
    pub rep: u64,
    /// Child RNG seed; assigned by [`assign_ids_and_seeds`].
    pub seed: u64,
}

impl JobSpec {
    /// A spec with the given simulation cell and neutral defaults
    /// (no burn-in, 100 samples, no early stop, no crashes).
    #[must_use]
    pub fn new(algorithm: Algorithm, shape: Shape, n: usize, lambda: f64, steps: u64) -> JobSpec {
        JobSpec {
            id: 0,
            algorithm,
            shape,
            n,
            lambda,
            burnin: 0,
            steps,
            samples: 100,
            until_alpha: None,
            crash: None,
            rep: 0,
            seed: 0,
        }
    }

    /// Total work units the job executes (ignoring early stops).
    #[must_use]
    pub fn total_work(&self) -> u64 {
        self.burnin.saturating_add(self.steps)
    }

    /// A canonical one-line description, used to detect checkpoint
    /// directories that belong to a *different* sweep.
    #[must_use]
    pub fn describe(&self) -> String {
        format!(
            "job={} algo={} shape={:?} n={} lambda={} burnin={} steps={} samples={} \
             until={:?} crash={:?} rep={} seed={}",
            self.id,
            self.algorithm,
            self.shape,
            self.n,
            self.lambda,
            self.burnin,
            self.steps,
            self.samples,
            self.until_alpha.map(f64::to_bits),
            self.crash,
            self.rep,
            self.seed
        )
    }
}

/// Assigns sequential ids and SplitMix-derived child seeds to a job list.
///
/// Seeds depend only on `(base_seed, position)`, making the sweep's results
/// independent of worker count and scheduling.
pub fn assign_ids_and_seeds(jobs: &mut [JobSpec], base_seed: u64) {
    for (id, job) in jobs.iter_mut().enumerate() {
        job.id = id;
        job.seed = child_seed(base_seed, id as u64);
    }
}

/// A cross-product sweep description: the axes and per-job budgets of a
/// sweep, as plain data. `sops-cli sweep` builds one from its flags, and
/// each `[[grid]]` of an experiment file parses into one
/// ([`crate::experiment`]).
///
/// The [`Default`] is one `chain` job from a line of 100 particles at
/// λ = 4, 100 000 steps, 100 samples, no burn-in, no crashes, one
/// repetition; set only the fields a sweep varies.
///
/// # Example
///
/// ```
/// use sops_engine::grid::{Algorithm, GridSpec, Shape};
///
/// let jobs = GridSpec {
///     ns: vec![20, 40],
///     lambdas: vec![2.0, 4.0],
///     steps: 10_000,
///     samples: 10,
///     ..GridSpec::default()
/// }
/// .build(7);
/// assert_eq!(jobs.len(), 4);
/// assert_eq!(jobs[3].id, 3);
/// assert_eq!((jobs[3].n, jobs[3].lambda), (40, 4.0));
/// assert_eq!(jobs[0].algorithm, Algorithm::CHAIN);
/// assert_eq!(jobs[0].shape, Shape::Line);
/// assert_ne!(jobs[0].seed, jobs[1].seed);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct GridSpec {
    /// The algorithm axis (`algorithms` key).
    pub algorithms: Vec<Algorithm>,
    /// The starting-shape axis (`shapes` key).
    pub shapes: Vec<Shape>,
    /// The particle-count axis (`ns` key).
    pub ns: Vec<usize>,
    /// The bias axis (`lambdas` key).
    pub lambdas: Vec<f64>,
    /// Optional Hamiltonian axis (`hamiltonians` key): expands every
    /// chain-sampler algorithm across these energies (non-chain algorithms
    /// appear once). `None` leaves the algorithms' own Hamiltonians
    /// untouched.
    pub hamiltonians: Option<Vec<HamiltonianSpec>>,
    /// The crash-scenario axis (`crashes` key); `None` items mean "no
    /// crashes" and spell `"none"` in files.
    pub crashes: Vec<Option<CrashSpec>>,
    /// Repetitions per cell (`reps` key).
    pub reps: u64,
    /// Burn-in work units per job (`burnin` key).
    pub burnin: u64,
    /// Sampled work units per job (`steps` key).
    pub steps: u64,
    /// Perimeter samples per job (`samples` key).
    pub samples: u64,
    /// First-hit mode target (`until_alpha` key): stop chain-sampler jobs at
    /// `p ≤ α·pmin`.
    pub until_alpha: Option<f64>,
}

impl Default for GridSpec {
    fn default() -> GridSpec {
        GridSpec {
            algorithms: vec![Algorithm::CHAIN],
            shapes: vec![Shape::Line],
            ns: vec![100],
            lambdas: vec![4.0],
            hamiltonians: None,
            crashes: vec![None],
            reps: 1,
            burnin: 0,
            steps: 100_000,
            samples: 100,
            until_alpha: None,
        }
    }
}

/// A [`GridSpec`] value no job can run with: the key it sits under and why.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GridError {
    /// The offending key, as experiment files spell it.
    pub key: &'static str,
    /// Why its value is rejected.
    pub message: &'static str,
}

impl GridSpec {
    /// Checks the values every job of the grid needs: positive particle
    /// counts, positive finite biases, at least one repetition, and a
    /// positive first-hit target. Experiment files and `sops-cli sweep`
    /// both call it, so the two builders reject the same grids.
    ///
    /// # Errors
    ///
    /// The first offending key, in the order above.
    pub fn validate(&self) -> Result<(), GridError> {
        let fail = |key, message| Err(GridError { key, message });
        if self.ns.contains(&0) {
            return fail("ns", "particle counts must be positive");
        }
        if self.lambdas.iter().any(|&l| l <= 0.0 || !l.is_finite()) {
            return fail("lambdas", "the bias lambda must be positive and finite");
        }
        if self.reps == 0 {
            return fail("reps", "at least one repetition is required");
        }
        if self.until_alpha.is_some_and(|a| a <= 0.0 || a.is_nan()) {
            return fail("until_alpha", "the first-hit target alpha must be positive");
        }
        Ok(())
    }

    /// Materializes the cross product in the canonical order
    /// algorithm (× hamiltonian) → shape → n → λ → crash → rep, with ids
    /// and child seeds of `base_seed` assigned.
    ///
    /// # Panics
    ///
    /// Panics when `hamiltonians` is `Some` but empty — it would silently
    /// delete every chain-sampler job from the sweep.
    #[must_use]
    pub fn build(&self, base_seed: u64) -> Vec<JobSpec> {
        // Expand the optional Hamiltonian axis into the algorithm axis so
        // the cross product below stays one loop nest. Chain samplers fan
        // out per Hamiltonian; other algorithms appear once.
        let algorithms: Vec<Algorithm> = match &self.hamiltonians {
            None => self.algorithms.clone(),
            Some(hams) => {
                assert!(!hams.is_empty(), "the hamiltonians axis must not be empty");
                self.algorithms
                    .iter()
                    .flat_map(|&a| {
                        let hams: &[HamiltonianSpec] = if a.is_chain_sampler() {
                            hams
                        } else {
                            &[HamiltonianSpec::Edges]
                        };
                        hams.iter().map(move |&h| a.with_hamiltonian(h))
                    })
                    .collect()
            }
        };
        let mut jobs = Vec::new();
        for &algorithm in &algorithms {
            for &shape in &self.shapes {
                for &n in &self.ns {
                    for &lambda in &self.lambdas {
                        for &crash in &self.crashes {
                            for rep in 0..self.reps {
                                jobs.push(JobSpec {
                                    id: 0,
                                    algorithm,
                                    shape,
                                    n,
                                    lambda,
                                    burnin: self.burnin,
                                    steps: self.steps,
                                    samples: self.samples,
                                    until_alpha: self.until_alpha,
                                    crash,
                                    rep,
                                    seed: 0,
                                });
                            }
                        }
                    }
                }
            }
        }
        assign_ids_and_seeds(&mut jobs, base_seed);
        jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_order_is_canonical_and_seeds_stable() {
        let grid = GridSpec {
            ns: vec![10, 20],
            lambdas: vec![2.0, 3.0],
            reps: 2,
            ..GridSpec::default()
        };
        let a = grid.build(1);
        let b = grid.build(1);
        assert_eq!(a.len(), 8);
        assert_eq!(a, b, "building twice must be identical");
        assert_eq!(a[0].rep, 0);
        assert_eq!(a[1].rep, 1);
        assert_eq!(a[2].lambda, 3.0);
        assert_eq!(a[4].n, 20);
    }

    #[test]
    fn crash_spec_parse_round_trip() {
        for text in ["0%@start", "5%@mid", "100%@start"] {
            let crash: CrashSpec = text.parse().unwrap();
            assert_eq!(crash.to_string(), text);
        }
        assert!("5%".parse::<CrashSpec>().is_err());
        assert!("5%@sometime".parse::<CrashSpec>().is_err());
        assert!("x%@mid".parse::<CrashSpec>().is_err());
        assert!("101%@mid".parse::<CrashSpec>().is_err());
    }

    #[test]
    fn shape_and_algorithm_parse_round_trip() {
        for s in ["line", "spiral", "annulus:4", "random"] {
            let shape: Shape = s.parse().unwrap();
            let again: Shape = shape.to_string().parse().unwrap();
            assert_eq!(shape, again);
        }
        for a in [
            "chain",
            "chain-kmc",
            "chain+alignment:3",
            "chain-kmc+alignment:5",
            "local",
            "local-sharded",
            "ablation-full",
            "ablation-no-five",
            "ablation-no-prop",
        ] {
            let algo: Algorithm = a.parse().unwrap();
            assert_eq!(algo.to_string(), a);
        }
        assert!("triangle".parse::<Shape>().is_err());
        assert!("bogus".parse::<Algorithm>().is_err());
        // Only the chain samplers take a Hamiltonian — even a redundant
        // `+edges` suffix is rejected rather than silently discarded.
        assert!("local+alignment:3".parse::<Algorithm>().is_err());
        assert!("local+edges".parse::<Algorithm>().is_err());
        assert!("ablation-full+edges".parse::<Algorithm>().is_err());
        assert!("chain+ising".parse::<Algorithm>().is_err());
        // `chain+edges` normalizes to the default display.
        let explicit: Algorithm = "chain+edges".parse().unwrap();
        assert_eq!(explicit, Algorithm::CHAIN);
        assert_eq!(explicit.to_string(), "chain");
    }

    #[test]
    fn hamiltonian_axis_expands_chain_samplers_only() {
        let jobs = GridSpec {
            algorithms: vec![Algorithm::CHAIN, Algorithm::CHAIN_KMC, Algorithm::Local],
            hamiltonians: Some(vec![
                HamiltonianSpec::Edges,
                HamiltonianSpec::Alignment { q: 3 },
            ]),
            ..GridSpec::default()
        }
        .build(1);
        let algos: Vec<String> = jobs.iter().map(|j| j.algorithm.to_string()).collect();
        assert_eq!(
            algos,
            [
                "chain",
                "chain+alignment:3",
                "chain-kmc",
                "chain-kmc+alignment:3",
                "local"
            ]
        );
        // Without the axis, the algorithms' own Hamiltonians survive.
        let jobs = GridSpec {
            algorithms: vec![Algorithm::Chain(HamiltonianSpec::Alignment { q: 4 })],
            ..GridSpec::default()
        }
        .build(1);
        assert_eq!(
            jobs[0].algorithm.hamiltonian(),
            Some(HamiltonianSpec::Alignment { q: 4 })
        );
        assert_eq!(Algorithm::Local.hamiltonian(), None);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_hamiltonian_axis_panics_instead_of_deleting_jobs() {
        let _ = GridSpec {
            hamiltonians: Some(Vec::new()),
            ..GridSpec::default()
        }
        .build(1);
    }

    #[test]
    fn shapes_build_connected_systems() {
        for shape in [Shape::Line, Shape::Spiral, Shape::Annulus(3), Shape::Random] {
            let sys = shape.build(12, 9).unwrap();
            assert!(sys.is_connected(), "{shape}");
        }
        // Random is a function of the seed.
        let a = Shape::Random.build(15, 1).unwrap();
        let b = Shape::Random.build(15, 1).unwrap();
        assert_eq!(a.positions(), b.positions());
    }
}
