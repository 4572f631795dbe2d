//! Ablated variants of Markov chain `M`, demonstrating that the paper's
//! move conditions are *necessary*, not conservative.
//!
//! Algorithm `M` guards every move with: (1) `e ≠ 5` — prevents creating a
//! hole at the vacated site; (2) Property 1 or Property 2 — preserves
//! connectivity and prevents the remaining hole formations. The ablation
//! chain lets experiments disable either guard and observe the invariant
//! violations the paper's Lemmas 3.1/3.2 rule out.
//!
//! The engine schedules ablation runs next to chain and local jobs;
//! `sops_bench::ablation` re-exports this module.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sops::core::chain::ChainError;
use sops::core::hamiltonian::EdgeCount;
use sops::core::sampler::Acceptance;
use sops::core::snapshot::{self, SnapshotError};
use sops::lattice::Direction;
use sops::system::ParticleSystem;

/// Which structural guards of Algorithm `M` to enforce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Guards {
    /// Condition (1): refuse moves when the particle has five neighbors.
    pub five_neighbor_rule: bool,
    /// Condition (2): require Property 1 or Property 2.
    pub properties: bool,
}

impl Guards {
    /// The full algorithm (both guards on).
    #[must_use]
    pub fn full() -> Guards {
        Guards {
            five_neighbor_rule: true,
            properties: true,
        }
    }

    /// Ablation: drop the five-neighbor rule only.
    #[must_use]
    pub fn without_five_neighbor_rule() -> Guards {
        Guards {
            five_neighbor_rule: false,
            properties: true,
        }
    }

    /// Ablation: drop the property checks only.
    #[must_use]
    pub fn without_properties() -> Guards {
        Guards {
            five_neighbor_rule: true,
            properties: false,
        }
    }
}

/// Statistics of an ablation run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AblationReport {
    /// Steps executed.
    pub steps: u64,
    /// Moves accepted.
    pub moves: u64,
    /// Steps after which the configuration was disconnected.
    pub disconnection_events: u64,
    /// Steps after which a previously hole-free configuration had holes.
    pub hole_events: u64,
    /// Step at which the first invariant violation was observed.
    pub first_violation_step: Option<u64>,
}

impl AblationReport {
    /// Total invariant violations observed.
    #[must_use]
    pub fn violations(&self) -> u64 {
        self.disconnection_events + self.hole_events
    }
}

/// A stepwise, checkpointable (possibly ablated) chain.
///
/// The Metropolis filter — `M`'s own [`Acceptance`] table over the edge
/// count — stays intact in all variants; only the structural guards
/// change, so any invariant violation is attributable to the ablated
/// condition. (Unguarded moves still have an edge delta within the
/// table's `[−5, 5]`: each end of a move has at most five other
/// neighbors.) Invariants are checked on accepted moves at step
/// multiples of `check_every`; once ten violations have been observed the
/// chain **halts**: a disconnected system drifts apart without bound,
/// making both further simulation and hole analysis meaningless (and the
/// flood fill arbitrarily expensive).
#[derive(Clone, Debug)]
pub struct AblationChain {
    sys: ParticleSystem,
    rng: StdRng,
    lambda: f64,
    acceptance: Acceptance,
    guards: Guards,
    check_every: u64,
    report: AblationReport,
    was_hole_free: bool,
}

impl AblationChain {
    /// Builds the chain from a connected start, with invariant checks every
    /// `check_every` accepted-move steps.
    ///
    /// # Errors
    ///
    /// [`ChainError::InvalidLambda`] or [`ChainError::NotConnected`].
    pub fn from_seed(
        start: &ParticleSystem,
        lambda: f64,
        guards: Guards,
        check_every: u64,
        seed: u64,
    ) -> Result<AblationChain, ChainError> {
        let acceptance = Acceptance::new(&EdgeCount, lambda)?;
        if !start.is_connected() {
            return Err(ChainError::NotConnected);
        }
        Ok(AblationChain {
            sys: start.clone(),
            rng: StdRng::seed_from_u64(seed),
            lambda,
            acceptance,
            guards,
            check_every: check_every.max(1),
            report: AblationReport::default(),
            was_hole_free: start.hole_count() == 0,
        })
    }

    /// The run statistics so far.
    #[must_use]
    pub fn report(&self) -> AblationReport {
        self.report
    }

    /// Steps executed so far.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.report.steps
    }

    /// The current configuration.
    #[must_use]
    pub fn system(&self) -> &ParticleSystem {
        &self.sys
    }

    /// `true` once ten violations have been observed and stepping stops.
    #[must_use]
    pub fn halted(&self) -> bool {
        self.report.violations() >= 10
    }

    /// Executes one step; returns whether a move was accepted. A halted
    /// chain does nothing and returns `false`.
    pub fn step(&mut self) -> bool {
        if self.halted() {
            return false;
        }
        self.report.steps += 1;
        let step = self.report.steps;
        let n = self.sys.len();
        let id = self.rng.gen_range(0..n);
        let dir = Direction::from_index(self.rng.gen_range(0..6usize));
        let from = self.sys.position(id);
        let validity = self.sys.check_move(from, dir);
        if validity.target_occupied {
            return false;
        }
        if self.guards.five_neighbor_rule && validity.five_neighbor_blocked() {
            return false;
        }
        if self.guards.properties && !(validity.property1 || validity.property2) {
            return false;
        }
        let threshold = self.acceptance.weight(validity.edge_delta());
        if threshold < 1.0 && self.rng.gen::<f64>() >= threshold {
            return false;
        }
        self.sys
            .move_particle(id, dir)
            .expect("target checked empty");
        self.report.moves += 1;
        if step % self.check_every == 0 {
            let mut violated = false;
            if !self.sys.is_connected() {
                self.report.disconnection_events += 1;
                violated = true;
            }
            let hole_free = self.sys.hole_count() == 0;
            if self.was_hole_free && !hole_free {
                self.report.hole_events += 1;
                violated = true;
            }
            self.was_hole_free = hole_free;
            if violated && self.report.first_violation_step.is_none() {
                self.report.first_violation_step = Some(step);
            }
        }
        true
    }

    /// Runs up to `steps` steps (stops early once halted).
    pub fn run(&mut self, steps: u64) {
        for _ in 0..steps {
            if self.halted() {
                break;
            }
            self.step();
        }
    }

    /// Serializes the full state as a text snapshot; see
    /// [`sops::core::snapshot`] for the format guarantees.
    #[must_use]
    pub fn snapshot(&self) -> String {
        use core::fmt::Write as _;
        let r = self.report;
        let mut s = String::from("sops-ablation-snapshot v1\n");
        let _ = writeln!(s, "lambda={}", snapshot::f64_to_hex(self.lambda));
        let _ = writeln!(
            s,
            "guards={}{}",
            u8::from(self.guards.five_neighbor_rule),
            u8::from(self.guards.properties)
        );
        let _ = writeln!(s, "check_every={}", self.check_every);
        let _ = writeln!(s, "steps={}", r.steps);
        let _ = writeln!(s, "moves={}", r.moves);
        let _ = writeln!(s, "disconnections={}", r.disconnection_events);
        let _ = writeln!(s, "holes={}", r.hole_events);
        let _ = writeln!(
            s,
            "first_violation={}",
            snapshot::opt_u64_to_string(r.first_violation_step)
        );
        let _ = writeln!(s, "was_hole_free={}", u8::from(self.was_hole_free));
        let _ = writeln!(s, "rng={}", snapshot::rng_to_string(&self.rng));
        let _ = writeln!(
            s,
            "positions={}",
            snapshot::points_to_string(self.sys.positions().iter().copied())
        );
        s
    }

    /// Rebuilds a chain from an [`AblationChain::snapshot`] text.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] on malformed or invalid input. Unlike the live
    /// constructor, a restored configuration may legitimately be
    /// disconnected (that is what ablation produces), so only duplicate
    /// positions are rejected.
    pub fn restore(text: &str) -> Result<AblationChain, SnapshotError> {
        let fields = snapshot::Fields::parse(text, "sops-ablation-snapshot v1")?;
        let positions = snapshot::points_from_string("positions", fields.get("positions")?)?;
        let sys =
            ParticleSystem::new(positions).map_err(|e| SnapshotError::Invalid(e.to_string()))?;
        let guards_raw = fields.get("guards")?;
        let guard_bits = snapshot::bools_from_string("guards", guards_raw, 2)?;
        let first_violation =
            snapshot::opt_u64_from_string("first_violation", fields.get("first_violation")?)?;
        let lambda = fields.parse_f64_bits("lambda")?;
        let acceptance = Acceptance::new(&EdgeCount, lambda)
            .map_err(|e| SnapshotError::Invalid(e.to_string()))?;
        Ok(AblationChain {
            sys,
            rng: snapshot::rng_from_string("rng", fields.get("rng")?)?,
            lambda,
            acceptance,
            guards: Guards {
                five_neighbor_rule: guard_bits[0],
                properties: guard_bits[1],
            },
            check_every: fields.parse_num::<u64>("check_every")?.max(1),
            report: AblationReport {
                steps: fields.parse_num("steps")?,
                moves: fields.parse_num("moves")?,
                disconnection_events: fields.parse_num("disconnections")?,
                hole_events: fields.parse_num("holes")?,
                first_violation_step: first_violation,
            },
            was_hole_free: fields.parse_num::<u8>("was_hole_free")? != 0,
        })
    }
}

/// Runs the (possibly ablated) chain for `steps` steps from `start`,
/// checking invariants every `check_every` steps, stopping early once ten
/// violations have been observed.
///
/// # Panics
///
/// Panics on a non-finite/non-positive λ or a disconnected start;
/// [`AblationChain::from_seed`] returns those as errors instead.
#[must_use]
pub fn run(
    start: &ParticleSystem,
    lambda: f64,
    guards: Guards,
    steps: u64,
    check_every: u64,
    seed: u64,
) -> AblationReport {
    let mut chain = AblationChain::from_seed(start, lambda, guards, check_every, seed)
        .expect("valid ablation parameters");
    chain.run(steps);
    chain.report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sops::system::shapes;

    #[test]
    fn full_guards_never_violate() {
        let start = ParticleSystem::connected(shapes::line(20)).unwrap();
        let report = run(&start, 4.0, Guards::full(), 50_000, 50, 1);
        assert_eq!(report.disconnection_events, 0);
        assert_eq!(report.hole_events, 0);
        assert!(report.moves > 0);
    }

    #[test]
    fn dropping_properties_breaks_invariants() {
        let start = ParticleSystem::connected(shapes::line(20)).unwrap();
        let report = run(&start, 4.0, Guards::without_properties(), 50_000, 10, 2);
        assert!(
            report.violations() > 0,
            "removing Property 1/2 must eventually violate an invariant"
        );
    }

    #[test]
    fn guards_constructors() {
        assert!(Guards::full().properties);
        assert!(!Guards::without_properties().properties);
        assert!(!Guards::without_five_neighbor_rule().five_neighbor_rule);
    }

    #[test]
    fn stepwise_run_matches_free_function() {
        let start = ParticleSystem::connected(shapes::line(15)).unwrap();
        let report = run(&start, 4.0, Guards::without_properties(), 20_000, 10, 3);
        let mut chain =
            AblationChain::from_seed(&start, 4.0, Guards::without_properties(), 10, 3).unwrap();
        // Drive in uneven bursts; the trajectory must be identical.
        for burst in [1u64, 7, 100, 5000, 14_892, 20_000] {
            chain.run(burst.min(20_000u64.saturating_sub(chain.steps())));
        }
        assert_eq!(chain.report(), report);
    }

    #[test]
    fn snapshot_restore_continues_identically() {
        let start = ParticleSystem::connected(shapes::line(18)).unwrap();
        let mut a =
            AblationChain::from_seed(&start, 4.0, Guards::without_five_neighbor_rule(), 20, 5)
                .unwrap();
        a.run(7_777);
        let mut b = AblationChain::restore(&a.snapshot()).unwrap();
        a.run(10_000);
        b.run(10_000);
        assert_eq!(a.report(), b.report());
        assert_eq!(a.system().positions(), b.system().positions());
    }
}
