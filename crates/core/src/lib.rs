//! The paper's contribution: Markov chain `M` and local algorithm `A`.
//!
//! This crate implements both faces of the compression algorithm of Cannon,
//! Daymude, Randall and Richa (PODC 2016):
//!
//! * [`chain::CompressionChain`] — the centralized Markov chain `M`
//!   (Section 3.1): pick a particle and a direction uniformly at random,
//!   check the five-neighbor rule and Properties 1/2, then accept with the
//!   Metropolis probability `min(1, λ^(e′−e))`. Its stationary distribution
//!   is `π(σ) ∝ λ^{e(σ)}` over hole-free connected configurations
//!   (Lemma 3.13).
//! * [`kmc::KmcChain`] — a rejection-free (kinetic Monte Carlo) sampler of
//!   the same chain: geometric dwells between accepted moves plus a
//!   proportional move pick, equal in law to `M` at step granularity but
//!   doing work per *accepted* move only — the right tool at or near the
//!   compressed equilibrium, where almost every naive step rejects.
//!   Both are [`sampler::Sampler`] over different kernels: one state,
//!   one acceptance rule, one snapshot codec and one measurement layer.
//! * [`local::LocalRunner`] — the fully distributed, local, asynchronous
//!   algorithm `A` (Section 3.2): each particle runs on its own Poisson
//!   clock, moves in decoupled expand/contract phases, and serializes its
//!   neighborhood with a single `flag` bit. The runner is a discrete-event
//!   simulator whose particle logic reads only bounded neighborhood views.
//! * [`sharded::ShardedLocalRunner`] — a checkerboard-synchronous variant of
//!   `A` built for intra-run sharding: rounds are scheduled over the 4-color
//!   region checkerboard of `sops_lattice::RegionMap`, each region draws from
//!   its own SplitMix64-salted seed stream, and a [`sharded::StepExecutor`]
//!   may run same-color regions concurrently — results are byte-identical at
//!   any worker count. Both runners are [`local::Runner`] over two
//!   schedules: one particle rule, one runner state, one set of accessors.
//!
//! Both support crash-fault injection (Section 3.3) via [`chain`]- and
//! [`local`]-level APIs.
//!
//! # Example
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use sops_core::chain::CompressionChain;
//! use sops_system::{shapes, ParticleSystem};
//!
//! let start = ParticleSystem::connected(shapes::line(20)).unwrap();
//! let mut chain =
//!     CompressionChain::new(start, 4.0, StdRng::seed_from_u64(1)).unwrap();
//! chain.run(50_000);
//! // λ = 4 > 2 + √2: the system compresses well below the line's perimeter.
//! assert!(chain.perimeter() < 38);
//! assert!(chain.system().is_connected());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chain;
pub mod hamiltonian;
pub mod kmc;
pub mod local;
mod measure;
pub mod probes;
pub mod sampler;
pub mod sharded;
pub mod snapshot;

pub use chain::{ChainError, CompressionChain, StepCounts, StepOutcome, TrajectoryPoint};
pub use hamiltonian::{Alignment, EdgeCount, Hamiltonian, HamiltonianSpec, MoveContext};
pub use kmc::{KmcChain, KmcCounts};
pub use local::LocalRunner;
pub use probes::{ChainProbes, KmcProbes, LocalProbes};
pub use sampler::{Acceptance, Kernel, Sampler};
pub use sharded::ShardedLocalRunner;
pub use snapshot::SnapshotError;

/// The compression threshold `2 + √2 ≈ 3.414`: Theorem 4.5 proves
/// α-compression at stationarity for every `λ` above this value.
pub const LAMBDA_COMPRESSION: f64 = 2.0 + core::f64::consts::SQRT_2;

/// The expansion threshold `(2·N₅₀)^(1/100) ≈ 2.1720`: Theorem 5.7 proves
/// β-expansion at stationarity for every `λ` below this value
/// (Corollary 5.8).
pub const LAMBDA_EXPANSION: f64 = 2.172_033_328_925_038_5;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thresholds_match_closed_forms() {
        assert!((LAMBDA_COMPRESSION - (2.0 + 2.0f64.sqrt())).abs() < 1e-12);
        // (2 · N50)^(1/100) with N50 from Lemma 5.5.
        let n50 = 2.430_068_453_031_180_3e33_f64;
        let x = (2.0 * n50).powf(0.01);
        assert!((LAMBDA_EXPANSION - x).abs() < 1e-9, "{x}");
    }
}
