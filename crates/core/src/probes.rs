//! Hot-loop telemetry probes for the three samplers.
//!
//! Probes are plain [`sops_telemetry`] data living *beside* the simulation
//! state, never inside it: they consume no randomness, are excluded from
//! snapshots (a restored sampler starts with fresh probes), and never
//! influence a single branch of the algorithms. That is the determinism
//! contract — trajectories, snapshots and RNG streams are byte-identical
//! whether anything ever reads the probes or not — and it is why they are
//! cheap enough to stay on unconditionally: each record is one histogram
//! bucket increment or one counter add, only on *accepted* moves (or once
//! per activation for the local algorithm), never per rejected step.
//!
//! The engine drains probes at job boundaries into its sweep-wide registry;
//! standalone users can read them directly via the samplers' `probes()`
//! accessors.

use sops_telemetry::Histogram;

use crate::local::Activation;

/// Probes of [`crate::chain::CompressionChain`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChainProbes {
    /// Energy delta `Δ − delta_min` of each accepted move (shifted to be
    /// nonnegative; subtract `delta_min` of the Hamiltonian — 5 by default —
    /// to recover `Δ`). Exact: the shifted deltas are below 16.
    pub accepted_delta: Histogram,
}

/// Probes of [`crate::kmc::KmcChain`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KmcProbes {
    /// Rejected steps skipped by each *realized* geometric dwell (pending
    /// dwells cut short by a budget or discarded by a crash never count,
    /// matching [`crate::kmc::KmcCounts::max_jump`]).
    pub dwell: Histogram,
    /// Pair-mask revalidations per accepted move: the number of
    /// (particle, direction) acceptance masses recomputed in the move's
    /// O(1) neighborhood. The paper-level bound is ≤ 24 sites × ≤ 6
    /// directions; the observed distribution is what this histogram holds.
    pub revalidation_fanout: Histogram,
}

/// Probes of [`crate::local::LocalRunner`]: activation outcome counts.
///
/// Unlike [`crate::chain::StepCounts`] these are *not* part of any
/// snapshot or equality contract — they exist purely for observability.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LocalProbes {
    /// Contracted particles that expanded into an adjacent empty location.
    pub expanded: u64,
    /// Expanded particles that completed their move (forward contraction).
    pub contracted_forward: u64,
    /// Expanded particles that aborted their move (backward contraction).
    pub contracted_back: u64,
    /// Activations where a contracted particle could not expand.
    pub idle: u64,
}

impl LocalProbes {
    /// Total recorded activations (crashed activations are not probed).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.expanded + self.contracted_forward + self.contracted_back + self.idle
    }

    /// Counts one activation outcome (a crashed activation counts nowhere).
    pub(crate) fn record(&mut self, outcome: Activation) {
        match outcome {
            Activation::Expanded { .. } => self.expanded += 1,
            Activation::ContractedForward { .. } => self.contracted_forward += 1,
            Activation::ContractedBack { .. } => self.contracted_back += 1,
            Activation::Idle { .. } => self.idle += 1,
            Activation::Crashed { .. } => {}
        }
    }
}
