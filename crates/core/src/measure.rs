//! Trajectory measurement for the samplers of `M`.
//!
//! [`crate::sampler::Sampler`] observes a configuration through a monotone
//! hole-free latch (holes never reappear once eliminated — Lemma 3.2)
//! lazily confirmed by an allocation-free boundary trace, a perimeter
//! through the closed form `p = 3n − e − 3 + 3H`, and [`TrajectoryPoint`]
//! samples; one boundary trace serves the latch and the measurement alike.

use sops_system::{boundary, metrics, ParticleSystem};

use crate::chain::TrajectoryPoint;

/// The hole-free latch plus the reusable trace scratch behind it.
///
/// Transient working buffers — not part of snapshots; only the latch bit is
/// serialized (restoring the stored value rather than recomputing preserves
/// the exact observable behavior of the lazily monotone flag).
#[derive(Clone, Debug)]
pub(crate) struct HoleTracker {
    hole_free: bool,
    scratch: boundary::TraceScratch,
}

impl HoleTracker {
    pub(crate) fn new(hole_free: bool) -> HoleTracker {
        HoleTracker {
            hole_free,
            scratch: boundary::TraceScratch::default(),
        }
    }

    /// The latch bit as last observed (no trace).
    pub(crate) fn latched(&self) -> bool {
        self.hole_free
    }

    /// Forces the latch (snapshot restore).
    pub(crate) fn set_latched(&mut self, hole_free: bool) {
        self.hole_free = hole_free;
    }

    /// The current hole count: zero for free once latched, otherwise one
    /// scratch-backed boundary trace that also updates the latch.
    pub(crate) fn holes(&mut self, sys: &ParticleSystem) -> usize {
        if self.hole_free {
            return 0;
        }
        let holes = boundary::trace_summary_with(sys, &mut self.scratch).hole_count;
        if holes == 0 {
            self.hole_free = true;
        }
        holes
    }

    /// `true` once the configuration is hole-free; monotone by Lemma 3.2.
    pub(crate) fn is_hole_free(&mut self, sys: &ParticleSystem) -> bool {
        self.holes(sys) == 0
    }

    /// The current perimeter `p(σ)`: O(1) once hole-free, otherwise one
    /// boundary trace serving both the latch and the hole count of the
    /// closed form.
    pub(crate) fn perimeter(&mut self, sys: &ParticleSystem) -> u64 {
        let holes = self.holes(sys);
        sys.perimeter_with_holes(holes as u64)
    }

    /// Samples a [`TrajectoryPoint`] at `step`; one trace serves both the
    /// latch and the sample (none once latched).
    pub(crate) fn sample(&mut self, sys: &ParticleSystem, step: u64) -> TrajectoryPoint {
        let holes = self.holes(sys);
        let perimeter = sys.perimeter_with_holes(holes as u64);
        let n = sys.len();
        TrajectoryPoint {
            step,
            edges: sys.edge_count(),
            perimeter,
            holes,
            alpha: if metrics::pmin(n) == 0 {
                f64::INFINITY
            } else {
                perimeter as f64 / metrics::pmin(n) as f64
            },
            beta: if metrics::pmax(n) == 0 {
                f64::NAN
            } else {
                perimeter as f64 / metrics::pmax(n) as f64
            },
        }
    }
}
