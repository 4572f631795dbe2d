//! Extremal perimeter values and compression/expansion ratios.
//!
//! Section 2.3 of the paper: for a connected hole-free configuration of `n`
//! particles the perimeter ranges from `pmin(n) = Θ(√n)` (most compressed)
//! to `pmax(n) = 2n − 2` (a spanning tree with no triangles). A
//! configuration is *α-compressed* when `p(σ) ≤ α·pmin` (Definition 2.2) and
//! *β-expanded* when `p(σ) ≥ β·pmax` (Section 5).
//!
//! The exact minimum follows from Harborth's bound on the maximum number of
//! edges spanned by `n` points of the triangular lattice,
//! `emax(n) = ⌊3n − √(12n − 3)⌋`, combined with Lemma 2.3
//! (`p = 3n − e − 3`): `pmin(n) = ⌈√(12n − 3)⌉ − 3`. Both are cross-checked
//! in `sops-enumerate` against exhaustive enumeration for small `n` and
//! against the explicit spiral construction of [`crate::shapes::spiral`] for
//! larger `n`.

use sops_lattice::Direction;

use crate::ParticleSystem;

/// Integer ceiling of `√v`.
#[must_use]
fn ceil_sqrt(v: u64) -> u64 {
    if v == 0 {
        return 0;
    }
    let mut r = (v as f64).sqrt() as u64;
    // Correct floating-point error in both directions.
    while r * r > v {
        r -= 1;
    }
    while r * r < v {
        r += 1;
    }
    r
}

/// The minimum possible perimeter of a connected configuration of `n`
/// particles: `pmin(n) = ⌈√(12n − 3)⌉ − 3`.
///
/// ```
/// use sops_system::metrics::pmin;
/// assert_eq!(pmin(1), 0);
/// assert_eq!(pmin(2), 2);
/// assert_eq!(pmin(3), 3);
/// assert_eq!(pmin(7), 6); // the hexagon of 7 particles
/// ```
#[must_use]
pub fn pmin(n: usize) -> u64 {
    if n == 0 {
        return 0;
    }
    ceil_sqrt(12 * n as u64 - 3) - 3
}

/// The maximum possible perimeter of a connected hole-free configuration of
/// `n` particles: `pmax(n) = 2n − 2` (an induced tree; Section 2.3).
#[must_use]
pub fn pmax(n: usize) -> u64 {
    if n <= 1 {
        0
    } else {
        2 * n as u64 - 2
    }
}

/// The maximum number of configuration edges among `n` particles:
/// `emax(n) = ⌊3n − √(12n − 3)⌋` (Harborth), equal to `3n − 3 − pmin(n)`.
#[must_use]
pub fn emax(n: usize) -> u64 {
    if n == 0 {
        return 0;
    }
    3 * n as u64 - 3 - pmin(n)
}

/// The maximum number of triangles among `n` particles:
/// `tmax(n) = 2n − 2 − pmin(n)` (by Lemma 2.4 at minimum perimeter).
#[must_use]
pub fn tmax(n: usize) -> u64 {
    if n == 0 {
        return 0;
    }
    (2 * n as u64 - 2).saturating_sub(pmin(n))
}

/// The compression ratio `α(σ) = p(σ) / pmin(n)`.
///
/// A configuration is α-compressed in the paper's sense when this ratio is
/// at most α (Definition 2.2). Returns `f64::INFINITY` for `n ≤ 1` where
/// `pmin = 0`.
#[must_use]
pub fn compression_ratio(sys: &ParticleSystem) -> f64 {
    let denom = pmin(sys.len());
    if denom == 0 {
        return f64::INFINITY;
    }
    sys.perimeter() as f64 / denom as f64
}

/// The expansion ratio `β(σ) = p(σ) / pmax(n)`.
///
/// A configuration is β-expanded when this ratio is at least β (Section 5).
/// Returns `f64::NAN` for `n ≤ 1` where `pmax = 0`.
#[must_use]
pub fn expansion_ratio(sys: &ParticleSystem) -> f64 {
    let denom = pmax(sys.len());
    if denom == 0 {
        return f64::NAN;
    }
    sys.perimeter() as f64 / denom as f64
}

/// The number of *aligned* configuration edges `a(σ)`: edges whose two
/// endpoint particles carry the same orientation.
///
/// This is the energy of the alignment Hamiltonian in `sops-core`
/// (`H(σ) = a(σ)`, bias `λ^{a(σ)}`). Zero when the configuration carries no
/// orientations ([`ParticleSystem::orientations`]).
#[must_use]
pub fn aligned_pairs(sys: &ParticleSystem) -> u64 {
    let Some(orientations) = sys.orientations() else {
        return 0;
    };
    let mut twice = 0u64;
    for (id, &p) in sys.positions().iter().enumerate() {
        for d in Direction::ALL {
            if let Some(nb) = sys.particle_at(p + d) {
                if orientations[nb] == orientations[id] {
                    twice += 1;
                }
            }
        }
    }
    // Each aligned edge was counted once from each endpoint.
    twice / 2
}

/// The alignment order parameter `a(σ) / e(σ)`: the fraction of
/// configuration edges whose endpoints share an orientation.
///
/// `1/q` in a well-mixed random assignment of `q` orientations, approaching
/// 1 as like-oriented particles separate into single-orientation domains.
/// Returns `f64::NAN` when the configuration has no edges.
#[must_use]
pub fn alignment_order(sys: &ParticleSystem) -> f64 {
    let edges = sys.edge_count();
    if edges == 0 {
        return f64::NAN;
    }
    aligned_pairs(sys) as f64 / edges as f64
}

/// Verifies the hole-free geometry identities of Lemmas 2.3 and 2.4 on a
/// configuration: `e = 3n − p − 3` and `t = 2n − p − 2`.
///
/// # Panics
///
/// Panics if either identity fails; only meaningful for connected,
/// hole-free configurations.
pub fn assert_hole_free_identities(sys: &ParticleSystem) {
    let n = sys.len() as i64;
    let p = sys.perimeter() as i64;
    let e = sys.edge_count() as i64;
    let t = sys.triangle_count() as i64;
    assert_eq!(e, 3 * n - p - 3, "Lemma 2.3 violated");
    assert_eq!(t, 2 * n - p - 2, "Lemma 2.4 violated");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shapes;

    #[test]
    fn ceil_sqrt_is_exact() {
        for v in 0..2000u64 {
            let r = ceil_sqrt(v);
            if v > 0 {
                assert!((r - 1) * (r - 1) < v, "v={v}, r={r}");
            }
            assert!(r * r >= v, "v={v}, r={r}");
        }
        // Perfect squares.
        assert_eq!(ceil_sqrt(81), 9);
        assert_eq!(ceil_sqrt(82), 10);
    }

    #[test]
    fn pmin_known_values() {
        // n = 1..=12: hand-checkable values.
        let expected = [0, 2, 3, 4, 5, 6, 6, 7, 8, 8, 9, 9];
        for (i, &want) in expected.iter().enumerate() {
            assert_eq!(pmin(i + 1), want, "pmin({})", i + 1);
        }
    }

    #[test]
    fn full_hexagons_achieve_pmin() {
        // A full hexagon of radius r has n = 3r(r+1)+1 particles and
        // perimeter 6r.
        for r in 1..6usize {
            let n = 3 * r * (r + 1) + 1;
            assert_eq!(pmin(n), 6 * r as u64, "radius {r}");
            let sys = ParticleSystem::connected(shapes::hexagon(r as u32)).unwrap();
            assert_eq!(sys.len(), n);
            assert_eq!(sys.perimeter(), 6 * r as u64);
        }
    }

    #[test]
    fn emax_is_floor_form() {
        for n in 1..500usize {
            let direct = (3.0 * n as f64 - (12.0 * n as f64 - 3.0).sqrt()).floor() as u64;
            assert_eq!(emax(n), direct, "n={n}");
        }
    }

    #[test]
    fn pmin_lower_bound_lemma_2_1() {
        // Lemma 2.1: every connected configuration of n ≥ 2 particles has
        // perimeter at least √n; in particular pmin ≥ √n.
        for n in 2..2000usize {
            assert!(
                (pmin(n) as f64) >= (n as f64).sqrt(),
                "pmin({n}) = {} < √{n}",
                pmin(n)
            );
        }
    }

    #[test]
    fn lines_are_maximally_expanded() {
        for n in 2..30 {
            let sys = ParticleSystem::connected(shapes::line(n)).unwrap();
            assert_eq!(sys.perimeter(), pmax(n));
            assert!((expansion_ratio(&sys) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn spiral_is_maximally_compressed() {
        let spiral = shapes::spiral(1000);
        for n in 1..=spiral.len() {
            let sys = ParticleSystem::connected(spiral[..n].iter().copied()).unwrap();
            assert_eq!(
                sys.perimeter(),
                pmin(n),
                "spiral({n}) should achieve pmin; got p={} want {}",
                sys.perimeter(),
                pmin(n)
            );
            assert_eq!(sys.edge_count(), emax(n), "spiral({n}) edges");
        }
    }

    #[test]
    fn identities_hold_on_hole_free_shapes() {
        for n in [1, 2, 3, 5, 8, 13, 21, 34] {
            assert_hole_free_identities(&ParticleSystem::connected(shapes::line(n)).unwrap());
            assert_hole_free_identities(&ParticleSystem::connected(shapes::spiral(n)).unwrap());
        }
    }

    #[test]
    fn aligned_pairs_counts_matching_edges() {
        // A line 0-1-2-3 with orientations [0, 0, 1, 1]: edges (0,1) and
        // (2,3) are aligned, edge (1,2) is not.
        let sys = ParticleSystem::connected(shapes::line(4))
            .unwrap()
            .with_orientations(vec![0, 0, 1, 1])
            .unwrap();
        assert_eq!(aligned_pairs(&sys), 2);
        assert!((alignment_order(&sys) - 2.0 / 3.0).abs() < 1e-12);
        // No orientations ⇒ no aligned pairs by definition.
        let plain = ParticleSystem::connected(shapes::line(4)).unwrap();
        assert_eq!(aligned_pairs(&plain), 0);
        // Uniform orientations ⇒ every edge aligned.
        let uniform = plain.with_orientations(vec![2; 4]).unwrap();
        assert_eq!(aligned_pairs(&uniform), uniform.edge_count());
        assert!((alignment_order(&uniform) - 1.0).abs() < 1e-12);
        // A single particle has no edges.
        let single = ParticleSystem::new([sops_lattice::TriPoint::ORIGIN])
            .unwrap()
            .with_orientations(vec![0])
            .unwrap();
        assert!(alignment_order(&single).is_nan());
    }

    #[test]
    fn ratios_handle_degenerate_sizes() {
        let single = ParticleSystem::new([sops_lattice::TriPoint::ORIGIN]).unwrap();
        assert!(compression_ratio(&single).is_infinite());
        assert!(expansion_ratio(&single).is_nan());
    }
}
