//! Initial configurations: lines, spirals, hexagons, rings and random clusters.
//!
//! The paper's simulations start from a straight line of particles (Figures
//! 2 and 10); its proofs use spanning-tree and spiral extremal shapes, and
//! hole-elimination (Lemma 3.8) is best exercised from ring-shaped starts.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::Rng;
use sops_lattice::{Direction, TileGrid, TriMap, TriPoint, TriSet};

/// A straight line of `n` particles along the east axis: `(0,0) … (n−1,0)`.
///
/// This is the initial configuration of the paper's simulations (Fig. 2).
#[must_use]
pub fn line(n: usize) -> Vec<TriPoint> {
    (0..n).map(|x| TriPoint::new(x as i32, 0)).collect()
}

/// The full hexagonal ball of radius `r` (all `3r(r+1)+1` vertices within
/// lattice distance `r` of the origin).
#[must_use]
pub fn hexagon(r: u32) -> Vec<TriPoint> {
    let r = r as i32;
    let mut pts = Vec::new();
    for y in -r..=r {
        for x in -r..=r {
            let p = TriPoint::new(x, y);
            if TriPoint::ORIGIN.distance(p) <= r as u32 {
                pts.push(p);
            }
        }
    }
    pts
}

/// The hexagonal ring of radius `r ≥ 1`: the `6r` vertices at lattice
/// distance exactly `r`, in cyclic order. Encloses a hole of `3r(r−1)+1`
/// cells — the canonical starting point for hole-elimination experiments.
///
/// # Panics
///
/// Panics if `r == 0` (a ring needs positive radius).
#[must_use]
pub fn annulus(r: u32) -> Vec<TriPoint> {
    assert!(r >= 1, "annulus radius must be at least 1");
    let r = r as i32;
    let mut pts = Vec::with_capacity(6 * r as usize);
    let mut p = TriPoint::new(r, 0);
    for k in 0..6 {
        let dir = Direction::from_index(k + 2);
        for _ in 0..r {
            pts.push(p);
            p += dir;
        }
    }
    debug_assert_eq!(p, TriPoint::new(r, 0));
    pts
}

/// An L-shaped tree: a horizontal arm of `w` particles and a vertical
/// (northeast) arm of `h` particles sharing the corner particle.
///
/// # Panics
///
/// Panics if `w == 0` or `h == 0`.
#[must_use]
pub fn l_shape(w: usize, h: usize) -> Vec<TriPoint> {
    assert!(w > 0 && h > 0, "both arms must be non-empty");
    let mut pts = line(w);
    let corner = TriPoint::new(w as i32 - 1, 0);
    for j in 1..h {
        pts.push(TriPoint::new(corner.x, j as i32));
    }
    pts
}

/// The maximally compressed "spiral" of `n` particles.
///
/// Grows greedily from the origin, always adding the unoccupied candidate
/// with the smallest key `(6 − occupied_neighbors, distance(origin), y, x)`:
/// most occupied neighbors first, ties broken by distance from the origin,
/// then lexicographically. This is the classical construction achieving
/// Harborth's edge maximum `emax(n)`, hence perimeter `pmin(n)`; the
/// `metrics` tests check every `n ≤ 1000` against the closed form, the
/// full hexagon of radius `r` is the spiral of `3r(r+1)+1` particles, and
/// `sops-enumerate` cross-checks small `n` by exhaustive enumeration.
///
/// Runs in O(n log n): candidates sit in a binary heap keyed as above, and
/// placing a cell re-pushes each unplaced neighbor with its bumped count.
/// Neighbor counts only rise, so an entry whose count no longer matches is
/// outdated and skipped when popped. Keys end in `(y, x)` and are therefore
/// unique, so the heap yields exactly the placement order of a full
/// candidate rescan; a test pins that order against such a rescan.
#[must_use]
pub fn spiral(n: usize) -> Vec<TriPoint> {
    /// Neighbor-count value marking a placed cell.
    const PLACED: u8 = u8::MAX;
    let key = |c: TriPoint, occ: u8| Reverse((6 - occ, TriPoint::ORIGIN.distance(c), c.y, c.x));

    let mut placed: Vec<TriPoint> = Vec::with_capacity(n);
    if n == 0 {
        return placed;
    }
    // Occupied-neighbor count of every candidate; `PLACED` for placed cells.
    // The map holds the n placed cells plus a boundary ring of O(√n); the
    // heap gets one push per edge touching a placed cell, about 3n. Sizing
    // both up front saves about a third of the build time at n = 10⁶.
    let mut counts: TriMap<TriPoint, u8> = TriMap::default();
    counts.reserve(2 * n + 6);
    let mut heap = BinaryHeap::with_capacity(4 * n + 6);
    let mut best = TriPoint::ORIGIN;
    loop {
        counts.insert(best, PLACED);
        placed.push(best);
        if placed.len() == n {
            return placed;
        }
        for q in best.neighbors() {
            let occ = counts.entry(q).or_insert(0);
            if *occ != PLACED {
                *occ += 1;
                heap.push(key(q, *occ));
            }
        }
        best = loop {
            let Reverse((missing, _, y, x)) = heap.pop().expect("candidates never run out");
            let c = TriPoint::new(x, y);
            if counts[&c] == 6 - missing {
                break c;
            }
        };
    }
}

/// A 72-particle hole-free configuration with **no** valid Property-1 move
/// and 35 valid Property-2 moves — a witness for the phenomenon of the
/// paper's Figure 3 (all valid moves of `M` satisfy Property 2).
///
/// Exhaustive enumeration shows no such configuration exists with `n ≤ 11`;
/// this one was discovered by beam search, growing a two-strand "hairpin"
/// (whose tip-hop across the one-cell gap is the canonical Property-2 move)
/// until the coiled windings strand every Property-1 pivot. The claimed
/// properties are re-verified by this crate's tests and by the
/// `fig3_property2` experiment binary.
#[must_use]
pub fn figure3_witness() -> Vec<TriPoint> {
    const CELLS: [(i32, i32); 72] = [
        (0, 0),
        (-1, 1),
        (-2, 2),
        (-3, 3),
        (-4, 4),
        (-4, 5),
        (-3, 5),
        (-2, 4),
        (-1, 3),
        (0, 2),
        (1, 0),
        (2, 0),
        (2, 1),
        (2, 2),
        (0, 3),
        (2, 3),
        (1, 4),
        (0, 5),
        (-1, 5),
        (-3, 6),
        (-3, 7),
        (-2, 7),
        (0, 6),
        (0, 7),
        (-1, 8),
        (-2, 9),
        (-3, 9),
        (-4, 9),
        (-5, 9),
        (-5, 8),
        (-5, 6),
        (-6, 7),
        (-6, 9),
        (-7, 9),
        (-8, 9),
        (-8, 8),
        (-8, 7),
        (-7, 6),
        (-5, 4),
        (-6, 4),
        (-7, 4),
        (-8, 5),
        (-9, 7),
        (-10, 7),
        (-10, 6),
        (-8, 4),
        (-9, 4),
        (-10, 4),
        (-11, 5),
        (-12, 6),
        (-12, 7),
        (-11, 8),
        (-12, 9),
        (-13, 9),
        (-13, 7),
        (-14, 8),
        (-15, 9),
        (-15, 10),
        (-15, 11),
        (-14, 11),
        (-12, 10),
        (-12, 11),
        (-13, 12),
        (-15, 12),
        (-15, 13),
        (-15, 14),
        (-14, 14),
        (-13, 14),
        (-12, 13),
        (-11, 12),
        (-10, 11),
        (-10, 10),
    ];
    CELLS.iter().map(|&(x, y)| TriPoint::new(x, y)).collect()
}

/// A random connected cluster of `n` particles (Eden growth model).
///
/// Starts at the origin and repeatedly attaches a uniformly random
/// unoccupied cell adjacent to the cluster. Always connected and typically
/// hole-free but not guaranteed to be; use
/// [`crate::holes::analyze`] when hole-freeness matters.
#[must_use]
pub fn random_connected(n: usize, rng: &mut impl Rng) -> Vec<TriPoint> {
    // One grid holds the cluster (payload `PLACED`) and its frontier
    // (`FRONTIER`): a cell is a candidate iff it is in the grid unplaced.
    const PLACED: u32 = 0;
    const FRONTIER: u32 = 1;
    let mut placed: Vec<TriPoint> = Vec::with_capacity(n);
    if n == 0 {
        return placed;
    }
    let mut cells = TileGrid::new();
    let mut frontier: Vec<TriPoint> = Vec::new();
    let mut cell = TriPoint::ORIGIN;
    loop {
        cells.insert(cell, PLACED);
        placed.push(cell);
        if placed.len() == n {
            return placed;
        }
        for q in cell.neighbors() {
            if !cells.contains(q) {
                cells.insert(q, FRONTIER);
                frontier.push(q);
            }
        }
        cell = frontier.swap_remove(rng.gen_range(0..frontier.len()));
    }
}

/// A random connected *tree-like* configuration biased toward long
/// perimeter: random growth that only attaches cells touching exactly one
/// occupied neighbor when possible.
///
/// Useful as a high-entropy starting state distinct from the straight line.
#[must_use]
pub fn random_tree(n: usize, rng: &mut impl Rng) -> Vec<TriPoint> {
    let mut placed: Vec<TriPoint> = Vec::with_capacity(n);
    if n == 0 {
        return placed;
    }
    let mut occupied: TriSet<TriPoint> = TriSet::default();
    placed.push(TriPoint::ORIGIN);
    occupied.insert(TriPoint::ORIGIN);
    while placed.len() < n {
        // Pick a random placed particle and try to grow a leaf off it.
        let base = placed[rng.gen_range(0..placed.len())];
        let dir = Direction::from_index(rng.gen_range(0..6));
        let cell = base + dir;
        if occupied.contains(&cell) {
            continue;
        }
        let occ_neighbors = cell.neighbors().filter(|q| occupied.contains(q)).count();
        if occ_neighbors == 1 {
            occupied.insert(cell);
            placed.push(cell);
        }
    }
    placed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ParticleSystem;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn line_is_connected_tree() {
        let sys = ParticleSystem::connected(line(10)).unwrap();
        assert_eq!(sys.edge_count(), 9);
        assert_eq!(sys.triangle_count(), 0);
    }

    #[test]
    fn hexagon_sizes() {
        for r in 0..5u32 {
            let pts = hexagon(r);
            assert_eq!(pts.len(), (3 * r * (r + 1) + 1) as usize, "radius {r}");
            ParticleSystem::connected(pts).unwrap();
        }
    }

    #[test]
    fn annulus_is_connected_ring_with_hole() {
        for r in 1..5u32 {
            let pts = annulus(r);
            assert_eq!(pts.len(), (6 * r) as usize);
            let sys = ParticleSystem::connected(pts).unwrap();
            assert_eq!(sys.hole_count(), 1, "radius {r}");
        }
    }

    #[test]
    fn l_shape_is_a_tree() {
        let sys = ParticleSystem::connected(l_shape(4, 3)).unwrap();
        assert_eq!(sys.len(), 6);
        assert_eq!(sys.edge_count(), 5);
        assert_eq!(sys.perimeter(), 10);
    }

    #[test]
    fn spiral_prefix_is_always_connected() {
        let pts = spiral(40);
        for k in 1..=40 {
            ParticleSystem::connected(pts[..k].iter().copied()).unwrap();
        }
    }

    /// The original spiral builder: rescans every candidate before each
    /// placement (O(n^1.5)). Kept as the oracle that pins `spiral`'s order.
    fn legacy_spiral(n: usize) -> Vec<TriPoint> {
        let mut placed: Vec<TriPoint> = Vec::with_capacity(n);
        if n == 0 {
            return placed;
        }
        let mut occupied: TriSet<TriPoint> = TriSet::default();
        let mut candidates: TriSet<TriPoint> = TriSet::default();
        placed.push(TriPoint::ORIGIN);
        occupied.insert(TriPoint::ORIGIN);
        for q in TriPoint::ORIGIN.neighbors() {
            candidates.insert(q);
        }
        while placed.len() < n {
            let best = candidates
                .iter()
                .copied()
                .map(|c| {
                    let occ_neighbors = c.neighbors().filter(|q| occupied.contains(q)).count();
                    (c, occ_neighbors)
                })
                .min_by_key(|&(c, occ_neighbors)| {
                    (
                        usize::MAX - occ_neighbors, // max neighbors first
                        TriPoint::ORIGIN.distance(c),
                        c.y,
                        c.x,
                    )
                })
                .map(|(c, _)| c)
                .expect("candidate set never empties while placing");
            candidates.remove(&best);
            occupied.insert(best);
            placed.push(best);
            for q in best.neighbors() {
                if !occupied.contains(&q) {
                    candidates.insert(q);
                }
            }
        }
        placed
    }

    /// Greedy placement depends only on the placed prefix, so equality at
    /// `n` pins the order for every smaller size too.
    fn assert_matches_legacy(n: usize) {
        assert_eq!(spiral(n), legacy_spiral(n), "spiral({n}) order");
    }

    #[test]
    fn spiral_matches_legacy_rescan() {
        assert_eq!(spiral(0), legacy_spiral(0));
        assert_matches_legacy(3000);
    }

    #[test]
    #[ignore = "O(n^1.5) oracle; run in release with --ignored"]
    fn spiral_matches_legacy_rescan_large() {
        assert_matches_legacy(20_000);
    }

    #[test]
    fn full_spirals_are_hexagons() {
        for r in 0..=12u32 {
            let n = (3 * r * (r + 1) + 1) as usize;
            let spiral: TriSet<TriPoint> = spiral(n).into_iter().collect();
            let hexagon: TriSet<TriPoint> = hexagon(r).into_iter().collect();
            assert_eq!(spiral, hexagon, "radius {r}");
        }
    }

    #[test]
    fn random_connected_is_connected_and_sized() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in [1, 2, 10, 50] {
            let sys = ParticleSystem::connected(random_connected(n, &mut rng)).unwrap();
            assert_eq!(sys.len(), n);
        }
    }

    #[test]
    fn figure3_witness_has_only_property2_moves() {
        use sops_lattice::Direction;
        let sys = ParticleSystem::connected(figure3_witness()).unwrap();
        assert_eq!(sys.len(), 72);
        assert_eq!(sys.hole_count(), 0);
        let mut p1 = 0;
        let mut p2_only = 0;
        for id in 0..sys.len() {
            let from = sys.position(id);
            for dir in Direction::ALL {
                let v = sys.check_move(from, dir);
                if v.is_structurally_valid() {
                    if v.property1 {
                        p1 += 1;
                    } else {
                        p2_only += 1;
                    }
                }
            }
        }
        assert_eq!(p1, 0, "witness must have no valid Property-1 move");
        assert_eq!(p2_only, 35, "witness has 35 Property-2-only moves");
    }

    #[test]
    fn random_tree_has_no_triangles() {
        let mut rng = StdRng::seed_from_u64(11);
        let sys = ParticleSystem::connected(random_tree(40, &mut rng)).unwrap();
        assert_eq!(sys.triangle_count(), 0);
        assert_eq!(sys.edge_count(), 39);
        assert_eq!(sys.perimeter(), sops_lattice_pmax(40));
    }

    fn sops_lattice_pmax(n: usize) -> u64 {
        crate::metrics::pmax(n)
    }
}
