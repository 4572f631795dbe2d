//! The [`ParticleSystem`] configuration type.

use sops_lattice::{BoundingBox, Direction, TileGrid, TriPoint};

use crate::canonical::{canonical_key, CanonicalKey};
use crate::moves::MoveValidity;
use crate::SystemError;

/// Index of a particle within a [`ParticleSystem`] (`0..n`).
pub type ParticleId = usize;

/// A configuration of `n` particles occupying distinct vertices of `G∆`.
///
/// This is the state the paper's Markov chain `M` acts on: all particles are
/// contracted, each occupying a single lattice vertex (Section 3.1; expanded
/// intermediate states only exist inside the local algorithm `A` of
/// `sops-core`). The structure maintains:
///
/// * a bit-packed tiled occupancy grid ([`sops_lattice::TileGrid`]): 8×8-site
///   `u64` tiles answer occupancy tests, neighbor counts and the full
///   [`sops_lattice::PairRing`] mask of [`ParticleSystem::check_move`] from
///   at most four tile words, with particle ids stored per site,
/// * a particle → location vector for uniform random particle selection,
/// * the configuration edge count `e(σ)`, updated incrementally in O(1) per
///   move (the paper's Metropolis filter only ever needs the *change* in
///   edge count, which is local).
///
/// A hash-map-backed implementation with identical observable behavior is
/// kept as [`crate::reference::RefSystem`] and differential-tested against
/// this one.
///
/// # Example
///
/// ```
/// use sops_lattice::{Direction, TriPoint};
/// use sops_system::ParticleSystem;
///
/// // A triangle of three particles.
/// let sys = ParticleSystem::connected([
///     TriPoint::new(0, 0),
///     TriPoint::new(1, 0),
///     TriPoint::new(0, 1),
/// ])
/// .unwrap();
/// assert_eq!(sys.edge_count(), 3);
/// assert_eq!(sys.triangle_count(), 1);
/// assert_eq!(sys.perimeter(), 3);
/// ```
#[derive(Clone, Debug)]
pub struct ParticleSystem {
    grid: TileGrid,
    pos: Vec<TriPoint>,
    edges: u64,
    /// Optional per-particle orientation (indexed by id, like `pos`).
    /// Quenched state for Hamiltonians beyond edge count — moves relocate a
    /// particle but never change its orientation.
    orientation: Option<Vec<u8>>,
}

impl ParticleSystem {
    /// Builds a configuration from particle locations.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::Empty`] for an empty iterator and
    /// [`SystemError::DuplicateLocation`] if a location repeats.
    pub fn new(points: impl IntoIterator<Item = TriPoint>) -> Result<ParticleSystem, SystemError> {
        let pos: Vec<TriPoint> = points.into_iter().collect();
        if pos.is_empty() {
            return Err(SystemError::Empty);
        }
        let mut grid = TileGrid::with_site_capacity(pos.len());
        for (id, p) in pos.iter().enumerate() {
            let id = u32::try_from(id).expect("particle count exceeds u32 ids");
            if grid.insert(*p, id).is_some() {
                return Err(SystemError::DuplicateLocation(*p));
            }
        }
        let mut sys = ParticleSystem {
            grid,
            pos,
            edges: 0,
            orientation: None,
        };
        sys.edges = sys.recount_edges();
        Ok(sys)
    }

    /// Builds a configuration and verifies it is connected.
    ///
    /// The compression chain requires a connected starting configuration
    /// (Section 3.1); this constructor enforces that precondition.
    ///
    /// # Errors
    ///
    /// Everything [`ParticleSystem::new`] returns, plus
    /// [`SystemError::NotConnected`].
    pub fn connected(
        points: impl IntoIterator<Item = TriPoint>,
    ) -> Result<ParticleSystem, SystemError> {
        let sys = ParticleSystem::new(points)?;
        if !sys.is_connected() {
            return Err(SystemError::NotConnected);
        }
        Ok(sys)
    }

    /// Number of particles `n`.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// Returns `true` if the system has no particles (never true for
    /// instances built through the public constructors).
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    /// The number of configuration edges `e(σ)` — lattice edges with both
    /// endpoints occupied (Section 2.2).
    #[inline]
    #[must_use]
    pub fn edge_count(&self) -> u64 {
        self.edges
    }

    /// Returns `true` if `p` is occupied by a particle.
    #[inline]
    #[must_use]
    pub fn is_occupied(&self, p: TriPoint) -> bool {
        self.grid.contains(p)
    }

    /// The particle occupying `p`, if any.
    #[inline]
    #[must_use]
    pub fn particle_at(&self, p: TriPoint) -> Option<ParticleId> {
        self.grid.get(p).map(|id| id as ParticleId)
    }

    /// The occupancy grid backing this configuration (for the word-level
    /// scans in [`crate::boundary`] and [`crate::holes`]).
    #[inline]
    pub(crate) fn grid(&self) -> &TileGrid {
        &self.grid
    }

    /// The location of particle `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id >= n`.
    #[inline]
    #[must_use]
    pub fn position(&self, id: ParticleId) -> TriPoint {
        self.pos[id]
    }

    /// All particle locations, indexed by particle id.
    #[inline]
    #[must_use]
    pub fn positions(&self) -> &[TriPoint] {
        &self.pos
    }

    /// Iterates over the occupied lattice locations (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = TriPoint> + '_ {
        self.pos.iter().copied()
    }

    /// Attaches per-particle orientations (indexed by particle id).
    ///
    /// Orientations are *quenched* state for Hamiltonians beyond edge count
    /// (e.g. alignment): a move relocates a particle but never changes its
    /// orientation, so the vector stays id-indexed across any number of
    /// moves. Configurations without orientations (the default) behave
    /// exactly as before.
    ///
    /// # Errors
    ///
    /// [`SystemError::OrientationCount`] when the vector length differs
    /// from the particle count.
    pub fn with_orientations(
        mut self,
        orientations: Vec<u8>,
    ) -> Result<ParticleSystem, SystemError> {
        if orientations.len() != self.pos.len() {
            return Err(SystemError::OrientationCount {
                expected: self.pos.len(),
                got: orientations.len(),
            });
        }
        self.orientation = Some(orientations);
        Ok(self)
    }

    /// Attaches uniformly random orientations in `0..q`, drawn from a
    /// dedicated [`rand::rngs::StdRng`] seeded with `seed` (so the
    /// assignment is a pure function of `(q, seed)`, independent of any
    /// simulation RNG stream).
    ///
    /// # Panics
    ///
    /// Panics when `q == 0`.
    #[must_use]
    pub fn with_random_orientations(self, q: u8, seed: u64) -> ParticleSystem {
        use rand::{Rng as _, SeedableRng as _};
        assert!(q > 0, "orientation count must be positive");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let orientations = (0..self.pos.len()).map(|_| rng.gen_range(0..q)).collect();
        self.with_orientations(orientations)
            .expect("generated vector has the right length")
    }

    /// The orientation of particle `id`, when orientations are attached.
    ///
    /// # Panics
    ///
    /// Panics if `id >= n` while orientations are attached.
    #[inline]
    #[must_use]
    pub fn orientation(&self, id: ParticleId) -> Option<u8> {
        self.orientation.as_ref().map(|o| o[id])
    }

    /// All per-particle orientations (id-indexed), when attached.
    #[inline]
    #[must_use]
    pub fn orientations(&self) -> Option<&[u8]> {
        self.orientation.as_deref()
    }

    /// The number of occupied neighbors of location `p`, answered from at
    /// most four tile words.
    ///
    /// `p` itself does not count, whether or not it is occupied.
    #[inline]
    #[must_use]
    pub fn neighbor_count(&self, p: TriPoint) -> u8 {
        self.grid.neighbor_count(p)
    }

    /// The number of configuration triangles `t(σ)` — lattice faces with all
    /// three corners occupied (Section 2.2, used by Lemma 2.4).
    #[must_use]
    pub fn triangle_count(&self) -> u64 {
        let mut t = 0u64;
        for &p in &self.pos {
            let east = self.is_occupied(p + Direction::E);
            if east && self.is_occupied(p + Direction::NE) {
                t += 1;
            }
            if east && self.is_occupied(p + Direction::SE) {
                t += 1;
            }
        }
        t
    }

    /// Tests whether the configuration is connected (Section 2.2) via BFS.
    #[must_use]
    pub fn is_connected(&self) -> bool {
        if self.pos.is_empty() {
            return true;
        }
        let mut visited = vec![false; self.pos.len()];
        let mut stack = vec![0 as ParticleId];
        visited[0] = true;
        let mut seen = 1usize;
        while let Some(id) = stack.pop() {
            let p = self.pos[id];
            for d in Direction::ALL {
                if let Some(other) = self.particle_at(p + d) {
                    if !visited[other] {
                        visited[other] = true;
                        seen += 1;
                        stack.push(other);
                    }
                }
            }
        }
        seen == self.pos.len()
    }

    /// The smallest bounding box containing all particles.
    #[must_use]
    pub fn bounding_box(&self) -> BoundingBox {
        BoundingBox::of(self.iter()).expect("particle systems are non-empty")
    }

    /// Evaluates the paper's move conditions for moving the particle at
    /// `from` one step in direction `dir` (Algorithm `M`, Step 6).
    ///
    /// The result reports target occupancy, the neighbor counts `e` and `e′`,
    /// the five-neighbor hole guard (Condition 1) and Properties 1/2
    /// (Condition 2). The Metropolis filter (Condition 3) is probabilistic
    /// and belongs to the chain in `sops-core`.
    #[must_use]
    pub fn check_move(&self, from: TriPoint, dir: Direction) -> MoveValidity {
        let (mask, target_occupied) = self.grid.pair_ring_mask(from, dir);
        MoveValidity::from_mask(mask, target_occupied)
    }

    /// Calls `f` for every particle whose Algorithm-`M` acceptance
    /// probabilities a move `(from → from + dir)` can touch, with its id,
    /// location, and its entry of [`crate::moves::revalidation_plan`]: the
    /// move directions (bit `i` = `Direction::from_index(i)`) whose pair
    /// mask actually reads one of the two changed sites, and the patch
    /// ([`crate::moves::PlanEntry::patch`]) that updates those masks.
    ///
    /// This is the revalidation hook of the rejection-free sampler in
    /// `sops-core`: after the move is applied, exactly these `(particle,
    /// direction)` pairs (at most 24 sites, the union of the two radius-2
    /// discs around `from` and `from + dir`) need their acceptance masses
    /// recomputed; every other pair's mask is untouched by the occupancy
    /// change. Call it *after* mutating the configuration so the mover is
    /// visited at its new location (where all six of its directions are
    /// planned, and where the patch does not apply: its masks moved with
    /// it).
    pub fn for_each_particle_near_move(
        &self,
        from: TriPoint,
        dir: Direction,
        mut f: impl FnMut(ParticleId, TriPoint, &crate::moves::PlanEntry),
    ) {
        for entry in crate::moves::revalidation_plan(dir) {
            let p = TriPoint::new(from.x + entry.offset.0, from.y + entry.offset.1);
            if let Some(id) = self.particle_at(p) {
                f(id, p, entry);
            }
        }
    }

    /// The 5×5 occupancy window centered on `p`, as one `u32` bitboard
    /// (bit `(dy + 2) · 5 + (dx + 2)` for the site at offset `(dx, dy)`).
    ///
    /// One gather covers `p`'s whole radius-2 disc — every
    /// [`sops_lattice::PairRing`] of its six moves — so
    /// [`crate::moves::pair_masks_in_window25`] can evaluate all six
    /// directions from this single word. The rejection-free sampler in
    /// `sops-core` builds its per-particle pair masks from it.
    #[inline]
    #[must_use]
    pub fn window25(&self, p: TriPoint) -> u32 {
        self.grid.window25(p.x - 2, p.y - 2)
    }

    /// Moves particle `id` one step in direction `dir`, updating the edge
    /// count incrementally, without checking Properties 1/2.
    ///
    /// This is the raw mutation used by the chain after it has validated the
    /// move; it enforces only the structural requirements (valid id,
    /// unoccupied target).
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::NoSuchParticle`] or
    /// [`SystemError::TargetOccupied`].
    pub fn move_particle(&mut self, id: ParticleId, dir: Direction) -> Result<(), SystemError> {
        let from = *self.pos.get(id).ok_or(SystemError::NoSuchParticle(id))?;
        let to = from + dir;
        // One window fetch yields the target occupancy and both neighbor
        // counts: with `from` vacated and `to` still empty, `e` and `e′` are
        // exactly the two 5-site arcs of the pair-ring mask.
        let (mask, target_occupied) = self.grid.pair_ring_mask(from, dir);
        if target_occupied {
            return Err(SystemError::TargetOccupied(to));
        }
        let validity = MoveValidity::from_mask(mask, false);
        let moved = self
            .grid
            .remove(from)
            .expect("particle positions always occupy the grid");
        self.edges = self.edges - validity.e_from as u64 + validity.e_to as u64;
        self.grid.insert(to, moved);
        self.pos[id] = to;
        Ok(())
    }

    /// The number of holes `H(σ)`: finite maximal connected unoccupied
    /// regions (Section 2.2). Computed by exterior flood fill; see
    /// [`crate::holes`].
    #[must_use]
    pub fn hole_count(&self) -> usize {
        crate::holes::analyze(self).hole_count
    }

    /// The perimeter `p(σ)`: total length of all boundary walks, counting
    /// cut edges twice (Section 2.2).
    ///
    /// Computed through the closed form `p = 3n − e − 3 + 3H`, which
    /// generalizes Lemma 2.3 (`e = 3n − p − 3` for hole-free configurations)
    /// to configurations with `H` holes. Derivation: each boundary component
    /// corresponds to a cycle of hexagonal-dual boundary edges; the external
    /// cycle has hex-length `2k + 6` for walk length `k` and each hole cycle
    /// has hex-length `2k − 6`, while the total number of boundary hex edges
    /// is `6n − 2e`. The identity is verified exhaustively against the
    /// independent boundary tracer of [`crate::boundary`] in this crate's
    /// tests.
    ///
    /// Requires a connected configuration to be meaningful (as in the paper).
    #[must_use]
    pub fn perimeter(&self) -> u64 {
        let holes = self.hole_count() as u64;
        self.perimeter_with_holes(holes)
    }

    /// The perimeter given an externally known hole count.
    ///
    /// The chain of `sops-core` tracks hole-freeness (holes can never
    /// reappear once eliminated — Lemma 3.2), so it can skip the flood fill
    /// and call this with `holes = 0`.
    #[inline]
    #[must_use]
    pub fn perimeter_with_holes(&self, holes: u64) -> u64 {
        3 * self.len() as u64 - self.edges - 3 + 3 * holes
    }

    /// A translation-invariant canonical key identifying the configuration
    /// (Section 2.2 identifies configurations up to translation).
    #[must_use]
    pub fn canonical_key(&self) -> CanonicalKey {
        canonical_key(self.iter())
    }

    /// Recounts edges from scratch (used to validate the incremental count).
    #[must_use]
    pub fn recount_edges(&self) -> u64 {
        let mut twice = 0u64;
        for &p in &self.pos {
            twice += self.neighbor_count(p) as u64;
        }
        twice / 2
    }

    /// Checks internal invariants (grid↔position agreement, grid internal
    /// consistency, incremental edge count). Intended for tests and debug
    /// assertions.
    ///
    /// # Panics
    ///
    /// Panics if any invariant is violated.
    pub fn assert_invariants(&self) {
        self.grid.assert_valid();
        assert_eq!(self.grid.len(), self.pos.len(), "occupancy size mismatch");
        for (id, &p) in self.pos.iter().enumerate() {
            assert_eq!(
                self.grid.get(p),
                Some(id as u32),
                "particle {id} at {p} disagrees with the grid"
            );
        }
        assert_eq!(self.edges, self.recount_edges(), "edge count drifted");
    }
}

impl PartialEq for ParticleSystem {
    /// Configurations compare equal when they occupy the same locations
    /// (particle ids are anonymous, as in the paper; orientations are
    /// auxiliary per-particle state and do not participate).
    fn eq(&self, other: &Self) -> bool {
        self.pos.len() == other.pos.len() && self.pos.iter().all(|p| other.is_occupied(*p))
    }
}

impl Eq for ParticleSystem {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shapes;

    fn triangle() -> ParticleSystem {
        ParticleSystem::connected([
            TriPoint::new(0, 0),
            TriPoint::new(1, 0),
            TriPoint::new(0, 1),
        ])
        .unwrap()
    }

    #[test]
    fn new_rejects_duplicates_and_empty() {
        assert_eq!(
            ParticleSystem::new([TriPoint::ORIGIN, TriPoint::ORIGIN]),
            Err(SystemError::DuplicateLocation(TriPoint::ORIGIN))
        );
        assert_eq!(
            ParticleSystem::new(std::iter::empty()),
            Err(SystemError::Empty)
        );
    }

    #[test]
    fn connected_rejects_disconnected() {
        let res = ParticleSystem::connected([TriPoint::ORIGIN, TriPoint::new(5, 5)]);
        assert_eq!(res, Err(SystemError::NotConnected));
    }

    #[test]
    fn edge_and_triangle_counts() {
        let sys = triangle();
        assert_eq!(sys.edge_count(), 3);
        assert_eq!(sys.triangle_count(), 1);
        let line = ParticleSystem::connected(shapes::line(5)).unwrap();
        assert_eq!(line.edge_count(), 4);
        assert_eq!(line.triangle_count(), 0);
    }

    #[test]
    fn move_particle_updates_edges_incrementally() {
        let mut sys = ParticleSystem::connected(shapes::line(4)).unwrap();
        // Move the last particle of the line 0..4 up-left so it forms a
        // triangle with particles 2 and 3: (3,0) -> (2,1)? (2,1) neighbors
        // (2,0) and (3,0)... but (3,0) is the mover itself, so e' counts (2,0) and (1,1)=empty.
        let id = sys.particle_at(TriPoint::new(3, 0)).unwrap();
        sys.move_particle(id, Direction::NW).unwrap();
        assert_eq!(sys.position(id), TriPoint::new(2, 1));
        sys.assert_invariants();
        assert_eq!(sys.edge_count(), sys.recount_edges());
    }

    #[test]
    fn move_particle_rejects_occupied_target() {
        let mut sys = ParticleSystem::connected(shapes::line(3)).unwrap();
        let id = sys.particle_at(TriPoint::new(0, 0)).unwrap();
        assert_eq!(
            sys.move_particle(id, Direction::E),
            Err(SystemError::TargetOccupied(TriPoint::new(1, 0)))
        );
        assert_eq!(
            sys.move_particle(99, Direction::E),
            Err(SystemError::NoSuchParticle(99))
        );
    }

    #[test]
    fn perimeter_of_small_shapes() {
        assert_eq!(
            ParticleSystem::new([TriPoint::ORIGIN]).unwrap().perimeter(),
            0
        );
        assert_eq!(
            ParticleSystem::connected(shapes::line(2))
                .unwrap()
                .perimeter(),
            2
        );
        assert_eq!(triangle().perimeter(), 3);
        // A line of n particles is a tree: p = 2n − 2.
        for n in 2..12 {
            let line = ParticleSystem::connected(shapes::line(n)).unwrap();
            assert_eq!(line.perimeter(), 2 * n as u64 - 2);
        }
    }

    #[test]
    fn equality_is_anonymous() {
        let a = ParticleSystem::new([TriPoint::new(0, 0), TriPoint::new(1, 0)]).unwrap();
        let b = ParticleSystem::new([TriPoint::new(1, 0), TriPoint::new(0, 0)]).unwrap();
        assert_eq!(a, b);
        let c = ParticleSystem::new([TriPoint::new(0, 0), TriPoint::new(0, 1)]).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn orientations_attach_and_survive_moves() {
        let sys = ParticleSystem::connected(shapes::line(4)).unwrap();
        assert_eq!(sys.orientations(), None);
        assert_eq!(sys.orientation(0), None);
        let mut sys = sys.with_orientations(vec![0, 1, 2, 1]).unwrap();
        assert_eq!(sys.orientation(3), Some(1));
        let id = sys.particle_at(TriPoint::new(3, 0)).unwrap();
        sys.move_particle(id, Direction::NW).unwrap();
        // Orientations are id-indexed; the move changes nothing.
        assert_eq!(sys.orientations(), Some(&[0, 1, 2, 1][..]));
    }

    #[test]
    fn orientation_length_mismatch_is_rejected() {
        let sys = ParticleSystem::connected(shapes::line(4)).unwrap();
        assert_eq!(
            sys.with_orientations(vec![0, 1]).unwrap_err(),
            SystemError::OrientationCount {
                expected: 4,
                got: 2
            }
        );
    }

    #[test]
    fn random_orientations_are_a_function_of_seed() {
        let build = |seed| {
            ParticleSystem::connected(shapes::line(30))
                .unwrap()
                .with_random_orientations(4, seed)
        };
        assert_eq!(build(7).orientations(), build(7).orientations());
        assert_ne!(build(7).orientations(), build(8).orientations());
        assert!(build(7).orientations().unwrap().iter().all(|&o| o < 4));
    }

    #[test]
    fn connectivity_detects_bridges() {
        // A "V" of particles is connected; removing the apex disconnects it.
        let sys = ParticleSystem::connected([
            TriPoint::new(-1, 0),
            TriPoint::new(0, 0),
            TriPoint::new(1, 0),
        ])
        .unwrap();
        assert!(sys.is_connected());
    }
}
