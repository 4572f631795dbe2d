//! Local move validity: the five-neighbor rule and Properties 1 & 2.
//!
//! Section 3.1 of the paper defines two structural properties of an adjacent
//! location pair `(ℓ, ℓ′)` that make a particle move from `ℓ` to `ℓ′` safe:
//!
//! * **Property 1.** `|S| ∈ {1, 2}` — at least one of the two common
//!   neighbors of `ℓ` and `ℓ′` is occupied — and every particle in
//!   `N(ℓ ∪ ℓ′)` is connected to a particle of `S` by a path *through*
//!   `N(ℓ ∪ ℓ′)`.
//! * **Property 2.** `|S| = 0`, both `ℓ` and `ℓ′` have at least one
//!   neighbor, all particles in `N(ℓ) \ {ℓ′}` are connected by paths within
//!   that set, and likewise for `N(ℓ′) \ {ℓ}`.
//!
//! Together with Condition (1) of Algorithm `M` (`e ≠ 5`, preventing hole
//! creation at the vacated site), these conditions preserve connectivity
//! (Lemma 3.1) and hole-freeness (Lemma 3.2), and are symmetric in `ℓ`/`ℓ′`
//! so every move is reversible (Lemma 3.9).
//!
//! Because `N(ℓ ∪ ℓ′)` is an induced 8-cycle ([`sops_lattice::PairRing`]),
//! both properties are pure functions of an 8-bit occupancy mask, and are
//! precomputed here as 256-entry lookup tables built at compile time. The
//! [`mod@reference`] module implements the textual definitions directly on the
//! lattice with BFS; the test suite (and a Criterion bench) checks that the
//! table and the reference agree on every mask and on random configurations.

use sops_lattice::{Direction, TriPoint};

/// Bit positions of the two shared neighbors in the ring mask.
const SHARED_MASK: u8 = 0b0001_0001;

const fn prop1_of_mask(mask: u8) -> bool {
    // S = occupied shared neighbors; Property 1 needs |S| >= 1.
    let shared = mask & SHARED_MASK;
    if shared == 0 {
        return false;
    }
    // Flood occupied ring sites outward from S along the 8-cycle; Property 1
    // holds iff every occupied site is reached.
    let mut reach = shared;
    let mut changed = true;
    while changed {
        changed = false;
        let mut i = 0;
        while i < 8 {
            let bit = 1u8 << i;
            if mask & bit != 0 && reach & bit == 0 {
                let prev = 1u8 << ((i + 7) % 8);
                let next = 1u8 << ((i + 1) % 8);
                if reach & prev != 0 || reach & next != 0 {
                    reach |= bit;
                    changed = true;
                }
            }
            i += 1;
        }
    }
    reach == mask
}

const fn arc_contiguous_nonempty(bits: u8) -> bool {
    // `bits` holds three consecutive ring sites as a 3-bit value; they form a
    // path graph, so the occupied subset is connected iff it is a contiguous
    // run: anything except 000 and 101.
    bits != 0b000 && bits != 0b101
}

const fn prop2_of_mask(mask: u8) -> bool {
    if mask & SHARED_MASK != 0 {
        return false;
    }
    // With both shared sites empty, N(ℓ)\{ℓ′} can only be occupied at ring
    // indices 1..=3 and N(ℓ′)\{ℓ} at ring indices 5..=7.
    let from_side = (mask >> 1) & 0b111;
    let to_side = (mask >> 5) & 0b111;
    arc_contiguous_nonempty(from_side) && arc_contiguous_nonempty(to_side)
}

/// Lookup table: `PROPERTY1[mask]` is Property 1 for that ring occupancy.
pub static PROPERTY1: [bool; 256] = {
    let mut table = [false; 256];
    let mut m = 0usize;
    while m < 256 {
        table[m] = prop1_of_mask(m as u8);
        m += 1;
    }
    table
};

/// Lookup table: `PROPERTY2[mask]` is Property 2 for that ring occupancy.
pub static PROPERTY2: [bool; 256] = {
    let mut table = [false; 256];
    let mut m = 0usize;
    while m < 256 {
        table[m] = prop2_of_mask(m as u8);
        m += 1;
    }
    table
};

/// The outcome of evaluating Algorithm `M`'s structural move conditions.
///
/// Produced by [`crate::ParticleSystem::check_move`]. The Metropolis filter
/// (Condition 3 of Step 6) is applied by the chain itself; this type captures
/// Conditions (1) and (2) plus the neighbor counts the filter needs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MoveValidity {
    /// The ring occupancy mask around `(ℓ, ℓ′)`.
    pub mask: u8,
    /// Whether the destination `ℓ′` is already occupied (no move possible).
    pub target_occupied: bool,
    /// `e = |N(ℓ)|`: occupied neighbors of the origin (excluding `ℓ′`,
    /// which must be empty for a move).
    pub e_from: u8,
    /// `e′ = |N(ℓ′)|`: neighbors the particle would have after moving
    /// (excluding itself).
    pub e_to: u8,
    /// Property 1 of the pair.
    pub property1: bool,
    /// Property 2 of the pair.
    pub property2: bool,
}

impl MoveValidity {
    /// Evaluates the conditions from a nine-bit pair mask: the ring mask
    /// plus the target bit ([`PAIR_TARGET_BIT`]).
    #[inline]
    #[must_use]
    pub fn from_pair_mask(mask: u16) -> MoveValidity {
        MoveValidity::from_mask(mask as u8, mask & PAIR_TARGET_BIT != 0)
    }

    /// Evaluates the conditions from a ring occupancy mask.
    #[inline]
    #[must_use]
    pub fn from_mask(mask: u8, target_occupied: bool) -> MoveValidity {
        MoveValidity {
            mask,
            target_occupied,
            e_from: (mask & 0b0001_1111).count_ones() as u8,
            e_to: (mask & 0b1111_0001).count_ones() as u8,
            property1: PROPERTY1[mask as usize],
            property2: PROPERTY2[mask as usize],
        }
    }

    /// Condition (1) of Step 6: moving is forbidden when `e = 5`, which
    /// would leave a hole at the vacated location.
    #[inline]
    #[must_use]
    pub fn five_neighbor_blocked(&self) -> bool {
        self.e_from == 5
    }

    /// Whether the move satisfies all structural conditions of Algorithm `M`
    /// (target empty, `e ≠ 5`, and Property 1 or Property 2).
    ///
    /// A structurally valid move still passes through the Metropolis filter
    /// `q < λ^(e′ − e)` before being executed.
    #[inline]
    #[must_use]
    pub fn is_structurally_valid(&self) -> bool {
        !self.target_occupied && !self.five_neighbor_blocked() && (self.property1 || self.property2)
    }

    /// The edge-count change `e′ − e` the move would cause.
    #[inline]
    #[must_use]
    pub fn edge_delta(&self) -> i32 {
        self.e_to as i32 - self.e_from as i32
    }
}

/// Upper bound on the size of a move's revalidation neighborhood (the union
/// of two adjacent radius-2 discs holds 24 sites).
const REVAL_MAX: usize = 24;

/// Bits per pair mask: the eight [`sops_lattice::PairRing`] sites (bits
/// 0–7, [`MoveValidity::mask`] order) plus the target (bit 8).
pub const PAIR_MASK_BITS: usize = 9;

/// The target bit of a pair mask.
pub const PAIR_TARGET_BIT: u16 = 1 << 8;

/// The nine sites the acceptance probability of pair `(q, q + d)` reads,
/// as offsets from `q`, in pair-mask bit order: the eight
/// [`sops_lattice::PairRing`] sites plus the target `q + d` itself. The one
/// definition of that order: the revalidation plan's patches and the
/// window row tables are both derived from it (and this module's tests
/// check it against `PairRing` and the grid's `check_move`).
const fn dependency_offsets(d: Direction) -> [(i32, i32); 9] {
    let (dx, dy) = d.offset();
    [
        d.rot60(1).offset(),
        d.rot60(2).offset(),
        d.rot60(3).offset(),
        d.rot60(4).offset(),
        d.rot60(5).offset(),
        (dx + d.rot60(5).offset().0, dy + d.rot60(5).offset().1),
        (2 * dx, 2 * dy),
        (dx + d.rot60(1).offset().0, dy + d.rot60(1).offset().1),
        (dx, dy),
    ]
}

/// The nine-bit mask of `dir` in a site's six packed pair masks (direction
/// `d` at bits `[9d, 9d + 9)`, as [`pair_masks_in_window25`] packs them).
#[inline]
#[must_use]
pub fn pair_mask(masks: u64, dir: Direction) -> u16 {
    (masks >> (PAIR_MASK_BITS * dir.index())) as u16 & 0x1ff
}

/// One revalidation-plan entry: a site near the move and the changes the
/// move makes to the pair masks of a particle there.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanEntry {
    /// The site, as an offset from `ℓ`.
    pub offset: (i32, i32),
    /// The directions (bit `i` = `Direction::from_index(i)`) whose pair at
    /// this site reads `ℓ` or `ℓ′`: exactly those with a non-empty patch.
    pub dirs: u8,
    /// Packed pair-mask bits (layout of [`pair_masks_in_window25`]) that
    /// fall on `ℓ`, which the move empties.
    pub clear: u64,
    /// Packed pair-mask bits that fall on `ℓ′`, which the move fills.
    pub set: u64,
}

impl PlanEntry {
    /// The packed pair masks of a particle at this entry's site after the
    /// move, from those before it.
    #[inline]
    #[must_use]
    pub fn patch(&self, masks: u64) -> u64 {
        (masks & !self.clear) | self.set
    }
}

const fn reval_plan(mv: Direction) -> ([PlanEntry; REVAL_MAX], usize) {
    let (mx, my) = mv.offset();
    let empty = PlanEntry {
        offset: (0, 0),
        dirs: 0,
        clear: 0,
        set: 0,
    };
    let mut out = [empty; REVAL_MAX];
    let mut len = 0usize;
    let mut oy = -3i32;
    while oy <= 3 {
        let mut ox = -3i32;
        while ox <= 3 {
            // The pair-mask bits, anchored at this offset, that fall on
            // ℓ = (0, 0) or ℓ′ = (mx, my).
            let mut entry = PlanEntry {
                offset: (ox, oy),
                ..empty
            };
            let mut di = 0;
            while di < 6 {
                let deps = dependency_offsets(Direction::ALL[di]);
                let mut k = 0;
                while k < 9 {
                    let (sx, sy) = (ox + deps[k].0, oy + deps[k].1);
                    let bit = 1u64 << (PAIR_MASK_BITS * di + k);
                    if sx == 0 && sy == 0 {
                        entry.clear |= bit;
                        entry.dirs |= 1 << di;
                    } else if sx == mx && sy == my {
                        entry.set |= bit;
                        entry.dirs |= 1 << di;
                    }
                    k += 1;
                }
                di += 1;
            }
            if entry.dirs != 0 {
                out[len] = entry;
                len += 1;
            }
            ox += 1;
        }
        oy += 1;
    }
    (out, len)
}

static REVALIDATION_PLANS: [([PlanEntry; REVAL_MAX], usize); 6] = [
    reval_plan(Direction::E),
    reval_plan(Direction::NE),
    reval_plan(Direction::NW),
    reval_plan(Direction::W),
    reval_plan(Direction::SW),
    reval_plan(Direction::SE),
];

/// The revalidation plan of a move from `ℓ` to `ℓ′ = ℓ + dir`: the sites
/// (as offsets from `ℓ`) whose particles' Algorithm-`M` acceptance
/// probabilities the move can change, each with the directions whose pair
/// actually reads one of the two changed sites and the patch that brings
/// those pairs' masks up to date.
///
/// A pair `(P, d)` with `P` at `q` is accepted with probability
/// `min(1, λ^(e′−e))` gated by the five-neighbor rule and Properties 1/2 —
/// all functions of its nine-bit pair mask (the occupancy of the
/// [`sops_lattice::PairRing`] around `(q, q + d)` plus the target `q + d`),
/// every site of which lies within graph distance 2 of `q`. A move changes
/// occupancy only at `ℓ` and `ℓ′`, so `(P, d)` can change only if its
/// dependency set touches one of them: the 24 offsets of this plan (the
/// union of the two radius-2 discs, including `ℓ` and `ℓ′` themselves),
/// restricted per site to the touching directions.
///
/// For a particle that did not move, the touching bits are known in
/// advance: `ℓ` is now empty and `ℓ′` now occupied, so
/// [`PlanEntry::patch`] turns its pair masks before the move into those
/// after it with one clear and one set, without reading the grid. The
/// entry at `ℓ′` is the mover itself, whose masks all moved with it (every
/// one of its six pairs is planned there); it has to gather them afresh.
/// This is the revalidation hook the rejection-free sampler in `sops-core`
/// uses to keep its pair masks and acceptance-mass table incremental.
#[must_use]
pub fn revalidation_plan(dir: Direction) -> &'static [PlanEntry] {
    let (ref plan, len) = REVALIDATION_PLANS[dir.index()];
    &plan[..len]
}

/// The sites of [`revalidation_plan`] without their directions and patches.
pub fn revalidation_offsets(dir: Direction) -> impl Iterator<Item = (i32, i32)> {
    revalidation_plan(dir).iter().map(|entry| entry.offset)
}

/// `WINDOW25_ROW_MASKS[r][bits]`: the packed pair-mask bits of a 5×5
/// window's center that row `r` of the window contributes when its five
/// sites hold `bits`. Every site a center pair reads lies within graph
/// distance 2, so inside the window, and each pair-mask bit is one window
/// bit: the six masks are the OR of five row lookups.
static WINDOW25_ROW_MASKS: [[u64; 32]; 5] = {
    let mut table = [[0u64; 32]; 5];
    let mut di = 0;
    while di < 6 {
        let deps = dependency_offsets(Direction::ALL[di]);
        let mut k = 0;
        while k < 9 {
            let (row, col) = ((deps[k].1 + 2) as usize, (deps[k].0 + 2) as usize);
            let mut bits = 0;
            while bits < 32 {
                if bits >> col & 1 != 0 {
                    table[row][bits] |= 1 << (PAIR_MASK_BITS * di + k);
                }
                bits += 1;
            }
            k += 1;
        }
        di += 1;
    }
    table
};

/// The six pair masks of the center of a 5×5 occupancy window
/// ([`crate::ParticleSystem::window25`]), packed with direction `d` at bits
/// `[9d, 9d + 9)`: one gather and five table lookups answer every move of
/// one particle. [`pair_mask`] extracts one direction, and
/// [`MoveValidity::from_pair_mask`] evaluates it.
///
/// Equivalent to [`crate::ParticleSystem::check_move`] at the window's
/// center in every direction (verified in this module's tests).
#[inline]
#[must_use]
pub fn pair_masks_in_window25(window: u32) -> u64 {
    let mut masks = 0;
    for (r, row) in WINDOW25_ROW_MASKS.iter().enumerate() {
        masks |= row[(window >> (5 * r) & 31) as usize];
    }
    masks
}

/// First-principles implementations of the paper's definitions, used to
/// cross-validate the lookup tables.
///
/// These evaluate the textual definitions of Properties 1 and 2 directly on
/// lattice points with BFS, with no reliance on the ring indexing or on the
/// induced-8-cycle fact.
pub mod reference {
    use super::*;

    /// All sites of `N(ℓ ∪ ℓ′)`, unordered.
    fn pair_neighborhood(from: TriPoint, to: TriPoint) -> Vec<TriPoint> {
        let mut sites: Vec<TriPoint> = from.neighbors().chain(to.neighbors()).collect();
        sites.retain(|p| *p != from && *p != to);
        sites.sort();
        sites.dedup();
        sites
    }

    /// Is the occupied subset of `sites` connected, and is every occupied
    /// site reachable from some site of `seeds`, using lattice adjacency
    /// restricted to occupied members of `sites`?
    fn all_reachable_from(
        occupied: &dyn Fn(TriPoint) -> bool,
        sites: &[TriPoint],
        seeds: &[TriPoint],
    ) -> bool {
        let occupied_sites: Vec<TriPoint> =
            sites.iter().copied().filter(|p| occupied(*p)).collect();
        let mut reached: Vec<TriPoint> = seeds.to_vec();
        let mut frontier = reached.clone();
        while let Some(p) = frontier.pop() {
            for q in p.neighbors() {
                if occupied_sites.contains(&q) && !reached.contains(&q) {
                    reached.push(q);
                    frontier.push(q);
                }
            }
        }
        occupied_sites.iter().all(|p| reached.contains(p))
    }

    /// Property 1, from the definition in Section 3.1.
    pub fn property1(occupied: &dyn Fn(TriPoint) -> bool, from: TriPoint, dir: Direction) -> bool {
        let to = from + dir;
        let shared: Vec<TriPoint> = from
            .shared_neighbors(to)
            .into_iter()
            .filter(|p| occupied(*p))
            .collect();
        if shared.is_empty() {
            return false;
        }
        let sites = pair_neighborhood(from, to);
        all_reachable_from(occupied, &sites, &shared)
    }

    /// Property 2, from the definition in Section 3.1.
    pub fn property2(occupied: &dyn Fn(TriPoint) -> bool, from: TriPoint, dir: Direction) -> bool {
        let to = from + dir;
        let shared_occupied = from.shared_neighbors(to).into_iter().any(occupied);
        if shared_occupied {
            return false;
        }
        let side_ok = |center: TriPoint, exclude: TriPoint| {
            let sites: Vec<TriPoint> = center.neighbors().filter(|p| *p != exclude).collect();
            let occupied_sites: Vec<TriPoint> =
                sites.iter().copied().filter(|p| occupied(*p)).collect();
            match occupied_sites.first() {
                None => false,
                Some(&seed) => all_reachable_from(occupied, &sites, &[seed]),
            }
        };
        side_ok(from, to) && side_ok(to, from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sops_lattice::PairRing;

    /// Realizes a ring mask as a concrete occupancy predicate.
    fn mask_world(mask: u8, from: TriPoint, dir: Direction) -> impl Fn(TriPoint) -> bool {
        let ring = PairRing::new(from, dir);
        let occupied: Vec<TriPoint> = (0..8)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| ring.site(i))
            .collect();
        move |p: TriPoint| occupied.contains(&p)
    }

    #[test]
    fn tables_match_reference_for_all_masks_and_directions() {
        for dir in Direction::ALL {
            let from = TriPoint::ORIGIN;
            for mask in 0u16..256 {
                let mask = mask as u8;
                let world = mask_world(mask, from, dir);
                assert_eq!(
                    PROPERTY1[mask as usize],
                    reference::property1(&world, from, dir),
                    "Property 1 mismatch at mask {mask:#010b}, dir {dir}"
                );
                assert_eq!(
                    PROPERTY2[mask as usize],
                    reference::property2(&world, from, dir),
                    "Property 2 mismatch at mask {mask:#010b}, dir {dir}"
                );
            }
        }
    }

    #[test]
    fn properties_are_mutually_exclusive() {
        // Property 1 requires an occupied shared site; Property 2 requires
        // both shared sites empty.
        for mask in 0u16..256 {
            assert!(
                !(PROPERTY1[mask as usize] && PROPERTY2[mask as usize]),
                "mask {mask:#010b}"
            );
        }
    }

    #[test]
    fn properties_are_symmetric_under_pair_reversal() {
        // Reversing the move direction re-indexes the ring: site i of
        // (ℓ, d) is site (i + 4) % 8 of (ℓ′, −d) — verified geometrically
        // here — and both properties must be invariant (Lemma 3.9 requires
        // symmetry).
        let from = TriPoint::ORIGIN;
        for dir in Direction::ALL {
            let to = from + dir;
            let forward = PairRing::new(from, dir);
            let backward = PairRing::new(to, dir.opposite());
            for i in 0..8 {
                assert_eq!(forward.site(i), backward.site((i + 4) % 8));
            }
        }
        for mask in 0u16..256 {
            let mask = mask as u8;
            let reversed = mask.rotate_left(4);
            assert_eq!(
                PROPERTY1[mask as usize], PROPERTY1[reversed as usize],
                "P1 asymmetric at {mask:#010b}"
            );
            assert_eq!(
                PROPERTY2[mask as usize], PROPERTY2[reversed as usize],
                "P2 asymmetric at {mask:#010b}"
            );
        }
    }

    #[test]
    fn known_property1_cases() {
        // Only one shared neighbor occupied: the particle pivots around it.
        assert!(PROPERTY1[0b0000_0001]);
        assert!(PROPERTY1[0b0001_0000]);
        // Both shared occupied, nothing else.
        assert!(PROPERTY1[0b0001_0001]);
        // A particle at ring index 2 disconnected from the shared site at 0
        // (index 1 empty) violates Property 1.
        assert!(!PROPERTY1[0b0000_0101]);
        // ...but connecting through index 1 restores it.
        assert!(PROPERTY1[0b0000_0111]);
        // Empty ring: no shared particle.
        assert!(!PROPERTY1[0b0000_0000]);
        // Full ring is fine (everything connected).
        assert!(PROPERTY1[0b1111_1111]);
    }

    #[test]
    fn known_property2_cases() {
        // One neighbor behind (index 2) and one ahead (index 6).
        assert!(PROPERTY2[0b0100_0100]);
        // Contiguous runs on both sides.
        assert!(PROPERTY2[0b0110_0110]);
        // Gap on the from side ({1,3} non-contiguous).
        assert!(!PROPERTY2[0b0100_1010]);
        // Missing a side entirely.
        assert!(!PROPERTY2[0b0000_0100]);
        // Any occupied shared site disqualifies Property 2.
        assert!(!PROPERTY2[0b0100_0101]);
    }

    #[test]
    fn move_validity_counts_and_deltas() {
        // Ring sites 0..=4 are N(ℓ)\{ℓ′}; 4..=7 and 0 are N(ℓ′)\{ℓ}.
        let v = MoveValidity::from_mask(0b0000_0111, false);
        assert_eq!(v.e_from, 3);
        assert_eq!(v.e_to, 1);
        assert_eq!(v.edge_delta(), -2);
        assert!(!v.five_neighbor_blocked());

        let v = MoveValidity::from_mask(0b0001_1111, false);
        assert_eq!(v.e_from, 5);
        assert!(v.five_neighbor_blocked());
        assert!(!v.is_structurally_valid());

        let v = MoveValidity::from_mask(0b0000_0001, true);
        assert!(!v.is_structurally_valid(), "occupied target blocks moves");
    }

    #[test]
    fn revalidation_plan_covers_exactly_the_dependent_pairs() {
        // Pair (q, d) depends on the move (ℓ → ℓ′) iff its ring or target
        // touches {ℓ, ℓ′}, or q is the mover's new location ℓ′ (where the
        // ring always contains ℓ as a neighbor or target, verified here).
        // The plan must list exactly those pairs: the KMC sampler
        // revalidates nothing else after an accepted move.
        let l = TriPoint::ORIGIN;
        for mv in Direction::ALL {
            let lp = l + mv;
            let plan = revalidation_plan(mv);
            for x in -5..=5 {
                for y in -5..=5 {
                    let q = TriPoint::new(x, y);
                    let entry = plan.iter().find(|e| e.offset == (x, y));
                    for d in Direction::ALL {
                        let ring = PairRing::new(q, d);
                        let depends = q + d == l
                            || q + d == lp
                            || (0..8).any(|i| ring.site(i) == l || ring.site(i) == lp);
                        let planned = entry.is_some_and(|e| e.dirs >> d.index() & 1 != 0);
                        assert_eq!(
                            depends, planned,
                            "move {mv}: pair ({q}, {d}) dependency mismatch"
                        );
                        if q == lp {
                            assert!(depends, "the mover's pairs must all be planned");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn plan_patches_are_the_pair_mask_bits_on_the_two_changed_sites() {
        // Brute force over all 6 × 6 (move, pair) directions: scanning the
        // PairRing sites (bits 0–7) and the target (bit 8) of every planned
        // pair, the bits on ℓ must be exactly `clear` and those on ℓ′
        // exactly `set`, and `dirs` the directions with a non-empty patch.
        let l = TriPoint::ORIGIN;
        for mv in Direction::ALL {
            let lp = l + mv;
            for entry in revalidation_plan(mv) {
                let q = TriPoint::new(entry.offset.0, entry.offset.1);
                let mut dirs = 0u8;
                for d in Direction::ALL {
                    let ring = PairRing::new(q, d);
                    let site = |i: usize| if i == 8 { q + d } else { ring.site(i) };
                    let bits_on = |p: TriPoint| -> u16 {
                        (0..9).filter(|&i| site(i) == p).map(|i| 1 << i).sum()
                    };
                    let (clear, set) = (bits_on(l), bits_on(lp));
                    assert_eq!(pair_mask(entry.clear, d), clear, "move {mv}, ({q}, {d})");
                    assert_eq!(pair_mask(entry.set, d), set, "move {mv}, ({q}, {d})");
                    assert!(clear.count_ones() <= 1 && set.count_ones() <= 1);
                    if clear | set != 0 {
                        dirs |= 1 << d.index();
                    }
                }
                assert_eq!(entry.dirs, dirs, "move {mv}, site {q}");
                // No bit outside the 54 packed ones.
                assert_eq!((entry.clear | entry.set) >> 54, 0);
            }
        }
    }

    /// Connected random configurations of `n` particles from an LCG seed.
    fn random_points(seed: u64, n: usize) -> Vec<TriPoint> {
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            state >> 33
        };
        let mut points = vec![TriPoint::ORIGIN];
        while points.len() < n {
            let base = points[next() as usize % points.len()];
            let p = base + Direction::ALL[next() as usize % 6];
            if !points.contains(&p) {
                points.push(p);
            }
        }
        points
    }

    #[test]
    fn window25_check_move_matches_grid_check_move() {
        use crate::ParticleSystem;

        // Random configurations: the single-gather evaluation must agree
        // with the grid-backed check_move at every particle and direction.
        for trial in 0..40 {
            let points = random_points(5 + trial, 30);
            let sys = ParticleSystem::new(points.clone()).unwrap();
            for &p in &points {
                let masks = pair_masks_in_window25(sys.window25(p));
                assert_eq!(masks >> 54, 0, "stray bits at {p}");
                for dir in Direction::ALL {
                    let v = MoveValidity::from_pair_mask(pair_mask(masks, dir));
                    assert_eq!(v, sys.check_move(p, dir), "{p} {dir}");
                    // Ring sites 0..=4 and the target are the six neighbors.
                    assert_eq!(
                        v.e_from + u8::from(v.target_occupied),
                        sys.neighbor_count(p),
                        "neighbor count at {p}"
                    );
                }
            }
        }
    }

    #[test]
    fn patched_masks_match_a_fresh_gather_after_any_move() {
        use crate::ParticleSystem;

        // Every particle and every empty target of random configurations:
        // after the move, each planned particle other than the mover holds
        // its old masks patched, and every unplanned particle its old
        // masks unchanged.
        for trial in 0..12 {
            let points = random_points(77 + trial, 25);
            let sys = ParticleSystem::new(points.clone()).unwrap();
            let before: Vec<u64> = points
                .iter()
                .map(|&p| pair_masks_in_window25(sys.window25(p)))
                .collect();
            for id in 0..points.len() {
                for dir in Direction::ALL {
                    let from = sys.position(id);
                    if sys.is_occupied(from + dir) {
                        continue;
                    }
                    let mut after = sys.clone();
                    after.move_particle(id, dir).unwrap();
                    let mut expected = before.clone();
                    expected[id] = pair_masks_in_window25(after.window25(from + dir));
                    let mut seen_mover = false;
                    after.for_each_particle_near_move(from, dir, |qid, _, entry| {
                        if qid == id {
                            seen_mover = true;
                            assert_eq!(entry.dirs, 0x3f);
                        } else {
                            expected[qid] = entry.patch(before[qid]);
                        }
                    });
                    assert!(seen_mover, "the mover is planned at ℓ′");
                    for (qid, &masks) in expected.iter().enumerate() {
                        let fresh = pair_masks_in_window25(after.window25(after.position(qid)));
                        assert_eq!(masks, fresh, "move ({id}, {dir}): particle {qid}");
                    }
                }
            }
        }
    }

    #[test]
    fn revalidation_offsets_are_tight_and_distinct() {
        for mv in Direction::ALL {
            let (dx, dy) = mv.offset();
            let offsets: Vec<(i32, i32)> = revalidation_offsets(mv).collect();
            // The union of two adjacent radius-2 discs: 19 + 19 − 14 = 24.
            assert_eq!(offsets.len(), 24, "{mv}");
            let mut sorted = offsets.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), offsets.len(), "{mv}: duplicate offsets");
            for &(ox, oy) in &offsets {
                let near_l = TriPoint::ORIGIN.distance(TriPoint::new(ox, oy)) <= 2;
                let near_lp = TriPoint::new(dx, dy).distance(TriPoint::new(ox, oy)) <= 2;
                assert!(near_l || near_lp, "{mv}: offset ({ox}, {oy}) too far");
            }
        }
    }

    #[test]
    fn structural_validity_requires_some_property() {
        let v = MoveValidity::from_mask(0b0000_0000, false);
        assert!(!v.property1 && !v.property2);
        assert!(!v.is_structurally_valid());
    }
}
