//! Property-based tests for the lattice algebra.

use proptest::prelude::*;
use sops_lattice::{BoundingBox, Direction, PairRing, TileGrid, TriPoint};

fn arb_point() -> impl Strategy<Value = TriPoint> {
    (-1000i32..1000, -1000i32..1000).prop_map(|(x, y)| TriPoint::new(x, y))
}

fn arb_direction() -> impl Strategy<Value = Direction> {
    (0usize..6).prop_map(Direction::from_index)
}

proptest! {
    #[test]
    fn rotations_compose(d in arb_direction(), j in -12i32..12, k in -12i32..12) {
        prop_assert_eq!(d.rot60(j).rot60(k), d.rot60(j + k));
    }

    #[test]
    fn opposite_is_involution(d in arb_direction()) {
        prop_assert_eq!(d.opposite().opposite(), d);
    }

    #[test]
    fn neighbor_of_neighbor_in_opposite_direction_is_identity(p in arb_point(), d in arb_direction()) {
        prop_assert_eq!((p + d) + d.opposite(), p);
    }

    #[test]
    fn distance_is_a_metric(a in arb_point(), b in arb_point(), c in arb_point()) {
        prop_assert_eq!(a.distance(b), b.distance(a));
        prop_assert_eq!(a.distance(a), 0);
        prop_assert!(a.distance(c) <= a.distance(b) + b.distance(c));
        if a != b {
            prop_assert!(a.distance(b) > 0);
        }
    }

    #[test]
    fn distance_is_translation_invariant(a in arb_point(), b in arb_point(), dx in -500i32..500, dy in -500i32..500) {
        prop_assert_eq!(
            a.distance(b),
            a.translated(dx, dy).distance(b.translated(dx, dy))
        );
    }

    #[test]
    fn rotation_about_origin_preserves_adjacency(p in arb_point(), d in arb_direction(), k in 0i32..6) {
        let q = p + d;
        prop_assert!(p.rotated60(k).is_adjacent(q.rotated60(k)));
    }

    #[test]
    fn cartesian_distance_lower_bounds_graph_distance(a in arb_point(), b in arb_point()) {
        let (ax, ay) = a.to_cartesian();
        let (bx, by) = b.to_cartesian();
        let euclid = ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt();
        // Each lattice step moves Euclidean distance exactly 1.
        prop_assert!(euclid <= a.distance(b) as f64 + 1e-6);
    }

    #[test]
    fn pair_ring_masks_agree_with_membership(p in arb_point(), d in arb_direction(), bits in 0u8..=255) {
        let ring = PairRing::new(p, d);
        let occupied: Vec<TriPoint> = (0..8)
            .filter(|i| bits & (1 << i) != 0)
            .map(|i| ring.site(i))
            .collect();
        let mask = ring.occupancy_mask(|s| occupied.contains(&s));
        prop_assert_eq!(mask, bits);
    }

    #[test]
    fn bbox_contains_all_inputs(pts in proptest::collection::vec(arb_point(), 1..40)) {
        let bbox = BoundingBox::of(pts.iter().copied()).unwrap();
        for p in &pts {
            prop_assert!(bbox.contains(*p));
        }
        // And the expanded box strictly contains the frame of the original.
        let grown = bbox.expanded(1);
        prop_assert!(grown.area() > bbox.area());
    }

    #[test]
    fn direction_to_is_antisymmetric(p in arb_point(), d in arb_direction()) {
        let q = p + d;
        prop_assert_eq!(p.direction_to(q), Some(d));
        prop_assert_eq!(q.direction_to(p), Some(d.opposite()));
    }
}

proptest! {
    // Each case queries every site of an 86×86 box: fewer, heavier cases.
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Table capacity is an allocation detail: one sequence of site
    /// inserts, whole-tile inserts and removes on a minimal grid (which
    /// rehashes as it grows) and on a grid preallocated for a long line
    /// leaves two grids that answer every query identically.
    #[test]
    fn tile_grid_capacity_is_never_observable(
        ops in proptest::collection::vec((-40i32..40, -40i32..40, 0u8..6), 1..400),
        big in 1_000usize..40_000,
    ) {
        let mut small = TileGrid::new();
        let mut large = TileGrid::with_site_capacity(big);
        for (i, &(x, y, op)) in ops.iter().enumerate() {
            let p = TriPoint::new(x, y);
            if op == 0 {
                prop_assert_eq!(small.remove(p), large.remove(p));
            } else if op == 1 {
                // A word of pseudo-random sites in p's tile.
                let bits = (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let payload = [i as u32; 64];
                small.insert_tile(x >> 3, y >> 3, bits, &payload);
                large.insert_tile(x >> 3, y >> 3, bits, &payload);
            } else {
                prop_assert_eq!(small.insert(p, i as u32), large.insert(p, i as u32));
            }
        }
        small.assert_valid();
        large.assert_valid();
        prop_assert_eq!(small.len(), large.len());
        for x in -43..43 {
            for y in -43..43 {
                let p = TriPoint::new(x, y);
                prop_assert_eq!(small.get(p), large.get(p));
                prop_assert_eq!(small.contains(p), large.contains(p));
                prop_assert_eq!(small.window25(x, y), large.window25(x, y));
                prop_assert_eq!(small.neighbor_count(p), large.neighbor_count(p));
                for d in Direction::ALL {
                    prop_assert_eq!(small.pair_ring_mask(p, d), large.pair_ring_mask(p, d));
                }
            }
        }
        let (mut sorted_small, mut sorted_large) = (Vec::new(), Vec::new());
        let mut scratch = Vec::new();
        small.for_each_site_sorted(&mut scratch, |p| sorted_small.push(p));
        large.for_each_site_sorted(&mut scratch, |p| sorted_large.push(p));
        prop_assert_eq!(&sorted_small, &sorted_large);
        // The unsorted tile walk yields the same (site, payload) set.
        let sorted: Vec<(TriPoint, u32)> = sorted_small
            .iter()
            .map(|&p| (p, small.get(p).expect("walked site is occupied")))
            .collect();
        for grid in [&small, &large] {
            let mut walked = Vec::new();
            grid.for_each_tile(|tx, ty, bits, payload| {
                for bit in (0..64).filter(|b| bits >> b & 1 != 0) {
                    let p = TriPoint::new(tx * 8 + (bit & 7), ty * 8 + (bit >> 3));
                    walked.push((p, payload[bit as usize]));
                }
            });
            walked.sort_unstable();
            prop_assert_eq!(&walked, &sorted);
        }
    }
}
