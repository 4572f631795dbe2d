//! Property tests for the tile-aligned region decomposition backing
//! intra-run sharding: partition totality, checkerboard independence, and
//! schedule purity. The unit tests in `region.rs` spot-check these on small
//! grids; here the vendored proptest shim sweeps arbitrary coordinates and
//! region sizes, negative quadrants included.

use proptest::prelude::*;
use sops_lattice::{RegionMap, TriPoint, REGION_COLORS};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every site — hence every occupied tile — lies in exactly one
    /// region: `region_of` is total, and the region it names is the unique
    /// one whose footprint contains the site.
    #[test]
    fn every_site_lies_in_exactly_one_region(
        x in -100_000i32..100_000,
        y in -100_000i32..100_000,
        tiles in 1u32..9,
    ) {
        let map = RegionMap::new(tiles);
        let p = TriPoint::new(x, y);
        let r = map.region_of(p);
        let o = map.origin(r);
        let side = map.side();
        prop_assert!(p.x >= o.x && p.x < o.x + side, "{p} outside {r:?}");
        prop_assert!(p.y >= o.y && p.y < o.y + side, "{p} outside {r:?}");
        // Uniqueness: no neighboring footprint also contains the site.
        for other in RegionMap::neighbors8(r) {
            let oo = map.origin(other);
            let contains = p.x >= oo.x && p.x < oo.x + side && p.y >= oo.y && p.y < oo.y + side;
            prop_assert!(!contains, "{p} also inside {other:?}");
        }
    }

    /// All 64 sites of an 8×8 tile land in the same region — regions are
    /// tile-aligned, so tile ownership never straddles a region boundary.
    #[test]
    fn tiles_never_straddle_regions(
        tx in -1_000i32..1_000,
        ty in -1_000i32..1_000,
        tiles in 1u32..9,
    ) {
        let map = RegionMap::new(tiles);
        let base = map.region_of(TriPoint::new(tx * 8, ty * 8));
        for dx in 0..8 {
            for dy in 0..8 {
                let p = TriPoint::new(tx * 8 + dx, ty * 8 + dy);
                prop_assert_eq!(map.region_of(p), base, "{} left its tile's region", p);
            }
        }
    }

    /// Checkerboard independence: two distinct regions of the same color
    /// are never adjacent, not even diagonally — the property that lets a
    /// whole color class update concurrently.
    #[test]
    fn same_color_regions_are_never_adjacent(
        ax in -10_000i32..10_000,
        ay in -10_000i32..10_000,
        bx in -10_000i32..10_000,
        by in -10_000i32..10_000,
    ) {
        let (a, b) = ((ax, ay), (bx, by));
        prop_assert!(RegionMap::color(a) < REGION_COLORS);
        if a != b && RegionMap::color(a) == RegionMap::color(b) {
            prop_assert!(!RegionMap::are_adjacent(a, b), "{a:?} touches {b:?}");
        }
        // Adjacency is symmetric and matches the 8-neighborhood exactly.
        prop_assert_eq!(RegionMap::are_adjacent(a, b), RegionMap::are_adjacent(b, a));
        prop_assert_eq!(
            RegionMap::are_adjacent(a, b),
            RegionMap::neighbors8(a).contains(&b)
        );
    }

    /// Schedule purity: the decomposition is a pure function of the
    /// configuration extent and the region size. Two maps built with the
    /// same `region_tiles` agree on every site, and the schedule key
    /// (region, color) never depends on *which* map instance computed it.
    #[test]
    fn decomposition_is_a_pure_function_of_extent_and_region_size(
        x in -100_000i32..100_000,
        y in -100_000i32..100_000,
        tiles in 1u32..9,
    ) {
        let p = TriPoint::new(x, y);
        let a = RegionMap::new(tiles);
        let b = RegionMap::new(tiles);
        prop_assert_eq!(a, b);
        prop_assert_eq!(a.region_of(p), b.region_of(p));
        prop_assert_eq!(
            RegionMap::color(a.region_of(p)),
            RegionMap::color(b.region_of(p))
        );
        // Translating a site by one full region side moves it exactly one
        // region over — the decomposition has no privileged origin.
        let q = TriPoint::new(x + a.side(), y);
        let (rx, ry) = a.region_of(p);
        prop_assert_eq!(a.region_of(q), (rx + 1, ry));
    }

    /// The rim at margin 2 (the algorithm's read radius) is sound: any two
    /// sites in *different* regions within interaction distance of each
    /// other are both rim sites of their own region — so exporting rims is
    /// enough for neighbors to observe everything they may read.
    #[test]
    fn interaction_range_sites_across_a_boundary_are_rim_sites(
        x in -10_000i32..10_000,
        y in -10_000i32..10_000,
        dx in -2i32..=2,
        dy in -2i32..=2,
        tiles in 1u32..5,
    ) {
        let map = RegionMap::new(tiles);
        let p = TriPoint::new(x, y);
        let q = TriPoint::new(x + dx, y + dy);
        if map.region_of(p) != map.region_of(q) {
            prop_assert!(map.is_rim_site(map.region_of(q), p, 2));
            prop_assert!(map.is_rim_site(map.region_of(p), q, 2));
        }
    }

    /// The word-level rim mask of a tile agrees with the per-site rim test
    /// on every one of its 64 sites, inside the region, on its border, and
    /// in the overhang tiles around it.
    #[test]
    fn rim_tile_mask_matches_is_rim_site(
        rx in -1_000i32..1_000,
        ry in -1_000i32..1_000,
        dtx in -1i32..9,
        dty in -1i32..9,
        tiles in 1u32..8,
        margin in 1i32..4,
    ) {
        let map = RegionMap::new(tiles);
        let region = (rx, ry);
        let t = tiles as i32;
        let (tx, ty) = (rx * t + dtx.min(t), ry * t + dty.min(t));
        let mask = map.rim_tile_mask(region, tx, ty, margin);
        for bit in 0..64 {
            let p = TriPoint::new(tx * 8 + (bit & 7), ty * 8 + (bit >> 3));
            prop_assert_eq!(mask >> bit & 1 != 0, map.is_rim_site(region, p, margin), "{}", p);
        }
    }

    /// The halo mask is exactly the footprint grown by the margin: a site
    /// has its bit set iff it is at most `margin` sites beyond the
    /// footprint's extent on each axis.
    #[test]
    fn halo_tile_mask_is_the_footprint_grown_by_the_margin(
        rx in -1_000i32..1_000,
        ry in -1_000i32..1_000,
        dtx in -2i32..10,
        dty in -2i32..10,
        tiles in 1u32..8,
        margin in 1i32..4,
    ) {
        let map = RegionMap::new(tiles);
        let region = (rx, ry);
        let t = tiles as i32;
        let (tx, ty) = (rx * t + dtx.min(t + 1), ry * t + dty.min(t + 1));
        let mask = map.halo_tile_mask(region, tx, ty, margin);
        let o = map.origin(region);
        let side = map.side();
        for bit in 0..64 {
            let p = TriPoint::new(tx * 8 + (bit & 7), ty * 8 + (bit >> 3));
            // Per-axis distance from the footprint's extent.
            let gap = |v: i32, lo: i32| (lo - v).max(v - (lo + side - 1)).max(0);
            let near = gap(p.x, o.x) <= margin && gap(p.y, o.y) <= margin;
            prop_assert_eq!(mask >> bit & 1 != 0, near, "{}", p);
        }
    }

    /// Soundness of the halo at margin 2: every site within interaction
    /// distance of a site in the region is in the region's halo mask.
    #[test]
    fn reads_from_inside_a_region_stay_in_its_halo(
        x in -10_000i32..10_000,
        y in -10_000i32..10_000,
        dx in -2i32..=2,
        dy in -2i32..=2,
        tiles in 1u32..5,
    ) {
        let map = RegionMap::new(tiles);
        let p = TriPoint::new(x, y);
        let q = TriPoint::new(x + dx, y + dy);
        let mask = map.halo_tile_mask(map.region_of(p), q.x >> 3, q.y >> 3, 2);
        prop_assert!(mask >> (((q.y & 7) << 3) | (q.x & 7)) & 1 != 0, "{} from {}", q, p);
    }
}
