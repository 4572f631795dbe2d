//! Tile-aligned region decomposition with a 4-color checkerboard schedule.
//!
//! Intra-run sharding (the sharded local runner in `sops_core`) partitions
//! the lattice into square regions of `region_tiles × region_tiles` 8×8-site
//! [`TileGrid`](crate::TileGrid) tiles. Regions are colored by the parity of
//! their coordinates, giving four color classes with the *checkerboard
//! independence* property: two regions of the same color are never adjacent
//! (not even diagonally), so they are separated by at least one full region
//! — at least [`RegionMap::side`] ≥ 8 sites.
//!
//! One activation of the local algorithm `A` reads sites at distance ≤ 2
//! from the acting particle's tail and writes at distance ≤ 1, so regions of
//! the same color can be updated concurrently without any interleaving being
//! observable: the schedule (color 0, 1, 2, 3 per round, regions in
//! coordinate order, particles in id order) fully determines the trajectory
//! regardless of how many workers execute it.
//!
//! Everything here is pure arithmetic on coordinates — no wall clock, no
//! allocation, no iteration-order dependence — which is what makes the
//! schedule a pure function of (configuration extent, region size).

use crate::coords::TriPoint;

/// Number of colors in the checkerboard schedule.
pub const REGION_COLORS: u8 = 4;

/// A region's integer coordinates, in units of regions.
///
/// Region `(rx, ry)` covers tiles `[rx·t, (rx+1)·t) × [ry·t, (ry+1)·t)`
/// for `t =` [`RegionMap::region_tiles`]; the natural `(rx, ry)` ordering
/// (derive `Ord`) is the deterministic schedule order within a color.
pub type RegionId = (i32, i32);

/// The region decomposition: a pure mapping from lattice sites to regions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegionMap {
    /// Tiles per region side (≥ 1).
    tiles: i32,
}

impl RegionMap {
    /// A decomposition into regions of `region_tiles × region_tiles` tiles.
    /// Values below 1 are clamped to 1 (the minimum sound region size: one
    /// 8×8 tile still exceeds the algorithm's interaction radius of 2).
    #[must_use]
    pub fn new(region_tiles: u32) -> RegionMap {
        RegionMap {
            tiles: region_tiles.max(1).min(i32::MAX as u32 >> 4) as i32,
        }
    }

    /// Tiles per region side.
    #[must_use]
    pub fn region_tiles(&self) -> u32 {
        self.tiles as u32
    }

    /// Sites per region side (`8 × region_tiles`).
    #[must_use]
    pub fn side(&self) -> i32 {
        self.tiles * 8
    }

    /// The region containing site `p`. Total: every site (hence every
    /// occupied tile) belongs to exactly one region, and all 64 sites of a
    /// tile map to the same region (`x >> 3` is exactly
    /// [`TileGrid`](crate::TileGrid) tile addressing).
    #[must_use]
    pub fn region_of(&self, p: TriPoint) -> RegionId {
        (
            (p.x >> 3).div_euclid(self.tiles),
            (p.y >> 3).div_euclid(self.tiles),
        )
    }

    /// The checkerboard color of a region: `(rx mod 2) + 2·(ry mod 2)`,
    /// in `0..4`. Two distinct regions of equal color differ by ≥ 2 in a
    /// region coordinate, so they are never adjacent.
    #[must_use]
    pub fn color(region: RegionId) -> u8 {
        ((region.0 & 1) | ((region.1 & 1) << 1)) as u8
    }

    /// Whether two distinct regions touch (Chebyshev distance 1; diagonal
    /// contact counts).
    #[must_use]
    pub fn are_adjacent(a: RegionId, b: RegionId) -> bool {
        a != b && (a.0 - b.0).abs() <= 1 && (a.1 - b.1).abs() <= 1
    }

    /// The eight surrounding regions of `region`, in deterministic
    /// (row-major) order.
    #[must_use]
    pub fn neighbors8(region: RegionId) -> [RegionId; 8] {
        let (rx, ry) = region;
        [
            (rx - 1, ry - 1),
            (rx, ry - 1),
            (rx + 1, ry - 1),
            (rx - 1, ry),
            (rx + 1, ry),
            (rx - 1, ry + 1),
            (rx, ry + 1),
            (rx + 1, ry + 1),
        ]
    }

    /// The lowest-coordinate site of `region`.
    #[must_use]
    pub fn origin(&self, region: RegionId) -> TriPoint {
        TriPoint::new(region.0 * self.side(), region.1 * self.side())
    }

    /// Whether `p` — which need not lie inside `region` — belongs to the
    /// rim another region may need to observe: outside `region` entirely
    /// (an overhang site owned by it), or within `margin` sites of its
    /// boundary. The sharded runner exports rims at margin 2, the local
    /// algorithm's read radius.
    #[must_use]
    pub fn is_rim_site(&self, region: RegionId, p: TriPoint, margin: i32) -> bool {
        let o = self.origin(region);
        let (lx, ly) = (p.x - o.x, p.y - o.y);
        let side = self.side();
        if lx < 0 || ly < 0 || lx >= side || ly >= side {
            return true; // overhang: outside the region footprint
        }
        lx < margin || ly < margin || lx >= side - margin || ly >= side - margin
    }

    /// [`RegionMap::is_rim_site`] for all 64 sites of tile `(tx, ty)` at
    /// once, as a mask in [`TileGrid`](crate::TileGrid)'s tile layout (bit
    /// `((y & 7) << 3) | (x & 7)`): a site is a rim site iff its column or
    /// its row lies in the band, so the mask is the union of a column mask
    /// and a row mask.
    #[must_use]
    pub fn rim_tile_mask(&self, region: RegionId, tx: i32, ty: i32, margin: i32) -> u64 {
        let o = self.origin(region);
        let side = self.side();
        // Offsets below 0 or at/after `side` lie outside the footprint.
        let in_band = |l: i32| l < margin || l >= side - margin;
        let mut mask = 0u64;
        for k in 0..8 {
            if in_band(tx * 8 + k - o.x) {
                mask |= 0x0101_0101_0101_0101 << k;
            }
            if in_band(ty * 8 + k - o.y) {
                mask |= 0xFF << (8 * k);
            }
        }
        mask
    }

    /// The sites of tile `(tx, ty)` that lie in `region`'s footprint grown
    /// by `margin` sites on every side, as a mask in
    /// [`TileGrid`](crate::TileGrid)'s tile layout. At margin 2, the local
    /// algorithm's read radius, these are all the sites an activation of a
    /// particle with its tail in `region` can read.
    #[must_use]
    pub fn halo_tile_mask(&self, region: RegionId, tx: i32, ty: i32, margin: i32) -> u64 {
        let o = self.origin(region);
        let span = (self.side() + 2 * margin) as u32;
        let in_span = |l: i32| ((l + margin) as u32) < span;
        let (mut cols, mut rows) = (0u64, 0u64);
        for k in 0..8 {
            if in_span(tx * 8 + k - o.x) {
                cols |= 0x0101_0101_0101_0101 << k;
            }
            if in_span(ty * 8 + k - o.y) {
                rows |= 0xFF << (8 * k);
            }
        }
        cols & rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiles_map_whole_into_regions() {
        let map = RegionMap::new(2);
        assert_eq!(map.side(), 16);
        // All sites of one tile land in one region, negative coords included.
        for (x, y) in [(0, 0), (-1, -1), (15, 15), (-16, 31), (7, -8)] {
            let p = TriPoint::new(x, y);
            let r = map.region_of(p);
            let o = map.origin(r);
            assert!(p.x >= o.x && p.x < o.x + 16, "{p} not in x-range of {r:?}");
            assert!(p.y >= o.y && p.y < o.y + 16, "{p} not in y-range of {r:?}");
        }
    }

    #[test]
    fn same_color_regions_are_never_adjacent() {
        for a in -3..=3 {
            for b in -3..=3 {
                for c in -3..=3 {
                    for d in -3..=3 {
                        let (r, s) = ((a, b), (c, d));
                        if r != s && RegionMap::color(r) == RegionMap::color(s) {
                            assert!(!RegionMap::are_adjacent(r, s), "{r:?} {s:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn zero_region_tiles_clamps_to_one() {
        assert_eq!(RegionMap::new(0).side(), 8);
    }

    #[test]
    fn rim_membership() {
        let map = RegionMap::new(1);
        let r = (0, 0);
        assert!(map.is_rim_site(r, TriPoint::new(0, 4), 2)); // west edge
        assert!(map.is_rim_site(r, TriPoint::new(4, 7), 2)); // north edge
        assert!(!map.is_rim_site(r, TriPoint::new(4, 4), 2)); // interior
        assert!(map.is_rim_site(r, TriPoint::new(8, 4), 2)); // overhang
        assert!(map.is_rim_site(r, TriPoint::new(-1, -1), 2)); // overhang
    }

    #[test]
    fn tile_masks_of_a_one_tile_region() {
        let map = RegionMap::new(1);
        let r = (0, 0);
        // Rim: all but the 4×4 core of the region's tile; overhang tiles
        // are rim throughout.
        assert_eq!(map.rim_tile_mask(r, 0, 0, 2), !0x0000_3C3C_3C3C_0000);
        assert_eq!(map.rim_tile_mask(r, 1, 0, 2), u64::MAX);
        // Halo band (the footprint grown by 2): the tile itself, the two
        // nearest columns or rows of its neighbors, nothing farther out.
        assert_eq!(map.halo_tile_mask(r, 0, 0, 2), u64::MAX);
        assert_eq!(map.halo_tile_mask(r, 1, 0, 2), 0x0303_0303_0303_0303);
        assert_eq!(map.halo_tile_mask(r, 2, 0, 2), 0);
        assert_eq!(map.halo_tile_mask(r, -1, -1, 2), 0xC0C0_0000_0000_0000);
    }
}
