//! Bit-packed tiled occupancy grid: the hot-path substrate of the chain.
//!
//! Algorithm `M` probes the same bounded neighborhood shape millions of
//! times per run: one target site plus the 8-site [`crate::PairRing`]. With
//! a hash map every probe pays a full hash-and-probe round trip; this module
//! instead packs occupancy into **8×8-site tiles of one `u64` each**, so an
//! entire neighborhood is covered by at most four words fetched once.
//!
//! # Tile encoding
//!
//! The lattice is partitioned into aligned 8×8 blocks of axial coordinates.
//! A site `(x, y)` lives in tile `(x >> 3, y >> 3)` (arithmetic shift, so
//! negative coordinates tile correctly) at bit `((y & 7) << 3) | (x & 7)` —
//! row-major inside the tile, the x-run of a row occupying one byte. A tile
//! is one `u64` occupancy word plus 64 `u32` payload slots (particle ids;
//! only slots whose occupancy bit is set are meaningful).
//!
//! Tiles live in an open-addressed, power-of-two table with Fibonacci
//! hashing and linear probing. Tile keys pack the two tile coordinates into
//! a `u64`; because tile coordinates fit in 29 bits (site coordinates are
//! `i32`), the bit pattern [`EMPTY_KEY`] can never collide with a real key
//! and marks never-used slots. Cleared tiles (occupancy word zero) stay in
//! the table to keep probe chains intact and are dropped on the next rehash.
//!
//! # Direct-mapped tile cache
//!
//! A 64-entry direct-mapped cache, indexed by the three low bits of each
//! tile coordinate, remembers the key, occupancy word and table slot of
//! recently probed tiles (including *negative* entries for absent tiles).
//! Tiles within an 8×8-tile neighborhood never collide in the cache, so
//! consecutive probes of the same neighborhood — the target check, the
//! `check_move` ring mask, and the `move_particle` after an accepted move —
//! hit no hash at all: a cache probe is one key compare and the occupancy
//! word comes straight from the entry. Every mutation keeps the cached word
//! coherent. The cache uses [`Cell`]s so read paths (`&self`) can populate
//! it; the grid is consequently `Send` but not `Sync`, which matches how
//! the simulators use it (one owner per worker thread).
//!
//! When a configuration spans more tiles than the cache holds, window
//! gathers bypass it and probe the table directly: at mixed hit rates the
//! per-tile hit check becomes a hard-to-predict branch, while the gather's
//! up-to-four direct probes are independent and pipeline. The low (≤ 1/2)
//! table load factor keeps the *miss* probes short too — windows beside a
//! configuration constantly touch the absent tiles flanking it.

use core::cell::Cell;

use crate::{BoundingBox, Direction, TriPoint};

/// Slots in the direct-mapped tile cache (8×8 tile neighborhoods map 1:1,
/// which covers the whole working set of a compressed 4000-particle blob).
const TILE_CACHE: usize = 64;

/// Sentinel for never-used table slots. Tile coordinates are `i32 >> 3`, so
/// each packed half lies in `[0, 2^28) ∪ [2^32 − 2^28, 2^32)`; `2^30` can
/// never appear in either half.
const EMPTY_KEY: u64 = 0x4000_0000_4000_0000;

/// Cache slot value marking a *negative* entry (tile known absent).
const ABSENT: u32 = u32::MAX;

/// Fibonacci-hashing constant `2^64 / φ`.
const FIB: u64 = 0x9e37_79b9_7f4a_7c15;

#[inline]
const fn tile_of(p: TriPoint) -> (i32, i32) {
    (p.x >> 3, p.y >> 3)
}

#[inline]
const fn key_of(tx: i32, ty: i32) -> u64 {
    ((tx as u32 as u64) << 32) | (ty as u32 as u64)
}

#[inline]
const fn bit_of(p: TriPoint) -> u32 {
    (((p.y & 7) << 3) | (p.x & 7)) as u32
}

#[inline]
const fn cache_index(tx: i32, ty: i32) -> usize {
    ((tx & 7) | ((ty & 7) << 3)) as usize
}

/// A sparse site → `u32` map over the triangular lattice, bit-packed into
/// 8×8-site `u64` tiles (see the module docs in `grid.rs` for the encoding).
///
/// This is the occupancy substrate behind `sops_system::ParticleSystem` and
/// the local-algorithm simulator: `contains`/`get`/`insert`/`remove` are
/// hash-map-shaped, while [`TileGrid::neighbor_count`] and
/// [`TileGrid::pair_ring_mask`] answer whole-neighborhood queries from at
/// most four tile words fetched once.
///
/// # Example
///
/// ```
/// use sops_lattice::{Direction, TileGrid, TriPoint};
///
/// let mut grid = TileGrid::new();
/// grid.insert(TriPoint::new(0, 0), 0);
/// grid.insert(TriPoint::new(1, 0), 1);
/// assert_eq!(grid.get(TriPoint::new(1, 0)), Some(1));
/// assert_eq!(grid.neighbor_count(TriPoint::new(0, 0)), 1);
/// let (mask, target_occupied) = grid.pair_ring_mask(TriPoint::new(1, 0), Direction::E);
/// assert_eq!(mask, 0b0000_0100); // ring site 2 (west of the pair) is (0, 0)
/// assert!(!target_occupied);
/// ```
#[derive(Clone, Debug)]
pub struct TileGrid {
    /// The open-addressed tile table; key and occupancy word share a cache
    /// line so a probe touches one line.
    tiles: Vec<Tile>,
    /// 64 payload values per table slot (`payload[slot * 64 + bit]`).
    payload: Vec<u32>,
    /// Table capacity − 1 (capacity is a power of two).
    mask: usize,
    /// `64 − log2(capacity)`: the Fibonacci-hash shift, precomputed so the
    /// probe's critical path starts at the multiply.
    shift: u32,
    /// Claimed slots, including cleared tiles awaiting a rehash.
    used: usize,
    /// Occupied sites.
    len: usize,
    /// Direct-mapped cache over (key, occupancy word, slot): a hit answers
    /// word-level queries with zero table loads. Kept coherent by every
    /// mutation; `Cell` lets `&self` readers populate it.
    cache: [Cell<CacheEntry>; TILE_CACHE],
}

/// One slot of the tile table.
#[derive(Clone, Copy, Debug)]
struct Tile {
    key: u64,
    bits: u64,
}

const EMPTY_TILE: Tile = Tile {
    key: EMPTY_KEY,
    bits: 0,
};

/// One entry of the direct-mapped tile cache. `slot == ABSENT` marks a
/// negative entry (tile known absent; `bits` is zero).
#[derive(Clone, Copy, Debug)]
struct CacheEntry {
    key: u64,
    bits: u64,
    slot: u32,
}

const EMPTY_CACHE: CacheEntry = CacheEntry {
    key: EMPTY_KEY,
    bits: 0,
    slot: ABSENT,
};

impl Default for TileGrid {
    fn default() -> TileGrid {
        TileGrid::new()
    }
}

impl TileGrid {
    /// Creates an empty grid with minimal capacity. It grows as tiles are
    /// claimed: crossing 1/2 load rehashes to ≤ 1/4 load of the live tiles,
    /// so a grid filled from here ends sized to what it holds.
    #[must_use]
    pub fn new() -> TileGrid {
        TileGrid::with_tile_capacity(16)
    }

    /// Creates an empty grid whose table holds `sites / 2` tiles (at least
    /// 16, rounded up to a power of two).
    ///
    /// The rule is sized for a straight line: `sites` sites in a row touch
    /// `sites / 8` tiles, so the table starts at 1/4 load and the line can
    /// spread into one more tile row beside it before the 1/2 load ceiling
    /// forces a rehash. A compact configuration of `sites` sites occupies
    /// only about `sites / 64` tiles, tens of times fewer than this table
    /// holds, so compact starts should grow from [`TileGrid::new`] instead.
    /// Capacity never changes a query's answer, only memory and speed.
    #[must_use]
    pub fn with_site_capacity(sites: usize) -> TileGrid {
        TileGrid::with_tile_capacity((sites / 2).max(16))
    }

    fn with_tile_capacity(tiles: usize) -> TileGrid {
        let cap = tiles.next_power_of_two();
        TileGrid {
            tiles: vec![EMPTY_TILE; cap],
            payload: vec![0; cap * 64],
            mask: cap - 1,
            shift: 64 - cap.trailing_zeros(),
            used: 0,
            len: 0,
            cache: [const { Cell::new(EMPTY_CACHE) }; TILE_CACHE],
        }
    }

    /// Number of occupied sites.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no site is occupied.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every site, keeping the allocated table.
    pub fn clear(&mut self) {
        self.tiles.fill(EMPTY_TILE);
        self.used = 0;
        self.len = 0;
        self.wipe_cache();
    }

    fn wipe_cache(&self) {
        for entry in &self.cache {
            entry.set(EMPTY_CACHE);
        }
    }

    /// Probes the table for `key`; returns `Ok(slot)` when present and
    /// `Err(vacant_slot)` when absent.
    #[inline]
    fn probe(&self, key: u64) -> Result<usize, usize> {
        let mut i = (key.wrapping_mul(FIB) >> self.shift) as usize;
        loop {
            let k = self.tiles[i].key;
            if k == key {
                return Ok(i);
            }
            if k == EMPTY_KEY {
                return Err(i);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// The cache entry for tile `(tx, ty)`, probing the table (and caching
    /// the outcome, including negative entries) on a cache miss.
    #[inline]
    fn tile_entry(&self, tx: i32, ty: i32) -> CacheEntry {
        let key = key_of(tx, ty);
        let ci = cache_index(tx, ty);
        let entry = self.cache[ci].get();
        if entry.key == key {
            return entry;
        }
        let entry = match self.probe(key) {
            Ok(slot) => CacheEntry {
                key,
                bits: self.tiles[slot].bits,
                slot: slot as u32,
            },
            Err(_) => CacheEntry {
                key,
                bits: 0,
                slot: ABSENT,
            },
        };
        self.cache[ci].set(entry);
        entry
    }

    /// Re-caches tile `(tx, ty)` after a mutation of table slot `slot`.
    #[inline]
    fn refresh_cache(&self, tx: i32, ty: i32, slot: usize) {
        self.cache[cache_index(tx, ty)].set(CacheEntry {
            key: key_of(tx, ty),
            bits: self.tiles[slot].bits,
            slot: slot as u32,
        });
    }

    /// The table slot of tile `(tx, ty)`; `None` when the tile is absent.
    #[inline]
    fn tile_slot(&self, tx: i32, ty: i32) -> Option<usize> {
        let entry = self.tile_entry(tx, ty);
        if entry.slot == ABSENT {
            None
        } else {
            Some(entry.slot as usize)
        }
    }

    /// The occupancy word of tile `(tx, ty)` (zero when absent).
    ///
    /// When the whole claimed tile set fits the direct-mapped cache, cache
    /// hits are near-certain and the hit check predicts perfectly — go
    /// through it. Otherwise probe the table directly: the window's up to
    /// four probes are independent and pipeline, whereas a mixed-hit-rate
    /// cache check costs a hard-to-predict branch per tile. The predicate
    /// is a per-grid property, so this branch itself predicts well.
    #[inline]
    fn tile_word(&self, tx: i32, ty: i32) -> u64 {
        if self.used <= TILE_CACHE {
            return self.tile_entry(tx, ty).bits;
        }
        match self.probe(key_of(tx, ty)) {
            Ok(slot) => self.tiles[slot].bits,
            Err(_) => 0,
        }
    }

    /// `true` if `p` is occupied.
    #[inline]
    #[must_use]
    pub fn contains(&self, p: TriPoint) -> bool {
        let (tx, ty) = tile_of(p);
        self.tile_word(tx, ty) >> bit_of(p) & 1 != 0
    }

    /// The payload at `p`, if occupied.
    #[inline]
    #[must_use]
    pub fn get(&self, p: TriPoint) -> Option<u32> {
        let (tx, ty) = tile_of(p);
        let entry = self.tile_entry(tx, ty);
        let bit = bit_of(p);
        if entry.bits >> bit & 1 != 0 {
            Some(self.payload[entry.slot as usize * 64 + bit as usize])
        } else {
            None
        }
    }

    /// Occupies `p` with payload `value`; returns the previous payload if
    /// `p` was already occupied (leaving the new payload in place).
    pub fn insert(&mut self, p: TriPoint, value: u32) -> Option<u32> {
        let (tx, ty) = tile_of(p);
        let slot = self.claim(key_of(tx, ty));
        let bit = bit_of(p);
        let prev = if self.tiles[slot].bits >> bit & 1 != 0 {
            Some(self.payload[slot * 64 + bit as usize])
        } else {
            self.tiles[slot].bits |= 1 << bit;
            self.len += 1;
            None
        };
        self.payload[slot * 64 + bit as usize] = value;
        // Keep the word cached for this tile coherent (it may also hold a
        // stale negative entry from before the tile existed).
        self.refresh_cache(tx, ty, slot);
        prev
    }

    /// Occupies every site of tile `(tx, ty)` whose bit is set in `bits`,
    /// site `bit` taking payload `payload[bit]` (bit layout as in the
    /// module docs): [`TileGrid::insert`] for a whole word at once.
    /// Already-occupied sites take the new payload.
    pub fn insert_tile(&mut self, tx: i32, ty: i32, bits: u64, payload: &[u32; 64]) {
        let slot = self.claim(key_of(tx, ty));
        self.len += (bits & !self.tiles[slot].bits).count_ones() as usize;
        self.tiles[slot].bits |= bits;
        let mut rest = bits;
        while rest != 0 {
            let bit = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            self.payload[slot * 64 + bit] = payload[bit];
        }
        self.refresh_cache(tx, ty, slot);
    }

    /// The table slot of tile `key`, claiming a fresh one when the tile is
    /// absent.
    #[inline]
    fn claim(&mut self, key: u64) -> usize {
        match self.probe(key) {
            Ok(slot) => slot,
            Err(mut vacant) => {
                // Grow first when the table would exceed 1/2 load. The low
                // ceiling keeps *miss* probes short — window gathers beside
                // a configuration constantly probe the absent tiles flanking
                // it, and at high load a miss walks the whole collision run
                // before finding an empty key.
                if (self.used + 1) * 2 > self.mask + 1 {
                    self.rehash();
                    vacant = self
                        .probe(key)
                        .expect_err("tile cannot appear during rehash");
                }
                self.tiles[vacant].key = key;
                self.tiles[vacant].bits = 0;
                self.used += 1;
                vacant
            }
        }
    }

    /// Vacates `p`, returning its payload if it was occupied. The tile is
    /// kept (probe chains stay intact) until the next rehash drops it.
    pub fn remove(&mut self, p: TriPoint) -> Option<u32> {
        let (tx, ty) = tile_of(p);
        let slot = self.tile_slot(tx, ty)?;
        let bit = bit_of(p);
        if self.tiles[slot].bits >> bit & 1 == 0 {
            return None;
        }
        self.tiles[slot].bits &= !(1u64 << bit);
        self.len -= 1;
        self.refresh_cache(tx, ty, slot);
        Some(self.payload[slot * 64 + bit as usize])
    }

    /// Rebuilds the table at a capacity fitting the *live* tiles (occupancy
    /// word non-zero), dropping cleared tiles accumulated by `remove`.
    fn rehash(&mut self) {
        let live: Vec<(Tile, usize)> = self
            .tiles
            .iter()
            .enumerate()
            .filter(|&(_, t)| t.key != EMPTY_KEY && t.bits != 0)
            .map(|(slot, &t)| (t, slot))
            .collect();
        // Size to ≤ 1/4 load so the next growth is a doubling away, not an
        // immediate re-trigger of the 1/2 ceiling.
        let cap = (live.len() * 4).max(16).next_power_of_two();
        let mut next = TileGrid::with_tile_capacity(cap);
        for (tile, slot) in live {
            let vacant = next
                .probe(tile.key)
                .expect_err("fresh table cannot contain the key");
            next.tiles[vacant] = tile;
            next.used += 1;
            next.payload[vacant * 64..vacant * 64 + 64]
                .copy_from_slice(&self.payload[slot * 64..slot * 64 + 64]);
        }
        next.len = self.len;
        *self = next;
    }

    /// Gathers the 4×4 site window `[x0, x0+3] × [y0, y0+3]` into one
    /// `u16` bitboard (bit `(y − y0) · 4 + (x − x0)`), from at most four
    /// tile words: one byte-extract per row, one shift per column group.
    #[inline]
    fn window16(&self, x0: i32, y0: i32) -> u16 {
        let tx0 = x0 >> 3;
        let lx = (x0 & 7) as u32;
        let ty0 = y0 >> 3;
        let ty1 = (y0 + 3) >> 3;
        // Columns cross a tile boundary iff the low nibble starts past 4.
        let spans_x = lx > 4;
        let top_l = self.tile_word(tx0, ty0);
        let top_r = if spans_x {
            self.tile_word(tx0 + 1, ty0)
        } else {
            0
        };
        let (bot_l, bot_r) = if ty1 != ty0 {
            let l = self.tile_word(tx0, ty1);
            let r = if spans_x {
                self.tile_word(tx0 + 1, ty1)
            } else {
                0
            };
            (l, r)
        } else {
            (top_l, top_r)
        };
        let mut w = 0u16;
        for r in 0..4 {
            let y = y0 + r;
            let ly = ((y & 7) << 3) as u32;
            let (lw, rw) = if y >> 3 == ty0 {
                (top_l, top_r)
            } else {
                (bot_l, bot_r)
            };
            let row16 = ((lw >> ly) & 0xFF) as u32 | ((((rw >> ly) & 0xFF) as u32) << 8);
            w |= (((row16 >> lx) & 0xF) as u16) << (r * 4);
        }
        w
    }

    /// Gathers the 5×5 site window `[x0, x0+4] × [y0, y0+4]` into one
    /// `u32` bitboard (bit `(y − y0) · 5 + (x − x0)`), from at most four
    /// tile words.
    ///
    /// A 5×5 window centered on a site covers its whole radius-2 disc, and
    /// with it the [`crate::PairRing`] of every one of its six moves — one
    /// gather answers all six ring masks plus the neighbor count, which is
    /// what the rejection-free sampler's revalidation loop needs.
    #[inline]
    #[must_use]
    pub fn window25(&self, x0: i32, y0: i32) -> u32 {
        let tx0 = x0 >> 3;
        let lx = (x0 & 7) as u32;
        let ty0 = y0 >> 3;
        let ty1 = (y0 + 4) >> 3;
        // Columns cross a tile boundary iff the low offset starts past 3.
        let spans_x = lx > 3;
        let top_l = self.tile_word(tx0, ty0);
        let top_r = if spans_x {
            self.tile_word(tx0 + 1, ty0)
        } else {
            0
        };
        let (bot_l, bot_r) = if ty1 != ty0 {
            let l = self.tile_word(tx0, ty1);
            let r = if spans_x {
                self.tile_word(tx0 + 1, ty1)
            } else {
                0
            };
            (l, r)
        } else {
            (top_l, top_r)
        };
        let mut w = 0u32;
        for r in 0..5 {
            let y = y0 + r;
            let ly = ((y & 7) << 3) as u32;
            let (lw, rw) = if y >> 3 == ty0 {
                (top_l, top_r)
            } else {
                (bot_l, bot_r)
            };
            let row16 = ((lw >> ly) & 0xFF) as u32 | ((((rw >> ly) & 0xFF) as u32) << 8);
            w |= ((row16 >> lx) & 0x1F) << (r * 5);
        }
        w
    }

    /// The number of occupied sites among the six neighbors of `p` (`p`
    /// itself does not count), answered from at most four tile words.
    #[inline]
    #[must_use]
    pub fn neighbor_count(&self, p: TriPoint) -> u8 {
        let w = self.window16(p.x - 1, p.y - 1);
        // Neighbor positions relative to window origin (p.x − 1, p.y − 1):
        // SW(1,0) SE(2,0) W(0,1) E(2,1) NW(0,2) NE(1,2).
        const NEIGHBORS: u16 = 1 << 1 | 1 << 2 | 1 << 4 | 1 << 6 | 1 << 8 | 1 << 9;
        (w & NEIGHBORS).count_ones() as u8
    }

    /// The 8-bit [`crate::PairRing`] occupancy mask of the pair `(from, from + dir)`
    /// plus the occupancy of the target `from + dir`, answered from at most
    /// four tile words.
    ///
    /// Bit `i` of the mask is set iff ring site `i` is occupied, matching
    /// [`crate::PairRing::occupancy_mask`]; the bit positions inside the gathered
    /// window are compile-time constants per direction.
    #[inline]
    #[must_use]
    pub fn pair_ring_mask(&self, from: TriPoint, dir: Direction) -> (u8, bool) {
        let (dx, dy) = dir.offset();
        let x0 = from.x + if dx < 0 { dx } else { 0 } - 1;
        let y0 = from.y + if dy < 0 { dy } else { 0 } - 1;
        let w = self.window16(x0, y0);
        let (ring_pos, target_pos) = RING_POSITIONS[dir.index()];
        let mut mask = 0u8;
        for (i, &pos) in ring_pos.iter().enumerate() {
            mask |= ((w >> pos & 1) as u8) << i;
        }
        (mask, w >> target_pos & 1 != 0)
    }

    /// Calls `f` for every occupied site in ascending `(x, y)` order.
    ///
    /// `tile_scratch` is reusable scratch for the tile sort (cleared on
    /// entry); steady-state calls allocate nothing.
    pub fn for_each_site_sorted(
        &self,
        tile_scratch: &mut Vec<(u64, u32)>,
        mut f: impl FnMut(TriPoint),
    ) {
        tile_scratch.clear();
        for (slot, tile) in self.tiles.iter().enumerate() {
            if tile.key != EMPTY_KEY && tile.bits != 0 {
                // Map each packed half to offset binary so the u64 sort
                // orders signed (tx, ty) lexicographically.
                tile_scratch.push((tile.key ^ 0x8000_0000_8000_0000, slot as u32));
            }
        }
        tile_scratch.sort_unstable();
        // (x, y)-lexicographic order: walk runs of equal tx (consecutive
        // after the sort), and within a run emit column lx across all tiles
        // (ascending ty) before moving to the next lx.
        let mut run_start = 0;
        while run_start < tile_scratch.len() {
            let tx_bits = tile_scratch[run_start].0 >> 32;
            let mut run_end = run_start + 1;
            while run_end < tile_scratch.len() && tile_scratch[run_end].0 >> 32 == tx_bits {
                run_end += 1;
            }
            let tx = (tx_bits as u32 ^ 0x8000_0000) as i32;
            for lx in 0..8i32 {
                for &(sort_key, slot) in &tile_scratch[run_start..run_end] {
                    let ty = (sort_key as u32 ^ 0x8000_0000) as i32;
                    let word = self.tiles[slot as usize].bits;
                    for ly in 0..8i32 {
                        if word >> ((ly << 3) | lx) & 1 != 0 {
                            f(TriPoint::new(tx * 8 + lx, ty * 8 + ly));
                        }
                    }
                }
            }
            run_start = run_end;
        }
    }

    /// Calls `f(tx, ty, bits, payload)` for every tile holding an occupied
    /// site: `bits` is the occupancy word of tile `(tx, ty)` and
    /// `payload[bit]` the payload of each site whose bit is set (the other
    /// slots mean nothing). Tiles come in table order, which is
    /// unspecified: use [`TileGrid::for_each_site_sorted`] when the order
    /// matters. Together with [`TileGrid::insert_tile`] this moves sites
    /// between grids a word at a time.
    pub fn for_each_tile(&self, mut f: impl FnMut(i32, i32, u64, &[u32; 64])) {
        for (tile, payload) in self.tiles.iter().zip(self.payload.chunks_exact(64)) {
            if tile.key != EMPTY_KEY && tile.bits != 0 {
                let payload = payload.try_into().expect("chunks hold 64 slots");
                f(
                    (tile.key >> 32) as i32,
                    tile.key as u32 as i32,
                    tile.bits,
                    payload,
                );
            }
        }
    }

    /// Checks internal invariants (site count vs occupancy words, cache
    /// coherence). Intended for tests and `assert_invariants` hooks.
    ///
    /// # Panics
    ///
    /// Panics if any invariant is violated.
    pub fn assert_valid(&self) {
        let mut sites = 0usize;
        let mut used = 0usize;
        for (slot, tile) in self.tiles.iter().enumerate() {
            if tile.key == EMPTY_KEY {
                assert_eq!(tile.bits, 0, "vacant slot {slot} has bits");
            } else {
                used += 1;
                sites += tile.bits.count_ones() as usize;
            }
        }
        assert_eq!(self.used, used, "claimed-slot count drifted");
        assert_eq!(self.len, sites, "occupied-site count drifted");
        for cached in &self.cache {
            let entry = cached.get();
            if entry.key == EMPTY_KEY {
                continue;
            }
            match self.probe(entry.key) {
                Ok(i) => {
                    assert_eq!(entry.slot as usize, i, "cache points at wrong slot");
                    assert_eq!(entry.bits, self.tiles[i].bits, "cached word is stale");
                }
                Err(_) => {
                    assert_eq!(entry.slot, ABSENT, "cache holds a dropped tile");
                    assert_eq!(entry.bits, 0, "negative entry has bits");
                }
            }
        }
    }
}

/// Bit positions of the eight [`crate::PairRing`] sites plus the move target
/// inside the 4×4 window gathered by `TileGrid::window16`, per direction.
///
/// The window origin is `(min(ℓ.x, ℓ′.x) − 1, min(ℓ.y, ℓ′.y) − 1)`, so
/// every ring site lands at a direction-dependent but compile-time-constant
/// window bit. Built from the same `rot60` geometry as [`crate::PairRing::new`]
/// and cross-checked against it in this module's tests.
static RING_POSITIONS: [([u8; 8], u8); 6] = [
    ring_positions(Direction::E),
    ring_positions(Direction::NE),
    ring_positions(Direction::NW),
    ring_positions(Direction::W),
    ring_positions(Direction::SW),
    ring_positions(Direction::SE),
];

const fn ring_positions(dir: Direction) -> ([u8; 8], u8) {
    let (dx, dy) = dir.offset();
    // Window origin relative to `from`.
    let x0 = (if dx < 0 { dx } else { 0 }) - 1;
    let y0 = (if dy < 0 { dy } else { 0 }) - 1;
    // Ring site offsets relative to `from`, in PairRing index order.
    let offsets: [(i32, i32); 8] = [
        dir.rot60(1).offset(),
        dir.rot60(2).offset(),
        dir.rot60(3).offset(),
        dir.rot60(4).offset(),
        dir.rot60(5).offset(),
        (dx + dir.rot60(5).offset().0, dy + dir.rot60(5).offset().1),
        (2 * dx, 2 * dy),
        (dx + dir.rot60(1).offset().0, dy + dir.rot60(1).offset().1),
    ];
    let mut positions = [0u8; 8];
    let mut i = 0;
    while i < 8 {
        let (ox, oy) = offsets[i];
        positions[i] = ((oy - y0) * 4 + (ox - x0)) as u8;
        i += 1;
    }
    (positions, ((dy - y0) * 4 + (dx - x0)) as u8)
}

/// A dense, reusable bitset over a [`BoundingBox`] — scratch space for the
/// flood fills in hole analysis and boundary tracing.
///
/// Unlike a hash set, membership is one word index per query and the buffer
/// is reused across calls ([`BitWindow::reset`] keeps the allocation), so
/// steady-state sampling allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct BitWindow {
    min_x: i32,
    min_y: i32,
    width: usize,
    words: Vec<u64>,
}

impl BitWindow {
    /// Creates an empty window; call [`BitWindow::reset`] before use.
    #[must_use]
    pub fn new() -> BitWindow {
        BitWindow::default()
    }

    /// Clears the window and re-targets it at `bbox`, reusing the buffer.
    pub fn reset(&mut self, bbox: BoundingBox) {
        let area = usize::try_from(bbox.area()).expect("bounding box area overflows usize");
        self.min_x = bbox.min_x;
        self.min_y = bbox.min_y;
        self.width = usize::try_from(bbox.width()).expect("bounding box width overflows usize");
        self.words.clear();
        self.words.resize(area.div_ceil(64), 0);
    }

    #[inline]
    fn index(&self, p: TriPoint) -> usize {
        let dx = (p.x - self.min_x) as usize;
        let dy = (p.y - self.min_y) as usize;
        debug_assert!(dx < self.width, "point outside window");
        dy * self.width + dx
    }

    /// Marks `p`; returns `true` if it was not already marked.
    ///
    /// `p` must lie inside the bounding box given to [`BitWindow::reset`].
    #[inline]
    pub fn insert(&mut self, p: TriPoint) -> bool {
        let i = self.index(p);
        let word = &mut self.words[i / 64];
        let bit = 1u64 << (i % 64);
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    /// `true` if `p` is marked. `p` must lie inside the reset bounding box.
    #[inline]
    #[must_use]
    pub fn contains(&self, p: TriPoint) -> bool {
        let i = self.index(p);
        self.words[i / 64] >> (i % 64) & 1 != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PairRing, TriMap, TriSet};

    #[test]
    fn insert_get_remove_round_trip() {
        let mut grid = TileGrid::new();
        let p = TriPoint::new(-5, 9);
        assert_eq!(grid.insert(p, 7), None);
        assert_eq!(grid.len(), 1);
        assert_eq!(grid.get(p), Some(7));
        assert!(grid.contains(p));
        assert_eq!(grid.insert(p, 9), Some(7));
        assert_eq!(grid.get(p), Some(9));
        assert_eq!(grid.len(), 1);
        assert_eq!(grid.remove(p), Some(9));
        assert_eq!(grid.remove(p), None);
        assert!(grid.is_empty());
        grid.assert_valid();
    }

    #[test]
    fn negative_coordinates_tile_correctly() {
        let mut grid = TileGrid::new();
        // Sites straddling the tile boundary at 0 and at -8.
        for (i, p) in [
            TriPoint::new(-1, -1),
            TriPoint::new(0, 0),
            TriPoint::new(-8, -8),
            TriPoint::new(-9, -9),
            TriPoint::new(7, 7),
            TriPoint::new(8, 8),
        ]
        .into_iter()
        .enumerate()
        {
            assert_eq!(grid.insert(p, i as u32), None, "{p}");
        }
        for (i, p) in [
            TriPoint::new(-1, -1),
            TriPoint::new(0, 0),
            TriPoint::new(-8, -8),
            TriPoint::new(-9, -9),
            TriPoint::new(7, 7),
            TriPoint::new(8, 8),
        ]
        .into_iter()
        .enumerate()
        {
            assert_eq!(grid.get(p), Some(i as u32), "{p}");
        }
        grid.assert_valid();
    }

    #[test]
    fn matches_hash_map_under_random_churn() {
        let mut grid = TileGrid::new();
        let mut reference: TriMap<TriPoint, u32> = TriMap::default();
        // Deterministic pseudo-random walk of inserts and removes.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            state >> 33
        };
        for step in 0..20_000u32 {
            let x = (next() % 64) as i32 - 32;
            let y = (next() % 64) as i32 - 32;
            let p = TriPoint::new(x, y);
            if next() % 3 == 0 {
                assert_eq!(grid.remove(p), reference.remove(&p), "step {step} at {p}");
            } else {
                assert_eq!(
                    grid.insert(p, step),
                    reference.insert(p, step),
                    "step {step} at {p}"
                );
            }
        }
        assert_eq!(grid.len(), reference.len());
        for (&p, &v) in &reference {
            assert_eq!(grid.get(p), Some(v), "{p}");
        }
        grid.assert_valid();
    }

    #[test]
    fn neighbor_count_matches_per_site_probes() {
        let mut grid = TileGrid::new();
        let mut occupied: TriSet<TriPoint> = TriSet::default();
        let mut state = 42u64;
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            state >> 33
        };
        for _ in 0..300 {
            let p = TriPoint::new((next() % 24) as i32 - 12, (next() % 24) as i32 - 12);
            grid.insert(p, 0);
            occupied.insert(p);
        }
        for x in -14..14 {
            for y in -14..14 {
                let p = TriPoint::new(x, y);
                let direct = p.neighbors().filter(|q| occupied.contains(q)).count() as u8;
                assert_eq!(grid.neighbor_count(p), direct, "{p}");
            }
        }
    }

    #[test]
    fn pair_ring_mask_matches_pair_ring() {
        let mut grid = TileGrid::new();
        let mut state = 7u64;
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            state >> 33
        };
        for _ in 0..200 {
            let p = TriPoint::new((next() % 16) as i32 - 8, (next() % 16) as i32 - 8);
            grid.insert(p, 0);
        }
        for x in -9..9 {
            for y in -9..9 {
                let from = TriPoint::new(x, y);
                for dir in Direction::ALL {
                    let ring = PairRing::new(from, dir);
                    let expected = ring.occupancy_mask(|q| grid.contains(q));
                    let (mask, target) = grid.pair_ring_mask(from, dir);
                    assert_eq!(mask, expected, "{from} {dir}");
                    assert_eq!(target, grid.contains(from + dir), "{from} {dir}");
                }
            }
        }
    }

    #[test]
    fn window25_matches_per_site_probes() {
        let mut grid = TileGrid::new();
        let mut state = 11u64;
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            state >> 33
        };
        for _ in 0..300 {
            let p = TriPoint::new((next() % 24) as i32 - 12, (next() % 24) as i32 - 12);
            grid.insert(p, 0);
        }
        for x0 in -14..12 {
            for y0 in -14..12 {
                let w = grid.window25(x0, y0);
                for dy in 0..5 {
                    for dx in 0..5 {
                        let p = TriPoint::new(x0 + dx, y0 + dy);
                        assert_eq!(
                            w >> (dy * 5 + dx) & 1 != 0,
                            grid.contains(p),
                            "window ({x0}, {y0}) bit ({dx}, {dy})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn rehash_drops_cleared_tiles_and_preserves_contents() {
        let mut grid = TileGrid::new();
        // Touch many tiles, then clear most of them; keep inserting to
        // force growth + rehash cycles.
        for i in 0..2_000i32 {
            grid.insert(TriPoint::new(i * 8, 0), i as u32);
        }
        for i in 100..2_000i32 {
            grid.remove(TriPoint::new(i * 8, 0));
        }
        for i in 1..2_000i32 {
            grid.insert(TriPoint::new(0, i * 8), (10_000 + i) as u32);
        }
        for i in 0..100i32 {
            assert_eq!(grid.get(TriPoint::new(i * 8, 0)), Some(i as u32));
        }
        for i in 1..2_000i32 {
            assert_eq!(grid.get(TriPoint::new(0, i * 8)), Some((10_000 + i) as u32));
        }
        grid.assert_valid();
    }

    #[test]
    fn sorted_site_iteration_is_lexicographic_and_complete() {
        let mut grid = TileGrid::new();
        let mut expected: Vec<TriPoint> = Vec::new();
        let mut state = 99u64;
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            state >> 33
        };
        for _ in 0..500 {
            let p = TriPoint::new((next() % 60) as i32 - 30, (next() % 60) as i32 - 30);
            if grid.insert(p, 0).is_none() {
                expected.push(p);
            }
        }
        expected.sort();
        let mut seen = Vec::new();
        let mut scratch = Vec::new();
        grid.for_each_site_sorted(&mut scratch, |p| seen.push(p));
        assert_eq!(seen, expected);
    }

    /// The sites of every visited tile, as sorted `(site, payload)` pairs.
    fn tile_sites(grid: &TileGrid) -> Vec<(TriPoint, u32)> {
        let mut sites = Vec::new();
        grid.for_each_tile(|tx, ty, bits, payload| {
            for bit in 0..64 {
                if bits >> bit & 1 != 0 {
                    let p = TriPoint::new(tx * 8 + (bit & 7), ty * 8 + (bit >> 3));
                    sites.push((p, payload[bit as usize]));
                }
            }
        });
        sites.sort_unstable();
        sites
    }

    #[test]
    fn tile_visit_and_tile_insert_move_sites_word_by_word() {
        let mut grid = TileGrid::new();
        let mut state = 5u64;
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            state >> 33
        };
        for i in 0..400u32 {
            let p = TriPoint::new((next() % 50) as i32 - 25, (next() % 50) as i32 - 25);
            grid.insert(p, i);
        }
        let mut expected = Vec::new();
        let mut scratch = Vec::new();
        grid.for_each_site_sorted(&mut scratch, |p| expected.push((p, grid.get(p).unwrap())));
        assert_eq!(tile_sites(&grid), expected);
        // Copying every tile (some into already-occupied sites) rebuilds
        // the same grid.
        let mut copy = TileGrid::new();
        copy.insert(expected[0].0, u32::MAX);
        grid.for_each_tile(|tx, ty, bits, payload| copy.insert_tile(tx, ty, bits, payload));
        copy.assert_valid();
        assert_eq!(copy.len(), grid.len());
        assert_eq!(tile_sites(&copy), expected);
        // A partial word adds exactly its sites.
        let mut partial = TileGrid::new();
        partial.insert_tile(-1, 2, 0b1010, &[7; 64]);
        partial.assert_valid();
        assert_eq!(partial.len(), 2);
        assert_eq!(partial.get(TriPoint::new(-7, 16)), Some(7));
        assert_eq!(partial.get(TriPoint::new(-8, 16)), None);
    }

    #[test]
    fn clear_resets_everything() {
        let mut grid = TileGrid::new();
        for i in 0..100i32 {
            grid.insert(TriPoint::new(i, -i), i as u32);
        }
        grid.clear();
        assert!(grid.is_empty());
        assert_eq!(grid.get(TriPoint::new(3, -3)), None);
        grid.insert(TriPoint::new(3, -3), 1);
        assert_eq!(grid.len(), 1);
        grid.assert_valid();
    }

    #[test]
    fn bit_window_marks_and_reuses() {
        let mut w = BitWindow::new();
        let bbox = BoundingBox {
            min_x: -3,
            max_x: 9,
            min_y: -2,
            max_y: 5,
        };
        w.reset(bbox);
        let p = TriPoint::new(-3, 5);
        assert!(!w.contains(p));
        assert!(w.insert(p));
        assert!(!w.insert(p));
        assert!(w.contains(p));
        // Re-targeting clears prior marks.
        w.reset(bbox);
        assert!(!w.contains(p));
        // Every cell is independently addressable.
        for q in bbox.iter() {
            assert!(w.insert(q), "{q}");
        }
        for q in bbox.iter() {
            assert!(w.contains(q), "{q}");
        }
    }
}
