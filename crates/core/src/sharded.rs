//! The synchronous, checkerboard-scheduled variant of the local algorithm
//! `A`, designed for intra-run sharding across cores.
//!
//! # The algorithm
//!
//! [`LocalRunner`](crate::local::LocalRunner) is a faithful asynchronous
//! simulator: one global Poisson event queue, one sequential RNG stream.
//! Its activations are inherently serial — every one consumes the next
//! draw of a single stream in global event-time order — so the most it can
//! run in parallel is its schedule beside its activations
//! ([`LocalRunner::run_rounds_with`](crate::local::LocalRunner::run_rounds_with)).
//!
//! [`ShardedLocalRunner`] runs the *particle rule* of Algorithm `A` —
//! steps 1–13, including the `flag` serialization protocol, the `N*`
//! neighborhoods and step 11's use of `M`'s
//! [`Acceptance`](crate::sampler::Acceptance) filter — from its one home in
//! [`crate::local`], and is that module's [`Runner`]: the same particle
//! table, counters, crash set, probes and accessors. This module adds no
//! copy of the rule or of the runner shell: it supplies a second
//! neighborhood view (one region cell plus its halo) and a second schedule,
//! [`Checkerboard`], in place of the Poisson clocks — a fixed synchronous
//! schedule built on [`RegionMap`]: each round visits the four checkerboard
//! colors in order; within a color, every region holding at least one live
//! particle activates its particles once each, in particle-id order,
//! consuming a private RNG stream seeded by SplitMix64-style mixing of
//! `(seed, region, round)`. Regions of the same color are at least one
//! full region apart — farther than the rule's read radius of 2 sites — so
//! their updates commute and the trajectory is a pure function of
//! `(start, λ, seed, region_tiles)`.
//!
//! # Unsharded vs sharded execution
//!
//! The runner has two independent implementations of that schedule:
//!
//! * [`ShardedLocalRunner::run_rounds`] — the **unsharded reference**: one
//!   flat occupancy grid, one sequential pass in schedule order. It is
//!   kept as the oracle the sharded executor is checked against
//!   (`crates/system/tests/shard_differential.rs`, the `GOLDEN_SHARDED`
//!   fingerprints in `crates/engine/tests/local_golden.rs`, this module's
//!   halo-oracle test, and the "flat" rows of the `shard_scaling` binary
//!   and the perfbench tracer); no production path runs it.
//! * [`ShardedLocalRunner::run_rounds_with`] — the **sharded executor**,
//!   the one path the engine and `sops-cli local --shards` run at every
//!   worker count (one worker runs inline): per-region cells own their
//!   particles and a private [`TileGrid`] of
//!   their slots; each color step ships the active cells to a
//!   [`StepExecutor`] as self-contained [`ShardTask`]s (cell + neighbor
//!   rims + stream seed); boundary state moves as rim exports and emigrant
//!   particles at deterministic merge points.
//!
//! Rims and halos work a tile word at a time. A cell's rim is its grid's
//! tiles masked to the sites within 2 (the rule's read radius) of the
//! region border or outside it ([`RegionMap::rim_tile_mask`]). A task's
//! halo is its neighbors' rim tiles masked to the footprint grown by 2
//! sites ([`RegionMap::halo_tile_mask`]) — every foreign site the rule can
//! read and no other — copied into one reusable grid per worker thread.
//! Grid slots carry the owner's expanded bit (see `local::pack_slot`), so
//! no query ever looks a neighbor particle up.
//!
//! Both produce **byte-identical** results at any worker count — the
//! differential harness in `crates/system/tests/shard_differential.rs` is
//! the merge gate for that claim. The worker/shard count is an execution
//! detail like `--threads`, never simulation state: snapshots serialize the
//! flat configuration only, so checkpoints are portable across shard
//! counts. `region_tiles` *is* semantic (it changes the schedule), which is
//! why it lives in the snapshot.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sops_lattice::{RegionId, RegionMap, TileGrid, TriMap, TriPoint, REGION_COLORS};
use sops_system::ParticleSystem;

use crate::chain::ChainError;
use crate::local::{activate_one, occupy, Particle, Runner, World};
use crate::probes::LocalProbes;
use crate::snapshot::{self, SnapshotError};

/// Default region edge length in tiles (16×16 sites): large enough that
/// halo traffic stays a small fraction of region area, small enough that a
/// compressed million-particle blob still yields thousands of regions.
pub const DEFAULT_REGION_TILES: u32 = 2;

/// Sites this close to a region border (or beyond it — overhang heads) are
/// exported in the region's rim, and a halo holds the neighbor sites this
/// close to the region: the local rule reads at distance ≤ 2.
const RIM_MARGIN: i32 = 2;

/// The largest `region_tiles` that [`RegionMap::new`] keeps as given.
const MAX_REGION_TILES: u32 = i32::MAX as u32 >> 4;

/// Salt separating shard streams from every other seed-derived stream in
/// the workspace (job child seeds, crash-victim streams, orientations).
const SHARD_SALT: u64 = 0x5bd1_e995_ca55_e77e;

/// SplitMix64 finalizer: the bijective avalanche at the core of the
/// engine's seed derivation (see `sops_engine::seed`), reused here to mix
/// `(seed, region, round)` into independent per-region-step streams.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The RNG stream seed for one region's activations in one round — a pure
/// function of `(base seed, region, round)`, independent of worker count,
/// wall clock, and iteration order.
#[must_use]
pub fn region_stream_seed(seed: u64, region: RegionId, round: u64) -> u64 {
    let key = (u64::from(region.0 as u32) << 32) | u64::from(region.1 as u32);
    mix(mix(mix(seed ^ SHARD_SALT) ^ key) ^ round)
}

/// One tile of a rim export: the rim sites' occupancy word and their
/// grid slots (see [`TileGrid::for_each_tile`]). Slots carry the owner's
/// expanded bit, so a halo reader never needs the owner's particles.
struct RimTile {
    tx: i32,
    ty: i32,
    bits: u64,
    slots: [u32; 64],
}

/// A rim export, tile by tile in no particular order.
type Rim = Vec<RimTile>;

thread_local! {
    /// This thread's halo grid, cleared and refilled by every task it runs:
    /// reusing it spares each task a fresh zeroed table.
    static HALO: RefCell<TileGrid> = RefCell::new(TileGrid::new());
}

/// One region's owned state in the sharded representation: its particles
/// (sorted by id), a private grid holding exactly their slots — including
/// heads overhanging into neighbor regions (ownership follows the *tail*)
/// — and its current rim export.
struct RegionCell {
    region: RegionId,
    particles: Vec<(usize, Particle)>,
    /// The crashed particles' ids, sorted. Crashes land between
    /// `run_rounds*` calls and a crashed particle never moves, so the list
    /// is fixed while the cell exists.
    crashed: Vec<usize>,
    grid: TileGrid,
    /// Every owned site outside the region or within [`RIM_MARGIN`] of its
    /// border: what the neighbors' halos are cut from.
    rim: Arc<Rim>,
}

impl RegionCell {
    fn new(region: RegionId) -> RegionCell {
        RegionCell {
            region,
            particles: Vec::new(),
            crashed: Vec::new(),
            grid: TileGrid::new(),
            rim: Arc::default(),
        }
    }

    /// Particles that still activate.
    fn live(&self) -> usize {
        self.particles.len() - self.crashed.len()
    }

    /// Adds particle `id`, which must be new to the cell, keeping
    /// `particles` sorted.
    fn admit(&mut self, id: usize, p: Particle) {
        let at = match self.particles.last() {
            Some(&(last, _)) if last > id => self
                .particles
                .binary_search_by_key(&id, |e| e.0)
                .expect_err("particle cannot already live in the cell"),
            _ => self.particles.len(),
        };
        self.particles.insert(at, (id, p));
        occupy(&mut self.grid, id, &p).expect("cells own disjoint sites");
    }

    /// Re-exports [`RegionCell::rim`], a word per tile against the region's
    /// rim masks, reusing the old export's buffer when no halo still holds
    /// it.
    fn export_rim(&mut self, map: &RegionMap) {
        let RegionCell {
            region, grid, rim, ..
        } = self;
        let mut tiles = Arc::get_mut(rim).map(std::mem::take).unwrap_or_default();
        tiles.clear();
        grid.for_each_tile(|tx, ty, bits, slots| {
            let bits = bits & map.rim_tile_mask(*region, tx, ty, RIM_MARGIN);
            if bits != 0 {
                tiles.push(RimTile {
                    tx,
                    ty,
                    bits,
                    slots: *slots,
                });
            }
        });
        *rim = Arc::new(tiles);
    }
}

/// Sharded view: the cell's grid backed by a halo of frozen neighbor rims.
/// Writes go to owned sites only; halo owners are inactive for the whole
/// color step, so their frozen slots read exactly what the flat grid
/// would.
struct CellWorld<'a> {
    cell: &'a mut RegionCell,
    halo: &'a TileGrid,
    map: RegionMap,
    /// Index in `cell.particles` of the acting particle: the rule reads and
    /// writes no other particle's state.
    at: usize,
    /// Indices of the particles whose tail left the region, ascending.
    emigrants: Vec<usize>,
}

impl World for CellWorld<'_> {
    fn slot(&self, p: TriPoint) -> Option<u32> {
        self.cell.grid.get(p).or_else(|| self.halo.get(p))
    }

    fn occupied(&self, p: TriPoint) -> bool {
        self.cell.grid.contains(p) || self.halo.contains(p)
    }

    fn get(&self, id: usize) -> Particle {
        let (owner, particle) = self.cell.particles[self.at];
        debug_assert_eq!(owner, id, "the rule reads only the acting particle");
        particle
    }

    fn set(&mut self, id: usize, particle: Particle) {
        let slot = &mut self.cell.particles[self.at];
        debug_assert_eq!(slot.0, id, "the rule writes only the acting particle");
        let old = std::mem::replace(&mut slot.1, particle);
        // A forward contraction can carry the tail across the border (by
        // one site, so into an adjacent region).
        if particle.tail != old.tail && self.map.region_of(particle.tail) != self.cell.region {
            debug_assert!(particle.head.is_none(), "emigrants are contracted");
            self.emigrants.push(self.at);
        }
    }

    fn write(&mut self, p: TriPoint, slot: u32) {
        self.cell.grid.insert(p, slot);
    }

    fn remove(&mut self, p: TriPoint) {
        self.cell.grid.remove(p);
    }
}

/// One region's work for one color step, self-contained and `Send`: the
/// cell (moved out of the coordinator), the halo (cheap `Arc` clones of the
/// neighbor rims, frozen for the step), and the stream seed.
pub struct ShardTask {
    cell: Box<RegionCell>,
    halo: Vec<Arc<Rim>>,
    stream: u64,
    accept: [f64; 11],
    map: RegionMap,
}

/// What a completed [`ShardTask`] hands back for the deterministic merge.
pub struct ShardStepOut {
    cell: Box<RegionCell>,
    emigrants: Vec<(usize, Particle)>,
    probes: LocalProbes,
}

impl ShardTask {
    /// Refills `halo` with the neighbor-rim sites within [`RIM_MARGIN`] of
    /// the cell's footprint — the only foreign sites the rule can read,
    /// since it reads at distance ≤ 2 of a tail. That includes neighbor
    /// heads overhanging into the footprint.
    fn fill_halo(&self, halo: &mut TileGrid) {
        halo.clear();
        let region = self.cell.region;
        for tile in self.halo.iter().flat_map(|rim| rim.iter()) {
            let (tx, ty) = (tile.tx, tile.ty);
            let bits = tile.bits & self.map.halo_tile_mask(region, tx, ty, RIM_MARGIN);
            if bits != 0 {
                halo.insert_tile(tx, ty, bits, &tile.slots);
            }
        }
    }

    /// Runs the region's color step: activate each live particle once in id
    /// order against the cell-plus-halo view, extract emigrants (tails that
    /// crossed the border via forward contraction), and re-export the rim.
    ///
    /// Pure: the output depends only on the task. Executors may run tasks
    /// in any order on any threads as long as outputs are returned in task
    /// order.
    #[must_use]
    pub fn run(mut self) -> ShardStepOut {
        let mut probes = LocalProbes::default();
        let leaving = HALO.with_borrow_mut(|halo| {
            self.fill_halo(halo);
            let mut rng = StdRng::seed_from_u64(self.stream);
            let mut world = CellWorld {
                cell: &mut self.cell,
                halo,
                map: self.map,
                at: 0,
                emigrants: Vec::new(),
            };
            for at in 0..world.cell.particles.len() {
                let id = world.cell.particles[at].0;
                if world.cell.crashed.binary_search(&id).is_ok() {
                    continue;
                }
                world.at = at;
                probes.record(activate_one(&mut world, id, &self.accept, &mut rng));
            }
            world.emigrants
        });
        let ShardTask { mut cell, map, .. } = self;
        // Emigrants leave this cell — grid sites included — and the
        // coordinator routes them at the merge point.
        let mut emigrants: Vec<(usize, Particle)> = leaving
            .iter()
            .rev()
            .map(|&at| cell.particles.remove(at))
            .collect();
        emigrants.reverse();
        for (_, p) in &emigrants {
            cell.grid.remove(p.tail);
        }
        cell.export_rim(&map);
        ShardStepOut {
            cell,
            emigrants,
            probes,
        }
    }
}

/// Executes the tasks of one color step, returning outputs **in task
/// order**. Implementations are free to run tasks concurrently — every
/// task is pure and tasks of one step touch disjoint state.
///
/// `sops_core` ships [`SerialExecutor`]; `sops_engine` provides the
/// worker-pool executor behind `--shards`.
pub trait StepExecutor {
    /// Runs every task and returns the outputs in input order.
    fn run_step(&self, tasks: Vec<ShardTask>) -> Vec<ShardStepOut>;
}

/// Runs tasks one after another on the calling thread.
pub struct SerialExecutor;

impl StepExecutor for SerialExecutor {
    fn run_step(&self, tasks: Vec<ShardTask>) -> Vec<ShardStepOut> {
        tasks.into_iter().map(ShardTask::run).collect()
    }
}

/// The sharded representation while rounds are running: boxed cells keyed
/// by region, each carrying its own rim export. Hashed for the per-task
/// neighbor lookups; the schedule sorts the regions it visits.
type Cells = TriMap<RegionId, Box<RegionCell>>;

/// The checkerboard schedule of [`ShardedLocalRunner`]: the base seed of
/// the region streams and the region decomposition.
#[derive(Clone, Copy, Debug)]
pub struct Checkerboard {
    seed: u64,
    map: RegionMap,
}

/// The checkerboard-scheduled local algorithm (see the module docs).
///
/// # Example
///
/// ```
/// use sops_core::sharded::{SerialExecutor, ShardedLocalRunner};
/// use sops_system::{shapes, ParticleSystem};
///
/// let start = ParticleSystem::connected(shapes::line(12)).unwrap();
/// let mut a = ShardedLocalRunner::from_seed(&start, 4.0, 7).unwrap();
/// let mut b = ShardedLocalRunner::from_seed(&start, 4.0, 7).unwrap();
/// a.run_rounds(50); // unsharded reference
/// b.run_rounds_with(50, &SerialExecutor); // sharded machinery
/// assert_eq!(a.snapshot(), b.snapshot()); // byte-identical
/// ```
pub type ShardedLocalRunner = Runner<Checkerboard>;

impl ShardedLocalRunner {
    /// Builds a runner with the default region size
    /// ([`DEFAULT_REGION_TILES`]).
    ///
    /// # Errors
    ///
    /// [`ChainError::InvalidLambda`] or [`ChainError::NotConnected`].
    pub fn from_seed(
        start: &ParticleSystem,
        lambda: f64,
        seed: u64,
    ) -> Result<ShardedLocalRunner, ChainError> {
        ShardedLocalRunner::with_region_tiles(start, lambda, seed, DEFAULT_REGION_TILES)
    }

    /// Builds a runner over regions of `region_tiles × region_tiles` tiles.
    /// `region_tiles` is a *semantic* parameter — it changes the schedule,
    /// hence the trajectory — unlike the worker count, which never does.
    ///
    /// # Errors
    ///
    /// [`ChainError::InvalidLambda`] or [`ChainError::NotConnected`].
    pub fn with_region_tiles(
        start: &ParticleSystem,
        lambda: f64,
        seed: u64,
        region_tiles: u32,
    ) -> Result<ShardedLocalRunner, ChainError> {
        Runner::contracted(start, lambda, |_| Checkerboard {
            seed,
            map: RegionMap::new(region_tiles),
        })
    }

    /// The region decomposition this runner schedules over.
    #[must_use]
    pub fn region_map(&self) -> RegionMap {
        self.schedule.map
    }

    /// Crashes particle `id`: it never activates again but keeps occupying
    /// its sites (frozen mid-expansion if expanded), exactly like the
    /// asynchronous runner.
    pub fn crash(&mut self, id: usize) {
        self.mark_crashed(id);
    }

    /// Runs `r` rounds with the **unsharded reference** implementation:
    /// one flat grid, one sequential pass in schedule order.
    pub fn run_rounds(&mut self, r: u64) {
        let Checkerboard { seed, map } = self.schedule;
        for _ in 0..r {
            let round = self.rounds;
            for color in 0..REGION_COLORS {
                // Membership is decided at color-step start (a migrant can
                // therefore activate twice in a round — or not at all —
                // identically in both implementations).
                let mut buckets: BTreeMap<RegionId, Vec<usize>> = BTreeMap::new();
                for (id, p) in self.table.particles.iter().enumerate() {
                    if self.crashed[id] {
                        continue;
                    }
                    let region = map.region_of(p.tail);
                    if RegionMap::color(region) == color {
                        buckets.entry(region).or_default().push(id);
                    }
                }
                let mut outcomes = LocalProbes::default();
                for (region, ids) in &buckets {
                    let mut rng = StdRng::seed_from_u64(region_stream_seed(seed, *region, round));
                    for &id in ids {
                        outcomes.record(self.table.activate(id, &mut rng));
                    }
                }
                self.count(&outcomes);
            }
            self.rounds += 1;
        }
    }

    /// Runs `r` rounds with the **sharded machinery**: region cells, halo
    /// exchange, and `executor` driving each color step's tasks. Results
    /// are byte-identical to [`ShardedLocalRunner::run_rounds`] for any
    /// executor honoring the [`StepExecutor`] contract, at any concurrency.
    pub fn run_rounds_with(&mut self, r: u64, executor: &impl StepExecutor) {
        if r == 0 {
            return;
        }
        let mut cells = self.build_cells();
        for _ in 0..r {
            for color in 0..REGION_COLORS {
                let (active, tasks) = self.color_tasks(&mut cells, color);
                let outs = executor.run_step(tasks);
                self.merge(&mut cells, &active, outs);
            }
            self.rounds += 1;
        }
        self.flatten(cells);
    }

    /// Moves every cell of `color` with a live particle out of `cells` into
    /// a task, in region order; returns the regions and the tasks.
    fn color_tasks(&self, cells: &mut Cells, color: u8) -> (Vec<RegionId>, Vec<ShardTask>) {
        let mut active: Vec<RegionId> = cells
            .iter()
            .filter(|(region, cell)| RegionMap::color(**region) == color && cell.live() > 0)
            .map(|(region, _)| *region)
            .collect();
        active.sort_unstable();
        let tasks = active
            .iter()
            .map(|region| {
                // Neighbors have other colors, so they all stay in `cells`.
                let halo: Vec<Arc<Rim>> = RegionMap::neighbors8(*region)
                    .iter()
                    .filter_map(|nk| cells.get(nk))
                    .filter(|cell| !cell.rim.is_empty())
                    .map(|cell| Arc::clone(&cell.rim))
                    .collect();
                ShardTask {
                    cell: cells.remove(region).expect("active cell exists"),
                    halo,
                    stream: region_stream_seed(self.schedule.seed, *region, self.rounds),
                    accept: self.table.accept,
                    map: self.schedule.map,
                }
            })
            .collect();
        (active, tasks)
    }

    /// The deterministic merge of one color step: outputs in task (=
    /// sorted region) order, then migrants routed, then the rims of the
    /// cells they joined refreshed.
    fn merge(&mut self, cells: &mut Cells, active: &[RegionId], outs: Vec<ShardStepOut>) {
        assert_eq!(outs.len(), active.len(), "executor dropped tasks");
        let map = self.schedule.map;
        let mut dirty: Vec<RegionId> = Vec::new();
        for (region, out) in active.iter().zip(outs) {
            debug_assert_eq!(*region, out.cell.region, "executor reordered outputs");
            self.count(&out.probes);
            if !out.cell.particles.is_empty() {
                cells.insert(*region, out.cell);
            }
            for (id, p) in out.emigrants {
                let dest = map.region_of(p.tail);
                debug_assert!(RegionMap::are_adjacent(*region, dest));
                cells
                    .entry(dest)
                    .or_insert_with(|| Box::new(RegionCell::new(dest)))
                    .admit(id, p);
                if !dirty.contains(&dest) {
                    dirty.push(dest);
                }
            }
        }
        for dest in dirty {
            cells
                .get_mut(&dest)
                .expect("emigrants joined this cell")
                .export_rim(&map);
        }
    }

    /// Builds the sharded representation from the flat state.
    fn build_cells(&self) -> Cells {
        let map = &self.schedule.map;
        let mut cells = Cells::default();
        for (id, p) in self.table.particles.iter().enumerate() {
            let region = map.region_of(p.tail);
            let cell = cells
                .entry(region)
                .or_insert_with(|| Box::new(RegionCell::new(region)));
            cell.admit(id, *p); // ascending ids: appended
            if self.crashed[id] {
                cell.crashed.push(id);
            }
        }
        for cell in cells.values_mut() {
            cell.export_rim(map);
        }
        cells
    }

    /// Writes the sharded representation back into the flat state. Cell
    /// grids hold flat-grid slots, so they copy over a word at a time.
    fn flatten(&mut self, cells: Cells) {
        let table = &mut self.table;
        table.occ.clear();
        for cell in cells.into_values() {
            for (id, p) in cell.particles {
                table.particles[id] = p;
            }
            cell.grid
                .for_each_tile(|tx, ty, bits, slots| table.occ.insert_tile(tx, ty, bits, slots));
        }
    }

    /// Serializes the simulator state as a compact text snapshot. The
    /// format carries no RNG state at all: streams are derived per
    /// `(seed, region, round)`, so `(seed, rounds)` is the complete
    /// randomness state — and no shard/worker count appears anywhere,
    /// which is what makes checkpoints portable across shard counts.
    #[must_use]
    pub fn snapshot(&self) -> String {
        use core::fmt::Write as _;
        let mut s = String::from("sops-sharded-snapshot v1\n");
        let _ = writeln!(s, "lambda={}", snapshot::f64_to_hex(self.table.lambda));
        let _ = writeln!(s, "seed={}", self.schedule.seed);
        let _ = writeln!(s, "region_tiles={}", self.schedule.map.region_tiles());
        let _ = writeln!(s, "rounds={}", self.rounds);
        let _ = writeln!(s, "activations={}", self.activations);
        let _ = writeln!(s, "moves={}", self.moves_completed);
        let _ = writeln!(s, "crashed={}", snapshot::bools_to_string(&self.crashed));
        self.table.write_particles(&mut s);
        s
    }

    /// Rebuilds a runner from a [`ShardedLocalRunner::snapshot`] text.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] when the text is malformed or describes an invalid
    /// state (overlapping sites, a head not adjacent to its tail, a
    /// coordinate beyond ±2^30, bad λ, `region_tiles` that
    /// [`RegionMap::new`] would clamp).
    //
    // Trust audit: unlike the asynchronous runner's `remaining=`/`queue=`
    // bookkeeping, nothing here can make `run_rounds` hang — sharded rounds
    // are counted, not event-driven, so every field only shapes the state.
    pub fn restore(text: &str) -> Result<ShardedLocalRunner, SnapshotError> {
        let fields = snapshot::Fields::parse(text, "sops-sharded-snapshot v1")?;
        Runner::restore_with(&fields, |_| {
            // A value `RegionMap::new` would clamp re-snapshots to other bytes.
            let region_tiles: u32 = fields.parse_num("region_tiles")?;
            if !(1..=MAX_REGION_TILES).contains(&region_tiles) {
                return Err(SnapshotError::Invalid(format!(
                    "region_tiles={region_tiles} outside 1..={MAX_REGION_TILES}"
                )));
            }
            Ok(Checkerboard {
                seed: fields.parse_num("seed")?,
                map: RegionMap::new(region_tiles),
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sops_system::{metrics, shapes};

    fn runner(n: usize, lambda: f64, seed: u64) -> ShardedLocalRunner {
        let sys = ParticleSystem::connected(shapes::line(n)).unwrap();
        ShardedLocalRunner::from_seed(&sys, lambda, seed).unwrap()
    }

    #[test]
    fn construction_validates_inputs() {
        let sys = ParticleSystem::connected(shapes::line(4)).unwrap();
        assert!(matches!(
            ShardedLocalRunner::from_seed(&sys, -1.0, 0),
            Err(ChainError::InvalidLambda(_))
        ));
        let disconnected = ParticleSystem::new([TriPoint::new(0, 0), TriPoint::new(9, 9)]).unwrap();
        assert!(matches!(
            ShardedLocalRunner::from_seed(&disconnected, 2.0, 0),
            Err(ChainError::NotConnected)
        ));
    }

    #[test]
    fn compression_happens_under_the_synchronous_schedule() {
        let mut r = runner(15, 5.0, 7);
        r.run_rounds(1_500);
        let tails = r.tail_system();
        assert!(tails.is_connected());
        let p = tails.perimeter();
        assert!(
            p < metrics::pmax(15) * 2 / 3,
            "synchronous schedule should compress: p = {p}"
        );
        assert!(r.moves_completed() > 0);
        r.assert_invariants();
    }

    #[test]
    fn reference_and_serial_sharded_agree_byte_for_byte() {
        for (n, lambda, seed, tiles) in [(10, 4.0, 3, 1), (17, 3.0, 11, 2), (24, 5.0, 5, 1)] {
            let sys = ParticleSystem::connected(shapes::line(n)).unwrap();
            let mut a = ShardedLocalRunner::with_region_tiles(&sys, lambda, seed, tiles).unwrap();
            let mut b = ShardedLocalRunner::with_region_tiles(&sys, lambda, seed, tiles).unwrap();
            a.run_rounds(120);
            b.run_rounds_with(120, &SerialExecutor);
            assert_eq!(a.snapshot(), b.snapshot(), "n={n} λ={lambda} seed={seed}");
            assert_eq!(a.probes(), b.probes());
            b.assert_invariants();
        }
    }

    #[test]
    fn interleaved_chunks_match_one_shot_runs() {
        let mut a = runner(12, 4.0, 21);
        let mut b = runner(12, 4.0, 21);
        a.run_rounds(90);
        // Mixing the two implementations across chunks must not matter.
        b.run_rounds_with(30, &SerialExecutor);
        b.run_rounds(25);
        b.run_rounds_with(35, &SerialExecutor);
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn crashed_particles_freeze_but_keep_blocking() {
        let mut r = runner(8, 3.0, 9);
        let frozen = r.tail_system().position(2);
        r.crash(2);
        r.run_rounds(300);
        assert_eq!(r.tail_system().position(2), frozen);
        assert!(r.activations() > 0);
        let mut s = runner(8, 3.0, 9);
        s.crash(2);
        s.run_rounds_with(300, &SerialExecutor);
        assert_eq!(r.snapshot(), s.snapshot());
    }

    #[test]
    fn snapshot_restore_continues_identically() {
        let mut a = runner(11, 4.0, 31);
        a.run_rounds(73);
        let snap = a.snapshot();
        let mut b = ShardedLocalRunner::restore(&snap).unwrap();
        b.assert_invariants();
        assert_eq!(a.rounds(), b.rounds());
        a.run_rounds(60);
        b.run_rounds_with(60, &SerialExecutor);
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn restore_rejects_bad_states() {
        let a = runner(4, 2.0, 1);
        let snap = a.snapshot();
        let corrupt = snap.replace("sops-sharded-snapshot v1", "sops-local-snapshot v1");
        assert!(ShardedLocalRunner::restore(&corrupt).is_err());
        let overlap = snap.replace("particles=0,0,0;", "particles=1,0,0;");
        assert!(ShardedLocalRunner::restore(&overlap).is_err());
    }

    fn assert_invalid(text: &str) {
        assert!(matches!(
            ShardedLocalRunner::restore(text),
            Err(SnapshotError::Invalid(_))
        ));
    }

    /// The snapshot of a one-particle runner with its `particles=` line
    /// replaced.
    fn lone_particle_at(particles: &str) -> String {
        let sys = ParticleSystem::new([TriPoint::new(0, 0)]).unwrap();
        let snap = ShardedLocalRunner::from_seed(&sys, 2.0, 1)
            .unwrap()
            .snapshot();
        snap.replace("particles=0,0,0", &format!("particles={particles}"))
    }

    #[test]
    fn restore_rejects_head_whose_adjacency_check_would_overflow() {
        // `is_adjacent` would subtract across the whole i32 range.
        assert_invalid(&lone_particle_at("-2147483648,0,2147483647,0,0"));
    }

    #[test]
    fn restore_rejects_tail_whose_neighbors_would_overflow() {
        // Without the bound this restores, and the first step east overflows.
        assert_invalid(&lone_particle_at("2147483647,0,0"));
        let text = lone_particle_at("1073741824,-1073741824,0");
        let mut flat = ShardedLocalRunner::restore(&text).unwrap();
        let mut sharded = ShardedLocalRunner::restore(&text).unwrap();
        flat.run_rounds(50);
        sharded.run_rounds_with(50, &SerialExecutor);
        assert_eq!(flat.snapshot(), sharded.snapshot());
    }

    #[test]
    fn restore_rejects_region_tiles_the_map_would_clamp() {
        let snap = runner(6, 4.0, 2).snapshot();
        let with_tiles = |t: u32| snap.replace("region_tiles=2", &format!("region_tiles={t}"));
        // `RegionMap::new` would silently turn these into 1 and 2^27 - 1.
        assert_invalid(&with_tiles(0));
        assert_invalid(&with_tiles(MAX_REGION_TILES + 1));
        for t in [1, MAX_REGION_TILES] {
            let mut r = ShardedLocalRunner::restore(&with_tiles(t)).unwrap();
            assert_eq!(r.snapshot(), with_tiles(t), "region_tiles={t} round-trips");
            r.run_rounds_with(3, &SerialExecutor);
            r.assert_invariants();
        }
    }

    /// The halo oracle: before every color step, each task's
    /// cell-plus-halo view answers every query the rule can make — at every
    /// site within distance 2 of a live particle's tail, which covers its
    /// head and the head's neighbors — exactly like the flat table the
    /// cells describe. The run then continues through the real merge, so
    /// the checked states are the ones `run_rounds_with` visits.
    #[test]
    fn halos_answer_every_read_like_the_flat_table() {
        use crate::local::FlatWorld;
        use rand::rngs::StdRng;
        let mut rng = StdRng::seed_from_u64(15);
        let start = ParticleSystem::connected(shapes::random_connected(400, &mut rng)).unwrap();
        for tiles in [1, 2] {
            let mut runner = ShardedLocalRunner::with_region_tiles(&start, 4.0, 3, tiles).unwrap();
            let mut reference = runner.clone();
            for id in [7, 100, 250] {
                runner.crash(id);
                reference.crash(id);
            }
            let mut cells = runner.build_cells();
            let (mut checked, mut foreign) = (0u64, 0u64);
            for _ in 0..25 {
                for color in 0..REGION_COLORS {
                    let mut particles = runner.table.particles.clone();
                    let mut occ = TileGrid::new();
                    for cell in cells.values() {
                        for &(id, p) in &cell.particles {
                            particles[id] = p;
                            occupy(&mut occ, id, &p).unwrap();
                        }
                    }
                    let flat = FlatWorld {
                        particles: &mut particles,
                        occ: &mut occ,
                    };
                    let (active, mut tasks) = runner.color_tasks(&mut cells, color);
                    let mut halo = TileGrid::new();
                    for task in &mut tasks {
                        task.fill_halo(&mut halo);
                        let live: Vec<(usize, Particle)> = task
                            .cell
                            .particles
                            .iter()
                            .filter(|(id, _)| task.cell.crashed.binary_search(id).is_err())
                            .copied()
                            .collect();
                        let world = CellWorld {
                            cell: &mut task.cell,
                            halo: &halo,
                            map: runner.schedule.map,
                            at: 0,
                            emigrants: Vec::new(),
                        };
                        for (id, p) in live {
                            for dx in -2..=2 {
                                for dy in -2..=2 {
                                    let q = TriPoint::new(p.tail.x + dx, p.tail.y + dy);
                                    if p.tail.distance(q) > 2 {
                                        continue;
                                    }
                                    let at = format!("{q} read by {id} (tiles={tiles})");
                                    assert_eq!(world.occupied(q), flat.occupied(q), "{at}");
                                    assert_eq!(
                                        world.expanded_other(q, id),
                                        flat.expanded_other(q, id),
                                        "{at}"
                                    );
                                    assert_eq!(
                                        world.tail_of_other(q, id),
                                        flat.tail_of_other(q, id),
                                        "{at}"
                                    );
                                    checked += 1;
                                    foreign += u64::from(halo.contains(q));
                                }
                            }
                        }
                    }
                    let outs = SerialExecutor.run_step(tasks);
                    runner.merge(&mut cells, &active, outs);
                }
                runner.rounds += 1;
            }
            runner.flatten(cells);
            reference.run_rounds(25);
            assert_eq!(runner.snapshot(), reference.snapshot(), "tiles={tiles}");
            // The halo really was read, not just the cell's own grid.
            assert!(foreign > checked / 50, "{foreign} of {checked} reads");
        }
    }

    #[test]
    fn stream_seeds_are_pure_and_distinct() {
        let s = region_stream_seed(7, (3, -2), 10);
        assert_eq!(s, region_stream_seed(7, (3, -2), 10));
        assert_ne!(s, region_stream_seed(7, (3, -2), 11));
        assert_ne!(s, region_stream_seed(7, (-2, 3), 10));
        assert_ne!(s, region_stream_seed(8, (3, -2), 10));
    }

    #[test]
    fn rounds_tick_even_when_everyone_crashed() {
        let mut r = runner(3, 2.0, 13);
        for id in 0..3 {
            r.crash(id);
        }
        r.run_rounds(5);
        assert_eq!(r.rounds(), 5);
        assert_eq!(r.activations(), 0);
        let mut s = runner(3, 2.0, 13);
        for id in 0..3 {
            s.crash(id);
        }
        s.run_rounds_with(5, &SerialExecutor);
        assert_eq!(r.snapshot(), s.snapshot());
    }
}
