//! Rejection-free (kinetic Monte Carlo) sampling of Markov chain `M`.
//!
//! In the regime the paper's main theorem lives in — `λ > 2 + √2` at or near
//! the α-compressed equilibrium (Theorem 4.5) — almost every step of the
//! naive chain is a rejection: the target is occupied, the five-neighbor
//! rule blocks, Properties 1/2 fail, or the Metropolis draw refuses. The
//! work per *accepted* move is then dominated by the no-ops between moves.
//! [`KmcChain`] eliminates them exactly.
//!
//! # Exact equivalence at step granularity
//!
//! One step of `M` in configuration `σ` selects a particle `P` and direction
//! `d` uniformly (probability `1/(6n)` per pair) and accepts with
//! probability `a(P, d) ∈ {0} ∪ {min(1, λ^(e′−e))}` — zero when the target
//! is occupied, the particle is crashed, `e = 5`, or neither Property holds.
//! Writing `S = Σ a(P, d)` for the total acceptance mass, each step
//! therefore independently:
//!
//! * accepts the specific move `m` with probability `a(m)/(6n)`, and
//! * rejects (a no-op) with probability `1 − S/(6n)`.
//!
//! Consequently, the number `K` of rejected steps before the next accepted
//! move is geometric, `P(K = k) = (1 − S/6n)^k · S/6n`, and the accepted
//! move is `m` with probability `a(m)/S`, independent of `K`:
//!
//! ```text
//! P(K = k, move = m) = (1 − S/6n)^k · a(m)/6n
//!                    = [Geom(S/6n)](k) · a(m)/S.
//! ```
//!
//! [`KmcChain`] samples exactly this product law: it draws `K` by inverting
//! the geometric CDF, advances its step counter by `K + 1`, and picks the
//! move proportionally to `a`. The distribution of the configuration at
//! *any* step index — and hence of [`crate::chain::TrajectoryPoint`]
//! sequences, [`KmcChain::run_until_compressed`] first hits, and stationary
//! histograms — is identical to the naive chain's. (The realized
//! trajectories differ: the two samplers consume randomness differently, so
//! they are equal in law, not bit-for-bit.) Because the geometric law is
//! memoryless, a dwell that is interrupted — by the end of a
//! [`KmcChain::run`] budget or by a [`KmcChain::crash`] that changes `S` —
//! can be kept or redrawn against the new `S` without biasing the process.
//!
//! # Incremental acceptance masses
//!
//! `a(P, d)` is a function of the 8-bit [`sops_lattice::PairRing`] occupancy
//! mask around `(ℓ, ℓ′ = ℓ + d)` plus the target bit, all within graph
//! distance 2 of `ℓ`. An accepted move changes occupancy at exactly two
//! sites, so only the pairs of [`sops_system::moves::revalidation_plan`]
//! need revalidation — ≤ 24 sites, each restricted to the directions whose
//! dependency set actually touches a changed site. An O(1) neighborhood per
//! accepted move.
//!
//! The sampler stores every pair's nine-bit mask (ring bits 0–7, target
//! bit 8), the six of particle `id` packed in word `id` as
//! [`sops_system::moves::pair_masks_in_window25`] packs them: one 5×5
//! window gather and five row-table lookups per particle at construction.
//! After a move, the bits a planned pair reads on `ℓ` (now empty) and `ℓ′`
//! (now occupied) are known in advance: each plan entry carries them as a
//! `(clear, set)` patch, so every planned particle except the mover gets
//! its masks by one clear and one set, without reading the grid, and only
//! the patched directions are reclassified. The mover's masks moved with
//! it, so it gathers all six afresh. Crashed particles are patched too,
//! keeping every stored mask exact; their classes stay zero.
//!
//! Masses take at most one distinct value `min(1, λ^Δ)` per energy delta
//! `Δ` in the [`Hamiltonian`]'s declared range (`Δ = e′ − e ∈ [−5, 5]`,
//! hence 11 classes, for the default edge count), so the table is a
//! **bucketed tower**, not a float tree: each structurally valid pair
//! `(P, d)` lives in the bucket of its `Δ`, `S` is the exactly-maintained
//! integer histogram folded against the per-class weights, and sampling is
//! one weighted draw over the classes followed by one uniform index draw.
//! Buckets stay sorted by pair index — a canonical form that makes the
//! table a pure function of the configuration (so snapshots can omit it and
//! still continue bit-for-bit) — and no floating-point accumulator ever
//! drifts: the histogram is integral, verified by a property test against a
//! from-scratch recount. The stored pair masks are a pure function of the
//! configuration as well; snapshots omit them and restores rebuild them,
//! and [`KmcChain::assert_invariants`] checks each against a fresh gather.
//!
//! The tower works for *any* [`Hamiltonian`] honoring the locality contract
//! of [`crate::hamiltonian`]: bounded integer deltas give the finitely many
//! integral buckets, and bounded support makes the post-move revalidation
//! plan (which only re-examines pairs whose ring touches the two changed
//! sites) exact.

use core::fmt;

use rand::rngs::StdRng;
use rand::Rng;
use sops_lattice::{Direction, TriPoint};
use sops_system::{moves, MoveValidity, ParticleSystem};

use crate::hamiltonian::{EdgeCount, Hamiltonian, MoveContext};
use crate::probes::KmcProbes;
use crate::sampler::{move_delta, Acceptance, Kernel, Sampler};
use crate::snapshot::{Fields, SnapshotError};

/// Class index marking a pair with zero acceptance mass.
const CLASS_NONE: u8 = u8::MAX;

/// Aggregate outcome counters of a [`KmcChain`].
///
/// The rejection-free sampler never resolves *which* kind of rejection each
/// skipped step would have been (that information is integrated out by the
/// geometric dwell), so unlike [`crate::chain::StepCounts`] only the
/// accepted-move count and the dwell geometry are available.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KmcCounts {
    /// Accepted (executed) moves.
    pub moved: u64,
    /// Largest single dwell: rejected steps skipped before one acceptance.
    /// Recorded when the dwell is *realized* (its accepted move executes),
    /// so a pending dwell cut short by a budget end or discarded by a crash
    /// never counts.
    pub max_jump: u64,
}

/// Bitset words per block: the finer of [`MassTable`]'s two summary levels.
const BLOCK_WORDS: usize = 16;

/// Blocks per superblock: the coarser summary level. A class bitset at
/// n = 10⁴ has 59 blocks in 4 superblocks; at n = 10⁶, 5860 blocks in 367.
const SUPER_BLOCKS: usize = 16;

/// The acceptance-mass table: every structurally valid pair `(P, d)`
/// bucketed by its energy delta, supporting O(1) reclassification and
/// weighted sampling by class draw + rank/select.
///
/// Each class is a **bitset over pair indices** (one bit per `(P, d)`).
/// Because membership is positional, the whole table is a pure function of
/// (configuration, crash set) — no trace of mutation history survives. That
/// canonical form is what lets [`KmcChain::snapshot`] omit the table
/// entirely and still promise a bitwise-identical continuation after
/// [`KmcChain::restore`]: the rebuilt table samples the same pair for the
/// same RNG draws.
///
/// Each class bitset (`6n/64` words — 150 at n = 1600, 938 at n = 10⁴)
/// carries two summary levels: a member count per block of [`BLOCK_WORDS`]
/// words and one per superblock of [`SUPER_BLOCKS`] blocks. Reclassifying
/// a pair flips two bits and bumps the class, block and superblock counts
/// on each side; selecting the `j`-th member of a class walks the
/// superblock counts, then at most [`SUPER_BLOCKS`] block counts, then
/// popcount-scans at most [`BLOCK_WORDS`] words. The counts are a pure
/// function of the bitsets, so the canonical form is unchanged.
///
/// The class count is the span of the [`Hamiltonian`]'s delta range (11
/// for the default edge count; at most 255, since class indices live in a
/// `u8` beside the [`CLASS_NONE`] sentinel).
#[derive(Clone, Debug)]
struct MassTable {
    /// Per pair index `P·6 + d`: its class (`CLASS_NONE` = zero mass).
    class: Vec<u8>,
    /// Words per class bitset.
    stride: usize,
    /// Concatenated class bitsets: class `c` owns words
    /// `[c·stride, (c+1)·stride)`; bit `k` of a bitset = pair `k`.
    bits: Vec<u64>,
    /// Blocks per class bitset: `stride / BLOCK_WORDS`, rounded up.
    blocks: usize,
    /// Concatenated per-block member counts: class `c` owns
    /// `[c·blocks, (c+1)·blocks)`; entry `b` counts the set bits of words
    /// `[b·BLOCK_WORDS, (b+1)·BLOCK_WORDS)` of its bitset.
    block_count: Vec<u32>,
    /// Superblocks per class: `blocks / SUPER_BLOCKS`, rounded up.
    supers: usize,
    /// Concatenated per-superblock member counts, laid out like
    /// `block_count`: entry `s` sums blocks
    /// `[s·SUPER_BLOCKS, (s+1)·SUPER_BLOCKS)`.
    super_count: Vec<u32>,
    /// Member count per class.
    count: Vec<u32>,
}

impl MassTable {
    fn new(pairs: usize, classes: usize) -> MassTable {
        let stride = pairs.div_ceil(64);
        let blocks = stride.div_ceil(BLOCK_WORDS);
        let supers = blocks.div_ceil(SUPER_BLOCKS);
        MassTable {
            class: vec![CLASS_NONE; pairs],
            stride,
            bits: vec![0; stride * classes],
            blocks,
            block_count: vec![0; blocks * classes],
            supers,
            super_count: vec![0; supers * classes],
            count: vec![0; classes],
        }
    }

    /// Moves pair `k` to `class` (possibly `CLASS_NONE`). O(1).
    fn set(&mut self, k: usize, class: u8) {
        let old = self.class[k];
        if old == class {
            return;
        }
        let (word, bit) = (k / 64, 1u64 << (k % 64));
        let block = word / BLOCK_WORDS;
        let sup = block / SUPER_BLOCKS;
        if old != CLASS_NONE {
            let old = old as usize;
            self.bits[old * self.stride + word] &= !bit;
            self.block_count[old * self.blocks + block] -= 1;
            self.super_count[old * self.supers + sup] -= 1;
            self.count[old] -= 1;
        }
        if class != CLASS_NONE {
            let class = class as usize;
            self.bits[class * self.stride + word] |= bit;
            self.block_count[class * self.blocks + block] += 1;
            self.super_count[class * self.supers + sup] += 1;
            self.count[class] += 1;
        }
        self.class[k] = class;
    }

    /// Pairs per class — the integral state `S` is derived from.
    fn histogram(&self) -> Vec<u64> {
        self.count.iter().map(|&n| u64::from(n)).collect()
    }

    /// Total acceptance mass `S`, folded in fixed class order so identical
    /// histograms always produce the identical float.
    fn total(&self, weight: &[f64]) -> f64 {
        self.count
            .iter()
            .zip(weight)
            .map(|(&n, w)| f64::from(n) * w)
            .sum()
    }

    /// The `j`-th member (0-based, ascending pair index) of `class`.
    fn select(&self, class: usize, j: u32) -> u32 {
        let mut remaining = j;
        let supers = &self.super_count[class * self.supers..(class + 1) * self.supers];
        let first_block = locate(supers, &mut remaining) * SUPER_BLOCKS;
        let blocks = &self.block_count[class * self.blocks..(class + 1) * self.blocks];
        let blocks = &blocks[first_block..self.blocks.min(first_block + SUPER_BLOCKS)];
        let first = (first_block + locate(blocks, &mut remaining)) * BLOCK_WORDS;
        let words = &self.bits[class * self.stride..(class + 1) * self.stride];
        let words = &words[first..self.stride.min(first + BLOCK_WORDS)];
        for (wi, &word) in words.iter().enumerate() {
            let ones = word.count_ones();
            if remaining < ones {
                // Clear the lowest `remaining` set bits, then read the next.
                let mut w = word;
                for _ in 0..remaining {
                    w &= w - 1;
                }
                return ((first + wi) * 64) as u32 + w.trailing_zeros();
            }
            remaining -= ones;
        }
        unreachable!("block count disagrees with its words")
    }

    /// Draws a pair with probability proportional to its mass.
    ///
    /// `total` must be this table's positive total mass. Consumes one `f64`
    /// for the class and one bounded integer for the index.
    fn sample<R: Rng>(&self, weight: &[f64], total: f64, rng: &mut R) -> u32 {
        let mut target = rng.gen::<f64>() * total;
        let mut last_nonempty = usize::MAX;
        for (c, &n) in self.count.iter().enumerate() {
            if n == 0 {
                continue;
            }
            last_nonempty = c;
            let mass = f64::from(n) * weight[c];
            if target < mass {
                return self.select(c, rng.gen_range(0..n));
            }
            target -= mass;
        }
        // Float round-off can push the target past the final class; fall
        // back to a uniform member of the last non-empty class.
        let n = self.count[last_nonempty];
        self.select(last_nonempty, rng.gen_range(0..n))
    }

    /// Checks class/bitset/summary-count agreement.
    fn assert_valid(&self) {
        for c in 0..self.count.len() {
            let words = &self.bits[c * self.stride..(c + 1) * self.stride];
            let mut members = 0u32;
            for (wi, &word) in words.iter().enumerate() {
                members += word.count_ones();
                let mut w = word;
                while w != 0 {
                    let k = wi * 64 + w.trailing_zeros() as usize;
                    w &= w - 1;
                    assert_eq!(self.class[k], c as u8, "pair {k} misfiled");
                }
            }
            assert_eq!(members, self.count[c], "class {c} count drifted");
            let blocks = &self.block_count[c * self.blocks..(c + 1) * self.blocks];
            for (b, chunk) in words.chunks(BLOCK_WORDS).enumerate() {
                let ones: u32 = chunk.iter().map(|w| w.count_ones()).sum();
                assert_eq!(blocks[b], ones, "class {c} block {b} count drifted");
            }
            for (s, chunk) in blocks.chunks(SUPER_BLOCKS).enumerate() {
                assert_eq!(
                    self.super_count[c * self.supers + s],
                    chunk.iter().sum::<u32>(),
                    "class {c} superblock {s} count drifted"
                );
            }
        }
        let counted: u32 = self.count.iter().sum();
        let classed = self.class.iter().filter(|&&c| c != CLASS_NONE).count();
        assert_eq!(counted as usize, classed, "membership drifted");
    }
}

/// The index of the entry of `counts` that holds the member of rank
/// `*remaining` (0-based, counted from the first entry), leaving in
/// `*remaining` that member's rank within the entry.
fn locate(counts: &[u32], remaining: &mut u32) -> usize {
    counts
        .iter()
        .position(|&n| {
            let inside = *remaining < n;
            if !inside {
                *remaining -= n;
            }
            inside
        })
        .expect("selection index exceeds class cardinality")
}

/// The acceptance class of the move described by `ctx`: its
/// [`Acceptance::class`], or [`CLASS_NONE`] when `M` never makes it.
fn class_of_move<H: Hamiltonian>(
    hamiltonian: &H,
    acceptance: &Acceptance,
    ctx: &MoveContext<'_>,
) -> u8 {
    move_delta(hamiltonian, ctx).map_or(CLASS_NONE, |delta| acceptance.class(delta) as u8)
}

/// Files the pairs of particle `id` at `pos` in the directions `dirs` (bit
/// `i` = `Direction::from_index(i)`) under the classes their pair masks
/// give, `masks` being the particle's six packed pair masks
/// ([`moves::pair_masks_in_window25`] layout).
///
/// Structural validity is decoded from each mask; the Hamiltonian then
/// classifies each structurally valid move. A free function over split
/// borrows so the revalidation closure in `accept_move` can mutate the
/// table while reading the configuration. Directions outside `dirs` are
/// untouched — the caller guarantees their dependency sets did not change
/// (this is exactly where the locality contract of [`crate::hamiltonian`]
/// is load-bearing).
#[allow(clippy::too_many_arguments)]
fn classify_pairs<H: Hamiltonian>(
    hamiltonian: &H,
    acceptance: &Acceptance,
    sys: &ParticleSystem,
    masses: &mut MassTable,
    id: usize,
    pos: TriPoint,
    masks: u64,
    dirs: u8,
) {
    let mut bits = dirs;
    while bits != 0 {
        let d = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        let dir = Direction::from_index(d);
        let mask = moves::pair_mask(masks, dir);
        // An occupied target blocks the move (most pairs of a compressed
        // configuration): skip decoding the rest of the mask.
        let class = if mask & moves::PAIR_TARGET_BIT != 0 {
            CLASS_NONE
        } else {
            let ctx = MoveContext {
                sys,
                id,
                from: pos,
                dir,
                validity: MoveValidity::from_pair_mask(mask),
            };
            class_of_move(hamiltonian, acceptance, &ctx)
        };
        masses.set(id * 6 + d, class);
    }
}

/// A drawn-but-not-yet-realized geometric dwell.
#[derive(Clone, Copy, Debug)]
struct Dwell {
    /// Absolute step index of the next accepted move.
    at: u64,
    /// Rejected steps the dwell skips (recorded into [`KmcCounts`] only
    /// when the acceptance actually executes).
    skipped: u64,
}

/// The rejection-free kernel: the acceptance-mass table, the pair masks it
/// is classified from, and the pending dwell.
#[derive(Clone, Debug)]
pub struct RejectionFree {
    masses: MassTable,
    /// Per particle: its six pair masks, packed as
    /// [`moves::pair_masks_in_window25`] packs them (pair `(id, d)` at bits
    /// `[9d, 9d + 9)` of word `id`). Exact for every particle, crashed ones
    /// included; like `masses`, a pure function of the configuration.
    pair_masks: Vec<u64>,
    /// The next accepted move, when its dwell is already drawn.
    pending: Option<Dwell>,
    counts: KmcCounts,
    /// Telemetry side channel: never serialized, never read by the
    /// algorithm (see [`crate::probes`] for the determinism contract).
    probes: KmcProbes,
}

/// A rejection-free sampler of Markov chain `M`, equal in law to
/// [`crate::chain::CompressionChain`] at step granularity (see the
/// [module docs](self) for the argument) but doing work proportional to
/// *accepted* moves only: a [`Sampler`] over the [`RejectionFree`] kernel,
/// with [`KmcCounts`] in place of per-category rejection counts.
///
/// # Example
///
/// ```
/// use sops_core::kmc::KmcChain;
/// use sops_system::{shapes, ParticleSystem};
///
/// let start = ParticleSystem::connected(shapes::spiral(50)).unwrap();
/// let mut kmc = KmcChain::from_seed(start, 6.0, 1).unwrap();
/// let accepted = kmc.run(100_000);
/// assert_eq!(kmc.steps(), 100_000);
/// assert!(accepted > 0 && kmc.system().is_connected());
/// ```
pub type KmcChain<R = StdRng, H = EdgeCount> = Sampler<RejectionFree, R, H>;

impl Kernel for RejectionFree {
    const HEADER: &'static str = "sops-kmc-snapshot v1";
    type Counts = KmcCounts;
    type Probes = KmcProbes;

    /// Gathers every particle's pair masks and classifies its pairs: O(n).
    fn new<H: Hamiltonian>(
        sys: &ParticleSystem,
        hamiltonian: &H,
        acceptance: &Acceptance,
    ) -> RejectionFree {
        let n = sys.len();
        let mut kernel = RejectionFree {
            masses: MassTable::new(6 * n, acceptance.weights().len()),
            pair_masks: vec![0; n],
            pending: None,
            counts: KmcCounts::default(),
            probes: KmcProbes::default(),
        };
        for id in 0..n {
            let pos = sys.position(id);
            let masks = moves::pair_masks_in_window25(sys.window25(pos));
            kernel.pair_masks[id] = masks;
            let masses = &mut kernel.masses;
            classify_pairs(hamiltonian, acceptance, sys, masses, id, pos, masks, 0x3f);
        }
        kernel
    }

    /// Does work proportional to the accepted moves only.
    fn run<R: Rng, H: Hamiltonian>(kmc: &mut KmcChain<R, H>, steps: u64) -> u64 {
        let before = kmc.kernel.counts.moved;
        let target = kmc.steps.saturating_add(steps);
        while kmc.steps < target {
            let Some(dwell) = kmc.next_acceptance() else {
                // Zero acceptance mass: every remaining step is a no-op.
                kmc.steps = target;
                break;
            };
            if dwell.at > target {
                // The dwell extends past this budget; keep it pending
                // (memorylessness makes either choice exact, keeping it is
                // deterministic for snapshots) and burn the budget.
                kmc.steps = target;
                break;
            }
            kmc.steps = dwell.at;
            let kernel = &mut kmc.kernel;
            kernel.pending = None;
            // The dwell is realized — only now does it count.
            kernel.counts.max_jump = kernel.counts.max_jump.max(dwell.skipped);
            kernel.probes.dwell.record(dwell.skipped);
            kmc.accept_move();
        }
        kmc.kernel.counts.moved - before
    }

    fn counts(&self) -> KmcCounts {
        self.counts
    }

    fn probes(&self) -> &KmcProbes {
        &self.probes
    }

    /// Zeroes the particle's six masses and discards any pending dwell —
    /// the geometric law is memoryless, so redrawing against the reduced
    /// mass is exact.
    fn crash(&mut self, id: usize) {
        for d in 0..6 {
            self.masses.set(id * 6 + d, CLASS_NONE);
        }
        self.pending = None;
    }

    fn encode(&self, out: &mut String) {
        let pending = self
            .pending
            .map_or_else(|| "none".into(), |d| format!("{},{}", d.at, d.skipped));
        let KmcCounts { moved, max_jump } = self.counts;
        out.push_str(&format!("counts={moved},{max_jump}\npending={pending}\n"));
    }

    /// Runs after the crash set, whose crashes clear any pending dwell: the
    /// stored dwell was drawn against the post-crash mass.
    fn decode(&mut self, fields: &Fields<'_>, steps: u64) -> Result<(), SnapshotError> {
        let [moved, max_jump] = fields.parse_array("counts")?;
        self.counts = KmcCounts { moved, max_jump };
        self.pending = if fields.get("pending")? == "none" {
            None
        } else {
            let [at, skipped]: [u64; 2] = fields.parse_array("pending")?;
            if at <= steps {
                return Err(SnapshotError::Invalid(format!(
                    "pending acceptance at step {at} does not lie after step {steps}"
                )));
            }
            // A dwell drawn at step `s` has `at = s + skipped + 1`.
            let drawn = at.checked_sub(skipped).and_then(|d| d.checked_sub(1));
            if !drawn.is_some_and(|d| d <= steps) {
                return Err(SnapshotError::Invalid(format!(
                    "pending dwell at={at},skipped={skipped} was not drawn by step {steps}"
                )));
            }
            Some(Dwell { at, skipped })
        };
        Ok(())
    }
}

impl<R: Rng, H: Hamiltonian> KmcChain<R, H> {
    /// Fraction of simulated steps that moved a particle.
    #[must_use]
    pub fn acceptance_rate(&self) -> f64 {
        if self.steps == 0 {
            return 0.0;
        }
        self.kernel.counts.moved as f64 / self.steps as f64
    }

    /// The current per-class pair counts, as maintained incrementally.
    ///
    /// Class `c` holds the structurally valid pairs with energy delta
    /// `Δ = delta_min + c` (`c − 5` for the default edge count); the total
    /// acceptance mass is the histogram folded against `min(1, λ^Δ)`.
    /// Exposed for the incremental-vs-recomputed property test and for
    /// diagnostics.
    #[must_use]
    pub fn mass_histogram(&self) -> Vec<u64> {
        self.kernel.masses.histogram()
    }

    /// The per-class pair counts recomputed from scratch off the current
    /// configuration — the oracle [`KmcChain::mass_histogram`] must equal
    /// exactly (both are integral, so equality is not approximate).
    #[must_use]
    pub fn recomputed_mass_histogram(&self) -> Vec<u64> {
        let mut h = vec![0u64; self.acceptance.weights().len()];
        for id in 0..self.sys.len() {
            if self.crashed[id] {
                continue;
            }
            let from = self.sys.position(id);
            for dir in Direction::ALL {
                // Deliberately through the grid-backed check_move, not the
                // window gather: the recount is an independent oracle.
                let ctx = MoveContext {
                    sys: &self.sys,
                    id,
                    from,
                    dir,
                    validity: self.sys.check_move(from, dir),
                };
                let c = class_of_move(&self.hamiltonian, &self.acceptance, &ctx);
                if c != CLASS_NONE {
                    h[c as usize] += 1;
                }
            }
        }
        h
    }

    /// The total acceptance mass `S = Σ a(P, d)`.
    #[must_use]
    pub fn total_mass(&self) -> f64 {
        self.kernel.masses.total(self.acceptance.weights())
    }

    /// The next accepted move's dwell, drawing it if none is pending.
    /// `None` when the acceptance mass is zero (no move will ever be
    /// accepted from this state).
    fn next_acceptance(&mut self) -> Option<Dwell> {
        if let Some(dwell) = self.kernel.pending {
            return Some(dwell);
        }
        let total = self.total_mass();
        if total <= 0.0 {
            return None;
        }
        let p = (total / (6.0 * self.sys.len() as f64)).min(1.0);
        let skipped = if p >= 1.0 {
            0
        } else {
            // Invert the geometric CDF: K = ⌊ln(1 − u) / ln(1 − p)⌋ has
            // P(K = k) = (1 − p)^k · p for u uniform in [0, 1).
            let u: f64 = self.rng.gen();
            let k = ((1.0 - u).ln() / (1.0 - p).ln()).floor();
            if k.is_finite() && k >= 0.0 && k <= u64::MAX as f64 / 4.0 {
                k as u64
            } else {
                u64::MAX / 4
            }
        };
        let dwell = Dwell {
            at: self.steps.saturating_add(skipped).saturating_add(1),
            skipped,
        };
        self.kernel.pending = Some(dwell);
        Some(dwell)
    }

    /// Applies the next accepted move (the step counter must already sit on
    /// the acceptance index) and revalidates its neighborhood.
    fn accept_move(&mut self) {
        let weights = self.acceptance.weights();
        let total = self.kernel.masses.total(weights);
        let k = self.kernel.masses.sample(weights, total, &mut self.rng) as usize;
        let id = k / 6;
        let dir = Direction::from_index(k % 6);
        let from = self.sys.position(id);
        self.sys
            .move_particle(id, dir)
            .expect("mass table holds only structurally valid moves");
        self.kernel.counts.moved += 1;
        // Revalidate exactly the pairs the occupancy change can touch;
        // borrow the fields separately so the closure can mutate the tables
        // while reading the configuration.
        let sys = &self.sys;
        let masses = &mut self.kernel.masses;
        let pair_masks = &mut self.kernel.pair_masks;
        let crashed = &self.crashed;
        let (hamiltonian, acceptance) = (&self.hamiltonian, &self.acceptance);
        let mut fanout = 0u64;
        sys.for_each_particle_near_move(from, dir, |qid, qpos, entry| {
            fanout += u64::from(entry.dirs.count_ones());
            let masks = if qid == id {
                // The mover's pairs all moved with it: gather them afresh.
                moves::pair_masks_in_window25(sys.window25(qpos))
            } else {
                entry.patch(pair_masks[qid])
            };
            pair_masks[qid] = masks;
            // A crashed particle's masks stay exact, but its classes stay
            // CLASS_NONE.
            if !crashed[qid] {
                classify_pairs(
                    hamiltonian,
                    acceptance,
                    sys,
                    masses,
                    qid,
                    qpos,
                    masks,
                    entry.dirs,
                );
            }
        });
        self.kernel.probes.revalidation_fanout.record(fanout);
        self.check_lemmas();
        if self.validate {
            self.assert_invariants();
        }
    }

    /// Checks internal invariants: configuration coherence, stored pair
    /// masks equal to a fresh window gather at every particle, and exact
    /// agreement of the incremental mass table with a from-scratch recount.
    ///
    /// # Panics
    ///
    /// Panics if any invariant is violated.
    pub fn assert_invariants(&self) {
        self.sys.assert_invariants();
        self.kernel.masses.assert_valid();
        for (id, &masks) in self.kernel.pair_masks.iter().enumerate() {
            let fresh = moves::pair_masks_in_window25(self.sys.window25(self.sys.position(id)));
            assert_eq!(masks, fresh, "pair masks of particle {id} drifted");
        }
        assert_eq!(
            self.mass_histogram(),
            self.recomputed_mass_histogram(),
            "incremental acceptance masses drifted from the configuration"
        );
    }
}

impl<R: Rng, H: Hamiltonian> fmt::Display for KmcChain<R, H> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "KmcChain(n={}, λ={}, steps={}, accepted={})",
            self.sys.len(),
            self.lambda,
            self.steps,
            self.kernel.counts.moved
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::ChainError;
    use rand::SeedableRng;
    use sops_system::{metrics, shapes};

    fn line_kmc(n: usize, lambda: f64, seed: u64) -> KmcChain {
        let sys = ParticleSystem::connected(shapes::line(n)).unwrap();
        KmcChain::from_seed(sys, lambda, seed).unwrap()
    }

    #[test]
    fn select_matches_a_linear_scan_across_blocks() {
        // 6·5000 pairs: 469 words per class, so 30 blocks in 2
        // superblocks; the last block and the last superblock are partial.
        let pairs = 6 * 5000;
        let classes = 11;
        let mut table = MassTable::new(pairs, classes);
        let mut rng = StdRng::seed_from_u64(16);
        for batch in 0..24 {
            // Odd batches mostly clear pairs, so classes also run sparse.
            let clear_share = if batch % 2 == 1 { 0.8 } else { 0.2 };
            for _ in 0..3000 {
                let k = rng.gen_range(0..pairs);
                let class = if rng.gen::<f64>() < clear_share {
                    CLASS_NONE
                } else {
                    rng.gen_range(0..classes as u8)
                };
                table.set(k, class);
            }
            table.assert_valid();
            for c in 0..classes {
                let members: Vec<u32> = (0..pairs as u32)
                    .filter(|&k| table.class[k as usize] == c as u8)
                    .collect();
                assert_eq!(members.len() as u32, table.count[c]);
                for (j, &k) in members.iter().enumerate() {
                    assert_eq!(table.select(c, j as u32), k, "class {c}, j = {j}");
                }
            }
        }
    }

    #[test]
    fn masses_stay_exact_across_many_blocks_and_a_crash() {
        let mut rng = StdRng::seed_from_u64(2000);
        let sys = ParticleSystem::connected(shapes::random_connected(2000, &mut rng)).unwrap();
        let mut kmc = KmcChain::from_seed(sys, 4.0, 3).unwrap();
        kmc.run(200_000);
        assert!(kmc.counts().moved > 0);
        kmc.crash(1000);
        kmc.run(100_000);
        assert_eq!(kmc.mass_histogram(), kmc.recomputed_mass_histogram());
        kmc.assert_invariants();
    }

    /// Pair masks and the mass table stay exact at n = 10⁵, where the
    /// class bitsets span many superblocks, with a crashed particle in the
    /// way. Validation recounts all 6·10⁵ pairs after every accepted move,
    /// so this runs in release: `cargo test --release -p sops_core --lib --
    /// --ignored`.
    #[test]
    #[ignore = "n = 10⁵ with per-move validation: run in release"]
    fn pair_masks_stay_exact_at_n_1e5() {
        let sys = ParticleSystem::connected(shapes::spiral(100_000)).unwrap();
        let mut kmc = KmcChain::from_seed(sys, 4.0, 20).unwrap();
        kmc.set_validation(true);
        kmc.run(1_000_000);
        kmc.crash(99_999);
        kmc.run(1_000_000);
        kmc.assert_invariants();
        assert!(
            kmc.counts().moved > 200,
            "too few moves to exercise the patches"
        );
    }

    #[test]
    fn rejects_bad_lambda_and_disconnected_start() {
        let sys = ParticleSystem::connected(shapes::line(3)).unwrap();
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = KmcChain::from_seed(sys.clone(), bad, 0).unwrap_err();
            assert!(matches!(err, ChainError::InvalidLambda(_)), "{bad}");
        }
        let apart = ParticleSystem::new([TriPoint::new(0, 0), TriPoint::new(9, 9)]).unwrap();
        let err = KmcChain::from_seed(apart, 2.0, 0).unwrap_err();
        assert!(matches!(err, ChainError::NotConnected));
    }

    #[test]
    fn run_advances_exactly_and_reproducibly() {
        let mut a = line_kmc(10, 4.0, 42);
        let mut b = line_kmc(10, 4.0, 42);
        a.run(5_000);
        b.run(2_500);
        b.run(2_500);
        assert_eq!(a.steps(), 5_000);
        assert_eq!(b.steps(), 5_000);
        assert_eq!(a.counts(), b.counts());
        assert_eq!(a.system().canonical_key(), b.system().canonical_key());
    }

    #[test]
    fn masses_stay_exact_under_long_runs() {
        let mut kmc = line_kmc(15, 3.0, 7);
        kmc.run(50_000);
        kmc.assert_invariants();
        assert!(kmc.counts().moved > 0);
        assert!(kmc.acceptance_rate() > 0.0 && kmc.acceptance_rate() < 1.0);
    }

    #[test]
    fn validation_mode_checks_every_accepted_move() {
        let mut kmc = line_kmc(12, 4.0, 3);
        kmc.set_validation(true);
        kmc.run(20_000);
        assert!(kmc.system().is_connected());
        assert!(kmc.is_hole_free());
    }

    #[test]
    fn compresses_at_high_lambda() {
        let mut kmc = line_kmc(20, 5.0, 9);
        kmc.run(200_000);
        let p = kmc.perimeter();
        assert!(
            p <= 2 * metrics::pmin(20),
            "perimeter {p} should approach pmin = {}",
            metrics::pmin(20)
        );
    }

    #[test]
    fn eliminates_holes_from_annulus() {
        let sys = ParticleSystem::connected(shapes::annulus(3)).unwrap();
        let mut kmc = KmcChain::from_seed(sys, 4.0, 11).unwrap();
        assert!(!kmc.is_hole_free());
        kmc.run(200_000);
        assert!(kmc.is_hole_free(), "holes must eventually vanish");
        assert_eq!(kmc.perimeter(), kmc.system().perimeter());
    }

    #[test]
    fn single_particle_has_zero_mass_and_never_moves() {
        let sys = ParticleSystem::new([TriPoint::ORIGIN]).unwrap();
        let mut kmc = KmcChain::from_seed(sys, 4.0, 0).unwrap();
        assert_eq!(kmc.total_mass(), 0.0);
        assert_eq!(kmc.run(10_000), 0);
        assert_eq!(kmc.steps(), 10_000);
        assert_eq!(kmc.counts().moved, 0);
    }

    #[test]
    fn crashed_particles_never_move_and_drop_their_mass() {
        let mut kmc = line_kmc(10, 4.0, 5);
        let frozen = kmc.system().position(0);
        assert!(!kmc.crash(0));
        assert!(kmc.crash(0), "second crash reports prior state");
        assert_eq!(kmc.crashed_count(), 1);
        kmc.assert_invariants();
        kmc.run(20_000);
        assert_eq!(kmc.system().position(0), frozen);
        kmc.assert_invariants();
    }

    #[test]
    fn all_crashed_system_is_frozen() {
        let mut kmc = line_kmc(5, 4.0, 1);
        for id in 0..5 {
            kmc.crash(id);
        }
        assert_eq!(kmc.total_mass(), 0.0);
        assert_eq!(kmc.run(5_000), 0);
        assert_eq!(kmc.steps(), 5_000);
    }

    #[test]
    fn run_until_compressed_reports_first_hit() {
        let mut kmc = line_kmc(15, 6.0, 11);
        let hit = kmc.run_until_compressed(1.8, 2_000_000);
        assert!(hit.is_some(), "λ=6 must compress a 15-particle line");
        let p = kmc.perimeter() as f64;
        assert!(p <= 1.8 * metrics::pmin(15) as f64);
    }

    #[test]
    fn trajectory_matches_chain_schedule() {
        let mut kmc = line_kmc(10, 2.0, 13);
        let traj = kmc.trajectory(1000, 100);
        assert_eq!(traj.len(), 11);
        for w in traj.windows(2) {
            assert!(w[0].step < w[1].step);
        }
        for pt in traj {
            assert_eq!(pt.holes, 0);
            assert_eq!(pt.edges, 3 * 10 - pt.perimeter - 3);
        }
    }

    #[test]
    fn snapshot_restore_continues_identically() {
        let mut a = line_kmc(12, 4.0, 99);
        a.run(3_333);
        let snap = a.snapshot();
        let mut b: KmcChain = KmcChain::restore(&snap).unwrap();
        assert_eq!(a.steps(), b.steps());
        assert_eq!(a.counts(), b.counts());
        a.run(5_000);
        b.run(5_000);
        assert_eq!(a.counts(), b.counts());
        assert_eq!(a.system().positions(), b.system().positions());
    }

    #[test]
    fn snapshot_preserves_crash_set_and_flags() {
        let mut a = line_kmc(10, 3.0, 4);
        a.crash(2);
        a.crash(7);
        a.set_validation(true);
        a.run(1_000);
        let b: KmcChain = KmcChain::restore(&a.snapshot()).unwrap();
        assert_eq!(b.crashed_count(), 2);
        assert!((b.lambda() - 3.0).abs() < 1e-15);
        assert_eq!(b.mass_histogram(), a.mass_histogram());
    }

    #[test]
    fn restore_rejects_malformed_snapshots() {
        assert!(matches!(
            KmcChain::<StdRng>::restore("not a snapshot").unwrap_err(),
            SnapshotError::WrongHeader { .. }
        ));
        let valid = line_kmc(5, 2.0, 1).snapshot();
        let truncated: String = valid
            .lines()
            .filter(|l| !l.starts_with("pending="))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(matches!(
            KmcChain::<StdRng>::restore(&truncated).unwrap_err(),
            SnapshotError::MissingField("pending")
        ));
        // A pending acceptance at or before the restored step counter would
        // rewind the chain; such snapshots are rejected, not replayed.
        let mut ran = line_kmc(5, 2.0, 1);
        ran.run(1_000);
        let rewound: String = ran
            .snapshot()
            .lines()
            .map(|l| {
                if l.starts_with("pending=") {
                    "pending=5,3\n".to_string()
                } else {
                    format!("{l}\n")
                }
            })
            .collect();
        assert!(matches!(
            KmcChain::<StdRng>::restore(&rewound).unwrap_err(),
            SnapshotError::Invalid(_)
        ));
    }

    #[test]
    fn restore_rejects_a_hole_free_latch_on_a_configuration_with_holes() {
        let sys = ParticleSystem::connected(shapes::annulus(3)).unwrap();
        let kmc = KmcChain::from_seed(sys, 4.0, 9).unwrap();
        let snap = kmc.snapshot();
        assert!(snap.contains("hole_free=0\n"));
        let forged = snap.replace("hole_free=0\n", "hole_free=1\n");
        assert!(matches!(
            KmcChain::<StdRng>::restore(&forged).unwrap_err(),
            SnapshotError::Invalid(_)
        ));
        let line = line_kmc(6, 4.0, 1).snapshot();
        let lazy = line.replace("hole_free=1\n", "hole_free=0\n");
        let mut restored = KmcChain::<StdRng>::restore(&lazy).unwrap();
        assert!(restored.is_hole_free());
    }

    #[test]
    fn lambda_below_one_weights_positive_deltas() {
        // For λ < 1, gaining edges is *penalized*: classes with δ > 0 carry
        // mass λ^δ < 1. The sampler must still be exact.
        let mut kmc = line_kmc(8, 0.5, 21);
        kmc.run(30_000);
        kmc.assert_invariants();
        assert!(kmc.counts().moved > 0);
    }

    #[test]
    fn alignment_kmc_masses_stay_exact_and_snapshots_round_trip() {
        use crate::hamiltonian::Alignment;
        let sys = ParticleSystem::connected(shapes::line(14))
            .unwrap()
            .with_random_orientations(3, 9);
        let mut a = KmcChain::from_seed_with(sys, 3.0, 11, Alignment::new(3)).unwrap();
        // Validation re-checks the incremental mass table against a
        // from-scratch recount after every accepted move — this is the
        // locality contract of the alignment Hamiltonian under test.
        a.set_validation(true);
        a.run(20_000);
        a.assert_invariants();
        assert!(a.counts().moved > 0);
        let snap = a.snapshot();
        assert!(snap.contains("hamiltonian=alignment:3"));
        assert!(snap.contains("orientations="));
        let mut b: KmcChain<StdRng, Alignment> = KmcChain::restore(&snap).unwrap();
        assert_eq!(b.mass_histogram(), a.mass_histogram());
        a.run(5_000);
        b.run(5_000);
        assert_eq!(a.counts(), b.counts());
        assert_eq!(a.system().positions(), b.system().positions());
        assert_eq!(a.system().orientations(), b.system().orientations());
        // Wrong restore type is rejected.
        assert!(matches!(
            KmcChain::<StdRng>::restore(&snap).unwrap_err(),
            SnapshotError::Invalid(_)
        ));
    }

    #[test]
    fn max_jump_tracks_dwell_sizes() {
        // A compressed blob at high λ rejects nearly always; dwells between
        // accepted moves must show up in max_jump.
        let sys = ParticleSystem::connected(shapes::spiral(60)).unwrap();
        let mut kmc = KmcChain::from_seed(sys, 6.0, 2).unwrap();
        kmc.run(100_000);
        assert!(kmc.counts().max_jump > 0);
        // Realized dwells only: a dwell can never skip more steps than were
        // simulated.
        assert!(kmc.counts().max_jump < kmc.steps());
    }

    #[test]
    fn unrealized_dwells_never_count() {
        // A run budget too short for the first acceptance leaves the dwell
        // pending, and a pending dwell must not be reported as a jump.
        let sys = ParticleSystem::connected(shapes::spiral(60)).unwrap();
        let mut kmc = KmcChain::from_seed(sys, 50.0, 4).unwrap();
        // λ = 50 at a compressed spiral: the first dwell is overwhelmingly
        // likely to exceed one step.
        kmc.run(1);
        if kmc.counts().moved == 0 {
            assert_eq!(kmc.counts().max_jump, 0, "pending dwell leaked");
        }
        // A crash discards the pending dwell entirely; still nothing
        // recorded.
        kmc.crash(0);
        if kmc.counts().moved == 0 {
            assert_eq!(kmc.counts().max_jump, 0);
        }
    }
}
