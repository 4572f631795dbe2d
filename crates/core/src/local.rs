//! The local, distributed, asynchronous algorithm `A` (Section 3.2).
//!
//! Each particle runs the paper's Algorithm `A` independently:
//!
//! * **Contracted** at `ℓ`: pick a uniformly random neighboring location
//!   `ℓ′`; if `ℓ′` is unoccupied and no neighbor is expanded, expand to
//!   occupy both `ℓ` (tail) and `ℓ′` (head), then set `flag` to whether no
//!   *other* expanded particle is adjacent to `ℓ` or `ℓ′`.
//! * **Expanded** over `(ℓ, ℓ′)`: draw `q ∈ (0, 1)`; compute neighbor
//!   counts `e`, `e′` over `N*(·)` — neighborhoods that *exclude heads* of
//!   expanded particles — and contract to `ℓ′` iff `e ≠ 5`, the pair
//!   satisfies Property 1 or 2 with respect to `N*`, `q < λ^(e′−e)`, and
//!   `flag` is still true; otherwise contract back to `ℓ`.
//!
//! Activations are driven by independent Poisson clocks of rate 1 (Section
//! 3.2): inter-activation delays are `Exp(1)`, which makes every particle
//! equally likely to act next regardless of history. That is `M`'s uniform
//! particle selection, but `A` is a different chain: a move takes two
//! activations (expand, then contract), step 3 blocks a contracted particle
//! next to an expanded one, and the configuration is read between the two.
//! The law of `A`'s tails is not `M`'s stationary `π`: exact enumeration at
//! n = 3..5 finds a total-variation distance from `π` of 2·10⁻² to 7·10⁻²
//! over λ ∈ {0.5, 1, 2, 4, 6}, even at λ = 1. No test pins that law yet.
//!
//! The runner is a discrete-event simulator whose future-event list is a
//! calendar queue: each particle owns at most one pending event (a crashed
//! particle's lapses when it rings), kept in a ring of at least n time
//! buckets, so an activation costs O(1) queue work rather than a heap's
//! O(log n). The sequentialization of atomic actions is exactly the
//! standard asynchronous model argument of Section 2.1.
//!
//! # Two phases
//!
//! The clocks never read the configuration, and each activation draws
//! exactly one RNG word before its clock is rescheduled (a direction when
//! contracted, `q` when expanded). So [`LocalRunner`] runs in two phases
//! that share no state. The *schedule* phase pops events, draws each
//! activation's word, reschedules the clock with a fresh `Exp(1)` delay
//! and keeps the round count; a crashed particle's event lapses without a
//! draw. The *apply* phase runs the rule on those words in event order and
//! counts the outcomes. Batches alternate on one thread, or, with two
//! workers and enough work, the calling thread schedules the next batch
//! while one helper applies the last ([`LocalRunner::run_rounds_with`]).
//! The trajectory, the RNG stream and every snapshot byte are the same
//! either way.
//!
//! One word is the exception: a contracted particle's direction is
//! `gen_range(0..6)`, whose rejection test may draw again when the first
//! word exceeds `u64::MAX − 5`. The schedule phase ends its batch at such a
//! word, waits until the apply phase has drained, and runs that activation
//! itself on an RNG that replays the word and then continues the real
//! stream, before it reschedules the clock.
//!
//! The *configuration* of the system at any instant is the set of particle
//! **tails** (heads are ignored; Section 2.2, footnote 2), exposed as
//! [`Runner::tail_system`].
//!
//! This module is the one home of the rule and of the runner around it:
//!
//! * `activate_one` runs steps 1–13 against a `World` view of a particle's
//!   neighborhood. Step 11 is `M`'s own verdict: the move must be
//!   structurally valid ([`MoveValidity::is_structurally_valid`]) and pass
//!   `M`'s Metropolis filter ([`Acceptance`] under [`EdgeCount`]), so `A`
//!   and the exact transition matrix of `M` read one rule.
//! * [`Runner`] holds what every schedule of `A` shares: the particle
//!   table, the counters, the crash set and the probes, with the accessors
//!   and the invariant check written once. [`LocalRunner`] is the runner
//!   under Poisson clocks ([`PoissonClocks`]) and reads the flat view of
//!   its table; [`crate::sharded::ShardedLocalRunner`] is the runner under
//!   the region checkerboard and adds a second view over one region cell
//!   and its halo.

use core::fmt::Write as _;
use std::sync::{mpsc, Mutex};

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use sops_lattice::{Direction, PairRing, TileGrid, TriPoint};
use sops_system::{moves::MoveValidity, ParticleSystem};

use crate::chain::ChainError;
use crate::hamiltonian::EdgeCount;
use crate::probes::LocalProbes;
use crate::sampler::Acceptance;
use crate::snapshot::{self, SnapshotError};

/// What happened during one particle activation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    /// A contracted particle expanded into an adjacent empty location.
    Expanded {
        /// The acting particle.
        id: usize,
        /// Whether its `flag` was set (no other expanded particle nearby).
        flag: bool,
    },
    /// An expanded particle completed its move by contracting to its head.
    ContractedForward {
        /// The acting particle.
        id: usize,
    },
    /// An expanded particle aborted its move by contracting to its tail.
    ContractedBack {
        /// The acting particle.
        id: usize,
    },
    /// A contracted particle activated but could not expand (occupied
    /// target or an expanded neighbor).
    Idle {
        /// The acting particle.
        id: usize,
    },
    /// The activated particle has crashed; nothing happened and its clock
    /// is not rescheduled.
    Crashed {
        /// The acting particle.
        id: usize,
    },
}

/// A pending activation: particle `id`'s Poisson clock rings at `time`.
/// Events run earliest first, ties by lower id (`f64::total_cmp`, then id).
#[derive(Clone, Copy, Debug, PartialEq)]
struct Event {
    time: f64,
    id: usize,
}

/// [`Calendar`] link: the last particle of a bucket's list.
const END: u32 = u32::MAX;

/// [`Calendar`] link: the particle has no pending event.
const IDLE: u32 = u32::MAX - 1;

/// The smallest [`Calendar`] ring: at small n, short bucket lists beat a
/// smaller table.
const MIN_BUCKETS: usize = 256;

/// A particle's entry in the [`Calendar`]: its pending event's time and the
/// next particle in the same bucket.
#[derive(Clone, Copy, Debug)]
struct Entry {
    time: f64,
    next: u32,
}

/// The future-event list: a calendar queue built on each particle owning
/// at most one pending event.
///
/// An event at `time` has the key `⌊time · scale⌋` (the cast saturates) and
/// sits in bucket `key mod buckets`, on a list linked through the particles'
/// own entries. The key never decreases as time grows, so the earliest
/// event is the least `(time, id)` among the events holding the least key.
/// `pop` walks the ring from `cursor`, a lower bound on every pending key,
/// skips empty buckets by the `occupied` bitmap, and takes the least event
/// whose key is the one the walk has reached; after a full lap without one
/// it finds the least key among all events. Near the clock there are about
/// n events per unit of time, one per bucket, so a step touches O(1)
/// buckets.
#[derive(Clone, Debug)]
struct Calendar {
    /// Per particle, indexed by id.
    entries: Vec<Entry>,
    /// Per bucket: the first particle of its list, or [`END`].
    heads: Vec<u32>,
    /// Bit `b % 64` of word `b / 64` is set iff bucket `b` is non-empty.
    occupied: Vec<u64>,
    /// Buckets per unit of time.
    scale: f64,
    /// Every pending event's key is at least this.
    cursor: u64,
    len: usize,
}

impl Calendar {
    /// An empty queue for particles `0..n`: about n buckets per unit of
    /// time, and a ring of twice that (at least [`MIN_BUCKETS`]), so a lap
    /// spans two units and only `e^-2` of the pending events lie beyond it.
    fn new(n: usize) -> Calendar {
        let scale = n.next_power_of_two();
        let buckets = (2 * scale).max(MIN_BUCKETS);
        Calendar {
            entries: vec![
                Entry {
                    time: 0.0,
                    next: IDLE,
                };
                n
            ],
            heads: vec![END; buckets],
            occupied: vec![0; buckets / 64],
            scale: scale as f64,
            cursor: 0,
            len: 0,
        }
    }

    #[inline]
    fn key(&self, time: f64) -> u64 {
        (time * self.scale) as u64
    }

    #[inline]
    fn bucket(&self, key: u64) -> usize {
        key as usize & (self.heads.len() - 1)
    }

    /// Schedules particle `id`, which has no pending event, at `time`.
    #[inline]
    fn push(&mut self, id: usize, time: f64) {
        debug_assert!(
            self.entries[id].next == IDLE,
            "particle {id} already queued"
        );
        debug_assert!(!time.is_nan(), "event time is NaN");
        let key = self.key(time);
        if self.len == 0 || key < self.cursor {
            self.cursor = key;
        }
        let b = self.bucket(key);
        self.entries[id] = Entry {
            time,
            next: self.heads[b],
        };
        self.heads[b] = id as u32;
        self.occupied[b / 64] |= 1 << (b % 64);
        self.len += 1;
    }

    /// Removes and returns the earliest event (ties by lower id).
    #[inline]
    fn pop(&mut self) -> Option<Event> {
        if self.len == 0 {
            return None;
        }
        let lap_end = self.cursor.saturating_add(self.heads.len() as u64);
        let mut key = self.cursor;
        while key < lap_end {
            let from = self.bucket(key);
            let b = self.next_occupied(from);
            match key.checked_add((b.wrapping_sub(from) & (self.heads.len() - 1)) as u64) {
                Some(k) if k < lap_end => key = k,
                _ => break,
            }
            if let Some(event) = self.take_least(b, key) {
                self.cursor = key;
                return Some(event);
            }
            key += 1;
        }
        // A full lap holds no event: jump to the least key.
        let mut least = u64::MAX;
        for (w, &word) in self.occupied.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let mut id = self.heads[w * 64 + bits.trailing_zeros() as usize];
                while id != END {
                    let entry = self.entries[id as usize];
                    least = least.min(self.key(entry.time));
                    id = entry.next;
                }
                bits &= bits - 1;
            }
        }
        self.cursor = least;
        self.take_least(self.bucket(least), least)
    }

    /// The first non-empty bucket at or after `from`, wrapping around the
    /// ring. The queue must not be empty.
    #[inline]
    fn next_occupied(&self, from: usize) -> usize {
        let last = self.occupied.len() - 1;
        let mut w = from / 64;
        let mut bits = self.occupied[w] & (!0 << (from % 64));
        while bits == 0 {
            w = (w + 1) & last;
            bits = self.occupied[w];
        }
        w * 64 + bits.trailing_zeros() as usize
    }

    /// Unlinks and returns the least `(time, id)` among bucket `b`'s events
    /// with key `key`, if it has any.
    #[inline]
    fn take_least(&mut self, b: usize, key: u64) -> Option<Event> {
        let mut best: Option<(u32, u32)> = None; // (prev, id)
        let mut prev = END;
        let mut id = self.heads[b];
        while id != END {
            let entry = self.entries[id as usize];
            if self.key(entry.time) == key
                && best.map_or(true, |(_, least)| {
                    let other = self.entries[least as usize].time;
                    entry.time.total_cmp(&other).then(id.cmp(&least)).is_lt()
                })
            {
                best = Some((prev, id));
            }
            prev = id;
            id = entry.next;
        }
        let (prev, id) = best?;
        let entry = self.entries[id as usize];
        if prev == END {
            self.heads[b] = entry.next;
            if entry.next == END {
                self.occupied[b / 64] &= !(1 << (b % 64));
            }
        } else {
            self.entries[prev as usize].next = entry.next;
        }
        self.entries[id as usize].next = IDLE;
        self.len -= 1;
        Some(Event {
            time: entry.time,
            id: id as usize,
        })
    }

    /// The pending events in id order.
    fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.next != IDLE)
            .map(|(id, e)| Event { time: e.time, id })
    }
}

/// Largest `|x|` or `|y|` a restored particle site may have. The rule reads
/// at most two sites beyond a tail and a tail moves one site per completed
/// move, so a restored run would need about 2^30 moves in one direction
/// before any `i32` coordinate arithmetic could overflow.
const COORD_LIMIT: u32 = 1 << 30;

/// One particle: its tail, its head while expanded, and the `flag` of
/// steps 5–7.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Particle {
    pub(crate) tail: TriPoint,
    pub(crate) head: Option<TriPoint>,
    pub(crate) flag: bool,
}

/// An occupancy-grid slot, the same in both local runners' grids:
/// `(id << 2) | (expanded << 1) | is_head`. Carrying the owner's expanded
/// bit lets the rule's neighbor queries answer from the grid alone, without
/// reading another particle's state.
#[inline]
pub(crate) fn pack_slot(id: usize, is_head: bool, expanded: bool) -> u32 {
    debug_assert!(id < (1 << 30), "particle id exceeds 30 bits");
    let expanded = if expanded { SLOT_EXPANDED } else { 0 };
    let head = if is_head { SLOT_HEAD } else { 0 };
    (id as u32) << 2 | expanded | head
}

/// [`pack_slot`]'s bit for a head site.
const SLOT_HEAD: u32 = 1;

/// [`pack_slot`]'s bit for a site of an expanded particle.
const SLOT_EXPANDED: u32 = 2;

/// The owner id of a [`pack_slot`] value.
#[inline]
fn slot_owner(slot: u32) -> usize {
    (slot >> 2) as usize
}

/// Writes particle `p`'s slots into `grid`: its tail and, while expanded,
/// its head. Returns the first site that was already occupied, if any.
pub(crate) fn occupy(grid: &mut TileGrid, id: usize, p: &Particle) -> Result<(), TriPoint> {
    let tail = pack_slot(id, false, p.head.is_some());
    if grid.insert(p.tail, tail).is_some() {
        return Err(p.tail);
    }
    match p.head {
        Some(h) if grid.insert(h, pack_slot(id, true, true)).is_some() => Err(h),
        _ => Ok(()),
    }
}

/// The neighborhood view [`activate_one`] runs against: the flat particle
/// table ([`FlatWorld`]) or one region cell plus its halo
/// (`crate::sharded`). Its queries are exactly the ones the rule asks.
pub(crate) trait World {
    /// The [`pack_slot`] value at `p`, if occupied.
    fn slot(&self, p: TriPoint) -> Option<u32>;
    /// Is `p` occupied, by a head or a tail?
    fn occupied(&self, p: TriPoint) -> bool;
    /// The acting particle's state (the rule reads no other particle's).
    fn get(&self, id: usize) -> Particle;
    /// Stores the acting particle's new state, after its slots moved.
    fn set(&mut self, id: usize, particle: Particle);
    /// Writes `slot` at `p`, a site of the acting particle.
    fn write(&mut self, p: TriPoint, slot: u32);
    /// Vacates `p`, a site of the acting particle.
    fn remove(&mut self, p: TriPoint);

    /// Is `p` occupied by an expanded particle other than `id`?
    fn expanded_other(&self, p: TriPoint, id: usize) -> bool {
        self.slot(p)
            .is_some_and(|s| slot_owner(s) != id && s & SLOT_EXPANDED != 0)
    }

    /// Is `p` occupied by the tail of a particle other than `id`? This
    /// realizes the paper's `N*(·)` neighborhoods.
    fn tail_of_other(&self, p: TriPoint, id: usize) -> bool {
        self.slot(p)
            .is_some_and(|s| slot_owner(s) != id && s & SLOT_HEAD == 0)
    }
}

/// Does `p` have a neighbor site occupied by an expanded particle other
/// than `id` (at either that particle's head or tail)?
fn has_expanded_neighbor(w: &impl World, p: TriPoint, id: usize) -> bool {
    p.neighbors().any(|q| w.expanded_other(q, id))
}

/// Algorithm `A` for one activation of particle `id`: steps 1–13 of
/// Section 3.2 over any [`World`] view, with step 11 weighing by `accept`
/// ([`ParticleTable::accept`]). Each activation draws one word from `rng`
/// — a direction when contracted, `q` when expanded — and a second only
/// when a direction's first word exceeds [`LAST_SINGLE_DRAW`]. Snapshots,
/// golden pins, the sharded differential and [`LocalRunner`]'s two phases
/// all rely on that.
#[inline]
pub(crate) fn activate_one<W: World, R: Rng>(
    w: &mut W,
    id: usize,
    accept: &[f64; 11],
    rng: &mut R,
) -> Activation {
    let particle = w.get(id);
    match particle.head {
        None => {
            // Step 2: choose ℓ′ uniformly among the six neighbors.
            let dir = Direction::from_index(rng.gen_range(0..6usize));
            let target = particle.tail + dir;
            // Step 3: require ℓ′ unoccupied and no expanded neighbors of ℓ.
            if w.occupied(target) || has_expanded_neighbor(w, particle.tail, id) {
                return Activation::Idle { id };
            }
            // Step 4: expand.
            w.write(target, pack_slot(id, true, true));
            w.write(particle.tail, pack_slot(id, false, true));
            // Steps 5–7: set the flag.
            let flag = !has_expanded_neighbor(w, particle.tail, id)
                && !has_expanded_neighbor(w, target, id);
            w.set(
                id,
                Particle {
                    head: Some(target),
                    flag,
                    ..particle
                },
            );
            Activation::Expanded { id, flag }
        }
        Some(head) => {
            // Step 8: draw q.
            let q: f64 = rng.gen();
            // Steps 9–10: neighbor counts over N*(·), excluding heads
            // (including the particle's own head) and its own tail.
            let dir = particle
                .tail
                .direction_to(head)
                .expect("head is adjacent to tail by construction");
            let ring = PairRing::new(particle.tail, dir);
            let mask = ring.occupancy_mask(|p| w.tail_of_other(p, id));
            let validity = MoveValidity::from_mask(mask, false);
            // Step 11: `M`'s verdict over N* (e ≠ 5, Property 1 or 2, and
            // its filter), and the flag. `q < 1`, so `q < min(1, λ^Δ)`
            // decides exactly as the paper's `q < λ^Δ`.
            if validity.is_structurally_valid()
                && q < accept[(validity.edge_delta() + 5) as usize]
                && particle.flag
            {
                // Step 12: contract to ℓ′.
                w.remove(particle.tail);
                w.write(head, pack_slot(id, false, false));
                w.set(
                    id,
                    Particle {
                        tail: head,
                        head: None,
                        ..particle
                    },
                );
                Activation::ContractedForward { id }
            } else {
                // Step 13: contract back to ℓ.
                w.remove(head);
                w.write(particle.tail, pack_slot(id, false, false));
                w.set(
                    id,
                    Particle {
                        head: None,
                        ..particle
                    },
                );
                Activation::ContractedBack { id }
            }
        }
    }
}

/// The flat view: a whole particle table and its occupancy grid.
pub(crate) struct FlatWorld<'a> {
    pub(crate) particles: &'a mut [Particle],
    pub(crate) occ: &'a mut TileGrid,
}

impl World for FlatWorld<'_> {
    #[inline]
    fn slot(&self, p: TriPoint) -> Option<u32> {
        self.occ.get(p)
    }

    #[inline]
    fn occupied(&self, p: TriPoint) -> bool {
        self.occ.contains(p)
    }

    fn get(&self, id: usize) -> Particle {
        self.particles[id]
    }

    fn set(&mut self, id: usize, particle: Particle) {
        self.particles[id] = particle;
    }

    fn write(&mut self, p: TriPoint, slot: u32) {
        self.occ.insert(p, slot);
    }

    fn remove(&mut self, p: TriPoint) {
        self.occ.remove(p);
    }
}

/// The particles, their flat occupancy grid, and the bias `λ` with the
/// step-11 weights `M`'s [`Acceptance`] filter gives it.
#[derive(Clone, Debug)]
pub(crate) struct ParticleTable {
    pub(crate) particles: Vec<Particle>,
    /// Site → [`pack_slot`] occupancy (tails and heads), bit-packed into
    /// 8×8-site tiles so neighborhood probes stay word-level.
    pub(crate) occ: TileGrid,
    pub(crate) lambda: f64,
    /// [`Acceptance::weights`] under [`EdgeCount`]: `min(1, λ^(i−5))` for
    /// an edge delta of `i − 5`. Copied into every shard task, so it is an
    /// array rather than the table's `Vec`.
    pub(crate) accept: [f64; 11],
}

/// The step-11 weights of `λ`: `M`'s filter over the edge-count energy.
fn accept_weights(lambda: f64) -> Result<[f64; 11], ChainError> {
    let acceptance = Acceptance::new(&EdgeCount, lambda)?;
    Ok(acceptance
        .weights()
        .try_into()
        .expect("EdgeCount declares Δ ∈ [-5, 5]"))
}

impl ParticleTable {
    /// Every particle contracted at the positions of `start`, which must be
    /// connected.
    fn contracted(start: &ParticleSystem, lambda: f64) -> Result<ParticleTable, ChainError> {
        let accept = accept_weights(lambda)?;
        if !start.is_connected() {
            return Err(ChainError::NotConnected);
        }
        let particles: Vec<Particle> = start
            .positions()
            .iter()
            .map(|&tail| Particle {
                tail,
                head: None,
                flag: false,
            })
            .collect();
        // Grown from minimal: a compact start claims ~n/64 tiles, and the
        // table sizes itself to the live tiles (see `TileGrid::new`).
        let mut occ = TileGrid::new();
        for (id, p) in particles.iter().enumerate() {
            occupy(&mut occ, id, p).expect("start positions are distinct");
        }
        Ok(ParticleTable {
            particles,
            occ,
            lambda,
            accept,
        })
    }

    /// Parses a snapshot's `lambda=` and `particles=` lines. Rejects a bad
    /// λ, a malformed or empty particle list, a coordinate beyond
    /// ±[`COORD_LIMIT`], a head not adjacent to its tail, and a site
    /// occupied twice.
    fn restore(fields: &snapshot::Fields<'_>) -> Result<ParticleTable, SnapshotError> {
        let lambda = fields.parse_f64_bits("lambda")?;
        let accept = accept_weights(lambda)
            .map_err(|_| SnapshotError::Invalid(format!("bad lambda {lambda}")))?;
        let raw = fields.get("particles")?;
        let bad = || SnapshotError::BadField {
            field: "particles",
            value: raw.to_string(),
        };
        let mut particles = Vec::new();
        for item in raw.split(';').filter(|i| !i.is_empty()) {
            let nums: Vec<i32> = item
                .split(',')
                .map(|t| t.parse().map_err(|_| bad()))
                .collect::<Result<_, _>>()?;
            let particle = match nums[..] {
                [x, y, flag] => Particle {
                    tail: TriPoint::new(x, y),
                    head: None,
                    flag: flag != 0,
                },
                [x, y, hx, hy, flag] => Particle {
                    tail: TriPoint::new(x, y),
                    head: Some(TriPoint::new(hx, hy)),
                    flag: flag != 0,
                },
                _ => return Err(bad()),
            };
            let coords = &nums[..nums.len() - 1];
            if coords.iter().any(|c| c.unsigned_abs() > COORD_LIMIT) {
                return Err(SnapshotError::Invalid(format!(
                    "particle {item} lies beyond ±{COORD_LIMIT}"
                )));
            }
            if let Some(h) = particle.head {
                if !particle.tail.is_adjacent(h) {
                    return Err(SnapshotError::Invalid(format!(
                        "head {h} not adjacent to tail {}",
                        particle.tail
                    )));
                }
            }
            particles.push(particle);
        }
        if particles.is_empty() {
            return Err(SnapshotError::Invalid("no particles".into()));
        }
        let mut occ = TileGrid::new();
        for (id, p) in particles.iter().enumerate() {
            occupy(&mut occ, id, p)
                .map_err(|site| SnapshotError::Invalid(format!("site {site} occupied twice")))?;
        }
        Ok(ParticleTable {
            particles,
            occ,
            lambda,
            accept,
        })
    }

    /// Appends the snapshot's `particles=` line: `x,y,flag` per contracted
    /// and `x,y,hx,hy,flag` per expanded particle, `;`-separated, in id
    /// order.
    pub(crate) fn write_particles(&self, s: &mut String) {
        s.push_str("particles=");
        for (id, p) in self.particles.iter().enumerate() {
            if id > 0 {
                s.push(';');
            }
            let _ = write!(s, "{},{},", p.tail.x, p.tail.y);
            if let Some(h) = p.head {
                let _ = write!(s, "{},{},", h.x, h.y);
            }
            let _ = write!(s, "{}", u8::from(p.flag));
        }
        s.push('\n');
    }

    /// Algorithm `A` for one activation of particle `id` on the flat view.
    #[inline]
    pub(crate) fn activate<R: Rng>(&mut self, id: usize, rng: &mut R) -> Activation {
        let mut world = FlatWorld {
            particles: &mut self.particles,
            occ: &mut self.occ,
        };
        activate_one(&mut world, id, &self.accept, rng)
    }
}

/// A runner of algorithm `A` under the schedule `S`: the state both
/// schedules share — the particle table, the round, activation and move
/// counters, the crash set and the probes — plus the schedule's own.
///
/// Two schedules exist: Poisson clocks ([`LocalRunner`]) and the region
/// checkerboard ([`crate::sharded::ShardedLocalRunner`]). Each keeps its
/// constructors, its stepping and its snapshot format; the accessors and
/// the invariant check are written here once.
#[derive(Clone, Debug)]
pub struct Runner<S> {
    /// Particles and flat occupancy — authoritative between steps.
    pub(crate) table: ParticleTable,
    pub(crate) rounds: u64,
    pub(crate) activations: u64,
    pub(crate) moves_completed: u64,
    pub(crate) crashed: Vec<bool>,
    pub(crate) live: usize,
    /// Telemetry side channel: never serialized, never read by the
    /// algorithm (see [`crate::probes`] for the determinism contract).
    pub(crate) probes: LocalProbes,
    pub(crate) schedule: S,
}

impl<S> Runner<S> {
    /// Every particle contracted at the positions of `start`, no crash, all
    /// counters zero, under the schedule `schedule(n)` builds.
    pub(crate) fn contracted(
        start: &ParticleSystem,
        lambda: f64,
        schedule: impl FnOnce(usize) -> S,
    ) -> Result<Runner<S>, ChainError> {
        let table = ParticleTable::contracted(start, lambda)?;
        let n = table.particles.len();
        Ok(Runner {
            table,
            rounds: 0,
            activations: 0,
            moves_completed: 0,
            crashed: vec![false; n],
            live: n,
            probes: LocalProbes::default(),
            schedule: schedule(n),
        })
    }

    /// Restores the shared state from a snapshot's `lambda=`, `particles=`,
    /// `crashed=`, `rounds=`, `activations=` and `moves=` lines, under the
    /// schedule `schedule(crashed)` restores.
    pub(crate) fn restore_with(
        fields: &snapshot::Fields<'_>,
        schedule: impl FnOnce(&[bool]) -> Result<S, SnapshotError>,
    ) -> Result<Runner<S>, SnapshotError> {
        let table = ParticleTable::restore(fields)?;
        let n = table.particles.len();
        let crashed = snapshot::bools_from_string("crashed", fields.get("crashed")?, n)?;
        Ok(Runner {
            schedule: schedule(&crashed)?,
            table,
            rounds: fields.parse_num("rounds")?,
            activations: fields.parse_num("activations")?,
            moves_completed: fields.parse_num("moves")?,
            live: crashed.iter().filter(|&&dead| !dead).count(),
            crashed,
            probes: LocalProbes::default(),
        })
    }

    /// The bias parameter `λ`.
    #[must_use]
    pub fn lambda(&self) -> f64 {
        self.table.lambda
    }

    /// Completed rounds. Under Poisson clocks a round ends when every live
    /// particle has been activated at least once since it began (Section
    /// 2.1); under the checkerboard it is one pass over the four colors.
    #[must_use]
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Total particle activations processed.
    #[must_use]
    pub fn activations(&self) -> u64 {
        self.activations
    }

    /// Completed moves (forward contractions).
    #[must_use]
    pub fn moves_completed(&self) -> u64 {
        self.moves_completed
    }

    /// Telemetry probes accumulated since construction (or since the last
    /// restore — probes are not part of snapshots).
    #[must_use]
    pub fn probes(&self) -> &LocalProbes {
        &self.probes
    }

    /// Number of particles.
    #[must_use]
    pub fn len(&self) -> usize {
        self.table.particles.len()
    }

    /// `true` if the runner has no particles (constructors forbid this).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.table.particles.is_empty()
    }

    /// Whether particle `id` is currently expanded.
    #[must_use]
    pub fn is_expanded(&self, id: usize) -> bool {
        self.table.particles[id].head.is_some()
    }

    /// The configuration as defined by the paper: tails of all particles
    /// (heads ignored; Section 2.2 footnote 2).
    #[must_use]
    pub fn tail_system(&self) -> ParticleSystem {
        ParticleSystem::new(self.table.particles.iter().map(|p| p.tail))
            .expect("tails are distinct by construction")
    }

    /// Marks particle `id` crashed; `false` if it already was.
    pub(crate) fn mark_crashed(&mut self, id: usize) -> bool {
        let fresh = !std::mem::replace(&mut self.crashed[id], true);
        self.live -= usize::from(fresh);
        fresh
    }

    /// Counts the activation outcomes tallied in `outcomes`.
    pub(crate) fn count(&mut self, outcomes: &LocalProbes) {
        self.activations += outcomes.total();
        self.moves_completed += outcomes.contracted_forward;
        self.probes.add(outcomes);
    }

    /// Checks internal invariants (slot/particle agreement, tail
    /// distinctness, grid consistency, the live count). Intended for tests.
    ///
    /// # Panics
    ///
    /// Panics if any invariant fails.
    pub fn assert_invariants(&self) {
        let table = &self.table;
        table.occ.assert_valid();
        let mut slots = 0usize;
        for (id, particle) in table.particles.iter().enumerate() {
            assert_eq!(
                table.occ.get(particle.tail),
                Some(pack_slot(id, false, particle.head.is_some())),
                "tail slot mismatch at {}",
                particle.tail
            );
            slots += 1;
            if let Some(h) = particle.head {
                assert_eq!(
                    table.occ.get(h),
                    Some(pack_slot(id, true, true)),
                    "head slot mismatch at {h}"
                );
                slots += 1;
            }
        }
        assert_eq!(slots, table.occ.len(), "slot count mismatch");
        assert_eq!(
            self.live,
            self.crashed.iter().filter(|&&dead| !dead).count(),
            "live count mismatch"
        );
    }
}

/// The Poisson-clock schedule of [`LocalRunner`]: the future-event list,
/// the clock, the one RNG stream, and which live particles the current
/// round still awaits.
#[derive(Clone, Debug)]
pub struct PoissonClocks<R> {
    queue: Calendar,
    time: f64,
    rng: R,
    activated_in_round: Vec<bool>,
    remaining_in_round: usize,
}

/// Discrete-event simulator for the asynchronous local algorithm `A`.
///
/// # Example
///
/// ```
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
/// use sops_core::local::LocalRunner;
/// use sops_system::{shapes, ParticleSystem};
///
/// let start = ParticleSystem::connected(shapes::line(12)).unwrap();
/// let mut runner = LocalRunner::new(&start, 4.0, StdRng::seed_from_u64(5)).unwrap();
/// runner.run_rounds(200);
/// let tails = runner.tail_system();
/// assert!(tails.is_connected());
/// assert!(tails.perimeter() < 22); // compressed below the initial line's 22
/// ```
pub type LocalRunner<R = StdRng> = Runner<PoissonClocks<R>>;

impl LocalRunner<StdRng> {
    /// Builds a runner with a [`StdRng`] seeded from `seed`.
    ///
    /// # Errors
    ///
    /// Same as [`LocalRunner::new`].
    pub fn from_seed(
        start: &ParticleSystem,
        lambda: f64,
        seed: u64,
    ) -> Result<LocalRunner<StdRng>, ChainError> {
        LocalRunner::new(start, lambda, StdRng::seed_from_u64(seed))
    }

    /// Serializes the full simulator state — particles (tails, heads,
    /// flags), the future-event list, round bookkeeping, crash set and exact
    /// RNG state — as a compact text snapshot.
    ///
    /// The future-event list (`queue=`) is written in particle-id order, so
    /// equal states give equal bytes; [`LocalRunner::restore`] accepts its
    /// events in any order.
    ///
    /// [`LocalRunner::restore`] rebuilds a runner whose continued execution
    /// is bitwise identical to running this one uninterrupted; see
    /// [`crate::snapshot`] for the format and guarantees.
    #[must_use]
    pub fn snapshot(&self) -> String {
        let clocks = &self.schedule;
        let mut s = String::from("sops-local-snapshot v1\n");
        let _ = writeln!(s, "lambda={}", snapshot::f64_to_hex(self.table.lambda));
        let _ = writeln!(s, "time={}", snapshot::f64_to_hex(clocks.time));
        let _ = writeln!(s, "activations={}", self.activations);
        let _ = writeln!(s, "moves={}", self.moves_completed);
        let _ = writeln!(s, "rounds={}", self.rounds);
        let _ = writeln!(s, "remaining={}", clocks.remaining_in_round);
        let _ = writeln!(s, "crashed={}", snapshot::bools_to_string(&self.crashed));
        let _ = writeln!(
            s,
            "activated={}",
            snapshot::bools_to_string(&clocks.activated_in_round)
        );
        let _ = writeln!(s, "rng={}", snapshot::rng_to_string(&clocks.rng));
        self.table.write_particles(&mut s);
        s.push_str("queue=");
        for (i, event) in clocks.queue.iter().enumerate() {
            if i > 0 {
                s.push(';');
            }
            let _ = write!(s, "{}:{}", snapshot::f64_to_hex(event.time), event.id);
        }
        s.push('\n');
        s
    }

    /// Rebuilds a runner from a [`LocalRunner::snapshot`] text.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] when the text is malformed or describes an invalid
    /// state (overlapping sites, a head not adjacent to its tail, a
    /// coordinate beyond ±2^30, a negative or non-finite clock, an event for
    /// an unknown particle or at a non-finite time or before the clock,
    /// round bookkeeping that could never complete a round, bad λ).
    pub fn restore(text: &str) -> Result<LocalRunner<StdRng>, SnapshotError> {
        let fields = snapshot::Fields::parse(text, "sops-local-snapshot v1")?;
        Runner::restore_with(&fields, |crashed| PoissonClocks::restore(&fields, crashed))
    }
}

impl PoissonClocks<StdRng> {
    /// Parses a snapshot's `time=`, `queue=`, `activated=`, `remaining=`
    /// and `rng=` lines against the restored crash set.
    fn restore(
        fields: &snapshot::Fields<'_>,
        crashed: &[bool],
    ) -> Result<PoissonClocks<StdRng>, SnapshotError> {
        let n = crashed.len();
        let time = fields.parse_f64_bits("time")?;
        if !time.is_finite() || time < 0.0 {
            return Err(SnapshotError::Invalid(format!("bad clock time {time}")));
        }
        let raw_queue = fields.get("queue")?;
        let bad_queue = || SnapshotError::BadField {
            field: "queue",
            value: raw_queue.to_string(),
        };
        let mut queue = Calendar::new(n);
        let mut queued = vec![false; n];
        for item in raw_queue.split(';').filter(|i| !i.is_empty()) {
            let (time_hex, id) = item.split_once(':').ok_or_else(bad_queue)?;
            let id: usize = id.parse().map_err(|_| bad_queue())?;
            if id >= n {
                return Err(SnapshotError::Invalid(format!(
                    "event for unknown particle {id}"
                )));
            }
            if std::mem::replace(&mut queued[id], true) {
                return Err(SnapshotError::Invalid(format!(
                    "particle {id} has two pending events"
                )));
            }
            let at = snapshot::f64_from_hex("queue", time_hex)?;
            if !at.is_finite() || at < time {
                return Err(SnapshotError::Invalid(format!(
                    "event of particle {id} at {at}, clock at {time}"
                )));
            }
            queue.push(id, at);
        }
        // `run_rounds` completes a round only when `remaining` reaches 0, so
        // the round bookkeeping must match what `step` maintains: every
        // live particle holds a pending event, and `remaining` counts the
        // live particles not yet activated this round (at least one, or the
        // round would have ended; `usize::MAX` once all have crashed).
        if let Some(id) = (0..n).find(|&id| !crashed[id] && !queued[id]) {
            return Err(SnapshotError::Invalid(format!(
                "live particle {id} has no pending event"
            )));
        }
        let activated = snapshot::bools_from_string("activated", fields.get("activated")?, n)?;
        let remaining: usize = fields.parse_num("remaining")?;
        let waiting = (0..n).filter(|&id| !crashed[id] && !activated[id]).count();
        let all_crashed = crashed.iter().all(|&dead| dead);
        let expected = if all_crashed { usize::MAX } else { waiting };
        if remaining != expected || remaining == 0 {
            return Err(SnapshotError::Invalid(format!(
                "remaining={remaining}, but {waiting} live particles await activation"
            )));
        }
        Ok(PoissonClocks {
            queue,
            time,
            rng: snapshot::rng_from_string("rng", fields.get("rng")?)?,
            activated_in_round: activated,
            remaining_in_round: remaining,
        })
    }
}

impl<R: Rng> LocalRunner<R> {
    /// Creates the runner with all particles contracted at the positions of
    /// `start`, which must be connected.
    ///
    /// # Errors
    ///
    /// [`ChainError::InvalidLambda`] or [`ChainError::NotConnected`].
    pub fn new(
        start: &ParticleSystem,
        lambda: f64,
        mut rng: R,
    ) -> Result<LocalRunner<R>, ChainError> {
        Runner::contracted(start, lambda, |n| {
            let mut queue = Calendar::new(n);
            for id in 0..n {
                queue.push(id, exp1(&mut rng));
            }
            PoissonClocks {
                queue,
                time: 0.0,
                rng,
                activated_in_round: vec![false; n],
                remaining_in_round: n,
            }
        })
    }

    /// Simulated (continuous) time elapsed.
    #[must_use]
    pub fn time(&self) -> f64 {
        self.schedule.time
    }

    /// Crashes particle `id`: it never activates again (Section 3.3). If it
    /// is expanded at crash time it remains expanded forever, obstructing
    /// its neighborhood — the adversarial behavior the paper speculates
    /// about for Byzantine particles.
    pub fn crash(&mut self, id: usize) {
        // Round accounting ignores crashed particles from now on.
        if self.mark_crashed(id) && !self.schedule.activated_in_round[id] {
            self.split().0.leave_round();
        }
    }

    /// Processes the next activation event. Returns `None` when no events
    /// remain (all particles crashed).
    pub fn step(&mut self) -> Option<Activation> {
        let (mut schedule, mut apply) = self.split();
        let outcome = match schedule.pop()? {
            Popped::Lapsed(id) => Activation::Crashed { id },
            Popped::Drawn(draw) => schedule.activate_serially(&mut apply, draw),
        };
        let outcomes = apply.outcomes;
        self.count(&outcomes);
        Some(outcome)
    }

    /// Runs `k` activations (or until no events remain). A crashed
    /// particle's lapsed event counts as one.
    pub fn run_activations(&mut self, k: u64) {
        self.run_activations_with(k, 1);
    }

    /// [`LocalRunner::run_activations`] on `workers` threads, as
    /// [`LocalRunner::run_rounds_with`] runs rounds.
    pub fn run_activations_with(&mut self, k: u64, workers: usize) {
        self.run(Until::Events(k), workers);
    }

    /// Runs until `r` more asynchronous rounds complete.
    pub fn run_rounds(&mut self, r: u64) {
        self.run_rounds_with(r, 1);
    }

    /// Runs until `r` more asynchronous rounds complete, on `workers`
    /// threads. With two or more, and at least [`PIPELINE_MIN_EVENTS`]
    /// expected events, the calling thread runs the schedule phase and one
    /// helper thread, spawned for this call, applies its batches; more
    /// workers add nothing. Otherwise the phases alternate inline. The
    /// trajectory is the same at any `workers`.
    ///
    /// # Panics
    ///
    /// A panic in the helper is resumed on the calling thread once both
    /// phases have stopped; the runner's state is then unspecified.
    pub fn run_rounds_with(&mut self, r: u64, workers: usize) {
        let target = self.rounds.saturating_add(r);
        self.run(Until::Round(target), workers);
    }

    /// The one batched driver behind the `run_*` methods.
    fn run(&mut self, mut until: Until, workers: usize) {
        let expected = match until {
            Until::Round(target) => (target - self.rounds).saturating_mul(self.live as u64),
            Until::Events(k) => k,
        };
        let (mut schedule, mut apply) = self.split();
        if workers >= 2 && expected >= PIPELINE_MIN_EVENTS {
            apply = schedule.pipeline(apply, &mut until);
        } else {
            schedule.alternate(&mut apply, &mut until);
        }
        let outcomes = apply.outcomes;
        self.count(&outcomes);
    }

    /// The runner as its two phases.
    fn split(&mut self) -> (Schedule<'_, R>, Apply<'_>) {
        (
            Schedule {
                clocks: &mut self.schedule,
                rounds: &mut self.rounds,
                crashed: &self.crashed,
                live: self.live,
            },
            Apply {
                table: &mut self.table,
                outcomes: LocalProbes::default(),
            },
        )
    }
}

/// Activations in one batch handed from the schedule phase to the apply
/// phase: 16 KiB of [`Draw`]s.
const BATCH: usize = 1024;

/// Batch buffers a pipelined call recycles between its two threads.
const BUFFERS: usize = 4;

/// Expected events below which a call of [`LocalRunner`] runs inline at any
/// worker count. Starting the helper and filling and draining the pipeline
/// cost about 0.1 ms; on a 2-vCPU box, two workers beat inline from about
/// this many activations at each n measured (60, 10³, 2·10⁴ and 10⁵, from
/// random starts), and at 1 000 they were up to 2.5× slower.
pub const PIPELINE_MIN_EVENTS: u64 = 12_288;

/// The largest first word for which `gen_range(0..6)` draws no second one:
/// rand's rejection test looks past the first word only above
/// `u64::MAX − 5`.
const LAST_SINGLE_DRAW: u64 = u64::MAX - 5;

/// One activation from the schedule phase: the particle and the word its
/// draw reads.
#[derive(Clone, Copy, Debug)]
struct Draw {
    id: u32,
    word: u64,
}

/// A popped event.
enum Popped {
    /// A crashed particle's event lapsed: no draw, no reschedule.
    Lapsed(usize),
    /// A live particle's activation and its word.
    Drawn(Draw),
}

/// Where a batched run stops.
#[derive(Clone, Copy, Debug)]
enum Until {
    /// Once the round counter reaches this.
    Round(u64),
    /// After this many more events, lapsed ones included.
    Events(u64),
}

/// Why [`Schedule::fill`] returned.
enum Filled {
    /// The batch is full.
    Full,
    /// This draw's word may read more of the stream: run it serially.
    Serial(Draw),
    /// The run is over.
    Done,
}

/// The RNG an activation reads: its pre-drawn word, then `rest`.
struct Replay<R> {
    word: Option<u64>,
    rest: R,
}

impl<R: RngCore> RngCore for Replay<R> {
    fn next_u64(&mut self) -> u64 {
        self.word.take().unwrap_or_else(|| self.rest.next_u64())
    }
}

/// The rest of a batched activation's stream, which it never reads: its
/// word is at most [`LAST_SINGLE_DRAW`].
struct NoSecondWord;

impl RngCore for NoSecondWord {
    fn next_u64(&mut self) -> u64 {
        panic!("a batched activation drew a second word")
    }
}

/// The schedule phase: the clocks, the RNG, the round count and the crash
/// set. It never reads the particles.
struct Schedule<'a, R> {
    clocks: &'a mut PoissonClocks<R>,
    rounds: &'a mut u64,
    crashed: &'a [bool],
    live: usize,
}

/// The apply phase: the particle table and the outcomes it has counted.
struct Apply<'a> {
    table: &'a mut ParticleTable,
    outcomes: LocalProbes,
}

impl Apply<'_> {
    /// Runs the rule on `batch`'s draws, in order.
    fn apply(&mut self, batch: &[Draw]) {
        for draw in batch {
            let mut rng = Replay {
                word: Some(draw.word),
                rest: NoSecondWord,
            };
            let outcome = self.table.activate(draw.id as usize, &mut rng);
            self.outcomes.record(outcome);
        }
    }
}

impl<R: Rng> Schedule<'_, R> {
    /// Pops the earliest event and advances the clock to it. A live
    /// particle's activation draws its word.
    #[inline]
    fn pop(&mut self) -> Option<Popped> {
        let event = self.clocks.queue.pop()?;
        self.clocks.time = event.time;
        if self.crashed[event.id] {
            return Some(Popped::Lapsed(event.id));
        }
        Some(Popped::Drawn(Draw {
            id: event.id as u32,
            word: self.clocks.rng.next_u64(),
        }))
    }

    /// Ends particle `id`'s activation: reschedules its clock with a fresh
    /// `Exp(1)` delay and counts it toward the round.
    #[inline]
    fn finish(&mut self, id: usize) {
        let clocks = &mut *self.clocks;
        clocks.queue.push(id, clocks.time + exp1(&mut clocks.rng));
        if !std::mem::replace(&mut clocks.activated_in_round[id], true) {
            self.leave_round();
        }
    }

    /// One live particle of the current round was activated or crashed:
    /// the round ends when none remains.
    fn leave_round(&mut self) {
        let clocks = &mut *self.clocks;
        clocks.remaining_in_round -= 1;
        if clocks.remaining_in_round == 0 {
            *self.rounds += 1;
            clocks.activated_in_round.copy_from_slice(self.crashed);
            // A system with zero live particles completes no further rounds.
            clocks.remaining_in_round = if self.live == 0 {
                usize::MAX
            } else {
                self.live
            };
        }
    }

    /// Runs `draw`'s activation on its word and then the real stream, and
    /// ends it.
    fn activate_serially(&mut self, apply: &mut Apply<'_>, draw: Draw) -> Activation {
        let mut rng = Replay {
            word: Some(draw.word),
            rest: &mut self.clocks.rng,
        };
        let outcome = apply.table.activate(draw.id as usize, &mut rng);
        apply.outcomes.record(outcome);
        self.finish(draw.id as usize);
        outcome
    }

    /// Schedules activations into `batch` until it is full, the run is
    /// over, or a word needs the serial path.
    fn fill(&mut self, batch: &mut Vec<Draw>, until: &mut Until) -> Filled {
        while batch.len() < BATCH {
            match until {
                Until::Round(target) if *self.rounds >= *target => return Filled::Done,
                Until::Events(0) => return Filled::Done,
                Until::Events(left) => *left -= 1,
                Until::Round(_) => {}
            }
            match self.pop() {
                None => return Filled::Done,
                Some(Popped::Lapsed(_)) => {}
                Some(Popped::Drawn(draw)) if draw.word > LAST_SINGLE_DRAW => {
                    return Filled::Serial(draw)
                }
                Some(Popped::Drawn(draw)) => {
                    batch.push(draw);
                    self.finish(draw.id as usize);
                }
            }
        }
        Filled::Full
    }

    /// Alternates the two phases, a batch at a time, on this thread.
    fn alternate(&mut self, apply: &mut Apply<'_>, until: &mut Until) {
        let mut batch = Vec::with_capacity(BATCH);
        loop {
            let filled = self.fill(&mut batch, until);
            apply.apply(&batch);
            batch.clear();
            match filled {
                Filled::Full => {}
                Filled::Serial(draw) => {
                    self.activate_serially(apply, draw);
                }
                Filled::Done => return,
            }
        }
    }

    /// Runs the schedule phase on this thread and the apply phase on one
    /// helper thread, batches passing through a bounded channel of
    /// recycled buffers. Returns the apply phase once both have stopped.
    fn pipeline<'t>(&mut self, apply: Apply<'t>, until: &mut Until) -> Apply<'t> {
        let apply = Mutex::new(apply);
        std::thread::scope(|scope| {
            let (work, batches) = mpsc::sync_channel::<Vec<Draw>>(BUFFERS);
            let (recycle, recycled) = mpsc::channel();
            let shared = &apply;
            let helper = scope.spawn(move || {
                for mut batch in batches {
                    shared
                        .lock()
                        .expect("the scheduler holds the apply phase only while the helper waits")
                        .apply(&batch);
                    batch.clear();
                    if recycle.send(batch).is_err() {
                        return;
                    }
                }
            });
            let mut free: Vec<Vec<Draw>> =
                (0..BUFFERS).map(|_| Vec::with_capacity(BATCH)).collect();
            // A closed channel means the helper stopped; its panic, if any,
            // is resumed below.
            'run: while let Some(mut batch) = free.pop().or_else(|| recycled.recv().ok()) {
                let filled = self.fill(&mut batch, until);
                if batch.is_empty() {
                    free.push(batch);
                } else if work.send(batch).is_err() {
                    break;
                }
                match filled {
                    Filled::Full => {}
                    Filled::Serial(draw) => {
                        // Drain: every buffer back means every batch applied.
                        while free.len() < BUFFERS {
                            match recycled.recv() {
                                Ok(batch) => free.push(batch),
                                Err(_) => break 'run,
                            }
                        }
                        let mut apply = apply.lock().expect("the drained helper holds no lock");
                        self.activate_serially(&mut apply, draw);
                    }
                    Filled::Done => break,
                }
            }
            drop(work);
            if let Err(panic) = helper.join() {
                std::panic::resume_unwind(panic);
            }
        });
        apply
            .into_inner()
            .expect("the helper finished without panicking")
    }
}

/// Samples an `Exp(1)` delay by inversion.
fn exp1(rng: &mut impl Rng) -> f64 {
    let u: f64 = rng.gen();
    -(1.0 - u).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sops_system::{metrics, shapes};

    fn runner(n: usize, lambda: f64, seed: u64) -> LocalRunner {
        let sys = ParticleSystem::connected(shapes::line(n)).unwrap();
        LocalRunner::from_seed(&sys, lambda, seed).unwrap()
    }

    #[test]
    fn exp1_is_positive_and_finite() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = exp1(&mut rng);
            assert!(x.is_finite() && x >= 0.0);
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 1.0).abs() < 0.05, "Exp(1) mean ≈ 1, got {mean}");
    }

    #[test]
    fn construction_validates_inputs() {
        let sys = ParticleSystem::connected(shapes::line(4)).unwrap();
        assert!(matches!(
            LocalRunner::from_seed(&sys, -1.0, 0),
            Err(ChainError::InvalidLambda(_))
        ));
        let disconnected = ParticleSystem::new([
            sops_lattice::TriPoint::new(0, 0),
            sops_lattice::TriPoint::new(8, 8),
        ])
        .unwrap();
        assert!(matches!(
            LocalRunner::from_seed(&disconnected, 2.0, 0),
            Err(ChainError::NotConnected)
        ));
    }

    #[test]
    fn invariants_hold_along_execution() {
        let mut r = runner(10, 4.0, 3);
        for _ in 0..5_000 {
            r.step();
            if r.activations() % 500 == 0 {
                r.assert_invariants();
                assert!(r.tail_system().is_connected(), "tails disconnected");
            }
        }
    }

    #[test]
    fn rounds_advance_and_time_is_monotone() {
        let mut r = runner(8, 2.0, 5);
        let mut last_time = 0.0;
        for _ in 0..2_000 {
            r.step();
            assert!(r.time() >= last_time);
            last_time = r.time();
        }
        assert!(r.rounds() > 0, "rounds must complete");
        // With Poisson(1) clocks, a round takes Θ(log n) expected time; over
        // 2000 activations of 8 particles we expect roughly 250 rounds.
        let per_round = 2000.0 / r.rounds() as f64;
        assert!(per_round >= 8.0, "a round needs ≥ n activations");
    }

    #[test]
    fn compression_happens_via_local_algorithm() {
        let mut r = runner(15, 5.0, 7);
        r.run_rounds(3_000);
        let tails = r.tail_system();
        assert!(tails.is_connected());
        let p = tails.perimeter();
        assert!(
            p < metrics::pmax(15) * 2 / 3,
            "local algorithm should compress: p = {p}"
        );
        assert!(r.moves_completed() > 0);
    }

    #[test]
    fn crashed_particles_freeze() {
        let mut r = runner(6, 3.0, 11);
        let frozen = r.tail_system().position(0);
        r.crash(0);
        r.run_activations(5_000);
        assert_eq!(r.tail_system().position(0), frozen);
        // The rest of the system still progresses.
        assert!(r.activations() > 0);
        assert!(r.rounds() > 0, "rounds still complete among live particles");
    }

    #[test]
    fn all_crashed_stops_event_stream() {
        let mut r = runner(3, 2.0, 13);
        for id in 0..3 {
            r.crash(id);
        }
        // Draining the queue yields only Crashed events, then None.
        let mut crashed_events = 0;
        while let Some(a) = r.step() {
            assert!(matches!(a, Activation::Crashed { .. }));
            crashed_events += 1;
            assert!(crashed_events <= 3);
        }
        assert_eq!(r.activations(), 0);
    }

    #[test]
    fn deterministic_under_seed() {
        let mut a = runner(9, 4.0, 21);
        let mut b = runner(9, 4.0, 21);
        a.run_activations(3_000);
        b.run_activations(3_000);
        assert_eq!(
            a.tail_system().canonical_key(),
            b.tail_system().canonical_key()
        );
        assert_eq!(a.moves_completed(), b.moves_completed());
        assert!((a.time() - b.time()).abs() < 1e-12);
    }

    #[test]
    fn snapshot_restore_continues_identically() {
        let mut a = runner(9, 4.0, 31);
        a.run_activations(2_137); // stop mid-round, some particles expanded
        let snap = a.snapshot();
        let mut b = LocalRunner::restore(&snap).unwrap();
        b.assert_invariants();
        assert_eq!(a.activations(), b.activations());
        assert_eq!(a.rounds(), b.rounds());
        a.run_activations(4_000);
        b.run_activations(4_000);
        assert_eq!(a.moves_completed(), b.moves_completed());
        assert!(
            (a.time() - b.time()).abs() == 0.0,
            "time must match exactly"
        );
        assert_eq!(
            a.tail_system().canonical_key(),
            b.tail_system().canonical_key()
        );
    }

    #[test]
    fn snapshot_preserves_crashes_and_expanded_heads() {
        let mut a = runner(8, 3.0, 5);
        a.crash(3);
        a.run_activations(1_001);
        let b = LocalRunner::restore(&a.snapshot()).unwrap();
        for id in 0..a.len() {
            assert_eq!(a.is_expanded(id), b.is_expanded(id), "particle {id}");
        }
        let mut b = b;
        b.run_activations(2_000);
        assert_eq!(b.tail_system().position(3), a.tail_system().position(3));
    }

    #[test]
    fn restore_rejects_inconsistent_state() {
        let a = runner(4, 2.0, 1);
        let snap = a.snapshot();
        let corrupt = snap.replace("sops-local-snapshot v1", "sops-chain-snapshot v1");
        assert!(LocalRunner::restore(&corrupt).is_err());
        // An event pointing at a particle that does not exist.
        let bad_queue = snap
            .lines()
            .map(|l| {
                if l.starts_with("queue=") {
                    format!("{l};{}:99", crate::snapshot::f64_to_hex(1.0))
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        assert!(matches!(
            LocalRunner::restore(&bad_queue).unwrap_err(),
            SnapshotError::Invalid(_)
        ));
    }

    /// `snap` with the `key=` line's value replaced.
    fn with_field(snap: &str, key: &str, value: &str) -> String {
        let prefix = format!("{key}=");
        snap.lines()
            .map(|l| match l.strip_prefix(&prefix) {
                Some(_) => format!("{prefix}{value}"),
                None => l.to_string(),
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    fn assert_invalid(text: &str) {
        assert!(matches!(
            LocalRunner::restore(text),
            Err(SnapshotError::Invalid(_))
        ));
    }

    #[test]
    fn restore_rejects_remaining_beyond_unactivated_particles() {
        let mut a = runner(6, 4.0, 3);
        a.run_activations(7);
        let snap = a.snapshot();
        let remaining = a.schedule.remaining_in_round;
        assert!(LocalRunner::restore(&snap).is_ok());
        // Unbounded `run_rounds` loop: the round can never reach zero.
        assert_invalid(&with_field(
            &snap,
            "remaining",
            &(remaining + 1).to_string(),
        ));
        assert_invalid(&with_field(&snap, "remaining", &usize::MAX.to_string()));
    }

    #[test]
    fn restore_rejects_zero_remaining() {
        let a = runner(6, 4.0, 3);
        // The first activation would underflow the round counter.
        assert_invalid(&with_field(&a.snapshot(), "remaining", "0"));
    }

    #[test]
    fn restore_rejects_live_particle_without_pending_event() {
        let mut a = runner(6, 4.0, 3);
        a.run_activations(7);
        let snap = a.snapshot();
        let queue = snap.lines().find_map(|l| l.strip_prefix("queue=")).unwrap();
        let (_, rest) = queue.split_once(';').unwrap();
        assert_invalid(&with_field(&snap, "queue", rest));
        // A doubled event is rejected too.
        assert_invalid(&with_field(&snap, "queue", &format!("{queue};{queue}")));
    }

    #[test]
    fn restore_accepts_all_crashed_runner() {
        let mut a = runner(3, 4.0, 3);
        for id in 0..3 {
            a.crash(id);
        }
        let mut b = LocalRunner::restore(&a.snapshot()).unwrap();
        b.run_rounds(5);
        assert_eq!(b.rounds(), a.rounds());
    }

    /// The snapshot of a one-particle runner with its `particles=` line
    /// replaced.
    fn lone_particle_at(particles: &str) -> String {
        let sys = ParticleSystem::new([TriPoint::new(0, 0)]).unwrap();
        let snap = LocalRunner::from_seed(&sys, 2.0, 1).unwrap().snapshot();
        with_field(&snap, "particles", particles)
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
        let mut edge = LocalRunner::restore(&lone_particle_at("1073741824,-1073741824,0")).unwrap();
        edge.run_activations(100);
        edge.assert_invariants();
    }

    #[test]
    fn restore_rejects_negative_clock() {
        let snap = runner(6, 4.0, 3).snapshot();
        assert_invalid(&with_field(&snap, "time", &snapshot::f64_to_hex(-1.0)));
    }

    #[test]
    fn restore_rejects_non_finite_clock() {
        let snap = runner(6, 4.0, 3).snapshot();
        for bad in [f64::INFINITY, f64::NAN] {
            assert_invalid(&with_field(&snap, "time", &snapshot::f64_to_hex(bad)));
        }
    }

    #[test]
    fn restore_rejects_non_finite_event_time() {
        let mut a = runner(6, 4.0, 3);
        a.run_activations(7);
        let snap = a.snapshot();
        let queue = snap.lines().find_map(|l| l.strip_prefix("queue=")).unwrap();
        let (first, rest) = queue.split_once(';').unwrap();
        let id = first.split_once(':').unwrap().1;
        for bad in [f64::INFINITY, f64::NAN] {
            let queue = format!("{}:{id};{rest}", snapshot::f64_to_hex(bad));
            assert_invalid(&with_field(&snap, "queue", &queue));
        }
    }

    #[test]
    fn restore_rejects_event_before_clock() {
        let mut a = runner(6, 4.0, 3);
        a.run_activations(7);
        let snap = a.snapshot();
        assert!(LocalRunner::restore(&snap).is_ok());
        let late = snapshot::f64_to_hex(a.time() + 1e6);
        assert_invalid(&with_field(&snap, "time", &late));
    }

    #[test]
    fn one_live_particle_in_a_large_ring_completes_rounds() {
        let mut rng = StdRng::seed_from_u64(4);
        let start = ParticleSystem::connected(shapes::random_connected(2000, &mut rng)).unwrap();
        let mut r = LocalRunner::from_seed(&start, 4.0, 4).unwrap();
        assert!(r.schedule.queue.heads.len() >= 4096);
        for id in 1..r.len() {
            r.crash(id);
        }
        r.run_rounds(3);
        assert_eq!(r.rounds(), 3);
        r.assert_invariants();
    }

    /// An [`Event`] ordered for `BinaryHeap`, a max-heap, so that it pops
    /// earliest first, ties by lower id: the [`Calendar`]'s oracle.
    #[derive(PartialEq)]
    struct Earliest(Event);

    impl Eq for Earliest {}

    impl PartialOrd for Earliest {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for Earliest {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            let (a, b) = (self.0, other.0);
            b.time.total_cmp(&a.time).then_with(|| b.id.cmp(&a.id))
        }
    }

    /// Runs `ops` random pushes and pops on a [`Calendar`] over `n`
    /// particles and on a `BinaryHeap` oracle, then drains both: each pop
    /// must agree. A push schedules an idle particle `delay` after the last
    /// popped time, as the runner does.
    fn check_against_heap(n: usize, ops: usize, seed: u64, delay: impl Fn(&mut StdRng) -> f64) {
        use std::collections::BinaryHeap;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut calendar = Calendar::new(n);
        let mut heap = BinaryHeap::new();
        let mut idle: Vec<usize> = (0..n).collect();
        let mut clock = 0.0;
        for _ in 0..ops {
            if !idle.is_empty() && (heap.is_empty() || rng.gen_bool(0.5)) {
                let id = idle.swap_remove(rng.gen_range(0..idle.len()));
                let time = clock + delay(&mut rng);
                calendar.push(id, time);
                heap.push(Earliest(Event { time, id }));
            } else {
                let event = calendar.pop();
                assert_eq!(event, heap.pop().map(|e| e.0));
                let event = event.unwrap();
                clock = event.time;
                idle.push(event.id);
            }
        }
        // `iter` lists exactly the pending events, in id order.
        let mut pending: Vec<(usize, u64)> =
            heap.iter().map(|e| (e.0.id, e.0.time.to_bits())).collect();
        pending.sort_unstable();
        let listed: Vec<(usize, u64)> = calendar.iter().map(|e| (e.id, e.time.to_bits())).collect();
        assert_eq!(listed, pending);
        while let Some(Earliest(event)) = heap.pop() {
            assert_eq!(calendar.pop(), Some(event));
        }
        assert_eq!(calendar.pop(), None);
        assert_eq!(calendar.iter().count(), 0);
    }

    #[test]
    fn calendar_pops_exp1_delays_like_a_heap() {
        for (n, seed) in [(1, 1), (60, 2), (1000, 3), (5000, 4)] {
            check_against_heap(n, 40_000, seed, exp1);
        }
    }

    #[test]
    fn calendar_breaks_equal_times_by_id() {
        // Delays from a small set: many events share a time, some share
        // the clock itself.
        check_against_heap(300, 40_000, 5, |rng| {
            [0.0, 0.25, 0.5][rng.gen_range(0..3usize)]
        });
    }

    #[test]
    fn calendar_pops_events_laps_ahead_like_a_heap() {
        // 10^3 to 10^6 time units ahead: far beyond one lap of the ring.
        check_against_heap(500, 20_000, 6, |rng| 10f64.powf(rng.gen_range(3.0..6.0)));
        // Mixed with near events, so both the ring walk and the fallback
        // pop.
        check_against_heap(500, 20_000, 7, |rng| {
            if rng.gen_bool(0.1) {
                10f64.powf(rng.gen_range(3.0..6.0))
            } else {
                exp1(rng)
            }
        });
    }

    #[test]
    fn calendar_keeps_order_at_times_up_to_2_pow_50() {
        // At n = 2^17 the key `time · 2^17` saturates beyond 2^47.
        for n in [64, 1 << 17] {
            check_against_heap(n, 4_000, 8, |rng| 2f64.powf(rng.gen_range(0.0..50.0)));
            let mut calendar = Calendar::new(n);
            for (id, time) in [(0, 2f64.powi(50)), (1, 2f64.powi(49)), (2, 2f64.powi(50))] {
                calendar.push(id, time);
            }
            let order: Vec<usize> = std::iter::from_fn(|| calendar.pop().map(|e| e.id)).collect();
            assert_eq!(order, [1, 0, 2], "n = {n}");
        }
    }

    #[test]
    fn calendar_holds_a_single_event_in_a_large_ring() {
        let mut calendar = Calendar::new(4096);
        assert!(calendar.heads.len() >= 4096);
        let mut rng = StdRng::seed_from_u64(9);
        let mut clock = 0.0;
        for k in 0..5_000usize {
            let id = k * 7 % 4096;
            let time = clock + exp1(&mut rng) * 10f64.powi(k as i32 % 4);
            calendar.push(id, time);
            assert_eq!(calendar.pop(), Some(Event { time, id }));
            assert_eq!(calendar.pop(), None);
            clock = time;
        }
    }

    #[test]
    fn expanded_particles_block_neighbor_expansion() {
        // Run a while and verify that no two adjacent particles are ever
        // simultaneously expanded *with both flags set* — the serialization
        // property the flag protocol guarantees (Section 3.2).
        let mut r = runner(10, 3.0, 17);
        for _ in 0..20_000 {
            r.step();
            let expanded: Vec<usize> = (0..r.len()).filter(|&i| r.is_expanded(i)).collect();
            for &i in &expanded {
                for &j in &expanded {
                    if i >= j || !r.table.particles[i].flag || !r.table.particles[j].flag {
                        continue;
                    }
                    // Flagged expanded particles must not be adjacent.
                    let pi = [
                        r.table.particles[i].tail,
                        r.table.particles[i].head.unwrap(),
                    ];
                    let pj = [
                        r.table.particles[j].tail,
                        r.table.particles[j].head.unwrap(),
                    ];
                    for a in pi {
                        for b in pj {
                            assert!(
                                !a.is_adjacent(b),
                                "flagged expanded particles {i} and {j} adjacent"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_panic_in_the_apply_phase_leaves_a_pipelined_call() {
        let mut r = runner(30, 4.0, 5);
        // A head two sites from its tail: the rule's adjacency `expect`
        // fails on the helper thread when particle 7 next activates.
        let east = Direction::from_index(0);
        let tail = r.table.particles[7].tail;
        r.table.particles[7].head = Some(tail + east + east);
        let call = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            r.run_rounds_with(1_000, 2);
        }));
        assert!(call.is_err(), "the helper's panic must reach the caller");
    }

    /// A `StdRng` stream with the words at chosen draw indices replaced,
    /// counting the words drawn.
    #[derive(Clone, Debug)]
    struct Scripted {
        inner: StdRng,
        drawn: u64,
        script: Vec<(u64, u64)>,
    }

    impl Scripted {
        fn new(seed: u64, script: Vec<(u64, u64)>) -> Scripted {
            Scripted {
                inner: StdRng::seed_from_u64(seed),
                drawn: 0,
                script,
            }
        }
    }

    impl RngCore for Scripted {
        fn next_u64(&mut self) -> u64 {
            let at = self.drawn;
            self.drawn += 1;
            let word = self.inner.next_u64();
            self.script
                .iter()
                .find(|&&(i, _)| i == at)
                .map_or(word, |&(_, w)| w)
        }
    }

    /// A runner of `n` particles on a line under `rng`, particle 1 crashed.
    fn scripted_runner(n: usize, rng: Scripted) -> LocalRunner<Scripted> {
        let sys = ParticleSystem::connected(shapes::line(n)).unwrap();
        let mut r = LocalRunner::new(&sys, 4.0, rng).unwrap();
        r.crash(1);
        r
    }

    /// Everything a `LocalRunner<Scripted>` holds, the words drawn included.
    fn full_state(r: &LocalRunner<Scripted>) -> String {
        let clocks = &r.schedule;
        let queue: Vec<Event> = clocks.queue.iter().collect();
        format!(
            "{:?}",
            (
                (r.rounds(), r.activations(), r.moves_completed(), r.probes()),
                (&r.crashed, r.live, &r.table.particles),
                (clocks.time.to_bits(), &clocks.activated_in_round),
                (clocks.remaining_in_round, clocks.rng.drawn, queue),
            )
        )
    }

    /// Each activation's draw index and whether its particle was
    /// contracted, over `k` steps of `runner`.
    fn activation_draws(runner: &mut LocalRunner<Scripted>, k: u64) -> Vec<(u64, bool)> {
        let mut draws = Vec::new();
        for _ in 0..k {
            let at = runner.schedule.rng.drawn;
            match runner.step() {
                Some(Activation::Expanded { .. } | Activation::Idle { .. }) => {
                    draws.push((at, true))
                }
                Some(Activation::ContractedForward { .. } | Activation::ContractedBack { .. }) => {
                    draws.push((at, false));
                }
                Some(Activation::Crashed { .. }) => {}
                None => break,
            }
        }
        draws
    }

    #[test]
    fn batched_drivers_replay_words_at_the_rejection_boundary_like_step() {
        const N: usize = 30;
        const SEED: u64 = 41;
        let events = PIPELINE_MIN_EVENTS + 3_000;
        let rounds = PIPELINE_MIN_EVENTS.div_ceil(N as u64 - 1);
        let reference =
            activation_draws(&mut scripted_runner(N, Scripted::new(SEED, vec![])), 5_000);
        for contracted in [true, false] {
            // A draw well inside the run, far from a batch boundary.
            let (at, _) = *reference
                .iter()
                .skip(2_500)
                .find(|&&(_, c)| c == contracted)
                .unwrap();
            for word in [u64::MAX, u64::MAX - 4, u64::MAX - 5] {
                let rng = Scripted::new(SEED, vec![(at, word)]);
                let case = format!("contracted={contracted}, word=MAX-{}", u64::MAX - word);
                // The oracle: one `step()` at a time.
                let mut by_events = scripted_runner(N, rng.clone());
                let mut extra_draws = None;
                for _ in 0..events {
                    let before = by_events.schedule.rng.drawn;
                    by_events.step();
                    if before == at {
                        extra_draws = Some(by_events.schedule.rng.drawn - before - 2);
                    }
                }
                // Only a contracted particle's `MAX` is rejected and redrawn.
                let redraw = u64::from(contracted && word > u64::MAX - 4);
                assert_eq!(extra_draws, Some(redraw), "{case}");
                let mut by_rounds = scripted_runner(N, rng.clone());
                while by_rounds.rounds() < rounds {
                    by_rounds.step();
                }
                for workers in [1, 2] {
                    let mut r = scripted_runner(N, rng.clone());
                    r.run_activations_with(events, workers);
                    assert_eq!(full_state(&r), full_state(&by_events), "{case}, {workers}w");
                    let mut r = scripted_runner(N, rng.clone());
                    r.run_rounds_with(rounds, workers);
                    assert_eq!(full_state(&r), full_state(&by_rounds), "{case}, {workers}w");
                }
            }
        }
    }
}
