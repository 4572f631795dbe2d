//! Exact analysis of Markov chain `M` on enumerated state spaces.
//!
//! For small `n` the full state space `Ω` of connected configurations is
//! enumerable, so the paper's structural theorems can be checked *exactly*:
//!
//! * the transition matrix is row-stochastic and, restricted to the
//!   hole-free class `Ω*`, symmetric in support (Lemma 3.9);
//! * the Boltzmann distribution `π(σ) ∝ λ^{e(σ)}` on `Ω*` satisfies detailed
//!   balance and is stationary (Lemma 3.13);
//! * `Ω*` is irreducible under the chain's moves and every state with holes
//!   is transient, draining into `Ω*` (Lemmas 3.8/3.10, Corollary 3.11);
//! * power iteration from any start converges to `π` (ergodicity).

use sops_core::sampler::{move_delta, Acceptance};
use sops_core::{EdgeCount, MoveContext};
use sops_lattice::{Direction, TriMap, TriPoint};
use sops_system::{canonical_key, CanonicalKey, ParticleSystem};

use crate::polyhex;

/// The enumerated state space of all connected configurations of `n`
/// particles, up to translation.
#[derive(Clone, Debug)]
pub struct StateSpace {
    n: usize,
    states: Vec<Vec<TriPoint>>,
    hole_free: Vec<bool>,
    edges: Vec<u64>,
    index: TriMap<CanonicalKey, usize>,
}

impl StateSpace {
    /// Enumerates the state space for `n` particles.
    ///
    /// Practical up to `n ≈ 9` (≈ 7.7 × 10⁴ states at `n = 9`).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn build(n: usize) -> StateSpace {
        assert!(n > 0, "state space needs at least one particle");
        let states = polyhex::enumerate_connected(n);
        let mut hole_free = Vec::with_capacity(states.len());
        let mut edges = Vec::with_capacity(states.len());
        let mut index: TriMap<CanonicalKey, usize> = TriMap::default();
        for (i, cells) in states.iter().enumerate() {
            let sys = ParticleSystem::new(cells.iter().copied()).expect("distinct cells");
            hole_free.push(sys.hole_count() == 0);
            edges.push(sys.edge_count());
            index.insert(canonical_key(cells.iter().copied()), i);
        }
        StateSpace {
            n,
            states,
            hole_free,
            edges,
            index,
        }
    }

    /// Number of particles per configuration.
    #[must_use]
    pub fn particles(&self) -> usize {
        self.n
    }

    /// Number of states (`|Ω|`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// `true` if the space is empty (never happens for `n ≥ 1`).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The canonical point set of state `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn state(&self, i: usize) -> &[TriPoint] {
        &self.states[i]
    }

    /// Whether state `i` is hole-free (in `Ω*`).
    #[must_use]
    pub fn is_hole_free(&self, i: usize) -> bool {
        self.hole_free[i]
    }

    /// Edge count `e(σ)` of state `i`.
    #[must_use]
    pub fn edge_count(&self, i: usize) -> u64 {
        self.edges[i]
    }

    /// Number of hole-free states (`|Ω*|`).
    #[must_use]
    pub fn hole_free_count(&self) -> usize {
        self.hole_free.iter().filter(|&&h| h).count()
    }

    /// Looks up a configuration by canonical key.
    #[must_use]
    pub fn index_of(&self, key: &CanonicalKey) -> Option<usize> {
        self.index.get(key).copied()
    }

    /// The index of the straight-line configuration (the target of the
    /// paper's sweep-line ergodicity argument, Lemma 3.7).
    ///
    /// # Panics
    ///
    /// Panics if the line state is missing (impossible for a correctly
    /// built space).
    #[must_use]
    pub fn line_index(&self) -> usize {
        let key = canonical_key(sops_system::shapes::line(self.n));
        self.index_of(&key).expect("line configuration must exist")
    }

    /// Builds the exact transition matrix of `M` with bias `λ`.
    ///
    /// Transition `σ → τ` (for `τ ≠ σ` reachable by one particle move)
    /// has probability `(m / 6n) · min(1, λ^(e′−e))` where `m` counts the
    /// particle moves realizing it; the remaining mass is the self-loop.
    /// Each move is judged by the samplers' own rule
    /// ([`sops_core::sampler::move_delta`] and
    /// [`sops_core::sampler::Acceptance`] under [`EdgeCount`]).
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is not finite and positive.
    #[must_use]
    pub fn transition_matrix(&self, lambda: f64) -> TransitionMatrix {
        let acceptance =
            Acceptance::new(&EdgeCount, lambda).expect("λ must be finite and positive");
        let n = self.n;
        let base = 1.0 / (6.0 * n as f64);
        let mut rows = Vec::with_capacity(self.len());
        for cells in &self.states {
            let sys = ParticleSystem::new(cells.iter().copied()).expect("distinct cells");
            let mut row: TriMap<usize, f64> = TriMap::default();
            let mut self_loop = 1.0;
            for id in 0..n {
                let from = sys.position(id);
                for dir in Direction::ALL {
                    let ctx = MoveContext {
                        sys: &sys,
                        id,
                        from,
                        dir,
                        validity: sys.check_move(from, dir),
                    };
                    let Some(delta) = move_delta(&EdgeCount, &ctx) else {
                        continue;
                    };
                    let prob = base * acceptance.weight(delta);
                    // Destination state: move this one particle.
                    let mut moved: Vec<TriPoint> = cells.clone();
                    moved[id] = from + dir;
                    let key = canonical_key(moved);
                    let target = self.index_of(&key).expect("moves stay within Ω");
                    *row.entry(target).or_insert(0.0) += prob;
                    self_loop -= prob;
                }
            }
            let mut entries: Vec<(usize, f64)> = row.into_iter().collect();
            entries.sort_by_key(|&(j, _)| j);
            rows.push(RowEntries {
                entries,
                self_loop: self_loop.max(0.0),
            });
        }
        TransitionMatrix { rows }
    }

    /// The Boltzmann distribution of Lemma 3.13: `π(σ) = λ^{e(σ)}/Z` on
    /// hole-free states, 0 on states with holes.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is not finite and positive.
    #[must_use]
    pub fn boltzmann(&self, lambda: f64) -> Vec<f64> {
        assert!(
            lambda.is_finite() && lambda > 0.0,
            "λ must be finite and positive"
        );
        let mut weights = vec![0.0; self.len()];
        let mut z = 0.0;
        for (i, weight) in weights.iter_mut().enumerate() {
            if self.hole_free[i] {
                let w = lambda.powi(self.edges[i] as i32);
                *weight = w;
                z += w;
            }
        }
        for w in &mut weights {
            *w /= z;
        }
        weights
    }
}

#[derive(Clone, Debug)]
struct RowEntries {
    entries: Vec<(usize, f64)>,
    self_loop: f64,
}

/// A sparse row-stochastic transition matrix over an enumerated state space.
#[derive(Clone, Debug)]
pub struct TransitionMatrix {
    rows: Vec<RowEntries>,
}

impl TransitionMatrix {
    /// Number of states.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the matrix is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The transition probability `M(i, j)`.
    #[must_use]
    pub fn prob(&self, i: usize, j: usize) -> f64 {
        let row = &self.rows[i];
        if i == j {
            return row.self_loop;
        }
        row.entries
            .binary_search_by_key(&j, |&(k, _)| k)
            .map(|pos| row.entries[pos].1)
            .unwrap_or(0.0)
    }

    /// Maximum deviation of any row sum from 1.
    #[must_use]
    pub fn max_row_sum_error(&self) -> f64 {
        self.rows
            .iter()
            .map(|row| {
                let sum: f64 = row.self_loop + row.entries.iter().map(|&(_, p)| p).sum::<f64>();
                (sum - 1.0).abs()
            })
            .fold(0.0, f64::max)
    }

    /// One step of the distribution: `next = dist · M`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    #[must_use]
    pub fn evolve(&self, dist: &[f64]) -> Vec<f64> {
        assert_eq!(dist.len(), self.len(), "dimension mismatch");
        let mut next = vec![0.0; dist.len()];
        for (i, row) in self.rows.iter().enumerate() {
            let mass = dist[i];
            if mass == 0.0 {
                continue;
            }
            next[i] += mass * row.self_loop;
            for &(j, p) in &row.entries {
                next[j] += mass * p;
            }
        }
        next
    }

    /// Iterates `dist · M^t` until successive iterates differ by less than
    /// `tol` in L1, or `max_iters` is reached. Returns the final
    /// distribution and the number of iterations used.
    #[must_use]
    pub fn power_iterate(&self, start: &[f64], tol: f64, max_iters: usize) -> (Vec<f64>, usize) {
        let mut dist = start.to_vec();
        for it in 0..max_iters {
            let next = self.evolve(&dist);
            let l1: f64 = dist
                .iter()
                .zip(next.iter())
                .map(|(a, b)| (a - b).abs())
                .sum();
            dist = next;
            if l1 < tol {
                return (dist, it + 1);
            }
        }
        (dist, max_iters)
    }

    /// Maximum detailed-balance violation `|π_i M(i,j) − π_j M(j,i)|` over
    /// all pairs with positive flow.
    #[must_use]
    pub fn max_detailed_balance_violation(&self, pi: &[f64]) -> f64 {
        let mut worst = 0.0f64;
        for (i, row) in self.rows.iter().enumerate() {
            for &(j, p) in &row.entries {
                let forward = pi[i] * p;
                let backward = pi[j] * self.prob(j, i);
                worst = worst.max((forward - backward).abs());
            }
        }
        worst
    }

    /// Maximum stationarity violation `‖π M − π‖∞`.
    #[must_use]
    pub fn max_stationarity_violation(&self, pi: &[f64]) -> f64 {
        self.evolve(pi)
            .iter()
            .zip(pi.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// States reachable from `start` by positive-probability moves
    /// (excluding self-loops).
    #[must_use]
    pub fn reachable_from(&self, start: usize) -> Vec<bool> {
        let mut seen = vec![false; self.len()];
        let mut stack = vec![start];
        seen[start] = true;
        while let Some(i) = stack.pop() {
            for &(j, p) in &self.rows[i].entries {
                if p > 0.0 && !seen[j] {
                    seen[j] = true;
                    stack.push(j);
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_counts_match_enumeration() {
        let space = StateSpace::build(4);
        assert_eq!(space.len(), 44);
        assert_eq!(space.hole_free_count(), 44, "no holes at n = 4");
        let space6 = StateSpace::build(6);
        assert_eq!(space6.len() - space6.hole_free_count(), 1);
    }

    #[test]
    fn rows_are_stochastic() {
        let space = StateSpace::build(4);
        for lambda in [0.5, 1.0, 2.0, 4.0] {
            let m = space.transition_matrix(lambda);
            assert!(m.max_row_sum_error() < 1e-12, "λ = {lambda}");
        }
    }

    #[test]
    fn boltzmann_is_stationary_and_balanced() {
        let space = StateSpace::build(5);
        for lambda in [0.7, 1.0, 3.0, 5.0] {
            let m = space.transition_matrix(lambda);
            let pi = space.boltzmann(lambda);
            assert!(
                m.max_detailed_balance_violation(&pi) < 1e-14,
                "detailed balance fails at λ = {lambda}"
            );
            assert!(
                m.max_stationarity_violation(&pi) < 1e-14,
                "πM ≠ π at λ = {lambda}"
            );
        }
    }

    #[test]
    fn power_iteration_converges_to_boltzmann() {
        let space = StateSpace::build(4);
        let m = space.transition_matrix(3.0);
        let pi = space.boltzmann(3.0);
        // Start from the line configuration.
        let mut start = vec![0.0; space.len()];
        start[space.line_index()] = 1.0;
        let (dist, iters) = m.power_iterate(&start, 1e-12, 200_000);
        assert!(iters < 200_000, "must converge");
        let tv: f64 = 0.5
            * dist
                .iter()
                .zip(pi.iter())
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>();
        assert!(tv < 1e-9, "TV distance {tv}");
    }

    #[test]
    fn hole_free_class_is_irreducible() {
        let space = StateSpace::build(6);
        let m = space.transition_matrix(2.0);
        let reach = m.reachable_from(space.line_index());
        for (i, reached) in reach.iter().enumerate() {
            if space.is_hole_free(i) {
                assert!(*reached, "hole-free state {i} unreachable from line");
            } else {
                assert!(!*reached, "hole state {i} must be unreachable from Ω*");
            }
        }
    }

    #[test]
    fn hole_states_are_transient() {
        let space = StateSpace::build(6);
        let m = space.transition_matrix(2.0);
        for i in 0..space.len() {
            if space.is_hole_free(i) {
                continue;
            }
            // From a hole state, some hole-free state must be reachable.
            let reach = m.reachable_from(i);
            let escapes = (0..space.len()).any(|j| reach[j] && space.is_hole_free(j));
            assert!(escapes, "hole state {i} cannot escape");
        }
        // And π gives zero mass to hole states.
        let pi = space.boltzmann(2.0);
        for (i, mass) in pi.iter().enumerate() {
            if !space.is_hole_free(i) {
                assert_eq!(*mass, 0.0);
            }
        }
    }

    #[test]
    fn support_is_symmetric_on_hole_free_states() {
        // Lemma 3.9: within Ω*, M(σ,τ) > 0 iff M(τ,σ) > 0.
        let space = StateSpace::build(5);
        let m = space.transition_matrix(1.5);
        for i in 0..space.len() {
            for j in 0..space.len() {
                if i == j {
                    continue;
                }
                let forward = m.prob(i, j) > 0.0;
                let backward = m.prob(j, i) > 0.0;
                assert_eq!(forward, backward, "asymmetric support {i} ↔ {j}");
            }
        }
    }

    #[test]
    fn uniform_lambda_one_is_stationary() {
        // At λ = 1 every hole-free configuration has equal weight.
        let space = StateSpace::build(4);
        let pi = space.boltzmann(1.0);
        let expect = 1.0 / space.hole_free_count() as f64;
        for (i, &p) in pi.iter().enumerate() {
            if space.is_hole_free(i) {
                assert!((p - expect).abs() < 1e-15);
            }
        }
    }
}
