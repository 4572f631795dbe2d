//! E8 — Lemma 3.13 / Corollary 3.14: the stationary distribution, exactly.
//!
//! For small `n` the state space is enumerable, so we can check all of:
//!
//! * the exact transition matrix satisfies detailed balance against
//!   `π(σ) = λ^{e(σ)}/Z` and `πM = π` to machine precision;
//! * power iteration from the line configuration converges to `π`;
//! * a long empirical run of the production chain visits states with
//!   frequencies within small total-variation distance of `π`;
//! * equivalently (Corollary 3.14), frequencies match `λ^{−p(σ)}` weights.
//!
//! ```sh
//! cargo run --release -p sops-bench --bin stationary_exact
//! ```

use std::collections::HashMap;

use sops::analysis::table::{fmt_f64, Table};
use sops::analysis::total_variation;
use sops::enumerate::StateSpace;
use sops::prelude::*;
use sops_bench::{out, Args};

/// Either sampler of `M`; both share the stationary law, so the empirical
/// column can cross-check the rejection-free implementation against the
/// exact distribution too (`--algo chain-kmc`).
enum Sampler {
    Chain(Box<CompressionChain>),
    Kmc(Box<KmcChain>),
}

impl Sampler {
    fn new(kmc: bool, start: ParticleSystem, lambda: f64, seed: u64) -> Sampler {
        if kmc {
            Sampler::Kmc(Box::new(
                KmcChain::from_seed(start, lambda, seed).expect("params"),
            ))
        } else {
            Sampler::Chain(Box::new(
                CompressionChain::from_seed(start, lambda, seed).expect("params"),
            ))
        }
    }

    fn run(&mut self, steps: u64) {
        match self {
            Sampler::Chain(c) => {
                c.run(steps);
            }
            Sampler::Kmc(k) => {
                k.run(steps);
            }
        }
    }

    fn system(&self) -> &ParticleSystem {
        match self {
            Sampler::Chain(c) => c.system(),
            Sampler::Kmc(k) => k.system(),
        }
    }
}

fn empirical(space: &StateSpace, kmc: bool, lambda: f64, steps: u64, seed: u64) -> Vec<f64> {
    let n = space.particles();
    let start = ParticleSystem::connected(shapes::line(n)).expect("line");
    let mut chain = Sampler::new(kmc, start, lambda, seed);
    chain.run(20_000); // burn-in
    let thin = n as u64;
    let mut counts: HashMap<usize, u64> = HashMap::new();
    let mut samples = 0u64;
    let mut done = 0u64;
    while done < steps {
        chain.run(thin);
        done += thin;
        let idx = space
            .index_of(&chain.system().canonical_key())
            .expect("state enumerated");
        *counts.entry(idx).or_insert(0) += 1;
        samples += 1;
    }
    let mut dist = vec![0.0; space.len()];
    for (i, c) in counts {
        dist[i] = c as f64 / samples as f64;
    }
    dist
}

fn main() {
    let args = Args::from_env();
    let quick = args.flag("quick");
    let steps = args.get_u64("steps", if quick { 400_000 } else { 4_000_000 });
    let max_n = args.get_usize("max-n", 5);
    // Parse through the engine's Algorithm so the accepted aliases stay in
    // one place, even though this binary drives the samplers directly. The
    // exact transition matrix is built for the edge-count Hamiltonian, so
    // other Hamiltonians are rejected rather than compared to the wrong π.
    let algo: sops_engine::Algorithm = args.algorithm("chain");
    let kmc = match algo {
        sops_engine::Algorithm::CHAIN => false,
        sops_engine::Algorithm::CHAIN_KMC => true,
        other => panic!(
            "--algo: {other} has no exact-stationarity mode \
             (try chain|chain-kmc with the default edge-count hamiltonian)"
        ),
    };

    println!("# E8 / Lemma 3.13 — exact stationarity checks (empirical runs: {algo})\n");

    let mut table = Table::new([
        "n",
        "λ",
        "|Ω|",
        "|Ω*|",
        "row-sum err",
        "detailed balance err",
        "‖πM−π‖∞",
        "power-iter TV",
        "empirical TV",
    ]);

    for n in 3..=max_n {
        let space = StateSpace::build(n);
        for lambda in [0.5, 2.0, 4.0] {
            let m = space.transition_matrix(lambda);
            let pi = space.boltzmann(lambda);

            let mut start_dist = vec![0.0; space.len()];
            start_dist[space.line_index()] = 1.0;
            let (converged, _) = m.power_iterate(&start_dist, 1e-13, 500_000);
            let power_tv = total_variation(&converged, &pi);

            // Empirical only for the middle λ to keep runtime bounded.
            let empirical_tv = if (lambda - 2.0).abs() < 1e-9 {
                let emp = empirical(&space, kmc, lambda, steps, 4242 + n as u64);
                fmt_f64(total_variation(&emp, &pi), 4)
            } else {
                "-".to_string()
            };

            table.row([
                n.to_string(),
                fmt_f64(lambda, 1),
                space.len().to_string(),
                space.hole_free_count().to_string(),
                format!("{:.1e}", m.max_row_sum_error()),
                format!("{:.1e}", m.max_detailed_balance_violation(&pi)),
                format!("{:.1e}", m.max_stationarity_violation(&pi)),
                format!("{power_tv:.1e}"),
                empirical_tv,
            ]);
        }
    }
    out::emit("stationary_exact", &table).expect("write results");

    println!("\npaper's claim (Lemma 3.13): π(σ) = λ^e(σ)/Z on hole-free states, 0 on");
    println!("states with holes — verified to machine precision above; the empirical");
    println!("column shows a live run of the production chain matching π in TV distance.");
}
