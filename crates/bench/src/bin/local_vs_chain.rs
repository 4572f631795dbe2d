//! E12 — Section 3.2: the local algorithm `A` beside Markov chain `M`.
//!
//! Runs both processes side by side at compressing (λ = 4) and expanding
//! (λ = 2) bias, aligning `n` chain iterations with one asynchronous round,
//! and compares the perimeter trajectories and long-run values. `A` is a
//! different chain: its tails do not follow `M`'s stationary `π` (exact
//! enumeration at n = 3..5 finds a total-variation distance of 2·10⁻² to
//! 7·10⁻²), so the long-run values are close, not equal in law.
//!
//! ```sh
//! cargo run --release -p sops-bench --bin local_vs_chain
//! ```

use sops::analysis::table::{fmt_f64, Table};
use sops::analysis::timeseries::tail_mean;
use sops::prelude::*;
use sops_bench::{out, Args};

fn trajectories(
    n: usize,
    lambda: f64,
    rounds: u64,
    samples: u64,
    seed: u64,
) -> (Vec<f64>, Vec<f64>) {
    let start = ParticleSystem::connected(shapes::line(n)).expect("line");
    let mut chain = CompressionChain::from_seed(start.clone(), lambda, seed).expect("params");
    let mut runner = LocalRunner::from_seed(&start, lambda, seed ^ 0xff).expect("params");
    let rounds_per_sample = rounds / samples;
    let steps_per_sample = rounds_per_sample * n as u64;
    let mut chain_p = Vec::new();
    let mut local_p = Vec::new();
    for _ in 0..samples {
        chain.run(steps_per_sample);
        runner.run_rounds(rounds_per_sample);
        chain_p.push(chain.perimeter() as f64);
        local_p.push(runner.tail_system().perimeter() as f64);
    }
    (chain_p, local_p)
}

fn main() {
    let args = Args::from_env();
    let quick = args.flag("quick");
    let n = args.get_usize("n", 100);
    let rounds = args.get_u64("rounds", if quick { 2_000 } else { 40_000 });
    let samples = args.get_u64("samples", 40);

    println!("# E12 / Section 3.2 — local algorithm A vs Markov chain M");
    println!(
        "n = {n}, {rounds} rounds ≈ {} chain iterations\n",
        rounds * n as u64
    );

    let mut table = Table::new([
        "λ",
        "tail p̄ (chain M)",
        "tail p̄ (local A)",
        "relative gap",
        "verdict",
    ]);
    for lambda in [2.0, 4.0] {
        let (chain_p, local_p) = trajectories(n, lambda, rounds, samples, 33);
        let chain_tail = tail_mean(&chain_p, 0.3);
        let local_tail = tail_mean(&local_p, 0.3);
        let gap = (chain_tail - local_tail).abs() / chain_tail;
        table.row([
            fmt_f64(lambda, 1),
            fmt_f64(chain_tail, 1),
            fmt_f64(local_tail, 1),
            format!("{:.1}%", gap * 100.0),
            if gap < 0.15 { "agree" } else { "DIVERGE" }.to_string(),
        ]);
    }
    out::emit("local_vs_chain", &table).expect("write results");

    println!("\nA is a different chain from M: it compresses and expands at the same");
    println!("biases, but its tails do not sample M's stationary pi (exact enumeration");
    println!("at n = 3..5 finds a total-variation distance of 2e-2 to 7e-2). Read a");
    println!("gap between the long-run perimeters as that bias plus sampling error.");
}
