//! The centralized chain `M` beside the local algorithm `A` (Section 3.2):
//! both drive the system to similar long-run perimeters, with `n` chain
//! steps corresponding to roughly one asynchronous round. They are not
//! equal in law: `A`'s tails do not follow `M`'s stationary `π` (exact
//! enumeration at n = 3..5 finds a total-variation distance of 2·10⁻² to
//! 7·10⁻²). The bands below are wide enough to pass despite that bias, so
//! they check the order of magnitude, not the law; no exact gate of `A`
//! exists yet.

use sops::analysis::stats::Summary;
use sops::analysis::timeseries::tail_mean;
use sops::prelude::*;

/// Long-run perimeter under `M`.
fn chain_tail_perimeter(n: usize, lambda: f64, steps: u64, seed: u64) -> f64 {
    let start = ParticleSystem::connected(shapes::line(n)).unwrap();
    let mut chain = CompressionChain::from_seed(start, lambda, seed).unwrap();
    let trajectory = chain.trajectory(steps, steps / 50);
    let perimeters: Vec<f64> = trajectory.iter().map(|p| p.perimeter as f64).collect();
    tail_mean(&perimeters, 0.3)
}

/// Long-run perimeter under `A` (tail configuration).
fn local_tail_perimeter(n: usize, lambda: f64, rounds: u64, seed: u64) -> f64 {
    let start = ParticleSystem::connected(shapes::line(n)).unwrap();
    let mut runner = LocalRunner::from_seed(&start, lambda, seed).unwrap();
    let mut perimeters = Vec::new();
    for _ in 0..50 {
        runner.run_rounds(rounds / 50);
        perimeters.push(runner.tail_system().perimeter() as f64);
    }
    tail_mean(&perimeters, 0.3)
}

/// At compressing bias both processes converge to similar perimeter.
#[test]
fn long_run_perimeters_agree_at_lambda_4() {
    let n = 30;
    // 6000 rounds ≈ 6000 · n chain steps.
    let chain_samples: Vec<f64> = (0..4)
        .map(|s| chain_tail_perimeter(n, 4.0, 6_000 * n as u64, 100 + s))
        .collect();
    let local_samples: Vec<f64> = (0..4)
        .map(|s| local_tail_perimeter(n, 4.0, 6_000, 200 + s))
        .collect();
    let chain_mean = Summary::of(&chain_samples).mean;
    let local_mean = Summary::of(&local_samples).mean;
    let rel = (chain_mean - local_mean).abs() / chain_mean;
    assert!(
        rel < 0.15,
        "chain {chain_mean:.1} vs local {local_mean:.1} differ by {:.0}%",
        rel * 100.0
    );
}

/// At expanding bias both processes stay expanded.
#[test]
fn long_run_perimeters_agree_at_lambda_2() {
    let n = 30;
    let chain_p = chain_tail_perimeter(n, 2.0, 150_000, 1);
    let local_p = local_tail_perimeter(n, 2.0, 5_000, 2);
    let pmax = metrics::pmax(n) as f64;
    assert!(chain_p > 0.5 * pmax, "chain perimeter {chain_p}");
    assert!(local_p > 0.5 * pmax, "local perimeter {local_p}");
}

/// The local algorithm preserves the paper's invariants throughout: tails
/// stay connected, and once hole-free the tail configuration never regrows
/// a hole.
#[test]
fn local_execution_preserves_invariants() {
    let start = ParticleSystem::connected(shapes::annulus(3)).unwrap();
    let mut runner = LocalRunner::from_seed(&start, 4.0, 9).unwrap();
    let mut was_hole_free = false;
    for _ in 0..300 {
        runner.run_rounds(5);
        runner.assert_invariants();
        let tails = runner.tail_system();
        assert!(tails.is_connected(), "tail configuration disconnected");
        let hole_free = tails.hole_count() == 0;
        if was_hole_free {
            assert!(hole_free, "hole reappeared under A");
        }
        was_hole_free = hole_free;
    }
    assert!(was_hole_free, "annulus hole should be eliminated");
}

/// Activations per round concentrate around n·H(n) (coupon collector), a
/// sanity check that the Poisson scheduling is fair.
#[test]
fn poisson_scheduling_is_fair() {
    let n = 20usize;
    let start = ParticleSystem::connected(shapes::line(n)).unwrap();
    let mut runner = LocalRunner::from_seed(&start, 1.0, 3).unwrap();
    runner.run_rounds(200);
    let per_round = runner.activations() as f64 / runner.rounds() as f64;
    // Coupon collector: n · H_n ≈ 20 · 3.6 ≈ 72.
    let expected = n as f64 * (1..=n).map(|k| 1.0 / k as f64).sum::<f64>();
    assert!(
        (per_round - expected).abs() < expected * 0.25,
        "activations/round = {per_round:.1}, expected ≈ {expected:.1}"
    );
}
