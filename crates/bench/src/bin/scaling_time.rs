//! E7 — Section 3.7: iterations to compression scale like n^3…n^4.
//!
//! The paper reports that "doubling the number of particles consistently
//! results in about a ten-fold increase in iterations until compression",
//! and conjectures the iteration count is Ω(n³) and O(n⁴) (≈ n^3.3 for a
//! ten-fold-per-doubling law). This binary measures first-hit times to
//! α-compression for a doubling ladder of n — engine jobs in first-hit
//! mode, `reps` repetitions per size — fits the power law, and reports the
//! ratio between consecutive sizes.
//!
//! ```sh
//! cargo run --release -p sops-bench --bin scaling_time
//! cargo run --release -p sops-bench --bin scaling_time -- --quick --threads 8
//! ```

use sops::analysis::stats::Summary;
use sops::analysis::table::{fmt_f64, Table};
use sops::analysis::LinearFit;
use sops_bench::cli::usage_error;
use sops_bench::{help, out, Args};
use sops_engine::{run_sweep, Algorithm, EngineConfig, ExperimentSpec};

const USAGE: &str = "\
scaling_time — E7: first-hit iterations until alpha-compression vs n
  --lambda L --alpha A --reps R --max-steps S --seed S --algo A
  --hamiltonian H --threads T --quick";

fn main() {
    let args = Args::from_env();
    help::maybe_help(&args, USAGE);
    let quick = args.flag("quick");
    let lambda = args.get_f64("lambda", 4.0);
    let alpha = args.get_f64("alpha", 2.0);
    // First-hit step counts are step-indexed, so the rejection-free sampler
    // (`--algo chain-kmc`) measures the same law — useful for pushing the
    // doubling ladder to sizes the naive chain cannot reach in wall clock.
    // `--hamiltonian alignment[:q]` times compression under the alignment
    // bias instead (perimeter first hits remain well-defined).
    let algo: Algorithm = args.algorithm("chain");
    if !algo.is_chain_sampler() {
        usage_error(
            "--algo must be chain or chain-kmc (first-hit mode only exists for the chain samplers)",
        );
    }
    let reps = args.get_u64("reps", if quick { 2 } else { 5 });
    let sizes: Vec<usize> = if quick {
        vec![12, 25, 50]
    } else {
        vec![25, 50, 100, 200]
    };
    let max_steps = args.get_u64("max-steps", if quick { 20_000_000 } else { 400_000_000 });

    println!("# E7 / Section 3.7 — iterations until α-compression ({algo})");
    println!("λ = {lambda}, target α = {alpha}, {reps} repetitions per n\n");

    // One engine job per (n, repetition), all racing on the shared pool.
    let mut spec = ExperimentSpec::new("scaling-time", args.get_u64("seed", 1000));
    spec.grids[0].ns = sizes.clone();
    spec.grids[0].lambdas = vec![lambda];
    spec.grids[0].algorithms = vec![algo];
    spec.grids[0].reps = reps;
    spec.grids[0].steps = max_steps;
    spec.grids[0].until_alpha = Some(alpha);
    let report = run_sweep(
        spec.jobs(),
        &EngineConfig {
            threads: args.threads(),
            experiment: Some(spec.name.clone()),
            telemetry: args.telemetry(),
            ..EngineConfig::default()
        },
    )
    .expect("sweep");

    let mut table = Table::new(["n", "median iterations", "mean", "min", "max", "×prev"]);
    let mut medians: Vec<(f64, f64)> = Vec::new();
    let mut prev_median: Option<f64> = None;
    for &n in &sizes {
        let times: Vec<f64> = report
            .iter()
            .filter(|(spec, result)| spec.n == n && result.first_hit.is_some())
            .map(|(_, result)| result.first_hit.expect("filtered") as f64)
            .collect();
        if times.is_empty() {
            table.row([
                n.to_string(),
                "> max-steps".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]);
            continue;
        }
        let summary = Summary::of(&times);
        let ratio = prev_median
            .map(|p| fmt_f64(summary.median / p, 1))
            .unwrap_or_else(|| "-".to_string());
        table.row([
            n.to_string(),
            fmt_f64(summary.median, 0),
            fmt_f64(summary.mean, 0),
            fmt_f64(summary.min, 0),
            fmt_f64(summary.max, 0),
            ratio,
        ]);
        medians.push((n as f64, summary.median));
        prev_median = Some(summary.median);
    }
    out::emit("scaling_time", &table).expect("write results");
    if args.flag("metrics") {
        out::write_metrics("scaling_time", &report.metrics_json()).expect("write metrics");
    }

    if medians.len() >= 3 {
        let xs: Vec<f64> = medians.iter().map(|&(n, _)| n).collect();
        let ys: Vec<f64> = medians.iter().map(|&(_, t)| t).collect();
        let fit = LinearFit::fit_power_law(&xs, &ys);
        println!(
            "\npower-law fit: iterations ≈ {:.3} · n^{:.2}  (R² = {:.3})",
            fit.intercept.exp(),
            fit.slope,
            fit.r_squared
        );
        println!(
            "paper's claim: exponent in [3, 4] (ten-fold per doubling ⇒ ≈ 3.32); measured {:.2}",
            fit.slope
        );
    }
}
