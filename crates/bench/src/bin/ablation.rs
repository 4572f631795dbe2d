//! Ablation — why Algorithm `M`'s move conditions are necessary.
//!
//! Section 3.1 motivates two structural guards: Condition (1) `e ≠ 5`
//! prevents holes; Condition (2) Properties 1/2 preserves connectivity.
//! This experiment removes each guard in turn and counts how often the
//! corresponding invariant breaks. `docs/EXPERIMENTS.md` indexes it beside
//! experiments E1–E15.
//!
//! ```sh
//! cargo run --release -p sops-bench --bin ablation
//! ```

use sops::analysis::table::Table;
use sops::prelude::*;
use sops_bench::ablation::{run, Guards};
use sops_bench::{out, Args};

fn main() {
    let args = Args::from_env();
    let quick = args.flag("quick");
    let n = args.get_usize("n", 50);
    let lambda = args.get_f64("lambda", 4.0);
    let steps = args.get_u64("steps", if quick { 100_000 } else { 1_000_000 });
    let check_every = args.get_u64("check-every", 20);

    println!("# Ablation — removing Algorithm M's structural guards");
    println!(
        "n = {n}, λ = {lambda}, {steps} steps, invariants checked every {check_every} steps\n"
    );

    let start = ParticleSystem::connected(shapes::line(n)).expect("line");
    let variants = [
        ("full algorithm", Guards::full()),
        (
            "no five-neighbor rule",
            Guards::without_five_neighbor_rule(),
        ),
        ("no Properties 1/2", Guards::without_properties()),
        (
            "no guards at all",
            Guards {
                five_neighbor_rule: false,
                properties: false,
            },
        ),
    ];

    let mut table = Table::new([
        "variant",
        "steps run",
        "moves",
        "disconnections",
        "holes created",
        "first violation at",
    ]);
    for (name, guards) in variants {
        let report = run(&start, lambda, guards, steps, check_every, 11);
        table.row([
            name.to_string(),
            report.steps.to_string(),
            report.moves.to_string(),
            report.disconnection_events.to_string(),
            report.hole_events.to_string(),
            report
                .first_violation_step
                .map(|s| s.to_string())
                .unwrap_or_else(|| "never".to_string()),
        ]);
    }
    out::emit("ablation", &table).expect("write results");

    println!("\nreading: the full algorithm shows zero violations (Lemmas 3.1/3.2);");
    println!("dropping either guard produces violations, so neither condition is");
    println!("merely conservative.");
}
