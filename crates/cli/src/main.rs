//! `sops-cli` — run compression simulations from the command line.
//!
//! ```text
//! sops-cli run      experiment.toml [--override key=value]... [--print-grid] [--threads T]
//!                   [--out NAME] [--checkpoint DIR [--checkpoint-every W]] [--stop-after K]
//!                   [--strict-io] [--retry-failed]
//! sops-cli simulate --n 100 --lambda 4 --steps 1000000 [--shape line|spiral|annulus|random]
//!                   [--hamiltonian edges|alignment[:q]] [--seed S] [--svg out.svg] [--every K]
//! sops-cli local    --n 100 --lambda 4 --rounds 10000 [--seed S] [--shards K]
//! sops-cli sweep    --n 50,100 --lambda 2,4 --steps 100000 [--algo chain,local]
//!                   [--hamiltonian edges,alignment[:q]] [--shards K]
//!                   [--threads T] [--checkpoint DIR [--checkpoint-every W]] [--out NAME]
//!                   [--strict-io] [--retry-failed]
//! sops-cli enumerate --max-n 9
//! sops-cli saw      --max-len 20
//! sops-cli render   --shape spiral --n 50 [--svg out.svg]
//! sops-cli witness
//! ```

use sops::analysis::table::{fmt_f64, Table};
use sops::core::local::Runner;
use sops::core::sharded::ShardedLocalRunner;
use sops::enumerate::{polyhex, saw};
use sops::prelude::*;
use sops::render::{ascii, svg};
use sops_bench::Args;

mod commands;

use commands::{build_shape, print_usage};

fn main() {
    let mut argv = std::env::args().skip(1);
    let Some(command) = argv.next() else {
        print_usage();
        std::process::exit(2);
    };
    // `run` takes a positional file path before the flags.
    if command == "run" {
        let Some(path) = argv.next().filter(|p| !p.starts_with("--")) else {
            eprintln!("usage: sops-cli run <experiment.toml> [--override key=value]...");
            std::process::exit(2);
        };
        commands::run(&path, &Args::from_iter(argv));
        return;
    }
    let args = Args::from_iter(argv);
    match command.as_str() {
        "simulate" => simulate(&args),
        "local" => local(&args),
        "sweep" => commands::sweep(&args),
        "enumerate" => enumerate(&args),
        "saw" => saw_counts(&args),
        "render" => render(&args),
        "witness" => witness(),
        "help" | "--help" | "-h" => print_usage(),
        other => {
            eprintln!("unknown command: {other}\n");
            print_usage();
            std::process::exit(2);
        }
    }
}

fn simulate(args: &Args) {
    let n = args.get_usize("n", 100);
    let lambda = args.get_f64("lambda", 4.0);
    let steps = args.get_u64("steps", 1_000_000);
    let seed = args.get_u64("seed", 0);
    let every = args.get_u64("every", steps / 10);
    let hamiltonian: HamiltonianSpec = args
        .get_string("hamiltonian")
        .unwrap_or_else(|| "edges".into())
        .parse()
        .unwrap_or_else(|err| {
            eprintln!("--hamiltonian: {err}");
            std::process::exit(2);
        });
    let start = build_shape(args, n, seed);

    eprintln!(
        "chain M ({hamiltonian}): n = {n}, λ = {lambda}, {steps} steps, seed {seed} \
         (pmin = {}, pmax = {})",
        metrics::pmin(n),
        metrics::pmax(n)
    );
    // Monomorphize per Hamiltonian here, at the edge where the choice is
    // data; orientations use the same salted seed a sweep job would.
    match hamiltonian {
        HamiltonianSpec::Edges => {
            let chain = CompressionChain::from_seed(start, lambda, seed);
            simulate_chain(args, chain, steps, every);
        }
        HamiltonianSpec::Alignment { q } => {
            let start = start.with_random_orientations(q, seed ^ sops_engine::ORIENT_SALT);
            let chain = CompressionChain::from_seed_with(start, lambda, seed, Alignment::new(q));
            simulate_chain(args, chain, steps, every);
        }
    }
}

/// Runs and reports one `simulate` invocation over any Hamiltonian.
fn simulate_chain<H: Hamiltonian>(
    args: &Args,
    chain: Result<CompressionChain<StdRng, H>, ChainError>,
    steps: u64,
    every: u64,
) {
    let mut chain = match chain {
        Ok(chain) => chain,
        Err(err) => {
            eprintln!("error: {err}");
            std::process::exit(1);
        }
    };
    let oriented = chain.system().orientations().is_some();
    let mut table = Table::new(["step", "edges", "perimeter", "alpha", "beta", "holes"]);
    for point in chain.trajectory(steps, every) {
        table.row([
            point.step.to_string(),
            point.edges.to_string(),
            point.perimeter.to_string(),
            fmt_f64(point.alpha, 3),
            fmt_f64(point.beta, 3),
            point.holes.to_string(),
        ]);
    }
    print!("{}", table.to_markdown());
    println!("\nfinal: {}", ascii::summary(chain.system()));
    println!("acceptance rate {:.3}", chain.counts().acceptance_rate());
    if oriented {
        println!(
            "alignment order {:.3} ({} aligned pairs / {} edges)",
            metrics::alignment_order(chain.system()),
            metrics::aligned_pairs(chain.system()),
            chain.system().edge_count()
        );
    }
    maybe_svg(args, chain.system());
}

fn local(args: &Args) {
    let n = args.get_usize("n", 100);
    let lambda = args.get_f64("lambda", 4.0);
    let rounds = args.get_u64("rounds", 10_000);
    let seed = args.get_u64("seed", 0);
    let start = build_shape(args, n, seed);

    // `--shards K` switches to the checkerboard-synchronous variant of A
    // and runs each round's color steps on K workers. K is an execution
    // detail: any K ≥ 1 prints the identical table for a given seed.
    let Some(shards) = args.get_string("shards") else {
        eprintln!("local algorithm A: n = {n}, λ = {lambda}, {rounds} rounds, seed {seed}");
        let runner = LocalRunner::from_seed(&start, lambda, seed);
        report_local(args, runner, rounds, |runner, k| runner.run_rounds(k));
        return;
    };
    let shards = shards
        .parse::<usize>()
        .unwrap_or_else(|_| {
            eprintln!("--shards expects an integer");
            std::process::exit(2);
        })
        .max(1);
    eprintln!(
        "local algorithm A (sharded): n = {n}, λ = {lambda}, {rounds} rounds, \
         seed {seed}, {shards} shard worker(s)"
    );
    let executor = sops_engine::PoolExecutor::new(shards);
    let runner = ShardedLocalRunner::from_seed(&start, lambda, seed);
    report_local(args, runner, rounds, |runner, k| {
        runner.run_rounds_with(k, &executor);
    });
}

/// Runs `rounds` rounds of algorithm `A` under either schedule, `advance`
/// taking them in tenths, and prints a table row per tenth and the final
/// configuration.
fn report_local<S>(
    args: &Args,
    runner: Result<Runner<S>, ChainError>,
    rounds: u64,
    mut advance: impl FnMut(&mut Runner<S>, u64),
) {
    let mut runner = runner.unwrap_or_else(|err| {
        eprintln!("error: {err}");
        std::process::exit(1);
    });
    let mut table = Table::new(["round", "perimeter", "alpha", "moves", "activations"]);
    let chunk = (rounds / 10).max(1);
    let mut done = 0;
    while done < rounds {
        advance(&mut runner, chunk.min(rounds - done));
        done = runner.rounds();
        let tails = runner.tail_system();
        table.row([
            runner.rounds().to_string(),
            tails.perimeter().to_string(),
            fmt_f64(metrics::compression_ratio(&tails), 3),
            runner.moves_completed().to_string(),
            runner.activations().to_string(),
        ]);
    }
    print!("{}", table.to_markdown());
    let tails = runner.tail_system();
    println!("\nfinal: {}", ascii::summary(&tails));
    maybe_svg(args, &tails);
}

fn enumerate(args: &Args) {
    let max_n = args.get_usize("max-n", 9);
    let all = polyhex::count_connected_up_to(max_n);
    let mut table = Table::new(["n", "connected", "hole-free"]);
    for (n, &count) in all.iter().enumerate().skip(1) {
        table.row([
            n.to_string(),
            count.to_string(),
            polyhex::count_hole_free(n).to_string(),
        ]);
    }
    print!("{}", table.to_markdown());
}

fn saw_counts(args: &Args) {
    let max_len = args.get_usize("max-len", 20);
    let counts = saw::count_walks_up_to(max_len);
    let mut table = Table::new(["l", "N_l", "N_l^(1/l)"]);
    for (l, &count) in counts.iter().enumerate().skip(1) {
        table.row([
            l.to_string(),
            count.to_string(),
            fmt_f64((count as f64).powf(1.0 / l as f64), 5),
        ]);
    }
    print!("{}", table.to_markdown());
    println!(
        "\nconnective constant μ = √(2+√2) = {:.6}",
        saw::connective_constant()
    );
}

fn render(args: &Args) {
    let n = args.get_usize("n", 50);
    let seed = args.get_u64("seed", 0);
    let sys = build_shape(args, n, seed);
    println!("{}", ascii::summary(&sys));
    println!("{}", ascii::render(&sys));
    maybe_svg(args, &sys);
}

fn witness() {
    let sys = ParticleSystem::connected(shapes::figure3_witness()).expect("witness");
    println!(
        "Figure-3 witness: {} — no valid Property-1 move, Property-2 moves only",
        ascii::summary(&sys)
    );
    println!("{}", ascii::render(&sys));
}

fn maybe_svg(args: &Args, sys: &ParticleSystem) {
    if let Some(path) = args.get_string("svg") {
        match svg::write_svg(sys, &path) {
            Ok(()) => eprintln!("svg written to {path}"),
            Err(err) => eprintln!("failed to write {path}: {err}"),
        }
    }
}
