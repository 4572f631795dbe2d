//! Shared helpers for the CLI subcommands, plus the `sweep` and `run`
//! commands.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sops::prelude::*;
use sops_bench::{out, Args};
use sops_engine::{CheckpointConfig, EngineConfig, ExperimentSpec, FaultSpec, GridSpec, JobSpec};

/// Exit code for a sweep that completed with failed or quarantined jobs
/// (partial CSV written; recover with `--retry-failed`).
const EXIT_FAILED_JOBS: i32 = 3;
/// Exit code for `--strict-io` when JSONL event lines were dropped.
const EXIT_STRICT_IO: i32 = 4;

/// Reads the `SOPS_FAULTS` fault-injection plan, treating a malformed spec
/// as a usage error (grammar: docs/ROBUSTNESS.md).
fn faults_from_env() -> Option<FaultSpec> {
    match FaultSpec::from_env() {
        Ok(spec) => spec,
        Err(err) => {
            eprintln!("SOPS_FAULTS: {err}");
            std::process::exit(2);
        }
    }
}

/// Builds the starting configuration from `--shape` (default: line).
///
/// Shapes: `line`, `spiral`, `hexagon` (the spiral, which is the full
/// hexagon of radius `r` when n = 3r(r+1)+1), `annulus` (radius from
/// `--radius`, default 3), `lshape`, `random` (Eden growth, seeded),
/// `witness` (the Figure-3 configuration; ignores `--n`).
pub fn build_shape(args: &Args, n: usize, seed: u64) -> ParticleSystem {
    let shape = args.get_string("shape").unwrap_or_else(|| "line".into());
    let points = match shape.as_str() {
        "line" => shapes::line(n),
        "spiral" | "hexagon" => shapes::spiral(n),
        "annulus" => shapes::annulus(args.get_usize("radius", 3) as u32),
        "lshape" => shapes::l_shape(n / 2 + n % 2, n / 2 + 1),
        "random" => shapes::random_connected(n, &mut StdRng::seed_from_u64(seed ^ 0x5eed)),
        "witness" => shapes::figure3_witness(),
        other => {
            eprintln!(
                "unknown shape: {other} (try line|spiral|hexagon|annulus|lshape|random|witness)"
            );
            std::process::exit(2);
        }
    };
    match ParticleSystem::connected(points) {
        Ok(sys) => sys,
        Err(err) => {
            eprintln!("invalid shape: {err}");
            std::process::exit(1);
        }
    }
}

/// Parses a comma-separated list with `FromStr` items, exiting with a
/// usage error on malformed input or a list with no items (`--n ,`).
fn parse_list<T: core::str::FromStr>(flag: &str, raw: &str) -> Vec<T> {
    let items: Vec<T> = raw
        .split(',')
        .filter(|item| !item.is_empty())
        .map(|item| {
            item.parse().unwrap_or_else(|_| {
                eprintln!("--{flag}: cannot parse {item:?}");
                std::process::exit(2);
            })
        })
        .collect();
    if items.is_empty() {
        eprintln!("--{flag}: expects at least one value");
        std::process::exit(2);
    }
    items
}

/// The `--{flag}` list axis, or `default` when the flag is absent.
fn list_or<T: core::str::FromStr>(args: &Args, flag: &str, default: Vec<T>) -> Vec<T> {
    args.get_string(flag)
        .map_or(default, |raw| parse_list(flag, &raw))
}

/// The engine settings `sweep` and `run` share: threads, the JSONL event
/// path `results/<out>.jsonl`, `--stop-after`, telemetry, `SOPS_FAULTS`
/// and `--retry-failed`, with experiment provenance `experiment` and one
/// shard worker (callers set [`EngineConfig::shards`]).
///
/// Without a checkpoint, each of `needs_checkpoint` (valued flags) and
/// `--retry-failed` that was passed is a usage error "`--<flag> requires
/// <requirement>`": those flags mean nothing without a checkpoint store,
/// and erroring beats silently running the sweep to completion.
fn engine_config(
    args: &Args,
    out_name: &str,
    checkpoint: Option<CheckpointConfig>,
    needs_checkpoint: &[&str],
    requirement: &str,
    experiment: Option<String>,
) -> EngineConfig {
    let events_path = match out::path(&format!("{out_name}.jsonl")) {
        Ok(path) => path,
        Err(err) => {
            eprintln!("cannot prepare results directory: {err}");
            std::process::exit(1);
        }
    };
    if checkpoint.is_none() {
        for flag in needs_checkpoint {
            if args.get_string(flag).is_some() {
                eprintln!("--{flag} requires {requirement}");
                std::process::exit(2);
            }
        }
        if args.flag("retry-failed") {
            eprintln!("--retry-failed requires {requirement}");
            std::process::exit(2);
        }
    }
    EngineConfig {
        threads: args.threads(),
        checkpoint,
        events_path: Some(events_path),
        stop_after_checkpoints: args.get_string("stop-after").map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("--stop-after expects an integer");
                std::process::exit(2);
            })
        }),
        experiment,
        telemetry: args.telemetry(),
        faults: faults_from_env(),
        retry_failed: args.flag("retry-failed"),
        shards: 1,
    }
}

/// `sops-cli sweep` — drive a (n × λ × shape × algorithm) grid on the
/// execution engine, with optional checkpoint/resume.
pub fn sweep(args: &Args) {
    let defaults = GridSpec::default();
    let mut grid = GridSpec {
        ns: list_or(args, "n", defaults.ns),
        lambdas: list_or(args, "lambda", defaults.lambdas),
        shapes: list_or(args, "shape", defaults.shapes),
        algorithms: list_or(args, "algo", defaults.algorithms),
        hamiltonians: args
            .get_string("hamiltonian")
            .map(|raw| parse_list("hamiltonian", &raw)),
        steps: args.get_u64("steps", defaults.steps),
        burnin: args.get_u64("burnin", defaults.burnin),
        samples: args.get_u64("samples", defaults.samples),
        reps: args.get_u64("reps", defaults.reps),
        ..defaults
    };
    let seed = args.get_u64("seed", 0);
    let out_name = args.get_string("out").unwrap_or_else(|| "sweep".into());

    let chains = grid
        .algorithms
        .iter()
        .filter(|a| a.is_chain_sampler())
        .count();
    // The Hamiltonian axis fans out over the chain samplers only; make a
    // sweep with none of them an explicit error, not a silent no-op.
    if grid.hamiltonians.is_some() && chains == 0 {
        eprintln!(
            "--hamiltonian requires --algo chain or chain-kmc \
             (only the chain samplers take a Hamiltonian)"
        );
        std::process::exit(2);
    }
    if let Some(alpha) = args.get_string("until-alpha") {
        // First-hit mode only exists for the chain samplers; reject or warn
        // rather than silently ignoring the flag.
        if chains == 0 {
            eprintln!(
                "--until-alpha requires --algo chain or chain-kmc \
                 (first-hit mode only exists for the chain samplers)"
            );
            std::process::exit(2);
        }
        if chains < grid.algorithms.len() {
            eprintln!("note: --until-alpha only applies to the chain/chain-kmc jobs in this sweep");
        }
        grid.until_alpha = Some(alpha.parse().unwrap_or_else(|_| {
            eprintln!("--until-alpha expects a number");
            std::process::exit(2);
        }));
    }

    if let Err(err) = grid.validate() {
        let flag = match err.key {
            "ns" => "n",
            "lambdas" => "lambda",
            "until_alpha" => "until-alpha",
            key => key,
        };
        eprintln!("--{flag}: {}", err.message);
        std::process::exit(2);
    }

    let checkpoint = args.get_string("checkpoint").map(|dir| {
        CheckpointConfig::new(
            dir,
            args.get_u64("checkpoint-every", (grid.steps / 10).max(1)),
        )
    });
    let mut cfg = engine_config(
        args,
        &out_name,
        checkpoint,
        &["stop-after", "checkpoint-every"],
        "--checkpoint DIR",
        // Flag-driven sweeps carry no experiment provenance — artifacts
        // stay byte-identical to pre-experiment-file versions.
        None,
    );
    cfg.shards = args.get_usize("shards", 1);

    execute_sweep(grid.build(seed), &cfg, seed, &out_name, args);
}

/// Runs a resolved job list on the engine and emits the final table —
/// shared by `sweep` (flag-built grids) and `run` (experiment files).
///
/// Stdout carries only the result table (Markdown); every status line goes
/// to stderr so sweep output pipes cleanly. `--quiet` silences both, and
/// `--metrics` writes the telemetry summary to
/// `results/<out>.metrics.json`.
fn execute_sweep(jobs: Vec<JobSpec>, cfg: &EngineConfig, seed: u64, out_name: &str, args: &Args) {
    let quiet = args.flag("quiet");
    if !quiet {
        eprintln!(
            "sweep: {} jobs on {} threads (seed {seed}){}",
            jobs.len(),
            cfg.threads,
            cfg.checkpoint
                .as_ref()
                .map(|ck| format!(
                    ", checkpointing to {} every {} work units",
                    ck.dir.display(),
                    ck.every
                ))
                .unwrap_or_default()
        );
    }
    let mut report = match sops_engine::run_sweep(jobs, cfg) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("sweep failed: {err}");
            std::process::exit(1);
        }
    };
    if report.sink_errors > 0 {
        // Always surfaced, even under --quiet: a lossy event stream is a
        // warning, not chatter.
        eprintln!(
            "warning: {} event line(s) dropped by I/O errors — the JSONL stream is incomplete \
             (CSV and done-records are unaffected)",
            report.sink_errors
        );
    }
    report_failures(&report);
    if !quiet && report.reused > 0 {
        eprintln!("resumed: {} job(s) reused from done-records", report.reused);
    }
    if report.interrupted {
        write_metrics(&report, out_name, args);
        if !quiet {
            eprintln!(
                "sweep interrupted with {}/{} jobs complete; run the same command again to resume",
                report.results.len(),
                report.specs.len()
            );
        }
        exit_for(&report, args);
        return;
    }
    let finalize_started = std::time::Instant::now();
    let emitted = out::emit_with(out_name, &report.to_table(), quiet);
    let ns = u64::try_from(finalize_started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    report.metrics.add("phase.csv_finalize_ns", ns);
    report.metrics.add("phase.csv_finalize_calls", 1);
    write_metrics(&report, out_name, args);
    match emitted {
        Ok(_) => {
            if !quiet {
                if report.failed.is_empty() {
                    eprintln!("sweep complete: {} jobs", report.results.len());
                } else {
                    eprintln!(
                        "sweep degraded: {}/{} jobs complete, {} failed",
                        report.results.len(),
                        report.specs.len(),
                        report.failed.len()
                    );
                }
            }
        }
        Err(err) => {
            eprintln!("failed to write results: {err}");
            std::process::exit(1);
        }
    }
    exit_for(&report, args);
}

/// Prints each failed or quarantined job to stderr. Always surfaced, even
/// under `--quiet`: a missing result row is a defect, not chatter.
fn report_failures(report: &sops_engine::SweepReport) {
    for f in &report.failed {
        if f.quarantined {
            eprintln!(
                "job {} quarantined by a previous run (re-run with --retry-failed): {}",
                f.job, f.error
            );
        } else {
            eprintln!("job {} failed: {}", f.job, f.error);
        }
    }
}

/// Exits nonzero when the sweep finished in a degraded state: code 3 for
/// failed/quarantined jobs (which always outranks), code 4 for a lossy
/// event stream under `--strict-io`. All artifacts (CSV, metrics,
/// done-records) are already written before this runs.
fn exit_for(report: &sops_engine::SweepReport, args: &Args) {
    if !report.failed.is_empty() {
        std::process::exit(EXIT_FAILED_JOBS);
    }
    if args.flag("strict-io") && report.sink_errors > 0 {
        std::process::exit(EXIT_STRICT_IO);
    }
}

/// Writes `results/<out>.metrics.json` when `--metrics` was passed.
fn write_metrics(report: &sops_engine::SweepReport, out_name: &str, args: &Args) {
    if !args.flag("metrics") {
        return;
    }
    match out::write_metrics(out_name, &report.metrics_json()) {
        Ok(path) => {
            if !args.flag("quiet") {
                eprintln!("(metrics: {})", path.display());
            }
        }
        Err(err) => {
            eprintln!("failed to write metrics: {err}");
            std::process::exit(1);
        }
    }
}

/// `sops-cli run <experiment.toml>` — execute a declarative experiment file
/// (see `docs/EXPERIMENTS.md` for the format reference).
///
/// `--override key=value` (repeatable) tweaks the file without editing it;
/// `--print-grid` dumps the resolved job list instead of running. The CLI
/// flags `--threads`, `--out`, `--checkpoint`, `--checkpoint-every` and
/// `--stop-after` take precedence over the file's sections.
pub fn run(path: &str, args: &Args) {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("cannot read {path}: {err}");
            std::process::exit(1);
        }
    };
    let overrides = args.get_strings("override");
    let spec = match ExperimentSpec::parse_with_overrides(&text, &overrides) {
        Ok(spec) => spec,
        Err(err) => {
            eprintln!("{path}: {err}");
            std::process::exit(2);
        }
    };
    let jobs = spec.jobs();
    if args.flag("print-grid") {
        // The resolved grid, one canonical line per job — the exact lines a
        // checkpoint meta.txt for this sweep would hold.
        println!("experiment={}", spec.name);
        for job in &jobs {
            println!("{}", job.describe());
        }
        return;
    }

    let out_name = args
        .get_string("out")
        .unwrap_or_else(|| spec.output.clone());
    // CLI checkpoint flags beat the file's [checkpoint] section.
    let checkpoint = match args.get_string("checkpoint") {
        Some(dir) => {
            let default_every = spec.checkpoint.as_ref().map_or(1000, |ck| ck.every);
            Some(CheckpointConfig::new(
                dir,
                args.get_u64("checkpoint-every", default_every),
            ))
        }
        None => spec
            .checkpoint
            .as_ref()
            .map(|ck| CheckpointConfig::new(&ck.dir, args.get_u64("checkpoint-every", ck.every))),
    };
    let mut cfg = engine_config(
        args,
        &out_name,
        checkpoint,
        &["stop-after"],
        "a checkpoint (a [checkpoint] section or --checkpoint DIR)",
        Some(spec.name.clone()),
    );
    // The CLI flag beats the file's top-level `shards` key; both are
    // execution details, so neither affects any artifact byte.
    cfg.shards = args
        .get_string("shards")
        .map_or(spec.shards, |v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("--shards expects an integer");
                std::process::exit(2);
            })
        })
        .max(1);
    if !args.flag("quiet") {
        eprintln!("experiment {} ({path})", spec.name);
    }
    execute_sweep(jobs, &cfg, spec.seed, &out_name, args);
}

/// Prints the top-level usage text. The algorithm and Hamiltonian
/// descriptions come from the shared consts in [`sops_bench::help`], so
/// every binary's `--help` and `docs/EXPERIMENTS.md` say the same thing.
pub fn print_usage() {
    println!(
        "sops-cli — compression in self-organizing particle systems

USAGE:
  sops-cli <command> [--key value]...

COMMANDS:
  run        execute a declarative experiment file (docs/EXPERIMENTS.md)
             <experiment.toml> --override key=value ... --print-grid
             --threads T --out NAME --checkpoint DIR --checkpoint-every W
             --stop-after K --metrics --progress --quiet
             --strict-io --retry-failed --shards K
  simulate   run Markov chain M        --n --lambda --steps --seed --shape --every --svg
                                       --hamiltonian edges|alignment[:q]
  local      run local algorithm A     --n --lambda --rounds --seed --shape --svg
             --shards K  (checkerboard-synchronous variant sharded over K
                          workers; byte-identical results at any K)
  sweep      run a job grid on the engine
             --n 50,100 --lambda 2,4 --shape line --algo chain,chain-kmc,local
             --hamiltonian edges,alignment[:q]
             --steps --burnin --samples --reps --until-alpha --seed --threads
             --checkpoint DIR --checkpoint-every W --stop-after K --out NAME
             --metrics --progress --quiet --strict-io --retry-failed --shards K
  enumerate  exact configuration counts  --max-n
  saw        self-avoiding walk counts   --max-len
  render     draw a shape                --shape --n --seed --svg
  witness    show the Figure-3 witness configuration
  help       this text

ALGORITHMS (--algo / algorithms =):
{}

HAMILTONIANS (--hamiltonian / hamiltonians =):
{}

TELEMETRY (sweep / run):
{}

ROBUSTNESS (sweep / run):
{}

EXAMPLES:
  sops-cli run examples/experiments/kmc_vs_chain.toml --threads 8
  sops-cli run examples/experiments/fig2_compression.toml --override steps=500000
  sops-cli simulate --n 100 --lambda 4 --steps 5000000 --svg compressed.svg
  sops-cli simulate --n 100 --lambda 5 --steps 2000000 --hamiltonian alignment:3
  sops-cli local --n 64 --lambda 2 --rounds 20000
  sops-cli sweep --n 50,100 --lambda 2,3,4 --steps 500000 --threads 8 \\
                 --checkpoint results/sweep-ckpt
  sops-cli sweep --n 50 --lambda 1,3,5 --algo chain-kmc --hamiltonian alignment \\
                 --steps 400000
  sops-cli render --shape annulus --radius 4",
        sops_bench::help::ALGO_HELP,
        sops_bench::help::HAMILTONIAN_HELP,
        sops_bench::help::TELEMETRY_HELP,
        sops_bench::help::ROBUSTNESS_HELP
    );
}
