//! Shard scaling — intra-run sharding of the local algorithm at n ≥ 10⁶.
//!
//! Times the checkerboard-synchronous runner (`local-sharded`) over one
//! large configuration: the flat single-threaded reference path
//! (`run_rounds`) against the region-sharded executor at a ladder of
//! worker counts. Every timed run must land on byte-identical state — the
//! differential is re-verified here on the full-size system, not just the
//! small test corpus — so the table measures pure execution cost, never a
//! changed trajectory.
//!
//! Two numbers matter: the sharding *overhead* (sharded-at-1-worker vs
//! flat — the price of region cells, halos and merges, which bounds the
//! best possible efficiency) and the *speedup* across the worker ladder
//! (≈ min(workers, cores) when regions are plentiful and balanced).
//!
//! The `local` rows time the asynchronous runner over the same start:
//! inline against its Poisson-clock schedule pipelined with its activations
//! on two workers, checked byte-equal the same way. Their speedup is over
//! the inline row.
//!
//! The reps go round-robin over every path, so drift on a shared machine
//! spreads over all rows instead of landing between two of them.
//!
//! The start is a spiral unless `--shape random` asks for an Eden-grown
//! one, the shape of perfbench's `local-large`.
//!
//! ```sh
//! cargo run --release -p sops-bench --bin shard_scaling
//! cargo run --release -p sops-bench --bin shard_scaling -- --quick --metrics
//! cargo run --release -p sops-bench --bin shard_scaling -- --n 100000 --shape random
//! ```

use std::time::Instant;

use sops::analysis::table::{fmt_f64, Table};
use sops::core::local::LocalRunner;
use sops::core::sharded::ShardedLocalRunner;
use sops::system::ParticleSystem;
use sops_bench::cli::usage_error;
use sops_bench::{help, out, Args};
use sops_engine::{run_sweep, Algorithm, EngineConfig, GridSpec, PoolExecutor, Shape};

const USAGE: &str = "\
shard_scaling — intra-run sharding of the local algorithm at n >= 10^6
  --n N --lambda L --rounds R --reps K --seed S --shape spiral|random
  --quick --metrics";

/// FNV-1a 64 (the testkit hash, re-stated here so release binaries don't
/// link test support).
fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn main() {
    let args = Args::from_env();
    help::maybe_help(&args, USAGE);
    let quick = args.flag("quick");
    let n = args.get_usize("n", if quick { 250_000 } else { 1_000_000 });
    let lambda = args.get_f64("lambda", 4.0);
    let rounds = args.get_u64("rounds", if quick { 4 } else { 10 });
    let reps = args.get_u64("reps", 3).max(1);
    let seed = args.get_u64("seed", 2016);
    let shape: Shape = args.get_string("shape").map_or(Shape::Spiral, |raw| {
        raw.parse()
            .unwrap_or_else(|err| usage_error(&format!("--shape: {err}")))
    });
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    println!("# shard_scaling — local-sharded at n = {n}");
    println!(
        "λ = {lambda}, {rounds} rounds per run, {reps} runs per config, \
         seed {seed}, {cores} core(s) available\n"
    );

    // The default is a compact blob: dense regions, thousands of them, so
    // every color step has far more independent work units than workers.
    let t0 = Instant::now();
    let start = shape.build(n, seed).expect("valid start");
    println!(
        "start: {shape}(n) built in {:.3} s",
        t0.elapsed().as_secs_f64()
    );
    let regions = count_regions(&start);
    println!(
        "regions occupied: {regions} (≥ {} per color step)\n",
        regions / 4
    );

    // `workers = 0` encodes the flat reference path.
    let ladder: &[usize] = if quick {
        &[0, 1, 2, 4]
    } else {
        &[0, 1, 2, 4, 8]
    };
    let configs: Vec<Config> = ladder
        .iter()
        .map(|&workers| {
            if workers == 0 {
                Config::Flat
            } else {
                Config::Sharded(workers)
            }
        })
        .chain([Config::Local(1), Config::Local(2)])
        .collect();
    // Rep by rep, every configuration in turn (see the module docs).
    let mut samples: Vec<Vec<Sample>> = configs.iter().map(|_| Vec::new()).collect();
    for _ in 0..reps {
        for (config, samples) in configs.iter().zip(&mut samples) {
            samples.push(config.run(&start, lambda, seed, rounds));
        }
    }
    let runs: Vec<Runs> = configs
        .iter()
        .zip(samples)
        .map(|(config, samples)| Runs::new(&config.label(), samples))
        .collect();

    let mut table = Table::new([
        "path", "workers", "median s", "min s", "rounds/s", "activ/s", "speedup",
    ]);
    let flat = runs[0];
    let inline = runs[ladder.len()];
    for (config, runs) in configs.iter().zip(&runs) {
        let reference = if let Config::Local(_) = config {
            &inline
        } else {
            &flat
        };
        // The gate before any number is reported: byte-identical state.
        assert_eq!(
            runs.state,
            reference.state,
            "{} state diverged — sharding or pipeline bug, numbers void",
            config.label()
        );
        let (path, shown) = config.columns();
        table.row(runs.row(path, shown, rounds, reference));
    }
    println!(
        "\ndifferential: all paths byte-identical (state fnv {:#018x})",
        flat.state
    );
    println!(
        "local differential: inline and 2 workers byte-identical (state fnv {:#018x})",
        inline.state
    );
    out::emit("shard_scaling", &table).expect("write results");

    // `--metrics`: one engine-driven sharded job over the same system so
    // the run leaves a real metrics.json (local-sharded.* counters) behind.
    if args.flag("metrics") {
        let grid = GridSpec {
            ns: vec![n],
            lambdas: vec![lambda],
            shapes: vec![shape],
            algorithms: vec![Algorithm::LocalSharded],
            steps: rounds,
            samples: 1,
            ..GridSpec::default()
        }
        .build(seed);
        let report = run_sweep(
            grid,
            &EngineConfig {
                threads: 1,
                shards: *ladder.last().expect("nonempty ladder").max(&1),
                telemetry: args.telemetry(),
                ..EngineConfig::default()
            },
        )
        .expect("engine run");
        assert!(report.is_complete());
        let path =
            out::write_metrics("shard_scaling", &report.metrics_json()).expect("write metrics");
        eprintln!("(metrics: {})", path.display());
    }
}

/// One timed path: the flat reference, the sharded executor, or the
/// asynchronous runner, at a worker count.
#[derive(Clone, Copy)]
enum Config {
    Flat,
    Sharded(usize),
    Local(usize),
}

/// One run of a path: its time, the FNV-1a of its final snapshot, and its
/// activation count.
type Sample = (f64, u64, u64);

impl Config {
    /// The table's `path` and `workers` columns.
    fn columns(self) -> (&'static str, String) {
        match self {
            Config::Flat => ("flat", "-".to_string()),
            Config::Sharded(workers) => ("sharded", workers.to_string()),
            Config::Local(workers) => ("local", workers.to_string()),
        }
    }

    fn label(self) -> String {
        let (path, workers) = self.columns();
        format!("{path} {workers}")
    }

    /// Runs `rounds` rounds from `start`, timing only the rounds.
    fn run(self, start: &ParticleSystem, lambda: f64, seed: u64, rounds: u64) -> Sample {
        let (time, snapshot, activations) = match self {
            Config::Flat | Config::Sharded(_) => {
                let mut runner =
                    ShardedLocalRunner::from_seed(start, lambda, seed).expect("valid start");
                let t0 = Instant::now();
                if let Config::Sharded(workers) = self {
                    runner.run_rounds_with(rounds, &PoolExecutor::new(workers));
                } else {
                    runner.run_rounds(rounds);
                }
                let time = t0.elapsed().as_secs_f64();
                (time, runner.snapshot(), runner.activations())
            }
            Config::Local(workers) => {
                let mut runner = LocalRunner::from_seed(start, lambda, seed).expect("valid start");
                let t0 = Instant::now();
                runner.run_rounds_with(rounds, workers);
                let time = t0.elapsed().as_secs_f64();
                (time, runner.snapshot(), runner.activations())
            }
        };
        (time, fnv(snapshot.as_bytes()), activations)
    }
}

/// The timings of the runs of one path, and the state they reached.
#[derive(Clone, Copy)]
struct Runs {
    median: f64,
    min: f64,
    /// FNV-1a of the final snapshot, the same in every run.
    state: u64,
    activations: u64,
}

impl Runs {
    /// Summarises the runs of one path, and prints their times under
    /// `label`. Every run must reach the same snapshot.
    fn new(label: &str, samples: Vec<Sample>) -> Runs {
        let (_, state, activations) = samples[0];
        let mut times = Vec::new();
        for (time, hash, _) in samples {
            assert_eq!(hash, state, "{label}: a path is not deterministic");
            times.push(time);
        }
        times.sort_by(f64::total_cmp);
        println!(
            "runs ({label}): {:?}",
            times
                .iter()
                .map(|t| (t * 1000.0).round() / 1000.0)
                .collect::<Vec<_>>()
        );
        Runs {
            median: times[times.len() / 2],
            min: times[0],
            state,
            activations,
        }
    }

    /// A table row, with the speedup over `reference`.
    fn row(&self, path: &str, workers: String, rounds: u64, reference: &Runs) -> [String; 7] {
        [
            path.to_string(),
            workers,
            fmt_f64(self.median, 3),
            fmt_f64(self.min, 3),
            fmt_f64(rounds as f64 / self.median, 2),
            fmt_f64(self.activations as f64 / self.median, 0),
            fmt_f64(reference.median / self.median, 2),
        ]
    }
}

/// Occupied-region count of the start configuration (default region size),
/// the number of independent work units the schedule can hand out.
fn count_regions(sys: &ParticleSystem) -> usize {
    let map = sops::lattice::RegionMap::new(sops::core::sharded::DEFAULT_REGION_TILES);
    let regions: std::collections::BTreeSet<_> =
        sys.positions().iter().map(|&p| map.region_of(p)).collect();
    regions.len()
}
