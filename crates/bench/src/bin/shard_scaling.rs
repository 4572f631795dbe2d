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
    let mut table = Table::new([
        "path", "workers", "median s", "min s", "rounds/s", "activ/s", "speedup",
    ]);
    let mut flat = None;
    for &workers in ladder {
        let (path, shown) = if workers == 0 {
            ("flat", "-".to_string())
        } else {
            ("sharded", workers.to_string())
        };
        let runs = time_runs(&format!("{path} {shown}"), reps, || {
            let mut runner =
                ShardedLocalRunner::from_seed(&start, lambda, seed).expect("valid start");
            let t0 = Instant::now();
            if workers == 0 {
                runner.run_rounds(rounds);
            } else {
                runner.run_rounds_with(rounds, &PoolExecutor::new(workers));
            }
            (
                t0.elapsed().as_secs_f64(),
                runner.snapshot(),
                runner.activations(),
            )
        });
        let reference = *flat.get_or_insert(runs);
        // The gate before any number is reported: byte-identical state.
        assert_eq!(
            runs.state, reference.state,
            "state diverged at {workers} workers — sharding bug, numbers void"
        );
        table.row(runs.row(path, shown, rounds, &reference));
    }
    println!(
        "\ndifferential: all paths byte-identical (state fnv {:#018x})",
        flat.map_or(0, |runs| runs.state)
    );

    // `local`: one event queue, inline against its schedule pipelined with
    // its activations on two workers.
    let mut inline = None;
    for workers in [1, 2] {
        let runs = time_runs(&format!("local {workers}"), reps, || {
            let mut runner = LocalRunner::from_seed(&start, lambda, seed).expect("valid start");
            let t0 = Instant::now();
            runner.run_rounds_with(rounds, workers);
            (
                t0.elapsed().as_secs_f64(),
                runner.snapshot(),
                runner.activations(),
            )
        });
        let reference = *inline.get_or_insert(runs);
        assert_eq!(
            runs.state, reference.state,
            "local state diverged at {workers} workers — pipeline bug, numbers void"
        );
        table.row(runs.row("local", workers.to_string(), rounds, &reference));
    }
    println!(
        "local differential: inline and 2 workers byte-identical (state fnv {:#018x})",
        inline.map_or(0, |runs| runs.state)
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

/// The timings of `reps` runs of one path, and the state they reached.
#[derive(Clone, Copy)]
struct Runs {
    median: f64,
    min: f64,
    /// FNV-1a of the final snapshot, the same in every run.
    state: u64,
    activations: u64,
}

/// Runs `run` `reps` times, and prints the times under `label`. Each run returns its time, its final snapshot
/// and its activation count; every snapshot must be the same.
fn time_runs(label: &str, reps: u64, mut run: impl FnMut() -> (f64, String, u64)) -> Runs {
    let mut times = Vec::new();
    let mut state = None;
    let mut activations = 0;
    for _ in 0..reps {
        let (time, snapshot, count) = run();
        let hash = fnv(snapshot.as_bytes());
        assert_eq!(
            *state.get_or_insert(hash),
            hash,
            "a path is not deterministic"
        );
        times.push(time);
        activations = count;
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
        state: state.expect("at least one run"),
        activations,
    }
}

impl Runs {
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
