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
//! ```sh
//! cargo run --release -p sops-bench --bin shard_scaling
//! cargo run --release -p sops-bench --bin shard_scaling -- --quick --metrics
//! ```

use std::time::Instant;

use sops::analysis::table::{fmt_f64, Table};
use sops::core::sharded::ShardedLocalRunner;
use sops::system::{shapes, ParticleSystem};
use sops_bench::{help, out, Args};
use sops_engine::{run_sweep, Algorithm, EngineConfig, GridSpec, PoolExecutor, Shape};

const USAGE: &str = "\
shard_scaling — intra-run sharding of the local algorithm at n >= 10^6
  --n N --lambda L --rounds R --reps K --seed S --quick --metrics";

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
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    println!("# shard_scaling — local-sharded at n = {n}");
    println!(
        "λ = {lambda}, {rounds} rounds per run, {reps} runs per config, \
         seed {seed}, {cores} core(s) available\n"
    );

    // A compact blob: dense regions, thousands of them, so every color
    // step has far more independent work units than workers.
    let t0 = Instant::now();
    let start = ParticleSystem::connected(shapes::spiral(n)).expect("spiral start");
    println!(
        "start: spiral(n) built in {:.3} s",
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
    let mut ref_median = None;
    let mut ref_fnv = None;
    for &workers in ladder {
        let mut times = Vec::new();
        let mut state_hash = 0;
        let mut activations = 0;
        for _ in 0..reps {
            let mut runner =
                ShardedLocalRunner::from_seed(&start, lambda, seed).expect("valid start");
            let t0 = Instant::now();
            if workers == 0 {
                runner.run_rounds(rounds);
            } else {
                runner.run_rounds_with(rounds, &PoolExecutor::new(workers));
            }
            times.push(t0.elapsed().as_secs_f64());
            state_hash = fnv(runner.snapshot().as_bytes());
            activations = runner.activations();
        }
        // The gate before any number is reported: byte-identical state.
        match ref_fnv {
            None => ref_fnv = Some(state_hash),
            Some(expected) => assert_eq!(
                state_hash, expected,
                "state diverged at {workers} workers — sharding bug, numbers void"
            ),
        }
        times.sort_by(f64::total_cmp);
        let median = times[times.len() / 2];
        let min = times.iter().copied().fold(f64::INFINITY, f64::min);
        let speedup = ref_median.map_or_else(
            || {
                ref_median = Some(median);
                "1.00 (ref)".to_string()
            },
            |r: f64| fmt_f64(r / median, 2),
        );
        table.row([
            if workers == 0 { "flat" } else { "sharded" }.to_string(),
            if workers == 0 {
                "-".to_string()
            } else {
                workers.to_string()
            },
            fmt_f64(median, 3),
            fmt_f64(min, 3),
            fmt_f64(rounds as f64 / median, 2),
            fmt_f64(activations as f64 / median, 0),
            speedup,
        ]);
        println!(
            "runs ({}): {:?}",
            if workers == 0 {
                "flat".to_string()
            } else {
                format!("{workers}w")
            },
            times
                .iter()
                .map(|t| (t * 1000.0).round() / 1000.0)
                .collect::<Vec<_>>()
        );
    }
    println!(
        "\ndifferential: all paths byte-identical (state fnv {:#018x})",
        ref_fnv.unwrap_or(0)
    );
    out::emit("shard_scaling", &table).expect("write results");

    // `--metrics`: one engine-driven sharded job over the same system so
    // the run leaves a real metrics.json (local-sharded.* counters) behind.
    if args.flag("metrics") {
        let grid = GridSpec {
            ns: vec![n],
            lambdas: vec![lambda],
            shapes: vec![Shape::Spiral],
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

/// Occupied-region count of the start configuration (default region size),
/// the number of independent work units the schedule can hand out.
fn count_regions(sys: &ParticleSystem) -> usize {
    let map = sops::lattice::RegionMap::new(sops::core::sharded::DEFAULT_REGION_TILES);
    let regions: std::collections::BTreeSet<_> =
        sys.positions().iter().map(|&p| map.region_of(p)).collect();
    regions.len()
}
