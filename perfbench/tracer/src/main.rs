//! `perfbench-trace` — the traced run of the perfbench workloads.
//!
//! Replays one workload's generated experiment file in-process through
//! `sops_engine`'s public API, with a span around each call: parse →
//! `SweepSession::open` → `run_pending` per job → `finish` → CSV and
//! metrics artifacts. It then times the lattice, system, core, engine and
//! telemetry functions the workload exercises on the workload's own
//! first-job configuration. Nothing inside the crates is instrumented:
//! every span is opened and closed here, around a public call.
//!
//! Spans (name, start, end, parent, run id, operation count) are kept in
//! memory and written as one JSON document at exit; `perfbench/run.py`
//! turns them into the per-layer metrics.
//!
//! ```text
//! perfbench-trace --toml FILE --out NAME --work DIR --report FILE --run-id ID
//!                 [--threads T] [--shards K] [--checkpoint-every W]
//!                 [--stop-after K]
//! perfbench-trace --parallelism
//! ```
//!
//! CSV, JSONL and metrics artifacts land in `SOPS_RESULTS_DIR`, exactly
//! where `sops-cli run` would put them; checkpoints go under `--work`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use sops::core::{CompressionChain, EdgeCount, KmcChain, LocalRunner, ShardedLocalRunner};
use sops::lattice::{Direction, TileGrid, TriPoint};
use sops::system::{boundary, shapes, ParticleSystem};
use sops_engine::checkpoint::{seal, write_atomic};
use sops_engine::{
    Algorithm, CheckpointConfig, EngineConfig, ExperimentSpec, JobSpec, PoolExecutor, Shape,
    SweepReport, SweepSession,
};
use sops_telemetry::Sheet;

/// `shapes::spiral` is superlinear (seconds at 2·10^4 particles), so the
/// spiral build is timed at no more than this many particles.
const SPIRAL_CAP: usize = 10_000;
/// Batches every microbenchmark runs regardless of its time budget; the
/// count ratios (`chain.acceptance`, ...) are read after exactly this many
/// batches, so they repeat exactly for a given seed.
const MIN_BATCHES: usize = 3;
/// Operations per span for the per-call microbenchmarks, so a span is long
/// against the cost of reading the clock.
const OPS_PER_SPAN: usize = 50_000;
/// Traced replays of the workload; the report's engine metrics are medians
/// over them.
const REPLAYS: usize = 3;
/// Time each microbenchmark runs for, beyond its [`MIN_BATCHES`].
const BUDGET: Duration = Duration::from_millis(200);

fn main() {
    let opts = match Opts::parse(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("perfbench-trace: {msg}");
            std::process::exit(2);
        }
    };
    let Some(opts) = opts else {
        let n = std::thread::available_parallelism().map_or(0, |n| n.get());
        println!("{n}");
        return;
    };
    if let Err(msg) = run(&opts) {
        eprintln!("perfbench-trace: {msg}");
        std::process::exit(1);
    }
}

/// Command-line options of a traced run.
struct Opts {
    toml: PathBuf,
    out: String,
    work: PathBuf,
    report: PathBuf,
    run_id: String,
    threads: usize,
    shards: usize,
    checkpoint_every: Option<u64>,
    stop_after: Option<u64>,
}

impl Opts {
    /// Parses `--key value` pairs; `Ok(None)` is the `--parallelism` probe.
    fn parse(args: impl Iterator<Item = String>) -> Result<Option<Opts>, String> {
        let mut map = BTreeMap::new();
        let mut args = args;
        while let Some(key) = args.next() {
            let key = key
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {key:?}"))?
                .to_string();
            if key == "parallelism" {
                return Ok(None);
            }
            let value = args
                .next()
                .ok_or_else(|| format!("--{key} needs a value"))?;
            map.insert(key, value);
        }
        let mut take = |key: &str| map.remove(key);
        let required =
            |v: Option<String>, key: &str| v.ok_or_else(|| format!("--{key} is required"));
        let number = |v: Option<String>, key: &str| -> Result<Option<u64>, String> {
            v.map(|s| {
                s.parse()
                    .map_err(|_| format!("--{key} expects an integer, got {s:?}"))
            })
            .transpose()
        };
        let opts = Opts {
            toml: required(take("toml"), "toml")?.into(),
            out: required(take("out"), "out")?,
            work: required(take("work"), "work")?.into(),
            report: required(take("report"), "report")?.into(),
            run_id: required(take("run-id"), "run-id")?,
            threads: number(take("threads"), "threads")?.unwrap_or(1).max(1) as usize,
            shards: number(take("shards"), "shards")?.unwrap_or(1).max(1) as usize,
            checkpoint_every: number(take("checkpoint-every"), "checkpoint-every")?,
            stop_after: number(take("stop-after"), "stop-after")?,
        };
        if let Some(key) = map.keys().next() {
            return Err(format!("unknown option --{key}"));
        }
        if opts.stop_after.is_some() && opts.checkpoint_every.is_none() {
            return Err("--stop-after requires --checkpoint-every".into());
        }
        Ok(Some(opts))
    }
}

/// One recorded span. Times are nanoseconds since the tracer's epoch.
struct Span {
    run: String,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    ops: u64,
}

/// The in-memory span store.
struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`. `f` receives the span's id (the
    /// parent of any span it opens) and returns its value and the number of
    /// operations the span covers.
    fn span<T>(
        &self,
        run: &str,
        parent: Option<u64>,
        name: &'static str,
        f: impl FnOnce(u64) -> (T, u64),
    ) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let (value, ops) = f(id);
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("span store poisoned by a panicking thread")
            .push(Span {
                run: run.to_string(),
                id,
                parent,
                name,
                start_ns,
                end_ns,
                ops,
            });
        value
    }

    /// Repeats `batch` in spans named `name` until `budget` has passed and
    /// at least [`MIN_BATCHES`] ran. `batch` receives its index and returns
    /// its operation count.
    fn repeat(
        &self,
        run: &str,
        parent: u64,
        name: &'static str,
        budget: Duration,
        mut batch: impl FnMut(usize) -> u64,
    ) {
        let deadline = Instant::now() + budget;
        let mut done = 0;
        while done < MIN_BATCHES || Instant::now() < deadline {
            self.span(run, Some(parent), name, |_| ((), batch(done)));
            done += 1;
        }
    }
}

/// Counters of one sweep pass, as `SweepReport::metrics` holds them.
fn counters(sheet: &Sheet) -> BTreeMap<String, u64> {
    sheet.counters().map(|(k, v)| (k.to_string(), v)).collect()
}

fn run(opts: &Opts) -> Result<(), String> {
    let text = std::fs::read_to_string(&opts.toml)
        .map_err(|e| format!("cannot read {}: {e}", opts.toml.display()))?;
    let results = sops_bench::out::results_dir().map_err(|e| format!("results dir: {e}"))?;
    let tracer = Tracer::new();

    let mut replays = Vec::new();
    for r in 0..REPLAYS {
        // Every replay starts from a clean slate, as each CLI invocation does.
        let _ = std::fs::remove_dir_all(opts.work.join("ckpt"));
        let _ = std::fs::remove_file(results.join(format!("{}.jsonl", opts.out)));
        let run_id = format!("{}/replay{r}", opts.run_id);
        replays.push(replay(&tracer, &run_id, opts, &text, &results)?);
    }
    let last_metrics = replays
        .last()
        .and_then(|passes| passes.last())
        .expect("at least one replay pass ran");

    let spec = ExperimentSpec::parse(&text).map_err(|e| e.to_string())?;
    let first = *spec.jobs().first().ok_or("the experiment has no jobs")?;
    let run_id = format!("{}/layers", opts.run_id);
    let facts = layers(&tracer, &run_id, opts, &first, last_metrics)?;
    let durability = durability_probe(&tracer, &run_id, opts, &first)?;

    let spans = tracer
        .spans
        .into_inner()
        .expect("span store poisoned by a panicking thread");
    std::fs::write(
        &opts.report,
        render_report(&replays, &durability, &facts, &spans),
    )
    .map_err(|e| format!("cannot write {}: {e}", opts.report.display()))
}

/// Replays the experiment the way `sops-cli run` executes it: one pass, or
/// an interrupted pass (`--stop-after`) followed by a resuming pass.
/// Returns each pass's telemetry.
fn replay(
    tr: &Tracer,
    run: &str,
    opts: &Opts,
    text: &str,
    results: &Path,
) -> Result<Vec<Sheet>, String> {
    let passes = if opts.stop_after.is_some() { 2 } else { 1 };
    tr.span(run, None, "bench.replay", |root| {
        let sheets = (0..passes)
            .map(|pass| {
                tr.span(run, Some(root), "bench.pass", |pass_id| {
                    (
                        one_pass(tr, run, pass_id, opts, text, results, pass == 0),
                        1,
                    )
                })
            })
            .collect();
        (sheets, 1)
    })
}

fn one_pass(
    tr: &Tracer,
    run: &str,
    parent: u64,
    opts: &Opts,
    text: &str,
    results: &Path,
    first_pass: bool,
) -> Result<Sheet, String> {
    let spec = tr
        .span(run, Some(parent), "engine.parse", |_| {
            (ExperimentSpec::parse(text), 1)
        })
        .map_err(|e| e.to_string())?;
    let jobs = tr.span(run, Some(parent), "engine.jobs", |_| (spec.jobs(), 1));
    let cfg = EngineConfig {
        threads: opts.threads,
        checkpoint: opts
            .checkpoint_every
            .map(|every| CheckpointConfig::new(opts.work.join("ckpt"), every)),
        events_path: Some(results.join(format!("{}.jsonl", opts.out))),
        stop_after_checkpoints: if first_pass { opts.stop_after } else { None },
        experiment: Some(spec.name.clone()),
        shards: opts.shards,
        ..EngineConfig::default()
    };
    let session = tr
        .span(run, Some(parent), "engine.open", |_| {
            (SweepSession::open(jobs, &cfg), 1)
        })
        .map_err(|e| format!("SweepSession::open: {e}"))?;
    let pending = session.pending().len();
    tr.span(run, Some(parent), "bench.pool", |pool| {
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..opts.threads {
                scope.spawn(|| loop {
                    let pos = next.fetch_add(1, Ordering::Relaxed);
                    if pos >= pending {
                        break;
                    }
                    tr.span(run, Some(pool), "engine.job", |_| {
                        session.run_pending(pos);
                        ((), 1)
                    });
                });
            }
        });
        ((), pending as u64)
    });
    let report: SweepReport = tr
        .span(run, Some(parent), "engine.finish", |_| {
            (session.finish(), 1)
        })
        .map_err(|e| format!("SweepSession::finish: {e}"))?;
    if !report.failed.is_empty() {
        return Err(format!("{} job(s) failed", report.failed.len()));
    }
    if !report.interrupted {
        tr.span(run, Some(parent), "cli.csv_emit", |_| {
            (
                sops_bench::out::emit_with(&opts.out, &report.to_table(), true),
                1,
            )
        })
        .map_err(|e| format!("cannot write CSV: {e}"))?;
    }
    tr.span(run, Some(parent), "cli.metrics_write", |id| {
        let json = tr.span(run, Some(id), "telemetry.metrics_json", |_| {
            (report.metrics_json(), 1)
        });
        (sops_bench::out::write_metrics(&opts.out, &json), 1)
    })
    .map_err(|e| format!("cannot write metrics: {e}"))?;
    Ok(report.metrics)
}

/// Count ratios read from the simulators' probes after [`MIN_BATCHES`]
/// batches of each microbenchmark.
#[derive(Default)]
struct Facts {
    chain_acceptance: f64,
    kmc_fanout: f64,
    kmc_dwell: f64,
    local_move_frac: f64,
}

/// The points of `shape` at `n` particles, as the engine builds them.
fn shape_points(shape: Shape, n: usize, seed: u64) -> Vec<TriPoint> {
    match shape {
        Shape::Line => shapes::line(n),
        Shape::Spiral => shapes::spiral(n),
        Shape::Annulus(r) => shapes::annulus(r),
        Shape::Random => shapes::random_connected(n, &mut StdRng::seed_from_u64(seed ^ 0x5eed)),
    }
}

/// How many repetitions of a `per_rep`-operation loop make one span.
fn reps_for(per_rep: usize) -> usize {
    (OPS_PER_SPAN / per_rep.max(1)).max(1)
}

/// One batch of local activations; returns how many ran.
fn activate(local: &mut LocalRunner<StdRng>) -> u64 {
    let before = local.probes().total();
    local.run_activations(OPS_PER_SPAN as u64 * 4);
    local.probes().total() - before
}

/// Times the layer functions on the workload's first-job configuration.
#[allow(clippy::too_many_lines)]
fn layers(
    tr: &Tracer,
    run: &str,
    opts: &Opts,
    first: &JobSpec,
    metrics: &Sheet,
) -> Result<Facts, String> {
    let budget = BUDGET;
    let (n, lambda, seed) = (first.n, first.lambda, first.seed);
    let mut facts = Facts::default();
    tr.span(run, None, "bench.layers", |root| {
        let result = (|| -> Result<(), String> {
            // sops_system: start-shape construction.
            let spiral_n = n.min(SPIRAL_CAP);
            let reps = reps_for(spiral_n * 25);
            tr.repeat(run, root, "system.spiral_build", budget, |_| {
                for _ in 0..reps {
                    black_box(shapes::spiral(black_box(spiral_n)));
                }
                reps as u64
            });
            let reps = reps_for(n * 2);
            tr.repeat(run, root, "system.random_build", budget, |_| {
                for _ in 0..reps {
                    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
                    black_box(shapes::random_connected(black_box(n), &mut rng));
                }
                reps as u64
            });
            let points = shape_points(first.shape, n, seed);
            let mut sys = None;
            tr.repeat(run, root, "system.connected_build", budget, |_| {
                for _ in 0..reps {
                    sys = Some(ParticleSystem::connected(points.clone()));
                }
                reps as u64
            });
            let sys = sys
                .expect("at least one build ran")
                .map_err(|e| format!("start configuration: {e}"))?;
            let n = sys.len();
            let pts = sys.positions().to_vec();

            // sops_lattice: the window gathers behind every move check.
            let mut grid = TileGrid::new();
            for (i, &p) in pts.iter().enumerate() {
                grid.insert(p, u32::try_from(i).expect("particle ids fit in u32"));
            }
            let reps = reps_for(n * 6);
            tr.repeat(run, root, "lattice.pair_ring_mask", budget, |_| {
                let mut acc = 0u32;
                for _ in 0..reps {
                    for &p in &pts {
                        for dir in Direction::ALL {
                            let (mask, target) = grid.pair_ring_mask(black_box(p), dir);
                            acc = acc.wrapping_add(u32::from(mask) + u32::from(target));
                        }
                    }
                }
                black_box(acc);
                (reps * n * 6) as u64
            });
            let reps = reps_for(n);
            tr.repeat(run, root, "lattice.window25", budget, |_| {
                let mut acc = 0u32;
                for _ in 0..reps {
                    for &p in &pts {
                        acc = acc.wrapping_add(grid.window25(black_box(p.x - 2), p.y - 2));
                    }
                }
                black_box(acc);
                (reps * n) as u64
            });

            // sops_system: move validity, moves, boundary tracing.
            let reps = reps_for(n * 6);
            tr.repeat(run, root, "system.check_move", budget, |_| {
                for _ in 0..reps {
                    for &p in &pts {
                        for dir in Direction::ALL {
                            black_box(sys.check_move(black_box(p), dir));
                        }
                    }
                }
                (reps * n * 6) as u64
            });
            let mut moving = sys.clone();
            let reps = reps_for(n * 2);
            tr.repeat(run, root, "system.move_particle", budget, |_| {
                let mut ops = 0u64;
                for _ in 0..reps {
                    for id in 0..n {
                        let from = moving.position(id);
                        if let Some(dir) = Direction::ALL
                            .into_iter()
                            .find(|&d| !moving.is_occupied(from + d))
                        {
                            moving.move_particle(id, dir).expect("target is empty");
                            moving
                                .move_particle(id, dir.opposite())
                                .expect("origin is empty");
                            ops += 2;
                        }
                    }
                }
                ops
            });
            let mut scratch = boundary::TraceScratch::default();
            let reps = reps_for(n * 10);
            tr.repeat(run, root, "system.trace_summary", budget, |_| {
                for _ in 0..reps {
                    black_box(boundary::trace_summary_with(&sys, &mut scratch));
                }
                reps as u64
            });

            // sops_core: chain M.
            let mut chain = CompressionChain::from_seed(sys.clone(), lambda, seed)
                .map_err(|e| format!("chain: {e}"))?;
            let steps = OPS_PER_SPAN as u64 * 4;
            let mut accepted = 0u64;
            // The first MIN_BATCHES batches fix the count ratio; the rest
            // only add timing samples.
            tr.repeat(run, root, "chain.step", Duration::ZERO, |_| {
                accepted += chain.run(steps);
                steps
            });
            facts.chain_acceptance = accepted as f64 / (steps * MIN_BATCHES as u64) as f64;
            tr.repeat(run, root, "chain.step", budget, |_| {
                chain.run(steps);
                steps
            });

            // sops_core: the rejection-free sampler.
            let mut built = None;
            let reps = reps_for(n * 2);
            tr.repeat(run, root, "kmc.build", budget, |_| {
                for _ in 0..reps {
                    built = Some(KmcChain::from_seed(sys.clone(), lambda, seed));
                }
                reps as u64
            });
            let mut kmc = built
                .expect("at least one build ran")
                .map_err(|e| format!("kmc: {e}"))?;
            tr.repeat(run, root, "kmc.run", Duration::ZERO, |_| kmc.run(1_000_000));
            facts.kmc_fanout = kmc.probes().revalidation_fanout.mean();
            facts.kmc_dwell = kmc.probes().dwell.mean();
            tr.repeat(run, root, "kmc.run", budget, |_| kmc.run(1_000_000));

            // sops_core: algorithm A, flat and sharded.
            let mut local =
                LocalRunner::from_seed(&sys, lambda, seed).map_err(|e| format!("local: {e}"))?;
            tr.repeat(run, root, "local.activation", Duration::ZERO, |_| {
                activate(&mut local)
            });
            let probes = local.probes();
            facts.local_move_frac = probes.contracted_forward as f64 / probes.total().max(1) as f64;
            tr.repeat(run, root, "local.activation", budget, |_| {
                activate(&mut local)
            });
            let mut flat = ShardedLocalRunner::from_seed(&sys, lambda, seed)
                .map_err(|e| format!("local-sharded: {e}"))?;
            let mut pooled = ShardedLocalRunner::from_seed(&sys, lambda, seed)
                .map_err(|e| format!("local-sharded: {e}"))?;
            let pool = PoolExecutor::new(2);
            let rounds = reps_for(n) as u64;
            // Alternate the two paths so drift on the box hits both alike.
            let deadline = Instant::now() + budget * 2;
            let mut done = 0;
            while done < MIN_BATCHES || Instant::now() < deadline {
                tr.span(run, Some(root), "sharded.round_flat", |_| {
                    flat.run_rounds(rounds);
                    ((), rounds)
                });
                tr.span(run, Some(root), "sharded.round_pool2", |_| {
                    pooled.run_rounds_with(rounds, &pool);
                    ((), rounds)
                });
                done += 1;
            }
            if flat.snapshot() != pooled.snapshot() {
                return Err("sharded runs diverged between flat and pooled execution".into());
            }

            // sops_core: snapshot encode/restore of each simulator family.
            let chain_text = chain.snapshot();
            let kmc_text = kmc.snapshot();
            let local_text = local.snapshot();
            let reps = reps_for(n * 5);
            tr.repeat(run, root, "snapshot.chain.encode", budget, |_| {
                for _ in 0..reps {
                    black_box(chain.snapshot());
                }
                reps as u64
            });
            tr.repeat(run, root, "snapshot.chain.restore", budget, |_| {
                for _ in 0..reps {
                    let restored = CompressionChain::<StdRng, EdgeCount>::restore(&chain_text);
                    black_box(restored.expect("own snapshot restores"));
                }
                reps as u64
            });
            tr.repeat(run, root, "snapshot.kmc.encode", budget, |_| {
                for _ in 0..reps {
                    black_box(kmc.snapshot());
                }
                reps as u64
            });
            tr.repeat(run, root, "snapshot.kmc.restore", budget, |_| {
                for _ in 0..reps {
                    let restored = KmcChain::<StdRng, EdgeCount>::restore(&kmc_text);
                    black_box(restored.expect("own snapshot restores"));
                }
                reps as u64
            });
            tr.repeat(run, root, "snapshot.local.encode", budget, |_| {
                for _ in 0..reps {
                    black_box(local.snapshot());
                }
                reps as u64
            });
            tr.repeat(run, root, "snapshot.local.restore", budget, |_| {
                for _ in 0..reps {
                    black_box(LocalRunner::restore(&local_text).expect("own snapshot restores"));
                }
                reps as u64
            });

            // sops-engine: one sealed, fsynced checkpoint write of a
            // snapshot of the first job's simulator family.
            let snapshot = match first.algorithm {
                Algorithm::ChainKmc(_) => &kmc_text,
                Algorithm::Local | Algorithm::LocalSharded => &local_text,
                _ => &chain_text,
            };
            let target = opts.work.join("write-atomic.ckpt");
            let mut write_err = None;
            tr.repeat(run, root, "engine.write_atomic", budget, |_| {
                if let Err(e) = write_atomic(&target, &seal(snapshot)) {
                    write_err = Some(e);
                }
                1
            });
            if let Some(e) = write_err {
                return Err(format!("write_atomic: {e}"));
            }

            // sops-telemetry: rendering the sweep's metrics document.
            tr.repeat(run, root, "telemetry.metrics_json", budget, |_| {
                for _ in 0..100 {
                    black_box(sops_telemetry::metrics_json(metrics));
                }
                100
            });
            Ok(())
        })();
        (result, 1)
    })?;
    Ok(facts)
}

/// Checkpoints and resumes the workload's first job through the engine's
/// public API: an interrupted pass after one checkpoint, then a resuming
/// pass interrupted after one more. Returns the two passes' counters
/// summed, which price a checkpoint write and a resume on every workload,
/// including those whose sweep never checkpoints.
fn durability_probe(
    tr: &Tracer,
    run: &str,
    opts: &Opts,
    first: &JobSpec,
) -> Result<BTreeMap<String, u64>, String> {
    let every = if first.algorithm.is_chain_sampler() {
        1_000
    } else {
        1
    };
    let mut spec = *first;
    spec.id = 0;
    spec.burnin = 0;
    spec.steps = every * 4;
    spec.samples = 1;
    spec.until_alpha = None;
    spec.crash = None;
    let dir = opts.work.join("durability-ckpt");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = EngineConfig {
        threads: 1,
        checkpoint: Some(CheckpointConfig::new(&dir, every)),
        stop_after_checkpoints: Some(1),
        shards: opts.shards,
        ..EngineConfig::default()
    };
    let mut summed = BTreeMap::new();
    for _ in 0..2 {
        let report = tr
            .span(run, None, "bench.durability", |_| {
                (sops_engine::run_sweep(vec![spec], &cfg), 1)
            })
            .map_err(|e| format!("durability probe: {e}"))?;
        for (k, v) in counters(&report.metrics) {
            *summed.entry(k).or_insert(0) += v;
        }
    }
    Ok(summed)
}

fn json_counters(out: &mut String, counters: &BTreeMap<String, u64>) {
    out.push('{');
    for (i, (k, v)) in counters.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(out, "{sep}{}:{v}", json_str(k));
    }
    out.push('}');
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Finite floats only: JSON has no NaN.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn render_report(
    replays: &[Vec<Sheet>],
    durability: &BTreeMap<String, u64>,
    facts: &Facts,
    spans: &[Span],
) -> String {
    let mut out = String::new();
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let _ = write!(
        out,
        "{{\"available_parallelism\":{parallelism},\"replays\":["
    );
    for (r, passes) in replays.iter().enumerate() {
        out.push_str(if r == 0 { "[" } else { ",[" });
        for (p, pass) in passes.iter().enumerate() {
            if p > 0 {
                out.push(',');
            }
            json_counters(&mut out, &counters(pass));
        }
        out.push(']');
    }
    out.push_str("],\"durability\":");
    json_counters(&mut out, durability);
    let _ = write!(
        out,
        ",\"facts\":{{\"chain.acceptance\":{},\"kmc.revalidation_fanout\":{},\
         \"kmc.dwell_mean\":{},\"local.move_frac\":{}}},\"spans\":[",
        json_f64(facts.chain_acceptance),
        json_f64(facts.kmc_fanout),
        json_f64(facts.kmc_dwell),
        json_f64(facts.local_move_frac)
    );
    for (i, s) in spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{sep}\n{{\"run\":{},\"id\":{},\"parent\":{parent},\"name\":{},\"start_ns\":{},\
             \"end_ns\":{},\"ops\":{}}}",
            json_str(&s.run),
            s.id,
            json_str(s.name),
            s.start_ns,
            s.end_ns,
            s.ops
        );
    }
    out.push_str("\n]}\n");
    out
}
