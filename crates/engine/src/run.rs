//! Top-level sweep orchestration: [`run_sweep`], [`SweepSession`],
//! [`EngineConfig`] and [`SweepReport`].

use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use sops::analysis::table::{fmt_f64, Table};
use sops::system::metrics;
use sops_telemetry::json::quote;
use sops_telemetry::{Live, Registry, Sheet};

use crate::checkpoint::{CheckpointConfig, Store};
use crate::fault::{FaultPlan, FaultSpec};
use crate::grid::JobSpec;
use crate::job::{run_job, JobContext, JobOutcome};
use crate::pool::{default_threads, map_parallel};
use crate::result::{JobFailure, JobResult};
use crate::sink::EventSink;
use crate::telemetry::{finalize_rates, heartbeat, TelemetryConfig};

/// How a sweep executes.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Worker threads (results are identical at any value; only wall-clock
    /// time changes).
    pub threads: usize,
    /// Enable checkpoint/resume under this config.
    pub checkpoint: Option<CheckpointConfig>,
    /// Append JSONL events to this path.
    pub events_path: Option<PathBuf>,
    /// Gracefully stop the whole sweep after this many checkpoints have
    /// been written — deterministic "kill" injection for tests and CI
    /// resume drills.
    pub stop_after_checkpoints: Option<u64>,
    /// Experiment provenance (the name from an experiment file, see
    /// [`crate::experiment`]). When set, the sweep announces itself with a
    /// JSONL `sweep_start` event and the checkpoint directory's `meta.txt`
    /// records an `experiment=` line. `None` (flag-driven sweeps) emits
    /// neither, keeping pre-experiment artifacts byte-identical.
    pub experiment: Option<String>,
    /// Telemetry policy: metric collection (on by default) and the live
    /// progress heartbeat (opt-in). A pure side channel either way — every
    /// simulation artifact (CSV, snapshots, done-records, job JSONL lines)
    /// is byte-identical at any setting; see `crate::telemetry`.
    pub telemetry: TelemetryConfig,
    /// Deterministic fault injection for tests and chaos drills (see
    /// [`crate::fault`]; CLI: the `SOPS_FAULTS` env). `None` — or a spec
    /// whose rules never match — leaves every artifact byte-identical to a
    /// run without the fault subsystem.
    pub faults: Option<FaultSpec>,
    /// Re-run jobs quarantined as `failed/job-<id>.txt` by a prior run
    /// (CLI: `--retry-failed`). Default `false`: quarantined jobs are
    /// skipped and reported in [`SweepReport::failed`], so a crashing job
    /// cannot wedge resume into re-failing forever.
    pub retry_failed: bool,
    /// Worker count *within* one job of algorithm `A`. A `local-sharded`
    /// job (the checkerboard-synchronous variant, `sops_core::sharded`)
    /// runs each color step's regions on this many workers. A `local` job
    /// at 2 or more pipelines its Poisson-clock schedule with its
    /// activations on one helper thread per stepping chunk
    /// (`LocalRunner::run_rounds_with`); a chunk under
    /// `sops_core::local::PIPELINE_MIN_EVENTS` expected events runs inline.
    /// Like [`EngineConfig::threads`], a pure execution detail: results,
    /// checkpoints and events are byte-identical at any value. 1 (the
    /// default) runs every job inline on its worker thread; checkpoints
    /// carry no shard count and resume portably across values.
    pub shards: usize,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            threads: default_threads(),
            checkpoint: None,
            events_path: None,
            stop_after_checkpoints: None,
            experiment: None,
            telemetry: TelemetryConfig::default(),
            faults: None,
            retry_failed: false,
            shards: 1,
        }
    }
}

/// The outcome of [`run_sweep`].
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// Every job of the sweep, in id order.
    pub specs: Vec<JobSpec>,
    /// Results of completed jobs, in id order (all of them unless
    /// [`SweepReport::interrupted`]).
    pub results: Vec<JobResult>,
    /// How many results were reused from done-records of a prior run.
    pub reused: usize,
    /// `true` when the sweep stopped early (stop flag); resume by running
    /// again with the same checkpoint directory.
    pub interrupted: bool,
    /// Jobs without a result this run — panicked, failed on I/O, or
    /// skipped as quarantined — in id order. The sweep still finishes
    /// every healthy job; see [`JobFailure`] for the recovery story.
    pub failed: Vec<JobFailure>,
    /// JSONL event lines dropped by I/O errors (0 without an event sink).
    /// Nonzero means the event stream on disk is incomplete — the CSV and
    /// done-records are still authoritative.
    pub sink_errors: u64,
    /// The sweep's merged telemetry (empty when collection is disabled):
    /// per-family counters and probe histograms, phase timers, and the
    /// derived rate gauges. Render with [`SweepReport::metrics_json`].
    pub metrics: Sheet,
}

impl SweepReport {
    /// Renders [`SweepReport::metrics`] as the canonical `metrics.json`
    /// document (schema `sops-metrics-v1`, sorted keys, trailing newline).
    #[must_use]
    pub fn metrics_json(&self) -> String {
        sops_telemetry::metrics_json(&self.metrics)
    }

    /// `true` when every job has a result.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.results.len() == self.specs.len()
    }

    /// The result for job `id`, if completed.
    #[must_use]
    pub fn result_for(&self, id: usize) -> Option<&JobResult> {
        self.results
            .binary_search_by_key(&id, |r| r.job)
            .ok()
            .map(|i| &self.results[i])
    }

    /// Completed `(spec, result)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (&JobSpec, &JobResult)> {
        self.results.iter().map(|r| (&self.specs[r.job], r))
    }

    /// The summary table (one row per completed job, id order): per-job
    /// online mean/σ of the perimeter samples, the mean compression ratio
    /// `α = mean p / pmin`, acceptance diagnostics (accepted moves,
    /// acceptance rate, and the largest geometric dwell for `chain-kmc`
    /// jobs), final perimeter, first hit and violations.
    ///
    /// Built purely from per-job results, so the bytes are identical at any
    /// thread count and across interrupt/resume cycles.
    #[must_use]
    pub fn to_table(&self) -> Table {
        let mut table = Table::new([
            "job",
            "algorithm",
            "shape",
            "n",
            "lambda",
            "rep",
            "seed",
            "work",
            "accepted",
            "accept rate",
            "max jump",
            "mean p",
            "sd p",
            "alpha",
            "final p",
            "first hit",
            "violations",
            "connected",
        ]);
        for (spec, result) in self.iter() {
            let stats = result.stats();
            // The *actual* particle count: for shapes like Annulus the
            // system size is unrelated to spec.n.
            let pmin = metrics::pmin(result.particles) as f64;
            let (mean_p, sd_p, alpha) = if stats.count() == 0 {
                ("-".into(), "-".into(), "-".into())
            } else {
                (
                    fmt_f64(stats.mean(), 3),
                    fmt_f64(stats.std_dev(), 3),
                    fmt_f64(stats.mean() / pmin, 4),
                )
            };
            table.row([
                spec.id.to_string(),
                spec.algorithm.to_string(),
                spec.shape.to_string(),
                spec.n.to_string(),
                format!("{}", spec.lambda),
                spec.rep.to_string(),
                spec.seed.to_string(),
                result.work_done.to_string(),
                result
                    .counts
                    .accepted()
                    .map_or_else(|| "-".into(), |v| v.to_string()),
                result
                    .counts
                    .acceptance_rate()
                    .map_or_else(|| "-".into(), |r| fmt_f64(r, 5)),
                result
                    .counts
                    .max_jump()
                    .map_or_else(|| "-".into(), |v| v.to_string()),
                mean_p,
                sd_p,
                alpha,
                result.final_perimeter.to_string(),
                result
                    .first_hit
                    .map_or_else(|| "-".into(), |v: u64| v.to_string()),
                result.violations.to_string(),
                if result.final_connected { "yes" } else { "NO" }.to_string(),
            ]);
        }
        table
    }
}

/// A completed attempt at one pending job, recorded by
/// [`SweepSession::run_pending`].
enum Outcome {
    Completed(JobResult),
    Interrupted,
    Error(io::Error),
    Panicked(String),
}

/// A reentrant sweep in flight: the open/step/finish decomposition of
/// [`run_sweep`].
///
/// [`SweepSession::open`] performs all sweep-level setup (spec validation,
/// fault arming, event sink, checkpoint store, done/quarantine replay) and
/// leaves a list of [pending](SweepSession::pending) jobs. Callers then
/// drive [`SweepSession::run_pending`] for each pending position — from any
/// threads, in any order, one call per position — and close with
/// [`SweepSession::finish`], which assembles the exact [`SweepReport`]
/// (same events, same bytes) that the one-shot [`run_sweep`] produces.
///
/// Drivers that need a span around each phase (a tracing benchmark, say)
/// or their own scheduling call the three steps directly.
pub struct SweepSession {
    specs: Vec<JobSpec>,
    pending: Vec<JobSpec>,
    faults: Option<Arc<FaultPlan>>,
    sink: EventSink,
    store: Option<Store>,
    every: u64,
    done: Vec<JobResult>,
    reused: usize,
    quarantined: Vec<JobFailure>,
    retried: u64,
    registry: Registry,
    telemetry: TelemetryConfig,
    stop: AtomicBool,
    checkpoints: AtomicU64,
    stop_after: Option<u64>,
    shards: usize,
    outcomes: Mutex<Vec<Option<Outcome>>>,
    finished: AtomicBool,
}

/// Locks shrugging off poison: outcome slots hold only completed values, so
/// a caller-side panic cannot leave partial state behind.
fn relock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl SweepSession {
    /// Opens a sweep over `specs`: validates ids, arms faults, opens the
    /// event sink and checkpoint store, replays done-records and
    /// quarantine records, and computes the pending job list.
    ///
    /// # Errors
    ///
    /// Sweep-level setup errors only: opening the store or sink, a
    /// checkpoint directory holding a foreign sweep, or `InvalidInput` for
    /// mis-numbered specs.
    pub fn open(specs: Vec<JobSpec>, cfg: &EngineConfig) -> io::Result<SweepSession> {
        // Ids must equal positions: checkpoints are keyed by id and results
        // are paired back to specs[id]. Grid-built lists satisfy this;
        // hand-built lists must go through `grid::assign_ids_and_seeds`.
        if let Some((pos, spec)) = specs.iter().enumerate().find(|(i, s)| s.id != *i) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "spec at position {pos} has id {} — run assign_ids_and_seeds on hand-built specs",
                    spec.id
                ),
            ));
        }
        let faults: Option<Arc<FaultPlan>> = cfg
            .faults
            .as_ref()
            .filter(|spec| !spec.is_empty())
            .map(|spec| Arc::new(spec.arm()));
        let sink = match &cfg.events_path {
            Some(path) => EventSink::to_path(path)?.with_faults(faults.clone()),
            None => EventSink::disabled(),
        };
        if let Some(experiment) = &cfg.experiment {
            sink.emit(&format!(
                "\"event\":\"sweep_start\",\"experiment\":{},\"jobs\":{}",
                quote(experiment),
                specs.len()
            ));
        }
        let store_every = match &cfg.checkpoint {
            Some(ck) => {
                let (store, _resumed) =
                    Store::open(&ck.dir, &specs, cfg.experiment.as_deref(), faults.clone())?;
                Some((store, ck.every))
            }
            None => None,
        };
        // Corrupt done-records are discarded (those jobs recompute), warned
        // about, and counted — never fatal.
        let (done, discarded) = match &store_every {
            Some((store, _)) => store.load_done()?,
            None => (Vec::new(), Vec::new()),
        };
        for d in &discarded {
            let job = d.job.map_or(String::new(), |id| format!("\"job\":{id},"));
            sink.emit(&format!(
                "\"event\":\"ckpt_corrupt\",{job}\"kind\":\"done\",\"file\":{},\"reason\":{}",
                quote(&d.file),
                quote(&d.reason)
            ));
        }
        let reused = done.len();
        let done_ids: Vec<usize> = done.iter().map(|r| r.job).collect();
        // Quarantine records from prior failed runs: skipped by default (a
        // crashing job must not wedge resume into re-failing forever),
        // cleared and re-run under `retry_failed`.
        let mut quarantined: Vec<JobFailure> = Vec::new();
        let mut retried: u64 = 0;
        if let Some((store, _)) = &store_every {
            for (id, error) in store.load_failed()? {
                if done_ids.binary_search(&id).is_ok() {
                    store.clear_failed(id)?; // stale: the job completed since
                } else if cfg.retry_failed {
                    store.clear_failed(id)?;
                    retried += 1;
                    sink.emit(&format!("\"event\":\"job_retried\",\"job\":{id}"));
                } else {
                    sink.emit(&format!(
                        "\"event\":\"job_quarantined\",\"job\":{id},\"error\":{}",
                        quote(&error)
                    ));
                    quarantined.push(JobFailure {
                        job: id,
                        error,
                        quarantined: true,
                    });
                }
            }
        }
        let pending: Vec<JobSpec> = specs
            .iter()
            .filter(|s| {
                done_ids.binary_search(&s.id).is_err()
                    && quarantined.binary_search_by_key(&s.id, |f| f.job).is_err()
            })
            .copied()
            .collect();

        // Telemetry is a pure side channel: the registry and live counters
        // are written beside the sweep, never read by it, so enabling
        // either knob cannot perturb any simulation artifact.
        let registry = Registry::new();
        if cfg.telemetry.is_active() {
            Live::add(&registry.live.jobs_total, specs.len() as u64);
            Live::add(&registry.live.jobs_done, reused as u64);
            let work_total: u64 = pending.iter().map(JobSpec::total_work).sum();
            Live::add(&registry.live.work_total, work_total);
        }

        let outcomes = Mutex::new((0..pending.len()).map(|_| None).collect());
        let (store, every) = match store_every {
            Some((store, every)) => (Some(store), every),
            None => (None, u64::MAX),
        };
        Ok(SweepSession {
            specs,
            pending,
            faults,
            sink,
            store,
            every,
            done,
            reused,
            quarantined,
            retried,
            registry,
            telemetry: cfg.telemetry.clone(),
            stop: AtomicBool::new(false),
            checkpoints: AtomicU64::new(0),
            stop_after: cfg.stop_after_checkpoints,
            shards: cfg.shards.max(1),
            outcomes,
            finished: AtomicBool::new(false),
        })
    }

    /// The jobs this run still has to execute (specs minus reused minus
    /// quarantined), in id order. [`SweepSession::run_pending`] takes
    /// *positions* into this slice.
    #[must_use]
    pub fn pending(&self) -> &[JobSpec] {
        &self.pending
    }

    /// Per-job execution context, borrowed from the session.
    fn job_context(&self) -> JobContext<'_> {
        JobContext {
            store: self.store.as_ref(),
            every: self.every,
            sink: &self.sink,
            stop: &self.stop,
            checkpoints: &self.checkpoints,
            stop_after: self.stop_after,
            registry: self.telemetry.is_active().then_some(&self.registry),
            faults: self.faults.as_deref(),
            shards: self.shards,
        }
    }

    /// Runs the pending job at `pos` and records its outcome. Safe to call
    /// from any thread; call at most once per position. Panics inside the
    /// job are caught and recorded (worker isolation), exactly as
    /// [`run_sweep`]'s pool does.
    ///
    /// Once a `stop_after_checkpoints` budget has tripped, the call records
    /// an interrupted outcome without starting the job.
    pub fn run_pending(&self, pos: usize) {
        let spec = self.pending[pos];
        let outcome = if self.stop.load(Ordering::SeqCst) {
            Outcome::Interrupted
        } else {
            let ctx = self.job_context();
            match catch_unwind(AssertUnwindSafe(|| run_job(&spec, &ctx))) {
                Ok(Ok(JobOutcome::Completed(result))) => Outcome::Completed(result),
                Ok(Ok(JobOutcome::Interrupted)) => Outcome::Interrupted,
                Ok(Err(e)) => Outcome::Error(e),
                Err(payload) => Outcome::Panicked(crate::pool::panic_message(payload)),
            }
        };
        relock(&self.outcomes)[pos] = Some(outcome);
    }

    /// Assembles the [`SweepReport`]: sorts results, durably quarantines
    /// fresh failures, emits the closing events, and snapshots metrics —
    /// byte-identical to the one-shot [`run_sweep`] path. Pending
    /// positions never run (the stop flag tripped) count as interrupted.
    ///
    /// # Errors
    ///
    /// `InvalidInput` from a job whose spec cannot be instantiated (fatal
    /// — retrying cannot fix it), or "already finished" when called twice.
    pub fn finish(&self) -> io::Result<SweepReport> {
        if self.finished.swap(true, Ordering::SeqCst) {
            return Err(io::Error::other("sweep session already finished"));
        }
        let outcomes = std::mem::take(&mut *relock(&self.outcomes));
        // Failures are job-local: a panic (caught per position) or an I/O
        // error takes out that one job, never its siblings. InvalidInput
        // stays fatal — it means the spec itself cannot be instantiated,
        // which retrying cannot fix.
        let mut results = self.done.clone();
        let mut interrupted = false;
        let mut failures: Vec<JobFailure> = Vec::new();
        for (i, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                Some(Outcome::Completed(result)) => results.push(result),
                Some(Outcome::Interrupted) | None => interrupted = true,
                Some(Outcome::Error(e)) if e.kind() == io::ErrorKind::InvalidInput => {
                    return Err(e);
                }
                Some(Outcome::Error(e)) => failures.push(JobFailure {
                    job: self.pending[i].id,
                    error: e.to_string(),
                    quarantined: false,
                }),
                Some(Outcome::Panicked(msg)) => failures.push(JobFailure {
                    job: self.pending[i].id,
                    error: format!("panic: {msg}"),
                    quarantined: false,
                }),
            }
        }
        results.sort_by_key(|r| r.job);

        // Durably quarantine fresh failures (best-effort — a store that
        // cannot even record the failure still surfaces it in the report)
        // and announce each one.
        for f in &failures {
            if let Some(store) = &self.store {
                if let Err(e) = store.write_failed(f.job, &f.error) {
                    self.sink.emit(&format!(
                        "\"event\":\"failed_record_error\",\"job\":{},\"error\":{}",
                        f.job,
                        quote(&e.to_string())
                    ));
                }
            }
            self.sink.emit(&format!(
                "\"event\":\"job_failed\",\"job\":{},\"error\":{}",
                f.job,
                quote(&f.error)
            ));
        }
        let fresh_failures = failures.len() as u64;
        failures.extend(self.quarantined.iter().cloned());
        failures.sort_by_key(|f| f.job);

        if !interrupted {
            if failures.is_empty() {
                // Byte-stable happy-path event: fault-free sweeps emit
                // exactly the pre-fault-subsystem line.
                self.sink.emit(&format!(
                    "\"event\":\"sweep_complete\",\"jobs\":{},\"reused\":{}",
                    self.specs.len(),
                    self.reused
                ));
            } else {
                self.sink.emit(&format!(
                    "\"event\":\"sweep_degraded\",\"jobs\":{},\"completed\":{},\"failed\":{}",
                    self.specs.len(),
                    results.len(),
                    failures.len()
                ));
            }
        }
        // Dropped event writes are surfaced, not swallowed: counted into
        // the report and announced with a trailing event (which may itself
        // fail — the count was captured first, so the report stays
        // truthful).
        let sink_errors = self.sink.error_count();
        if sink_errors > 0 {
            self.sink.emit(&format!(
                "\"event\":\"sink_errors\",\"count\":{sink_errors}"
            ));
        }
        let metrics = if self.telemetry.collect {
            let mut m = self.registry.snapshot();
            m.add("sweep.jobs", self.specs.len() as u64);
            m.add("sweep.jobs_reused", self.reused as u64);
            m.add("sink.events", self.sink.event_count());
            m.add("sink.errors", sink_errors);
            // Robustness counters. `Sheet::add` drops zero adds, so
            // fault-free runs keep a byte-identical metrics.json.
            m.add("job.failed", fresh_failures);
            m.add("job.retried", self.retried);
            if let Some(plan) = &self.faults {
                m.add("fault.injected", plan.injected());
            }
            if let Some(store) = &self.store {
                m.add("ckpt.retry", store.retries());
                m.add("ckpt.corrupt_discarded", store.corrupt_discarded());
            }
            finalize_rates(&mut m);
            m
        } else {
            Sheet::new()
        };
        Ok(SweepReport {
            specs: self.specs.clone(),
            results,
            reused: self.reused,
            interrupted,
            failed: failures,
            sink_errors,
            metrics,
        })
    }
}

/// Runs a sweep over `specs` (typically from [`crate::GridSpec::build`] or
/// [`crate::ExperimentSpec::jobs`]).
///
/// Jobs already recorded as done in the checkpoint directory are reused;
/// jobs with a mid-flight checkpoint resume from it; the rest start fresh.
/// Results are **bitwise identical at any thread count** and across any
/// number of interrupt/resume cycles — see the crate docs for why.
///
/// Failures degrade gracefully instead of aborting: a job that panics or
/// hits an unretryable I/O error is quarantined (durably, with a store)
/// and reported in [`SweepReport::failed`] while every healthy job
/// finishes; corrupt checkpoint files demote their job to recompute. See
/// `docs/ROBUSTNESS.md` for the full failure model.
///
/// Implemented as [`SweepSession::open`] + a worker pool over every
/// pending position + [`SweepSession::finish`].
///
/// # Errors
///
/// Sweep-level setup errors only: opening the store or sink, a checkpoint
/// directory holding a foreign sweep, or `InvalidInput` for specs that
/// cannot be instantiated (e.g. λ ≤ 0).
pub fn run_sweep(specs: Vec<JobSpec>, cfg: &EngineConfig) -> io::Result<SweepReport> {
    let session = SweepSession::open(specs, cfg)?;
    let positions: Vec<usize> = (0..session.pending().len()).collect();
    // `run_pending` catches job panics itself, so the propagate-on-panic
    // pool is safe here and keeps the call sites symmetrical.
    let worker = |_: usize, pos: usize| session.run_pending(pos);
    if cfg.telemetry.progress {
        let started = Instant::now();
        let hb_stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let hb = scope.spawn(|| {
                heartbeat(
                    &session.registry,
                    &session.sink,
                    cfg.telemetry.heartbeat_ms,
                    &hb_stop,
                    started,
                );
            });
            map_parallel(cfg.threads, positions, worker);
            hb_stop.store(true, Ordering::SeqCst);
            hb.join().expect("heartbeat thread panicked");
        });
    } else {
        map_parallel(cfg.threads, positions, worker);
    }
    session.finish()
}
