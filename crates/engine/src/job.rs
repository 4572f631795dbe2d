//! Executes a single [`JobSpec`] — fresh or resumed — in checkpointable
//! segments.
//!
//! A job advances through a deterministic timeline: optional at-start
//! crashes, burn-in, optional mid-run crashes, then either evenly spaced
//! perimeter samples (fixed-budget mode) or perimeter checks every `n` work
//! units (first-hit mode). Every milestone is a pure function of the spec,
//! so an interrupted job resumed from its checkpoint replays the exact
//! remaining trajectory of the uninterrupted run.

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sops::core::hamiltonian::{Alignment, EdgeCount, Hamiltonian, HamiltonianSpec};
use sops::core::snapshot::{self, SnapshotError};
use sops::core::{CompressionChain, KmcChain, LocalProbes, LocalRunner, ShardedLocalRunner};
use sops::system::{metrics, ParticleSystem};
use sops_telemetry::json::quote;
use sops_telemetry::{Live, Registry, Sheet};

use crate::ablation::AblationChain;
use crate::checkpoint::{CkptLoad, Store};
use crate::fault::{self, FaultPlan};
use crate::grid::{Algorithm, JobSpec, ORIENT_SALT};
use crate::result::{JobResult, StepRecord};
use crate::shard::PoolExecutor;
use crate::sink::EventSink;

/// How a job ended.
pub(crate) enum JobOutcome {
    /// The job ran to its end; the result is final.
    Completed(JobResult),
    /// The engine was asked to stop; partial state is checkpointed (when a
    /// store is configured) and the job will continue on resume.
    Interrupted,
}

/// Shared per-sweep context handed to every worker.
pub(crate) struct JobContext<'a> {
    pub(crate) store: Option<&'a Store>,
    /// Work units between mid-job checkpoints (`u64::MAX` without a store).
    pub(crate) every: u64,
    pub(crate) sink: &'a EventSink,
    pub(crate) stop: &'a AtomicBool,
    pub(crate) checkpoints: &'a AtomicU64,
    pub(crate) stop_after: Option<u64>,
    /// Sweep telemetry (`None` when collection and progress are both off).
    /// Workers record into a private per-job [`Sheet`] and fold it here at
    /// session end; only the [`Live`] progress counters are touched
    /// mid-job.
    pub(crate) registry: Option<&'a Registry>,
    /// Armed fault-injection plan checked at the `job.step` point (the
    /// store and sink carry their own handles); `None` in production.
    pub(crate) faults: Option<&'a FaultPlan>,
    /// Worker count within one `local` or `local-sharded` job. Purely an
    /// execution detail — results and checkpoints are byte-identical at
    /// any value; 1 runs the job inline on its thread.
    pub(crate) shards: usize,
}

/// One simulator behind the job loop. The engine holds a
/// `Box<dyn Simulator>` and dispatches once per stepping chunk, never per
/// step, so the simulators' hot loops stay monomorphized. The chain
/// samplers implement it once per family, generically over the
/// Hamiltonian; a new Hamiltonian needs only a [`fresh`] arm and a
/// [`KINDS`] row per family.
trait Simulator {
    /// The checkpoint kind string (a [`KINDS`] key).
    fn kind(&self) -> &'static str;
    fn snapshot(&self) -> String;
    /// Actual particle count (can differ from `spec.n`, e.g. for annuli).
    fn len(&self) -> usize;
    /// Work units executed: chain/ablation steps or local rounds.
    fn work(&self) -> u64;
    /// Runs `delta > 0` more work units, one call per stepping chunk; may
    /// stop short when the simulator can make no further progress (halted
    /// ablation, all-crashed local). `shards` selects the worker count for
    /// `local` and `local-sharded` jobs (an execution detail — the
    /// trajectory is identical at any value).
    fn advance(&mut self, delta: u64, shards: usize);
    fn perimeter(&mut self) -> u64;
    /// `(perimeter, edges, connected)` of the final configuration.
    fn final_state(&mut self) -> (u64, u64, bool);
    /// Folds the session's probe counters into `sheet`; `completed` marks
    /// the job's final session.
    fn drain_probes(&self, sheet: &mut Sheet, completed: bool);

    /// Crashes particle `id`. Ablation studies invariant violations, not
    /// fault tolerance, so crash scenarios do not apply to it.
    fn crash(&mut self, _id: usize) {}

    /// Step-outcome counters for the results layer.
    fn step_record(&self) -> StepRecord {
        StepRecord::None
    }

    /// The final count of aligned neighbor pairs `a(σ)` — the alignment
    /// Hamiltonian's energy — for the simulators that track orientations.
    fn aligned(&self) -> Option<u64> {
        None
    }

    fn violations(&self) -> u64 {
        0
    }
}

type Restore = fn(&str) -> Result<Box<dyn Simulator>, SnapshotError>;

fn boxed<S: Simulator + 'static>(
    sim: Result<S, SnapshotError>,
) -> Result<Box<dyn Simulator>, SnapshotError> {
    Ok(Box::new(sim?))
}

/// Checkpoint kind → restore. The align kinds carry their orientation
/// count (and any future Hamiltonian parameters) inside the simulator
/// snapshot's `hamiltonian=` line; the kind string only selects the type.
const KINDS: [(&str, Restore); 7] = [
    ("chain", |t| {
        boxed(CompressionChain::<StdRng, EdgeCount>::restore(t))
    }),
    ("chain-align", |t| {
        boxed(CompressionChain::<StdRng, Alignment>::restore(t))
    }),
    ("kmc", |t| boxed(KmcChain::<StdRng, EdgeCount>::restore(t))),
    ("kmc-align", |t| {
        boxed(KmcChain::<StdRng, Alignment>::restore(t))
    }),
    ("local", |t| boxed(LocalRunner::restore(t))),
    ("local-sharded", |t| boxed(ShardedLocalRunner::restore(t))),
    ("ablation", |t| boxed(AblationChain::restore(t))),
];

/// Every simulator kind, in [`KINDS`] order — also the metric families a
/// sweep can record.
pub(crate) fn kinds() -> impl Iterator<Item = &'static str> {
    KINDS.iter().map(|(kind, _)| *kind)
}

fn restore(kind: &str, text: &str) -> Result<Box<dyn Simulator>, SnapshotError> {
    let (_, restore) = KINDS
        .iter()
        .find(|(k, _)| *k == kind)
        .ok_or_else(|| SnapshotError::Invalid(format!("unknown sim kind {kind:?}")))?;
    restore(text)
}

fn invalid(err: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, err.to_string())
}

fn fresh(spec: &JobSpec) -> io::Result<Box<dyn Simulator>> {
    // Specs are plain data (public fields), so range invariants the string
    // parser enforces must be re-checked here; a bad spec is an
    // InvalidInput error like any other uninstantiable job, not a
    // worker-thread panic.
    if let Some(HamiltonianSpec::Alignment { q }) = spec.algorithm.hamiltonian() {
        if !(2..=64).contains(&q) {
            return Err(invalid(format!("alignment q must be in 2..=64, got {q}")));
        }
    }
    let (lambda, seed) = (spec.lambda, spec.seed);
    let start = spec.shape.build(spec.n, seed).map_err(invalid)?;
    // Alignment runs start from orientations that are a pure function of
    // the spec, so fresh runs and checkpoint-resumed runs agree.
    let oriented = |start: ParticleSystem, q| start.with_random_orientations(q, seed ^ ORIENT_SALT);
    Ok(match spec.algorithm {
        Algorithm::Chain(HamiltonianSpec::Edges) => {
            Box::new(CompressionChain::from_seed(start, lambda, seed).map_err(invalid)?)
        }
        Algorithm::Chain(HamiltonianSpec::Alignment { q }) => Box::new(
            CompressionChain::from_seed_with(oriented(start, q), lambda, seed, Alignment { q })
                .map_err(invalid)?,
        ),
        Algorithm::ChainKmc(HamiltonianSpec::Edges) => {
            Box::new(KmcChain::from_seed(start, lambda, seed).map_err(invalid)?)
        }
        Algorithm::ChainKmc(HamiltonianSpec::Alignment { q }) => Box::new(
            KmcChain::from_seed_with(oriented(start, q), lambda, seed, Alignment { q })
                .map_err(invalid)?,
        ),
        Algorithm::Local => {
            Box::new(LocalRunner::from_seed(&start, lambda, seed).map_err(invalid)?)
        }
        Algorithm::LocalSharded => {
            Box::new(ShardedLocalRunner::from_seed(&start, lambda, seed).map_err(invalid)?)
        }
        Algorithm::Ablation(guards) => Box::new(
            AblationChain::from_seed(&start, lambda, guards, (spec.n as u64).max(1), seed)
                .map_err(invalid)?,
        ),
    })
}

/// `a(σ)` when the configuration carries orientations. Like the `-align`
/// kind suffix, it follows from the configuration alone, so the chain
/// families need no per-Hamiltonian hook.
fn aligned_pairs(sys: &ParticleSystem) -> Option<u64> {
    sys.orientations().map(|_| metrics::aligned_pairs(sys))
}

fn drain_local_probes(sheet: &mut Sheet, kind: &str, p: &LocalProbes) {
    sheet.add(&format!("{kind}.expanded"), p.expanded);
    sheet.add(&format!("{kind}.contracted_forward"), p.contracted_forward);
    sheet.add(&format!("{kind}.contracted_back"), p.contracted_back);
    sheet.add(&format!("{kind}.idle"), p.idle);
    sheet.add(&format!("{kind}.activations"), p.total());
}

fn tail_state(tails: &ParticleSystem) -> (u64, u64, bool) {
    (tails.perimeter(), tails.edge_count(), tails.is_connected())
}

impl<H: Hamiltonian> Simulator for CompressionChain<StdRng, H> {
    fn kind(&self) -> &'static str {
        if self.system().orientations().is_some() {
            "chain-align"
        } else {
            "chain"
        }
    }

    fn snapshot(&self) -> String {
        self.snapshot()
    }

    fn len(&self) -> usize {
        self.system().len()
    }

    fn work(&self) -> u64 {
        self.steps()
    }

    fn advance(&mut self, delta: u64, _shards: usize) {
        self.run(delta);
    }

    fn perimeter(&mut self) -> u64 {
        self.perimeter()
    }

    fn final_state(&mut self) -> (u64, u64, bool) {
        let p = self.perimeter();
        (p, self.system().edge_count(), self.system().is_connected())
    }

    fn drain_probes(&self, sheet: &mut Sheet, _completed: bool) {
        let (kind, probes) = (self.kind(), self.probes());
        sheet.add(&format!("{kind}.accepted"), probes.accepted_delta.count());
        sheet.observe_hist(&format!("{kind}.accepted_delta"), &probes.accepted_delta);
    }

    fn crash(&mut self, id: usize) {
        self.crash(id);
    }

    fn step_record(&self) -> StepRecord {
        StepRecord::Chain(self.counts())
    }

    fn aligned(&self) -> Option<u64> {
        aligned_pairs(self.system())
    }
}

impl<H: Hamiltonian> Simulator for KmcChain<StdRng, H> {
    fn kind(&self) -> &'static str {
        if self.system().orientations().is_some() {
            "kmc-align"
        } else {
            "kmc"
        }
    }

    fn snapshot(&self) -> String {
        self.snapshot()
    }

    fn len(&self) -> usize {
        self.system().len()
    }

    fn work(&self) -> u64 {
        self.steps()
    }

    fn advance(&mut self, delta: u64, _shards: usize) {
        self.run(delta);
    }

    fn perimeter(&mut self) -> u64 {
        self.perimeter()
    }

    fn final_state(&mut self) -> (u64, u64, bool) {
        let p = self.perimeter();
        (p, self.system().edge_count(), self.system().is_connected())
    }

    fn drain_probes(&self, sheet: &mut Sheet, _completed: bool) {
        let (kind, probes) = (self.kind(), self.probes());
        sheet.add(&format!("{kind}.accepted"), probes.dwell.count());
        sheet.observe_hist(&format!("{kind}.dwell"), &probes.dwell);
        sheet.observe_hist(
            &format!("{kind}.revalidation_fanout"),
            &probes.revalidation_fanout,
        );
    }

    fn crash(&mut self, id: usize) {
        self.crash(id);
    }

    fn step_record(&self) -> StepRecord {
        let counts = self.counts();
        StepRecord::Kmc {
            moved: counts.moved,
            total: self.steps(),
            max_jump: counts.max_jump,
        }
    }

    fn aligned(&self) -> Option<u64> {
        aligned_pairs(self.system())
    }
}

/// The [`Simulator`] methods both runners of algorithm `A` share. Each
/// runner's `snapshot` and `crash` belong to its schedule, so the two impls
/// share them as text, not through a generic impl.
macro_rules! local_runner_methods {
    () => {
        fn snapshot(&self) -> String {
            self.snapshot()
        }

        fn len(&self) -> usize {
            self.len()
        }

        fn work(&self) -> u64 {
            self.rounds()
        }

        fn perimeter(&mut self) -> u64 {
            self.tail_system().perimeter()
        }

        fn final_state(&mut self) -> (u64, u64, bool) {
            tail_state(&self.tail_system())
        }

        fn crash(&mut self, id: usize) {
            self.crash(id);
        }
    };
}

impl Simulator for LocalRunner {
    local_runner_methods!();

    fn kind(&self) -> &'static str {
        "local"
    }

    fn advance(&mut self, delta: u64, shards: usize) {
        self.run_rounds_with(delta, shards);
    }

    fn drain_probes(&self, sheet: &mut Sheet, completed: bool) {
        drain_local_probes(sheet, self.kind(), self.probes());
        // Simulated (continuous Poisson-clock) elapsed time, summed over
        // the sweep's local-algorithm jobs. Unlike the probes, `time()` is
        // simulation state that survives restore, so it is recorded once
        // per *job* (at completion), not per session.
        if completed {
            sheet.gauge_add("local.sim_time", self.time());
        }
    }
}

impl Simulator for ShardedLocalRunner {
    local_runner_methods!();

    fn kind(&self) -> &'static str {
        "local-sharded"
    }

    fn advance(&mut self, delta: u64, shards: usize) {
        self.run_rounds_with(delta, &PoolExecutor::new(shards));
    }

    fn drain_probes(&self, sheet: &mut Sheet, _completed: bool) {
        drain_local_probes(sheet, self.kind(), self.probes());
    }
}

impl Simulator for AblationChain {
    fn kind(&self) -> &'static str {
        "ablation"
    }

    fn snapshot(&self) -> String {
        self.snapshot()
    }

    fn len(&self) -> usize {
        self.system().len()
    }

    fn work(&self) -> u64 {
        self.steps()
    }

    fn advance(&mut self, delta: u64, _shards: usize) {
        self.run(delta);
    }

    fn perimeter(&mut self) -> u64 {
        self.system().perimeter()
    }

    fn final_state(&mut self) -> (u64, u64, bool) {
        tail_state(self.system())
    }

    fn drain_probes(&self, _sheet: &mut Sheet, _completed: bool) {}

    fn violations(&self) -> u64 {
        self.report().violations()
    }
}

/// Mid-flight state of a job (everything a checkpoint needs to carry
/// besides the simulator snapshot itself).
struct JobState {
    sim: Box<dyn Simulator>,
    samples: Vec<f64>,
    /// 1-based index of the next sample to take.
    next_sample: u64,
    crashed_applied: bool,
    first_hit: Option<u64>,
    last_ckpt_work: u64,
    /// Per-job telemetry scratch (`Some` while the sweep registry is
    /// active). Never serialized: checkpoints carry simulation state only,
    /// so telemetry can never leak into resume behavior.
    sheet: Option<Sheet>,
    /// `sim.work()` when this session began (0 fresh, the checkpoint's work
    /// on resume). Telemetry counts session deltas because the probes reset
    /// on restore; summing sessions across resume cycles recovers totals.
    session_start_work: u64,
}

const SIM_SEPARATOR: &str = "\n--sim--\n";

fn ckpt_text(state: &JobState, spec: &JobSpec) -> String {
    use core::fmt::Write as _;
    let mut s = String::from("sops-engine-ckpt v1\n");
    let _ = writeln!(s, "job={}", spec.id);
    let _ = writeln!(s, "next_sample={}", state.next_sample);
    let _ = writeln!(s, "crashed_applied={}", u8::from(state.crashed_applied));
    let _ = writeln!(
        s,
        "first_hit={}",
        snapshot::opt_u64_to_string(state.first_hit)
    );
    let _ = writeln!(s, "samples={}", snapshot::f64s_to_string(&state.samples));
    let _ = write!(s, "sim={}", state.sim.kind());
    s.push_str(SIM_SEPARATOR);
    s.push_str(&state.sim.snapshot());
    s
}

fn parse_ckpt(spec: &JobSpec, text: &str) -> Result<JobState, SnapshotError> {
    let (engine_part, sim_part) = text
        .split_once(SIM_SEPARATOR)
        .ok_or_else(|| SnapshotError::Invalid("missing simulator section".into()))?;
    let fields = snapshot::Fields::parse(engine_part, "sops-engine-ckpt v1")?;
    let job: usize = fields.parse_num("job")?;
    if job != spec.id {
        return Err(SnapshotError::Invalid(format!(
            "checkpoint is for job {job}, expected {}",
            spec.id
        )));
    }
    let samples = snapshot::f64s_from_string("samples", fields.get("samples")?)?;
    let first_hit = snapshot::opt_u64_from_string("first_hit", fields.get("first_hit")?)?;
    let sim = restore(fields.get("sim")?, sim_part)?;
    let last_ckpt_work = sim.work();
    Ok(JobState {
        sim,
        samples,
        next_sample: fields.parse_num("next_sample")?,
        crashed_applied: fields.parse_num::<u8>("crashed_applied")? != 0,
        first_hit,
        last_ckpt_work,
        sheet: None,
        session_start_work: last_ckpt_work,
    })
}

/// Picks the crash victims: `⌊n · percent / 100⌋` *distinct* ids (percent
/// clamped to 100) out of the simulator's **actual** particle count `n` —
/// which for shapes like [`crate::grid::Shape::Annulus`] differs from
/// `spec.n` — drawn from an RNG derived from the job seed (independent of
/// the simulation stream, so the victim set is a pure function of the
/// spec).
fn crash_ids(n: usize, seed: u64, percent: usize) -> Vec<usize> {
    let count = n * percent.min(100) / 100;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc4a5);
    let mut chosen = vec![false; n];
    let mut ids = Vec::with_capacity(count);
    while ids.len() < count {
        let id = rng.gen_range(0..n);
        if !chosen[id] {
            chosen[id] = true;
            ids.push(id);
        }
    }
    ids
}

fn apply_crashes(state: &mut JobState, spec: &JobSpec) {
    if state.crashed_applied {
        return;
    }
    if let Some(crash) = spec.crash {
        for id in crash_ids(state.sim.len(), spec.seed, crash.percent) {
            state.sim.crash(id);
        }
    }
    state.crashed_applied = true;
}

/// Writes a checkpoint when due (or `force`d), counts it, and trips the
/// engine-wide stop flag once `stop_after` checkpoints have been written.
fn maybe_checkpoint(
    state: &mut JobState,
    spec: &JobSpec,
    ctx: &JobContext<'_>,
    force: bool,
) -> io::Result<()> {
    let Some(store) = ctx.store else {
        return Ok(());
    };
    let work = state.sim.work();
    if work == state.last_ckpt_work || (!force && work < state.last_ckpt_work + ctx.every) {
        return Ok(());
    }
    let t0 = state.sheet.as_ref().map(|_| Instant::now());
    store.write_ckpt(spec.id, &ckpt_text(state, spec))?;
    if let (Some(t0), Some(sheet)) = (t0, state.sheet.as_mut()) {
        sheet.add("phase.checkpoint_write_ns", elapsed_ns(t0));
        sheet.add("phase.checkpoint_write_calls", 1);
    }
    state.last_ckpt_work = work;
    ctx.sink.emit(&format!(
        "\"event\":\"checkpoint\",\"job\":{},\"work\":{work}",
        spec.id
    ));
    let written = ctx.checkpoints.fetch_add(1, Ordering::SeqCst) + 1;
    if ctx.stop_after.is_some_and(|limit| written >= limit) {
        ctx.stop.store(true, Ordering::SeqCst);
    }
    Ok(())
}

/// Advances to `target` work units, checkpointing along the way. Returns
/// `true` when the engine-wide stop flag fired (state is checkpointed).
fn advance_checkpointed(
    state: &mut JobState,
    spec: &JobSpec,
    ctx: &JobContext<'_>,
    target: u64,
) -> io::Result<bool> {
    while state.sim.work() < target {
        // One fault check per stepping chunk: the chunk schedule is a pure
        // function of the spec and `every`, so an injected `job.step`
        // failure lands at the same point of a job's timeline at any
        // thread count.
        fault::check(ctx.faults, "job.step", Some(spec.id))?;
        let mut next = state.last_ckpt_work.saturating_add(ctx.every).min(target);
        if next <= state.sim.work() {
            next = target;
        }
        let before = state.sim.work();
        let t0 = state.sheet.as_ref().map(|_| Instant::now());
        state.sim.advance(next - before, ctx.shards);
        if let (Some(t0), Some(sheet)) = (t0, state.sheet.as_mut()) {
            sheet.add(
                &format!("time.step.{}_ns", state.sim.kind()),
                elapsed_ns(t0),
            );
        }
        if let Some(reg) = ctx.registry {
            Live::add(&reg.live.work_done, state.sim.work() - before);
        }
        if state.sim.work() == before {
            break; // the simulator can make no further progress
        }
        maybe_checkpoint(state, spec, ctx, false)?;
        if ctx.stop.load(Ordering::SeqCst) {
            maybe_checkpoint(state, spec, ctx, true)?;
            return Ok(true);
        }
    }
    Ok(false)
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Folds the session's telemetry — phase timers, per-family work counters,
/// and the simulator probes — into the sweep registry. Called exactly once
/// per job session: on completion and on every interrupted return.
fn drain_telemetry(state: &mut JobState, ctx: &JobContext<'_>, completed: bool) {
    let Some(reg) = ctx.registry else { return };
    let Some(mut sheet) = state.sheet.take() else {
        return;
    };
    let kind = state.sim.kind();
    sheet.add(
        &format!("{kind}.work"),
        state.sim.work() - state.session_start_work,
    );
    if completed {
        sheet.add(&format!("{kind}.jobs"), 1);
        Live::add(&reg.live.jobs_done, 1);
    }
    state.sim.drain_probes(&mut sheet, completed);
    reg.fold(&sheet);
}

/// Runs one job to completion or interruption.
pub(crate) fn run_job(spec: &JobSpec, ctx: &JobContext<'_>) -> io::Result<JobOutcome> {
    let session_started = Instant::now();
    let ckpt = match ctx.store {
        Some(store) => store.load_ckpt(spec.id)?,
        None => CkptLoad::None,
    };
    // A corrupt checkpoint — checksum failure (caught in the store) or a
    // record that verifies but no longer parses — demotes this one job to
    // recompute-from-scratch: warn, discard, start fresh. Determinism makes
    // the demotion safe: the fresh run replays the exact same trajectory.
    let loaded = match ckpt {
        CkptLoad::Snapshot(text) => match parse_ckpt(spec, &text) {
            Ok(state) => Some(state),
            Err(e) => {
                if let Some(store) = ctx.store {
                    store.discard_ckpt(spec.id)?;
                }
                ctx.sink.emit(&format!(
                    "\"event\":\"ckpt_corrupt\",\"job\":{},\"kind\":\"ckpt\",\"reason\":{}",
                    spec.id,
                    quote(&e.to_string())
                ));
                None
            }
        },
        CkptLoad::Corrupt(reason) => {
            ctx.sink.emit(&format!(
                "\"event\":\"ckpt_corrupt\",\"job\":{},\"kind\":\"ckpt\",\"reason\":{}",
                spec.id,
                quote(&reason)
            ));
            None
        }
        CkptLoad::None => None,
    };
    let resumed = loaded.is_some();
    let mut state = match loaded {
        Some(state) => {
            ctx.sink.emit(&format!(
                "\"event\":\"job_resumed\",\"job\":{},\"work\":{}",
                spec.id,
                state.sim.work()
            ));
            state
        }
        None => {
            ctx.sink.emit(&format!(
                "\"event\":\"job_start\",\"job\":{},\"algorithm\":{},\"shape\":{},\
                 \"n\":{},\"lambda\":{},\"seed\":{}",
                spec.id,
                quote(&spec.algorithm.to_string()),
                quote(&spec.shape.to_string()),
                spec.n,
                spec.lambda,
                spec.seed
            ));
            JobState {
                sim: fresh(spec)?,
                samples: Vec::new(),
                next_sample: 1,
                crashed_applied: false,
                first_hit: None,
                last_ckpt_work: 0,
                sheet: None,
                session_start_work: 0,
            }
        }
    };
    if let Some(reg) = ctx.registry {
        let mut sheet = Sheet::new();
        let phase = if resumed {
            "phase.resume"
        } else {
            "phase.setup"
        };
        sheet.add(&format!("{phase}_ns"), elapsed_ns(session_started));
        sheet.add(&format!("{phase}_calls"), 1);
        state.sheet = Some(sheet);
        // Credit a resumed checkpoint's prior work to the live counters:
        // the sweep's work_total includes it, the stepping below won't.
        Live::add(&reg.live.work_done, state.session_start_work);
    }

    // Phase 1: at-start crashes (adversarial scenario).
    if spec.crash.is_some_and(|c| !c.after_burnin) {
        apply_crashes(&mut state, spec);
    }
    // Phase 2: burn-in.
    if advance_checkpointed(&mut state, spec, ctx, spec.burnin)? {
        drain_telemetry(&mut state, ctx, false);
        return Ok(JobOutcome::Interrupted);
    }
    // Phase 3: mid-run crashes (the paper's Section 3.3 scenario).
    apply_crashes(&mut state, spec);

    // Phase 4: measurement.
    let total = spec.total_work();
    let first_hit_mode = spec.until_alpha.is_some() && spec.algorithm.is_chain_sampler();
    if first_hit_mode {
        let n = state.sim.len();
        let target_p = spec.until_alpha.expect("first-hit mode") * metrics::pmin(n) as f64;
        let chunk = (n as u64).max(1);
        // Probe the perimeter only at the canonical grid points
        // burnin + k·chunk (matching `run_until_compressed`): a resume may
        // land between grid points (checkpoints align to `every`, not
        // `chunk`), and probing off-grid could record an earlier first hit
        // than the uninterrupted run would.
        loop {
            let work = state.sim.work();
            let on_grid = (work - spec.burnin) % chunk == 0;
            if on_grid {
                if state.sim.perimeter() as f64 <= target_p {
                    state.first_hit = Some(work);
                    break;
                }
                if work >= total {
                    break;
                }
            }
            let next = spec.burnin + ((work - spec.burnin) / chunk + 1) * chunk;
            if advance_checkpointed(&mut state, spec, ctx, next)? {
                drain_telemetry(&mut state, ctx, false);
                return Ok(JobOutcome::Interrupted);
            }
            if state.sim.work() == work {
                break; // no progress possible
            }
        }
    } else {
        while state.next_sample <= spec.samples {
            let i = state.next_sample;
            let offset =
                (u128::from(spec.steps) * u128::from(i) / u128::from(spec.samples.max(1))) as u64;
            if advance_checkpointed(&mut state, spec, ctx, spec.burnin + offset)? {
                drain_telemetry(&mut state, ctx, false);
                return Ok(JobOutcome::Interrupted);
            }
            let perimeter = state.sim.perimeter();
            state.samples.push(perimeter as f64);
            state.next_sample = i + 1;
            ctx.sink.emit(&format!(
                "\"event\":\"sample\",\"job\":{},\"work\":{},\"perimeter\":{perimeter}",
                spec.id,
                state.sim.work()
            ));
        }
        if spec.samples == 0 && advance_checkpointed(&mut state, spec, ctx, total)? {
            drain_telemetry(&mut state, ctx, false);
            return Ok(JobOutcome::Interrupted);
        }
    }

    let (final_perimeter, final_edges, final_connected) = state.sim.final_state();
    drain_telemetry(&mut state, ctx, true);
    let result = JobResult {
        job: spec.id,
        particles: state.sim.len(),
        samples: state.samples,
        work_done: state.sim.work(),
        final_perimeter,
        final_edges,
        final_connected,
        final_aligned: state.sim.aligned(),
        first_hit: state.first_hit,
        violations: state.sim.violations(),
        counts: state.sim.step_record(),
    };
    if let Some(store) = ctx.store {
        store.write_done(&result)?;
    }
    // Acceptance diagnostics ride along on the completion event for the
    // simulators that track them (fields are simply absent otherwise).
    let mut extra = String::new();
    if let (Some(accepted), Some(rate)) =
        (result.counts.accepted(), result.counts.acceptance_rate())
    {
        extra.push_str(&format!(",\"accepted\":{accepted},\"accept_rate\":{rate}"));
    }
    if let Some(max_jump) = result.counts.max_jump() {
        extra.push_str(&format!(",\"max_jump\":{max_jump}"));
    }
    if let Some(aligned) = result.final_aligned {
        extra.push_str(&format!(",\"aligned\":{aligned}"));
    }
    ctx.sink.emit(&format!(
        "\"event\":\"job_done\",\"job\":{},\"work\":{},\"final_perimeter\":{final_perimeter}{extra}",
        spec.id, result.work_done
    ));
    Ok(JobOutcome::Completed(result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ablation::Guards;
    use crate::grid::Shape;

    #[test]
    fn every_simulator_kind_restores_through_the_table() {
        let align = HamiltonianSpec::Alignment { q: 3 };
        let algorithms = [
            Algorithm::CHAIN,
            Algorithm::Chain(align),
            Algorithm::CHAIN_KMC,
            Algorithm::ChainKmc(align),
            Algorithm::Local,
            Algorithm::LocalSharded,
            Algorithm::Ablation(Guards::full()),
        ];
        let mut kinds = Vec::new();
        for algorithm in algorithms {
            let mut spec = JobSpec::new(algorithm, Shape::Line, 12, 4.0, 0);
            spec.seed = 7;
            let mut sim = fresh(&spec).unwrap();
            sim.advance(5, 1);
            let (kind, text) = (sim.kind(), sim.snapshot());
            let back = restore(kind, &text).unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert_eq!(back.kind(), kind);
            assert_eq!(back.snapshot(), text, "{kind} snapshot bytes changed");
            kinds.push(kind);
        }
        let table: Vec<&str> = KINDS.iter().map(|(kind, _)| *kind).collect();
        assert_eq!(kinds, table, "every kind has exactly one restore row");
        assert!(matches!(
            restore("chain-exotic", ""),
            Err(SnapshotError::Invalid(_))
        ));
    }
}
