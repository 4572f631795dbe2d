//! Intra-run sharding: the engine-side executor for the checkerboard
//! local algorithm (`sops_core::sharded`).
//!
//! The core crate defines *what* a color step computes — a vector of
//! [`ShardTask`]s, each self-contained (cell + frozen halo + seed stream) —
//! and pins the executor contract: outputs in input order, every task run
//! exactly once. This module supplies the parallel implementation. Because
//! the schedule and seed streams are fixed by the core, the worker count is
//! an *execution* detail: results are byte-identical at any
//! [`PoolExecutor::workers`], same as sweeps already guarantee per job.
//!
//! Who runs the tasks: the calling thread, as the last worker, and
//! `workers − 1` helper threads that live as long as the executor. The
//! helpers start on the first step with at least two tasks (a step with
//! fewer, and every step at one worker, runs inline), wait between steps,
//! and are joined when the executor drops. Each step's tasks wait in one
//! shared queue, in region order. The caller claims tasks from its front
//! and the helpers from its back, so a thread tends to run the same
//! regions step after step and finds their cells in its own cache; outputs
//! are put back in task order. A step therefore costs a wake-up, not a
//! thread spawn, and each helper keeps its thread-local halo grid warm
//! across steps. The engine builds one executor per `advance` call, so in
//! a job the helpers live for one `run_rounds_with` call.
//!
//! A task that panics is caught on whichever thread ran it. The other
//! tasks of the step still run, the step finishes, and the first panic in
//! task order is resumed on the caller, with its message. A helper never
//! unwinds out of its loop, and the caller claims tasks too, so a step
//! finishes even when a helper could not be started.

use std::cell::OnceCell;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};

use sops::core::sharded::{SerialExecutor, ShardStepOut, ShardTask, StepExecutor};

/// Runs each color step's tasks on the calling thread and `workers − 1`
/// helper threads that live as long as the executor (see the module docs).
///
/// A panic inside one shard propagates out of [`StepExecutor::run_step`]
/// (after all tasks have finished) and unwinds through the owning job,
/// where the engine's per-job isolation quarantines it — one poisoned
/// shard fails its job, never the sweep.
pub struct PoolExecutor {
    workers: usize,
    /// The helpers, started by the first step with at least two tasks.
    /// Not `Sync`, so no two steps ever share the queue.
    crew: OnceCell<Crew<ShardTask, ShardStepOut>>,
}

impl PoolExecutor {
    /// An executor with the given worker count (0 is clamped to 1; 1 runs
    /// inline on the calling thread).
    #[must_use]
    pub fn new(workers: usize) -> PoolExecutor {
        PoolExecutor {
            workers: workers.max(1),
            crew: OnceCell::new(),
        }
    }

    /// The configured worker count.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }
}

impl fmt::Debug for PoolExecutor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PoolExecutor")
            .field("workers", &self.workers)
            .field("started", &self.crew.get().is_some())
            .finish()
    }
}

impl StepExecutor for PoolExecutor {
    fn run_step(&self, tasks: Vec<ShardTask>) -> Vec<ShardStepOut> {
        if self.workers == 1 || tasks.len() < 2 {
            return SerialExecutor.run_step(tasks);
        }
        self.crew
            .get_or_init(|| Crew::start(self.workers - 1, ShardTask::run))
            .run(tasks)
    }
}

/// Helper threads that live as long as the crew and, together with the
/// calling thread, run one step's items at a time.
struct Crew<T, R> {
    shared: Arc<Shared<T, R>>,
    helpers: Vec<JoinHandle<()>>,
}

/// What the caller and the helpers share: the current step, and the
/// function every item runs through.
struct Shared<T, R> {
    step: Mutex<Step<T, R>>,
    /// Signalled when a step's items are queued, and at shutdown.
    queued: Condvar,
    /// Signalled when the last running item of a step finishes.
    finished: Condvar,
    run: fn(T) -> R,
}

/// One step's items: the unclaimed ones, with their indices, and the
/// outputs of the finished ones.
struct Step<T, R> {
    queue: VecDeque<(usize, T)>,
    outs: Vec<Option<thread::Result<R>>>,
    /// Items claimed and not finished yet.
    running: usize,
    /// Set when the crew drops: helpers leave once the queue is empty.
    closed: bool,
}

impl<T: Send + 'static, R: Send + 'static> Crew<T, R> {
    /// Starts `helpers` threads running items through `run`. A thread that
    /// cannot be started leaves its share to the others: the caller alone
    /// can finish any step.
    fn start(helpers: usize, run: fn(T) -> R) -> Crew<T, R> {
        let shared = Arc::new(Shared {
            step: Mutex::new(Step {
                queue: VecDeque::new(),
                outs: Vec::new(),
                running: 0,
                closed: false,
            }),
            queued: Condvar::new(),
            finished: Condvar::new(),
            run,
        });
        let helpers = (0..helpers)
            .filter_map(|_| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name("shard-helper".into())
                    .spawn(move || shared.serve())
                    .ok()
            })
            .collect();
        Crew { shared, helpers }
    }

    /// Runs every item, on this thread and the helpers, and returns the
    /// outputs in item order; resumes the first panic in item order once
    /// every item has run.
    fn run(&self, items: Vec<T>) -> Vec<R> {
        let shared = &*self.shared;
        let mut step = shared.lock();
        step.outs.resize_with(items.len(), || None);
        step.queue.extend(items.into_iter().enumerate());
        shared.queued.notify_all();
        while let Some((index, item)) = step.queue.pop_front() {
            step = shared.run_one(step, index, item);
        }
        while step.running > 0 {
            step = shared
                .finished
                .wait(step)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let outs = std::mem::take(&mut step.outs);
        drop(step);
        outs.into_iter()
            .map(|out| match out.expect("every queued item ran") {
                Ok(out) => out,
                Err(panic) => resume_unwind(panic),
            })
            .collect()
    }
}

impl<T, R> Shared<T, R> {
    /// Locks the step, shrugging off poison: items run outside the lock
    /// and their panics are caught, so the step is never left half-written.
    fn lock(&self) -> MutexGuard<'_, Step<T, R>> {
        self.step.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs the claimed item `index` with the lock released, and records
    /// its output (or its panic) under the lock again.
    fn run_one<'s>(
        &'s self,
        mut step: MutexGuard<'s, Step<T, R>>,
        index: usize,
        item: T,
    ) -> MutexGuard<'s, Step<T, R>> {
        step.running += 1;
        drop(step);
        let out = catch_unwind(AssertUnwindSafe(|| (self.run)(item)));
        let mut step = self.lock();
        step.outs[index] = Some(out);
        step.running -= 1;
        step
    }

    /// A helper's loop: claim items from the back of the queue (the caller
    /// takes the front) and run them until the crew closes.
    fn serve(&self) {
        let mut step = self.lock();
        loop {
            if let Some((index, item)) = step.queue.pop_back() {
                step = self.run_one(step, index, item);
                if step.running == 0 && step.queue.is_empty() {
                    self.finished.notify_one();
                }
            } else if step.closed {
                return;
            } else {
                step = self
                    .queued
                    .wait(step)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }
}

impl<T, R> Drop for Crew<T, R> {
    fn drop(&mut self) {
        self.shared.lock().closed = true;
        self.shared.queued.notify_all();
        for helper in self.helpers.drain(..) {
            // Helpers catch every item's panic, so they return normally.
            let _ = helper.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::panic_message;
    use sops::core::sharded::ShardedLocalRunner;
    use sops::lattice::TriPoint;
    use sops::system::{shapes, ParticleSystem};
    use std::cell::RefCell;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn pool_executor_matches_serial_at_any_width() {
        let start = ParticleSystem::connected(shapes::line(20)).unwrap();
        let mut reference = ShardedLocalRunner::from_seed(&start, 4.0, 5).unwrap();
        reference.run_rounds_with(80, &SerialExecutor);
        let golden = reference.snapshot();
        for workers in [1, 2, 4, 8] {
            let mut runner = ShardedLocalRunner::from_seed(&start, 4.0, 5).unwrap();
            runner.run_rounds_with(80, &PoolExecutor::new(workers));
            assert_eq!(runner.snapshot(), golden, "workers = {workers}");
        }
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        assert_eq!(PoolExecutor::new(0).workers(), 1);
    }

    /// Raised once by the first helper that runs a flagged item.
    #[derive(Default)]
    struct Latch {
        raised: Mutex<bool>,
        changed: Condvar,
    }

    /// An item of the panic test: its index, and — for items that must
    /// panic on a helper — the latch a helper raises before it panics.
    type Item = (usize, Option<Arc<Latch>>);

    /// Doubles the index. A flagged item panics when a helper runs it; on
    /// the caller it first waits (10 s at most) for a helper to raise the
    /// latch, so a step of two or more flagged items always has a helper
    /// claim one.
    fn double_or_panic_on_a_helper((index, latch): Item) -> usize {
        if let Some(latch) = latch {
            if thread::current().name() == Some("shard-helper") {
                *latch.raised.lock().unwrap() = true;
                latch.changed.notify_all();
                panic!("item {index} panicked on a helper");
            }
            let raised = latch.raised.lock().unwrap();
            let _ = latch
                .changed
                .wait_timeout_while(raised, Duration::from_secs(10), |raised| !*raised)
                .unwrap();
        }
        index * 2
    }

    /// Runs `f` on its own thread and fails the test if it has not
    /// finished within a minute, so a deadlock fails instead of hanging.
    fn within_a_minute(f: impl FnOnce() + Send + 'static) {
        let (done, finished) = mpsc::channel();
        let test = thread::spawn(move || {
            f();
            let _ = done.send(());
        });
        if let Err(mpsc::RecvTimeoutError::Timeout) = finished.recv_timeout(Duration::from_secs(60))
        {
            panic!("the crew deadlocked");
        }
        if let Err(panic) = test.join() {
            resume_unwind(panic);
        }
    }

    #[test]
    fn a_panic_on_a_helper_reaches_the_caller_and_the_crew_lives_on() {
        for workers in [2, 4] {
            within_a_minute(move || {
                let crew = Crew::start(workers - 1, double_or_panic_on_a_helper);
                let latch = Arc::new(Latch::default());
                let items: Vec<Item> = (0..8).map(|i| (i, Some(Arc::clone(&latch)))).collect();
                let panic = catch_unwind(AssertUnwindSafe(|| crew.run(items)))
                    .expect_err("a helper's panic reaches the caller");
                let message = panic_message(panic);
                assert!(
                    message.ends_with("panicked on a helper"),
                    "workers = {workers}: {message}"
                );
                // The panic left nothing behind: the next steps run whole.
                for n in [0, 1, 2, 50] {
                    let items: Vec<Item> = (0..n).map(|i| (i, None)).collect();
                    let expected: Vec<usize> = (0..n).map(|i| i * 2).collect();
                    assert_eq!(crew.run(items), expected, "workers = {workers}");
                }
            });
        }
    }

    /// Delegates to a [`PoolExecutor`] and records each step's task count.
    struct Counting<'a> {
        pool: &'a PoolExecutor,
        sizes: RefCell<Vec<usize>>,
    }

    impl StepExecutor for Counting<'_> {
        fn run_step(&self, tasks: Vec<ShardTask>) -> Vec<ShardStepOut> {
            self.sizes.borrow_mut().push(tasks.len());
            self.pool.run_step(tasks)
        }
    }

    #[test]
    fn one_executor_serves_many_calls_and_runners_byte_for_byte() {
        // A 7-particle blob inside one 32×32-site region (steps of 0 and 1
        // task), and a line over many 8×8-site regions (many tasks).
        let centred = shapes::spiral(7).into_iter().map(|p| TriPoint {
            x: p.x + 16,
            y: p.y + 16,
        });
        let blob = ParticleSystem::connected(centred).unwrap();
        let line = ParticleSystem::connected(shapes::line(60)).unwrap();
        let runners = || {
            (
                ShardedLocalRunner::with_region_tiles(&blob, 4.0, 11, 4).unwrap(),
                ShardedLocalRunner::with_region_tiles(&line, 4.0, 12, 1).unwrap(),
            )
        };
        let calls = [(0, 10), (1, 10), (0, 0), (1, 25), (0, 15), (1, 1)];
        let (mut blob_ref, mut line_ref) = runners();
        for (which, rounds) in calls {
            let runner = if which == 0 {
                &mut blob_ref
            } else {
                &mut line_ref
            };
            runner.run_rounds_with(rounds, &SerialExecutor);
        }
        for workers in [2, 4] {
            let pool = PoolExecutor::new(workers);
            let counting = Counting {
                pool: &pool,
                sizes: RefCell::default(),
            };
            let (mut blob_run, mut line_run) = runners();
            for (which, rounds) in calls {
                let runner = if which == 0 {
                    &mut blob_run
                } else {
                    &mut line_run
                };
                runner.run_rounds_with(rounds, &counting);
                if which == 0 && line_run.rounds() == 0 {
                    assert!(pool.crew.get().is_none(), "helpers start lazily");
                }
            }
            assert!(pool.crew.get().is_some(), "workers = {workers}");
            let sizes = counting.sizes.into_inner();
            for size in [0, 1] {
                assert!(
                    sizes.contains(&size),
                    "no step of {size} task(s): {sizes:?}"
                );
            }
            assert!(sizes.iter().any(|&size| size >= 2), "{sizes:?}");
            assert_eq!(
                blob_run.snapshot(),
                blob_ref.snapshot(),
                "workers = {workers}"
            );
            assert_eq!(
                line_run.snapshot(),
                line_ref.snapshot(),
                "workers = {workers}"
            );
            assert_eq!(blob_run.probes(), blob_ref.probes(), "workers = {workers}");
            assert_eq!(line_run.probes(), line_ref.probes(), "workers = {workers}");
        }
    }
}
