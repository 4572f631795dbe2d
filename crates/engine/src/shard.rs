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
//! Who runs the tasks: the engine's crew ([`crate::pool`]), that is the
//! calling thread and `workers − 1` helper threads that live as long as
//! the executor. The helpers start on the first step with at least two
//! tasks (a step with fewer, and every step at one worker, runs inline) and
//! keep their thread-local halo grids warm across steps. The engine builds
//! one executor per `advance` call, so in a job the helpers live for one
//! `run_rounds_with` call. A task's panic follows the crew's policy: the
//! step's other tasks still run, and the first panic in task order is
//! resumed on the caller.

use std::cell::OnceCell;
use std::fmt;

use sops::core::sharded::{SerialExecutor, ShardStepOut, ShardTask, StepExecutor};

use crate::pool::Crew;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::tests::within_a_minute;
    use sops::core::sharded::ShardedLocalRunner;
    use sops::lattice::TriPoint;
    use sops::system::{shapes, ParticleSystem};
    use std::cell::RefCell;

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
        within_a_minute(serve_many_calls_and_runners);
    }

    /// Runs two runners through one executor at 2 and 4 workers, call after
    /// call, and checks them against [`SerialExecutor`]'s.
    fn serve_many_calls_and_runners() {
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
