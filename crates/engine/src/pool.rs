//! The engine's one thread pool (`std::thread` only).
//!
//! A crew is `helpers` threads that, with the calling thread as the last
//! worker, run a list of items through one `fn(T) -> R` and return the
//! outputs **in input order**. [`crate::run_sweep`] runs a sweep's pending
//! jobs on one crew for the whole call; [`crate::shard::PoolExecutor`] runs
//! the color steps of a `local-sharded` job on a crew that lives as long as
//! the executor, so a step costs a wake-up, not a thread spawn. Because
//! every item's output depends only on the item (jobs and shard tasks carry
//! their own seed streams, see [`crate::seed`]), the outputs are identical
//! at any worker count; only wall-clock time changes.
//!
//! The items of one call wait in a shared queue in input order. The caller
//! claims from its front and the helpers from its back, so in a run of
//! color steps a thread tends to keep the same regions, and finds their
//! cells in its own cache. Helpers wait between calls and are joined when
//! the crew drops. A helper that cannot be started leaves its share to the
//! others: the caller alone can finish any call.
//!
//! Panic policy: an item runs under `catch_unwind` on whichever thread
//! claimed it, so its panic neither kills that thread nor stops the other
//! items, and no lock is left poisoned. Once every item has run, the first
//! panic in input order is resumed on the caller with its original payload.
//! A sweep's items never panic: [`crate::SweepSession::run_pending`]
//! catches a job's panic and quarantines that job alone.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};

/// Default worker count: the machine's available parallelism (1 if unknown).
#[must_use]
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Locks `m`, shrugging off poison. Every engine lock guards state that
/// is whole between statements — items run outside the crew's lock and
/// their panics are caught — so a panic elsewhere never leaves it
/// half-written.
pub(crate) fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Renders a `catch_unwind` payload as the panic message.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "non-string panic payload".to_string(),
        },
    }
}

/// Helper threads that live as long as the crew and, together with the
/// calling thread, run one call's items at a time (see the module docs).
pub(crate) struct Crew<T, R> {
    shared: Arc<Shared<T, R>>,
    helpers: Vec<JoinHandle<()>>,
}

/// What the caller and the helpers share: the current call, and the
/// function every item runs through.
struct Shared<T, R> {
    batch: Mutex<Batch<T, R>>,
    /// Signalled when a call's items are queued, and at shutdown.
    queued: Condvar,
    /// Signalled when the last running item of a call finishes.
    finished: Condvar,
    run: fn(T) -> R,
}

/// One call's items: the unclaimed ones, with their indices, and the
/// outputs of the finished ones.
struct Batch<T, R> {
    queue: VecDeque<(usize, T)>,
    outs: Vec<Option<thread::Result<R>>>,
    /// Items claimed and not finished yet.
    running: usize,
    /// Set when the crew drops: helpers leave once the queue is empty.
    closed: bool,
}

impl<T: Send + 'static, R: Send + 'static> Crew<T, R> {
    /// Starts `helpers` threads running items through `run`. With none,
    /// the caller runs every item inline, in input order.
    pub(crate) fn start(helpers: usize, run: fn(T) -> R) -> Crew<T, R> {
        let shared = Arc::new(Shared {
            batch: Mutex::new(Batch {
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
                    .name("pool-helper".into())
                    .spawn(move || shared.serve())
                    .ok()
            })
            .collect();
        Crew { shared, helpers }
    }

    /// Runs every item, on this thread and the helpers, and returns the
    /// outputs in item order; resumes the first panic in item order once
    /// every item has run.
    pub(crate) fn run(&self, items: Vec<T>) -> Vec<R> {
        let shared = &*self.shared;
        let mut batch = relock(&shared.batch);
        batch.outs.resize_with(items.len(), || None);
        batch.queue.extend(items.into_iter().enumerate());
        shared.queued.notify_all();
        while let Some((index, item)) = batch.queue.pop_front() {
            batch = shared.run_one(batch, index, item);
        }
        while batch.running > 0 {
            batch = shared
                .finished
                .wait(batch)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let outs = std::mem::take(&mut batch.outs);
        drop(batch);
        outs.into_iter()
            .map(|out| match out.expect("every queued item ran") {
                Ok(out) => out,
                Err(panic) => resume_unwind(panic),
            })
            .collect()
    }
}

impl<T, R> Shared<T, R> {
    /// Runs the claimed item `index` with the lock released, and records
    /// its output (or its panic) under the lock again.
    fn run_one<'s>(
        &'s self,
        mut batch: MutexGuard<'s, Batch<T, R>>,
        index: usize,
        item: T,
    ) -> MutexGuard<'s, Batch<T, R>> {
        batch.running += 1;
        drop(batch);
        let out = catch_unwind(AssertUnwindSafe(|| (self.run)(item)));
        let mut batch = relock(&self.batch);
        batch.outs[index] = Some(out);
        batch.running -= 1;
        batch
    }

    /// A helper's loop: claim items from the back of the queue (the caller
    /// takes the front) and run them until the crew closes.
    fn serve(&self) {
        let mut batch = relock(&self.batch);
        loop {
            if let Some((index, item)) = batch.queue.pop_back() {
                batch = self.run_one(batch, index, item);
                if batch.running == 0 && batch.queue.is_empty() {
                    self.finished.notify_one();
                }
            } else if batch.closed {
                return;
            } else {
                batch = self
                    .queued
                    .wait(batch)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }
}

impl<T, R> Drop for Crew<T, R> {
    fn drop(&mut self) {
        relock(&self.shared.batch).closed = true;
        self.shared.queued.notify_all();
        for helper in self.helpers.drain(..) {
            // Helpers catch every item's panic, so they return normally.
            let _ = helper.join();
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    /// Runs `f` on its own thread and fails the test if it has not
    /// finished within a minute, so a deadlock fails instead of hanging.
    pub(crate) fn within_a_minute(f: impl FnOnce() + Send + 'static) {
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

    /// A crew of `workers` threads in all: the caller and `workers − 1`
    /// helpers.
    fn crew<T: Send + 'static, R: Send + 'static>(workers: usize, run: fn(T) -> R) -> Crew<T, R> {
        Crew::start(workers - 1, run)
    }

    fn square(x: usize) -> usize {
        x * x
    }

    #[test]
    fn results_come_back_in_input_order() {
        for workers in [1, 2, 4, 9] {
            within_a_minute(move || {
                let items: Vec<usize> = (0..100).collect();
                let expected: Vec<usize> = (0..100).map(|x| x * x).collect();
                assert_eq!(
                    crew(workers, square).run(items),
                    expected,
                    "workers = {workers}"
                );
            });
        }
    }

    fn count(counter: Arc<AtomicUsize>) -> usize {
        counter.fetch_add(1, Ordering::SeqCst)
    }

    #[test]
    fn every_item_runs_exactly_once() {
        within_a_minute(|| {
            let counter = Arc::new(AtomicUsize::new(0));
            let items = vec![Arc::clone(&counter); 250];
            let mut out = crew(4, count).run(items);
            assert_eq!(counter.load(Ordering::SeqCst), 250);
            // Each item saw a distinct count: no item ran twice.
            out.sort_unstable();
            assert_eq!(out, (0..250).collect::<Vec<_>>());
        });
    }

    #[test]
    fn empty_input_is_fine() {
        for workers in [1, 8] {
            let out: Vec<u32> = crew(workers, |x: u32| x).run(Vec::new());
            assert!(out.is_empty());
        }
    }

    /// An item of the panic tests: a shared run counter and a number.
    type Counted = (Arc<AtomicUsize>, usize);

    /// Runs `items` numbered `0..n` on `workers`, through `run`, and
    /// returns how many ran and the message of the panic that reached the
    /// caller.
    fn run_counted(workers: usize, n: usize, run: fn(Counted) -> usize) -> (usize, String) {
        let counter = Arc::new(AtomicUsize::new(0));
        let items = (0..n).map(|x| (Arc::clone(&counter), x)).collect();
        let panic = catch_unwind(AssertUnwindSafe(|| crew(workers, run).run(items)))
            .expect_err("a panicking item reaches the caller");
        (counter.load(Ordering::SeqCst), panic_message(panic))
    }

    fn boom_every_fifth((counter, x): Counted) -> usize {
        counter.fetch_add(1, Ordering::SeqCst);
        assert!(x % 5 != 3, "boom on {x}");
        x * 2
    }

    #[test]
    fn panics_are_isolated_per_item_at_any_thread_count() {
        for workers in [1, 2, 4] {
            within_a_minute(move || {
                let (ran, message) = run_counted(workers, 20, boom_every_fifth);
                assert_eq!(ran, 20, "workers = {workers}");
                // The first panic in input order, with its own message.
                assert_eq!(message, "boom on 3", "workers = {workers}");
            });
        }
    }

    fn first_item_dies((counter, x): Counted) -> usize {
        counter.fetch_add(1, Ordering::SeqCst);
        assert!(x != 0, "first item dies");
        x
    }

    #[test]
    fn a_panicking_item_does_not_starve_the_queue() {
        // More items than workers, early panic: the other 49 still run.
        within_a_minute(|| {
            let (ran, message) = run_counted(2, 50, first_item_dies);
            assert_eq!(ran, 50);
            assert_eq!(message, "first item dies");
        });
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
    /// latch, so a call of two or more flagged items always has a helper
    /// claim one.
    fn double_or_panic_on_a_helper((index, latch): Item) -> usize {
        if let Some(latch) = latch {
            if thread::current().name() == Some("pool-helper") {
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

    #[test]
    fn a_panic_on_a_helper_reaches_the_caller_and_the_crew_lives_on() {
        for workers in [2, 4] {
            within_a_minute(move || {
                let crew = crew(workers, double_or_panic_on_a_helper);
                let latch = Arc::new(Latch::default());
                let items: Vec<Item> = (0..8).map(|i| (i, Some(Arc::clone(&latch)))).collect();
                let panic = catch_unwind(AssertUnwindSafe(|| crew.run(items)))
                    .expect_err("a helper's panic reaches the caller");
                let message = panic_message(panic);
                assert!(
                    message.ends_with("panicked on a helper"),
                    "workers = {workers}: {message}"
                );
                // The panic left nothing behind: the next calls run whole.
                for n in [0, 1, 2, 50] {
                    let items: Vec<Item> = (0..n).map(|i| (i, None)).collect();
                    let expected: Vec<usize> = (0..n).map(|i| i * 2).collect();
                    assert_eq!(crew.run(items), expected, "workers = {workers}");
                }
            });
        }
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
