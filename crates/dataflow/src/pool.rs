//! The process-wide worker pool every dataflow stage runs on.
//!
//! Each simulated worker owns one logical partition, and a stage processes
//! all partitions concurrently, mirroring Flink's task slots. Like Flink's
//! long-lived TaskManager slots, the threads that do the work outlive the
//! stage: the first stage of the process starts one pool of
//! `std::thread::available_parallelism()` threads, and every stage of every
//! environment and every server session hands its tasks to that pool. The
//! logical worker count (the partition count, which the simulated clock
//! charges) is independent of the thread count: four logical workers simply
//! share however many cores the host has.
//!
//! All entry points reduce to one primitive, `run_tasks`: run tasks `0..n`
//! and return once every one of them has finished. Its rules:
//!
//! - The calling thread blocks until the last task has finished; it does
//!   not run tasks itself.
//! - A call made from a pool thread (a task that starts a nested stage)
//!   runs its tasks inline on that thread, so a nested call never waits for
//!   pool threads that may all be busy waiting for it.
//! - Every task runs under `catch_unwind`, so a panicking operator closure
//!   never kills a pool thread. The stage fails as a whole with the
//!   lowest-indexed panic as its [`WorkerPanic`], whatever the thread
//!   timing; higher-indexed tasks not yet started by then are skipped.
//!
//! Stage closures borrow from the caller's stack, so handing them to
//! long-lived threads needs one lifetime erasure (the technique of rayon's
//! and crossbeam's scopes). It is the single `unsafe` block of this crate,
//! in `run_tasks`; its soundness rests on a drop guard that blocks until
//! every task has finished.
//!
//! [`try_map_partitions`] is the fault-aware entry point: a panicking
//! partition is reported as a [`WorkerPanic`] instead of tearing down the
//! driver, so environments with fault tolerance enabled can classify a
//! genuinely crashing operator closure as an execution failure rather than
//! aborting the process.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// A worker thread died mid-stage. Carries the worker index and the panic
/// payload's message, when it was a string.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerPanic {
    /// Index of the partition whose worker panicked.
    pub worker: usize,
    /// The panic message, or `"<non-string panic payload>"`.
    pub message: String,
}

fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

fn reraise(panic: WorkerPanic) -> ! {
    panic!(
        "partition worker {} panicked: {}",
        panic.worker, panic.message
    )
}

/// Locks `mutex`, recovering the guard if a panicking thread poisoned it.
/// No lock of the pool is held while a task runs, so the state behind a
/// poisoned lock is never half-updated.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

type Task<'a> = dyn Fn(usize) + Sync + 'a;

/// One call of `run_tasks`: `n` tasks that threads claim by index.
struct Job<'a> {
    task: &'a Task<'a>,
    n: usize,
    /// The next unclaimed task index; a claim at or past `n` finds nothing.
    next: AtomicUsize,
    /// Tasks not yet finished (or skipped). The job is done at zero.
    unfinished: AtomicUsize,
    /// Lowest index of a task that panicked (`usize::MAX` while none has).
    /// Higher tasks not yet started are skipped: the stage fails anyway.
    lowest_panic: AtomicUsize,
    /// The lowest-indexed panic so far, with its task index. Its mutex is
    /// also the one `done` waits with.
    panic: Mutex<Option<(usize, Box<dyn Any + Send>)>>,
    /// Signalled when `unfinished` hits zero.
    done: Condvar,
}

impl<'a> Job<'a> {
    fn new(n: usize, task: &'a Task<'a>) -> Self {
        Job {
            task,
            n,
            next: AtomicUsize::new(0),
            unfinished: AtomicUsize::new(n),
            lowest_panic: AtomicUsize::new(usize::MAX),
            panic: Mutex::new(None),
            done: Condvar::new(),
        }
    }

    fn unclaimed(&self) -> usize {
        self.n.saturating_sub(self.next.load(Ordering::Relaxed))
    }

    /// Claims and runs tasks until none is left to claim. `task` is only
    /// ever called for an index this thread claimed below `n`.
    ///
    /// `next` and `lowest_panic` publish no data, so they are `Relaxed`:
    /// the closure reaches a pool thread through the queue's mutex, and
    /// panic payloads travel through `panic`'s. Each task's effects are
    /// published by its `AcqRel` decrement of `unfinished`; the waiter's
    /// `Acquire` load that reads zero pairs with that chain of decrements.
    fn work(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                return;
            }
            if i < self.lowest_panic.load(Ordering::Relaxed) {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (self.task)(i))) {
                    self.lowest_panic.fetch_min(i, Ordering::Relaxed);
                    let mut first = lock(&self.panic);
                    if first.as_ref().is_none_or(|(j, _)| i < *j) {
                        *first = Some((i, payload));
                    }
                }
            }
            if self.unfinished.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Taking the lock orders this wake-up after a waiter's check
                // of `unfinished`; notifying once it is released spares the
                // waiter from waking into a held lock.
                drop(lock(&self.panic));
                self.done.notify_all();
            }
        }
    }

    /// Blocks until every task has finished or been skipped.
    fn wait(&self) {
        let mut guard = lock(&self.panic);
        while self.unfinished.load(Ordering::Acquire) != 0 {
            guard = self
                .done
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn result(&self) -> Result<(), (usize, Box<dyn Any + Send>)> {
        lock(&self.panic).take().map_or(Ok(()), Err)
    }
}

/// The process-wide pool: a FIFO of jobs served by long-lived threads.
struct Pool {
    jobs: Mutex<VecDeque<Arc<Job<'static>>>>,
    work_ready: Condvar,
}

thread_local! {
    static ON_POOL_THREAD: Cell<bool> = const { Cell::new(false) };
}

/// The pool, started on first use with one thread per available core. Its
/// threads live as long as the process and are never joined: a task's
/// panic is caught in `Job::work`, so no thread exits early.
fn pool() -> &'static Pool {
    static POOL: OnceLock<&'static Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let pool: &'static Pool = Box::leak(Box::new(Pool {
            jobs: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
        }));
        for i in 0..threads {
            std::thread::Builder::new()
                .name(format!("dataflow-pool-{i}"))
                .spawn(move || pool.serve())
                .expect("failed to start a dataflow pool thread");
        }
        pool
    })
}

impl Pool {
    fn submit(&self, job: Arc<Job<'static>>) {
        lock(&self.jobs).push_back(job);
        self.work_ready.notify_one();
    }

    /// A pool thread's life: help the oldest job with unclaimed tasks,
    /// retiring exhausted jobs from the front of the queue.
    ///
    /// A job wakes one thread, and each thread that joins a job wakes the
    /// next while tasks remain unclaimed. Waking them all from the
    /// submitting thread, which is still running, lets the kernel queue two
    /// of them on one core, where they share it until the load balancer
    /// moves one a scheduler tick later (measured: the second partition of
    /// a 2-worker join started 3–4 ms late on a 2-core host); a thread woken
    /// from a core that is already busy with a task lands on an idle one.
    fn serve(&self) {
        ON_POOL_THREAD.set(true);
        loop {
            let job = {
                let mut jobs = lock(&self.jobs);
                loop {
                    match jobs.front() {
                        Some(job) if job.unclaimed() == 0 => {
                            jobs.pop_front();
                        }
                        Some(job) => break Arc::clone(job),
                        None => {
                            jobs = self
                                .work_ready
                                .wait(jobs)
                                .unwrap_or_else(PoisonError::into_inner)
                        }
                    }
                }
            };
            if job.unclaimed() > 1 {
                self.work_ready.notify_one();
            }
            job.work();
        }
    }
}

/// A job handed to the pool whose tasks may still be running. Dropping it,
/// on the normal path or while unwinding, blocks until every task has
/// finished, which is what keeps the erased borrow in `run_tasks` sound.
struct Pending(Arc<Job<'static>>);

impl Pending {
    fn finish(self) -> Result<(), (usize, Box<dyn Any + Send>)> {
        self.0.wait();
        self.0.result()
    }
}

impl Drop for Pending {
    fn drop(&mut self) {
        self.0.wait();
    }
}

/// Runs `task(0)`, ..., `task(n - 1)` and returns once all have finished,
/// with the lowest-indexed panic, if any task panicked.
fn run_tasks(n: usize, task: &Task<'_>) -> Result<(), (usize, Box<dyn Any + Send>)> {
    if n <= 1 || ON_POOL_THREAD.get() {
        let job = Job::new(n, task);
        job.work();
        return job.result();
    }
    let pool = pool();
    // SAFETY: the pool threads see `task` as `'static`, but they call it
    // only for an index they claimed below `n` (`Job::work`). The guard
    // `pending` is local to this call and never leaked, and its `Drop`
    // blocks until all `n` tasks have finished (`Job::wait`), so this call
    // cannot return or unwind while a call of `task` is running or can
    // still start: every use of the borrow ends inside it. A pool thread
    // may hold the `Arc<Job>` a moment longer, but it finds no index left
    // to claim and never touches `task` again. Nothing between creating
    // the guard and queueing the job can unwind, so the wait cannot block
    // on a job the pool never received.
    let task = unsafe { std::mem::transmute::<&Task<'_>, &'static Task<'static>>(task) };
    let pending = Pending(Arc::new(Job::new(n, task)));
    pool.submit(Arc::clone(&pending.0));
    pending.finish()
}

/// Runs `f(0)`, ..., `f(n - 1)` on the pool and collects the results in
/// index order; a panic reports its task index as the worker.
fn try_map_indexed<O, F>(n: usize, f: F) -> Result<Vec<O>, WorkerPanic>
where
    O: Send,
    F: Fn(usize) -> O + Sync,
{
    let slots: Vec<Mutex<Option<O>>> = (0..n).map(|_| Mutex::new(None)).collect();
    run_tasks(n, &|i| {
        let out = f(i);
        *lock(&slots[i]) = Some(out);
    })
    .map_err(|(worker, payload)| WorkerPanic {
        worker,
        message: panic_message(payload),
    })?;
    Ok(slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every task ran")
        })
        .collect())
}

/// Applies `f` to every partition concurrently and collects the results in
/// partition order. `f` receives the partition index and the partition's
/// elements.
pub fn map_partitions<I, O, F>(partitions: &[Vec<I>], f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(usize, &[I]) -> O + Sync,
{
    try_map_partitions(partitions, f).unwrap_or_else(|p| reraise(p))
}

/// Like [`map_partitions`], but converts a panicking partition into an
/// `Err(WorkerPanic)` instead of propagating the panic. On error the
/// results of the surviving partitions are discarded — a stage either
/// completes on all partitions or not at all.
pub fn try_map_partitions<I, O, F>(partitions: &[Vec<I>], f: F) -> Result<Vec<O>, WorkerPanic>
where
    I: Sync,
    O: Send,
    F: Fn(usize, &[I]) -> O + Sync,
{
    try_map_indexed(partitions.len(), |i| f(i, &partitions[i]))
}

/// Executes morselized per-partition work on the pool.
///
/// `lengths[p]` is the record count of partition `p`; each partition is
/// split into [`morsel_ranges`](crate::morsel::morsel_ranges) and `f` is
/// called once per `(partition, range)` morsel. The morsels of all
/// partitions form one flat list that pool threads claim in order, so an
/// idle thread always picks up the next morsel of whichever partition is
/// left. Outputs are reassembled in (partition, morsel) order, so the
/// result is byte-for-byte identical to static scheduling no matter which
/// thread ran what. Which simulated worker is charged for which morsel is
/// decided separately, by
/// [`simulate_steal_schedule`](crate::morsel::simulate_steal_schedule).
///
/// Returns `outputs[partition][morsel]`; a panicking morsel reports the
/// partition it belongs to as [`WorkerPanic::worker`] (the first panicking
/// morsel in (partition, morsel) order wins) and the later morsels not yet
/// started are skipped.
pub fn try_run_morsels<O, F>(
    lengths: &[usize],
    morsel_size: usize,
    f: F,
) -> Result<Vec<Vec<Vec<O>>>, WorkerPanic>
where
    O: Send,
    F: Fn(usize, Range<usize>) -> Vec<O> + Sync,
{
    let morsels: Vec<(usize, Range<usize>)> = lengths
        .iter()
        .enumerate()
        .flat_map(|(p, &len)| {
            crate::morsel::morsel_ranges(len, morsel_size)
                .into_iter()
                .map(move |range| (p, range))
        })
        .collect();
    crate::telemetry::pool_telemetry()
        .tasks
        .add(morsels.len() as u64);
    let flat = try_map_indexed(morsels.len(), |t| {
        let (p, range) = &morsels[t];
        f(*p, range.clone())
    })
    .map_err(|panic| WorkerPanic {
        worker: morsels[panic.worker].0,
        ..panic
    })?;
    let mut outputs: Vec<Vec<Vec<O>>> = lengths.iter().map(|_| Vec::new()).collect();
    for ((p, _), out) in morsels.iter().zip(flat) {
        outputs[*p].push(out);
    }
    Ok(outputs)
}

/// Variant of [`map_partitions`] for two co-partitioned inputs (e.g. the
/// build and probe sides of a hash join after repartitioning).
pub fn map_partition_pairs<A, B, O, F>(left: &[Vec<A>], right: &[Vec<B>], f: F) -> Vec<O>
where
    A: Sync,
    B: Sync,
    O: Send,
    F: Fn(usize, &[A], &[B]) -> O + Sync,
{
    assert_eq!(left.len(), right.len(), "inputs must be co-partitioned");
    try_map_indexed(left.len(), |i| f(i, &left[i], &right[i])).unwrap_or_else(|p| reraise(p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::thread::ThreadId;

    fn pool_size() -> usize {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }

    /// Runs `stages` four-partition stages and returns the threads that ran
    /// their tasks.
    fn task_threads(stages: usize) -> HashSet<ThreadId> {
        let parts = vec![vec![1u32], vec![2], vec![3], vec![4]];
        let seen = Mutex::new(HashSet::new());
        for _ in 0..stages {
            let out = map_partitions(&parts, |i, p| {
                lock(&seen).insert(std::thread::current().id());
                i as u32 + p[0]
            });
            assert_eq!(out, vec![1, 3, 5, 7]);
        }
        seen.into_inner().unwrap()
    }

    #[test]
    fn try_map_reports_worker_panics() {
        let parts = vec![vec![1u32], vec![2], vec![3]];
        let result = try_map_partitions(&parts, |_, p| {
            if p == [2] {
                panic!("worker died");
            }
            p.len()
        });
        let panic = result.expect_err("worker 1 must be reported");
        assert_eq!(panic.worker, 1);
        assert!(panic.message.contains("worker died"));
    }

    #[test]
    fn try_map_reports_the_lowest_panicking_partition() {
        let parts: Vec<Vec<u32>> = (0..8).map(|i| vec![i]).collect();
        for _ in 0..50 {
            let result = try_map_partitions(&parts, |i, _| {
                if i == 3 || i == 6 {
                    panic!("worker {i} died");
                }
                i
            });
            let panic = result.expect_err("stage must fail");
            assert_eq!(panic.worker, 3);
            assert!(panic.message.contains("worker 3 died"));
        }
    }

    #[test]
    fn try_map_single_partition_reports_panics_inline() {
        let parts = vec![vec![1u32]];
        let result = try_map_partitions(&parts, |_, _| -> usize { panic!("boom") });
        assert_eq!(result.expect_err("must fail").worker, 0);
    }

    #[test]
    #[should_panic(expected = "partition worker 0 panicked")]
    fn map_partitions_propagates_panics() {
        let parts = vec![vec![1u32], vec![2]];
        let _ = map_partitions(&parts, |i, _| {
            if i == 0 {
                panic!("die");
            }
            i
        });
    }

    #[test]
    fn maps_partitions_in_order() {
        let parts = vec![vec![1, 2], vec![3], vec![], vec![4, 5, 6]];
        let sums = map_partitions(&parts, |i, p| (i, p.iter().sum::<i32>()));
        assert_eq!(sums, vec![(0, 3), (1, 3), (2, 0), (3, 15)]);
    }

    #[test]
    fn single_partition_runs_inline() {
        let parts = vec![vec![10u32]];
        let caller = std::thread::current().id();
        let out = map_partitions(&parts, |_, p| {
            assert_eq!(std::thread::current().id(), caller);
            p.len()
        });
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn pairs_are_co_partitioned() {
        let left = vec![vec![1], vec![2, 3]];
        let right = vec![vec![10], vec![20]];
        let out = map_partition_pairs(&left, &right, |i, l, r| i + l.len() + r.len());
        assert_eq!(out, vec![2, 4]);
    }

    #[test]
    fn stages_share_a_bounded_set_of_pool_threads() {
        let threads = task_threads(1000);
        assert!(
            threads.len() <= pool_size(),
            "1000 stages ran on {} threads, the pool has {}",
            threads.len(),
            pool_size()
        );
        assert!(!threads.contains(&std::thread::current().id()));
    }

    #[test]
    fn nested_stage_inside_a_task_completes() {
        let outer = vec![vec![1u64, 2], vec![3], vec![4, 5, 6], vec![]];
        let inner = vec![vec![10u64], vec![20], vec![30]];
        let out = map_partitions(&outer, |_, part| {
            let nested = map_partitions(&inner, |j, q| q[0] * (j as u64 + 1));
            part.iter().sum::<u64>() + nested.iter().sum::<u64>()
        });
        assert_eq!(out, vec![143, 143, 155, 140]);
    }

    #[test]
    fn concurrent_drivers_get_partition_ordered_results() {
        std::thread::scope(|scope| {
            for driver in 0..4usize {
                scope.spawn(move || {
                    for stage in 0..200usize {
                        let parts: Vec<Vec<usize>> =
                            (0..4).map(|p| vec![driver, stage, p]).collect();
                        let out = map_partitions(&parts, |i, p| (i, p.iter().sum::<usize>()));
                        let expected: Vec<(usize, usize)> =
                            (0..4).map(|p| (p, driver + stage + p)).collect();
                        assert_eq!(out, expected, "driver {driver}, stage {stage}");
                    }
                });
            }
        });
    }

    #[test]
    fn panicking_stages_do_not_kill_pool_threads() {
        let before = task_threads(200);
        let parts = vec![vec![0u32], vec![1], vec![2], vec![3]];
        let failed = try_map_partitions(&parts, |i, _| {
            if i == 2 {
                panic!("try stage died");
            }
            i
        });
        assert_eq!(failed.expect_err("stage must fail").worker, 2);
        let raised = std::panic::catch_unwind(|| {
            map_partitions(&parts, |i, _| {
                if i == 1 {
                    panic!("stage died");
                }
                i
            })
        });
        assert!(raised.is_err());
        let after = task_threads(200);
        let all: HashSet<ThreadId> = before.union(&after).copied().collect();
        assert!(
            all.len() <= pool_size(),
            "panics made the pool run tasks on {} threads, it has {}",
            all.len(),
            pool_size()
        );
    }

    #[test]
    fn morsels_reassemble_in_partition_order() {
        let lengths = vec![10usize, 3, 0, 7];
        let out = try_run_morsels(&lengths, 4, |p, range| {
            range.map(|i| (p, i)).collect::<Vec<_>>()
        })
        .unwrap();
        assert_eq!(out.len(), 4);
        for (p, partition) in out.iter().enumerate() {
            let flat: Vec<(usize, usize)> = partition.iter().flatten().copied().collect();
            let expected: Vec<(usize, usize)> = (0..lengths[p]).map(|i| (p, i)).collect();
            assert_eq!(flat, expected, "partition {p} must keep record order");
        }
    }

    #[test]
    fn morsel_output_matches_single_worker_path() {
        let lengths = vec![23usize];
        let out = try_run_morsels(&lengths, 5, |_, range| range.collect::<Vec<usize>>()).unwrap();
        assert_eq!(out[0].len(), 5, "23 records in morsels of 5");
        assert_eq!(out[0].iter().flatten().count(), 23);
    }

    #[test]
    fn morsel_panic_is_reported_with_partition() {
        let lengths = vec![4usize, 4, 4];
        let result = try_run_morsels(&lengths, 2, |p, range| {
            if p == 1 && range.start == 2 {
                panic!("morsel died");
            }
            vec![p]
        });
        let panic = result.expect_err("panicking morsel must be reported");
        assert_eq!(panic.worker, 1);
        assert!(panic.message.contains("morsel died"));
    }

    /// Stress test of the morsel claim: many tiny, skewed rounds make
    /// threads race for the same claim index and finish jobs in every
    /// order. (Its predecessor, with per-worker deques, hung here when two
    /// workers held their own deque while stealing from each other.)
    #[test]
    fn concurrent_stealing_does_not_deadlock() {
        for round in 0..200 {
            // Skewed lengths leave one partition's morsels for whichever
            // thread is idle, every round.
            let lengths = vec![32usize, 1 + round % 3, 1, 2];
            let out = try_run_morsels(&lengths, 2, |p, range| {
                range.map(|i| (p, i)).collect::<Vec<_>>()
            })
            .unwrap();
            assert_eq!(out[0].iter().flatten().count(), 32);
        }
    }

    #[test]
    #[should_panic(expected = "co-partitioned")]
    fn mismatched_partition_counts_panic() {
        let left: Vec<Vec<u32>> = vec![vec![]];
        let right: Vec<Vec<u32>> = vec![vec![], vec![]];
        let _ = map_partition_pairs(&left, &right, |_, _, _| 0);
    }
}
