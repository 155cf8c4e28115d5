//! The scoped worker pool and its chunked work-stealing scheduler.
//!
//! ## How work moves
//!
//! The job set `0..n` is split into one contiguous interval per worker.
//! Each worker claims chunks off the *front* of its own interval; when its
//! interval is empty it scans the other workers round-robin and steals the
//! *back half* of the first non-empty interval it finds. Intervals only
//! ever shrink, so once every interval is empty the pool is drained — there
//! is no idle spinning and no livelock.
//!
//! ## Why the output cannot depend on scheduling
//!
//! A worker never writes into shared result storage; it accumulates
//! `(index, value)` pairs locally and the calling thread places each pair
//! into slot `index` of the output vector after joining. Every index is
//! claimed by exactly one worker (intervals are disjoint and only split at
//! their boundaries), so each slot is written exactly once and the
//! assembled vector equals the serial `(0..n).map(f)` — whatever the
//! thread count, chunk size, or steal order was.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::error::ExecError;
use crate::stats::ExecStats;

/// Environment variable overriding the default worker count of
/// [`ExecPool::from_env`]. Thread count affects wall time only, never
/// results, so this is a safe knob for CI and benchmarking.
pub const EXEC_THREADS_ENV: &str = "EXEC_THREADS";

/// Chunks a worker claims off its own queue front are sized so each worker
/// makes roughly this many trips to its mutex in the uncontended case.
const CHUNKS_PER_WORKER: usize = 8;

/// A fixed-width pool of scoped worker threads.
///
/// The pool is a value, not a resource: threads are spawned per run inside
/// a [`std::thread::scope`] and joined before the call returns, so jobs may
/// borrow from the caller's stack freely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecPool {
    threads: usize,
}

/// The results of one pool run plus its scheduling statistics.
#[derive(Debug, Clone)]
pub struct ExecOutcome<R> {
    /// One result per job, in job-index order.
    pub results: Vec<R>,
    /// How the run was scheduled.
    pub stats: ExecStats,
}

impl ExecPool {
    /// A pool of exactly `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        ExecPool { threads: threads.max(1) }
    }

    /// A single-worker pool: jobs run inline on the calling thread, in
    /// index order, with the same panic-capture semantics as a wide pool.
    pub fn serial() -> Self {
        ExecPool::new(1)
    }

    /// The default pool: `EXEC_THREADS` when set to a positive integer,
    /// otherwise the machine's available parallelism.
    pub fn from_env() -> Self {
        let fallback = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        ExecPool::new(crate::env::positive_usize_or(EXEC_THREADS_ENV, fallback))
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `jobs` indexed jobs and returns their results in index order,
    /// with scheduling stats.
    ///
    /// `job` must be a pure function of its index (plus shared read-only
    /// state): under that contract the result vector is bit-identical for
    /// every thread count.
    ///
    /// # Errors
    ///
    /// [`ExecError::JobPanicked`] if any job panics (first panicking index
    /// wins; remaining work is abandoned), [`ExecError::SpawnFailed`] if a
    /// worker thread cannot be started.
    pub fn run<R, F>(&self, jobs: usize, job: F) -> Result<ExecOutcome<R>, ExecError>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if jobs == 0 {
            return Ok(ExecOutcome { results: Vec::new(), stats: ExecStats::empty(self.threads) });
        }
        let workers = self.threads.min(jobs);
        if workers == 1 {
            return run_serial(jobs, &job);
        }
        run_stealing(jobs, workers, &job)
    }
}

impl Default for ExecPool {
    /// Same as [`ExecPool::from_env`].
    fn default() -> Self {
        ExecPool::from_env()
    }
}

/// The inline path: index order on the calling thread, panics still
/// captured so serial and parallel runs fail identically.
fn run_serial<R, F>(jobs: usize, job: &F) -> Result<ExecOutcome<R>, ExecError>
where
    F: Fn(usize) -> R + Sync,
{
    let mut results = Vec::with_capacity(jobs);
    for i in 0..jobs {
        match catch_unwind(AssertUnwindSafe(|| job(i))) {
            Ok(r) => results.push(r),
            Err(payload) => {
                return Err(ExecError::JobPanicked {
                    index: i,
                    message: panic_message(payload.as_ref()),
                })
            }
        }
    }
    let stats = ExecStats { jobs, workers: 1, steals: 0, per_worker: vec![jobs] };
    Ok(ExecOutcome { results, stats })
}

/// One worker's view of the shared scheduler state.
struct Scheduler {
    /// Disjoint `[start, end)` intervals of unclaimed indices, one per
    /// worker. Claiming locks exactly one interval at a time.
    intervals: Vec<Mutex<(usize, usize)>>,
    /// Chunk size for claims off a worker's own interval front.
    chunk: usize,
    /// Total successful steals.
    steals: AtomicUsize,
    /// Raised on the first panic so other workers stop claiming.
    abort: AtomicBool,
    /// First failure recorded wins.
    failure: Mutex<Option<ExecError>>,
}

impl Scheduler {
    fn new(jobs: usize, workers: usize) -> Self {
        let base = jobs / workers;
        let extra = jobs % workers;
        let mut intervals = Vec::with_capacity(workers);
        let mut cursor = 0usize;
        for w in 0..workers {
            let len = base + usize::from(w < extra);
            intervals.push(Mutex::new((cursor, cursor + len)));
            cursor += len;
        }
        Scheduler {
            intervals,
            chunk: (jobs / (workers * CHUNKS_PER_WORKER)).max(1),
            steals: AtomicUsize::new(0),
            abort: AtomicBool::new(false),
            failure: Mutex::new(None),
        }
    }

    /// Claims the next chunk for worker `w`: own interval front first, then
    /// the back half of the first non-empty victim. `None` means the job
    /// set is fully claimed and this worker can retire.
    fn claim(&self, w: usize) -> Option<(usize, usize)> {
        {
            let mut own = lock_interval(&self.intervals[w]);
            if own.0 < own.1 {
                let take = self.chunk.min(own.1 - own.0);
                let start = own.0;
                own.0 += take;
                return Some((start, start + take));
            }
        }
        let workers = self.intervals.len();
        for offset in 1..workers {
            let victim = (w + offset) % workers;
            let mut interval = lock_interval(&self.intervals[victim]);
            let remaining = interval.1 - interval.0;
            if remaining > 0 {
                let take = remaining.div_ceil(2);
                let start = interval.1 - take;
                interval.1 = start;
                self.steals.fetch_add(1, Ordering::Relaxed);
                return Some((start, start + take));
            }
        }
        None
    }

    fn record_failure(&self, err: ExecError) {
        let mut slot = self.failure.lock().unwrap_or_else(|poison| poison.into_inner());
        if slot.is_none() {
            *slot = Some(err);
        }
        self.abort.store(true, Ordering::Relaxed);
    }
}

fn lock_interval(m: &Mutex<(usize, usize)>) -> std::sync::MutexGuard<'_, (usize, usize)> {
    // An interval guard is only held for pointer-sized arithmetic; a
    // poisoned lock can only mean a panic elsewhere, and the pair is still
    // a consistent claim state.
    m.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// The work-stealing path for `workers >= 2`.
fn run_stealing<R, F>(jobs: usize, workers: usize, job: &F) -> Result<ExecOutcome<R>, ExecError>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let sched = Scheduler::new(jobs, workers);
    let mut locals: Vec<Vec<(usize, R)>> = Vec::with_capacity(workers);

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let sched = &sched;
            let spawned = std::thread::Builder::new()
                .name(format!("exec-{w}"))
                .spawn_scoped(scope, move || worker_loop(w, sched, job));
            match spawned {
                Ok(handle) => handles.push(handle),
                Err(e) => {
                    sched.record_failure(ExecError::SpawnFailed {
                        worker: w,
                        message: e.to_string(),
                    });
                    break;
                }
            }
        }
        for handle in handles {
            match handle.join() {
                Ok(local) => locals.push(local),
                // Unreachable in practice: the worker catches job panics
                // itself. Guard anyway so a pool bug cannot abort the
                // caller.
                Err(payload) => sched.record_failure(ExecError::JobPanicked {
                    index: jobs,
                    message: panic_message(payload.as_ref()),
                }),
            }
        }
    });

    let steals = sched.steals.load(Ordering::Relaxed);
    if let Some(err) = sched.failure.into_inner().unwrap_or_else(|poison| poison.into_inner()) {
        return Err(err);
    }

    let mut per_worker = vec![0usize; workers];
    let mut slots: Vec<Option<R>> = Vec::with_capacity(jobs);
    slots.resize_with(jobs, || None);
    for (w, local) in locals.into_iter().enumerate() {
        per_worker[w] = local.len();
        for (index, value) in local {
            slots[index] = Some(value);
        }
    }
    let mut results = Vec::with_capacity(jobs);
    for (index, slot) in slots.into_iter().enumerate() {
        match slot {
            Some(value) => results.push(value),
            None => return Err(ExecError::MissingResult { index }),
        }
    }
    Ok(ExecOutcome { results, stats: ExecStats { jobs, workers, steals, per_worker } })
}

/// One worker: claim chunks until the set is drained or a panic aborts the
/// run, accumulating `(index, result)` pairs locally.
fn worker_loop<R, F>(w: usize, sched: &Scheduler, job: &F) -> Vec<(usize, R)>
where
    F: Fn(usize) -> R + Sync,
{
    let mut local = Vec::new();
    'claims: while !sched.abort.load(Ordering::Relaxed) {
        let Some((start, end)) = sched.claim(w) else { break };
        for i in start..end {
            if sched.abort.load(Ordering::Relaxed) {
                break 'claims;
            }
            match catch_unwind(AssertUnwindSafe(|| job(i))) {
                Ok(value) => local.push((i, value)),
                Err(payload) => {
                    sched.record_failure(ExecError::JobPanicked {
                        index: i,
                        message: panic_message(payload.as_ref()),
                    });
                    break 'claims;
                }
            }
        }
    }
    local
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_job_set_yields_empty_results() {
        let pool = ExecPool::new(4);
        let out = pool.run(0, |i| i).unwrap();
        assert!(out.results.is_empty());
        assert_eq!(out.stats.jobs, 0);
        assert_eq!(out.stats.steals, 0);
        assert!(out.stats.per_worker.is_empty());
    }

    #[test]
    fn results_are_index_ordered_and_thread_count_invariant() {
        let items: Vec<u64> = (0..1_000).collect();
        let f = |i: usize| items[i].wrapping_mul(0x9E37_79B9).rotate_left(7) ^ (i as u64);
        let serial = ExecPool::serial().run(items.len(), f).unwrap().results;
        for threads in [2, 3, 4, 8, 17] {
            let parallel = ExecPool::new(threads).run(items.len(), f).unwrap().results;
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    fn jobs_fewer_than_workers() {
        // 3 jobs on a 16-wide pool: worker count clamps to the job count
        // and every slot still fills.
        let out = ExecPool::new(16).run(3, |i| i * 10).unwrap();
        assert_eq!(out.results, vec![0, 10, 20]);
        assert_eq!(out.stats.workers, 3);
        assert_eq!(out.stats.per_worker.iter().sum::<usize>(), 3);
    }

    #[test]
    fn single_job_runs_inline() {
        let out = ExecPool::new(8).run(1, |i| i + 41).unwrap();
        assert_eq!(out.results, vec![41]);
        assert_eq!(out.stats.workers, 1);
    }

    #[test]
    fn panicking_job_surfaces_as_exec_error() {
        // Silence the default panic hook's stderr spew for this test; the
        // hook is process-global, so restore it after.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        for threads in [1, 4] {
            let err = ExecPool::new(threads)
                .run(64, |i| {
                    assert!(i != 13, "unlucky index");
                    i
                })
                .unwrap_err();
            match err {
                ExecError::JobPanicked { index, message } => {
                    assert_eq!(index, 13, "threads={threads}");
                    assert!(message.contains("unlucky"), "message: {message}");
                }
                other => panic!("expected JobPanicked, got {other:?}"),
            }
        }
        std::panic::set_hook(prev);
    }

    #[test]
    fn per_worker_counts_add_up_and_stealing_happens_on_skew() {
        // A wildly skewed workload: the first interval's jobs are slow, so
        // other workers must finish early and come stealing. We can't
        // assert steals > 0 deterministically on every machine, but the
        // bookkeeping must always balance.
        let out = ExecPool::new(4)
            .run(200, |i| {
                if i < 50 {
                    // Busy-work; deterministic result, variable duration.
                    (0..2_000u64).fold(i as u64, |a, b| a.wrapping_add(b.wrapping_mul(a | 1)))
                } else {
                    i as u64
                }
            })
            .unwrap();
        assert_eq!(out.stats.jobs, 200);
        assert_eq!(out.stats.per_worker.len(), out.stats.workers);
        assert_eq!(out.stats.per_worker.iter().sum::<usize>(), 200);
        assert_eq!(out.results.len(), 200);
        assert_eq!(out.results[60], 60);
    }

    #[test]
    fn env_parsing() {
        // The lenient idiom itself is covered in `crate::env`; here we pin
        // that `from_env` goes through it and always yields a usable pool.
        assert!(ExecPool::from_env().threads() >= 1);
    }

    #[test]
    fn pool_width_clamps_to_one() {
        assert_eq!(ExecPool::new(0).threads(), 1);
        assert_eq!(ExecPool::serial().threads(), 1);
        assert!(ExecPool::default().threads() >= 1);
    }

    #[test]
    fn jobs_can_borrow_caller_state() {
        let data: Vec<String> = (0..32).map(|i| format!("item-{i}")).collect();
        let lens = ExecPool::new(4).run(data.len(), |i| data[i].len()).unwrap().results;
        assert_eq!(lens.len(), 32);
        assert_eq!(lens[0], 6);
        assert_eq!(lens[10], 7);
    }
}
