//! Pool construction ([`PoolBuilder`]), the entry points from outside the
//! pool ([`Pool::install`], [`Pool::spawn`], [`Pool::join`]), and graceful
//! shutdown.
//!
//! A [`Pool`] owns its worker threads: dropping the pool asks every worker to
//! finish the jobs it can still see and exit, then joins the OS threads — so
//! every job handed to [`Pool::spawn`] has run by the time the drop returns.  The
//! shared [`Registry`] outlives the `Pool` handle only as long as a worker
//! still holds an `Arc` to it, i.e. until the last worker has unwound.

use std::fmt;
use std::io;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::thread;

use crate::job::{HeapJob, StackJob};
use crate::latch::LockLatch;
use crate::metrics::PoolMetrics;
use crate::registry::{worker_main, Registry, WorkerThread};

/// A fixed-size work-stealing thread pool executing [`join`](crate::join)
/// computations.
///
/// Construct one with [`Pool::new`] (just a thread count) or [`Pool::builder`]
/// (thread naming, stack size).  Enter the pool with [`Pool::install`]; inside
/// the installed closure, every [`join`](crate::join) call forks onto the
/// pool's workers.  [`Pool::spawn`] hands it a job nobody waits for, and
/// [`Pool::join`] offers it one half of a fork while the caller runs the
/// other.
pub struct Pool {
    registry: Arc<Registry>,
    handles: Vec<thread::JoinHandle<()>>,
}

impl Pool {
    /// Creates a pool with exactly `num_threads` worker threads.
    ///
    /// Fails with [`PoolBuildError::ZeroThreads`] when `num_threads` is zero
    /// and with [`PoolBuildError::Spawn`] when the OS refuses to start a
    /// worker thread.
    pub fn new(num_threads: usize) -> Result<Pool, PoolBuildError> {
        Pool::builder().num_threads(num_threads).build()
    }

    /// Returns a [`PoolBuilder`] for configuring a pool before starting it.
    pub fn builder() -> PoolBuilder {
        PoolBuilder::new()
    }

    /// Returns the number of worker threads in this pool.
    pub fn num_threads(&self) -> usize {
        self.registry.num_threads()
    }

    /// Snapshot of the pool's scheduler telemetry: per-worker
    /// steal/sleep/wake/jobs-executed counters and the join-latency
    /// histogram.
    ///
    /// Collection must be enabled at build time via
    /// [`PoolBuilder::metrics`]; on a default (disabled) pool this returns
    /// all-zero counters with [`PoolMetrics::enabled`] set to `false`.
    /// Counters are exact once the pool is quiescent (no `install` in
    /// flight).
    pub fn metrics(&self) -> PoolMetrics {
        self.registry.metrics_snapshot()
    }

    /// Runs `op` on one of the pool's worker threads and returns its result,
    /// blocking the calling thread until it completes.
    ///
    /// Any [`join`](crate::join) calls made (transitively) by `op` execute on
    /// this pool.  `op` may borrow from the caller's stack: `install` does not
    /// return before `op` has finished, so the borrow cannot outlive its
    /// referent.
    ///
    /// # Panics
    ///
    /// If `op` panics, the panic is captured on the worker and re-thrown on
    /// the calling thread.  The pool itself survives and stays usable.
    pub fn install<F, R>(&self, op: F) -> R
    where
        F: FnOnce() -> R + Send,
        R: Send,
    {
        // Already on one of our own workers?  Run inline: blocking this
        // worker on a latch while the job sits in the injector would
        // deadlock a one-worker pool (and waste a worker in any pool).
        if self.on_own_worker() {
            return op();
        }
        let job = StackJob::new(op, LockLatch::new());
        // SAFETY: the job lives on this stack frame, and we block on its
        // latch below before returning, so the published reference cannot
        // dangle.
        let job_ref = unsafe { job.as_job_ref() };
        self.registry.inject(job_ref);
        job.latch().wait();
        // SAFETY: the latch has fired, so the worker that executed the job
        // has recorded an outcome and will never touch the job again.
        unsafe { job.extract_result() }
    }

    /// Queues `job` to run once on one of the pool's workers and returns at
    /// once: fire and forget, for work whose caller need not wait — freeing
    /// a data structure's old version, say.
    ///
    /// The job joins the same FIFO injector as [`Pool::install`], from
    /// outside the pool or from one of its workers alike, so an `install`
    /// from outside made after a `spawn` starts only once every earlier
    /// spawned job has been taken by a worker.  Every spawned job runs before the pool's
    /// `drop` returns.  A job that panics aborts the process: nobody waits
    /// for it to take the panic.
    pub fn spawn<F>(&self, job: F)
    where
        F: FnOnce() + Send + 'static,
    {
        self.registry.inject(HeapJob::into_job_ref(job));
    }

    /// Runs `a` on the calling thread while offering `b` to this pool, and
    /// returns both results: the work-first `join` of Cilk-5, called from
    /// outside the pool.
    ///
    /// `b` goes onto the FIFO injector, where an idle worker can take it
    /// while the caller runs `a`.  When `a` returns, the caller takes `b`
    /// back if no worker has started it and runs it too; otherwise it
    /// waits for the worker, which is already running `b`.  So the caller
    /// never waits for a worker to come free: at worst, the two halves
    /// cost what running them one after the other costs, plus one push
    /// onto the injector and one removal from it.  With metrics on,
    /// [`PoolMetrics::offers_reclaimed`] and [`PoolMetrics::offers_taken`]
    /// count the two outcomes.
    ///
    /// Called on one of this pool's own workers it is plain
    /// [`join`](crate::join).
    ///
    /// # Panics
    ///
    /// As [`join`](crate::join): a panic in either half propagates once
    /// both halves have settled, and if both panic, `a`'s payload wins.
    /// The pool stays usable.
    pub fn join<A, B, RA, RB>(&self, a: A, b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA + Send,
        B: FnOnce() -> RB + Send,
        RA: Send,
        RB: Send,
    {
        if self.on_own_worker() {
            return crate::join(a, b);
        }
        let job_b = StackJob::new(b, LockLatch::new());
        // SAFETY: the job lives on this stack frame, and below it is either
        // taken back out of the injector or waited for on its latch before
        // this returns, so the published reference cannot dangle.
        let job_b_ref = unsafe { job_b.as_job_ref() };
        self.registry.inject(job_b_ref);
        let result_a = panic::catch_unwind(AssertUnwindSafe(a));
        let result_b = if self.registry.reclaim(job_b_ref) {
            // SAFETY: taken back before any worker popped it, so nobody
            // else can run it.
            panic::catch_unwind(AssertUnwindSafe(|| unsafe { job_b.run_inline() }))
        } else {
            job_b.latch().wait();
            // SAFETY: the latch has fired, so the worker has recorded an
            // outcome and will never touch the job again.
            unsafe { job_b.take_outcome() }
        };
        match (result_a, result_b) {
            (Ok(ra), Ok(rb)) => (ra, rb),
            (Err(payload), _) | (Ok(_), Err(payload)) => panic::resume_unwind(payload),
        }
    }

    /// Whether the calling thread is one of this pool's workers.
    fn on_own_worker(&self) -> bool {
        let worker = WorkerThread::current();
        // SAFETY: non-null worker pointers are valid for the thread's
        // lifetime.
        !worker.is_null()
            && unsafe { std::ptr::eq((*worker).registry(), Arc::as_ptr(&self.registry)) }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.registry.terminate();
        for handle in self.handles.drain(..) {
            // A worker that panicked outside any job has already poisoned
            // nothing we can report from Drop; ignore the join error.
            let _ = handle.join();
        }
    }
}

impl fmt::Debug for Pool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pool")
            .field("num_threads", &self.num_threads())
            .finish()
    }
}

/// Configures and starts a [`Pool`].
///
/// ```
/// use forkjoin::Pool;
///
/// let pool = Pool::builder()
///     .num_threads(2)
///     .build()
///     .expect("failed to build pool");
/// assert_eq!(pool.num_threads(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct PoolBuilder {
    num_threads: Option<usize>,
    stack_size: Option<usize>,
    metrics: bool,
}

impl PoolBuilder {
    /// Creates a builder with default settings: one worker per available CPU,
    /// threads named `forkjoin-worker-<i>`, default stack size, metrics
    /// collection disabled.
    pub fn new() -> PoolBuilder {
        PoolBuilder {
            num_threads: None,
            stack_size: None,
            metrics: false,
        }
    }

    /// Sets the number of worker threads.  Zero is rejected at
    /// [`build`](PoolBuilder::build) time; when unset, the pool uses
    /// [`std::thread::available_parallelism`].
    pub fn num_threads(mut self, num_threads: usize) -> PoolBuilder {
        self.num_threads = Some(num_threads);
        self
    }

    /// Sets the stack size, in bytes, of each worker thread.
    pub fn stack_size(mut self, bytes: usize) -> PoolBuilder {
        self.stack_size = Some(bytes);
        self
    }

    /// Enables scheduler telemetry ([`Pool::metrics`]).  Off by default:
    /// disabled, every instrumentation site is a single predictable branch
    /// (the workspace's bench harness asserts < 2 ns/op) and `join` never
    /// reads the clock.
    pub fn metrics(mut self, enabled: bool) -> PoolBuilder {
        self.metrics = enabled;
        self
    }

    /// Starts the worker threads and returns the running pool.
    ///
    /// On spawn failure the already-started workers are shut down and joined
    /// before the error is returned, so a failed build leaks nothing.
    pub fn build(self) -> Result<Pool, PoolBuildError> {
        let num_threads = match self.num_threads {
            Some(0) => return Err(PoolBuildError::ZeroThreads),
            Some(n) => n,
            None => thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        };
        let registry = Registry::new(num_threads, obs::Obs::new(self.metrics));
        let mut handles = Vec::with_capacity(num_threads);
        for index in 0..num_threads {
            let mut builder = thread::Builder::new().name(format!("forkjoin-worker-{index}"));
            if let Some(bytes) = self.stack_size {
                builder = builder.stack_size(bytes);
            }
            let worker_registry = Arc::clone(&registry);
            match builder.spawn(move || worker_main(worker_registry, index)) {
                Ok(handle) => handles.push(handle),
                Err(err) => {
                    registry.terminate();
                    for handle in handles {
                        let _ = handle.join();
                    }
                    return Err(PoolBuildError::Spawn(err));
                }
            }
        }
        Ok(Pool { registry, handles })
    }
}

impl Default for PoolBuilder {
    fn default() -> PoolBuilder {
        PoolBuilder::new()
    }
}

/// Errors returned when a [`Pool`] cannot be constructed.
#[derive(Debug)]
#[non_exhaustive]
pub enum PoolBuildError {
    /// A pool must have at least one worker thread.
    ZeroThreads,
    /// The OS failed to spawn a worker thread.
    Spawn(io::Error),
}

impl fmt::Display for PoolBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolBuildError::ZeroThreads => write!(f, "a pool needs at least one worker thread"),
            PoolBuildError::Spawn(err) => write!(f, "failed to spawn worker thread: {err}"),
        }
    }
}

impl std::error::Error for PoolBuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PoolBuildError::ZeroThreads => None,
            PoolBuildError::Spawn(err) => Some(err),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::WorkerMetricsSnapshot;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn zero_threads_is_rejected() {
        assert!(matches!(Pool::new(0), Err(PoolBuildError::ZeroThreads)));
    }

    #[test]
    fn builder_defaults_to_available_parallelism() {
        let pool = Pool::builder().build().unwrap();
        assert!(pool.num_threads() >= 1);
    }

    #[test]
    fn workers_are_named_with_prefix() {
        let pool = Pool::new(1).unwrap();
        let name = pool.install(|| thread::current().name().map(String::from));
        assert_eq!(name.as_deref(), Some("forkjoin-worker-0"));
    }

    #[test]
    fn install_returns_borrowed_computation() {
        let data: Vec<u32> = (0..100).collect();
        let pool = Pool::new(2).unwrap();
        let total = pool.install(|| data.iter().sum::<u32>());
        assert_eq!(total, 4950);
    }

    #[test]
    fn sequential_installs_reuse_the_pool() {
        let pool = Pool::new(2).unwrap();
        for i in 0..64u64 {
            assert_eq!(pool.install(move || i * 2), i * 2);
        }
    }

    #[test]
    fn install_from_many_outside_threads() {
        let pool = std::sync::Arc::new(Pool::new(2).unwrap());
        let handles: Vec<_> = (0..4u64)
            .map(|i| {
                let pool = std::sync::Arc::clone(&pool);
                thread::spawn(move || pool.install(move || i + 100))
            })
            .collect();
        let mut results: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        results.sort_unstable();
        assert_eq!(results, vec![100, 101, 102, 103]);
    }

    #[test]
    fn nested_install_runs_inline_even_on_one_worker() {
        let pool = Pool::new(1).unwrap();
        let v = pool.install(|| pool.install(|| 6 * 7));
        assert_eq!(v, 42);
    }

    #[test]
    fn drop_joins_all_workers() {
        // Building and dropping many pools must not hang or leak threads to
        // the point of spawn failure.
        for _ in 0..16 {
            let pool = Pool::new(3).unwrap();
            assert_eq!(pool.install(|| 1), 1);
            drop(pool);
        }
    }

    /// A shared tally of spawned jobs, each adding its own bit once.
    fn tally() -> Arc<AtomicU64> {
        Arc::new(AtomicU64::new(0))
    }

    fn spawn_bits(pool: &Pool, tally: &Arc<AtomicU64>, n: u32) {
        for bit in 0..n {
            let tally = Arc::clone(tally);
            pool.spawn(move || {
                let before = tally.fetch_add(1 << bit, Ordering::Relaxed);
                assert_eq!(before & (1 << bit), 0, "job {bit} ran twice");
            });
        }
    }

    #[test]
    fn spawned_jobs_run_before_the_drop_returns() {
        for threads in [1, 2, 3] {
            let tally = tally();
            let pool = Pool::new(threads).unwrap();
            spawn_bits(&pool, &tally, 40);
            drop(pool);
            let ran = tally.load(Ordering::Relaxed);
            assert_eq!(ran, (1 << 40) - 1, "threads={threads}");
        }
    }

    #[test]
    fn a_job_spawned_from_a_worker_runs_once() {
        let tally = tally();
        let pool = Pool::new(1).unwrap();
        pool.install(|| spawn_bits(&pool, &tally, 8));
        // A later install queues behind the spawned jobs in the FIFO
        // injector, so the one worker has run them all when it returns.
        pool.install(|| {});
        assert_eq!(tally.load(Ordering::Relaxed), 0xff);
    }

    /// A one-worker pool with metrics on, its worker parked inside a
    /// spawned job until the returned sender sends or drops; returns once
    /// the worker is in the job, so nothing offered meanwhile is taken.
    fn parked_one_worker_pool() -> (Pool, mpsc::Sender<()>) {
        let pool = Pool::builder()
            .num_threads(1)
            .metrics(true)
            .build()
            .unwrap();
        let (release, parked) = mpsc::channel::<()>();
        let (started, in_job) = mpsc::channel();
        pool.spawn(move || {
            started.send(()).unwrap();
            let _ = parked.recv();
        });
        in_job.recv().unwrap();
        (pool, release)
    }

    /// `pool.join(a, b)` forced down one path: when `taken`, `a` returns
    /// only once a worker is running `b`, so the offer cannot come back;
    /// otherwise nothing changes (park the pool to force a reclaim).
    fn forced_join<RA: Send, RB: Send>(
        pool: &Pool,
        taken: bool,
        a: impl FnOnce() -> RA + Send,
        b: impl FnOnce() -> RB + Send,
    ) -> (RA, RB) {
        let (started, b_running) = mpsc::channel();
        pool.join(
            move || {
                if taken {
                    b_running
                        .recv_timeout(Duration::from_secs(30))
                        .expect("no worker took the offer");
                }
                a()
            },
            move || {
                let _ = started.send(());
                b()
            },
        )
    }

    fn thread_name() -> String {
        thread::current().name().unwrap_or_default().to_string()
    }

    #[test]
    fn an_offer_no_worker_started_is_taken_back_and_run_once() {
        let (pool, release) = parked_one_worker_pool();
        let runs = AtomicU64::new(0);
        let (a, b) = forced_join(
            &pool,
            false,
            || 6 * 7,
            || {
                runs.fetch_add(1, Ordering::Relaxed);
                thread_name()
            },
        );
        assert_eq!((a, b), (42, thread_name()), "b ran on the caller");
        assert_eq!(runs.load(Ordering::Relaxed), 1);
        let m = pool.metrics();
        assert_eq!((m.offers_reclaimed, m.offers_taken), (1, 0));
        drop(release);
        assert_eq!(pool.install(|| 7), 7);
    }

    #[test]
    fn an_offer_a_worker_started_runs_there_once() {
        let pool = Pool::builder()
            .num_threads(2)
            .metrics(true)
            .build()
            .unwrap();
        let runs = AtomicU64::new(0);
        let (a, b) = forced_join(
            &pool,
            true,
            || 6 * 7,
            || {
                runs.fetch_add(1, Ordering::Relaxed);
                thread_name()
            },
        );
        assert_eq!(a, 42);
        assert!(b.starts_with("forkjoin-worker-"), "b ran on {b:?}");
        assert_eq!(runs.load(Ordering::Relaxed), 1);
        let m = pool.metrics();
        assert_eq!((m.offers_reclaimed, m.offers_taken), (0, 1));
        assert_eq!(m.totals().jobs_executed, 1);
    }

    #[test]
    fn join_panics_settle_both_halves_and_a_wins() {
        for taken in [false, true] {
            let (pool, release) = parked_one_worker_pool();
            if taken {
                release.send(()).unwrap();
            }
            for (a_panics, b_panics, want) in [
                (true, false, "a boom"),
                (false, true, "b boom"),
                (true, true, "a boom"),
            ] {
                let b_runs = AtomicU64::new(0);
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    forced_join(
                        &pool,
                        taken,
                        || assert!(!a_panics, "a boom"),
                        || {
                            b_runs.fetch_add(1, Ordering::Relaxed);
                            assert!(!b_panics, "b boom");
                        },
                    )
                }));
                let payload = caught.expect_err("the panic propagates");
                let got = payload.downcast_ref::<&str>().copied();
                let ctx = format!("taken={taken} a={a_panics} b={b_panics}");
                assert_eq!(got, Some(want), "{ctx}");
                assert_eq!(b_runs.load(Ordering::Relaxed), 1, "b settles once: {ctx}");
            }
            drop(release);
            assert_eq!(pool.install(|| 7), 7, "the pool stays usable");
            let m = pool.metrics();
            let want = if taken { (0, 3) } else { (3, 0) };
            assert_eq!((m.offers_reclaimed, m.offers_taken), want);
        }
    }

    #[test]
    fn join_on_a_worker_of_this_pool_or_another() {
        // On its own one worker it is plain `join`, so it cannot wait for
        // itself.
        let pool = Pool::builder()
            .num_threads(1)
            .metrics(true)
            .build()
            .unwrap();
        assert_eq!(pool.install(|| pool.join(|| 1, || 2)), (1, 2));
        let m = pool.metrics();
        assert_eq!((m.offers_reclaimed, m.offers_taken), (0, 0));
        // From another pool's worker it offers across.
        let other = Pool::new(1).unwrap();
        let (a, b) = other.install(|| pool.join(thread_name, || crate::join(|| 20, || 22)));
        assert_eq!(a, "forkjoin-worker-0");
        assert_eq!(b, (20, 22));
        let m = pool.metrics();
        assert_eq!(m.offers_reclaimed + m.offers_taken, 1);
    }

    #[test]
    fn error_display_is_informative() {
        let err = Pool::new(0).unwrap_err();
        assert!(err.to_string().contains("at least one"));
    }

    fn spray_joins(depth: u32) -> u64 {
        if depth == 0 {
            return 1;
        }
        let (a, b) = crate::join(|| spray_joins(depth - 1), || spray_joins(depth - 1));
        a + b
    }

    #[test]
    fn metrics_disabled_by_default_and_all_zero() {
        let pool = Pool::new(2).unwrap();
        assert_eq!(pool.install(|| spray_joins(6)), 64);
        let m = pool.metrics();
        assert!(!m.enabled);
        assert_eq!(m.workers.len(), 2);
        let t = m.totals();
        assert_eq!(t, WorkerMetricsSnapshot::default());
        assert_eq!(m.join_latency.count(), 0);
    }

    #[test]
    fn metrics_enabled_pool_counts_work() {
        let pool = Pool::builder()
            .num_threads(2)
            .metrics(true)
            .build()
            .unwrap();
        for _ in 0..4 {
            assert_eq!(pool.install(|| spray_joins(7)), 128);
        }
        let m = pool.metrics();
        assert!(m.enabled);
        assert_eq!(m.workers.len(), 2);
        let t = m.totals();
        // Every install enters through the injector, and popping the
        // injector counts as a successful steal.
        assert!(t.steal_success >= 4, "{t:?}");
        assert!(t.jobs_executed >= 4, "{t:?}");
        // Joins on workers record a fork-to-retire latency sample.
        assert!(m.join_latency.count() > 0, "{m:?}");
        assert!(m.join_latency.sum > 0, "{m:?}");
        // A worker asleep at snapshot time has one unmatched sleep; wakes
        // can exceed sleeps via spurious wait returns.  Only a loose bound
        // holds per worker.
        for w in &m.workers {
            assert!(w.wakes + 1 >= w.sleeps, "{w:?}");
        }
    }

    #[test]
    fn metrics_accumulate_across_installs() {
        let pool = Pool::builder()
            .num_threads(1)
            .metrics(true)
            .build()
            .unwrap();
        pool.install(|| spray_joins(4));
        let before = pool.metrics().totals();
        pool.install(|| spray_joins(4));
        let after = pool.metrics().totals();
        assert!(after.jobs_executed > before.jobs_executed);
        assert!(after.steal_success > before.steal_success);
    }
}
