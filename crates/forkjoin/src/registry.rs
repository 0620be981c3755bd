//! The shared state behind a [`Pool`](crate::Pool): per-worker deques, the
//! global injector, the worker main loop, and the `join` protocol.
//!
//! # Queue discipline
//!
//! Each worker owns a lock-free Chase-Lev deque ([`crate::deque`]) of
//! [`JobRef`]s.  The owner pushes and pops at the **bottom** (LIFO — the
//! most recently forked job is the one whose data is hottest in cache),
//! while thieves and the owner-helping-while-blocked steal from the **top**
//! (FIFO — the oldest fork is the biggest remaining chunk of work).  The
//! hot path of `join` — owner `push` in the fork, owner `pop` in the
//! retire — therefore never takes a lock; thieves claim jobs with a single
//! CAS on the deque's `top` index.
//!
//! A global injector queue receives jobs submitted from outside the pool
//! via [`Pool::install`](crate::Pool::install) and
//! [`Pool::join`](crate::Pool::join) and is drained FIFO.  The injector
//! stays a `Mutex<VecDeque>` deliberately: *pushes* happen once per
//! `install` or outside `join` (per whole batch of work), never per
//! worker `join`, and keeping it mutexed preserves strict FIFO fairness for
//! external callers and lets an outside `join` take its offer back from
//! anywhere in the queue.  Note
//! that workers with nothing to pop do probe it — `steal_work` checks the
//! injector first on every steal attempt, so an idle-heavy pool takes that
//! lock per attempt; what the Chase-Lev swap removes is the lock on the
//! *owner* path, which every single `join` pays.
//!
//! # Sleep/wake protocol
//!
//! Idle workers block on a condvar; they must never sleep through a push
//! ("lost wakeup").  The handshake is a Dekker-style store/load exchange:
//!
//! * A **producer** publishes its job (lock-free deque push or injector
//!   push), executes a `SeqCst` fence, then reads the sleeper count — and
//!   only takes the sleep mutex to notify when it is non-zero.
//! * A **would-be sleeper** increments the sleeper count (a `SeqCst` RMW),
//!   executes a `SeqCst` fence, then re-checks every queue before waiting.
//!
//! With both fences in place, at least one side must see the other: either
//! the producer observes the registered sleeper and notifies (the notify
//! itself is ordered by the sleep mutex, which the sleeper holds except
//! while waiting), or the sleeper's re-check observes the published job and
//! skips the wait.  The previous mutexed-deque implementation got the same
//! guarantee for free from the queue mutex; what a lock-free push pays
//! instead is `notify_work`'s `SeqCst` fence plus one relaxed load per
//! `join` — a full barrier, but uncontended and lock-free, versus the two
//! mutex round-trips (push + pop) each `join` paid before.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::ptr;
use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;

use crate::deque::{Deque, Steal};
use crate::job::{JobRef, StackJob};
use crate::latch::SpinLatch;
use crate::metrics::{PoolMetrics, RegistryMetrics};

/// The FIFO queue for jobs injected from outside the pool.  Mutexed on
/// purpose — see the module docs — which is also what lets a caller take
/// an offered job back out of the middle ([`Injector::remove`]).
#[derive(Default)]
struct Injector {
    jobs: Mutex<VecDeque<JobRef>>,
}

impl Injector {
    fn push(&self, job: JobRef) {
        self.jobs.lock().unwrap().push_back(job);
    }

    fn pop(&self) -> Option<JobRef> {
        self.jobs.lock().unwrap().pop_front()
    }

    /// Takes `job` back out of the queue if no worker has popped it yet.
    /// A job is found by its address; the one searched for was pushed
    /// last by its caller, so the search runs from the back.
    fn remove(&self, job: JobRef) -> bool {
        let mut jobs = self.jobs.lock().unwrap();
        let at = jobs.iter().rposition(|&queued| queued == job);
        at.and_then(|at| jobs.remove(at)).is_some()
    }

    fn is_empty(&self) -> bool {
        self.jobs.lock().unwrap().is_empty()
    }
}

/// State shared by all workers of one pool.
pub(crate) struct Registry {
    /// FIFO queue for jobs injected from outside the pool.
    injector: Injector,
    /// One Chase-Lev deque per worker, indexed by worker index.  Owner
    /// operations are reserved to that worker; anyone may steal.
    queues: Vec<Deque>,
    /// Guards the idle-worker condition variable.
    sleep_mutex: Mutex<()>,
    /// Signalled whenever new work arrives or the pool shuts down.
    work_available: Condvar,
    /// Number of workers currently blocked on `work_available`.
    sleepers: AtomicUsize,
    /// Set once by `terminate`; workers exit their main loop when they see it
    /// and find no remaining work.
    terminating: AtomicBool,
    /// Scheduler telemetry (per-worker counters + join-latency histogram),
    /// live only when the pool was built with metrics enabled — every
    /// recording site checks `metrics.obs` first.
    metrics: RegistryMetrics,
}

impl Registry {
    pub(crate) fn new(num_threads: usize, obs: obs::Obs) -> Arc<Registry> {
        Arc::new(Registry {
            injector: Injector::default(),
            queues: (0..num_threads).map(|_| Deque::new()).collect(),
            sleep_mutex: Mutex::new(()),
            work_available: Condvar::new(),
            sleepers: AtomicUsize::new(0),
            terminating: AtomicBool::new(false),
            metrics: RegistryMetrics::new(num_threads, obs),
        })
    }

    pub(crate) fn metrics_snapshot(&self) -> PoolMetrics {
        self.metrics.snapshot()
    }

    pub(crate) fn num_threads(&self) -> usize {
        self.queues.len()
    }

    /// Submits a job to the FIFO injector: from outside the pool
    /// ([`Pool::install`](crate::Pool::install)), or from anywhere for a
    /// job nobody waits for ([`Pool::spawn`](crate::Pool::spawn)).
    pub(crate) fn inject(&self, job: JobRef) {
        self.injector.push(job);
        self.notify_work();
    }

    /// Takes an offered job back from the injector: `true` if no worker had
    /// popped it, so the caller runs it; `false` if one has, so the caller
    /// waits for its latch ([`Pool::join`](crate::Pool::join)).  Counts
    /// the offer as reclaimed or taken when metrics are on.
    pub(crate) fn reclaim(&self, job: JobRef) -> bool {
        let reclaimed = self.injector.remove(job);
        let m = &self.metrics;
        m.obs.hit(if reclaimed {
            &m.offers_reclaimed
        } else {
            &m.offers_taken
        });
        reclaimed
    }

    /// Asks all workers to exit once they run out of work.
    pub(crate) fn terminate(&self) {
        self.terminating.store(true, Ordering::Release);
        let _guard = self.sleep_mutex.lock().unwrap();
        self.work_available.notify_all();
    }

    /// Wakes sleeping workers because new work was published.
    ///
    /// Producer half of the Dekker handshake described in the module docs:
    /// the `SeqCst` fence orders our job-publishing store before the sleeper
    /// load, pairing with the sleeper's register-then-fence-then-recheck
    /// sequence.  The common case (no sleepers) is one fence and one load —
    /// no mutex.
    pub(crate) fn notify_work(&self) {
        fence(Ordering::SeqCst);
        if self.sleepers.load(Ordering::Relaxed) > 0 {
            let _guard = self.sleep_mutex.lock().unwrap();
            self.work_available.notify_all();
        }
    }

    /// Finds a job for worker `thief`: the injector first (external requests
    /// get priority so `install` callers are never starved), then the other
    /// workers' deques in round-robin order starting after the thief.
    ///
    /// A `Retry` from a victim means some other thread won a claim race
    /// (progress happened system-wide), so spinning on that victim until it
    /// settles into `Success` or `Empty` cannot livelock.
    fn steal_work(&self, thief: usize) -> Option<JobRef> {
        let obs = self.metrics.obs;
        if let Some(job) = self.injector.pop() {
            obs.hit(&self.metrics.workers[thief].steal_success);
            return Some(job);
        }
        let n = self.queues.len();
        for offset in 1..n {
            let victim = (thief + offset) % n;
            loop {
                match self.queues[victim].steal() {
                    Steal::Success(job) => {
                        obs.hit(&self.metrics.workers[thief].steal_success);
                        return Some(job);
                    }
                    Steal::Empty => break,
                    Steal::Retry => continue,
                }
            }
        }
        obs.hit(&self.metrics.workers[thief].steal_empty);
        None
    }

    /// Blocks the calling worker until work may be available (or the pool is
    /// shutting down).  No polling: idle workers cost nothing.
    ///
    /// Sleeper half of the Dekker handshake (module docs): register, fence,
    /// re-check, and only then wait.  A producer either observes the
    /// registration (and takes the mutex to notify — which cannot interleave
    /// with the re-check, since we hold the mutex except while waiting) or
    /// published its job before our fence, in which case the re-check sees
    /// it and we skip the wait.  Spurious wakeups that find the queues
    /// already drained by faster workers simply loop back to waiting.
    fn sleep_until_work(&self, worker: usize) {
        let obs = self.metrics.obs;
        let mut guard = self.sleep_mutex.lock().unwrap();
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        let mut slept = false;
        while !self.has_visible_work() && !self.terminating.load(Ordering::Acquire) {
            if !slept {
                // One sleep per blocking episode; each wait return below
                // counts as a wake (spurious included).
                slept = true;
                obs.hit(&self.metrics.workers[worker].sleeps);
            }
            guard = self.work_available.wait(guard).unwrap();
            obs.hit(&self.metrics.workers[worker].wakes);
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    /// Returns `true` when any queue currently holds a job.  Only meaningful
    /// as a sleep gate: by the time the caller acts, another worker may have
    /// taken the job (it then loops back to sleep).
    fn has_visible_work(&self) -> bool {
        !self.injector.is_empty() || self.queues.iter().any(|q| !q.is_empty())
    }
}

/// Per-worker-thread state.  Lives on the worker's stack for the lifetime of
/// the thread; other code reaches it through the thread-local pointer.
pub(crate) struct WorkerThread {
    registry: Arc<Registry>,
    index: usize,
}

thread_local! {
    static WORKER_THREAD: Cell<*const WorkerThread> = const { Cell::new(ptr::null()) };
}

impl WorkerThread {
    /// Returns the current thread's `WorkerThread`, or null when the current
    /// thread does not belong to any pool.
    pub(crate) fn current() -> *const WorkerThread {
        WORKER_THREAD.with(|cell| cell.get())
    }

    pub(crate) fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Pushes onto this worker's own deque (the fork half of `join`).
    ///
    /// # Safety
    ///
    /// `self` must be the current thread's `WorkerThread`: deque owner
    /// operations are single-threaded by contract.
    unsafe fn push(&self, job: JobRef) {
        self.registry.queues[self.index].push(job);
    }

    /// Pops from this worker's own deque (newest fork first).
    ///
    /// # Safety
    ///
    /// `self` must be the current thread's `WorkerThread`.
    unsafe fn pop(&self) -> Option<JobRef> {
        self.registry.queues[self.index].pop()
    }
}

/// The body of each worker thread.
pub(crate) fn worker_main(registry: Arc<Registry>, index: usize) {
    let worker = WorkerThread { registry, index };
    WORKER_THREAD.with(|cell| cell.set(&worker));

    loop {
        // Read the flag *before* probing the queues: a job injected before
        // `terminate` (a `Pool::spawn` nobody waits for) happens-before this
        // `Acquire` load, so the probe below finds it, and a worker leaves
        // only once a probe that followed the flag came up empty.
        let terminating = worker.registry.terminating.load(Ordering::Acquire);
        // SAFETY: this thread is the owner of `queues[index]`.
        let job = unsafe { worker.pop() }.or_else(|| worker.registry.steal_work(worker.index));
        match job {
            Some(job) => {
                // Count before executing: `execute` fires the job's latch,
                // releasing a waiter who may snapshot metrics immediately —
                // counting first keeps counters exact at that point.
                let m = &worker.registry.metrics;
                m.obs.hit(&m.workers[worker.index].jobs_executed);
                // SAFETY: every published JobRef stays valid until executed
                // (the join/install latch protocol), and is dequeued exactly
                // once.
                unsafe { job.execute() };
            }
            None if terminating => break,
            None => worker.registry.sleep_until_work(worker.index),
        }
    }

    WORKER_THREAD.with(|cell| cell.set(ptr::null()));
}

/// The worker-thread implementation of [`join`](crate::join).
///
/// Pushes `b` onto the local deque (making it stealable), runs `a` inline,
/// then either pops `b` back and runs it inline, or — if a thief took it —
/// helps execute other jobs until the thief sets `b`'s latch.  Both the push
/// and the pop are lock-free deque owner operations.
///
/// Panic protocol: neither branch's panic is allowed to unwind until *both*
/// branches have stopped running, because `b`'s job lives on this stack
/// frame.  If both branches panic, `a`'s payload wins.
///
/// # Safety
///
/// `worker` must be the current thread's `WorkerThread`.
pub(crate) unsafe fn join_on_worker<A, B, RA, RB>(worker: &WorkerThread, a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    // Clock reads only happen on metrics-enabled pools (`now()` returns
    // `None` otherwise), so the default configuration never pays for an
    // `Instant::now()` pair per join.
    let start = worker.registry.metrics.obs.now();
    let job_b = StackJob::new(b, SpinLatch::new());
    let job_b_ref = job_b.as_job_ref();
    worker.push(job_b_ref);
    worker.registry.notify_work();

    let result_a = panic::catch_unwind(AssertUnwindSafe(a));
    let result_b = wait_for_job(worker, &job_b, job_b_ref);
    let metrics = &worker.registry.metrics;
    metrics.obs.record_since(&metrics.join_latency, start);

    match (result_a, result_b) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(payload), _) | (Ok(_), Err(payload)) => panic::resume_unwind(payload),
    }
}

/// Retires the forked branch `job`: runs it inline if nobody stole it,
/// otherwise executes other work until the thief reports completion.  The
/// outcome is kept inert (no unwinding) so that the caller unwinds only
/// once both branches have settled.
unsafe fn wait_for_job<F, R>(
    worker: &WorkerThread,
    job: &StackJob<SpinLatch, F, R>,
    job_ref: JobRef,
) -> thread::Result<R>
where
    F: FnOnce() -> R + Send,
    R: Send,
{
    loop {
        if job.latch().probe() {
            return job.take_outcome();
        }
        match worker.pop() {
            Some(popped) if popped == job_ref => {
                // Fast path: nobody stole it, run it on our own stack.  The
                // panic is contained so the caller can sequence unwinding.
                return panic::catch_unwind(AssertUnwindSafe(|| job.run_inline()));
            }
            // A job forked more recently than ours (LIFO order): execute it;
            // `JobRef::execute` contains panics in the job's result slot.
            Some(other) => {
                let m = &worker.registry.metrics;
                m.obs.hit(&m.workers[worker.index].jobs_executed);
                other.execute();
            }
            None => {
                // Our job was stolen.  Help with other work rather than
                // spinning; if the whole pool is quiet just yield until the
                // thief finishes.
                match worker.registry.steal_work(worker.index) {
                    Some(stolen) => {
                        let m = &worker.registry.metrics;
                        m.obs.hit(&m.workers[worker.index].jobs_executed);
                        stolen.execute();
                    }
                    None => thread::yield_now(),
                }
            }
        }
    }
}
