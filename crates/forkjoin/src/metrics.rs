//! Scheduler telemetry: per-worker counters and the join-latency
//! histogram behind [`Pool::metrics`](crate::Pool::metrics).
//!
//! Collection is off by default and enabled per pool via
//! [`PoolBuilder::metrics`](crate::PoolBuilder::metrics); every
//! instrumentation site routes through an [`obs::Obs`] guard, so a pool
//! built without metrics pays one predictable branch per site — nothing
//! that moves the ~20 ns/join figure the scheduler bench reports.

use obs::{Counter, HistSnapshot, Histogram};

/// Live per-worker counters (one set per worker thread, owned by the
/// registry).  Counter semantics are documented on
/// [`WorkerMetricsSnapshot`]'s fields.
#[derive(Debug, Default)]
pub(crate) struct WorkerMetrics {
    pub(crate) steal_success: Counter,
    pub(crate) steal_empty: Counter,
    pub(crate) sleeps: Counter,
    pub(crate) wakes: Counter,
    pub(crate) jobs_executed: Counter,
}

impl WorkerMetrics {
    pub(crate) fn snapshot(&self) -> WorkerMetricsSnapshot {
        WorkerMetricsSnapshot {
            steal_success: self.steal_success.get(),
            steal_empty: self.steal_empty.get(),
            sleeps: self.sleeps.get(),
            wakes: self.wakes.get(),
            jobs_executed: self.jobs_executed.get(),
        }
    }
}

/// One worker's counters at a point in time.
///
/// Counters are monotone and relaxed: exact once the pool is quiescent
/// (no `install` in flight), momentarily stale while workers run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerMetricsSnapshot {
    /// Steal attempts that found a job — from the shared injector or
    /// another worker's deque (the injector is probed first, so on an
    /// otherwise idle pool this mostly counts injector pops).
    pub steal_success: u64,
    /// Steal attempts that came up empty everywhere.
    pub steal_empty: u64,
    /// Times this worker went to sleep on the idle condvar (counted once
    /// per blocking episode, not per spurious re-check).
    pub sleeps: u64,
    /// Condvar wait returns, spurious ones included.  Not ordered against
    /// `sleeps` in either direction: spurious wakeups within one episode
    /// push `wakes` above `sleeps`, while a worker asleep at snapshot time
    /// has recorded its sleep but not yet its wake.
    pub wakes: u64,
    /// Jobs this worker executed from the queues: its own deque via the
    /// main loop, plus jobs run while helping during a blocked `join`.
    /// Joins retired inline by their forking worker (the pop-own-job fast
    /// path) are *not* jobs executed from a queue and are not counted.
    pub jobs_executed: u64,
}

impl WorkerMetricsSnapshot {
    fn add(&self, other: &WorkerMetricsSnapshot) -> WorkerMetricsSnapshot {
        WorkerMetricsSnapshot {
            steal_success: self.steal_success + other.steal_success,
            steal_empty: self.steal_empty + other.steal_empty,
            sleeps: self.sleeps + other.sleeps,
            wakes: self.wakes + other.wakes,
            jobs_executed: self.jobs_executed + other.jobs_executed,
        }
    }
}

/// A snapshot of one pool's scheduler telemetry
/// ([`Pool::metrics`](crate::Pool::metrics)).
#[derive(Debug, Clone, Default)]
pub struct PoolMetrics {
    /// Whether the pool was built with metrics collection enabled; when
    /// `false`, every number below is zero by construction.
    pub enabled: bool,
    /// Per-worker counters, indexed by worker thread.
    pub workers: Vec<WorkerMetricsSnapshot>,
    /// Latency of `join` calls made *on* pool workers, in nanoseconds
    /// from fork to both branches retired (pool-wide; single histogram
    /// because recording is a lock-free `fetch_add`).
    pub join_latency: HistSnapshot,
    /// [`Pool::join`](crate::Pool::join) offers from outside the pool that
    /// no worker had started when the caller's own half returned, so the
    /// caller took them back and ran them itself.
    pub offers_reclaimed: u64,
    /// Such offers that a worker took, so they ran side by side with the
    /// caller's half.
    pub offers_taken: u64,
}

impl PoolMetrics {
    /// Sums the per-worker counters into one pool-wide view.
    pub fn totals(&self) -> WorkerMetricsSnapshot {
        self.workers
            .iter()
            .fold(WorkerMetricsSnapshot::default(), |acc, w| acc.add(w))
    }
}

/// Shared scheduler telemetry state, embedded in the pool's registry.
#[derive(Debug)]
pub(crate) struct RegistryMetrics {
    pub(crate) obs: obs::Obs,
    pub(crate) workers: Vec<WorkerMetrics>,
    pub(crate) join_latency: Histogram,
    pub(crate) offers_reclaimed: Counter,
    pub(crate) offers_taken: Counter,
}

impl RegistryMetrics {
    pub(crate) fn new(num_threads: usize, obs: obs::Obs) -> RegistryMetrics {
        RegistryMetrics {
            obs,
            workers: (0..num_threads).map(|_| WorkerMetrics::default()).collect(),
            join_latency: Histogram::new(),
            offers_reclaimed: Counter::new(),
            offers_taken: Counter::new(),
        }
    }

    pub(crate) fn snapshot(&self) -> PoolMetrics {
        PoolMetrics {
            enabled: self.obs.is_enabled(),
            workers: self.workers.iter().map(WorkerMetrics::snapshot).collect(),
            join_latency: self.join_latency.snapshot(),
            offers_reclaimed: self.offers_reclaimed.get(),
            offers_taken: self.offers_taken.get(),
        }
    }
}
