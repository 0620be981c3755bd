//! A minimal work-stealing fork-join thread pool.
//!
//! This crate is the parallel substrate of the parallel-batched
//! interpolation-search-tree reproduction.  The original paper implements its
//! algorithms on top of OpenCilk; this crate provides the same computational
//! model in safe-to-use Rust: binary [`join`] (fork two closures, wait for
//! both), executed by a fixed set of worker threads that steal work from each
//! other.
//!
//! # Design
//!
//! * A [`Pool`] owns `n` worker threads.  Each worker owns a **lock-free
//!   Chase-Lev deque** it pushes and pops LIFO while thieves steal FIFO with
//!   a single CAS — `join`'s hot path never takes a lock (see the `deque`
//!   module for the memory-ordering contract).  A mutexed FIFO injector
//!   queue receives jobs submitted from outside the pool (via
//!   [`Pool::install`] and [`Pool::join`]) and the fire-and-forget jobs of
//!   [`Pool::spawn`]; it is touched once per submission (twice for a
//!   [`Pool::join`] whose offer is taken back), not once per `join`.
//! * [`join(a, b)`](join) called **on a worker thread** pushes `b` onto the
//!   local deque, runs `a` inline, and then either pops `b` back (if nobody
//!   stole it) or helps with other work until the thief finishes `b`.
//! * [`join`] called **outside any pool** simply runs `a` then `b`
//!   sequentially, so library code written against this crate works in unit
//!   tests and single-threaded contexts without ceremony.
//! * [`Pool::join(a, b)`](Pool::join) is the fork for a thread **outside**
//!   the pool: it pushes `b` onto the injector, runs `a` on the caller,
//!   then takes `b` back out of the injector and runs it too if no worker
//!   has started it — otherwise it waits for the worker already running
//!   it.  The caller never waits for a worker to come free, which
//!   [`Pool::install`] does.  On one of the pool's own workers it is plain
//!   [`join`].
//! * Idle workers sleep on a condvar; a fenced Dekker handshake between the
//!   lock-free publish and the sleeper's registration guarantees a push is
//!   never slept through (the `registry` module documents the protocol).
//!
//! # Example
//!
//! ```
//! use forkjoin::{Pool, join};
//!
//! fn sum(v: &[u64]) -> u64 {
//!     if v.len() <= 1024 {
//!         return v.iter().sum();
//!     }
//!     let mid = v.len() / 2;
//!     let (lo, hi) = v.split_at(mid);
//!     let (a, b) = join(|| sum(lo), || sum(hi));
//!     a + b
//! }
//!
//! let data: Vec<u64> = (0..100_000).collect();
//! let pool = Pool::new(4).expect("failed to build pool");
//! let total = pool.install(|| sum(&data));
//! assert_eq!(total, 100_000 * 99_999 / 2);
//! ```

#![warn(missing_docs)]

mod deque;
mod job;
mod latch;
mod metrics;
mod pool;
mod registry;

pub use metrics::{PoolMetrics, WorkerMetricsSnapshot};
pub use pool::{Pool, PoolBuildError, PoolBuilder};

use registry::WorkerThread;

/// Runs `a` and `b`, potentially in parallel, and returns both results.
///
/// When called from a thread belonging to a [`Pool`], `b` is made available
/// for other workers to steal while the current worker runs `a`; when called
/// from any other thread the two closures run sequentially (first `a`, then
/// `b`).  Either way both closures have completed when `join` returns.
///
/// # Panics
///
/// If either closure panics, the panic is propagated to the caller once both
/// closures have stopped running.  If both panic, the panic of `a` is
/// propagated.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let worker = WorkerThread::current();
    if worker.is_null() {
        // Not on a pool thread: plain sequential execution.
        let ra = a();
        let rb = b();
        return (ra, rb);
    }
    // SAFETY: `worker` is non-null and points at the thread-local
    // `WorkerThread` of the current thread, which outlives this call.
    unsafe { registry::join_on_worker(&*worker, a, b) }
}

/// Returns the number of worker threads of the pool the current thread
/// belongs to, or `1` when the current thread is not a pool worker.
///
/// Parallel algorithms use this to pick granularity cutoffs.
pub fn current_num_threads() -> usize {
    let worker = WorkerThread::current();
    if worker.is_null() {
        1
    } else {
        // SAFETY: non-null worker pointers are valid for the thread lifetime.
        unsafe { (*worker).registry().num_threads() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn join_outside_pool_is_sequential() {
        let (a, b) = join(|| 1 + 1, || "hello".len());
        assert_eq!(a, 2);
        assert_eq!(b, 5);
        assert_eq!(current_num_threads(), 1);
    }

    #[test]
    fn join_inside_pool() {
        let pool = Pool::new(2).unwrap();
        let (a, b) = pool.install(|| join(|| 21 * 2, || vec![1, 2, 3]));
        assert_eq!(a, 42);
        assert_eq!(b, vec![1, 2, 3]);
    }

    #[test]
    fn install_reports_pool_membership() {
        let pool = Pool::new(3).unwrap();
        assert_eq!(pool.install(current_num_threads), 3);
    }

    #[test]
    fn recursive_fib() {
        fn fib(n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let (a, b) = join(|| fib(n - 1), || fib(n - 2));
            a + b
        }
        let pool = Pool::new(4).unwrap();
        assert_eq!(pool.install(|| fib(20)), 6765);
    }

    #[test]
    fn parallel_side_effects_all_run() {
        fn touch(v: &[AtomicUsize]) {
            if v.len() <= 8 {
                for x in v {
                    x.fetch_add(1, Ordering::Relaxed);
                }
                return;
            }
            let mid = v.len() / 2;
            let (lo, hi) = v.split_at(mid);
            join(|| touch(lo), || touch(hi));
        }
        let data: Vec<AtomicUsize> = (0..4096).map(|_| AtomicUsize::new(0)).collect();
        let pool = Pool::new(4).unwrap();
        pool.install(|| touch(&data));
        assert!(data.iter().all(|x| x.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn panic_in_left_branch_propagates() {
        let pool = Pool::new(2).unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.install(|| {
                join(|| panic!("left boom"), || 1);
            })
        }));
        assert!(result.is_err());
        // Pool must still be usable after a propagated panic.
        assert_eq!(pool.install(|| 7), 7);
    }

    #[test]
    fn panic_in_right_branch_propagates() {
        let pool = Pool::new(2).unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.install(|| {
                join(|| 1, || panic!("right boom"));
            })
        }));
        assert!(result.is_err());
        assert_eq!(pool.install(|| 7), 7);
    }
}
