//! The monotone event counter.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotone event counter: one relaxed `AtomicU64`.
///
/// Three write disciplines, chosen per call site:
///
/// * [`Counter::inc`]/[`Counter::add`] — a relaxed `fetch_add`, safe for
///   any number of concurrent writers.  No increments are ever lost.
/// * [`Counter::add_single_writer`] — plain load + store, for counters
///   owned by exactly one writer at a time (a combiner holding its flag, a
///   deque's owning worker).  Cheaper than an RMW on contended cache lines.
/// * [`Counter::set_max`] — a relaxed `fetch_max`, for a counter that is a
///   high-water mark (a log's fsynced sequence number) rather than a tally.
///
/// Reads ([`Counter::get`]) are relaxed: exact once the writers are
/// quiescent, momentarily stale while they run.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A fresh counter at zero.
    pub const fn new() -> Counter {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    /// Adds one (relaxed RMW; any number of concurrent writers).
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` (relaxed RMW; any number of concurrent writers).
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds `n` with a plain load + store.
    ///
    /// # Contract
    ///
    /// At most one thread may call this (or any other write) at a time —
    /// increments race and get lost otherwise.  The typical owner is a
    /// thread holding an exclusive flag; the flag's release/acquire edge
    /// hands the write position to the next owner.
    #[inline]
    pub fn add_single_writer(&self, n: u64) {
        let v = self.value.load(Ordering::Relaxed);
        self.value.store(v + n, Ordering::Relaxed);
    }

    /// Raises the counter to `value` if that moves it forward (relaxed RMW;
    /// racing writers never move it backward).  Like every other write here
    /// it publishes nothing but the number itself: a mark that vouches for
    /// state elsewhere — bytes on disk — is raised after that state exists,
    /// by the thread that made it so.
    #[inline]
    pub fn set_max(&self, value: u64) {
        self.value.fetch_max(value, Ordering::Relaxed);
    }

    /// Current value (relaxed; exact when writers are quiescent).
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn sequential_counting() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        c.add_single_writer(5);
        assert_eq!(c.get(), 10);
        assert_eq!(Counter::default().get(), 0);
    }

    #[test]
    fn set_max_is_monotone_under_races() {
        let c = Arc::new(Counter::new());
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let c = Arc::clone(&c);
                thread::spawn(move || {
                    for i in 0..10_000u64 {
                        c.set_max(t * 10_000 + i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 3 * 10_000 + 9_999);
        c.set_max(5);
        assert_eq!(c.get(), 39_999, "set_max never regresses");
    }

    #[test]
    fn concurrent_rmw_adds_lose_nothing() {
        let c = Arc::new(Counter::new());
        let threads = 4;
        let per = 50_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let c = Arc::clone(&c);
                thread::spawn(move || {
                    for _ in 0..per {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), threads * per);
    }
}
