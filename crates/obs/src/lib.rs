//! Std-only metrics substrate for the workspace.
//!
//! The ROADMAP's measurement problem is that the bench box has one core:
//! point-write rounds are one op each and contention never
//! materialises, so wall-clock scaling says little.  Credible performance
//! claims must instead lean on *algorithmic* counters — round sizes, steal
//! counts, nodes touched, rebuild work — which is exactly what this crate
//! provides, with a hot-path cost low enough to thread through a 20 ns
//! `join`.
//!
//! # Pieces
//!
//! * [`Counter`] — a relaxed `AtomicU64`.  Concurrent writers use
//!   [`Counter::inc`]/[`Counter::add`] (one relaxed RMW); a single-writer
//!   discipline (e.g. the holder of `combine`'s combiner flag) can use
//!   [`Counter::add_single_writer`] (plain load + store, no RMW); a
//!   high-water mark (a durable log's fsynced sequence number) moves with
//!   [`Counter::set_max`].
//! * [`Histogram`] — fixed power-of-two buckets, lock-free record, and
//!   owned [`HistSnapshot`]s.  Works for nanosecond latencies and size
//!   distributions alike.
//! * [`Registry`] — named metrics with get-or-create handle lookup
//!   ([`Registry::counter`]/[`Registry::histogram`]); handles are `Arc`s
//!   cloned out once, so hot paths never touch the registry lock.  A
//!   [`Snapshot`] captures every metric at once, looked up by name, with
//!   deterministic JSON rendering.
//! * [`Obs`] — the zero-cost-when-disabled guard: a `#[cfg]`-free runtime
//!   flag.  Every instrumentation site routes through an `#[inline]` method
//!   that tests the flag first, so a disabled guard is a single
//!   loop-invariant branch the optimiser hoists; the benches assert the
//!   disabled-mode overhead stays under 2 ns/op
//!   ([`measure_disabled_overhead`]).
//!
//! # Naming convention
//!
//! Registry names are dot-separated, lower-case, `<subsystem>.<metric>`:
//! `combine.rounds`, `combine.round_size`.  Per-instance metrics that never
//! go through a registry (the scheduler's per-worker counters, the tree's
//! node-touch counters) are plain struct fields snapshotted by their owner.
//!
//! # Example
//!
//! ```
//! let reg = obs::Registry::new();
//! let rounds = reg.counter("combine.rounds");
//! let sizes = reg.histogram("combine.round_size");
//!
//! let obs = obs::Obs::new(true);
//! obs.hit(&rounds);
//! obs.record(&sizes, 17);
//!
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter("combine.rounds"), Some(1));
//! assert_eq!(snap.histogram("combine.round_size").unwrap().count(), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod counter;
mod hist;
mod registry;

pub use counter::Counter;
pub use hist::{bucket_bounds, bucket_index, HistSnapshot, Histogram, BUCKETS};
pub use registry::{MetricValue, Registry, Snapshot};

use std::time::Instant;

/// The zero-cost-when-disabled instrumentation guard.
///
/// A runtime flag, not a `#[cfg]`: the same binary can run instrumented and
/// uninstrumented, which is what lets the benches time an uninstrumented
/// pass and collect telemetry from an instrumented one without rebuilding.
/// Every helper is `#[inline]` and tests the flag first; inside a hot loop
/// the branch is loop-invariant, so the disabled path optimises to nothing
/// measurable (asserted to < 2 ns/op by the bench harness via
/// [`measure_disabled_overhead`]).
///
/// `Copy`, one byte: embed it by value wherever instrumentation lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Obs {
    enabled: bool,
}

impl Obs {
    /// A guard whose instrumentation sites compile to a skipped branch.
    pub const fn disabled() -> Obs {
        Obs { enabled: false }
    }

    /// Guard from a runtime flag.
    pub const fn new(enabled: bool) -> Obs {
        Obs { enabled }
    }

    /// Whether instrumentation sites are live.
    #[inline(always)]
    pub fn is_enabled(self) -> bool {
        self.enabled
    }

    /// Increments `counter` by one when enabled.
    #[inline(always)]
    pub fn hit(self, counter: &Counter) {
        if self.enabled {
            counter.inc();
        }
    }

    /// Adds `n` to `counter` when enabled.
    #[inline(always)]
    pub fn add(self, counter: &Counter, n: u64) {
        if self.enabled {
            counter.add(n);
        }
    }

    /// Records `value` into `hist` when enabled.
    #[inline(always)]
    pub fn record(self, hist: &Histogram, value: u64) {
        if self.enabled {
            hist.record(value);
        }
    }

    /// Reads the clock when enabled; `None` otherwise.  Pairs with
    /// [`Obs::record_since`], so a disabled guard never pays for an
    /// `Instant::now()` — on some systems a vDSO call dwarfing the guarded
    /// work itself.
    #[inline(always)]
    pub fn now(self) -> Option<Instant> {
        if self.enabled {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Records the nanoseconds elapsed since `start` (obtained from
    /// [`Obs::now`]) into `hist`; no-op when `start` is `None`.
    #[inline(always)]
    pub fn record_since(self, hist: &Histogram, start: Option<Instant>) {
        if let Some(start) = start {
            let ns = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            hist.record(ns);
        }
    }
}

/// Measures the per-operation overhead, in nanoseconds, that a *disabled*
/// [`Obs`] guard adds to a tight loop — the number the benches assert stays
/// under 2 ns/op.
///
/// Two loops of `iters` iterations run `reps` times each: a baseline
/// (wrapping add of a black-boxed index) and the same loop with one
/// [`Obs::hit`] through a disabled guard.  The minimum time of each variant
/// is compared; the result can be slightly negative on a noisy machine,
/// which callers should treat as zero overhead.
pub fn measure_disabled_overhead(iters: u64, reps: usize) -> f64 {
    use std::hint::black_box;

    // Black-boxed so the compiler cannot constant-fold the flag away — this
    // must measure the runtime branch, not a `#[cfg]`.
    let obs = black_box(Obs::disabled());
    let counter = Counter::new();
    let mut best_base = f64::INFINITY;
    let mut best_guarded = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let mut acc = 0u64;
        for i in 0..iters {
            acc = acc.wrapping_add(black_box(i));
        }
        black_box(acc);
        best_base = best_base.min(start.elapsed().as_secs_f64());

        let start = Instant::now();
        let mut acc = 0u64;
        for i in 0..iters {
            acc = acc.wrapping_add(black_box(i));
            obs.hit(&counter);
        }
        black_box(acc);
        black_box(counter.get());
        best_guarded = best_guarded.min(start.elapsed().as_secs_f64());
    }
    (best_guarded - best_base) * 1e9 / iters as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_guard_touches_nothing() {
        let obs = Obs::disabled();
        let c = Counter::new();
        let h = Histogram::new();
        obs.hit(&c);
        obs.add(&c, 10);
        obs.record(&h, 5);
        assert!(obs.now().is_none());
        obs.record_since(&h, obs.now());
        assert!(!obs.is_enabled());
        assert_eq!(c.get(), 0);
        assert_eq!(h.snapshot().count(), 0);
    }

    #[test]
    fn enabled_guard_counts_and_times() {
        let obs = Obs::new(true);
        let c = Counter::new();
        let h = Histogram::new();
        obs.hit(&c);
        obs.add(&c, 9);
        obs.record(&h, 3);
        let t = obs.now();
        assert!(t.is_some());
        obs.record_since(&h, t);
        assert_eq!(c.get(), 10);
        assert_eq!(h.snapshot().count(), 2);
    }

    #[test]
    fn overhead_measurement_returns_finite_small_number() {
        // Smoke only (debug builds are slow and unoptimised); the < 2 ns
        // release-mode assertion lives in the bench harness.
        let ns = measure_disabled_overhead(10_000, 3);
        assert!(ns.is_finite());
        assert!(ns.abs() < 1_000.0, "implausible overhead: {ns} ns/op");
    }
}
