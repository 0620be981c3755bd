//! Scheduler stress and lifecycle suite for the lock-free `forkjoin` pool.
//!
//! The Chase-Lev deque swap moved `join`'s hot path off mutexes, so steal
//! races, lost wakeups, and shutdown hangs can no longer be ruled out by
//! lock discipline — they have to be shaken out empirically.  The same goes
//! for `Pool::spawn`'s fire-and-forget jobs, which nobody waits for: one
//! lost in the injector at shutdown would go unnoticed but for the tally.  These tests
//! hammer the scheduler across pool sizes 1–8 (on any host, including
//! single-core CI runners, where oversubscription maximises preemption at
//! awkward interleavings) and check every result against sequential
//! oracles.  A scheduler bug here shows up as a wrong sum, a
//! `BTreeSet`-oracle divergence, or a hang (CI's timeout is the detector
//! for lost wakeups and shutdown deadlocks).

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

use batchapi::{Batch, BatchedMap, MapView};
use forkjoin::{join, Pool, PoolBuildError};
use pbist::IstSet;
use workloads::{self, OpKind};

/// Pool sizes every stress test sweeps.  Deliberately past the physical
/// core count: oversubscribed workers get preempted mid-`join`, which is
/// exactly when deque races surface.
const POOL_SIZES: &[usize] = &[1, 2, 3, 4, 6, 8];

// ---------------------------------------------------------------------------
// Stress: join shapes
// ---------------------------------------------------------------------------

/// A linear chain of `join`s: each level forks a trivial leaf and recurses
/// on the other branch, so the chain's continuation keeps getting pushed,
/// stolen, and popped back at every depth.
fn nested_chain(depth: usize) -> u64 {
    if depth == 0 {
        return 1;
    }
    let (rest, leaf) = join(|| nested_chain(depth - 1), || 1u64);
    rest + leaf
}

#[test]
fn deeply_nested_join_chain_across_pool_sizes() {
    const DEPTH: usize = 2_000;
    for &threads in POOL_SIZES {
        // Deep chains genuinely recurse on worker stacks; give workers room
        // (this also exercises `PoolBuilder::stack_size`).
        let pool = Pool::builder()
            .num_threads(threads)
            .stack_size(16 * 1024 * 1024)
            .build()
            .unwrap();
        let total = pool.install(|| nested_chain(DEPTH));
        assert_eq!(total, DEPTH as u64 + 1, "threads={threads}");
    }
}

/// Fans a slice of counters out to single-element leaves, one tiny task per
/// element — thousands of jobs whose bodies are two instructions, so the
/// run is almost pure scheduler traffic.
fn touch_all(counters: &[AtomicUsize]) {
    match counters.len() {
        0 => {}
        1 => {
            counters[0].fetch_add(1, Ordering::Relaxed);
        }
        n => {
            let (lo, hi) = counters.split_at(n / 2);
            join(|| touch_all(lo), || touch_all(hi));
        }
    }
}

#[test]
fn thousands_of_tiny_tasks_each_run_exactly_once() {
    const TASKS: usize = 10_000;
    const REPS: usize = 3;
    for &threads in POOL_SIZES {
        let pool = Pool::new(threads).unwrap();
        for rep in 0..REPS {
            let counters: Vec<AtomicUsize> = (0..TASKS).map(|_| AtomicUsize::new(0)).collect();
            pool.install(|| touch_all(&counters));
            for (i, c) in counters.iter().enumerate() {
                assert_eq!(
                    c.load(Ordering::Relaxed),
                    1,
                    "threads={threads} rep={rep}: task {i} ran a wrong number of times"
                );
            }
        }
    }
}

/// Back-to-back tiny installs: between installs every worker goes to sleep
/// on the condvar, so each iteration crosses the lock-free-push/sleeper
/// handshake.  A lost wakeup hangs this test.
#[test]
fn repeated_small_installs_exercise_sleep_wake() {
    for &threads in &[1, 2, 4] {
        let pool = Pool::new(threads).unwrap();
        for i in 0..2_000u64 {
            let (a, b) = pool.install(|| join(move || i, move || i * 2));
            assert_eq!((a, b), (i, i * 2));
        }
    }
}

// ---------------------------------------------------------------------------
// Stress: the real consumer — batched IST traffic vs a sequential oracle
// ---------------------------------------------------------------------------

/// Runs mixed insert/remove/contains batches through an `IstSet` inside the
/// pool, checking flags, aggregates, and tree invariants against a
/// `BTreeSet` after every batch.
fn drive_ist_against_oracle(pool: &Pool, ops: &[workloads::OpBatch]) {
    let mut set: IstSet<u64> = IstSet::from_sorted(Vec::new());
    let mut oracle = BTreeSet::new();
    for (step, op) in ops.iter().enumerate() {
        let batch = Batch::from_unsorted(op.keys.clone());
        let flags = pool.install(|| match op.kind {
            OpKind::Insert => set.batch_insert(&batch),
            OpKind::Remove => set.batch_remove(&batch),
            OpKind::Contains => set.batch_contains(&batch),
        });
        let expected: Vec<bool> = batch
            .iter()
            .map(|k| match op.kind {
                OpKind::Insert => oracle.insert(*k),
                OpKind::Remove => oracle.remove(k),
                OpKind::Contains => oracle.contains(k),
            })
            .collect();
        assert_eq!(flags, expected, "step {step}: {:?} flags diverged", op.kind);
        assert_eq!(set.len(), oracle.len(), "step {step}: len diverged");
        set.check_invariants().unwrap();
    }
}

#[test]
fn mixed_op_batches_match_oracle_across_pool_sizes() {
    // Several repetitions per size with different seeds: steal interleavings
    // differ run to run, and wrong steals corrupt results deterministically
    // detectable by the oracle.
    for &threads in POOL_SIZES {
        let pool = Pool::new(threads).unwrap();
        for rep in 0..2 {
            let seed = 1000 + threads as u64 * 10 + rep;
            let ops = workloads::mixed_op_batches(seed, 10, 1_500, 0..20_000, (3, 2, 2));
            drive_ist_against_oracle(&pool, &ops);
        }
    }
}

#[test]
fn concurrent_installs_of_batched_traffic() {
    // Multiple outside threads drive independent sets through one pool at
    // once: injector contention plus intra-pool stealing.
    let pool = Arc::new(Pool::new(4).unwrap());
    thread::scope(|scope| {
        for t in 0..4u64 {
            let pool = Arc::clone(&pool);
            scope.spawn(move || {
                let ops = workloads::mixed_op_batches(2000 + t, 8, 1_000, 0..10_000, (2, 1, 1));
                drive_ist_against_oracle(&pool, &ops);
            });
        }
    });
}

// ---------------------------------------------------------------------------
// Lifecycle edges
// ---------------------------------------------------------------------------

#[test]
fn zero_thread_builder_is_rejected() {
    assert!(matches!(
        Pool::builder().num_threads(0).build(),
        Err(PoolBuildError::ZeroThreads)
    ));
    let err = Pool::new(0).unwrap_err();
    assert!(err.to_string().contains("at least one"));
}

#[test]
fn install_reentry_runs_inline_on_same_pool() {
    for &threads in &[1, 4] {
        let pool = Pool::new(threads).unwrap();
        // Same-pool re-entry must run inline — on a 1-worker pool anything
        // else deadlocks.  Nest through a join for good measure.
        let v = pool.install(|| {
            let (x, y) = join(|| pool.install(|| 21), || 2);
            pool.install(|| x * y)
        });
        assert_eq!(v, 42, "threads={threads}");
    }
}

#[test]
fn install_reentry_across_two_pools() {
    let outer = Pool::new(2).unwrap();
    let inner = Pool::new(2).unwrap();
    let v = outer.install(|| {
        let (a, b) = join(
            || inner.install(|| nested_chain(64)),
            || inner.install(|| nested_chain(32)),
        );
        a + b
    });
    assert_eq!(v, 65 + 33);
    // Both pools stay usable afterwards.
    assert_eq!(outer.install(|| 1), 1);
    assert_eq!(inner.install(|| 2), 2);
}

#[test]
fn drop_with_jobs_in_flight_joins_all_workers() {
    // Outside threads keep the pool saturated with fork-heavy installs while
    // the main thread releases its handle immediately; the pool is dropped
    // by whichever install-holder finishes last.  Shutdown must complete
    // (no hang) and every result must still be right (no abandoned jobs).
    let pool = Arc::new(Pool::new(4).unwrap());
    let mut handles = Vec::new();
    for _ in 0..4 {
        let pool = Arc::clone(&pool);
        handles.push(thread::spawn(move || {
            let mut acc = 0u64;
            for _ in 0..20 {
                acc += pool.install(|| nested_chain(200));
            }
            acc
        }));
    }
    drop(pool);
    for handle in handles {
        assert_eq!(handle.join().unwrap(), 20 * 201);
    }
}

/// Fire-and-forget jobs from four outside threads, interleaved with their
/// installs; every fourth job is spawned from inside an install, i.e. from
/// a worker.  Each job forks once, and the pool is dropped as soon as the
/// last client returns, so the drop itself runs whatever is still queued.
/// Every job must run exactly once, at every pool size.
#[test]
fn spawns_interleaved_with_installs_each_run_exactly_once() {
    const CLIENTS: usize = 4;
    const SPAWNS: usize = 400;
    for &threads in POOL_SIZES {
        let pool = Arc::new(Pool::new(threads).unwrap());
        let runs: Arc<Vec<AtomicUsize>> =
            Arc::new((0..CLIENTS * SPAWNS).map(|_| AtomicUsize::new(0)).collect());
        let clients: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let (pool, runs) = (Arc::clone(&pool), Arc::clone(&runs));
                thread::spawn(move || {
                    for i in 0..SPAWNS {
                        let job = client * SPAWNS + i;
                        let runs = Arc::clone(&runs);
                        let run = move || {
                            join(|| runs[job].fetch_add(1, Ordering::Relaxed), || ());
                        };
                        if i % 4 == 0 {
                            let ((), doubled) = pool.install(|| join(|| pool.spawn(run), || i * 2));
                            assert_eq!(doubled, i * 2);
                        } else {
                            pool.spawn(run);
                        }
                    }
                })
            })
            .collect();
        for client in clients {
            client.join().unwrap();
        }
        drop(Arc::into_inner(pool).expect("every client has let go"));
        for (job, count) in runs.iter().enumerate() {
            let count = count.load(Ordering::Relaxed);
            assert_eq!(count, 1, "threads={threads}: job {job} ran {count} times");
        }
    }
}

/// `Pool::join` from four outside threads at once — every third one
/// nested inside the caller's half of another, so one caller has two
/// offers out — interleaved with installs and spawns, and the pool dropped
/// as soon as the last client returns.  Both halves of every join and
/// every spawned job must run exactly once, each offer must be counted
/// once as reclaimed or taken, and nothing may hang.
#[test]
fn outside_joins_mixed_with_installs_and_spawns_each_run_exactly_once() {
    const CLIENTS: usize = 4;
    const CALLS: usize = 300;
    // Per call: the outer join's two halves, the nested join's two (every
    // third call), the spawned job.
    const SLOTS: usize = 5;
    for &threads in POOL_SIZES {
        let pool = Pool::builder()
            .num_threads(threads)
            .metrics(true)
            .build()
            .map(Arc::new)
            .unwrap();
        let runs: Arc<Vec<AtomicUsize>> = Arc::new(
            (0..CLIENTS * CALLS * SLOTS)
                .map(|_| AtomicUsize::new(0))
                .collect(),
        );
        let clients: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let (pool, runs) = (Arc::clone(&pool), Arc::clone(&runs));
                thread::spawn(move || {
                    for i in 0..CALLS {
                        let slot = (client * CALLS + i) * SLOTS;
                        let run = |at: usize, depth: usize| {
                            runs[slot + at].fetch_add(1, Ordering::Relaxed);
                            nested_chain(depth)
                        };
                        let a = || {
                            if i % 3 == 0 {
                                let (x, y) = pool.join(|| run(2, 8), || run(3, 24));
                                run(0, 0) + x + y
                            } else {
                                run(0, 16)
                            }
                        };
                        let (x, y) = pool.join(a, || run(1, 1 + i % 40));
                        assert_eq!(
                            (x, y),
                            (if i % 3 == 0 { 35 } else { 17 }, 2 + i as u64 % 40)
                        );
                        if i % 4 == 0 {
                            assert_eq!(pool.install(|| nested_chain(32)), 33);
                        }
                        let runs = Arc::clone(&runs);
                        pool.spawn(move || {
                            runs[slot + 4].fetch_add(1, Ordering::Relaxed);
                        });
                    }
                })
            })
            .collect();
        for client in clients {
            client.join().unwrap();
        }
        let pool = Arc::into_inner(pool).expect("every client has let go");
        let offers = (CLIENTS * CALLS) as u64 + (CLIENTS * CALLS.div_ceil(3)) as u64;
        let m = pool.metrics();
        assert_eq!(
            m.offers_reclaimed + m.offers_taken,
            offers,
            "threads={threads}"
        );
        drop(pool);
        for (slot, count) in runs.iter().enumerate() {
            let (call, at) = (slot / SLOTS % CALLS, slot % SLOTS);
            let want = usize::from(call % 3 == 0 || !matches!(at, 2 | 3));
            let count = count.load(Ordering::Relaxed);
            assert_eq!(
                count, want,
                "threads={threads}: slot {slot} ran {count} times"
            );
        }
    }
}

#[test]
fn rapid_build_use_drop_cycles() {
    // Each cycle ends with workers mid-sleep or mid-steal; `terminate` must
    // wake and join them all, every time, at every size.
    for round in 0..10 {
        for &threads in &[1, 2, 8] {
            let pool = Pool::new(threads).unwrap();
            let total = pool.install(|| nested_chain(100 + round));
            assert_eq!(total, 101 + round as u64);
            drop(pool);
        }
    }
}

#[test]
fn drop_without_any_install() {
    // Workers have gone to sleep waiting for work that never comes;
    // terminate-vs-sleeper must not lose the shutdown signal.
    for &threads in POOL_SIZES {
        let pool = Pool::new(threads).unwrap();
        drop(pool);
    }
}

#[test]
fn pool_survives_panicking_jobs_then_shuts_down() {
    let pool = Pool::new(3).unwrap();
    for _ in 0..5 {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.install(|| {
                join(|| 1, || -> u64 { panic!("stress boom") });
            })
        }));
        assert!(result.is_err());
        // The pool must still schedule correctly after unwinding.
        assert_eq!(pool.install(|| nested_chain(50)), 51);
    }
}
