//! The allocation gate: what a point operation on the tree asks of the
//! allocator, counted.  A point write runs the batch recursion on a batch
//! of one; this is the guard that it is served as a point — no per-level
//! scratch — and that a batched lookup allocates its answers and nothing
//! per node.  The same count through the concurrent front-end guards that
//! its read path — a stripe drawn, a read guard, a counter — adds nothing
//! to a point read, and its publish only the snapshot's `Arc` to a write.
//!
//! An integration test of its own so the counting `#[global_allocator]`
//! wraps this binary alone.  Counts are per thread, so the harness's other
//! threads cannot leak into them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use batchapi::{Batch, BatchedMap, BatchedSet, MapView};
use combine::ConcurrentSet;
use forkjoin::Pool;
use pbist::IstSet;

/// `System`, counting this thread's `alloc` and `realloc` calls.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded to `System` unchanged; the counter is a
// const-initialised thread-local `Cell` with no destructor, so touching it
// neither allocates nor runs during thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.set(ALLOCATIONS.get() + 1);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.set(ALLOCATIONS.get() + 1);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `work` makes on this thread, per unit of `per`.
fn allocations_per(per: usize, work: impl FnOnce()) -> f64 {
    let before = ALLOCATIONS.get();
    work();
    (ALLOCATIONS.get() - before) as f64 / per as f64
}

#[test]
fn point_operations_allocate_like_points() {
    const N: u64 = 1_000_000;
    const OPS: usize = 10_000;
    // The even keys of `[0, 2N)` resident; seeded odd keys are fresh and
    // seeded even keys present, each drawn before the counted window.
    let mut set = IstSet::from_sorted((0..N).map(|i| i * 2).collect()).with_metrics(true);
    let mut seed = 0xA110C;
    let mut draw = |odd: u64| -> Vec<u64> {
        seed += 1;
        let ranks = workloads::uniform_keys(seed, OPS, 0..N);
        ranks.into_iter().map(|rank| rank * 2 + odd).collect()
    };

    let reads = draw(0).into_iter().chain(draw(1)).collect::<Vec<_>>();
    let contains = allocations_per(reads.len(), || {
        assert_eq!(reads.iter().filter(|&key| set.contains(key)).count(), OPS);
    });

    let fresh = draw(1);
    let insert = allocations_per(OPS, || {
        for key in &fresh {
            set.insert_one(key);
        }
    });
    let present = draw(0);
    let remove = allocations_per(OPS, || {
        for key in &present {
            set.remove_one(key);
        }
    });

    // Under a live clone — every round of the concurrent front-end — each
    // write copies its path first.
    let (fresh, present) = (draw(1), draw(0));
    let before = set.metrics();
    let shared = allocations_per(2 * OPS, || {
        for (new, old) in fresh.iter().zip(&present) {
            let snapshot = set.clone();
            set.insert_one(new);
            drop(snapshot);
            let snapshot = set.clone();
            set.remove_one(old);
            drop(snapshot);
        }
    });
    // Keys written into new leaf arrays: a copied delta, or now and then a
    // folded base.
    let copied = set.metrics().delta(&before).cow_keys as f64 / (2 * OPS) as f64;
    set.check_invariants().unwrap();

    println!(
        "allocations per op: contains {contains}, insert_one {insert}, remove_one {remove}, \
         point write under a live clone {shared}"
    );
    println!("leaf keys copied per point write under a live clone: {copied}");
    assert_eq!(contains, 0.0, "a point read allocates");
    // A built leaf's delta is empty, so its first insert allocates it, at
    // its full capacity; 10⁶ keys are 1 000 leaves, met about ten times
    // each here.  A removal finds the delta allocated and reuses it.
    assert!(insert <= 0.2, "unshared insert_one: {insert} allocations");
    assert!(remove <= 0.05, "unshared remove_one: {remove} allocations");
    // The root (node, chunk vector, one chunk) and the leaf (node, delta;
    // node and base when it folds).
    assert!(shared <= 5.0, "shared point write: {shared} allocations");

    // Whole batches: a lookup outside a pool allocates its answer vector
    // and nothing per node; the upsert is reported for ROADMAP item 7 to
    // halve, nothing asserted.
    let batch = Batch::from_unsorted((0..16_384u64).map(|i| i * 122 + 1).collect());
    let lookup = allocations_per(batch.len(), || drop(set.batch_contains(&batch)));
    let upsert = allocations_per(batch.len(), || drop(set.batch_insert(&batch)));
    println!(
        "allocations per key of one {}-key batch: batch_contains {lookup}, batch_insert {upsert}",
        batch.len()
    );
    let per_call = lookup * batch.len() as f64;
    assert!(
        per_call <= 2.0,
        "batch_contains: {per_call} allocations per call"
    );

    // The same shape under a live clone, as in every round of the stack:
    // about 16 keys per 1 000-key leaf, so each leaf is copied once — a
    // node and its delta, 2 allocations per leaf; a node, the merged run
    // and its base, 3, where the delta folds — below the path copy of the
    // root.
    let fresh = Batch::from_unsorted((0..16_384u64).map(|i| i * 122 + 3).collect());
    let snapshot = set.clone();
    let shared_insert = allocations_per(fresh.len(), || drop(set.batch_insert(&fresh)));
    drop(snapshot);
    let snapshot = set.clone();
    let shared_remove = allocations_per(fresh.len(), || drop(set.batch_remove(&fresh)));
    drop(snapshot);
    set.check_invariants().unwrap();
    println!(
        "allocations per key of one {}-key batch under a live clone: batch_insert \
         {shared_insert}, batch_remove {shared_remove}",
        fresh.len()
    );
    assert!(
        shared_insert <= 0.25,
        "shared batch_insert: {shared_insert} allocations per key"
    );
}

#[test]
fn front_end_point_operations_allocate_like_the_tree() {
    const N: u64 = 1_000_000;
    const OPS: usize = 10_000;
    let tree = IstSet::from_sorted((0..N).map(|i| i * 2).collect());
    let set = ConcurrentSet::new(tree, Pool::new(1).unwrap());
    let ranks = |seed, odd| -> Vec<u64> {
        let ranks = workloads::uniform_keys(seed, OPS, 0..N);
        ranks.into_iter().map(|rank| rank * 2 + odd).collect()
    };

    // Counted from this thread's first read on, which draws its stripe.
    let reads = ranks(0xF20E7, 0)
        .into_iter()
        .chain(ranks(0xF20E8, 1))
        .collect::<Vec<_>>();
    let contains = allocations_per(reads.len(), || {
        assert_eq!(reads.iter().filter(|&key| set.contains(key)).count(), OPS);
    });

    // Each write is a round: the tree's point write under the live clone
    // the last round published, then the new snapshot's `Arc`.  The old
    // version is freed on this thread, which counts no frees.
    let (fresh, present) = (ranks(0xF20E9, 1), ranks(0xF20EA, 0));
    let write = allocations_per(2 * OPS, || {
        for (new, old) in fresh.iter().zip(&present) {
            set.insert(*new);
            set.remove(old);
        }
    });
    set.into_inner().check_invariants().unwrap();

    println!("front-end allocations per op: contains {contains}, point write {write}");
    assert_eq!(contains, 0.0, "a front-end point read allocates");
    // The tree's shared point write (at most 5, see above) and the `Arc`.
    assert!(write <= 6.0, "front-end point write: {write} allocations");
}
