//! Sharded service tier: a batch-splitting router over N flat-combining
//! front-ends.
//!
//! One [`combine::ConcurrentSet`] is one combiner — one serialisation
//! point, no matter how many clients publish into it.  This crate is the
//! production answer the ROADMAP calls for: partition the key space across
//! `N` shards, each its own `ConcurrentSet` over its own backend, and route
//! traffic at two granularities:
//!
//! * **Point ops** ([`ShardedSet::insert`] / [`ShardedSet::remove`] /
//!   [`ShardedSet::contains`]) go straight to the owning shard — one
//!   [`ShardRouter::shard_of`] call of routing overhead on top of the
//!   shard's own fast path.
//! * **Batched ops** ([`ShardedSet::batch_insert`] and friends) split one
//!   incoming sorted [`Batch`] into contiguous per-shard sub-batches
//!   ([`ShardRouter::split`] — a handful of narrowing binary searches whose
//!   offsets are the exclusive scan of per-shard counts, exactly the carve
//!   `pbist`'s joint traversal performs at every inner node), execute the
//!   sub-batches (in parallel on the tier's fork-join pool once the batch
//!   is large enough), and stitch per-op results back into batch order by
//!   concatenating the per-shard runs.
//!
//! # Routing contract
//!
//! There is one routing discipline: the tier is an **ordered partition**
//! of the key space.  The router's assignment is total, stable and
//! *monotone* — shard `i` owns a contiguous key range below shard
//! `i + 1`'s; that is the [`ShardRouter`] contract, checked by
//! [`ShardRouter::split`] — so **every operation on a key — point or
//! batched — executes on the same shard**, each shard serialises its
//! operations through its combiner, and ordered queries visit shards in
//! index order ([`ShardedSet::range_keys`] concatenates the per-shard runs,
//! [`ShardedSet::kth`] walks cardinalities).  The tier therefore
//! guarantees **per-shard linearizability**: restricted to any one shard's
//! key range, the concurrent history is linearizable (each shard's commit
//! log is a witness, replayable against a sequential oracle — the
//! `service_stress` suite does exactly that).
//!
//! There is **no cross-shard ordering guarantee**.  Two operations on keys
//! of different shards commit independently; a client that observes op A
//! on shard 1 and then issues op B on shard 2 gets no promise that another
//! client sees them in that order.  Aggregates over several shards
//! ([`ShardedSet::len`], and the ordered queries [`ShardedSet::range_keys`]
//! / [`ShardedSet::range_count`] / [`ShardedSet::predecessor`] /
//! [`ShardedSet::successor`] / [`ShardedSet::kth`]) are sums or stitches
//! of per-shard linearisation points taken at different instants, not a
//! consistent cut.  This is the standard
//! sharded-store contract; callers needing cross-shard atomicity must add
//! a coordination layer on top.
//!
//! # Durability
//!
//! [`DurableTier`] is the persistent variant: the same router contract
//! over one [`durable::DurableSet`] per shard, each persisting its key
//! range in its own subdirectory (WAL + snapshots), with tier-wide
//! recovery on open.  See [`durable_tier`](DurableTier)'s docs.
//!
//! # Poisoning
//!
//! A backend panic mid-round poisons its shard (see
//! [`combine`'s poisoning contract](combine::ConcurrentSet#poisoning)) and
//! — as soon as the tier observes it — the whole tier: the panic
//! propagates to the issuing client, every later tier operation panics
//! fast, and clients blocked on *other* shards either complete normally or
//! observe the tier-level poison.  Nothing hangs.
//!
//! # Example
//!
//! ```
//! use service::{RangeRouter, ShardedSet};
//!
//! let router = RangeRouter::new(4, 0u64, 10_000);
//! let set = ShardedSet::new(
//!     router,
//!     (0..4)
//!         .map(|_| {
//!             combine::ConcurrentSet::new(
//!                 pbist::IstSet::from_unsorted(Vec::new()),
//!                 forkjoin::Pool::new(1).expect("shard pool"),
//!             )
//!         })
//!         .collect(),
//!     forkjoin::Pool::new(2).expect("tier pool"),
//! );
//!
//! assert!(set.insert(7));
//! let batch = batchapi::Batch::from_unsorted(vec![7u64, 2_500, 9_999]);
//! assert_eq!(set.batch_insert(&batch), vec![false, true, true]);
//! assert_eq!(set.batch_contains(&batch), vec![true, true, true]);
//! assert_eq!(set.len(), 3);
//! ```

#![warn(missing_docs)]

mod durable_tier;
mod router;

pub use durable_tier::DurableTier;
pub use router::{RangeRouter, ShardRouter, SplitBatch};

use std::ops::Bound;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use batchapi::{Batch, BatchedSet};
use combine::{ConcurrentSet, Round};
use forkjoin::Pool;
use obs::{Counter, Histogram, Registry, Snapshot};

/// Handles cloned out of the tier registry once at construction, so the
/// routing paths hit the atomics directly.
struct ServiceMetrics {
    /// `service.batches_split` — incoming batches split across shards.
    batches_split: Arc<Counter>,
    /// `service.point_ops` — point operations routed to a shard.
    point_ops: Arc<Counter>,
    /// `service.range_ops` — ordered queries fanned out to every shard
    /// (`range_keys` / `range_count` / `predecessor` / `successor` /
    /// `kth`).
    range_ops: Arc<Counter>,
    /// `service.empty_subbatches` — sub-batches that received no keys
    /// (their shard was skipped for that batch).
    empty_subbatches: Arc<Counter>,
    /// `service.poisoned` — shard panics observed (and promoted) by the
    /// tier.
    poisoned: Arc<Counter>,
    /// `service.subbatch_size` — keys per non-empty per-shard sub-batch.
    subbatch_size: Arc<Histogram>,
}

impl ServiceMetrics {
    fn new(registry: &Registry) -> ServiceMetrics {
        ServiceMetrics {
            batches_split: registry.counter("service.batches_split"),
            point_ops: registry.counter("service.point_ops"),
            range_ops: registry.counter("service.range_ops"),
            empty_subbatches: registry.counter("service.empty_subbatches"),
            poisoned: registry.counter("service.poisoned"),
            subbatch_size: registry.histogram("service.subbatch_size"),
        }
    }
}

/// What a batched tier call runs on every shard it touches.
#[derive(Clone, Copy)]
enum BatchOp {
    Contains,
    Insert,
    Remove,
}

/// Promotes a shard panic to tier-level poison on unwind.  Scoped tightly
/// around each delegation into a shard, so only a panic *escaping a shard
/// operation* (the shard's own poison panic, or the backend panic that
/// caused it) trips the tier flag.
struct PoisonOnUnwind<'a> {
    poisoned: &'a AtomicBool,
    counter: &'a Counter,
}

impl Drop for PoisonOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // SeqCst mirrors the shard-level poison store: the flag must be
            // visible to every fenced re-check before the unwind finishes
            // releasing whatever the panicking client held.
            if !self.poisoned.swap(true, Ordering::SeqCst) {
                self.counter.inc();
            }
        }
    }
}

/// A concurrent ordered set partitioned across `N`
/// [`combine::ConcurrentSet`] shards by a [`ShardRouter`].
///
/// See the [module docs](self) for the routing contract (per-shard
/// linearizability, no cross-shard ordering) and the poisoning semantics.
/// Shared by reference (typically `Arc`); all operations take `&self`.
pub struct ShardedSet<K, S, R> {
    router: R,
    shards: Vec<ConcurrentSet<K, S>>,
    /// Tier pool executing per-shard sub-batches in parallel.  Distinct
    /// from every shard's own pool, so a tier worker blocking on a shard
    /// combiner can never form a wait cycle.
    pool: Pool,
    /// Tier-level poison flag; set when any delegation into a shard
    /// unwinds.  Checked first by every tier operation.
    poisoned: AtomicBool,
    registry: Registry,
    metrics: ServiceMetrics,
}

impl<K, S, R> ShardedSet<K, S, R>
where
    K: Ord + Clone + Send + Sync + 'static,
    S: BatchedSet<K> + Clone + Send + Sync,
    R: ShardRouter<K> + Sync,
{
    /// Builds a tier from a router, its shards (one `ConcurrentSet` per
    /// router shard, index-aligned), and the tier pool.
    ///
    /// # Panics
    ///
    /// Panics when `shards.len() != router.num_shards()` or no shards are
    /// given.
    pub fn new(router: R, shards: Vec<ConcurrentSet<K, S>>, pool: Pool) -> ShardedSet<K, S, R> {
        assert!(!shards.is_empty(), "a tier needs at least one shard");
        assert_eq!(
            shards.len(),
            router.num_shards(),
            "router partitions {} ways but {} shards were given",
            router.num_shards(),
            shards.len()
        );
        let registry = Registry::new();
        let metrics = ServiceMetrics::new(&registry);
        ShardedSet {
            router,
            shards,
            pool,
            poisoned: AtomicBool::new(false),
            registry,
            metrics,
        }
    }

    /// Number of shards in the tier.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// One shard's front-end (its seq, snapshots and metrics), by router
    /// index.
    ///
    /// # Panics
    ///
    /// Panics when `shard >= num_shards()`.
    pub fn shard(&self, shard: usize) -> &ConcurrentSet<K, S> {
        &self.shards[shard]
    }

    /// Inserts `key` on its owning shard, returning `true` iff it was
    /// newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if the tier is [poisoned](self#poisoning) (same for every
    /// other operation).
    pub fn insert(&self, key: K) -> bool {
        self.check_poisoned();
        self.metrics.point_ops.inc();
        // Route before arming the guard (here and in the two below): a
        // panicking router is the caller's bug, not a shard's failure.
        let shard = &self.shards[self.router.shard_of(&key)];
        let _promote = self.poison_guard();
        shard.insert(key)
    }

    /// Removes `key` from its owning shard, returning `true` iff it was
    /// present.
    pub fn remove(&self, key: &K) -> bool {
        self.check_poisoned();
        self.metrics.point_ops.inc();
        let shard = &self.shards[self.router.shard_of(key)];
        let _promote = self.poison_guard();
        shard.remove(key)
    }

    /// Returns `true` iff `key` is present on its owning shard — a
    /// wait-free read against the shard's published snapshot.
    pub fn contains(&self, key: &K) -> bool {
        self.check_read_poisoned();
        self.metrics.point_ops.inc();
        let shard = &self.shards[self.router.shard_of(key)];
        let _promote = self.poison_guard();
        shard.contains(key)
    }

    /// Answers one membership query per batch key, split across shards.
    /// `result[i]` answers `batch[i]`; per-shard results are per-shard
    /// linearisation points (no cross-shard snapshot — see the
    /// [module docs](self)).
    pub fn batch_contains(&self, batch: &Batch<K>) -> Vec<bool> {
        self.run_batch(BatchOp::Contains, batch)
    }

    /// Inserts every batch key on its owning shard; `result[i]` is `true`
    /// iff `batch[i]` was newly inserted.
    pub fn batch_insert(&self, batch: &Batch<K>) -> Vec<bool> {
        self.run_batch(BatchOp::Insert, batch)
    }

    /// Removes every batch key from its owning shard; `result[i]` is
    /// `true` iff `batch[i]` was present.
    pub fn batch_remove(&self, batch: &Batch<K>) -> Vec<bool> {
        self.run_batch(BatchOp::Remove, batch)
    }

    /// Total keys across all shards.
    ///
    /// # Consistency contract
    ///
    /// Each shard's count is read at that shard's own linearisation
    /// point; shards are visited in index order with no tier-wide lock
    /// freezing them in between, so the sum is **not a consistent
    /// cross-shard cut** (see the [module docs](self)).  What *is*
    /// pinned:
    ///
    /// * every per-shard count is exact at the instant that shard is
    ///   read, so the sum lies between the sum of per-shard minimum and
    ///   per-shard maximum cardinalities over the call's duration;
    /// * under a *monotone* concurrent workload (only inserts, or only
    ///   removes, in flight) that bracket collapses to the total
    ///   cardinality just before and just after the call — in
    ///   particular, every operation **acknowledged before the call
    ///   began** is counted, and no operation **issued after the call
    ///   returned** is;
    /// * a quiescent tier (no concurrent writers) gets the exact count.
    ///
    /// Non-monotone concurrent histories can yield a sum no single
    /// instant exhibited (shard 0 counted before its insert, shard 1
    /// after its remove).  The `service_stress` suite pins the monotone
    /// bracket against acknowledged-operation counters.
    pub fn len(&self) -> usize {
        self.check_read_poisoned();
        let _promote = self.poison_guard();
        self.shards.iter().map(ConcurrentSet::len).sum()
    }

    /// Returns `true` when no shard holds any key (same
    /// [consistency contract](ShardedSet::len) as `len`: per-shard
    /// counts at independent instants, exact when quiescent).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Keys in `(lo, hi)` across all shards, ascending.
    ///
    /// Every shard answers the full bounds from its own published
    /// snapshot (a wait-free read) and the tier concatenates the runs in
    /// shard order — shard `i`'s keys all sort below shard `i + 1`'s (the
    /// [`ShardRouter`] contract).  Per-shard runs are per-shard
    /// linearisation points — the stitched result is **not** a consistent
    /// cross-shard cut (same contract as [`ShardedSet::len`]), but each
    /// shard's contribution is exactly that shard's range at its own
    /// instant, so a quiescent tier gets the exact range.
    pub fn range_keys(&self, lo: Bound<&K>, hi: Bound<&K>) -> Vec<K> {
        self.check_read_poisoned();
        self.metrics.range_ops.inc();
        let _promote = self.poison_guard();
        self.shards
            .iter()
            .flat_map(|shard| shard.range_keys(lo, hi))
            .collect()
    }

    /// Number of keys in `(lo, hi)` across all shards — the sum of
    /// per-shard counts, with [`ShardedSet::len`]'s consistency
    /// contract.
    pub fn range_count(&self, lo: Bound<&K>, hi: Bound<&K>) -> usize {
        self.check_read_poisoned();
        self.metrics.range_ops.inc();
        let _promote = self.poison_guard();
        self.shards
            .iter()
            .map(|shard| shard.range_count(lo, hi))
            .sum()
    }

    /// Greatest key strictly less than `key` anywhere in the tier — the
    /// maximum of the per-shard predecessors (each a per-shard
    /// linearisation point).
    pub fn predecessor(&self, key: &K) -> Option<K> {
        self.check_read_poisoned();
        self.metrics.range_ops.inc();
        let _promote = self.poison_guard();
        self.shards
            .iter()
            .filter_map(|shard| shard.predecessor(key))
            .max()
    }

    /// Least key strictly greater than `key` anywhere in the tier — the
    /// minimum of the per-shard successors.
    pub fn successor(&self, key: &K) -> Option<K> {
        self.check_read_poisoned();
        self.metrics.range_ops.inc();
        let _promote = self.poison_guard();
        self.shards
            .iter()
            .filter_map(|shard| shard.successor(key))
            .min()
    }

    /// The `k`-th smallest key (0-based) across all shards, or `None`
    /// when fewer than `k + 1` keys are held.
    ///
    /// Walks shards in index order subtracting cardinalities (two reads
    /// per skipped shard).  Like every cross-shard aggregate this is not a
    /// consistent cut: a shard that shrinks between the walk's `len` and
    /// `kth` reads can make a concurrent call return `None` for a rank that
    /// was momentarily occupied.
    pub fn kth(&self, k: usize) -> Option<K> {
        self.check_read_poisoned();
        self.metrics.range_ops.inc();
        let _promote = self.poison_guard();
        let mut k = k;
        for shard in &self.shards {
            let n = shard.len();
            if k < n {
                return shard.kth(k);
            }
            k -= n;
        }
        None
    }

    /// Returns `true` when the tier — or any of its shards — is poisoned.
    /// Never panics; this is the health probe.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire) || self.shards.iter().any(ConcurrentSet::is_poisoned)
    }

    /// Snapshot of the tier's own metrics (`service.*` — batch splits,
    /// sub-batch sizes, routed point ops, observed poisonings).
    pub fn metrics(&self) -> Snapshot {
        self.registry.snapshot()
    }

    /// Per-shard metric snapshots (each shard's `combine.*` registry:
    /// rounds, round sizes, fast/slow path splits), index-aligned with the
    /// router's shard numbering.
    pub fn shard_metrics(&self) -> Vec<Snapshot> {
        self.shards.iter().map(ConcurrentSet::metrics).collect()
    }

    /// Drains every shard's committed-round log (empty unless the shards
    /// were built with [`combine::Options::log_rounds`]), index-aligned
    /// with the router's shard numbering.  Each shard's log is that
    /// shard's linearisation witness.
    pub fn take_shard_rounds(&self) -> Vec<Vec<Round<K>>> {
        self.shards.iter().map(ConcurrentSet::take_rounds).collect()
    }

    /// Consumes the tier, returning its shards (dropping the tier pool).
    /// Owning `self` proves no operation is in flight.
    pub fn into_shards(self) -> Vec<ConcurrentSet<K, S>> {
        self.shards
    }

    /// Splits `batch` across shards, executes every non-empty sub-batch on
    /// its shard (in parallel on the tier pool once a mutating batch reaches
    /// `PARALLEL_CUTOFF` keys), and stitches the per-shard flags back into
    /// batch order.
    fn run_batch(&self, op: BatchOp, batch: &Batch<K>) -> Vec<bool> {
        if matches!(op, BatchOp::Contains) {
            self.check_read_poisoned();
        } else {
            self.check_poisoned();
        }
        if batch.is_empty() {
            return Vec::new();
        }
        let split = self.router.split(batch);
        self.metrics.batches_split.inc();
        for sub in split.sub_batches() {
            if sub.is_empty() {
                self.metrics.empty_subbatches.inc();
            } else {
                self.metrics.subbatch_size.record(sub.len() as u64);
            }
        }

        // One result run per shard (empty sub-batches report zero flags);
        // tasks carry only the non-empty shards.
        let mut results: Vec<Vec<bool>> = (0..self.shards.len()).map(|_| Vec::new()).collect();
        let mut tasks: Vec<(usize, &Batch<K>, &mut Vec<bool>)> = split
            .sub_batches()
            .iter()
            .zip(results.iter_mut())
            .enumerate()
            .filter(|(_, (sub, _))| !sub.is_empty())
            .map(|(shard, (sub, run))| (shard, sub, run))
            .collect();

        // Mutating batches of at least this many keys, spread over more
        // than one shard, run their sub-batches in parallel on the tier
        // pool; smaller ones run the shards in turn on the issuing thread
        // (a pool round-trip costs more than a couple of small
        // sub-batches).  A constant, not an option: every caller ran at
        // this value, and ROADMAP item 3 replaces it with one rule derived
        // from the measured install and per-key costs.
        const PARALLEL_CUTOFF: usize = 256;
        // All-read batches skip the tier pool: each sub-batch is answered
        // from its shard's published snapshot (a few binary searches), so
        // a pool round-trip would cost more than the reads themselves.
        let pooled =
            !matches!(op, BatchOp::Contains) && batch.len() >= PARALLEL_CUTOFF && tasks.len() > 1;
        if pooled {
            self.pool.install(|| {
                parprim::for_each_task(&mut tasks, |(shard, sub, run)| {
                    **run = self.exec_shard(op, *shard, sub);
                });
            });
        } else {
            for (shard, sub, run) in &mut tasks {
                **run = self.exec_shard(op, *shard, sub);
            }
        }
        let mut out = Vec::with_capacity(batch.len());
        split.stitch(&results, &mut out);
        out
    }

    /// Delegates one sub-batch to its shard, promoting any panic that
    /// escapes the shard to tier-level poison.
    fn exec_shard(&self, op: BatchOp, shard: usize, sub: &Batch<K>) -> Vec<bool> {
        let _promote = self.poison_guard();
        let shard = &self.shards[shard];
        match op {
            BatchOp::Contains => shard.batch_contains(sub),
            BatchOp::Insert => shard.batch_insert(sub),
            BatchOp::Remove => shard.batch_remove(sub),
        }
    }

    fn poison_guard(&self) -> PoisonOnUnwind<'_> {
        PoisonOnUnwind {
            poisoned: &self.poisoned,
            counter: &self.metrics.poisoned,
        }
    }

    /// Panics if the tier observed a shard poisoning (see the
    /// [module docs](self)).
    fn check_poisoned(&self) {
        if self.poisoned.load(Ordering::Acquire) {
            panic!("{}", TIER_POISON_MSG);
        }
    }

    /// Read-path poison check: polls the shards as well as the tier flag
    /// (exactly what [`ShardedSet::is_poisoned`] reports), so a read never
    /// reaches a poisoned shard and dies with that shard's own message —
    /// or worse, after the tier looked healthy.  A shard poisoned behind
    /// the tier's back (its client panicked without unwinding through a
    /// tier guard) is promoted to tier-level poison here, and the read
    /// fails fast with the tier-level error.
    fn check_read_poisoned(&self) {
        if self.poisoned.load(Ordering::Acquire)
            || self.shards.iter().any(ConcurrentSet::is_poisoned)
        {
            if !self.poisoned.swap(true, Ordering::SeqCst) {
                self.metrics.poisoned.inc();
            }
            panic!("{}", TIER_POISON_MSG);
        }
    }
}

/// The tier-level poison error every tier entry point fails with.
const TIER_POISON_MSG: &str = "ShardedSet is poisoned: a shard's backend panicked mid-round, \
     so that shard's state is indeterminate";

#[cfg(test)]
mod tests {
    use super::*;
    use pbist::IstSet;
    use std::collections::BTreeSet;

    fn empty_shards(n: usize) -> Vec<ConcurrentSet<u64, IstSet<u64>>> {
        let shard =
            |_| ConcurrentSet::new(IstSet::from_unsorted(Vec::new()), Pool::new(1).unwrap());
        (0..n).map(shard).collect()
    }

    fn tier(num_shards: usize) -> ShardedSet<u64, IstSet<u64>, RangeRouter<u64>> {
        ShardedSet::new(
            RangeRouter::new(num_shards, 0, 10_000),
            empty_shards(num_shards),
            Pool::new(2).unwrap(),
        )
    }

    #[test]
    fn point_ops_route_and_have_set_semantics() {
        let set = tier(4);
        assert!(set.insert(5));
        assert!(!set.insert(5));
        assert!(set.insert(9_999));
        assert!(set.contains(&5));
        assert!(!set.contains(&6));
        assert_eq!(set.len(), 2);
        assert!(set.remove(&5));
        assert!(!set.remove(&5));
        assert!(!set.is_empty());
        assert!(!set.is_poisoned());
        let m = set.metrics();
        assert_eq!(m.counter("service.point_ops"), Some(7));
        assert_eq!(m.counter("service.batches_split"), Some(0));
    }

    #[test]
    fn batched_ops_split_execute_and_stitch() {
        // Five keys run the shards inline on the caller; 400 keys (>= the
        // 256-key cut-off, spread over all four shards) run them in the
        // tier pool.  Same answers either way.
        for n in [5u64, 400] {
            let set = tier(4);
            let keys: Vec<u64> = (0..n).map(|i| i * (9_999 / (n - 1))).collect();
            let batch = Batch::from_unsorted(keys.clone());
            assert_eq!(set.batch_insert(&batch), vec![true; keys.len()]);
            assert_eq!(set.batch_insert(&batch), vec![false; keys.len()]);
            assert_eq!(set.batch_contains(&batch), vec![true; keys.len()]);
            // Every other key, plus one that was never there.
            let mut partial: Vec<u64> = keys.iter().copied().step_by(2).collect();
            partial.push(3);
            let partial = Batch::from_unsorted(partial);
            let want: Vec<bool> = partial.iter().map(|k| *k != 3).collect();
            assert_eq!(set.batch_remove(&partial), want);
            assert_eq!(set.len(), keys.len() / 2);

            let m = set.metrics();
            assert_eq!(m.counter("service.batches_split"), Some(4), "{n} keys");
            let sizes = m.histogram("service.subbatch_size").unwrap();
            assert!(sizes.count() > 0);
            // Each shard saw traffic: the batch covers all 4 ranges.
            for (shard, snap) in set.shard_metrics().iter().enumerate() {
                assert!(
                    snap.counter("combine.rounds").unwrap_or(0) > 0,
                    "shard {shard} committed no rounds ({n} keys)"
                );
            }
        }
    }

    #[test]
    fn empty_batches_are_no_ops() {
        let set = tier(2);
        assert!(set.batch_insert(&Batch::empty()).is_empty());
        assert!(set.batch_contains(&Batch::empty()).is_empty());
        assert_eq!(set.metrics().counter("service.batches_split"), Some(0));
    }

    #[test]
    fn ordered_queries_stitch_across_shards() {
        use std::ops::Bound::{Excluded, Included, Unbounded};
        for num_shards in [1usize, 2, 3, 4, 8] {
            let set = tier(num_shards);
            let keys: Vec<u64> = (0..100).map(|i| i * 97 % 9_973).collect();
            set.batch_insert(&Batch::from_unsorted(keys.clone()));
            let oracle: BTreeSet<u64> = keys.into_iter().collect();
            let sorted: Vec<u64> = oracle.iter().copied().collect();

            assert_eq!(set.range_keys(Unbounded, Unbounded), sorted);
            let (lo, hi) = (sorted[10], sorted[90]);
            let want: Vec<u64> = oracle.range(lo..hi).copied().collect();
            assert_eq!(set.range_keys(Included(&lo), Excluded(&hi)), want);
            assert_eq!(set.range_count(Included(&lo), Excluded(&hi)), want.len());
            for probe in [sorted[0], sorted[50], sorted[99], 5_000, 10_000] {
                assert_eq!(
                    set.predecessor(&probe),
                    oracle.range(..probe).next_back().copied(),
                    "{num_shards} shards, predecessor of {probe}"
                );
                assert_eq!(
                    set.successor(&probe),
                    oracle.range((Excluded(probe), Unbounded)).next().copied(),
                    "{num_shards} shards, successor of {probe}"
                );
            }
            for k in [0usize, 1, 50, sorted.len() - 1, sorted.len()] {
                assert_eq!(
                    set.kth(k),
                    sorted.get(k).copied(),
                    "{num_shards} shards, rank {k}"
                );
            }
            assert!(set.metrics().counter("service.range_ops").unwrap() >= 9);
        }
    }

    /// A two-way range router that panics when asked to route `u64::MAX`.
    struct BombRouter(RangeRouter<u64>);

    impl ShardRouter<u64> for BombRouter {
        fn num_shards(&self) -> usize {
            self.0.num_shards()
        }
        fn shard_of(&self, key: &u64) -> usize {
            assert!(*key != u64::MAX, "router bomb");
            self.0.shard_of(key)
        }
    }

    #[test]
    fn a_router_panic_is_not_a_shard_failure() {
        let router = BombRouter(RangeRouter::new(2, 0, 10_000));
        let set = ShardedSet::new(router, empty_shards(2), Pool::new(1).unwrap());
        let calls: [&dyn Fn() -> bool; 3] = [
            &|| set.remove(&u64::MAX),
            &|| set.contains(&u64::MAX),
            &|| set.insert(u64::MAX),
        ];
        for call in calls {
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(call));
            assert!(unwound.is_err(), "the router's bomb went off");
            assert!(!set.is_poisoned(), "every shard is healthy");
            assert_eq!(set.metrics().counter("service.poisoned"), Some(0));
        }
        assert!(set.insert(7) && set.contains(&7) && set.remove(&7));
    }

    #[test]
    #[should_panic(expected = "router partitions 3 ways but 2 shards")]
    fn shard_count_mismatch_is_rejected() {
        ShardedSet::new(
            RangeRouter::new(3, 0u64, 100),
            empty_shards(2),
            Pool::new(1).unwrap(),
        );
    }
}
