//! Service tier: one sorted map partitioned across `N` shards by a
//! batch-splitting router.
//!
//! One [`combine::ConcurrentMap`] is one combiner — one serialisation
//! point, no matter how many clients publish into it.  A [`Tier`] partitions
//! the key space across `N` shards, each its own front-end over its own
//! backend.  It is generic over its [`Shard`]: a [`ConcurrentMap`] (the
//! in-memory tier, whose methods return bare values) or a
//! [`durable::DurableMap`] persisting its key range in a directory of its own
//! (the durable tier, opened with [`Tier::open`], whose methods return
//! `io::Result`).  [`ShardedSet`] and [`DurableTier`] are their `V = ()`
//! instances; a map tier is `Tier<ConcurrentMap<K, V, S>, R>` or
//! `Tier<DurableMap<K, V, S>, R>`.  Traffic is routed at two granularities:
//!
//! * **Point ops** (`insert` / `upsert` / `remove` / `contains` / `get`) go
//!   straight to the owning shard — one [`ShardRouter::shard_of`] call on top
//!   of the shard's own fast path.
//! * **Batched ops** (`batch_insert` / `batch_remove` / `batch_contains` /
//!   `batch_get`) carve one sorted batch, keys and values together, into
//!   contiguous per-shard sub-batches ([`ShardRouter::split`] — a handful of
//!   narrowing binary searches whose offsets are the exclusive scan of
//!   per-shard counts, the carve `pbist`'s joint traversal performs at every
//!   inner node), run every non-empty sub-batch on its shard, and stitch the
//!   per-shard results back into batch order by concatenating the runs.  A
//!   **write** runs its sub-batches in shard order on the caller's thread,
//!   and a shard's front-end runs one of at least [`combine::POOL_CUTOFF`]
//!   keys in its own pool.  A **read** runs its shards side by side: the
//!   caller reads the first non-empty sub-batch while each later one of at
//!   least [`combine::POOL_CUTOFF`] keys is offered to its own shard's pool
//!   ([`forkjoin::Pool::join`]); the caller takes an offer back and reads it
//!   itself if no worker has started it, so a read never waits for a worker
//!   to come free.  Writes are never offered: a pool worker must not wait
//!   on a combiner flag (`combine`'s
//!   [contract](combine#contract)).
//!
//! # Routing and consistency contract
//!
//! The tier is an **ordered partition** of the key space.  The router's
//! assignment is total, stable and *monotone* — shard `i` owns a contiguous
//! key range below shard `i + 1`'s; that is the [`ShardRouter`] contract,
//! checked by [`ShardRouter::split`] — so **every operation on a key — point
//! or batched — executes on the same shard**, each shard serialises its
//! operations through its combiner (and, durable, logs them in its own WAL),
//! and ordered queries visit shards in index order ([`Tier::range_keys`]
//! concatenates the per-shard runs, [`Tier::kth`] walks cardinalities).  The
//! tier therefore guarantees **per-shard linearizability** (and per-shard
//! durability): restricted to any one shard's key range, the concurrent
//! history is linearizable (each shard's commit log is a witness, replayable
//! against a sequential oracle — the `service_stress` suite does exactly
//! that), and each shard recovers on its own.
//!
//! There is **no cross-shard ordering or atomicity**.  Two operations on keys
//! of different shards commit independently; a client that observes op A on
//! shard 1 and then issues op B on shard 2 gets no promise that another
//! client sees them in that order.  Aggregates over several shards
//! ([`Tier::len`], the ordered queries, the durable tier's `sync_all`) are
//! sums or stitches of per-shard points taken at different instants, not a
//! consistent cut.  This is the standard sharded-store contract; callers
//! needing cross-shard atomicity must add a coordination layer on top.
//!
//! # Failures
//!
//! A backend panic mid-round poisons its shard (see [`combine`'s poisoning
//! contract](combine::ConcurrentMap#poisoning)) and with it the tier: the
//! panic propagates to the issuing client, and every later tier operation —
//! each one polls its shards first — panics fast with a message containing
//! "poisoned".  Clients blocked on *other* shards complete normally or
//! observe the poison.  Nothing hangs.  `service.poisoned` is set by the
//! first tier call or [`Tier::is_poisoned`] probe that finds the poison.
//!
//! A durable shard's I/O error is returned, not panicked, and leaves that
//! shard wedged (see the [`durable`] crate docs): its point and batched ops
//! fail from then on.  [`Tier::len`] and the ordered queries read the
//! shard's in-memory front-end, as [`durable::DurableMap::len`] does, so
//! they still serve a wedged shard's contents — including the keys of a
//! batch that ran in memory but never reached its log, which are gone after
//! a reopen.  A batch whose sub-batch
//! fails on shard `i` returns that error with the shard named in its message
//! and its kind kept: shards below `i` committed their sub-batches; shard `i`
//! either refused its sub-batch before running it (`InvalidInput`, too large
//! for one WAL record, and stays usable) or ran it in memory and is now
//! wedged; shards above `i` were not called.  A batched read runs its shards
//! side by side, so when several fail it returns the lowest one's error, and
//! shards above a failing one may have run — which, for a read, has no
//! effect.  A backend panic inside a read reaches the caller once every
//! shard's share has settled, whichever thread ran it; a read enters no
//! round, so, as in `combine`, it poisons nothing.
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
//!     forkjoin::Pool::new(1).expect("unused"),
//! );
//!
//! assert!(set.insert(7));
//! let batch = batchapi::Batch::from_unsorted(vec![7u64, 2_500, 9_999]);
//! assert_eq!(set.batch_insert(&batch), vec![false, true, true]);
//! assert_eq!(set.batch_contains(&batch), vec![true, true, true]);
//! assert_eq!(set.len(), 3);
//! assert_eq!(set.kth(1), Some(2_500));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod durable_tier;
mod router;

pub use durable_tier::DurableTier;
pub use router::{RangeRouter, ShardRouter, SplitBatch};

use std::convert::Infallible;
use std::ops::Bound;
use std::sync::Arc;

use batchapi::{Batch, BatchedMap, KvBatch, MapView};
use combine::{CommitSink, ConcurrentMap, ConcurrentSet};
use forkjoin::Pool;
use obs::{Counter, Histogram, Registry, Snapshot};

/// What a [`Tier`] needs of a shard beyond its operations: the shard's
/// [`ConcurrentMap`] front-end (which the tier-wide reads and the health
/// probe go through), its metrics, and its error type.  The operations
/// themselves are called on the concrete shard type by the tier's methods.
pub trait Shard: Sync {
    /// The key type.
    type Key: Ord + Clone + Send + Sync + 'static;
    /// The value type (`()` for a set).
    type Val: Clone + Send + Sync + 'static;
    /// The backend behind the front-end.
    type Backend: BatchedMap<Self::Key, Self::Val> + Clone + Send + Sync;
    /// Where the front-end's committed rounds go.
    type Sink: CommitSink<Self::Key, Self::Val>;
    /// What the shard's operations fail with.
    type Error: Send;

    /// The shard's in-memory front-end.
    fn front(&self) -> &ConcurrentMap<Self::Key, Self::Val, Self::Backend, Self::Sink>;

    /// The shard's own metric snapshot.
    fn metrics(&self) -> Snapshot;

    /// `err`, raised by shard `index`, with that index in its message.
    fn in_shard(err: Self::Error, index: usize) -> Self::Error;
}

impl<K, V, S, L> Shard for ConcurrentMap<K, V, S, L>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    S: BatchedMap<K, V> + Clone + Send + Sync,
    L: CommitSink<K, V>,
{
    type Key = K;
    type Val = V;
    type Backend = S;
    type Sink = L;
    type Error = Infallible;

    fn front(&self) -> &ConcurrentMap<K, V, S, L> {
        self
    }

    /// The front-end's `combine.*` registry.
    fn metrics(&self) -> Snapshot {
        ConcurrentMap::metrics(self)
    }

    fn in_shard(err: Infallible, _: usize) -> Infallible {
        err
    }
}

/// A sorted map partitioned across shards by a [`ShardRouter`].
///
/// See the [crate docs](crate) for the routing contract (per-shard
/// linearizability, no cross-shard ordering) and the failure semantics.
/// Shared by reference (typically `Arc`); all operations take `&self`.
pub struct Tier<Sh, R> {
    router: R,
    shards: Vec<Sh>,
    /// The `service.*` registry; the handles below are cloned out of it once,
    /// so the batch path hits the atomics directly.
    registry: Registry,
    /// `service.batches_split` — non-empty batches split across shards.
    batches_split: Arc<Counter>,
    /// `service.empty_subbatches` — sub-batches that received no keys
    /// (their shard was skipped for that batch).
    empty_subbatches: Arc<Counter>,
    /// `service.subbatch_size` — keys per non-empty per-shard sub-batch.
    subbatch_size: Arc<Histogram>,
    /// `service.poisoned` — 1 once the tier has observed a poisoned shard.
    poisoned: Arc<Counter>,
}

/// The in-memory sharded set: [`ConcurrentSet`] shards.
pub type ShardedSet<K, S, R> = Tier<ConcurrentSet<K, S>, R>;

impl<K, V, Sh, R> Tier<Sh, R>
where
    Sh: Shard<Key = K, Val = V>,
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    R: ShardRouter<K>,
{
    /// A tier over `shards`, index-aligned with the router's numbering.
    ///
    /// # Panics
    ///
    /// Panics when `shards.len() != router.num_shards()` or no shards are
    /// given.
    fn from_shards(router: R, shards: Vec<Sh>) -> Tier<Sh, R> {
        assert!(!shards.is_empty(), "a tier needs at least one shard");
        assert_eq!(
            shards.len(),
            router.num_shards(),
            "router partitions {} ways but {} shards were given",
            router.num_shards(),
            shards.len()
        );
        let registry = Registry::new();
        Tier {
            router,
            shards,
            batches_split: registry.counter("service.batches_split"),
            empty_subbatches: registry.counter("service.empty_subbatches"),
            subbatch_size: registry.histogram("service.subbatch_size"),
            poisoned: registry.counter("service.poisoned"),
            registry,
        }
    }

    /// Number of shards in the tier.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// One shard (its front-end's seq, snapshots and round log; a durable
    /// shard's WAL), by router index.
    ///
    /// # Panics
    ///
    /// Panics when `shard >= num_shards()`.
    pub fn shard(&self, shard: usize) -> &Sh {
        &self.shards[shard]
    }

    /// Total keys across all shards.
    ///
    /// # Consistency contract
    ///
    /// Each shard's count is read at that shard's own linearisation point;
    /// shards are visited in index order with no tier-wide lock freezing
    /// them in between, so the sum is **not a consistent cross-shard cut**.
    /// What *is* pinned:
    ///
    /// * every per-shard count is exact at the instant that shard is read,
    ///   so the sum lies between the sum of per-shard minimum and per-shard
    ///   maximum cardinalities over the call's duration;
    /// * under a *monotone* concurrent workload (only inserts, or only
    ///   removes, in flight) that bracket collapses to the total cardinality
    ///   just before and just after the call — every operation
    ///   **acknowledged before the call began** is counted, and no operation
    ///   **issued after the call returned** is;
    /// * a quiescent tier (no concurrent writers) gets the exact count.
    ///
    /// The `service_stress` suite pins the monotone bracket.  The ordered
    /// queries below share this contract: each shard's contribution is exact
    /// at its own instant, so a quiescent tier gets exact answers.
    pub fn len(&self) -> usize {
        self.fronts().map(ConcurrentMap::len).sum()
    }

    /// Returns `true` when no shard holds any key (same contract as
    /// [`Tier::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Keys in `(lo, hi)` across all shards, ascending: every shard answers
    /// the full bounds from its own snapshot and the runs concatenate in
    /// shard order.
    pub fn range_keys(&self, lo: Bound<&K>, hi: Bound<&K>) -> Vec<K> {
        self.fronts().flat_map(|f| f.range_keys(lo, hi)).collect()
    }

    /// Pairs whose keys fall in `(lo, hi)` across all shards, ascending.
    pub fn range_entries(&self, lo: Bound<&K>, hi: Bound<&K>) -> Vec<(K, V)> {
        self.fronts()
            .flat_map(|f| f.range_entries(lo, hi))
            .collect()
    }

    /// Number of keys in `(lo, hi)` across all shards.
    pub fn range_count(&self, lo: Bound<&K>, hi: Bound<&K>) -> usize {
        self.fronts().map(|f| f.range_count(lo, hi)).sum()
    }

    /// Greatest key strictly less than `key` anywhere in the tier.
    pub fn predecessor(&self, key: &K) -> Option<K> {
        self.fronts().filter_map(|f| f.predecessor(key)).max()
    }

    /// Least key strictly greater than `key` anywhere in the tier.
    pub fn successor(&self, key: &K) -> Option<K> {
        self.fronts().filter_map(|f| f.successor(key)).min()
    }

    /// The `k`-th smallest key (0-based) across all shards, or `None` when
    /// fewer than `k + 1` keys are held.
    pub fn kth(&self, k: usize) -> Option<K> {
        self.kth_entry(k).map(|(key, _)| key)
    }

    /// The `k`-th smallest pair (0-based) across all shards.  Walks shards in
    /// index order subtracting cardinalities, each shard's count and pick
    /// read from one snapshot of it.
    pub fn kth_entry(&self, mut k: usize) -> Option<(K, V)> {
        for front in self.fronts() {
            let snap = front.read_snapshot();
            let n = snap.view().len();
            if k < n {
                return snap.view().kth_entry(k);
            }
            k -= n;
        }
        None
    }

    /// Returns `true` when any shard is poisoned, and then counts the
    /// poisoning in `service.poisoned`.  Never panics; this is the health
    /// probe.
    pub fn is_poisoned(&self) -> bool {
        let poisoned = self.shards.iter().any(|shard| shard.front().is_poisoned());
        if poisoned {
            self.poisoned.set_max(1);
        }
        poisoned
    }

    /// Snapshot of the tier's own metrics (`service.*`: batch splits,
    /// sub-batch sizes, the observed poisoning).
    pub fn metrics(&self) -> Snapshot {
        self.registry.snapshot()
    }

    /// Per-shard metric snapshots (a [`ConcurrentMap`]'s `combine.*`, a
    /// [`durable::DurableMap`]'s `durable.*`), index-aligned with the router's
    /// shard numbering.
    pub fn shard_metrics(&self) -> Vec<Snapshot> {
        self.shards.iter().map(Shard::metrics).collect()
    }

    /// Consumes the tier, returning its shards.  Owning `self` proves no
    /// operation is in flight.
    pub fn into_shards(self) -> Vec<Sh> {
        self.shards
    }

    /// The shard owning `key`, after the poison check.
    fn shard_of(&self, key: &K) -> &Sh {
        self.check_poisoned();
        &self.shards[self.router.shard_of(key)]
    }

    /// Every shard's front-end in shard order, after the poison check.
    fn fronts(&self) -> impl Iterator<Item = &ConcurrentMap<K, V, Sh::Backend, Sh::Sink>> {
        self.check_poisoned();
        self.shards.iter().map(Shard::front)
    }

    /// The one batch executor: splits `batch` across shards, runs `op` on
    /// every non-empty sub-batch, and stitches the per-shard results back
    /// into batch order.  A shard's error names its shard.
    ///
    /// A write runs its sub-batches in shard order on the caller and stops
    /// at the first error: a write is never offered to a pool (`combine`'s
    /// *Contract*).  A `read` runs them side by side ([`read_shards`]) and,
    /// if several shards fail, returns the lowest one's error.
    fn run_batch<B, T>(
        &self,
        batch: &KvBatch<K, B>,
        read: bool,
        op: impl Fn(&Sh, &KvBatch<K, B>) -> Result<Vec<T>, Sh::Error> + Sync,
    ) -> Result<Vec<T>, Sh::Error>
    where
        B: Clone + Sync,
        T: Clone + Send,
    {
        self.check_poisoned();
        if batch.is_empty() {
            return Ok(Vec::new());
        }
        let split = self.router.split(batch);
        self.batches_split.inc();
        let subs = split.sub_batches();
        for sub in subs {
            if sub.is_empty() {
                self.empty_subbatches.inc();
            } else {
                self.subbatch_size.record(sub.len() as u64);
            }
        }
        let shards = &self.shards[..];
        let run = |index: usize| {
            let sub = &subs[index];
            if sub.is_empty() {
                return Ok(Vec::new());
            }
            op(&shards[index], sub).map_err(|err| Sh::in_shard(err, index))
        };
        let runs: Result<Vec<_>, _> = if read {
            read_shards(shards, subs, &run).into_iter().collect()
        } else {
            (0..subs.len()).map(run).collect()
        };
        let mut out = Vec::with_capacity(batch.len());
        split.stitch(&runs?, &mut out);
        Ok(out)
    }

    /// Panics with the tier-level poison error when any shard is poisoned,
    /// so no call reaches a poisoned shard and dies with that shard's own
    /// message.
    fn check_poisoned(&self) {
        if self.is_poisoned() {
            panic!("tier is poisoned: a shard's backend panicked mid-round");
        }
    }
}

/// The in-memory tier: its shards never fail, so these return bare values.
/// Every call panics if the tier is [poisoned](crate#failures).
impl<K, V, S, L, R> Tier<ConcurrentMap<K, V, S, L>, R>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    S: BatchedMap<K, V> + Clone + Send + Sync,
    L: CommitSink<K, V>,
    R: ShardRouter<K>,
{
    /// Builds a tier from a router and its shards (one front-end per router
    /// shard, index-aligned).  `_pool` is dropped unused: sub-batches run on
    /// the caller and on the shards' own pools; the parameter goes at the
    /// benchmark's next revision.
    ///
    /// # Panics
    ///
    /// Panics when `shards.len() != router.num_shards()` or no shards are
    /// given.
    pub fn new(router: R, shards: Vec<ConcurrentMap<K, V, S, L>>, _pool: Pool) -> Self {
        Tier::from_shards(router, shards)
    }

    /// Upserts `key → val` on its owning shard; `true` iff newly inserted.
    pub fn upsert(&self, key: K, val: V) -> bool {
        self.shard_of(&key).upsert(key, val)
    }

    /// Removes `key` from its owning shard; `true` iff it was present.
    pub fn remove(&self, key: &K) -> bool {
        self.shard_of(key).remove(key)
    }

    /// Whether `key` is present — a read of its shard's snapshot.
    pub fn contains(&self, key: &K) -> bool {
        self.shard_of(key).contains(key)
    }

    /// The value under `key`, read like [`Tier::contains`].
    pub fn get(&self, key: &K) -> Option<V> {
        self.shard_of(key).get(key)
    }

    /// Upserts every pair of `batch` on its owning shard; `result[i]` is
    /// `true` iff `batch[i]` was newly inserted.
    pub fn batch_insert(&self, batch: &KvBatch<K, V>) -> Vec<bool>
    where
        S: 'static,
    {
        ok(self.run_batch(batch, false, |shard, sub| Ok(shard.batch_insert(sub))))
    }

    /// Removes every batch key; `result[i]` is `true` iff `batch[i]` was
    /// present.
    pub fn batch_remove(&self, batch: &Batch<K>) -> Vec<bool>
    where
        S: 'static,
    {
        ok(self.run_batch(batch, false, |shard, sub| Ok(shard.batch_remove(sub))))
    }

    /// One membership answer per batch key, each a per-shard linearisation
    /// point (no cross-shard snapshot).
    pub fn batch_contains(&self, batch: &Batch<K>) -> Vec<bool> {
        ok(self.run_batch(batch, true, |shard, sub| Ok(shard.batch_contains(sub))))
    }

    /// One value lookup per batch key, read like [`Tier::batch_contains`].
    pub fn batch_get(&self, batch: &Batch<K>) -> Vec<Option<V>> {
        ok(self.run_batch(batch, true, |shard, sub| Ok(shard.batch_get(sub))))
    }
}

impl<K, S, L, R> Tier<ConcurrentSet<K, S, L>, R>
where
    K: Ord + Clone + Send + Sync + 'static,
    S: BatchedMap<K, ()> + Clone + Send + Sync,
    L: CommitSink<K, ()>,
    R: ShardRouter<K>,
{
    /// Inserts `key`; `true` iff newly inserted — the set spelling of
    /// [`Tier::upsert`].
    pub fn insert(&self, key: K) -> bool {
        self.upsert(key, ())
    }
}

/// `run(i)` for every shard `i` of `subs`, side by side: the caller runs
/// the first non-empty sub-batch, and each later one of at least
/// [`combine::POOL_CUTOFF`] keys is offered to its own shard's pool with
/// [`Pool::join`] — an idle worker of that pool reads it while the caller
/// reads the others, and the caller takes it back if no worker has started
/// it.  A smaller one runs on the caller.  So a read never waits for a
/// worker to come free.
fn read_shards<Sh: Shard, B: Sync, T: Send>(
    shards: &[Sh],
    subs: &[KvBatch<Sh::Key, B>],
    run: &(impl Fn(usize) -> T + Sync),
) -> Vec<T> {
    let Some((last, below)) = subs.split_last() else {
        return Vec::new();
    };
    let index = below.len();
    let offered = last.len() >= combine::POOL_CUTOFF && below.iter().any(|sub| !sub.is_empty());
    let (mut runs, this) = if offered {
        let pool = shards[index].front().pool();
        pool.join(|| read_shards(shards, below, run), || run(index))
    } else {
        let this = run(index);
        (read_shards(shards, below, run), this)
    };
    runs.push(this);
    runs
}

/// The value of a result that cannot fail.
fn ok<T>(result: Result<T, Infallible>) -> T {
    match result {
        Ok(value) => value,
        Err(never) => match never {},
    }
}

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
            Pool::new(1).unwrap(),
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
        assert_eq!(set.get(&9_999), Some(()));
        assert_eq!(set.len(), 2);
        assert!(set.remove(&5));
        assert!(!set.remove(&5));
        assert!(!set.is_empty());
        assert!(!set.is_poisoned());
        assert_eq!(set.metrics().counter("service.batches_split"), Some(0));
    }

    #[test]
    fn batched_ops_split_execute_and_stitch() {
        // Five keys, and 2 500 (≈ 625 per shard, past `combine::POOL_CUTOFF`,
        // so every sub-batch runs in its shard's pool): the same answers
        // either way.
        for n in [5u64, 2_500] {
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
            assert!(m.histogram("service.subbatch_size").unwrap().count() > 0);
            // Each shard saw traffic: the batch covers all 4 ranges.
            for (shard, snap) in set.shard_metrics().iter().enumerate() {
                assert!(
                    snap.counter("combine.rounds").unwrap_or(0) > 0,
                    "shard {shard} committed no rounds ({n} keys)"
                );
            }
        }
    }

    /// Batched reads on 1–4 shards — sub-batches empty, under
    /// `combine::POOL_CUTOFF` and over it, the first non-empty one not
    /// always shard 0 — equal a `BTreeMap`, for the set and the map, and
    /// every later over-cut-off share is offered to its shard's pool.
    #[test]
    fn batched_reads_run_side_by_side_and_equal_the_oracle() {
        use pbist::IstMap;
        use std::collections::BTreeMap;
        let pool = || {
            Pool::builder()
                .num_threads(1)
                .metrics(true)
                .build()
                .unwrap()
        };
        let oracle: BTreeMap<u64, u64> = (0..10_000).step_by(3).map(|k| (k, k * 7)).collect();
        // Over the cut-off at the bottom and the top, three keys in the
        // middle: at 4 shards shard 1 is empty and shard 2 under the cut.
        let spread = (0..600).chain([5_100, 5_200, 5_300]).chain(9_300..10_000);
        let probes = [
            spread.collect::<Vec<u64>>(),
            (9_300..10_000).chain([5_100]).collect(),
        ];
        for num_shards in 1..=4 {
            let router = RangeRouter::new(num_shards, 0u64, 9_999);
            let entries = KvBatch::from_unsorted_entries(oracle.clone().into_iter().collect());
            let split = router.split(&entries);
            let subs = split.sub_batches().iter();
            let maps = subs
                .clone()
                .map(|sub| ConcurrentMap::new(IstMap::from_batch(sub), pool()));
            let map = Tier::new(router.clone(), maps.collect(), pool());
            let sets =
                subs.map(|sub| ConcurrentSet::new(IstSet::from_unsorted(sub.to_vec()), pool()));
            let set = ShardedSet::new(router.clone(), sets.collect(), pool());
            let mut offers = 0;
            for probe in &probes {
                let batch = Batch::from_unsorted(probe.clone());
                let want: Vec<Option<u64>> = batch.iter().map(|k| oracle.get(k).copied()).collect();
                let ctx = format!("{num_shards} shards, {} keys", batch.len());
                assert_eq!(map.batch_get(&batch), want, "{ctx}");
                let present: Vec<bool> = want.iter().map(Option::is_some).collect();
                assert_eq!(map.batch_contains(&batch), present, "{ctx}");
                assert_eq!(set.batch_contains(&batch), present, "{ctx}");
                assert_eq!(
                    set.batch_get(&batch),
                    present.iter().map(|&p| p.then_some(())).collect::<Vec<_>>(),
                    "{ctx}"
                );
                // Offered: each over-cut-off share after the first
                // non-empty one, on each of the four calls.
                let split = router.split(&batch);
                let mut shares = split.sub_batches().iter().map(|sub| sub.len());
                shares.find(|&len| len > 0);
                offers += 4 * shares.filter(|&len| len >= combine::POOL_CUTOFF).count() as u64;
            }
            let counted: u64 = (0..num_shards)
                .map(|i| {
                    let (m, s) = (map.shard(i).pool_metrics(), set.shard(i).pool_metrics());
                    m.offers_reclaimed + m.offers_taken + s.offers_reclaimed + s.offers_taken
                })
                .sum();
            assert_eq!(counted, offers, "{num_shards} shards");
            assert_eq!(offers > 0, num_shards > 1, "{num_shards} shards");
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
        }
    }

    #[test]
    fn kth_answers_an_occupied_rank_under_concurrent_writes() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::time::{Duration, Instant};
        // Shard 0 holds 0..10 and, on and off, its top key 4 999; shard 1
        // always holds 5 000..5 010.  Rank 10 is 4 999 or 5 000, never empty.
        let set = tier(2);
        set.batch_insert(&Batch::from_unsorted((0..10).chain(5_000..5_010).collect()));
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    set.insert(4_999);
                    set.remove(&4_999);
                }
            });
            let deadline = Instant::now() + Duration::from_millis(500);
            let mut calls = 0u64;
            let wrong = loop {
                let kth = set.kth(10);
                if !matches!(kth, Some(4_999 | 5_000)) {
                    break Some(kth);
                }
                calls += 1;
                if calls.is_multiple_of(1_000) && Instant::now() >= deadline {
                    break None;
                }
            };
            stop.store(true, Ordering::Relaxed);
            assert_eq!(wrong, None, "kth(10) after {calls} calls");
        });
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
