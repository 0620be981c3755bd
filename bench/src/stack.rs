//! The only file that touches the stack under test.
//!
//! Everything the benchmark needs from `crates/*` goes through here, on a
//! deliberately narrow surface (listed in the README) so that a refactor of
//! the crates keeps the benchmark compiling unedited: `BatchedSet`,
//! `IstSet`, `SortedArraySet`, `ConcurrentSet`, `ShardedSet`, `DurableTier`,
//! `RangeRouter` (with `ShardRouter::split` / `SplitBatch::stitch`), `Batch`,
//! `Pool`, `Options`, `DurableOptions`, the metric snapshots
//! (`obs::Snapshot` by name, `IstSet::metrics`, `Pool::metrics`), and for the
//! isolated calls `parprim::merge`, `forkjoin::join` and
//! `obs::measure_disabled_overhead`.  No map type, no `bench_util`.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use baselines::SortedArraySet;
pub use batchapi::Batch;
use batchapi::BatchedSet;
use combine::{ConcurrentSet, Options};
use durable::DurableOptions;
use forkjoin::Pool;
use obs::Snapshot;
use pbist::IstSet;
use service::{DurableTier, RangeRouter, ShardRouter, ShardedSet};

use crate::median;
use crate::trace::Trace;

/// The fixed topology and flush policy that "end to end" means here.
pub const SHARDS: usize = 2;
pub const POOL_THREADS: usize = 2;
pub const GROUP_COMMIT: u64 = 64;
/// Keys per prefill batch (one WAL record each).
const PREFILL_CHUNK: usize = 1 << 16;

pub type Tree = IstSet<u64>;
pub type Front = ConcurrentSet<u64, Tree>;
pub type Sharded = ShardedSet<u64, Tree, RangeRouter<u64>>;
pub type Tier = DurableTier<u64, Tree, RangeRouter<u64>>;
pub type MutexBTree = Mutex<BTreeSet<u64>>;

/// The six calls a client makes, over every stack prefix and baseline.
/// `&mut self` so a bare backend is driven without a lock; the shared
/// prefixes implement it on `&T`.
pub trait Ops {
    fn insert(&mut self, key: u64) -> io::Result<bool>;
    fn remove(&mut self, key: u64) -> io::Result<bool>;
    fn contains(&mut self, key: u64) -> io::Result<bool>;
    fn batch_insert(&mut self, batch: &Batch<u64>) -> io::Result<Vec<bool>>;
    fn batch_remove(&mut self, batch: &Batch<u64>) -> io::Result<Vec<bool>>;
    fn batch_contains(&mut self, batch: &Batch<u64>) -> io::Result<Vec<bool>>;
}

/// A backend with no front-end: `IstSet` or `SortedArraySet`.
pub struct Bare<S>(pub S);

impl<S: BatchedSet<u64>> Ops for Bare<S> {
    fn insert(&mut self, key: u64) -> io::Result<bool> {
        Ok(self.0.insert_one(&key))
    }
    fn remove(&mut self, key: u64) -> io::Result<bool> {
        Ok(self.0.remove_one(&key))
    }
    fn contains(&mut self, key: u64) -> io::Result<bool> {
        Ok(self.0.contains(&key))
    }
    fn batch_insert(&mut self, batch: &Batch<u64>) -> io::Result<Vec<bool>> {
        Ok(self.0.batch_insert(batch))
    }
    fn batch_remove(&mut self, batch: &Batch<u64>) -> io::Result<Vec<bool>> {
        Ok(self.0.batch_remove(batch))
    }
    fn batch_contains(&mut self, batch: &Batch<u64>) -> io::Result<Vec<bool>> {
        Ok(self.0.batch_contains(batch))
    }
}

macro_rules! infallible_ops {
    ($ty:ty) => {
        impl Ops for &$ty {
            fn insert(&mut self, key: u64) -> io::Result<bool> {
                Ok((**self).insert(key))
            }
            fn remove(&mut self, key: u64) -> io::Result<bool> {
                Ok((**self).remove(&key))
            }
            fn contains(&mut self, key: u64) -> io::Result<bool> {
                Ok((**self).contains(&key))
            }
            fn batch_insert(&mut self, batch: &Batch<u64>) -> io::Result<Vec<bool>> {
                Ok((**self).batch_insert(batch))
            }
            fn batch_remove(&mut self, batch: &Batch<u64>) -> io::Result<Vec<bool>> {
                Ok((**self).batch_remove(batch))
            }
            fn batch_contains(&mut self, batch: &Batch<u64>) -> io::Result<Vec<bool>> {
                Ok((**self).batch_contains(batch))
            }
        }
    };
}
infallible_ops!(Front);
infallible_ops!(Sharded);

impl Ops for &Tier {
    fn insert(&mut self, key: u64) -> io::Result<bool> {
        (**self).insert(key)
    }
    fn remove(&mut self, key: u64) -> io::Result<bool> {
        (**self).remove(&key)
    }
    fn contains(&mut self, key: u64) -> io::Result<bool> {
        (**self).contains(&key)
    }
    fn batch_insert(&mut self, batch: &Batch<u64>) -> io::Result<Vec<bool>> {
        (**self).batch_insert(batch)
    }
    fn batch_remove(&mut self, batch: &Batch<u64>) -> io::Result<Vec<bool>> {
        (**self).batch_remove(batch)
    }
    fn batch_contains(&mut self, batch: &Batch<u64>) -> io::Result<Vec<bool>> {
        (**self).batch_contains(batch)
    }
}

/// The front-end's reference bar: one lock acquisition per key.
impl Ops for &MutexBTree {
    fn insert(&mut self, key: u64) -> io::Result<bool> {
        Ok(self
            .lock()
            .expect("no client panics holding it")
            .insert(key))
    }
    fn remove(&mut self, key: u64) -> io::Result<bool> {
        Ok(self
            .lock()
            .expect("no client panics holding it")
            .remove(&key))
    }
    fn contains(&mut self, key: u64) -> io::Result<bool> {
        Ok(self
            .lock()
            .expect("no client panics holding it")
            .contains(&key))
    }
    fn batch_insert(&mut self, batch: &Batch<u64>) -> io::Result<Vec<bool>> {
        batch.iter().map(|&key| self.insert(key)).collect()
    }
    fn batch_remove(&mut self, batch: &Batch<u64>) -> io::Result<Vec<bool>> {
        batch.iter().map(|&key| self.remove(key)).collect()
    }
    fn batch_contains(&mut self, batch: &Batch<u64>) -> io::Result<Vec<bool>> {
        batch.iter().map(|&key| self.contains(key)).collect()
    }
}

pub fn pool(metrics: bool) -> Pool {
    Pool::builder()
        .num_threads(POOL_THREADS)
        .metrics(metrics)
        .build()
        .expect("the OS can start two threads")
}

fn router(universe: u64) -> RangeRouter<u64> {
    RangeRouter::new(SHARDS, 0, universe - 1)
}

fn sorted_batch(keys: Vec<u64>) -> Batch<u64> {
    Batch::from_sorted(keys).expect("prefill keys are ascending and distinct")
}

// ---- the four stack prefixes and the two reference bars ----

/// `IstSet` bulk-built from ascending keys; `metrics` turns its work
/// counters on (read back with [`tree_counts`]).
pub fn build_tree(keys: Vec<u64>, metrics: bool) -> Tree {
    IstSet::from_sorted(keys).with_metrics(metrics)
}

pub fn build_sorted_array(keys: Vec<u64>) -> SortedArraySet<u64> {
    SortedArraySet::from_sorted(keys)
}

pub fn build_mutex_btree(keys: &[u64]) -> MutexBTree {
    Mutex::new(keys.iter().copied().collect())
}

pub fn build_front(keys: Vec<u64>) -> Front {
    ConcurrentSet::with_options(build_tree(keys, false), pool(false), Options::default())
}

pub fn build_sharded(keys: Vec<u64>, universe: u64) -> Sharded {
    let router = router(universe);
    let shards = router
        .split(&sorted_batch(keys))
        .sub_batches()
        .iter()
        .map(|sub| {
            ConcurrentSet::with_options(IstSet::from_batch(sub), pool(false), Options::default())
        })
        .collect();
    ShardedSet::new(router, shards, pool(false))
}

/// Opens (recovering what is there) the full stack in `dir`.
pub fn open_tier(dir: &Path, universe: u64, pool_metrics: bool) -> io::Result<Tier> {
    let options = DurableOptions {
        group_commit: GROUP_COMMIT,
        snapshot_every: 0,
        ..DurableOptions::default()
    };
    DurableTier::open(
        dir,
        router(universe),
        options,
        |_| pool(pool_metrics),
        |recovered| IstSet::from_batch(&recovered),
    )
}

/// Inserts `keys` (ascending) through the tier and makes them durable.
/// Each batch strides over the whole key range, so the tree grows evenly
/// the way a live ingest would, not by appending at its right edge.
pub fn prefill_tier(tier: &Tier, keys: &[u64]) -> io::Result<()> {
    let chunks = keys.len().div_ceil(PREFILL_CHUNK).max(1);
    for chunk in 0..chunks {
        let batch = sorted_batch(keys.iter().skip(chunk).step_by(chunks).copied().collect());
        let fresh = tier.batch_insert(&batch)?;
        if !fresh.iter().all(|&f| f) {
            return Err(io::Error::other("prefill key reported as already present"));
        }
    }
    tier.sync_all().map(|_| ())
}

/// Every key the tier holds, ascending (range shards concatenate).
pub fn tier_keys(tier: &Tier) -> Vec<u64> {
    (0..tier.num_shards())
        .flat_map(|shard| tier.shard(shard).inner().snapshot_keys().0)
        .collect()
}

pub fn tier_len(tier: &Tier) -> usize {
    tier.len()
}

pub fn close_tier(tier: Tier) -> io::Result<()> {
    tier.close()
}

// ---- counters, read through the layers' public snapshots ----

/// Raw monotone totals by name; a name the layer no longer exposes is
/// absent.  Histograms contribute `<name>.count` and `<name>.sum`.
pub type Counts = BTreeMap<&'static str, f64>;

pub fn delta(after: &Counts, before: &Counts) -> Counts {
    after
        .iter()
        .map(|(&name, &value)| (name, value - before.get(name).copied().unwrap_or(0.0)))
        .collect()
}

fn add_counters(into: &mut Counts, snaps: &[Snapshot], names: &[&'static str]) {
    for &name in names {
        let found: Vec<u64> = snaps.iter().filter_map(|s| s.counter(name)).collect();
        if found.len() == snaps.len() {
            into.insert(name, found.iter().sum::<u64>() as f64);
        }
    }
}

fn add_hist(
    into: &mut Counts,
    snaps: &[Snapshot],
    name: &str,
    count: &'static str,
    sum: &'static str,
) {
    let found: Vec<_> = snaps.iter().filter_map(|s| s.histogram(name)).collect();
    if found.len() == snaps.len() {
        into.insert(count, found.iter().map(|h| h.count()).sum::<u64>() as f64);
        into.insert(sum, found.iter().map(|h| h.sum).sum::<u64>() as f64);
    }
}

fn add_combine(into: &mut Counts, snaps: &[Snapshot]) {
    add_counters(
        into,
        snaps,
        &[
            "combine.rounds",
            "combine.ops",
            "combine.pooled_rounds",
            "combine.snapshot_reads",
            "combine.publish_clone_keys",
        ],
    );
    add_hist(
        into,
        snaps,
        "combine.round_size",
        "combine.round_size.count",
        "combine.round_size.sum",
    );
}

/// `durable.*`, `combine.*` and (when the pools were built with metrics)
/// `forkjoin.*` totals summed over the tier's shards.
pub fn tier_counts(tier: &Tier) -> Counts {
    let mut counts = Counts::new();
    let durable = tier.shard_metrics();
    add_counters(
        &mut counts,
        &durable,
        &[
            "durable.records_appended",
            "durable.bytes_written",
            "durable.fsyncs",
        ],
    );
    add_hist(
        &mut counts,
        &durable,
        "durable.group_size",
        "durable.group_size.count",
        "durable.group_size.sum",
    );
    let shards = || (0..tier.num_shards()).map(|shard| tier.shard(shard).inner());
    add_combine(
        &mut counts,
        &shards().map(|front| front.metrics()).collect::<Vec<_>>(),
    );
    let pools: Vec<_> = shards().map(|front| front.pool_metrics()).collect();
    if pools.iter().all(|pool| pool.enabled) {
        let totals = |pick: fn(&forkjoin::WorkerMetricsSnapshot) -> u64| {
            pools.iter().map(|pool| pick(&pool.totals())).sum::<u64>() as f64
        };
        counts.insert("forkjoin.jobs_executed", totals(|w| w.jobs_executed));
        counts.insert("forkjoin.wakes", totals(|w| w.wakes));
        counts.insert("forkjoin.steal_success", totals(|w| w.steal_success));
        counts.insert("forkjoin.steal_empty", totals(|w| w.steal_empty));
    }
    counts
}

/// Just the WAL bytes written so far (the end-to-end run's only counter).
pub fn tier_wal_bytes(tier: &Tier) -> Option<f64> {
    tier_counts(tier).get("durable.bytes_written").copied()
}

pub fn sharded_counts(sharded: &Sharded) -> Counts {
    let mut counts = Counts::new();
    let tier = [sharded.metrics()];
    add_counters(
        &mut counts,
        &tier,
        &["service.batches_split", "service.empty_subbatches"],
    );
    add_hist(
        &mut counts,
        &tier,
        "service.subbatch_size",
        "service.subbatch_size.count",
        "service.subbatch_size.sum",
    );
    counts
}

pub fn tree_counts(tree: &Tree) -> Counts {
    let m = tree.metrics();
    Counts::from([
        ("pbist.nodes_touched", m.nodes_touched as f64),
        ("pbist.leaves_edited", m.leaves_edited as f64),
        ("pbist.rebuild_keys", m.rebuild_keys as f64),
    ])
}

// ---- isolated public calls, each recorded as a span ----

/// Median ns/key of `RangeRouter::split` and of `SplitBatch::stitch`.
pub fn time_split_stitch(
    trace: &mut Trace,
    parent: u32,
    universe: u64,
    batch: &Batch<u64>,
    reps: usize,
) -> (f64, f64) {
    let router = router(universe);
    let keys = batch.len() as f64;
    let (mut split_ns, mut stitch_ns) = (Vec::new(), Vec::new());
    let mut out = Vec::with_capacity(batch.len());
    for _ in 0..reps {
        let (split, ns) = trace.time("service.split", parent, || router.split(black_box(batch)));
        split_ns.push(ns as f64 / keys);
        let per_shard: Vec<Vec<bool>> = split
            .sub_batches()
            .iter()
            .map(|sub| vec![true; sub.len()])
            .collect();
        let ((), ns) = trace.time("service.stitch", parent, || {
            split.stitch(black_box(&per_shard), &mut out)
        });
        stitch_ns.push(ns as f64 / keys);
        black_box(&out);
    }
    (median(&split_ns), median(&stitch_ns))
}

/// Median ns of an empty `Pool::install` round trip, and of an empty
/// `forkjoin::join` on a worker (timed in blocks: one join is below the
/// clock's resolution).
pub fn time_install_join(trace: &mut Trace, parent: u32, reps: usize) -> (f64, f64) {
    const JOIN_BLOCK: usize = 1000;
    let pool = pool(false);
    let install_ns: Vec<f64> = (0..reps)
        .map(|_| {
            trace
                .time("forkjoin.install", parent, || {
                    pool.install(|| black_box(()))
                })
                .1 as f64
        })
        .collect();
    let join_ns: Vec<f64> = (0..reps.div_ceil(JOIN_BLOCK).max(5))
        .map(|_| {
            pool.install(|| {
                let start = Instant::now();
                for _ in 0..JOIN_BLOCK {
                    forkjoin::join(|| black_box(()), || black_box(()));
                }
                start.elapsed().as_nanos() as f64 / JOIN_BLOCK as f64
            })
        })
        .collect();
    (median(&install_ns), median(&join_ns))
}

/// Median ns/key of `parprim::merge` of two `m`-key runs inside a pool.
pub fn time_merge(trace: &mut Trace, parent: u32, a: &[u64], b: &[u64], reps: usize) -> f64 {
    let pool = pool(false);
    let keys = (a.len() + b.len()) as f64;
    let ns_per_key: Vec<f64> = (0..reps)
        .map(|_| {
            let (merged, ns) = trace.time("parprim.merge", parent, || {
                pool.install(|| parprim::merge(a, b))
            });
            black_box(merged);
            ns as f64 / keys
        })
        .collect();
    median(&ns_per_key)
}

/// Median ns/key of `Batch::from_unsorted` (sort + dedup at the boundary).
pub fn time_normalise(trace: &mut Trace, parent: u32, shuffled: &[u64], reps: usize) -> f64 {
    let ns_per_key: Vec<f64> = (0..reps)
        .map(|_| {
            let keys = shuffled.to_vec();
            let (batch, ns) =
                trace.time("batchapi.normalise", parent, || Batch::from_unsorted(keys));
            black_box(batch);
            ns as f64 / shuffled.len() as f64
        })
        .collect();
    median(&ns_per_key)
}

/// Median µs of an explicit `sync_all` with one pending record per touched
/// shard (≤ `GROUP_COMMIT` by construction).  Toggles `key` and restores it.
pub fn time_sync(
    trace: &mut Trace,
    parent: u32,
    tier: &Tier,
    key: u64,
    reps: usize,
) -> io::Result<f64> {
    let mut sync_us = Vec::new();
    for _ in 0..reps {
        // One effective mutation each way, so every sync has a record.
        let was_present = tier.contains(&key)?;
        for step in 0..2 {
            if was_present == (step == 0) {
                tier.remove(&key)?;
            } else {
                tier.insert(key)?;
            }
            let (synced, ns) = trace.time("durable.sync_all", parent, || tier.sync_all());
            synced?;
            sync_us.push(ns as f64 / 1e3);
        }
    }
    Ok(median(&sync_us))
}

pub fn snapshot_tier(tier: &Tier) -> io::Result<()> {
    tier.snapshot_all().map(|_| ())
}

pub fn disabled_overhead_ns() -> f64 {
    obs::measure_disabled_overhead(10_000_000, 5)
}
