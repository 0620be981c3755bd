//! Property tests for the ordered-query surface: randomized mutation
//! histories driven against a `std::collections::BTreeMap` oracle, with
//! values (`get` / `batch_get` / upsert flags) and `range_*` /
//! `range_count` / `kth` / `predecessor` / `successor` checked after every
//! batch across a grid of bound shapes — bounds landing on present keys and
//! absent keys, inclusive and exclusive, unbounded, empty, inverted, and
//! equal-with-exclusion.
//!
//! One driver, generic over the value type, runs over both backends
//! (`pbist` tree and sorted-array baseline) at `V = ()` (the set) and
//! `V = u64`, checks the backend *and* a clone of it — what a front-end
//! publishes as a snapshot — which must stay frozen under the next batch
//! of updates, and runs both outside any pool and inside a 4-worker
//! `forkjoin::Pool`.  `drive_tier` runs the ordered queries through
//! `service::Tier` — in memory at 1, 2, 3 and 8 shards and at both value
//! types, and one durable map tier — where every answer is stitched across
//! shards, with bounds straddling the shard edges and keys outside the
//! router's `[min, max]`.  The oracle side never calls `BTreeMap::range`
//! directly — it filters an iterator — because `range` panics on exactly
//! the degenerate bounds this suite exists to pin (inverted and
//! `Excluded == Excluded` pairs), which our surface defines as empty.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;

use baselines::SortedArrayMap;
use batchapi::{Batch, BatchedMap, KvBatch, MapView};
use combine::ConcurrentMap;
use durable::{DurableMap, DurableOptions};
use forkjoin::Pool;
use pbist::IstMap;
use service::{RangeRouter, Shard, ShardRouter, Tier};
use workloads::{self, OpKind, SplitMix64};

/// The value types the grid runs at: `()` (the set) and `u64`.
trait Val: Clone + PartialEq + std::fmt::Debug + Send + Sync + 'static {
    /// A value derived from key, step and arrival index, so a duplicated
    /// key arrives with *different* values and only the later may survive.
    fn of(key: u64, step: usize, arrival: usize) -> Self;
}

impl Val for () {
    fn of(_key: u64, _step: usize, _arrival: usize) {}
}

impl Val for u64 {
    fn of(key: u64, step: usize, arrival: usize) -> u64 {
        key ^ (step as u64) << 32 ^ arrival as u64
    }
}

/// The ordered-query surface, as a backend's [`MapView`] and a tier both
/// offer it.
trait Ordered<V> {
    fn range_entries(&self, lo: Bound<&u64>, hi: Bound<&u64>) -> Vec<(u64, V)>;
    fn range_keys(&self, lo: Bound<&u64>, hi: Bound<&u64>) -> Vec<u64>;
    fn range_count(&self, lo: Bound<&u64>, hi: Bound<&u64>) -> usize;
    fn kth(&self, k: usize) -> Option<u64>;
    fn kth_entry(&self, k: usize) -> Option<(u64, V)>;
    fn predecessor(&self, key: &u64) -> Option<u64>;
    fn successor(&self, key: &u64) -> Option<u64>;
}

/// A backend (or a clone of one), read through its [`MapView`].
struct OnView<'a, M>(&'a M);

impl<V: Val, M: MapView<u64, V>> Ordered<V> for OnView<'_, M> {
    fn range_entries(&self, lo: Bound<&u64>, hi: Bound<&u64>) -> Vec<(u64, V)> {
        self.0.range_entries(lo, hi)
    }
    fn range_keys(&self, lo: Bound<&u64>, hi: Bound<&u64>) -> Vec<u64> {
        self.0.range_keys(lo, hi)
    }
    fn range_count(&self, lo: Bound<&u64>, hi: Bound<&u64>) -> usize {
        self.0.range_count(lo, hi)
    }
    fn kth(&self, k: usize) -> Option<u64> {
        self.0.kth(k)
    }
    fn kth_entry(&self, k: usize) -> Option<(u64, V)> {
        self.0.kth_entry(k)
    }
    fn predecessor(&self, key: &u64) -> Option<u64> {
        self.0.predecessor(key)
    }
    fn successor(&self, key: &u64) -> Option<u64> {
        self.0.successor(key)
    }
}

/// A tier, read through its own stitched ordered queries.
struct OnTier<'a, Sh, R>(&'a Tier<Sh, R>);

impl<V: Val, Sh: Shard<Key = u64, Val = V>, R: ShardRouter<u64>> Ordered<V> for OnTier<'_, Sh, R> {
    fn range_entries(&self, lo: Bound<&u64>, hi: Bound<&u64>) -> Vec<(u64, V)> {
        self.0.range_entries(lo, hi)
    }
    fn range_keys(&self, lo: Bound<&u64>, hi: Bound<&u64>) -> Vec<u64> {
        self.0.range_keys(lo, hi)
    }
    fn range_count(&self, lo: Bound<&u64>, hi: Bound<&u64>) -> usize {
        self.0.range_count(lo, hi)
    }
    fn kth(&self, k: usize) -> Option<u64> {
        self.0.kth(k)
    }
    fn kth_entry(&self, k: usize) -> Option<(u64, V)> {
        self.0.kth_entry(k)
    }
    fn predecessor(&self, key: &u64) -> Option<u64> {
        self.0.predecessor(key)
    }
    fn successor(&self, key: &u64) -> Option<u64> {
        self.0.successor(key)
    }
}

/// Does `key` fall inside the `(lo, hi)` bound pair?  The reference
/// definition the whole suite measures against — a plain conjunction of
/// the two one-sided tests, so inverted pairs are naturally empty.
fn in_bounds(key: u64, lo: Bound<&u64>, hi: Bound<&u64>) -> bool {
    let above = match lo {
        Bound::Unbounded => true,
        Bound::Included(l) => key >= *l,
        Bound::Excluded(l) => key > *l,
    };
    let below = match hi {
        Bound::Unbounded => true,
        Bound::Included(h) => key <= *h,
        Bound::Excluded(h) => key < *h,
    };
    above && below
}

/// The bound-shape grid for one check round: every Included/Excluded/
/// Unbounded combination over one present and one absent key, plus the
/// degenerate shapes (inverted, equal-excluded, empty interior).
fn probe_bounds(rng: &mut SplitMix64, oracle: &BTreeSet<u64>) -> Vec<(Bound<u64>, Bound<u64>)> {
    use Bound::{Excluded, Included, Unbounded};
    let present = *oracle
        .iter()
        .nth(rng.next_below(oracle.len() as u64) as usize)
        .expect("non-empty oracle");
    // An absent probe strictly inside the key range (odd keys are never
    // generated by the drivers below, which use even keys only).
    let absent = present | 1;
    let lows = [present, absent, present.saturating_sub(3)];
    let highs = [present, absent, present.saturating_add(3)];
    let mut probes = vec![(Unbounded, Unbounded)];
    for &lo in &lows {
        for &hi in &highs {
            probes.push((Included(lo), Included(hi)));
            probes.push((Included(lo), Excluded(hi)));
            probes.push((Excluded(lo), Included(hi)));
            probes.push((Excluded(lo), Excluded(hi)));
            probes.push((Unbounded, Excluded(hi)));
            probes.push((Included(lo), Unbounded));
        }
    }
    // Deliberately inverted and self-annihilating shapes.
    probes.push((Included(present.saturating_add(10)), Included(present)));
    probes.push((Excluded(present), Excluded(present)));
    probes.push((Included(absent), Excluded(absent)));
    probes
}

/// Checks one read surface — a live backend, a frozen clone of one, or a
/// tier — against the oracle: the five ordered queries over the bound grid,
/// with entries (values) wherever the surface returns them.  Every key of
/// `edges` adds bounds just around it and is a predecessor / successor
/// probe.
fn check_ordered_queries<V: Val>(
    ctx: &str,
    oracle: &BTreeMap<u64, V>,
    rng: &mut SplitMix64,
    view: &impl Ordered<V>,
    edges: &[u64],
) {
    use Bound::{Excluded, Included, Unbounded};
    let keys: BTreeSet<u64> = oracle.keys().copied().collect();
    let mut bounds = probe_bounds(rng, &keys);
    for &edge in edges {
        bounds.push((
            Included(edge.saturating_sub(5)),
            Excluded(edge.saturating_add(5)),
        ));
        bounds.push((Excluded(edge), Unbounded));
        bounds.push((Unbounded, Included(edge)));
    }
    for (lo, hi) in bounds {
        let expected: Vec<(u64, V)> = oracle
            .iter()
            .filter(|(&k, _)| in_bounds(k, lo.as_ref(), hi.as_ref()))
            .map(|(k, v)| (*k, v.clone()))
            .collect();
        assert_eq!(
            view.range_entries(lo.as_ref(), hi.as_ref()),
            expected,
            "{ctx}: range_entries({lo:?}, {hi:?}) diverged"
        );
        assert_eq!(
            view.range_keys(lo.as_ref(), hi.as_ref()),
            expected.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            "{ctx}: range_keys({lo:?}, {hi:?}) diverged"
        );
        assert_eq!(
            view.range_count(lo.as_ref(), hi.as_ref()),
            expected.len(),
            "{ctx}: range_count({lo:?}, {hi:?}) diverged"
        );
    }
    // kth at both ends, the middle, and one past the end — the key, and the
    // entry with the value the oracle holds for it.
    let n = oracle.len();
    let sorted: Vec<u64> = keys.iter().copied().collect();
    for k in [0, n / 2, n.saturating_sub(1), n, n + 7] {
        assert_eq!(
            view.kth(k),
            sorted.get(k).copied(),
            "{ctx}: kth({k}) diverged (len {n})"
        );
        assert_eq!(
            view.kth_entry(k),
            sorted.get(k).map(|key| (*key, oracle[key].clone())),
            "{ctx}: kth_entry({k}) diverged (len {n})"
        );
    }
    // predecessor/successor: at the extremes (where one side must be
    // None), just past the extremes, and at present/absent interior keys.
    let min = sorted[0];
    let max = sorted[n - 1];
    let interior = sorted[n / 2];
    let probes = [
        min,
        max,
        min.wrapping_sub(1),
        max + 1,
        interior,
        interior | 1,
    ];
    for probe in probes.into_iter().chain(edges.iter().copied()) {
        assert_eq!(
            view.predecessor(&probe),
            sorted.iter().copied().rfind(|&k| k < probe),
            "{ctx}: predecessor({probe}) diverged"
        );
        assert_eq!(
            view.successor(&probe),
            sorted.iter().copied().find(|&k| k > probe),
            "{ctx}: successor({probe}) diverged"
        );
    }
}

/// Even keys only, so `key | 1` is a guaranteed-absent interior probe.
fn even_key_batches(seed: u64) -> Vec<workloads::OpBatch> {
    workloads::mixed_op_batches(seed, 12, 800, 0..20_000, (3, 2, 1))
        .into_iter()
        .map(|mut b| {
            for k in &mut b.keys {
                *k &= !1;
            }
            b
        })
        .collect()
}

/// Drives a backend through an upsert/remove history — duplicate keys
/// inside one arrival batch pin the last-wins policy — checking flags,
/// values (`get` / `batch_get`) and the ordered queries after every batch
/// — on the backend, and on the clone taken *before* the batch, which must
/// still answer as the oracle did then.
fn drive<V: Val, S: BatchedMap<u64, V> + Clone>(ctx: &str, store: &mut S, seed: u64) {
    let mut oracle: BTreeMap<u64, V> = BTreeMap::new();
    let mut rng = SplitMix64::new(seed ^ 0xD1CE);
    for (step, op) in even_key_batches(seed).iter().enumerate() {
        let ctx = format!("{ctx}, step {step}");
        let (view, then) = (store.clone(), oracle.clone());
        match op.kind {
            OpKind::Insert => {
                // Duplicate the head key (with a different value) to
                // guarantee at least one collision per batch.
                let mut pairs: Vec<(u64, V)> = op
                    .keys
                    .iter()
                    .enumerate()
                    .map(|(i, &k)| (k, V::of(k, step, i)))
                    .collect();
                let head = pairs[0].0;
                pairs.push((head, V::of(head ^ 0xABCD, step, 0)));
                let batch = KvBatch::from_unsorted_entries(pairs.clone());
                let flags = store.batch_insert(&batch);
                let expected: Vec<bool> = batch.iter().map(|k| !oracle.contains_key(k)).collect();
                assert_eq!(flags, expected, "{ctx}: insert flags diverged");
                // Oracle: arrival order, overwrite on duplicates.
                oracle.extend(pairs);
            }
            OpKind::Remove => {
                let batch = Batch::from_unsorted(op.keys.clone());
                let flags = store.batch_remove(&batch);
                let expected: Vec<bool> =
                    batch.iter().map(|k| oracle.remove(k).is_some()).collect();
                assert_eq!(flags, expected, "{ctx}: remove flags diverged");
            }
            OpKind::Contains => {
                let batch = Batch::from_unsorted(op.keys.clone());
                let expected: Vec<Option<V>> =
                    batch.iter().map(|k| oracle.get(k).cloned()).collect();
                assert_eq!(
                    store.batch_contains(&batch),
                    expected.iter().map(Option::is_some).collect::<Vec<_>>(),
                    "{ctx}: batch_contains diverged"
                );
                assert_eq!(
                    store.batch_get(&batch),
                    expected,
                    "{ctx}: batch_get diverged"
                );
            }
        }
        assert_eq!(store.len(), oracle.len(), "{ctx}: len diverged");
        if oracle.is_empty() {
            continue;
        }
        // Spot-check single-key reads at a present and an absent key.
        let probe = *oracle.keys().next().expect("non-empty");
        assert_eq!(store.get(&probe), oracle.get(&probe).cloned(), "{ctx}");
        assert_eq!(store.get(&(probe | 1)), None, "{ctx}");
        assert!(
            store.contains(&probe) && !store.contains(&(probe | 1)),
            "{ctx}"
        );
        check_ordered_queries(&ctx, &oracle, &mut rng, &OnView(&*store), &[]);
        assert_eq!(view.len(), then.len(), "{ctx} (clone): len drifted");
        if !then.is_empty() {
            check_ordered_queries(
                &format!("{ctx} (clone)"),
                &then,
                &mut rng,
                &OnView(&view),
                &[],
            );
        }
        assert_eq!(view.get(&probe), then.get(&probe).cloned(), "{ctx} (clone)");
    }
    assert!(
        !oracle.is_empty(),
        "{ctx}: workload never populated the store"
    );
}

/// Drives the same kind of history through a tier's own batched writes
/// (`insert`, `remove`), checking its stitched ordered queries against the
/// oracle after every batch.  `edges` are the router's shard boundaries and
/// keys outside its range.
fn drive_tier<V: Val>(
    ctx: &str,
    seed: u64,
    edges: &[u64],
    tier: &impl Ordered<V>,
    insert: impl Fn(&KvBatch<u64, V>) -> Vec<bool>,
    remove: impl Fn(&Batch<u64>) -> Vec<bool>,
) {
    let mut oracle: BTreeMap<u64, V> = BTreeMap::new();
    let mut rng = SplitMix64::new(seed ^ 0x7135);
    for (step, op) in even_key_batches(seed).iter().enumerate() {
        let ctx = format!("{ctx}, step {step}");
        match op.kind {
            OpKind::Insert => {
                let pairs: Vec<(u64, V)> = op
                    .keys
                    .iter()
                    .enumerate()
                    .map(|(i, &k)| (k, V::of(k, step, i)))
                    .collect();
                let batch = KvBatch::from_unsorted_entries(pairs.clone());
                let expected: Vec<bool> = batch.iter().map(|k| !oracle.contains_key(k)).collect();
                assert_eq!(insert(&batch), expected, "{ctx}: insert flags diverged");
                oracle.extend(pairs);
            }
            OpKind::Remove => {
                let batch = Batch::from_unsorted(op.keys.clone());
                let expected: Vec<bool> =
                    batch.iter().map(|k| oracle.remove(k).is_some()).collect();
                assert_eq!(remove(&batch), expected, "{ctx}: remove flags diverged");
            }
            OpKind::Contains => continue,
        }
        if !oracle.is_empty() {
            check_ordered_queries(&ctx, &oracle, &mut rng, tier, edges);
        }
    }
}

/// The router the tiers run under — `[2 000, 18 000]`, so the history's
/// keys below and above it clamp into the edge shards — with its probe
/// keys: every shard boundary, and keys outside the range.
fn tier_router(shards: usize) -> (RangeRouter<u64>, Vec<u64>) {
    let router = RangeRouter::new(shards, 2_000u64, 18_000);
    let mut edges: Vec<u64> = (1..20_000u64)
        .filter(|k| router.shard_of(k) != router.shard_of(&(k - 1)))
        .collect();
    assert_eq!(edges.len(), shards - 1, "one edge between each two shards");
    edges.extend([0, 1_999, 18_001, 19_999, u64::MAX]);
    (router, edges)
}

/// The in-memory tier at one value type, at 1, 2, 3 and 8 shards.
fn tier_grid<V: Val>() {
    for shards in [1usize, 2, 3, 8] {
        let (router, edges) = tier_router(shards);
        let fronts = (0..shards)
            .map(|_| {
                let tree: IstMap<u64, V> = IstMap::from_sorted_entries(Vec::new());
                ConcurrentMap::new(tree, Pool::new(1).unwrap())
            })
            .collect();
        let tier = Tier::new(router, fronts, Pool::new(1).unwrap());
        drive_tier(
            &format!("{shards}-shard tier"),
            21,
            &edges,
            &OnTier(&tier),
            |batch| tier.batch_insert(batch),
            |batch| tier.batch_remove(batch),
        );
    }
}

#[test]
fn set_tiers_match_oracle() {
    tier_grid::<()>();
}

#[test]
fn map_tiers_match_oracle() {
    tier_grid::<u64>();
}

#[test]
fn a_durable_map_tier_matches_oracle() {
    let dir = std::env::temp_dir().join(format!("range-props-tier-{}", std::process::id()));
    let (router, edges) = tier_router(3);
    let tier: Tier<DurableMap<u64, u64, IstMap<u64, u64>>, _> = Tier::open(
        &dir,
        router,
        DurableOptions::default(),
        |_| Pool::new(1).unwrap(),
        |recovered| IstMap::from_batch(&recovered),
    )
    .unwrap();
    drive_tier(
        "3-shard durable tier",
        22,
        &edges,
        &OnTier(&tier),
        |batch| tier.batch_insert(batch).unwrap(),
        |batch| tier.batch_remove(batch).unwrap(),
    );
    tier.close().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Both backends at one value type, outside any pool.
fn grid_outside_pool<V: Val>() {
    for seed in [11, 12] {
        let mut tree: IstMap<u64, V> = IstMap::from_sorted_entries(Vec::new());
        drive(
            &format!("IstMap, seed {seed}, outside pool"),
            &mut tree,
            seed,
        );
        tree.check_invariants().expect("tree invariants");
    }
    for seed in [14, 15] {
        let mut array: SortedArrayMap<u64, V> = SortedArrayMap::from_unsorted_entries(Vec::new());
        drive(&format!("SortedArrayMap, seed {seed}"), &mut array, seed);
    }
}

/// The tree at one value type, inside a 4-worker pool.
fn tree_inside_pool<V: Val>() {
    let pool = Pool::new(4).unwrap();
    pool.install(|| {
        let seed = 13;
        let mut tree: IstMap<u64, V> = IstMap::from_sorted_entries(Vec::new());
        drive(
            &format!("IstMap, seed {seed}, 4-worker pool"),
            &mut tree,
            seed,
        );
        tree.check_invariants().expect("tree invariants");
    });
}

#[test]
fn sets_match_oracle_outside_pool() {
    grid_outside_pool::<()>();
}

#[test]
fn ist_set_matches_oracle_inside_pool() {
    tree_inside_pool::<()>();
}

#[test]
fn maps_match_oracle_outside_pool() {
    grid_outside_pool::<u64>();
}

#[test]
fn ist_map_matches_oracle_inside_pool() {
    tree_inside_pool::<u64>();
}
