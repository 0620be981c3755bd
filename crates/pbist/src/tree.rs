//! The interpolation search tree store: bulk construction, lookups, and the
//! batched-operations interface — one struct, generic over the per-key
//! value, with the set as its `V = ()` instance.  Every write, of one key
//! or a whole batch, is one call into `update`'s recursion.

use std::ops::Bound;
use std::slice;
use std::sync::Arc;

use batchapi::{Batch, BatchedMap, KvBatch, MapView};

use crate::children::Children;
use crate::metrics::{metrics_ref, touch_node, IstMetrics, IstMetricsSnapshot, MetricsRef};
use crate::node::{
    interpolate_slot, Edit, InnerNode, InterpolateKey, LeafNode, Node, DELTA_CAPACITY,
    LEAF_CAPACITY, MAX_FANOUT, REBUILD_FACTOR,
};
use crate::{range, traverse, update};

/// An ordered key→value map stored as an interpolation search tree.
///
/// Construction is bulk ([`IstMap::from_batch`] and friends) and builds
/// subtrees in parallel when called inside a [`forkjoin::Pool`].  Point
/// lookups descend by interpolation; batched operations arrive through the
/// [`batchapi::BatchedMap`] impl, which processes each sorted batch jointly
/// — walked as runs at every inner node, one run per child it reaches, a
/// large sub-batch split in half at a child boundary and the halves forked,
/// each leaf meeting its run in one galloping merge — with updates writing
/// each touched leaf's delta once (or folding it into a new base) and
/// rebuilding any subtree whose size drifts past the rebuild threshold (the
/// paper's core contribution).  Batched
/// inserts are last-wins upserts (see the `batchapi` crate docs).  A point
/// write (`upsert_one` / `remove_one`) is that same update on a batch of
/// one: there is one update algorithm, whatever the batch size.
///
/// Leaves carry each key's value beside it; for the set ([`IstSet`]) the
/// value is a zero-sized `()` the compiler erases.
///
/// ```
/// use batchapi::{BatchedMap, KvBatch, MapView};
///
/// let mut map = pbist::IstMap::from_unsorted_entries(vec![(5u64, "a"), (1, "b")]);
/// assert_eq!(map.get(&5), Some("a"));
/// let newly = map.batch_insert(&KvBatch::from_unsorted_entries(vec![(5, "x"), (9, "y")]));
/// assert_eq!(newly, vec![false, true]); // 5 was present: value overwritten
/// assert_eq!(map.get(&5), Some("x"));
/// assert_eq!(map.len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct IstMap<K, V = ()> {
    /// `Arc` so a clone — a published snapshot — is `O(1)`: the root `Arc`
    /// plus the metrics plumbing (reads served from it keep counting nodes
    /// touched).  Updates path-copy exactly the inner nodes (and child
    /// chunks) a clone still shares, and give a shared leaf a new node over
    /// the same base with a copied delta.
    root: Option<Arc<Node<K, V>>>,
    /// Gates metric recording; the recursion carries `None` when disabled,
    /// so the default configuration pays one branch per instrumented site.
    obs: obs::Obs,
    /// Work counters.  `Clone` shares the `Arc`, so clones of one tree —
    /// published snapshots among them — report into the same counters;
    /// callers that benchmark clones use [`IstMetricsSnapshot::delta`]
    /// windows.
    metrics: Arc<IstMetrics>,
}

/// A set of keys stored as an interpolation search tree: the `V = ()`
/// instance of [`IstMap`].
///
/// ```
/// use batchapi::{Batch, BatchedMap, MapView};
///
/// let mut set = pbist::IstSet::from_unsorted(vec![5u64, 1, 9, 1]);
/// assert!(set.contains(&5));
/// assert_eq!(set.len(), 3);
/// let newly = set.batch_insert(&Batch::from_unsorted(vec![2, 5]));
/// assert_eq!(newly, vec![true, false]);
/// assert_eq!(set.len(), 4);
/// let gone = set.batch_remove(&Batch::from_unsorted(vec![1, 7]));
/// assert_eq!(gone, vec![true, false]);
/// assert!(!set.contains(&1));
/// ```
pub type IstSet<K> = IstMap<K, ()>;

impl<K, V> IstMap<K, V> {
    /// Turns work-counter collection on or off ([`IstMap::metrics`]).  Off
    /// by default: disabled, every instrumented site is one predictable
    /// branch (the benchmark's `obs.disabled_overhead_ns` bounds it).
    pub fn with_metrics(mut self, enabled: bool) -> IstMap<K, V> {
        self.obs = obs::Obs::new(enabled);
        self
    }

    /// Snapshot of the tree's work counters: nodes touched, leaves edited,
    /// rebuild count and keys, and what copy-on-write under live clones
    /// cost (nodes copied, refcounts bumped).  All zero unless the tree was
    /// configured with [`IstMap::with_metrics`].
    pub fn metrics(&self) -> IstMetricsSnapshot {
        self.metrics.snapshot()
    }

    fn obs_metrics(&self) -> MetricsRef<'_> {
        metrics_ref(self.obs, &self.metrics)
    }
}

impl<K: InterpolateKey + Clone + Send + Sync> IstSet<K> {
    /// Builds a set from keys that are already sorted and deduplicated
    /// (checked with a `debug_assert!`).
    pub fn from_sorted(keys: Vec<K>) -> IstSet<K> {
        debug_assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "keys must be strictly increasing"
        );
        // `Vec<()>` never allocates.
        IstMap::from_parts(&keys, &vec![(); keys.len()])
    }

    /// Builds a set from arbitrary keys; sorts (unstable — keys are plain
    /// `Ord` values, there is no tie order to preserve) and deduplicates
    /// them first.
    pub fn from_unsorted(mut keys: Vec<K>) -> IstSet<K> {
        keys.sort_unstable();
        keys.dedup();
        IstSet::from_sorted(keys)
    }
}

impl<K, V> IstMap<K, V>
where
    K: InterpolateKey + Clone + Send + Sync,
    V: Clone + Send + Sync,
{
    fn from_parts(keys: &[K], vals: &[V]) -> IstMap<K, V> {
        IstMap {
            root: (!keys.is_empty()).then(|| Arc::new(build(keys, vals))),
            obs: obs::Obs::disabled(),
            metrics: Arc::new(IstMetrics::default()),
        }
    }

    /// Builds a tree holding the pairs of `batch` (already sorted and
    /// deduplicated by construction, so no copy or re-check is needed).
    pub fn from_batch(batch: &KvBatch<K, V>) -> IstMap<K, V> {
        IstMap::from_parts(batch.keys(), batch.vals())
    }

    /// Builds a map from entries whose keys are already strictly increasing
    /// (checked with a `debug_assert!`).
    pub fn from_sorted_entries(entries: Vec<(K, V)>) -> IstMap<K, V> {
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "keys must be strictly increasing"
        );
        let (keys, vals): (Vec<K>, Vec<V>) = entries.into_iter().unzip();
        IstMap::from_parts(&keys, &vals)
    }

    /// Builds a map from arbitrary entries; sorts by key and collapses
    /// duplicates last-wins (the [`KvBatch`] policy).
    pub fn from_unsorted_entries(entries: Vec<(K, V)>) -> IstMap<K, V> {
        IstMap::from_batch(&KvBatch::from_unsorted_entries(entries))
    }

    /// Verifies the tree's shape invariants — strictly increasing leaf runs
    /// within capacity with one value per key, router keys equal to each
    /// right sibling's minimum, consistent `len`/`min`/`max` at every inner
    /// node, child chunks of the width their count calls for with none
    /// empty — returning a description of the first violation.
    ///
    /// Intended for tests and debugging after batched updates; cost is a
    /// full traversal.
    pub fn check_invariants(&self) -> Result<(), String> {
        match &self.root {
            None => Ok(()),
            Some(root) if root.is_empty() => Err("empty root was not pruned to None".into()),
            Some(root) => check_node(root),
        }
    }

    /// Answers one leaf-level query per batch key by the paper's joint
    /// traversal, each answer written over its `R::default()` slot.
    fn batch_lookup<R, F>(&self, batch: &[K], answer: &F) -> Vec<R>
    where
        R: Default + Send,
        F: Fn(Option<&V>) -> R + Sync,
    {
        let mut out: Vec<R> = batch.iter().map(|_| R::default()).collect();
        if let Some(root) = &self.root {
            traverse::joint_query_into(root, batch, &mut out, self.obs_metrics(), answer);
        }
        out
    }

    /// Upserts a non-empty sorted run — a whole batch or one pair — writing a
    /// "newly inserted?" flag per key into `out`; returns the number added.
    fn insert_sorted(&mut self, keys: &[K], vals: &[V], out: &mut [bool]) -> usize {
        let m = metrics_ref(self.obs, &self.metrics);
        match &mut self.root {
            Some(root) => update::insert_into(root, keys, vals, out, m),
            None => {
                self.root = Some(Arc::new(build(keys, vals)));
                out.fill(true);
                keys.len()
            }
        }
    }

    /// Removes a non-empty sorted run of keys, writing a "was present?" flag
    /// per key into `out`; returns the number removed.
    fn remove_sorted(&mut self, keys: &[K], out: &mut [bool]) -> usize {
        let m = metrics_ref(self.obs, &self.metrics);
        let Some(root) = &mut self.root else {
            out.fill(false);
            return 0;
        };
        let removed = update::remove_from(root, keys, out, m);
        if root.is_empty() {
            self.root = None;
        }
        removed
    }
}

impl<K, V> MapView<K, V> for IstMap<K, V>
where
    K: InterpolateKey + Clone + Send + Sync,
    V: Clone + Send + Sync,
{
    fn len(&self) -> usize {
        self.root.as_ref().map_or(0, |root| root.len())
    }

    fn get(&self, key: &K) -> Option<V> {
        let root = self.root.as_ref()?;
        lookup_in(root, key, self.obs_metrics(), &leaf_get)
    }

    fn contains(&self, key: &K) -> bool {
        match &self.root {
            Some(root) => lookup_in(root, key, self.obs_metrics(), &leaf_has),
            None => false,
        }
    }

    /// The interpolated descent plus the sizes of the subtrees it passes on
    /// its left.
    fn rank(&self, key: &K) -> usize {
        match &self.root {
            Some(root) => rank_in(root, key, self.obs_metrics()),
            None => 0,
        }
    }

    fn min(&self) -> Option<&K> {
        self.root.as_ref().map(|root| root.min_key())
    }

    fn max(&self) -> Option<&K> {
        self.root.as_ref().map(|root| root.max_key())
    }

    fn batch_contains(&self, batch: &Batch<K>) -> Vec<bool> {
        self.batch_lookup(batch, &leaf_has)
    }

    fn batch_get(&self, batch: &Batch<K>) -> Vec<Option<V>> {
        self.batch_lookup(batch, &leaf_get)
    }

    /// Forks per subtree inside a pool — the parallel flatten the rebuild
    /// path uses.
    fn collect_entries(&self) -> (Vec<K>, Vec<V>) {
        match &self.root {
            Some(root) => update::collect_kv(root),
            None => (Vec::new(), Vec::new()),
        }
    }

    // The structure-aware range carve: one descent, binary searches only in
    // the two boundary leaves, interior subtrees concatenated wholesale.

    fn range_entries(&self, lo: Bound<&K>, hi: Bound<&K>) -> Vec<(K, V)> {
        let mut entries = Vec::new();
        if let Some(root) = &self.root {
            touch_node(self.obs_metrics());
            range::range_for_each(root, lo, hi, &mut |k: &K, v: &V| {
                entries.push((k.clone(), v.clone()))
            });
        }
        entries
    }

    fn range_keys(&self, lo: Bound<&K>, hi: Bound<&K>) -> Vec<K> {
        let mut keys = Vec::new();
        if let Some(root) = &self.root {
            touch_node(self.obs_metrics());
            range::range_for_each(root, lo, hi, &mut |k: &K, _v: &V| keys.push(k.clone()));
        }
        keys
    }

    fn kth_entry(&self, k: usize) -> Option<(K, V)> {
        let root = self.root.as_ref().filter(|root| k < root.len())?;
        touch_node(self.obs_metrics());
        let (key, val) = range::kth_entry(root, k);
        Some((key.clone(), val.clone()))
    }
}

impl<K, V> BatchedMap<K, V> for IstMap<K, V>
where
    K: InterpolateKey + Clone + Send + Sync,
    V: Clone + Send + Sync,
{
    fn batch_insert(&mut self, batch: &KvBatch<K, V>) -> Vec<bool> {
        let mut out = vec![false; batch.len()];
        if !batch.is_empty() {
            self.insert_sorted(batch.keys(), batch.vals(), &mut out);
        }
        out
    }

    fn batch_remove(&mut self, batch: &Batch<K>) -> Vec<bool> {
        let mut out = vec![false; batch.len()];
        if !batch.is_empty() {
            self.remove_sorted(batch.keys(), &mut out);
        }
        out
    }

    // A point write is a batch of one: the overrides only spare the provided
    // methods' `Vec`s (borrowed one-element slices, a flag slot on the stack).

    fn upsert_one(&mut self, key: &K, val: &V) -> bool {
        self.insert_sorted(slice::from_ref(key), slice::from_ref(val), &mut [false]) == 1
    }

    fn remove_one(&mut self, key: &K) -> bool {
        self.remove_sorted(slice::from_ref(key), &mut [false]) == 1
    }
}

/// Picks the child whose key range covers `key` in a node with these
/// `routers` and subtree bounds `min`/`max`: interpolate a guess, then
/// correct it against the routers (cheap check first, binary search only
/// when the guess is off).  The one routing function — point reads, `rank`,
/// and the first key of every run the batched walks route.
pub(crate) fn child_index<K: InterpolateKey>(routers: &[K], min: &K, max: &K, key: &K) -> usize {
    let n = routers.len() + 1;
    let guess = interpolate_slot(key, min, max, n);
    let fits_left = guess == 0 || routers[guess - 1] <= *key;
    let fits_right = guess == n - 1 || *key < routers[guess];
    if fits_left && fits_right {
        return guess;
    }
    routers.partition_point(|r| r <= key)
}

/// Interpolated probes [`leaf_search`] makes before it finishes by binary
/// search.  Counted over every leaf of the four benchmark workloads' shard
/// trees (uniform keys; 10⁵, 10⁶ and 2·10⁶ of them over two shards, so
/// leaves of about 224, 707 and 1 000 keys, bulk-built and grown by
/// strided batches plus point or batch churn), searching for every key
/// between each leaf's bounds: 62–77 % of searches end within three
/// probes, 99.2–99.8 % within five, none needed more than eight.  Twice
/// that: a uniform leaf never falls back, and the loop stays a loop — at 8
/// or 10 the compiler unrolls it into as many copies of the probe, which
/// cost `batch-small` `read_p50_us` 15 % end to end.
const LEAF_PROBES: usize = 16;

/// Interpolation search over a leaf's sorted base: `Ok` with the index of
/// `key` when present, else `Err` with where it would go — what
/// `binary_search` answers, so a lookup and a rank share it.
///
/// Each probe interpolates within the remaining `[lo, hi)` window, which
/// shrinks every iteration.  Where the guess keeps missing (one outlier
/// stretches the range and every probe moves the window by a slot) the
/// search stops guessing after [`LEAF_PROBES`] probes and binary searches
/// what is left: `O(log len)` comparisons whatever the distribution.
pub(crate) fn leaf_search<K: InterpolateKey, V>(base: &[(K, V)], key: &K) -> Result<usize, usize> {
    let mut lo = 0;
    let mut hi = base.len();
    for _ in 0..LEAF_PROBES {
        if lo == hi {
            return Err(lo);
        }
        let slot = lo + interpolate_slot(key, &base[lo].0, &base[hi - 1].0, hi - lo);
        match base[slot].0.cmp(key) {
            std::cmp::Ordering::Equal => return Ok(slot),
            std::cmp::Ordering::Less => lo = slot + 1,
            std::cmp::Ordering::Greater => hi = slot,
        }
    }
    match base[lo..hi].binary_search_by(|(k, _)| k.cmp(key)) {
        Ok(at) => Ok(lo + at),
        Err(at) => Err(lo + at),
    }
}

/// `key`'s value in `leaf`'s merged view: the delta's entry for it, if
/// any (an empty delta is one length check), else the base's.
fn leaf_value<'a, K: InterpolateKey, V>(leaf: &'a LeafNode<K, V>, key: &K) -> Option<&'a V> {
    match leaf.delta.binary_search_by(|(k, _)| k.cmp(key)) {
        Ok(d) => leaf.delta[d].1.value(),
        Err(_) => leaf_search(&leaf.base, key).ok().map(|at| &leaf.base[at].1),
    }
}

/// Leaf-level membership answer (the set's lookup), given the key's value
/// if present.
fn leaf_has<V>(found: Option<&V>) -> bool {
    found.is_some()
}

/// Leaf-level value answer (the map's lookup), given the key's value if
/// present.
fn leaf_get<V: Clone>(found: Option<&V>) -> Option<V> {
    found.cloned()
}

/// The interpolated point-lookup descent: routes `key` to its leaf and
/// answers there with `answer` ([`leaf_has`] or [`leaf_get`]) on what
/// [`leaf_value`] found.
fn lookup_in<K: InterpolateKey, V, R>(
    root: &Node<K, V>,
    key: &K,
    m: MetricsRef<'_>,
    answer: &impl Fn(Option<&V>) -> R,
) -> R {
    let mut node = root;
    loop {
        touch_node(m);
        match node {
            Node::Leaf(leaf) => return answer(leaf_value(leaf, key)),
            Node::Inner(inner) => {
                let idx = child_index(&inner.routers, &inner.min, &inner.max, key);
                node = inner.children.get(idx);
            }
        }
    }
}

/// The rank descent (keys strictly below `key`): chunk counts and one
/// chunk's child sizes at each inner node, an interpolation search in the
/// leaf's base, shifted by the delta's edits below `key`.
fn rank_in<K: InterpolateKey, V>(root: &Node<K, V>, key: &K, m: MetricsRef<'_>) -> usize {
    let mut node = root;
    let mut before = 0;
    loop {
        touch_node(m);
        match node {
            Node::Leaf(leaf) => {
                let (Ok(at) | Err(at)) = leaf_search(&leaf.base, key);
                return before + leaf.rank(at, key);
            }
            Node::Inner(inner) => {
                let idx = child_index(&inner.routers, &inner.min, &inner.max, key);
                before += inner.children.keys_before(idx);
                node = inner.children.get(idx);
            }
        }
    }
}

/// Builds the subtree for one strictly-increasing run of keys (with its
/// index-parallel values), forking once per child chunk
/// (`parprim::map_tasks`).
pub(crate) fn build<K, V>(keys: &[K], vals: &[V]) -> Node<K, V>
where
    K: InterpolateKey + Clone + Send + Sync,
    V: Clone + Send + Sync,
{
    debug_assert!(!keys.is_empty());
    debug_assert_eq!(keys.len(), vals.len());
    if keys.len() <= LEAF_CAPACITY {
        // Zipped slices have a trusted length: one allocation, written in
        // place.
        let base = keys.iter().cloned().zip(vals.iter().cloned()).collect();
        return Node::Leaf(LeafNode::from_base(base));
    }
    // Ideal IST fanout is Θ(√n).  While √n ≤ LEAF_CAPACITY the children
    // are leaves and the node takes all √n of them (a few more at the very
    // top of that range, so none passes LEAF_CAPACITY); above it the cap
    // bounds router-array sizes.
    let sqrt_n = (keys.len() as f64).sqrt() as usize;
    let fanout = if sqrt_n <= LEAF_CAPACITY {
        sqrt_n.max(keys.len().div_ceil(LEAF_CAPACITY))
    } else {
        MAX_FANOUT
    };
    let chunk_len = keys.len().div_ceil(fanout);
    let chunks: Vec<(&[K], &[V])> = keys.chunks(chunk_len).zip(vals.chunks(chunk_len)).collect();
    let routers: Arc<[K]> = chunks[1..].iter().map(|(c, _)| c[0].clone()).collect();
    let children = parprim::map_tasks(&chunks, |(c, v)| Arc::new(build(c, v)));
    Node::Inner(InnerNode {
        routers,
        children: Children::from_vec(children),
        len: keys.len(),
        built_len: keys.len(),
        min: keys[0].clone(),
        max: keys[keys.len() - 1].clone(),
    })
}

/// Recursive worker for [`IstMap::check_invariants`].
fn check_node<K: InterpolateKey, V>(node: &Node<K, V>) -> Result<(), String> {
    match node {
        Node::Leaf(leaf) => check_leaf(leaf),
        Node::Inner(inner) => {
            inner.children.check()?;
            let children: Vec<&Node<K, V>> = inner.children.iter().collect();
            if children.len() < 2 {
                return Err(format!(
                    "inner node with {} children was not hoisted",
                    children.len()
                ));
            }
            if inner.routers.len() + 1 != children.len() {
                return Err(format!(
                    "{} routers for {} children",
                    inner.routers.len(),
                    children.len()
                ));
            }
            let child_sum: usize = children.iter().map(|c| c.len()).sum();
            if inner.len != child_sum {
                return Err(format!(
                    "inner len {} but children sum to {child_sum}",
                    inner.len
                ));
            }
            if children.iter().any(|c| c.is_empty()) {
                return Err("inner node kept an empty child".into());
            }
            if inner.min != *children[0].min_key() {
                return Err("inner min is not its first child's min".into());
            }
            if inner.max != *children[children.len() - 1].max_key() {
                return Err("inner max is not its last child's max".into());
            }
            for (i, router) in inner.routers.iter().enumerate() {
                if *router != *children[i + 1].min_key() {
                    return Err(format!("router {i} is not child {}'s min", i + 1));
                }
                if *children[i].max_key() >= *router {
                    return Err(format!("child {i} overlaps router {i}"));
                }
            }
            children.into_iter().try_for_each(check_node)
        }
    }
}

/// [`check_node`] at a leaf: base and delta each strictly increasing, the
/// delta within [`DELTA_CAPACITY`], every edit at a key of the kind it
/// claims, and `len`, `min`, `max` those of the merged view.
fn check_leaf<K: Ord, V>(leaf: &LeafNode<K, V>) -> Result<(), String> {
    if leaf.len == 0 {
        return Err("empty leaf was not pruned".into());
    }
    if leaf.len > REBUILD_FACTOR * LEAF_CAPACITY {
        return Err(format!(
            "leaf holds {} keys, over {REBUILD_FACTOR} × capacity {LEAF_CAPACITY}",
            leaf.len
        ));
    }
    if !leaf.base.windows(2).all(|w| w[0].0 < w[1].0) {
        return Err("leaf base keys are not strictly increasing".into());
    }
    if !leaf.delta.windows(2).all(|w| w[0].0 < w[1].0) {
        return Err("leaf delta keys are not strictly increasing".into());
    }
    if leaf.delta.len() > DELTA_CAPACITY {
        return Err(format!(
            "leaf delta holds {} edits, over {DELTA_CAPACITY}",
            leaf.delta.len()
        ));
    }
    for (key, edit) in &leaf.delta {
        let in_base = leaf.base.binary_search_by(|(k, _)| k.cmp(key)).is_ok();
        if in_base == matches!(edit, Edit::New(_)) {
            return Err(match edit {
                Edit::New(_) => "a new key in the delta is a base key".into(),
                _ => "an override or tombstone sits over no base key".into(),
            });
        }
    }
    let merged: Vec<&K> = leaf.iter().map(|(k, _)| k).collect();
    if merged.len() != leaf.len {
        return Err(format!(
            "leaf len {} but its merged view holds {} keys",
            leaf.len,
            merged.len()
        ));
    }
    if !merged.windows(2).all(|w| w[0] < w[1]) {
        return Err("leaf merged view is not strictly increasing".into());
    }
    if merged[0] != leaf.first() || merged[merged.len() - 1] != leaf.last() {
        return Err("leaf min or max is not its merged view's".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchapi::BatchedSet;
    use std::collections::BTreeMap;

    /// SplitMix64, inlined to keep this crate dependency-free.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn empty_tree_contains_nothing() {
        let set: IstSet<u64> = IstSet::from_sorted(Vec::new());
        assert!(set.is_empty());
        assert_eq!(set.len(), 0);
        assert!(!set.contains(&42));
        assert_eq!(set.min(), None);
        assert_eq!(set.max(), None);
        assert_eq!(set.rank(&42), 0);
        set.check_invariants().unwrap();
    }

    #[test]
    fn small_tree_is_one_leaf() {
        let set = IstSet::from_unsorted(vec![3u64, 1, 2]);
        assert!(matches!(set.root.as_deref(), Some(Node::Leaf(_))));
        assert_eq!(set.len(), 3);
        assert_eq!(set.min(), Some(&1));
        assert_eq!(set.max(), Some(&3));
    }

    /// Depth of a freshly built subtree, checking every inner node's
    /// fanout on the way: `⌊√n⌋` children where they are leaves (a few more
    /// where `n / ⌊√n⌋` would pass `LEAF_CAPACITY`), the cap where they are
    /// inner nodes — and the cap binding only there, where `√n` is past
    /// `LEAF_CAPACITY`.
    fn built_depth(node: &Node<u64>) -> usize {
        let Node::Inner(inner) = node else {
            assert!(
                node.len() <= LEAF_CAPACITY,
                "a built leaf of {}",
                node.len()
            );
            return 1;
        };
        let (n, fanout) = (inner.len, inner.children.len());
        let over_leaves = inner.children.iter().all(|c| matches!(c, Node::Leaf(_)));
        if over_leaves {
            assert_eq!(fanout, n.isqrt().max(n.div_ceil(LEAF_CAPACITY)), "n = {n}");
        } else {
            assert!(
                n.isqrt() > LEAF_CAPACITY,
                "n = {n}: inner children under √n"
            );
            assert_eq!(fanout, MAX_FANOUT, "n = {n}");
        }
        let depths: Vec<usize> = inner.children.iter().map(built_depth).collect();
        assert!(depths.iter().all(|&d| d == depths[0]), "n = {n}: uneven");
        1 + depths[0]
    }

    /// The shape `build` gives the benchmark's shard sizes: a node over
    /// leaves takes all `√n` children, so 10⁶ keys are 1 000 leaves of
    /// 1 000 under one root; past `LEAF_CAPACITY²` keys the root is capped
    /// at `MAX_FANOUT` and the level below is `√n` again.
    #[test]
    fn a_node_over_leaves_takes_root_n_children_and_the_cap_binds_above() {
        // 1 023 · 1 025 keys: √n rounds to 1 023 children, which would hold
        // 1 025 keys each — the one range where the fanout rises past √n.
        for (n, depth, root_fanout) in [
            (50_000, 2, 223),
            (1_000_000, 2, 1_000),
            (1_023 * 1_025, 2, 1_024),
            (2_000_000, 3, MAX_FANOUT),
        ] {
            let set = IstSet::from_sorted((0..n as u64).map(|i| i * 2).collect());
            let Some(Node::Inner(root)) = set.root.as_deref() else {
                panic!("{n} keys built a leaf")
            };
            assert_eq!(root.children.len(), root_fanout, "n = {n}");
            assert_eq!(built_depth(set.root.as_deref().unwrap()), depth, "n = {n}");
        }
    }

    #[test]
    fn large_tree_agrees_with_binary_search() {
        // Non-uniform gaps so interpolation guesses are frequently wrong.
        let keys: Vec<u64> = (0..50_000u64).map(|i| i * i % 1_000_003 + i).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        let set = IstSet::from_sorted(sorted.clone());
        assert_eq!(set.len(), sorted.len());
        set.check_invariants().unwrap();
        for probe in (0..2_000_000u64).step_by(997) {
            assert_eq!(
                set.contains(&probe),
                sorted.binary_search(&probe).is_ok(),
                "probe {probe}"
            );
            assert_eq!(
                set.rank(&probe),
                sorted.partition_point(|k| *k < probe),
                "rank of {probe}"
            );
        }
    }

    /// Ordered like the `u64` inside, counting every comparison.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Counted(u64);

    thread_local! {
        static COMPARISONS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    impl Ord for Counted {
        fn cmp(&self, other: &Counted) -> std::cmp::Ordering {
            COMPARISONS.set(COMPARISONS.get() + 1);
            self.0.cmp(&other.0)
        }
    }

    impl PartialOrd for Counted {
        fn partial_cmp(&self, other: &Counted) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl InterpolateKey for Counted {
        fn to_ordinal(&self) -> f64 {
            self.0 as f64
        }
    }

    #[test]
    fn leaf_search_is_logarithmic_on_a_skewed_leaf() {
        // A leaf of dense keys and one outlier, as built at capacity and as
        // large as one grows before it is rebuilt: every interpolated guess
        // lands in the first slot, so guessing alone walks the leaf.
        for len in [LEAF_CAPACITY, REBUILD_FACTOR * LEAF_CAPACITY] {
            let mut keys: Vec<(Counted, ())> =
                (0..len as u64 - 1).map(|k| (Counted(k), ())).collect();
            keys.push((Counted(u64::MAX), ()));
            let budget = 2 * len.ilog2() as usize + LEAF_PROBES;
            let probes = (0..=len as u64).chain([u64::MAX - 1, u64::MAX]);
            for probe in probes.map(Counted) {
                let expected = keys.binary_search_by(|(k, _)| k.0.cmp(&probe.0));
                COMPARISONS.set(0);
                assert_eq!(leaf_search(&keys, &probe), expected, "{len}: {probe:?}");
                let spent = COMPARISONS.get();
                assert!(spent <= budget, "{len}: {probe:?}: {spent} comparisons");
            }
        }
    }

    /// Picks `m` distinct entries of `pool` (`m <= pool.len()`), in order.
    fn pick_sorted(seed: &mut u64, pool: &[u64], m: usize) -> Vec<u64> {
        let mut picked = std::collections::BTreeSet::new();
        while picked.len() < m {
            picked.insert(pool[(splitmix(seed) % pool.len() as u64) as usize]);
        }
        picked.into_iter().collect()
    }

    #[test]
    fn a_leaf_answers_a_sorted_run_in_log_gap_comparisons() {
        // The skewed leaf above, and an evenly spread one; the run mixes
        // hits with misses `len` past each key (and `u64::MAX` clamped).
        let len = LEAF_CAPACITY as u64;
        let skewed: Vec<u64> = (0..len - 1).chain([u64::MAX]).collect();
        let even: Vec<u64> = (0..len).map(|i| i * 1_000).collect();
        let mut seed = 0x1EAF;
        for keys in [skewed, even] {
            let leaf = Node::Leaf(LeafNode::from_base(
                keys.iter().map(|&k| (Counted(k), ())).collect(),
            ));
            let mut pool: Vec<u64> = keys
                .iter()
                .flat_map(|&k| [k, k.saturating_add(len)])
                .collect();
            pool.sort_unstable();
            pool.dedup();
            for m in [1, 8, 64, 1024] {
                let run = pick_sorted(&mut seed, &pool, m);
                let expected: Vec<bool> =
                    run.iter().map(|q| keys.binary_search(q).is_ok()).collect();
                assert!(expected.contains(&false) || m == 1, "m = {m}: no misses");
                let queries: Vec<Counted> = run.into_iter().map(Counted).collect();
                let mut out = vec![false; m];
                COMPARISONS.set(0);
                traverse::joint_query_into(&leaf, &queries, &mut out, None, &leaf_has);
                let spent = COMPARISONS.get() as f64;
                assert_eq!(out, expected, "m = {m}");
                let bound = 4.0 * m as f64 * ((len as f64 / m as f64 + 1.0).log2() + 1.0);
                assert!(
                    spent <= bound,
                    "m = {m}: {spent} comparisons, bound {bound}"
                );
            }
        }
    }

    /// The update twin of the test above: a sorted run upserted into or
    /// removed from a shared leaf is merged in `O(log gap)` comparisons per
    /// key, straight from the old run, and a removal run that finds none of
    /// its keys leaves the leaf shared.
    #[test]
    fn a_leaf_merges_a_sorted_run_in_log_gap_comparisons() {
        let len = LEAF_CAPACITY as u64;
        let skewed: Vec<u64> = (0..len - 1).chain([u64::MAX]).collect();
        let even: Vec<u64> = (0..len).map(|i| i * 1_000).collect();
        let mut seed = 0x3E46E;
        for keys in [skewed, even] {
            let leaf = Arc::new(Node::Leaf(LeafNode::from_base(
                keys.iter().map(|&k| (Counted(k), ())).collect(),
            )));
            let mut pool: Vec<u64> = keys
                .iter()
                .flat_map(|&k| [k, k.saturating_add(len)])
                .collect();
            pool.sort_unstable();
            pool.dedup();
            for (m, insert) in [8, 64, 1024]
                .into_iter()
                .flat_map(|m| [(m, true), (m, false)])
            {
                let run = pick_sorted(&mut seed, &pool, m);
                let queries: Vec<Counted> = run.iter().copied().map(Counted).collect();
                let mut slot = Arc::clone(&leaf);
                let mut out = vec![false; m];
                COMPARISONS.set(0);
                if insert {
                    update::insert_into(&mut slot, &queries, &vec![(); m], &mut out, None);
                } else {
                    update::remove_from(&mut slot, &queries, &mut out, None);
                }
                let spent = COMPARISONS.get() as f64;
                let mut oracle: std::collections::BTreeSet<u64> = keys.iter().copied().collect();
                let expected: Vec<bool> = (run.iter())
                    .map(|q| {
                        if insert {
                            oracle.insert(*q)
                        } else {
                            oracle.remove(q)
                        }
                    })
                    .collect();
                let at = format!("m = {m}, insert {insert}");
                assert_eq!(out, expected, "{at}");
                let (merged, _) = update::collect_kv(&slot);
                assert!(merged.iter().map(|k| k.0).eq(oracle), "{at}: contents");
                let bound = 4.0 * m as f64 * ((len as f64 / m as f64 + 1.0).log2() + 1.0);
                assert!(spent <= bound, "{at}: {spent} comparisons, bound {bound}");
            }
            let misses: Vec<Counted> = (pool.iter().copied())
                .filter(|k| keys.binary_search(k).is_err())
                .take(64)
                .map(Counted)
                .collect();
            let mut slot = Arc::clone(&leaf);
            let mut out = vec![true; misses.len()];
            assert_eq!(update::remove_from(&mut slot, &misses, &mut out, None), 0);
            assert!(!out.contains(&true));
            assert!(
                Arc::ptr_eq(&slot, &leaf),
                "a removal that missed copied the leaf"
            );
        }
    }

    /// Every router key of every inner node, and every leaf's keys, in
    /// key order.
    fn routers_and_leaves(
        node: &Node<u64, u64>,
        routers: &mut Vec<u64>,
        leaves: &mut Vec<Vec<u64>>,
    ) {
        match node {
            Node::Leaf(_) => leaves.push(update::collect_kv(node).0),
            Node::Inner(inner) => {
                routers.extend_from_slice(&inner.routers);
                inner
                    .children
                    .iter()
                    .for_each(|child| routers_and_leaves(child, routers, leaves));
            }
        }
    }

    /// The joint traversal answers each key as the point descent does,
    /// whatever sub-batches it carves: widths on both sides of the fork
    /// cutoff, keys outside the tree's range, on every router, crowded into
    /// one leaf or spread one per leaf — on a bulk-built tree, a churned one
    /// and the empty one, inside a pool and outside.
    #[test]
    fn joint_lookup_equals_point_lookup_at_every_sub_batch_shape() {
        let n = 300_000u64;
        let bulk = IstMap::from_sorted_entries((1..=n).map(|i| (i * 4, i)).collect());
        let mut churned = bulk.clone();
        let mut held = Vec::new();
        for round in 0..6u64 {
            held.push(churned.clone());
            let fresh = (0..20_000u64)
                .map(|i| (i * 60 + 4 * round + 1, i))
                .collect();
            churned.batch_insert(&KvBatch::from_unsorted_entries(fresh));
            held.push(churned.clone());
            let gone = (0..20_000u64).map(|i| i * 52 + 4 * round + 4).collect();
            churned.batch_remove(&Batch::from_unsorted(gone));
        }
        churned.check_invariants().unwrap();
        let empty: IstMap<u64, u64> = IstMap::from_sorted_entries(Vec::new());
        let pool = forkjoin::Pool::new(2).unwrap();
        let mut seed = 0x5AB;

        for map in [&bulk, &churned, &empty] {
            let min = map.min().map_or(3, |k| *k);
            let max = map.max().map_or(100_000, |k| *k);
            let (lo, hi) = (min.saturating_sub(3), max + 3);
            let mut shapes: Vec<Vec<u64>> = Vec::new();
            let range: Vec<u64> = (lo..=hi).step_by(3).collect();
            for width in [1, 2, 511, 512, 16_384] {
                shapes.push(pick_sorted(&mut seed, &range, width));
            }
            shapes.push((lo..min).chain(max + 1..=hi).collect());
            if let Some(root) = &map.root {
                let (mut routers, mut leaves) = (Vec::new(), Vec::new());
                routers_and_leaves(root, &mut routers, &mut leaves);
                shapes.push(routers.iter().flat_map(|&r| [r - 1, r, r + 1]).collect());
                let crowded = &leaves[leaves.len() / 2];
                shapes.push((crowded[0]..=crowded[crowded.len() - 1]).collect());
                shapes.push(leaves.iter().map(|leaf| leaf[leaf.len() / 2]).collect());
            }
            for keys in shapes {
                let batch = Batch::from_unsorted(keys);
                let has: Vec<bool> = batch.iter().map(|k| map.contains(k)).collect();
                let got: Vec<Option<u64>> = batch.iter().map(|k| map.get(k)).collect();
                for in_pool in [false, true] {
                    let (joint_has, joint_got) = if in_pool {
                        pool.install(|| (map.batch_contains(&batch), map.batch_get(&batch)))
                    } else {
                        (map.batch_contains(&batch), map.batch_get(&batch))
                    };
                    let at = format!(
                        "{} keys from {:?}, pooled {in_pool}",
                        batch.len(),
                        batch.keys().first()
                    );
                    assert!(joint_has == has, "batch_contains: {at}");
                    assert!(joint_got == got, "batch_get: {at}");
                }
            }
        }
        for snapshot in &held {
            let batch = Batch::from_unsorted((0..4 * n + 8).step_by(7).collect());
            let has: Vec<bool> = batch.iter().map(|k| snapshot.contains(k)).collect();
            assert_eq!(pool.install(|| snapshot.batch_contains(&batch)), has);
        }
    }

    /// The width of the chunks an inner node with `children` children
    /// holds them in: the power of two at or above `√children`.
    fn chunk_width(children: usize) -> usize {
        ((children - 1).isqrt() + 1).next_power_of_two()
    }

    /// The update twin of the test above: `batch_insert` and `batch_remove`
    /// agree with a `BTreeMap` at every sub-batch shape the run walk carves
    /// — widths on both sides of the fork cutoff, keys outside the tree's
    /// range, on every router, crowded into one leaf or spread one per leaf,
    /// a fork-sized sub-batch inside one chunk of the root's children, one
    /// on both sides of one chunk boundary — inside a pool and outside, and
    /// a clone held across each call keeps what it held.  The invariant
    /// check after each call holds every chunk's key count to its
    /// children's sizes.
    #[test]
    fn batched_update_equals_oracle_at_every_sub_batch_shape() {
        let n = 300_000u64;
        let entries: Vec<(u64, u64)> = (1..=n).map(|i| (i * 4, i)).collect();
        let bulk = IstMap::from_sorted_entries(entries.clone());
        let before: BTreeMap<u64, u64> = entries.into_iter().collect();
        let root = bulk.root.as_deref().unwrap();
        let (mut routers, mut leaves) = (Vec::new(), Vec::new());
        routers_and_leaves(root, &mut routers, &mut leaves);
        let Node::Inner(root) = root else {
            panic!("{n} keys build an inner root")
        };
        let (min, max) = (4, 4 * n);
        let mut seed = 0x0DD5;
        let range: Vec<u64> = (0..=max + 3).step_by(3).collect();
        let mut shapes: Vec<Vec<u64>> = [1, 2, 511, 512, 16_384]
            .into_iter()
            .map(|width| pick_sorted(&mut seed, &range, width))
            .collect();
        shapes.push((0..min).chain(max + 1..=max + 3).collect());
        shapes.push(routers.iter().flat_map(|&r| [r - 1, r, r + 1]).collect());
        let crowded = &leaves[leaves.len() / 2];
        shapes.push((crowded[0]..=crowded[crowded.len() - 1]).collect());
        shapes.push(leaves.iter().map(|leaf| leaf[leaf.len() / 2]).collect());
        // Children `width + 1 ..= width + width / 2` share the root's second
        // chunk, so 600 keys among them walk that chunk without forking.
        let width = chunk_width(root.children.len());
        let chunk: Vec<u64> = (root.routers[width]..root.routers[width + width / 2]).collect();
        shapes.push(pick_sorted(&mut seed, &chunk, 600));
        // 600 keys on each side of the boundary between the root's second
        // and third chunks: one fork at the root, none inside either chunk.
        let cut = 2 * width - 1;
        let below_cut: Vec<u64> = (root.routers[cut - width / 2]..root.routers[cut]).collect();
        let above_cut: Vec<u64> = (root.routers[cut]..root.routers[cut + width / 2]).collect();
        let mut straddle = pick_sorted(&mut seed, &below_cut, 600);
        straddle.extend(pick_sorted(&mut seed, &above_cut, 600));
        shapes.push(straddle);
        let pool = forkjoin::Pool::new(2).unwrap();

        for keys in shapes {
            for (insert, in_pool) in [(true, false), (true, true), (false, false), (false, true)] {
                let mut map = bulk.clone();
                let mut oracle = before.clone();
                let held = map.clone();
                let at = format!(
                    "{} keys from {:?}, insert {insert}, pooled {in_pool}",
                    keys.len(),
                    keys.first()
                );
                let run = |call: &mut (dyn FnMut() -> Vec<bool> + Send)| {
                    if in_pool {
                        pool.install(call)
                    } else {
                        call()
                    }
                };
                let (flags, expected): (Vec<bool>, Vec<bool>) = if insert {
                    let entries = keys.iter().map(|&k| (k, k ^ 0xF00D)).collect();
                    let batch = KvBatch::from_unsorted_entries(entries);
                    let flags = run(&mut || map.batch_insert(&batch));
                    let newly = batch
                        .entries()
                        .map(|(k, v)| oracle.insert(*k, *v).is_none());
                    (flags, newly.collect())
                } else {
                    let batch = Batch::from_unsorted(keys.clone());
                    let flags = run(&mut || map.batch_remove(&batch));
                    (
                        flags,
                        batch.iter().map(|k| oracle.remove(k).is_some()).collect(),
                    )
                };
                assert!(flags == expected, "flags: {at}");
                map.check_invariants()
                    .unwrap_or_else(|e| panic!("{at}: {e}"));
                for (tree, want) in [(&map, &oracle), (&held, &before)] {
                    let (ks, vs) = tree.collect_entries();
                    assert!(
                        ks.iter().eq(want.keys()) && vs.iter().eq(want.values()),
                        "contents: {at}"
                    );
                }
            }
        }
    }

    #[test]
    fn batch_contains_partitions_jointly() {
        let keys: Vec<u64> = (0..30_000u64).map(|i| i * 7).collect();
        let queries: Vec<u64> = (0..10_000u64).map(|i| i * 11).collect();
        let set = IstSet::from_sorted(keys);
        let batch = Batch::from_unsorted(queries);
        let expected: Vec<bool> = batch.iter().map(|q| q % 7 == 0 && *q < 210_000).collect();
        assert_eq!(set.batch_contains(&batch), expected);
    }

    #[test]
    fn parallel_build_and_batch_query_inside_pool() {
        let keys: Vec<u64> = (0..30_000u64).map(|i| i * 7).collect();
        let batch = Batch::from_unsorted((0..10_000u64).map(|i| i * 11).collect());
        let pool = forkjoin::Pool::new(4).unwrap();
        let (set, batched) = pool.install(|| {
            let set = IstSet::from_sorted(keys.clone());
            let batched = set.batch_contains(&batch);
            (set, batched)
        });
        let expected: Vec<bool> = batch.iter().map(|q| q % 7 == 0 && *q < 210_000).collect();
        assert_eq!(batched, expected);
        // The tree built inside the pool answers identically outside it.
        assert!(set.contains(&21));
        assert!(!set.contains(&22));
    }

    #[test]
    fn from_batch_matches_from_sorted() {
        let keys: Vec<u64> = (0..4000u64).map(|i| i * 5).collect();
        let set = IstSet::from_batch(&Batch::from_unsorted(keys.clone()));
        assert_eq!(set.len(), keys.len());
        set.check_invariants().unwrap();
        assert!(set.contains(&15));
        assert!(!set.contains(&16));
        assert!(IstSet::<u64>::from_batch(&Batch::empty()).is_empty());
    }

    #[test]
    fn batch_insert_grows_a_leaf_into_a_tree() {
        let mut set = IstSet::from_sorted((0..100u64).map(|i| i * 2).collect());
        assert!(matches!(set.root.as_deref(), Some(Node::Leaf(_))));
        // Push well past LEAF_CAPACITY so the root leaf must be rebuilt.
        let batch = Batch::from_unsorted((0..3000u64).map(|i| i * 2 + 1).collect());
        let newly = set.batch_insert(&batch);
        assert!(newly.iter().all(|&n| n));
        assert!(matches!(set.root.as_deref(), Some(Node::Inner(_))));
        assert_eq!(set.len(), 3100);
        set.check_invariants().unwrap();
        assert!(set.contains(&1));
        assert!(set.contains(&198));
        assert!(!set.contains(&200));
    }

    #[test]
    fn batch_remove_drains_the_tree_to_none() {
        let keys: Vec<u64> = (0..5000u64).collect();
        let mut set = IstSet::from_sorted(keys.clone());
        let removed = set.batch_remove(&Batch::from_unsorted(keys));
        assert!(removed.iter().all(|&r| r));
        assert!(set.is_empty());
        assert_eq!(set.len(), 0);
        set.check_invariants().unwrap();
        // Every batched op answers per key on the rootless tree, and an
        // empty batch answers nothing.
        let probe = Batch::from_unsorted(vec![1, 2]);
        assert_eq!(set.batch_contains(&probe), vec![false, false]);
        assert_eq!(set.batch_remove(&probe), vec![false, false]);
        assert!(set.batch_insert(&Batch::empty()).is_empty());
        assert!(set.is_empty());
        // Insert into the emptied tree works again.
        let newly = set.batch_insert(&Batch::from_unsorted(vec![7, 3]));
        assert_eq!(newly, vec![true, true]);
        assert_eq!(set.len(), 2);
        assert!(set.batch_remove(&Batch::empty()).is_empty());
    }

    #[test]
    fn point_path_matches_oracle_with_invariants() {
        // One-key batches are the recursion's degenerate run at every level;
        // hammer it with colliding singletons against a BTreeSet oracle,
        // auditing the shape after every op.  The narrow key range makes
        // removals hit child minima (router rewrites) and empty out leaves
        // (pruning/hoisting) constantly.
        use std::collections::BTreeSet;
        let mut set = IstSet::from_unsorted((0..6_000u64).map(|i| i * 3 % 5_000).collect());
        let mut oracle: BTreeSet<u64> = (0..6_000u64).map(|i| i * 3 % 5_000).collect();
        let mut state = 0xD1CEu64;
        for step in 0..6_000 {
            let z = splitmix(&mut state);
            let key = z % 5_000;
            let batch = Batch::from_unsorted(vec![key]);
            let (out, expect) = match z >> 32 & 3 {
                // Remove-leaning so the tree shrinks through rebuilds.
                0 => (set.batch_insert(&batch), oracle.insert(key)),
                1 | 2 => (set.batch_remove(&batch), oracle.remove(&key)),
                _ => (set.batch_contains(&batch), oracle.contains(&key)),
            };
            assert_eq!(out, vec![expect], "step {step}, key {key}");
            assert_eq!(set.len(), oracle.len(), "step {step}");
            set.check_invariants()
                .unwrap_or_else(|e| panic!("step {step}, key {key}: {e}"));
        }
        // Drain everything through the trait's point mutators: exercises
        // root collapse and the `upsert_one`/`remove_one` overrides.
        for key in oracle.clone() {
            assert!(set.remove_one(&key));
            assert!(!set.remove_one(&key));
            set.check_invariants().unwrap();
        }
        assert!(set.is_empty());
        assert!(set.root.is_none(), "empty root must collapse to None");
        // Point inserts revive the drained tree.
        assert!(set.insert_one(&77));
        assert!(!set.insert_one(&77));
        assert!(set.contains(&77));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn metrics_disabled_by_default() {
        let mut set = IstSet::from_sorted((0..50_000u64).collect());
        assert!(set.contains(&7));
        set.batch_insert(&Batch::from_unsorted((50_000..60_000u64).collect()));
        set.batch_contains(&Batch::from_unsorted((0..5_000u64).collect()));
        assert_eq!(set.metrics(), crate::IstMetricsSnapshot::default());
    }

    #[test]
    fn metrics_count_touches_edits_and_rebuilds() {
        let mut set =
            IstSet::from_sorted((0..50_000u64).map(|i| i * 2).collect()).with_metrics(true);

        // A joint traversal touches each visited node once, not once per
        // query — far fewer touches than point descents for a large batch.
        let queries = Batch::from_unsorted((0..10_000u64).map(|i| i * 3).collect());
        let before = set.metrics();
        set.batch_contains(&queries);
        let joint = set.metrics().delta(&before);
        assert!(joint.nodes_touched > 0);
        assert_eq!(joint.leaves_edited, 0, "lookups edit nothing");
        let before = set.metrics();
        for q in queries.iter() {
            set.contains(q);
        }
        let pointwise = set.metrics().delta(&before);
        assert!(
            joint.nodes_touched < pointwise.nodes_touched,
            "joint {} vs pointwise {}",
            joint.nodes_touched,
            pointwise.nodes_touched
        );

        // Tripling the key count drifts sizes strictly past the rebuild
        // factor (exactly 2x would not: the check is strict).
        let before = set.metrics();
        set.batch_insert(&Batch::from_unsorted(
            (0..100_000u64).map(|i| i * 2 + 1).collect(),
        ));
        let grown = set.metrics().delta(&before);
        assert!(grown.leaves_edited > 0);
        assert!(grown.rebuilds > 0);
        assert!(
            grown.rebuild_keys >= grown.rebuilds,
            "rebuilds are non-empty"
        );

        // Removing everything counts edits on the same leaves.
        let before = set.metrics();
        set.batch_remove(&Batch::from_unsorted((0..200_000u64).collect()));
        assert!(set.is_empty());
        assert!(set.metrics().delta(&before).leaves_edited > 0);
    }

    #[test]
    fn metrics_cover_the_point_paths() {
        let mut set =
            IstSet::from_sorted((0..5_000u64).map(|i| i * 2).collect()).with_metrics(true);
        let before = set.metrics();
        assert!(set.insert_one(&1));
        let d = set.metrics().delta(&before);
        assert!(d.nodes_touched > 0);
        assert_eq!(d.leaves_edited, 1);
        let before = set.metrics();
        assert!(!set.remove_one(&3));
        let d = set.metrics().delta(&before);
        assert!(d.nodes_touched > 0);
        assert_eq!(d.leaves_edited, 0, "a miss edits nothing");
        // Two keys landing in one leaf are one edited leaf.
        let before = set.metrics();
        set.batch_insert(&Batch::from_unsorted(vec![3, 5]));
        assert_eq!(set.metrics().delta(&before).leaves_edited, 1);
    }

    /// A point write is a batch of one, checked: one seeded trace applied
    /// through the point methods, as one-key batches and as 2-, 8-, 9- and
    /// 600-key batches answers every step alike and leaves the same keys,
    /// with the shape audited after every call — and the two one-key forms
    /// do the same counted work, path copies under held clones included.
    #[test]
    fn one_trace_gives_one_answer_at_every_batch_width() {
        use std::collections::BTreeSet;
        // Twice the most keys a leaf holds: the resident three quarters
        // build a tree, and the second pass grows a leaf past that size.
        const RANGE: u64 = (2 * REBUILD_FACTOR * LEAF_CAPACITY) as u64;
        const STEPS: usize = 2 * RANGE as usize;
        // Runs of one kind; step `i` names key `i · 1103 mod RANGE`, so any
        // `RANGE` consecutive steps name distinct keys.  The first pass over
        // the keys leans 7 : 1 to removes — leaves empty, children go, the
        // root drifts into a rebuild and collapses to a leaf — the second
        // as far to inserts, which overflow that leaf back into a tree.
        let mut rng = 0x5EED_0001u64;
        let mut trace: Vec<(bool, u64)> = Vec::new();
        while trace.len() < STEPS {
            let z = splitmix(&mut rng);
            let run = [1, 1, 2, 3, 8, 9, 30, 700][(z >> 40) as usize % 8];
            let insert = (z & 7 == 0) != (trace.len() as u64 >= RANGE);
            let at = trace.len() as u64;
            trace.extend((at..at + run).map(|i| (insert, i * 1_103 % RANGE)));
        }
        trace.truncate(STEPS);

        // Three keys in four resident: removes hit and miss, inserts too.
        let resident = || (0..RANGE).filter(|key| key % 4 != 0).collect::<Vec<u64>>();

        // `width` keys per call at most; `None` is the point methods.
        let apply = |width: Option<usize>| {
            let mut set = IstSet::from_sorted(resident()).with_metrics(true);
            let before = set.metrics();
            let mut held = set.clone();
            let mut flags = Vec::with_capacity(trace.len());
            let mut rest = &trace[..];
            while let [(insert, first), ..] = *rest {
                // The longest prefix that is one batch: one kind, no
                // repeated key, so any order of application agrees.
                let mut len = 1;
                while len < width.unwrap_or(1).min(rest.len())
                    && rest[len].0 == insert
                    && rest[..len].iter().all(|step| step.1 != rest[len].1)
                {
                    len += 1;
                }
                let (group, tail) = rest.split_at(len);
                rest = tail;
                match (width, insert) {
                    (None, true) => flags.push(set.insert_one(&first)),
                    (None, false) => flags.push(set.remove_one(&first)),
                    (Some(_), _) => {
                        let batch = Batch::from_unsorted(group.iter().map(|step| step.1).collect());
                        let out = if insert {
                            set.batch_insert(&batch)
                        } else {
                            set.batch_remove(&batch)
                        };
                        // Flags come back in key order; the trace wants
                        // them in step order.
                        let at = |key| batch.keys().binary_search(key).unwrap();
                        flags.extend(group.iter().map(|step| out[at(&step.1)]));
                    }
                }
                set.check_invariants()
                    .unwrap_or_else(|e| panic!("width {width:?}, step {}: {e}", flags.len()));
                // A fresh clone every 64 steps keeps the next writes' paths
                // shared, as a published snapshot does.
                if flags.len() / 64 != (flags.len() - len) / 64 {
                    held = set.clone();
                }
            }
            drop(held);
            (flags, set.collect_keys(), set.metrics().delta(&before))
        };

        let mut oracle: BTreeSet<u64> = resident().into_iter().collect();
        let expected: Vec<bool> = (trace.iter())
            .map(|&(insert, key)| {
                if insert {
                    oracle.insert(key)
                } else {
                    oracle.remove(&key)
                }
            })
            .collect();
        let (point_flags, point_keys, point_work) = apply(None);
        assert_eq!(point_flags, expected);
        assert!(point_keys.iter().eq(oracle.iter()));
        assert!(
            point_work.cow_nodes > 0 && point_work.rebuilds >= 2,
            "the trace never copied a path, or never shrank and regrew: {point_work:?}"
        );
        let (flags, keys, work) = apply(Some(1));
        assert!(flags == expected && keys == point_keys, "one-key batches");
        assert_eq!(work, point_work, "a one-key batch is a point write");
        for width in [2, 8, 9, 600] {
            let (flags, keys, _) = apply(Some(width));
            assert!(flags == expected && keys == point_keys, "width {width}");
        }
    }

    /// A batch of `SEQ_BATCH_LEN` keys forks and one a key short does not —
    /// the same boundary `combine::POOL_CUTOFF` enters the pool at — seen
    /// in the pool's own count of `join`s made on its workers.  An update
    /// forks only between the chunks of a node's children, so a larger
    /// batch under one chunk of the root inserts and removes without a
    /// `join`; a lookup splits between any two children, so the same keys'
    /// `batch_contains` forks.  Every call is checked against a `BTreeSet`.
    #[test]
    fn a_batch_at_the_sequential_cutoff_forks_and_one_below_does_not() {
        use std::collections::BTreeSet;
        let pool = forkjoin::Pool::builder()
            .num_threads(2)
            .metrics(true)
            .build()
            .unwrap();
        let joins = || pool.metrics().join_latency.count();
        let keys: Vec<u64> = (0..100_000u64).map(|i| i * 2).collect();
        let mut oracle: BTreeSet<u64> = keys.iter().copied().collect();
        let mut set = IstSet::from_sorted(keys);
        let odd = |n: u64| Batch::from_unsorted((0..n).map(|i| i * 390 + 1).collect());
        let cutoff = traverse::SEQ_BATCH_LEN as u64;

        let below = odd(cutoff - 1);
        pool.install(|| set.batch_insert(&below));
        pool.install(|| set.batch_contains(&below));
        pool.install(|| set.batch_remove(&below));
        assert_eq!(joins(), 0, "{} keys forked", cutoff - 1);

        let at = odd(cutoff);
        pool.install(|| set.batch_insert(&at));
        oracle.extend(at.iter().copied());
        let inserted = joins();
        assert!(inserted > 0, "{cutoff} keys did not fork");
        pool.install(|| set.batch_contains(&at));
        assert!(joins() > inserted, "{cutoff} lookups did not fork");
        set.check_invariants().unwrap();
        assert!(set.collect_entries().0.iter().eq(&oracle));

        // Every odd key under the root's second chunk, children
        // `width ..= 2 * width - 1`.
        let Some(Node::Inner(root)) = set.root.as_deref() else {
            panic!("100 000 keys build an inner root")
        };
        let width = chunk_width(root.children.len());
        let (lo, hi) = (root.routers[width - 1], root.routers[2 * width - 1]);
        let crowded = Batch::from_unsorted((lo | 1..hi).step_by(2).collect());
        assert!(crowded.len() as u64 >= cutoff, "{} keys", crowded.len());
        let before = joins();
        let newly: Vec<bool> = crowded.iter().map(|&k| oracle.insert(k)).collect();
        assert_eq!(pool.install(|| set.batch_insert(&crowded)), newly);
        assert_eq!(joins(), before, "an insert forked inside one chunk");
        set.check_invariants().unwrap();
        assert!(set.collect_entries().0.iter().eq(&oracle));
        let present: Vec<bool> = crowded.iter().map(|k| oracle.remove(k)).collect();
        assert_eq!(pool.install(|| set.batch_remove(&crowded)), present);
        assert_eq!(joins(), before, "a removal forked inside one chunk");
        set.check_invariants().unwrap();
        assert!(set.collect_entries().0.iter().eq(&oracle));
        pool.install(|| set.batch_contains(&crowded));
        assert!(joins() > before, "lookups under one chunk did not fork");
    }

    #[test]
    fn clones_share_metrics() {
        let set = IstSet::from_sorted((0..20_000u64).collect()).with_metrics(true);
        let clone = set.clone();
        let before = set.metrics();
        clone.batch_contains(&Batch::from_unsorted((0..5_000u64).collect()));
        assert!(
            set.metrics().delta(&before).nodes_touched > 0,
            "a clone's work lands in the original's counters"
        );
    }

    #[test]
    fn interleaved_batches_keep_invariants() {
        let mut set = IstSet::from_sorted((0..20_000u64).map(|i| i * 3).collect());
        set.check_invariants().unwrap();
        let inserts = Batch::from_unsorted((0..10_000u64).map(|i| i * 6 + 1).collect());
        set.batch_insert(&inserts);
        set.check_invariants().unwrap();
        let removes = Batch::from_unsorted((0..20_000u64).map(|i| i * 3).collect());
        let removed = set.batch_remove(&removes);
        assert!(removed.iter().all(|&r| r));
        set.check_invariants().unwrap();
        assert_eq!(set.len(), 10_000);
        assert!(set.contains(&1));
        assert!(!set.contains(&0));
    }

    // ---- the same tree at a real value type ----

    fn oracle_pairs(n: u64) -> Vec<(u64, u64)> {
        (0..n).map(|i| (i * 7 % (n * 3), i)).collect()
    }

    #[test]
    fn empty_map_answers_empty() {
        let map: IstMap<u64, u64> = IstMap::from_sorted_entries(Vec::new());
        assert!(map.is_empty());
        assert_eq!(map.get(&3), None);
        assert_eq!(map.rank(&3), 0);
        assert_eq!(map.kth_entry(0), None);
        assert!(map
            .range_entries(Bound::Unbounded, Bound::Unbounded)
            .is_empty());
        map.check_invariants().unwrap();
    }

    #[test]
    fn map_agrees_with_btreemap_oracle() {
        let pairs = oracle_pairs(20_000);
        let oracle: BTreeMap<u64, u64> = pairs.iter().copied().collect();
        // Last-wins: feed the raw (colliding) pairs; BTreeMap's collect is
        // also last-wins, so the two agree by construction.
        let map = IstMap::from_unsorted_entries(pairs);
        assert_eq!(map.len(), oracle.len());
        map.check_invariants().unwrap();
        for probe in (0..70_000u64).step_by(61) {
            assert_eq!(map.get(&probe), oracle.get(&probe).copied(), "get {probe}");
            assert_eq!(
                map.contains(&probe),
                oracle.contains_key(&probe),
                "contains {probe}"
            );
        }
        let (keys, vals) = map.collect_entries();
        assert!(keys.iter().copied().eq(oracle.keys().copied()));
        assert!(vals.iter().copied().eq(oracle.values().copied()));
    }

    #[test]
    fn batched_upserts_and_removes_match_oracle() {
        let mut map = IstMap::from_unsorted_entries(oracle_pairs(5_000));
        let mut oracle: BTreeMap<u64, u64> = oracle_pairs(5_000).into_iter().collect();

        // Large upsert batch: half overwrites, half fresh keys.
        let upserts: Vec<(u64, u64)> = (0..4_000u64).map(|i| (i * 5, i + 1_000_000)).collect();
        let batch = KvBatch::from_unsorted_entries(upserts.clone());
        let flags = map.batch_insert(&batch);
        for ((k, v), flag) in batch.entries().zip(flags.iter()) {
            assert_eq!(*flag, oracle.insert(*k, *v).is_none(), "upsert {k}");
        }
        assert_eq!(map.len(), oracle.len());
        map.check_invariants().unwrap();
        for (k, v) in batch.entries() {
            assert_eq!(map.get(k), Some(*v), "upserted value for {k}");
        }

        // batch_get over a mix of present and absent keys.
        let probes = Batch::from_unsorted((0..6_000u64).map(|i| i * 3).collect());
        let got = map.batch_get(&probes);
        for (q, g) in probes.iter().zip(got.iter()) {
            assert_eq!(*g, oracle.get(q).copied(), "batch_get {q}");
        }

        // Large removal batch, then verify against the oracle.
        let removes = Batch::from_unsorted((0..5_000u64).map(|i| i * 2).collect());
        let flags = map.batch_remove(&removes);
        for (q, flag) in removes.iter().zip(flags.iter()) {
            assert_eq!(*flag, oracle.remove(q).is_some(), "remove {q}");
        }
        assert_eq!(map.len(), oracle.len());
        map.check_invariants().unwrap();
    }

    #[test]
    fn point_paths_and_tiny_batches_upsert_in_place() {
        let mut map: IstMap<u64, &str> = IstMap::from_sorted_entries(Vec::new());
        assert!(map.upsert_one(&10, &"ten"));
        assert!(!map.upsert_one(&10, &"TEN"), "upsert reports not-new");
        assert_eq!(map.get(&10), Some("TEN"), "point upsert overwrote");
        // A two-key batch: one run merged into the root leaf.
        let flags = map.batch_insert(&KvBatch::from_unsorted_entries(vec![(10, "x"), (11, "y")]));
        assert_eq!(flags, vec![false, true]);
        assert_eq!(map.get(&10), Some("x"));
        assert!(map.remove_one(&10));
        assert!(!map.remove_one(&10));
        assert_eq!(map.len(), 1);
        map.check_invariants().unwrap();
        // Draining the last key collapses the root.
        assert!(map.remove_one(&11));
        assert!(map.is_empty());
    }

    #[test]
    fn range_and_selection_match_btreemap() {
        let pairs: Vec<(u64, u64)> = (0..30_000u64).map(|i| (i * 3, i)).collect();
        let oracle: BTreeMap<u64, u64> = pairs.iter().copied().collect();
        let map = IstMap::from_sorted_entries(pairs);
        map.check_invariants().unwrap();

        let bounds: [Bound<&u64>; 5] = [
            Bound::Unbounded,
            Bound::Included(&9_000),
            Bound::Excluded(&9_000),
            Bound::Included(&9_001), // off-key
            Bound::Excluded(&89_999),
        ];
        for lo in bounds {
            for hi in bounds {
                // BTreeMap::range panics on inverted bounds and on
                // (Excluded(x), Excluded(x)); the IST returns the honest
                // answer for both — the empty range.
                let degenerate = match (lo, hi) {
                    (
                        Bound::Included(a) | Bound::Excluded(a),
                        Bound::Included(b) | Bound::Excluded(b),
                    ) => {
                        a > b
                            || (a == b
                                && matches!(lo, Bound::Excluded(_))
                                && matches!(hi, Bound::Excluded(_)))
                    }
                    _ => false,
                };
                let expected: Vec<(u64, u64)> = if degenerate {
                    Vec::new()
                } else {
                    oracle
                        .range((lo.cloned(), hi.cloned()))
                        .map(|(k, v)| (*k, *v))
                        .collect()
                };
                assert_eq!(map.range_entries(lo, hi), expected, "range {lo:?}..{hi:?}");
                assert_eq!(map.range_count(lo, hi), expected.len());
                assert_eq!(
                    map.range_keys(lo, hi),
                    expected.iter().map(|(k, _)| *k).collect::<Vec<_>>()
                );
            }
        }
        assert_eq!(map.kth_entry(0), Some((0, 0)));
        assert_eq!(map.kth_entry(29_999), Some((89_997, 29_999)));
        assert_eq!(map.kth_entry(30_000), None);
        assert_eq!(map.predecessor(&0), None);
        assert_eq!(map.predecessor(&1), Some(0));
        assert_eq!(map.successor(&89_997), None);
        assert_eq!(map.successor(&89_996), Some(89_997));
        assert_eq!(map.successor(&0), Some(3));
    }

    #[test]
    fn rebuilds_preserve_values() {
        // Grow far past the rebuild factor so whole subtrees are rebuilt,
        // then check every surviving value rode along.
        let mut map = IstMap::from_sorted_entries((0..2_000u64).map(|i| (i * 2, i)).collect());
        let grow = KvBatch::from_unsorted_entries(
            (0..6_000u64).map(|i| (i * 2 + 1, i + 500_000)).collect(),
        );
        map.batch_insert(&grow);
        map.check_invariants().unwrap();
        assert_eq!(map.len(), 8_000);
        for i in (0..2_000u64).step_by(97) {
            assert_eq!(map.get(&(i * 2)), Some(i));
        }
        for i in (0..6_000u64).step_by(97) {
            assert_eq!(map.get(&(i * 2 + 1)), Some(i + 500_000));
        }
    }

    /// The count gate: a point write under a live clone copies its path and
    /// nothing wider.  10⁶ keys build a 1 000-child root over 1 000-key
    /// leaves (depth 2), so a shared write copies two nodes: the root, and
    /// the leaf, whose copy shares its base by one refcount.  With the
    /// root's children in 32 chunks of 32 that is 1 + 32 refcounts for the
    /// root (its routers and its chunks), 32 for the chunk on the path and
    /// 1 for the leaf's base: 66.  A flat child array would bump 1 000.
    #[test]
    fn shared_point_write_copies_chunks_not_the_fanout() {
        let mut set =
            IstSet::from_sorted((0..1_000_000u64).map(|i| i * 2).collect()).with_metrics(true);
        let copied_by_insert = |set: &mut IstSet<u64>, key: u64| {
            let before = set.metrics();
            assert!(set.insert_one(&key));
            let d = set.metrics().delta(&before);
            (d.cow_nodes, d.cow_refs)
        };
        assert_eq!(
            copied_by_insert(&mut set, 1),
            (0, 0),
            "nothing is shared yet"
        );

        let snapshot = set.clone();
        let (nodes, refs) = copied_by_insert(&mut set, 3);
        assert_eq!(nodes, 2, "one copy per level");
        assert_eq!(refs, 1 + 32 + 32 + 1, "refcounts for one write");
        // The path is now the live tree's own: the same leaf again is free.
        assert_eq!(copied_by_insert(&mut set, 5), (0, 0));
        // Another leaf, half the tree away, under the same clone: the root
        // is already unshared, so only its chunk and the leaf below.
        let (nodes, refs) = copied_by_insert(&mut set, 1_000_001);
        assert_eq!(nodes, 1, "the root was copied by the first write");
        assert_eq!(refs, 32 + 1, "refcounts below the root");

        assert!(!snapshot.contains(&3) && !snapshot.contains(&1_000_001));
        assert_eq!(snapshot.len(), 1_000_001);
        drop(snapshot);
        assert_eq!(copied_by_insert(&mut set, 1_500_001), (0, 0), "unshared");
        set.check_invariants().unwrap();
    }

    /// The leaf under a live clone: a point write copies the leaf's delta,
    /// not its ≈ 1 000-key base.  One that does not fold writes at most
    /// `DELTA_CAPACITY + 1` keys into new arrays; over 10⁴ of them — fresh
    /// inserts and removals of present keys, each under its own clone, as
    /// every round of the front-end publishes one — the folds, one per
    /// `≈ √L` edits to a leaf, keep the average under `2 · √L`.
    #[test]
    fn a_shared_point_write_copies_a_delta_not_its_leaf() {
        const N: u64 = 1_000_000;
        let mut set = IstSet::from_sorted((0..N).map(|i| i * 2).collect()).with_metrics(true);
        let mut seed = 0xC0_4E75;
        let (mut writes, mut copied, mut largest) = (0u64, 0u64, 0u64);
        for _ in 0..10_000 {
            let key = splitmix(&mut seed) % (2 * N);
            let (snapshot, len) = (set.clone(), set.len());
            let before = set.metrics();
            if key % 2 == 1 {
                set.insert_one(&key);
            } else {
                set.remove_one(&key);
            }
            let d = set.metrics().delta(&before);
            writes += 1;
            copied += d.cow_keys;
            if d.cow_keys < LEAF_CAPACITY as u64 / 2 {
                // No fold: the copy is the delta.
                largest = largest.max(d.cow_keys);
            }
            assert_eq!(snapshot.len(), len, "the clone moved");
        }
        set.check_invariants().unwrap();
        assert!(
            largest <= DELTA_CAPACITY as u64 + 1,
            "a shared point write copied {largest} keys without folding"
        );
        let bound = 2.0 * (LEAF_CAPACITY as f64).sqrt();
        let mean = copied as f64 / writes as f64;
        assert!(mean <= bound, "{mean} keys copied per shared point write");
    }

    /// A set's upsert of a present key changes nothing, so it leaves even a
    /// shared leaf as it is: no key copied, no leaf edited.  A map's value
    /// overwrite is a change and records an override in a copied delta.
    #[test]
    fn a_no_op_upsert_leaves_a_shared_leaf_shared() {
        let keys: Vec<u64> = (0..1_000_000u64).map(|i| i * 2).collect();
        let mut set = IstSet::from_sorted(keys.clone()).with_metrics(true);
        let snapshot = set.clone();
        let before = set.metrics();
        assert!(!set.insert_one(&4_000));
        assert!(!set.batch_insert(&Batch::from_unsorted(vec![6_000, 6_002]))[0]);
        let d = set.metrics().delta(&before);
        assert_eq!((d.cow_keys, d.leaves_edited), (0, 0), "{d:?}");
        drop(snapshot);

        let vals = keys.iter().map(|&k| (k, k)).collect();
        let mut map = IstMap::from_sorted_entries(vals).with_metrics(true);
        let snapshot = map.clone();
        let before = map.metrics();
        assert!(!map.upsert_one(&4_000, &7));
        let d = map.metrics().delta(&before);
        assert_eq!((d.cow_keys, d.leaves_edited), (1, 0), "{d:?}");
        assert_eq!(
            (map.get(&4_000), snapshot.get(&4_000)),
            (Some(7), Some(4_000))
        );
        map.check_invariants().unwrap();
    }

    /// A key whose order ignores its tag, to tell `Ord`-equal copies apart.
    #[derive(Clone, Debug)]
    struct Tagged(u64, u8);

    impl PartialEq for Tagged {
        fn eq(&self, other: &Tagged) -> bool {
            self.0 == other.0
        }
    }

    impl Eq for Tagged {}

    impl PartialOrd for Tagged {
        fn partial_cmp(&self, other: &Tagged) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for Tagged {
        fn cmp(&self, other: &Tagged) -> std::cmp::Ordering {
            self.0.cmp(&other.0)
        }
    }

    impl InterpolateKey for Tagged {
        fn to_ordinal(&self) -> f64 {
            self.0 as f64
        }
    }

    /// An upsert of a present key keeps the stored copy of the key, as
    /// `BTreeMap::insert` does, whether it lands in a copied delta, an
    /// in-place edit or a fold (of a long run, and of a point write that
    /// overflows the delta); a key removed and inserted again takes the
    /// caller's copy.  Each op carries its own tag, and the tree's keys
    /// must carry the oracle's tags.
    #[test]
    fn an_upsert_of_a_present_key_keeps_its_stored_copy() {
        let pairs: Vec<(Tagged, u64)> = (0..20_000u64).map(|i| (Tagged(i * 2, 0), i)).collect();
        let mut oracle: BTreeMap<Tagged, u64> = pairs.iter().cloned().collect();
        let mut map = IstMap::from_sorted_entries(pairs);
        let mut set: IstSet<Tagged> = IstSet::from_sorted(oracle.keys().cloned().collect());
        let tagged = |entries: Vec<(Tagged, u64)>| {
            let tags = entries.into_iter().map(|(k, v)| (k.0, k.1, v));
            tags.collect::<Vec<_>>()
        };
        let odd: Vec<u64> = (1..64).step_by(2).collect();
        let even_run: Vec<u64> = (100..200).step_by(2).collect();
        let script: Vec<(bool, Vec<u64>)> = [
            (false, vec![10]),
            (false, vec![10]),
            (false, vec![11]),
            (false, vec![11]),
            (true, vec![12]),
            (false, vec![12]),
            (false, vec![14, 15, 16]),
            (false, even_run.clone()),
            (true, vec![20, 22]),
            (false, vec![20, 21, 22]),
        ]
        .into_iter()
        .chain(odd.iter().map(|&k| (false, vec![k])))
        .chain([(false, vec![24, 25, 26])])
        .chain(even_run.iter().map(|&k| (false, vec![k])))
        .collect();
        for (step, (remove, keys)) in script.into_iter().enumerate() {
            let tag = step as u8 + 1;
            // Every other step writes under a live clone.
            let held = (step % 2 == 0).then(|| (map.clone(), set.clone()));
            let keys: Vec<Tagged> = keys.into_iter().map(|k| Tagged(k, tag)).collect();
            let entries: Vec<(Tagged, u64)> = keys.iter().map(|k| (k.clone(), k.0 + 7)).collect();
            for (key, val) in &entries {
                if remove {
                    oracle.remove(key);
                } else {
                    oracle.insert(key.clone(), *val);
                }
            }
            match (remove, &keys[..]) {
                (true, [key]) => {
                    map.remove_one(key);
                    set.remove_one(key);
                }
                (false, [key]) => {
                    map.upsert_one(key, &(key.0 + 7));
                    set.insert_one(key);
                }
                (true, _) => {
                    map.batch_remove(&Batch::from_unsorted(keys.clone()));
                    set.batch_remove(&Batch::from_unsorted(keys.clone()));
                }
                (false, _) => {
                    map.batch_insert(&KvBatch::from_unsorted_entries(entries));
                    set.batch_insert(&Batch::from_unsorted(keys.clone()));
                }
            }
            map.check_invariants().unwrap();
            set.check_invariants().unwrap();
            let expected = tagged(oracle.iter().map(|(k, v)| (k.clone(), *v)).collect());
            let (keys, vals) = map.collect_entries();
            assert_eq!(
                tagged(keys.into_iter().zip(vals).collect()),
                expected,
                "step {step}"
            );
            let all = map.range_entries(Bound::Unbounded, Bound::Unbounded);
            assert_eq!(tagged(all), expected, "step {step}: range");
            let firsts = (0..200).map(|k| map.kth_entry(k).unwrap()).collect();
            assert_eq!(tagged(firsts), expected[..200], "step {step}: kth");
            let set_keys = set.range_keys(Bound::Unbounded, Bound::Unbounded);
            let set_tags: Vec<(u64, u8)> = set_keys.iter().map(|k| (k.0, k.1)).collect();
            let want: Vec<(u64, u8)> = expected.iter().map(|&(k, t, _)| (k, t)).collect();
            assert_eq!(set_tags, want, "step {step}: set");
            let (min, max) = (set.min().unwrap(), set.max().unwrap());
            assert_eq!((min.1, max.1), (want[0].1, want[want.len() - 1].1));
            drop(held);
        }
    }

    enum Edit {
        Upsert(u64),
        Remove(u64),
        BatchUpsert(Vec<u64>),
        BatchRemove(Vec<u64>),
    }

    /// A tree, its oracle, and a clone of both taken before every step.
    struct Frozen<V, F> {
        map: IstMap<u64, V>,
        oracle: BTreeMap<u64, V>,
        held: Vec<(IstMap<u64, V>, BTreeMap<u64, V>)>,
        val_of: F,
    }

    impl<V, F> Frozen<V, F>
    where
        V: Clone + PartialEq + std::fmt::Debug + Send + Sync,
        F: Fn(u64, u64) -> V,
    {
        /// One step: hold a clone, apply `edit` to tree and oracle, audit.
        fn step(&mut self, edit: Edit) {
            self.held.push((self.map.clone(), self.oracle.clone()));
            let step = self.held.len() as u64;
            let (map, oracle) = (&mut self.map, &mut self.oracle);
            match edit {
                Edit::Upsert(key) => {
                    let val = (self.val_of)(key, step);
                    let fresh = oracle.insert(key, val.clone()).is_none();
                    assert_eq!(map.upsert_one(&key, &val), fresh, "step {step}");
                }
                Edit::Remove(key) => {
                    let present = oracle.remove(&key).is_some();
                    assert_eq!(map.remove_one(&key), present, "step {step}");
                }
                Edit::BatchUpsert(keys) => {
                    let batch = KvBatch::from_unsorted_entries(
                        keys.iter().map(|&k| (k, (self.val_of)(k, step))).collect(),
                    );
                    let flags = map.batch_insert(&batch);
                    for ((k, v), flag) in batch.entries().zip(flags) {
                        assert_eq!(flag, oracle.insert(*k, v.clone()).is_none(), "key {k}");
                    }
                }
                Edit::BatchRemove(keys) => {
                    let batch = Batch::from_unsorted(keys);
                    let flags = map.batch_remove(&batch);
                    for (k, flag) in batch.iter().zip(flags) {
                        assert_eq!(flag, oracle.remove(k).is_some(), "key {k}");
                    }
                }
            }
            map.check_invariants()
                .unwrap_or_else(|e| panic!("step {step}: {e}"));
            assert_eq!(map.len(), oracle.len(), "step {step}");
        }

        fn root_children(&self) -> Option<usize> {
            match self.map.root.as_deref() {
                Some(Node::Inner(inner)) => Some(inner.children.len()),
                _ => None,
            }
        }
    }

    /// Drives a seeded point/batch trace through every structural edit of
    /// the chunked child array — child removal by point removes and by a
    /// batch (both re-chunk), hoisting a lone child, leaf overflow,
    /// drift rebuilds, draining to `None` — holding a clone taken *before*
    /// each step, and checks every held clone against the oracle as it was
    /// then, after all the later steps have run.
    fn snapshots_stay_frozen<V>(val_of: impl Fn(u64, u64) -> V)
    where
        V: Clone + PartialEq + std::fmt::Debug + Send + Sync,
    {
        const GAP: u64 = 1_000;
        let oracle: BTreeMap<u64, V> = (0..5_000u64)
            .map(|i| (i * GAP, val_of(i * GAP, 0)))
            .collect();
        let mut t = Frozen {
            map: IstMap::from_sorted_entries(oracle.clone().into_iter().collect())
                .with_metrics(true),
            oracle,
            held: Vec::new(),
            val_of,
        };

        // Random point traffic: overwrites in place, fresh keys, removals.
        let mut rng = 0xC0FFEEu64;
        for _ in 0..300 {
            let z = splitmix(&mut rng);
            let key = z % 5_000 * GAP + (z >> 40) % 2;
            t.step(if z >> 32 & 1 == 0 {
                Edit::Upsert(key)
            } else {
                Edit::Remove(key)
            });
        }
        // A point-remove sweep over whole leaves: each emptied leaf is
        // removed from its parent, which re-chunks.
        let before = t.root_children().expect("inner root");
        for i in 1_000..1_250u64 {
            t.step(Edit::Remove(i * GAP));
            t.step(Edit::Remove(i * GAP + 1));
        }
        assert!(t.root_children().unwrap() < before, "no child was removed");
        // The same by one batch.
        let before = t.root_children().unwrap();
        t.step(Edit::BatchRemove(
            (2_000..2_400u64).map(|i| i * GAP).collect(),
        ));
        assert!(t.root_children().unwrap() < before, "no child was dropped");
        // Overflow one leaf by point inserts, another by a batch: each
        // leaf holds about 70 keys, so the most a leaf may hold more
        // overflows it.
        let most = (REBUILD_FACTOR * LEAF_CAPACITY) as u64;
        let rebuilds = t.map.metrics().rebuilds;
        for j in 1..=most {
            t.step(Edit::Upsert(3_000 * GAP + j));
        }
        assert!(t.map.metrics().rebuilds > rebuilds, "no point overflow");
        let rebuilds = t.map.metrics().rebuilds;
        t.step(Edit::BatchUpsert(
            (0..most).map(|j| 4_000 * GAP + j * 3 + 1).collect(),
        ));
        assert!(t.map.metrics().rebuilds > rebuilds, "no batch overflow");
        // Drain to a handful of keys in one corner: children go, subtrees
        // drift below half their built size, a lone survivor is hoisted.
        let keep = 4_000 * GAP..4_000 * GAP + 90;
        let doomed: Vec<u64> = (t.oracle.keys().copied())
            .filter(|k| !keep.contains(k))
            .collect();
        for run in doomed.chunks(700) {
            t.step(Edit::BatchRemove(run.to_vec()));
        }
        assert_eq!(t.root_children(), None, "the survivor was not hoisted");
        assert!(!t.map.is_empty());
        // Down to nothing by point removes, and back.
        for key in t.oracle.keys().copied().collect::<Vec<_>>() {
            t.step(Edit::Remove(key));
        }
        assert!(t.map.root.is_none());
        t.step(Edit::Upsert(42));
        t.step(Edit::BatchUpsert((0..2 * most).collect()));

        assert!(t.map.metrics().cow_nodes > 0, "nothing was ever shared");
        for (at, (clone, then)) in t.held.iter().enumerate() {
            clone
                .check_invariants()
                .unwrap_or_else(|e| panic!("clone before step {}: {e}", at + 1));
            let (keys, vals) = clone.collect_entries();
            assert!(
                keys.iter().eq(then.keys()) && vals.iter().eq(then.values()),
                "clone taken before step {} moved",
                at + 1
            );
            if let Some((key, val)) = then.iter().nth(then.len() / 2) {
                assert_eq!(clone.get(key).as_ref(), Some(val));
                assert_eq!(clone.rank(key), then.len() / 2);
            }
        }
    }

    #[test]
    fn set_snapshots_stay_frozen_across_structural_edits() {
        snapshots_stay_frozen(|_, _| ());
    }

    #[test]
    fn map_snapshots_stay_frozen_across_structural_edits() {
        snapshots_stay_frozen(|key, step| key ^ (step << 32));
    }

    #[test]
    fn clone_is_snapshot_via_cow() {
        let mut map = IstMap::from_sorted_entries((0..10_000u64).map(|i| (i * 2, i)).collect());
        let frozen = map.clone();

        // Batched and point updates after the clone copy-on-write: the
        // live tree moves on, the clone does not.
        map.batch_insert(&KvBatch::from_unsorted_entries(vec![(6, 999u64)]));
        assert!(map.upsert_one(&5, &55));
        assert!(map.remove_one(&0));
        map.batch_insert(&KvBatch::from_unsorted_entries(
            (0..500u64).map(|i| (i * 2 + 7, i)).collect(),
        ));
        map.check_invariants().unwrap();
        assert_eq!(map.get(&6), Some(999));
        assert_eq!(frozen.get(&6), Some(3), "clone saw a later upsert");
        assert!(!frozen.contains(&5), "clone saw a later insert");
        assert_eq!(frozen.min(), Some(&0), "clone saw a later remove");
        assert_eq!(frozen.len(), 10_000, "clone length drifted");
        assert_eq!(frozen.rank(&10), 5);
        assert_eq!(frozen.collect_keys().len(), 10_000);

        // A fresh clone sees the new state; batch queries, tiny and large,
        // agree with the live tree.
        let fresh = map.clone();
        assert_eq!(fresh.get(&5), Some(55));
        for batch_len in [4u64, 3_000] {
            let probes = Batch::from_unsorted((0..batch_len).map(|i| i * 3).collect());
            assert_eq!(fresh.batch_contains(&probes), map.batch_contains(&probes));
        }

        // A clone of the empty tree answers like an empty tree.
        let empty: IstSet<u64> = IstSet::from_sorted(Vec::new()).clone();
        assert!(empty.is_empty() && !empty.contains(&1));
        assert_eq!((empty.rank(&1), empty.min()), (0, None));
        assert!(empty.collect_keys().is_empty());
    }
}
