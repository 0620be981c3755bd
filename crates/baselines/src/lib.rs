//! Reference data structures the paper's tree is compared against.
//!
//! The simplest competitor to an interpolation search tree is a flat sorted
//! array: perfect space locality, `O(log n)` lookups, and — in the batched
//! model — updates by wholesale merge/filter.  [`SortedArrayMap`] provides
//! that baseline as a full [`batchapi::BatchedMap`] ([`SortedArraySet`] is
//! its `V = ()` alias): lookup batches fan out through `parprim::map`,
//! inserts merge the new keys in with `parprim::merge`, and removals compact
//! the survivors with `parprim::filter`.  Benchmark harnesses drive it and
//! `pbist::IstMap` through the same trait.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt::Debug;
use std::ops::Bound;
use std::sync::Arc;

use batchapi::{Batch, BatchedMap, KvBatch, MapView};

/// A key→value map stored as two index-parallel sorted arrays.
///
/// Point queries are binary searches; batched operations (through the
/// [`BatchedMap`] impl) run in parallel inside a `forkjoin::Pool`.  Updates
/// rewrite the whole array — O(n + b) per batch, the price a flat layout pays
/// — which is exactly the trade-off the interpolation search tree is built to
/// beat.  Batched inserts are last-wins upserts (see the `batchapi` docs).
#[derive(Debug, Clone, Default)]
pub struct SortedArrayMap<K, V = ()> {
    // `Arc`s so a clone — a published snapshot — is O(1): it shares both
    // arrays, and updates that follow copy them out first
    // (`Arc::make_mut`) or swap in freshly-built ones.
    keys: Arc<Vec<K>>,
    vals: Arc<Vec<V>>,
}

/// A set of keys stored as one sorted, deduplicated array: the `V = ()`
/// instance of [`SortedArrayMap`] (its value array is zero-sized).
pub type SortedArraySet<K> = SortedArrayMap<K, ()>;

impl<K: Ord> SortedArraySet<K> {
    /// Builds a set from arbitrary keys; sorts and deduplicates them.
    pub fn from_unsorted(keys: Vec<K>) -> SortedArraySet<K> {
        SortedArrayMap::from_batch(Batch::from_unsorted(keys))
    }

    /// Builds a set from keys that are already sorted and deduplicated
    /// (checked with a `debug_assert!`).
    pub fn from_sorted(keys: Vec<K>) -> SortedArraySet<K> {
        debug_assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "keys must be strictly increasing"
        );
        SortedArrayMap {
            vals: Arc::new(vec![(); keys.len()]),
            keys: Arc::new(keys),
        }
    }
}

impl<K: Ord, V> SortedArrayMap<K, V> {
    /// Takes over the (sorted, deduplicated by construction) pairs of
    /// `batch`.
    pub fn from_batch(batch: KvBatch<K, V>) -> SortedArrayMap<K, V> {
        let (keys, vals) = batch.into_parts();
        SortedArrayMap {
            keys: Arc::new(keys),
            vals: Arc::new(vals),
        }
    }

    /// Builds a map from arbitrary entries; sorts by key and collapses
    /// duplicates last-wins (the [`KvBatch`] policy).
    pub fn from_unsorted_entries(entries: Vec<(K, V)>) -> SortedArrayMap<K, V> {
        SortedArrayMap::from_batch(KvBatch::from_unsorted_entries(entries))
    }

    /// The underlying sorted keys.
    pub fn as_slice(&self) -> &[K] {
        &self.keys
    }
}

impl<K: Ord + Clone + Send + Sync, V: Clone + Send + Sync> MapView<K, V> for SortedArrayMap<K, V> {
    fn len(&self) -> usize {
        self.keys.len()
    }

    fn get(&self, key: &K) -> Option<V> {
        let pos = self.keys.binary_search(key).ok()?;
        Some(self.vals[pos].clone())
    }

    fn contains(&self, key: &K) -> bool {
        self.keys.binary_search(key).is_ok()
    }

    fn rank(&self, key: &K) -> usize {
        self.keys.partition_point(|k| k < key)
    }

    fn min(&self) -> Option<&K> {
        self.keys.first()
    }

    fn max(&self) -> Option<&K> {
        self.keys.last()
    }

    fn batch_contains(&self, batch: &Batch<K>) -> Vec<bool> {
        parprim::map(batch.keys(), |q| self.contains(q))
    }

    fn batch_get(&self, batch: &Batch<K>) -> Vec<Option<V>> {
        parprim::map(batch.keys(), |q| self.get(q))
    }

    fn collect_entries(&self) -> (Vec<K>, Vec<V>) {
        (self.keys.as_ref().clone(), self.vals.as_ref().clone())
    }

    // Ordered queries on sorted arrays are direct slice operations —
    // `O(log n)` to locate plus the output copy, no full materialisation.

    fn range_entries(&self, lo: Bound<&K>, hi: Bound<&K>) -> Vec<(K, V)> {
        let (start, end) = self.rank_interval(lo, hi);
        let pairs = self.keys[start..end].iter().zip(&self.vals[start..end]);
        pairs.map(|(k, v)| (k.clone(), v.clone())).collect()
    }

    fn range_keys(&self, lo: Bound<&K>, hi: Bound<&K>) -> Vec<K> {
        let (start, end) = self.rank_interval(lo, hi);
        self.keys[start..end].to_vec()
    }

    fn kth_entry(&self, k: usize) -> Option<(K, V)> {
        Some((self.keys.get(k)?.clone(), self.vals[k].clone()))
    }
}

impl<K: Ord + Clone + Send + Sync, V: Clone + Send + Sync> SortedArrayMap<K, V> {
    fn rank_interval(&self, lo: Bound<&K>, hi: Bound<&K>) -> (usize, usize) {
        batchapi::bounds_to_rank_interval(
            self.len(),
            lo,
            hi,
            |k| self.rank(k),
            |k| self.contains(k),
        )
    }
}

impl<K: Ord + Clone + Send + Sync, V: Clone + Send + Sync> BatchedMap<K, V>
    for SortedArrayMap<K, V>
{
    fn batch_insert(&mut self, batch: &KvBatch<K, V>) -> Vec<bool> {
        if batch.is_empty() {
            return Vec::new();
        }
        let found = parprim::map(batch.keys(), |q| self.keys.binary_search(q));
        // The genuinely new keys, read off the searches just done: a sorted
        // subsequence of the batch, disjoint from the existing keys, so the
        // merged array stays strictly increasing.
        let fresh: Vec<K> = batch
            .iter()
            .zip(&found)
            .filter(|(_, at)| at.is_err())
            .map(|(q, _)| q.clone())
            .collect();
        // Values follow the same interleaving: the old runs between batch
        // positions are copied wholesale, each batch key contributes its
        // value (replacing the old one when the key was present).  For the
        // set every step moves zero bytes.
        let mut vals = Vec::with_capacity(self.vals.len() + fresh.len());
        let mut copied = 0;
        for (at, val) in found.iter().zip(batch.vals()) {
            let (Ok(pos) | Err(pos)) = *at;
            vals.extend_from_slice(&self.vals[copied..pos]);
            vals.push(val.clone());
            copied = pos + at.is_ok() as usize;
        }
        vals.extend_from_slice(&self.vals[copied..]);
        self.keys = Arc::new(parprim::merge(&self.keys, &fresh));
        self.vals = Arc::new(vals);
        found.iter().map(Result::is_err).collect()
    }

    fn batch_remove(&mut self, batch: &Batch<K>) -> Vec<bool> {
        if batch.is_empty() {
            return Vec::new();
        }
        let found = parprim::map(batch.keys(), |q| self.keys.binary_search(q));
        let mut vals = Vec::with_capacity(self.vals.len());
        let mut copied = 0;
        for pos in found.iter().flatten() {
            vals.extend_from_slice(&self.vals[copied..*pos]);
            copied = pos + 1;
        }
        vals.extend_from_slice(&self.vals[copied..]);
        self.keys = Arc::new(parprim::filter(&self.keys, |k| {
            batch.binary_search(k).is_err()
        }));
        self.vals = Arc::new(vals);
        found.iter().map(Result::is_ok).collect()
    }

    // Point mutators: one binary search plus an in-place shift — the flat
    // array's O(n) per-op cost, without the singleton-batch detour of the
    // trait defaults.

    fn upsert_one(&mut self, key: &K, val: &V) -> bool {
        match self.keys.binary_search(key) {
            Ok(pos) => {
                Arc::make_mut(&mut self.vals)[pos] = val.clone();
                false
            }
            Err(pos) => {
                Arc::make_mut(&mut self.keys).insert(pos, key.clone());
                Arc::make_mut(&mut self.vals).insert(pos, val.clone());
                true
            }
        }
    }

    fn remove_one(&mut self, key: &K) -> bool {
        match self.keys.binary_search(key) {
            Ok(pos) => {
                Arc::make_mut(&mut self.keys).remove(pos);
                Arc::make_mut(&mut self.vals).remove(pos);
                true
            }
            Err(_) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchapi::BatchedSet;

    #[test]
    fn from_unsorted_sorts_and_dedups() {
        let set = SortedArraySet::from_unsorted(vec![5, 1, 3, 3, 1]);
        assert_eq!(set.as_slice(), &[1, 3, 5]);
        assert_eq!(set.len(), 3);
        assert!(!set.is_empty());
    }

    #[test]
    fn contains_and_rank_agree_with_linear_scan() {
        let keys: Vec<u64> = (0..500).map(|i| i * 3).collect();
        let set = SortedArraySet::from_sorted(keys.clone());
        for probe in 0..1600u64 {
            assert_eq!(set.contains(&probe), keys.contains(&probe));
            assert_eq!(
                set.rank(&probe),
                keys.iter().filter(|&&k| k < probe).count()
            );
        }
    }

    #[test]
    fn batch_contains_matches_pointwise_queries() {
        let set = SortedArraySet::from_unsorted((0..1000u64).map(|i| i * 2).collect());
        let batch = Batch::from_unsorted((0..4096).map(|i| (i * 7) % 2500).collect());
        let batched = set.batch_contains(&batch);
        let pointwise: Vec<bool> = batch.iter().map(|q| set.contains(q)).collect();
        assert_eq!(batched, pointwise);
    }

    #[test]
    fn batch_insert_merges_and_reports_new_keys() {
        let mut set = SortedArraySet::from_unsorted((0..10u64).map(|i| i * 2).collect());
        let batch = Batch::from_unsorted(vec![1u64, 2, 3, 18, 19, 40]);
        let inserted = set.batch_insert(&batch);
        assert_eq!(inserted, vec![true, false, true, false, true, true]);
        assert_eq!(
            set.as_slice(),
            &[0, 1, 2, 3, 4, 6, 8, 10, 12, 14, 16, 18, 19, 40]
        );
    }

    #[test]
    fn batch_remove_compacts_and_reports_hits() {
        let mut set = SortedArraySet::from_unsorted((0..10u64).collect());
        let batch = Batch::from_unsorted(vec![0u64, 3, 4, 11]);
        let removed = set.batch_remove(&batch);
        assert_eq!(removed, vec![true, true, true, false]);
        assert_eq!(set.as_slice(), &[1, 2, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn empty_batches_are_no_ops() {
        let mut set = SortedArraySet::from_unsorted(vec![1u64, 2, 3]);
        let empty = Batch::empty();
        assert!(set.batch_contains(&empty).is_empty());
        assert!(set.batch_insert(&empty).is_empty());
        assert!(set.batch_remove(&empty).is_empty());
        assert_eq!(set.as_slice(), &[1, 2, 3]);
    }

    #[test]
    fn point_mutators_edit_in_place() {
        let mut set = SortedArraySet::from_sorted(vec![2u64, 4, 6]);
        assert!(set.insert_one(&3));
        assert!(!set.insert_one(&3));
        assert!(set.remove_one(&4));
        assert!(!set.remove_one(&4));
        assert_eq!(set.as_slice(), &[2, 3, 6]);
    }

    #[test]
    fn batch_ops_work_inside_a_pool() {
        let mut set = SortedArraySet::from_unsorted((0..10_000u64).map(|i| i * 3).collect());
        let batch = Batch::from_unsorted((0..50_000u64).map(|i| i % 20_000).collect());
        let pool = forkjoin::Pool::new(4).unwrap();
        let (hits, inserted) = pool.install(|| {
            let hits = set.batch_contains(&batch);
            let inserted = set.batch_insert(&batch);
            (hits, inserted)
        });
        for ((q, hit), ins) in batch.iter().zip(&hits).zip(&inserted) {
            assert_eq!(*hit, q % 3 == 0 && *q < 30_000, "query {q}");
            assert_eq!(*ins, !*hit, "query {q}");
            assert!(set.contains(q));
        }
        let removed = pool.install(|| set.batch_remove(&batch));
        assert!(removed.iter().all(|&r| r));
        // Exactly the multiples of 3 outside the batch's range remain.
        assert!(set.as_slice().iter().all(|k| *k >= 20_000));
        assert_eq!(set.len(), 10_000 - 6_667);
    }

    #[test]
    fn set_range_overrides_match_defaults() {
        let set = SortedArraySet::from_sorted((0..1_000u64).map(|i| i * 2).collect());
        assert_eq!(
            set.range_keys(Bound::Included(&10), Bound::Excluded(&20)),
            vec![10, 12, 14, 16, 18]
        );
        assert_eq!(
            set.range_count(Bound::Excluded(&10), Bound::Included(&20)),
            5
        );
        assert_eq!(set.kth(0), Some(0));
        assert_eq!(set.kth(999), Some(1_998));
        assert_eq!(set.kth(1_000), None);
        assert_eq!(set.predecessor(&0), None);
        assert_eq!(set.successor(&1_998), None);
        assert_eq!(set.predecessor(&11), Some(10));
        assert_eq!(set.successor(&11), Some(12));
    }

    #[test]
    fn map_upserts_last_wins_and_answers_lookups() {
        let mut map =
            SortedArrayMap::from_unsorted_entries(vec![(3u64, "c"), (1, "a"), (3, "C"), (2, "b")]);
        assert_eq!(map.len(), 3);
        assert_eq!(map.get(&3), Some("C"), "construction is last-wins");
        let flags = map.batch_insert(&KvBatch::from_unsorted_entries(vec![(2, "B"), (4, "d")]));
        assert_eq!(flags, vec![false, true]);
        assert_eq!(map.get(&2), Some("B"), "upsert overwrote");
        assert_eq!(map.get(&4), Some("d"));
        let gone = map.batch_remove(&Batch::from_unsorted(vec![1u64, 9]));
        assert_eq!(gone, vec![true, false]);
        assert_eq!(map.collect_entries(), (vec![2, 3, 4], vec!["B", "C", "d"]));
        assert_eq!(
            map.batch_get(&Batch::from_unsorted(vec![2u64, 5])),
            vec![Some("B"), None]
        );
        assert_eq!(map.rank(&3), 1);
        assert!(map.contains(&3) && !map.contains(&5));
    }

    #[test]
    fn map_range_and_selection_match_btreemap() {
        use std::collections::BTreeMap;
        let entries: Vec<(u64, u64)> = (0..2_000u64).map(|i| (i * 3, i)).collect();
        let oracle: BTreeMap<u64, u64> = entries.iter().copied().collect();
        let map = SortedArrayMap::from_unsorted_entries(entries);
        for (lo, hi) in [
            (Bound::Unbounded, Bound::Unbounded),
            (Bound::Included(&300), Bound::Excluded(&600)),
            (Bound::Excluded(&299), Bound::Included(&601)),
            (Bound::Included(&301), Bound::Excluded(&302)), // off-key, empty
        ] {
            let expected: Vec<(u64, u64)> = oracle
                .range((lo.cloned(), hi.cloned()))
                .map(|(k, v)| (*k, *v))
                .collect();
            assert_eq!(map.range_entries(lo, hi), expected, "{lo:?}..{hi:?}");
            assert_eq!(map.range_count(lo, hi), expected.len());
        }
        assert_eq!(map.kth_entry(0), Some((0, 0)));
        assert_eq!(map.kth_entry(1_999), Some((5_997, 1_999)));
        assert_eq!(map.kth_entry(2_000), None);
        assert_eq!(map.predecessor(&1), Some(0));
        assert_eq!(map.successor(&5_997), None);
    }

    #[test]
    fn map_clone_is_a_snapshot() {
        let mut map = SortedArrayMap::from_unsorted_entries((0..100u64).map(|i| (i, i)).collect());
        let frozen = map.clone();
        // O(1): no copy, just a second strong reference to each array.
        assert_eq!(Arc::strong_count(&map.keys), 2);

        // Every mutation flavour unshares the clone rather than editing it.
        map.batch_insert(&KvBatch::from_unsorted_entries(vec![(7u64, 700u64)]));
        assert!(map.upsert_one(&200, &2));
        assert!(map.remove_one(&0));
        map.batch_remove(&Batch::from_unsorted(vec![2u64]));
        assert_eq!(map.get(&7), Some(700));
        assert!(map.contains(&200) && !map.contains(&2));
        assert_eq!(frozen.get(&7), Some(7), "clone saw a later upsert");
        assert!(!frozen.contains(&200), "clone saw a later insert");
        assert!(frozen.contains(&0), "clone saw a later remove");
        assert_eq!(frozen.len(), 100);
    }
}
