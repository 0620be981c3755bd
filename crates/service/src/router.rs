//! Shard routers: deciding which shard owns a key, and carving a sorted
//! [`KvBatch`] into per-shard sub-batches whose results stitch back by
//! concatenation.
//!
//! The tier is an **ordered partition** of the key space: shard `i` owns a
//! contiguous key range below shard `i + 1`'s.  That is the paper's own
//! discipline one level up — an inner node of `pbist` splits a sorted batch
//! at its routers and carves the output at the same offsets — so a sorted
//! batch splits into **contiguous** sub-batches with a handful of narrowing
//! binary searches, per-shard results concatenate into batch order, and
//! ordered queries visit shards in index order.  Monotonicity is the
//! [`ShardRouter`] contract, not a flag; [`RangeRouter`] is the shipped
//! implementation.

use batchapi::KvBatch;
use pbist::node::interpolate_slot;
use pbist::InterpolateKey;

/// Assigns every key to one of a fixed number of shards.
///
/// # Contract
///
/// The assignment must be
///
/// * **total and stable** — the same key always routes to the same shard,
///   `< num_shards()`, for the router's whole lifetime — which is what makes
///   the tier's per-key history live entirely inside one shard (the ground
///   for the per-shard linearizability contract, see the crate docs); and
/// * **monotone** — `a <= b` implies `shard_of(a) <= shard_of(b)`, i.e.
///   shard `i` owns a contiguous key range below shard `i + 1`'s.  Batched
///   ops route by [`ShardRouter::split`]'s carve and point ops by
///   [`ShardRouter::shard_of`]; only a monotone `shard_of` makes the two
///   agree, and the tier's ordered queries concatenate per-shard runs in
///   shard order.  `split` checks the contract and panics when it is broken.
pub trait ShardRouter<K: Ord> {
    /// Number of shards this router partitions the key space across.
    fn num_shards(&self) -> usize;

    /// The shard owning `key`; always `< num_shards()`, and monotone in
    /// `key` (see the [contract](ShardRouter#contract)).
    fn shard_of(&self, key: &K) -> usize;

    /// Carves a sorted `batch`, keys and values together, into one (possibly
    /// empty) contiguous sub-batch per shard: each shard boundary is located
    /// with a binary search over `shard_of` in the still-unassigned tail, so
    /// the offsets come out as the exclusive scan of per-shard key counts —
    /// the same idiom the tree's batched update uses at every inner node.
    ///
    /// # Panics
    ///
    /// Panics when `shard_of` disagrees with the carve — a router that is
    /// not monotone (or not total) would otherwise send a key's batched and
    /// point ops to different shards.  The two ends of every non-empty
    /// sub-batch are always checked; every key is under `debug_assertions`.
    fn split<V: Clone>(&self, batch: &KvBatch<K, V>) -> SplitBatch<K, V>
    where
        K: Clone,
    {
        let shards = self.num_shards();
        let mut offsets = Vec::with_capacity(shards + 1);
        offsets.push(0);
        let mut assigned = 0;
        for next in 1..shards {
            assigned += batch[assigned..].partition_point(|key| self.shard_of(key) < next);
            offsets.push(assigned);
        }
        offsets.push(batch.len());
        for (shard, ends) in offsets.windows(2).enumerate() {
            let sub = &batch[ends[0]..ends[1]];
            let check = |key: &K| {
                let routed = self.shard_of(key);
                assert!(
                    routed == shard,
                    "ShardRouter contract violated: shard_of must be monotone and < num_shards, \
                     but a key carved into sub-batch {shard} of {shards} routes to shard {routed}"
                );
            };
            if cfg!(debug_assertions) {
                sub.iter().for_each(check);
            } else {
                sub.first().into_iter().chain(sub.last()).for_each(check);
            }
        }
        SplitBatch {
            sub_batches: batch.split_at_offsets(&offsets),
            offsets,
        }
    }
}

/// One sorted batch carved into contiguous per-shard sub-batches.  Produced
/// by [`ShardRouter::split`]; consumed by the tier's batched operations (and
/// directly testable — see this crate's router property tests).
pub struct SplitBatch<K, V> {
    sub_batches: Vec<KvBatch<K, V>>,
    /// The carve: sub-batch `s` is `batch[offsets[s]..offsets[s + 1]]`, so
    /// `offsets` is the exclusive scan of per-shard key counts.
    offsets: Vec<usize>,
}

impl<K, V> SplitBatch<K, V> {
    /// The per-shard sub-batches, indexed by shard; empty shards hold
    /// empty batches.
    pub fn sub_batches(&self) -> &[KvBatch<K, V>] {
        &self.sub_batches
    }

    /// Stitches per-shard result runs back into batch order: `out[i]`
    /// becomes the result (a flag, a looked-up value) that `batch[i]`'s shard
    /// reported for it.  Shard order is batch order, so this is the
    /// concatenation of the runs — shard `s`'s results land at
    /// `out[offsets[s]..offsets[s + 1]]`.  `per_shard[s]` must hold exactly
    /// one result per key of sub-batch `s`, in sub-batch order — which is
    /// what the shards' batched operations report.
    ///
    /// # Panics
    ///
    /// Panics when `per_shard` disagrees with the split's shape (wrong
    /// shard count or a result run whose length differs from its
    /// sub-batch).
    pub fn stitch<T: Clone>(&self, per_shard: &[Vec<T>], out: &mut Vec<T>) {
        assert_eq!(
            per_shard.len(),
            self.sub_batches.len(),
            "one result run per shard"
        );
        out.clear();
        for (shard, run) in per_shard.iter().enumerate() {
            let keys = self.offsets[shard + 1] - self.offsets[shard];
            assert_eq!(
                run.len(),
                keys,
                "shard {shard} reported {} results for {keys} keys",
                run.len()
            );
            out.extend_from_slice(run);
        }
    }
}

/// Range-partitioning router: shard `i` owns the keys whose
/// [`InterpolateKey::to_ordinal`] position falls into the `i`-th equal
/// slice of `[min, max]`.  Keys outside the bounds clamp to the edge
/// shards, so the assignment is total; `to_ordinal` is monotone and the
/// slot interpolation preserves it, so the assignment is monotone.
#[derive(Debug, Clone)]
pub struct RangeRouter<K> {
    min: K,
    max: K,
    num_shards: usize,
}

impl<K: InterpolateKey> RangeRouter<K> {
    /// A router over `num_shards` equal ordinal slices of `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics when `num_shards` is zero or `min > max`.
    pub fn new(num_shards: usize, min: K, max: K) -> RangeRouter<K> {
        assert!(num_shards > 0, "a router needs at least one shard");
        assert!(min <= max, "inverted key range");
        RangeRouter {
            min,
            max,
            num_shards,
        }
    }
}

impl<K: InterpolateKey> ShardRouter<K> for RangeRouter<K> {
    fn num_shards(&self) -> usize {
        self.num_shards
    }

    fn shard_of(&self, key: &K) -> usize {
        interpolate_slot(key, &self.min, &self.max, self.num_shards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchapi::Batch;

    #[test]
    fn range_router_is_monotone_and_total() {
        let router = RangeRouter::new(4, 0u64, 100);
        let mut prev = 0;
        for key in 0..=100u64 {
            let shard = router.shard_of(&key);
            assert!(shard < 4);
            assert!(shard >= prev, "shard_of not monotone at {key}");
            prev = shard;
        }
        // Out-of-bounds keys clamp to the edge shards.
        assert_eq!(router.shard_of(&0), 0);
        assert_eq!(ShardRouter::<u64>::shard_of(&router, &10_000), 3);
    }

    #[test]
    fn range_split_offsets_agree_with_shard_of() {
        let router = RangeRouter::new(3, 0u64, 90);
        let batch = Batch::from_unsorted(vec![0u64, 10, 29, 30, 31, 60, 89, 90]);
        let split = router.split(&batch);
        assert_eq!(split.sub_batches().len(), 3);
        let routed: usize = split.sub_batches().iter().map(|sub| sub.len()).sum();
        assert_eq!(routed, batch.len());
        for (shard, sub) in split.sub_batches().iter().enumerate() {
            for key in sub.iter() {
                assert_eq!(router.shard_of(key), shard, "key {key}");
            }
        }
    }

    /// Routes by parity: total and stable, but not monotone — the carve and
    /// `shard_of` cannot agree, so a batched op and a point op on the same
    /// key would land on different shards.  `split` must refuse — and on
    /// this batch (odd first key, even last key) the always-on check of the
    /// sub-batch ends fires wherever the binary search lands.
    struct ParityRouter;

    impl ShardRouter<u64> for ParityRouter {
        fn num_shards(&self) -> usize {
            2
        }

        fn shard_of(&self, key: &u64) -> usize {
            (key % 2) as usize
        }
    }

    #[test]
    #[should_panic(expected = "ShardRouter contract violated")]
    fn a_non_monotone_router_is_refused_by_split() {
        ParityRouter.split(&Batch::from_unsorted((1..=40u64).collect()));
    }

    #[test]
    #[should_panic(expected = "reported 1 results for 2 keys")]
    fn stitch_rejects_mismatched_result_runs() {
        let router = RangeRouter::new(1, 0u64, 10);
        let split = router.split(&Batch::from_unsorted(vec![1u64, 2]));
        split.stitch(&[vec![true]], &mut Vec::new());
    }

    #[test]
    fn single_shard_routers_degenerate_cleanly() {
        let range = RangeRouter::new(1, 0u64, 10);
        let batch = Batch::from_unsorted(vec![3u64, 7, 99]);
        let split = range.split(&batch);
        assert_eq!(split.sub_batches().len(), 1);
        assert_eq!(split.sub_batches()[0], batch);
    }
}
