//! The batched-operations API shared by every store implementation in this
//! workspace.
//!
//! The paper's computational model is *batched*: operations arrive as sorted,
//! deduplicated batches, and a data structure processes one whole batch in
//! parallel before the next one starts.  The paper's data type is "a sorted
//! set (or map)" — one type, and this crate pins it down as one: the **map
//! is the primitive and the set is its `V = ()` instance**.
//!
//! * [`KvBatch`] — a sorted batch of key/value pairs with strictly
//!   increasing keys.  [`Batch`]`<K>` *is* `KvBatch<K, ()>` (a `Vec<()>`
//!   never allocates), so a set insert hands the backend the very same
//!   value a map upsert does.  Validation and normalisation happen **once**,
//!   at the boundary; implementations may assume (and exploit) strict
//!   ascending key order.
//! * [`MapView`] — the read half: point `get`/`contains`, `rank`,
//!   `min`/`max`, batched lookups, `collect_*`, and the five ordered queries
//!   (`range_*`, `range_count`, `kth`, `predecessor`, `successor`) with
//!   their [`bounds_to_rank_interval`] defaults written once.
//! * [`BatchedMap`] — the backend trait: `MapView` plus the batched and
//!   point mutators.  The interpolation search tree (`pbist::IstMap`), the
//!   flat sorted array (`baselines::SortedArrayMap`) and any future backend
//!   implement it, so harnesses and tests drive them through one interface.
//!   There is no publication method: a snapshot of a backend is a
//!   **`clone()`** of it, which a concurrent front-end (`combine`) takes
//!   after every round and serves its reads from — so a backend meant
//!   to sit behind one makes `Clone` cheap (both real backends share their
//!   storage through `Arc`s and copy on write).
//! * [`BatchedSet`] — a blanket façade over every `BatchedMap<K, ()>` that
//!   adds only the one method whose *spelling* differs for sets
//!   (`insert_one(&key)`); everything else a set does is already a
//!   `BatchedMap<K, ()>` method taking a [`Batch`].
//! * [`KeyCodec`] — a fixed-width, order-preserving byte encoding for keys
//!   (and values; `()` encodes to zero bytes), the serialisation contract
//!   the durability tier writes its log records and snapshots in.
//!
//! # Upsert policy: last wins
//!
//! [`BatchedMap::batch_insert`] is an **upsert**: a key already
//! present keeps its slot but takes the batch's value, and its flag reports
//! `false` (= not newly inserted).  Duplicate keys *within* one input are
//! resolved at [`KvBatch::from_unsorted_entries`] by keeping the last
//! occurrence, so the net effect equals applying the raw pairs one
//! `insert(k, v)` at a time in input order.  For `V = ()` both rules are
//! invisible — overwriting `()` with `()` changes nothing — which is exactly
//! why the set needs no path of its own.
//!
//! The crate is deliberately dependency-free (std only): it defines the
//! contract, while `pbist`, `baselines`, … provide the parallel
//! implementations on top of `parprim`/`forkjoin`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt;
use std::ops::{Bound, Deref};

/// A sorted batch of key/value pairs with strictly-increasing (hence
/// deduplicated) keys.
///
/// All [`BatchedMap`] operations consume batches, never raw slices: the
/// sortedness invariant is established here, exactly once, so every
/// implementation can partition a batch with binary searches and merge it
/// into sorted storage without re-checking.  Keys and values live in two
/// parallel arrays, so the key run is partitioned exactly as a key-only
/// batch is (the offsets carve both arrays), and the batch dereferences to
/// its key slice.
///
/// ```
/// use batchapi::KvBatch;
///
/// let batch = KvBatch::from_unsorted_entries(vec![(5u64, 'a'), (1, 'b'), (5, 'c')]);
/// assert_eq!(batch.keys(), &[1, 5]);
/// assert_eq!(batch.vals(), &['b', 'c'], "last write to key 5 wins");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvBatch<K, V> {
    keys: Vec<K>,
    vals: Vec<V>,
}

/// A sorted, strictly-increasing batch of keys: the `V = ()` instance of
/// [`KvBatch`].  The unit value array is zero-sized and never allocates.
///
/// ```
/// use batchapi::Batch;
///
/// let batch = Batch::from_unsorted(vec![5u64, 1, 9, 1]);
/// assert_eq!(batch.as_slice(), &[1, 5, 9]);
/// assert!(Batch::from_sorted(vec![1u64, 2, 3]).is_ok());
/// assert!(Batch::from_sorted(vec![2u64, 1]).is_err());
/// ```
pub type Batch<K> = KvBatch<K, ()>;

/// Why a key vector was rejected by [`Batch::from_sorted`].
///
/// Both variants name the offending position, and the rendered message
/// spells out *which* of the two ways the strict-increase invariant broke —
/// a duplicated key versus an out-of-order pair — so a failed ingest can be
/// traced to the exact input element without reproducing the batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchError {
    /// `keys[index] == keys[index + 1]`: the key at `index` appears again
    /// immediately after itself.
    Duplicate {
        /// Position of the first of the two equal keys.
        index: usize,
    },
    /// `keys[index] > keys[index + 1]`: the input is out of order at
    /// `index`.
    OutOfOrder {
        /// Position of the first key that exceeds its successor.
        index: usize,
    },
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchError::Duplicate { index } => write!(
                f,
                "batch keys must be strictly increasing: keys[{index}] and \
                 keys[{}] are equal (duplicate key at index {index})",
                index + 1
            ),
            BatchError::OutOfOrder { index } => write!(
                f,
                "batch keys must be strictly increasing: keys[{index}] > \
                 keys[{}] (out of order at index {index})",
                index + 1
            ),
        }
    }
}

impl std::error::Error for BatchError {}

impl<K: Ord> Batch<K> {
    /// Builds a batch from arbitrary keys: sorts (unstable — keys are plain
    /// `Ord` values, there is no tie order to preserve) and deduplicates.
    pub fn from_unsorted(mut keys: Vec<K>) -> Batch<K> {
        keys.sort_unstable();
        keys.dedup();
        Batch::from_keys(keys)
    }

    /// Wraps keys that are claimed to be sorted and deduplicated, after
    /// verifying the claim with one linear scan.
    ///
    /// # Errors
    ///
    /// Returns [`BatchError::Duplicate`] at the first adjacent pair that is
    /// equal, or [`BatchError::OutOfOrder`] at the first that decreases.
    pub fn from_sorted(keys: Vec<K>) -> Result<Batch<K>, BatchError> {
        let vals = vec![(); keys.len()];
        KvBatch::from_sorted_parts(keys, vals)
    }

    /// Pairs already-validated keys with their (non-allocating) unit values.
    fn from_keys(keys: Vec<K>) -> Batch<K> {
        let vals = vec![(); keys.len()];
        KvBatch { keys, vals }
    }

    /// The keys, strictly increasing.
    pub fn as_slice(&self) -> &[K] {
        &self.keys
    }
}

impl<K: Ord, V> KvBatch<K, V> {
    /// Builds a batch from arbitrary pairs: stable-sorts by key and
    /// deduplicates with the last-wins policy (see the crate docs) — the
    /// sort is stable, so "last occurrence" means last in the input vector.
    pub fn from_unsorted_entries(mut entries: Vec<(K, V)>) -> KvBatch<K, V> {
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        // `dedup_by` visits (later, earlier-kept) pairs; moving the later
        // value into the kept slot before discarding implements last-wins.
        entries.dedup_by(|later, kept| {
            if later.0 == kept.0 {
                std::mem::swap(&mut later.1, &mut kept.1);
                true
            } else {
                false
            }
        });
        let (keys, vals) = entries.into_iter().unzip();
        KvBatch { keys, vals }
    }

    /// Wraps pairs claimed to be sorted with strictly-increasing keys, after
    /// verifying the claim with one linear scan.
    ///
    /// # Errors
    ///
    /// Returns [`BatchError::Duplicate`] / [`BatchError::OutOfOrder`] at the
    /// first offending adjacent key pair (same contract as
    /// [`Batch::from_sorted`]).
    pub fn from_sorted_entries(entries: Vec<(K, V)>) -> Result<KvBatch<K, V>, BatchError> {
        let (keys, vals) = entries.into_iter().unzip();
        KvBatch::from_sorted_parts(keys, vals)
    }

    /// Wraps parallel key and value vectors — the inverse of
    /// [`KvBatch::into_parts`] — after verifying with one linear scan that
    /// the keys strictly increase.  This is the one place that check is
    /// made: [`Batch::from_sorted`] and [`KvBatch::from_sorted_entries`]
    /// call it.
    ///
    /// # Errors
    ///
    /// Same contract as [`Batch::from_sorted`].
    ///
    /// # Panics
    ///
    /// When `keys` and `vals` differ in length.
    pub fn from_sorted_parts(keys: Vec<K>, vals: Vec<V>) -> Result<KvBatch<K, V>, BatchError> {
        assert_eq!(keys.len(), vals.len(), "a value for every key");
        match keys.windows(2).position(|w| w[0] >= w[1]) {
            None => Ok(KvBatch { keys, vals }),
            Some(index) if keys[index] == keys[index + 1] => Err(BatchError::Duplicate { index }),
            Some(index) => Err(BatchError::OutOfOrder { index }),
        }
    }
}

impl<K, V> KvBatch<K, V> {
    /// The empty batch.
    pub fn empty() -> KvBatch<K, V> {
        KvBatch {
            keys: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// The keys, strictly increasing.
    pub fn keys(&self) -> &[K] {
        &self.keys
    }

    /// The values, parallel to [`KvBatch::keys`].
    pub fn vals(&self) -> &[V] {
        &self.vals
    }

    /// Number of (distinct) keys in the batch.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Returns `true` when the batch holds no keys.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Splits the batch into `offsets.len() - 1` contiguous sub-batches:
    /// sub-batch `i` holds the pairs at `offsets[i]..offsets[i + 1]`
    /// (possibly empty).  `offsets` is the exclusive scan of the per-segment key
    /// counts — exactly the shape `pbist`'s joint traversal produces when
    /// it partitions a batch at a node's routers, and what a sharded
    /// service tier produces when it carves a batch at shard boundaries.
    ///
    /// Every sub-batch is a contiguous slice of a strictly-increasing run,
    /// so it is itself a valid batch; no re-validation happens.
    ///
    /// # Panics
    ///
    /// Panics when `offsets` is not a valid exclusive scan over this batch:
    /// fewer than two entries, not non-decreasing, first entry not `0`, or
    /// last entry not `self.len()`.
    pub fn split_at_offsets(&self, offsets: &[usize]) -> Vec<KvBatch<K, V>>
    where
        K: Clone,
        V: Clone,
    {
        assert!(offsets.len() >= 2, "offsets needs at least [0, len]");
        assert_eq!(offsets[0], 0, "offsets must start at 0");
        assert_eq!(
            *offsets.last().expect("len checked above"),
            self.keys.len(),
            "offsets must end at the batch length"
        );
        offsets
            .windows(2)
            .map(|w| {
                assert!(w[0] <= w[1], "offsets must be non-decreasing");
                KvBatch {
                    keys: self.keys[w[0]..w[1]].to_vec(),
                    vals: self.vals[w[0]..w[1]].to_vec(),
                }
            })
            .collect()
    }

    /// Iterates the pairs in key order.
    pub fn entries(&self) -> impl Iterator<Item = (&K, &V)> {
        self.keys.iter().zip(self.vals.iter())
    }

    /// Consumes the batch, returning the parallel key and value vectors.
    pub fn into_parts(self) -> (Vec<K>, Vec<V>) {
        (self.keys, self.vals)
    }
}

impl<K, V> Default for KvBatch<K, V> {
    fn default() -> KvBatch<K, V> {
        KvBatch::empty()
    }
}

impl<K, V> Deref for KvBatch<K, V> {
    type Target = [K];

    fn deref(&self) -> &[K] {
        &self.keys
    }
}

/// Converts an ordered-query bound pair into the half-open rank interval
/// `[start, end)` it selects: `start` is the rank of the first key inside
/// the range, `end` the rank one past the last.  `end` is clamped to
/// `start`, so inverted bounds (`lo > hi`) select the empty interval rather
/// than panicking.
///
/// Because a set's `rank` is exactly a key's index in the sorted contents,
/// the interval doubles as the index range into any sorted materialisation
/// of the set — which is how the default `range_keys` implementations slice.
pub fn bounds_to_rank_interval<K>(
    len: usize,
    lo: Bound<&K>,
    hi: Bound<&K>,
    rank: impl Fn(&K) -> usize,
    contains: impl Fn(&K) -> bool,
) -> (usize, usize) {
    let start = match lo {
        Bound::Unbounded => 0,
        Bound::Included(k) => rank(k),
        Bound::Excluded(k) => rank(k) + contains(k) as usize,
    };
    let end = match hi {
        Bound::Unbounded => len,
        Bound::Included(k) => rank(k) + contains(k) as usize,
        Bound::Excluded(k) => rank(k),
    };
    (start, end.max(start))
}

/// A key type with a fixed-width, order-preserving byte encoding.
///
/// The durability tier serialises keys into write-ahead-log records and
/// snapshot files; a *fixed* width keeps records self-describing from their
/// length prefix alone (no per-key length bytes), and an *order-preserving*
/// encoding (`a < b` iff `encode(a) < encode(b)` bytewise) means on-disk
/// key runs stay sorted exactly when the in-memory batch was, so a snapshot
/// can be validated — and bulk-loaded — without re-sorting.
///
/// Unsigned integers encode big-endian; signed integers flip the sign bit
/// first (offset-binary), which maps the `i64` number line monotonically
/// onto the `u64` byte order.
///
/// Values go through the same trait (the durability tier needs their width,
/// not their order); `()` — a set's value — encodes to zero bytes, so a set
/// pays nothing on disk for being the `V = ()` instance of the map.
///
/// ```
/// use batchapi::KeyCodec;
///
/// let mut buf = [0u8; 8];
/// 0x0102_0304_0506_0708u64.encode(&mut buf);
/// assert_eq!(buf, [1, 2, 3, 4, 5, 6, 7, 8]);
/// assert_eq!(u64::decode(&buf), 0x0102_0304_0506_0708);
///
/// let mut neg = [0u8; 8];
/// let mut pos = [0u8; 8];
/// (-5i64).encode(&mut neg);
/// 5i64.encode(&mut pos);
/// assert!(neg < pos, "byte order follows key order");
/// ```
pub trait KeyCodec: Sized {
    /// Exact number of bytes [`KeyCodec::encode`] writes and
    /// [`KeyCodec::decode`] reads.
    const WIDTH: usize;

    /// Writes the key into `buf`, which is exactly [`KeyCodec::WIDTH`]
    /// bytes long.
    ///
    /// # Panics
    ///
    /// Implementations may panic when `buf.len() != Self::WIDTH`.
    fn encode(&self, buf: &mut [u8]);

    /// Reads a key back out of a [`KeyCodec::WIDTH`]-byte buffer written by
    /// [`KeyCodec::encode`].
    ///
    /// # Panics
    ///
    /// Implementations may panic when `buf.len() != Self::WIDTH`.
    fn decode(buf: &[u8]) -> Self;
}

macro_rules! unsigned_key_codec {
    ($($ty:ty),*) => {$(
        impl KeyCodec for $ty {
            const WIDTH: usize = std::mem::size_of::<$ty>();

            fn encode(&self, buf: &mut [u8]) {
                buf.copy_from_slice(&self.to_be_bytes());
            }

            fn decode(buf: &[u8]) -> $ty {
                <$ty>::from_be_bytes(buf.try_into().expect("WIDTH bytes"))
            }
        }
    )*};
}

unsigned_key_codec!(u8, u16, u32, u64, u128);

macro_rules! signed_key_codec {
    ($($ty:ty => $uty:ty),*) => {$(
        impl KeyCodec for $ty {
            const WIDTH: usize = std::mem::size_of::<$ty>();

            fn encode(&self, buf: &mut [u8]) {
                // Offset-binary: flipping the sign bit maps the signed
                // number line monotonically onto unsigned byte order.
                ((*self as $uty) ^ (1 << (<$ty>::BITS - 1))).encode(buf);
            }

            fn decode(buf: &[u8]) -> $ty {
                (<$uty>::decode(buf) ^ (1 << (<$ty>::BITS - 1))) as $ty
            }
        }
    )*};
}

signed_key_codec!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, i128 => u128);

impl KeyCodec for () {
    const WIDTH: usize = 0;

    fn encode(&self, _buf: &mut [u8]) {}

    fn decode(_buf: &[u8]) {}
}

/// The read half of an ordered key→value store: everything that can be
/// asked of its contents at one linearisation point.
///
/// Implemented by every backend (as the supertrait of [`BatchedMap`]), and
/// a published snapshot is a clone of the backend, so a query is written
/// once and runs against either.  Batched lookups answer **per
/// batch element, in batch (sorted) order**, and are expected to exploit a
/// surrounding `forkjoin::Pool` when one is installed.
///
/// The ordered queries all derive from `rank` + `contains` through
/// [`bounds_to_rank_interval`]; the defaults materialise the contents
/// (`O(n)`, correct for any backend) and ordered backends override
/// `range_entries`/`range_keys`/`kth_entry` with structure-aware descents.
pub trait MapView<K, V = ()> {
    /// Number of keys in the store.
    fn len(&self) -> usize;

    /// Returns `true` when the store holds no keys.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value stored under `key`, or `None` when absent.
    fn get(&self, key: &K) -> Option<V>
    where
        V: Clone;

    /// Returns `true` when `key` is present (no value is cloned).
    fn contains(&self, key: &K) -> bool;

    /// Number of keys strictly smaller than `key`.
    fn rank(&self, key: &K) -> usize;

    /// The smallest key, or `None` for an empty store.
    fn min(&self) -> Option<&K>;

    /// The largest key, or `None` for an empty store.
    fn max(&self) -> Option<&K>;

    /// One membership query per batch element: `result[i]` is `true` iff
    /// `batch[i]` is present.  The default is a loop of point lookups;
    /// backends with a joint traversal override it.
    fn batch_contains(&self, batch: &Batch<K>) -> Vec<bool> {
        batch.iter().map(|q| self.contains(q)).collect()
    }

    /// One lookup per batch element: `result[i]` is `batch[i]`'s value, or
    /// `None` when absent.
    fn batch_get(&self, batch: &Batch<K>) -> Vec<Option<V>>
    where
        V: Clone,
    {
        batch.iter().map(|q| self.get(q)).collect()
    }

    /// Clones every pair out of the store as parallel key and value arrays
    /// in ascending key order — the full contents as one sorted run, ready
    /// to become a [`KvBatch`].  The durability tier's snapshots are the
    /// motivating consumer: snapshot = `collect_entries`, recovery =
    /// rebuild from the collected batch and replay the log tail.
    /// Implementations should flatten in parallel where their structure
    /// allows (`pbist` forks per subtree).
    fn collect_entries(&self) -> (Vec<K>, Vec<V>)
    where
        K: Clone,
        V: Clone;

    /// The key half of [`MapView::collect_entries`].
    fn collect_keys(&self) -> Vec<K>
    where
        K: Clone,
        V: Clone,
    {
        self.collect_entries().0
    }

    /// Pairs whose keys fall inside the `(lo, hi)` bound pair, ascending.
    ///
    /// The default materialises the full contents and slices it — `O(n)`
    /// but correct for any backend; ordered backends override with a
    /// structure-aware carve (`pbist` descends once and concatenates whole
    /// subtrees between the two boundary leaves).
    fn range_entries(&self, lo: Bound<&K>, hi: Bound<&K>) -> Vec<(K, V)>
    where
        K: Clone,
        V: Clone,
    {
        let (start, end) =
            bounds_to_rank_interval(self.len(), lo, hi, |k| self.rank(k), |k| self.contains(k));
        let (keys, vals) = self.collect_entries();
        keys.into_iter().zip(vals).take(end).skip(start).collect()
    }

    /// Keys inside the `(lo, hi)` bound pair, ascending (the key half of
    /// [`MapView::range_entries`]).
    fn range_keys(&self, lo: Bound<&K>, hi: Bound<&K>) -> Vec<K>
    where
        K: Clone,
        V: Clone,
    {
        self.range_entries(lo, hi)
            .into_iter()
            .map(|(k, _)| k)
            .collect()
    }

    /// Number of keys inside the `(lo, hi)` bound pair — two rank queries,
    /// no materialisation.
    fn range_count(&self, lo: Bound<&K>, hi: Bound<&K>) -> usize {
        let (start, end) =
            bounds_to_rank_interval(self.len(), lo, hi, |k| self.rank(k), |k| self.contains(k));
        end - start
    }

    /// The `k`-th smallest pair (0-indexed), or `None` when `k >= len()`.
    /// The default materialises the contents (`O(n)`); ordered backends
    /// override with an indexed descent.
    fn kth_entry(&self, k: usize) -> Option<(K, V)>
    where
        K: Clone,
        V: Clone,
    {
        if k >= self.len() {
            return None;
        }
        let (keys, vals) = self.collect_entries();
        keys.into_iter().zip(vals).nth(k)
    }

    /// The `k`-th smallest key (0-indexed), or `None` when `k >= len()`.
    /// Also known as `select` — the inverse of [`MapView::rank`].
    fn kth(&self, k: usize) -> Option<K>
    where
        K: Clone,
        V: Clone,
    {
        self.kth_entry(k).map(|(key, _)| key)
    }

    /// The largest key strictly smaller than `key`, or `None` when no key
    /// precedes it.  Derived from [`MapView::rank`] + [`MapView::kth`].
    fn predecessor(&self, key: &K) -> Option<K>
    where
        K: Clone,
        V: Clone,
    {
        match self.rank(key) {
            0 => None,
            r => self.kth(r - 1),
        }
    }

    /// The smallest key strictly greater than `key`, or `None` when no key
    /// follows it.  Derived from [`MapView::rank`] + [`MapView::kth`].
    fn successor(&self, key: &K) -> Option<K>
    where
        K: Clone,
        V: Clone,
    {
        self.kth(self.rank(key) + self.contains(key) as usize)
    }
}

/// An ordered key→value store driven by sorted operation batches: the
/// workspace's one backend interface ([`MapView`] plus mutation).  A set is
/// a `BatchedMap<K, ()>`.
///
/// Mutations arrive as sorted, deduplicated batches ([`KvBatch`] for
/// upserts — which for a set *is* a [`Batch`] — and [`Batch`] for removals)
/// and answer **per batch element, in batch order**.  Inserts follow the
/// last-wins upsert policy in the crate docs.
pub trait BatchedMap<K, V = ()>: MapView<K, V> {
    /// Upserts every pair: `result[i]` is `true` iff key `i` was **newly**
    /// inserted; `false` means it was present and now holds the batch's
    /// value.
    fn batch_insert(&mut self, batch: &KvBatch<K, V>) -> Vec<bool>;

    /// Removes every batch key: `result[i]` is `true` iff `batch[i]` was
    /// present (and its pair has now been removed).
    fn batch_remove(&mut self, batch: &Batch<K>) -> Vec<bool>;

    /// Upserts a single pair, returning `true` iff the key was newly
    /// inserted — the degenerate batch.  The default wraps the pair in a
    /// singleton [`KvBatch`]; a backend overrides to hand its batched
    /// update the caller's key and value without the two `Vec`s, not to
    /// run another algorithm.  This and [`BatchedMap::remove_one`] are what
    /// a concurrent front-end calls for every point write: `combine` commits
    /// each as a round of one (too few keys for a batch to pay), and only a
    /// whole caller-supplied batch reaches `batch_insert` / `batch_remove`.
    fn upsert_one(&mut self, key: &K, val: &V) -> bool
    where
        K: Ord + Clone,
        V: Clone,
    {
        let batch = KvBatch::from_unsorted_entries(vec![(key.clone(), val.clone())]);
        self.batch_insert(&batch)[0]
    }

    /// Removes a single key, returning `true` iff it was present.  See
    /// [`BatchedMap::upsert_one`].
    fn remove_one(&mut self, key: &K) -> bool
    where
        K: Ord + Clone,
    {
        self.batch_remove(&Batch::from_unsorted(vec![key.clone()]))[0]
    }
}

/// The set spelling of [`BatchedMap`]: implemented for every
/// `BatchedMap<K, ()>`, so `S: BatchedSet<K>` is the bound (and the import)
/// set-only code uses.  A set's batches are [`Batch`]es and its flags mean
/// what they always did, so every other operation is the `BatchedMap`
/// method itself; only the point insert, which has no value to pass, needs
/// a spelling of its own.
pub trait BatchedSet<K>: BatchedMap<K, ()> {
    /// Inserts a single key, returning `true` iff it was newly inserted.
    fn insert_one(&mut self, key: &K) -> bool
    where
        K: Ord + Clone,
    {
        self.upsert_one(key, &())
    }
}

impl<K, T: BatchedMap<K, ()> + ?Sized> BatchedSet<K> for T {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_unsorted_sorts_and_dedups() {
        let batch = Batch::from_unsorted(vec![3u64, 1, 4, 1, 5, 9, 2, 6, 5, 3]);
        assert_eq!(batch.as_slice(), &[1, 2, 3, 4, 5, 6, 9]);
        assert_eq!(batch.len(), 7);
        assert!(!batch.is_empty());
    }

    #[test]
    fn from_sorted_accepts_strictly_increasing() {
        let batch = Batch::from_sorted(vec![1u64, 2, 3]).unwrap();
        assert_eq!(batch.as_slice(), &[1, 2, 3]);
    }

    #[test]
    fn from_sorted_reports_first_violation() {
        assert_eq!(
            Batch::from_sorted(vec![1u64, 2, 2, 3]),
            Err(BatchError::Duplicate { index: 1 })
        );
        assert_eq!(
            Batch::from_sorted(vec![5u64, 4]),
            Err(BatchError::OutOfOrder { index: 0 })
        );
        // A mixed violation reports the *first* offending pair only.
        assert_eq!(
            Batch::from_sorted(vec![1u64, 3, 2, 2]),
            Err(BatchError::OutOfOrder { index: 1 })
        );
    }

    /// Regression test: the rendered message must name the offending index
    /// (and which way the invariant broke), not just carry it in the typed
    /// error — a failed ingest log line has the string, not the enum.
    #[test]
    fn from_sorted_error_message_names_the_offending_index() {
        let dup = Batch::from_sorted(vec![10u64, 20, 20]).unwrap_err();
        assert_eq!(dup, BatchError::Duplicate { index: 1 });
        let msg = dup.to_string();
        assert!(msg.contains("keys[1]"), "{msg}");
        assert!(msg.contains("duplicate key at index 1"), "{msg}");

        let ooo = Batch::from_sorted(vec![10u64, 20, 15]).unwrap_err();
        assert_eq!(ooo, BatchError::OutOfOrder { index: 1 });
        let msg = ooo.to_string();
        assert!(msg.contains("keys[1]"), "{msg}");
        assert!(msg.contains("out of order at index 1"), "{msg}");

        let deep = BatchError::Duplicate { index: 7 }.to_string();
        assert!(deep.contains("index 7"), "{deep}");
    }

    #[test]
    fn empty_batch_is_empty() {
        let batch: Batch<u64> = Batch::empty();
        assert!(batch.is_empty());
        assert_eq!(batch.len(), 0);
        assert_eq!(Batch::<u64>::default(), batch);
    }

    #[test]
    fn split_at_offsets_carves_contiguous_sub_batches() {
        let batch = Batch::from_unsorted(vec![1u64, 3, 5, 7, 9, 11]);
        let parts = batch.split_at_offsets(&[0, 2, 2, 5, 6]);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts[0].as_slice(), &[1, 3]);
        assert!(parts[1].is_empty());
        assert_eq!(parts[2].as_slice(), &[5, 7, 9]);
        assert_eq!(parts[3].as_slice(), &[11]);
        // Degenerate scans are fine: one segment, or an empty batch.
        assert_eq!(batch.split_at_offsets(&[0, 6])[0], batch);
        let empty: Batch<u64> = Batch::empty();
        assert!(empty.split_at_offsets(&[0, 0])[0].is_empty());
    }

    #[test]
    #[should_panic(expected = "offsets must end at the batch length")]
    fn split_at_offsets_rejects_short_scans() {
        Batch::from_unsorted(vec![1u64, 2, 3]).split_at_offsets(&[0, 2]);
    }

    #[test]
    #[should_panic(expected = "offsets must be non-decreasing")]
    fn split_at_offsets_rejects_decreasing_scans() {
        Batch::from_unsorted(vec![1u64, 2, 3]).split_at_offsets(&[0, 2, 1, 3]);
    }

    #[test]
    fn deref_exposes_slice_methods() {
        let batch = Batch::from_unsorted(vec![10u64, 20, 30]);
        assert_eq!(batch.iter().sum::<u64>(), 60);
        assert_eq!(batch.binary_search(&20), Ok(1));
    }

    #[test]
    fn kv_batch_from_unsorted_is_last_wins() {
        let batch = KvBatch::from_unsorted_entries(vec![
            (5u64, "a"),
            (1, "b"),
            (5, "c"),
            (5, "d"),
            (3, "e"),
        ]);
        assert_eq!(batch.keys(), &[1, 3, 5]);
        assert_eq!(batch.vals(), &["b", "e", "d"]);
        assert_eq!(batch.len(), 3);
        assert!(!batch.is_empty());
        assert_eq!(
            batch.entries().map(|(k, v)| (*k, *v)).collect::<Vec<_>>(),
            vec![(1, "b"), (3, "e"), (5, "d")]
        );
        assert_eq!(batch.binary_search(&3), Ok(1), "derefs to its keys");
        let (keys, vals) = batch.into_parts();
        assert_eq!(keys, vec![1, 3, 5]);
        assert_eq!(vals, vec!["b", "e", "d"]);
        // A key batch is the unit-valued instance, values and all.
        let unit = KvBatch::from_unsorted_entries(vec![(2u64, ()), (1, ()), (2, ())]);
        assert_eq!(unit, Batch::from_unsorted(vec![2u64, 1, 2]));
        assert_eq!(unit.vals().len(), 2);
    }

    #[test]
    fn kv_batch_from_sorted_validates_keys() {
        assert!(KvBatch::from_sorted_entries(vec![(1u64, 'x'), (2, 'y')]).is_ok());
        assert_eq!(
            KvBatch::from_sorted_entries(vec![(1u64, 'x'), (1, 'y')]),
            Err(BatchError::Duplicate { index: 0 })
        );
        assert_eq!(
            KvBatch::from_sorted_entries(vec![(2u64, 'x'), (1, 'y')]),
            Err(BatchError::OutOfOrder { index: 0 })
        );
        // The parts constructor is `into_parts` undone, with the same check.
        let batch = KvBatch::from_unsorted_entries(vec![(3u64, 'c'), (1, 'a')]);
        let (keys, vals) = batch.clone().into_parts();
        assert_eq!(KvBatch::from_sorted_parts(keys, vals), Ok(batch));
        assert_eq!(
            KvBatch::from_sorted_parts(vec![1u64, 3, 2], vec!['a', 'c', 'b']),
            Err(BatchError::OutOfOrder { index: 1 })
        );
    }

    #[test]
    #[should_panic(expected = "a value for every key")]
    fn kv_batch_from_sorted_parts_needs_a_value_for_every_key() {
        let _ = KvBatch::from_sorted_parts(vec![1u64, 2], vec!['a']);
    }

    #[test]
    fn bounds_to_rank_interval_covers_all_bound_shapes() {
        let keys = [10u64, 20, 30, 40];
        let interval = |lo, hi| {
            bounds_to_rank_interval(
                keys.len(),
                lo,
                hi,
                |k| keys.partition_point(|x| x < k),
                |k| keys.binary_search(k).is_ok(),
            )
        };
        assert_eq!(interval(Bound::Unbounded, Bound::Unbounded), (0, 4));
        assert_eq!(interval(Bound::Included(&20), Bound::Included(&30)), (1, 3));
        assert_eq!(interval(Bound::Excluded(&20), Bound::Excluded(&30)), (2, 2));
        assert_eq!(interval(Bound::Included(&15), Bound::Excluded(&35)), (1, 3));
        // Inverted bounds clamp to the empty interval instead of panicking.
        assert_eq!(interval(Bound::Included(&40), Bound::Excluded(&10)), (3, 3));
    }

    #[test]
    fn key_codec_round_trips_and_preserves_order() {
        fn check<K: KeyCodec + Ord + Copy + std::fmt::Debug>(samples: &[K]) {
            let mut encoded: Vec<(Vec<u8>, K)> = samples
                .iter()
                .map(|k| {
                    let mut buf = vec![0u8; K::WIDTH];
                    k.encode(&mut buf);
                    assert_eq!(K::decode(&buf), *k, "round trip of {k:?}");
                    (buf, *k)
                })
                .collect();
            // Bytewise order must agree with key order.
            encoded.sort();
            let mut keys: Vec<K> = encoded.into_iter().map(|(_, k)| k).collect();
            let mut sorted = keys.clone();
            sorted.sort();
            keys.dedup();
            sorted.dedup();
            assert_eq!(keys, sorted, "byte order disagrees with key order");
        }
        check::<u64>(&[0, 1, 42, u64::MAX / 2, u64::MAX]);
        check::<u32>(&[0, 7, u32::MAX]);
        check::<i64>(&[i64::MIN, -5, -1, 0, 1, 5, i64::MAX]);
        check::<i32>(&[i32::MIN, -1, 0, i32::MAX]);
        check::<u8>(&[0, 128, 255]);
        check::<u128>(&[0, u128::from(u64::MAX) + 1, u128::MAX]);
        check::<i128>(&[i128::MIN, -1, 0, i128::MAX]);
        check::<()>(&[()]);
        assert_eq!(<u64 as KeyCodec>::WIDTH, 8);
        assert_eq!(<i32 as KeyCodec>::WIDTH, 4);
        assert_eq!(<() as KeyCodec>::WIDTH, 0, "a set's value costs no bytes");
    }

    /// Minimal backend implementing only the *required* trait methods, so
    /// everything else exercised below is the traits' own defaults.  Used
    /// at `V = ()` (the set) and at a real value type.
    struct Toy<V>(Vec<(u64, V)>);

    impl<V> Toy<V> {
        fn find(&self, key: &u64) -> Result<usize, usize> {
            self.0.binary_search_by(|(k, _)| k.cmp(key))
        }
    }

    impl<V: Clone> MapView<u64, V> for Toy<V> {
        fn len(&self) -> usize {
            self.0.len()
        }
        fn get(&self, key: &u64) -> Option<V> {
            self.find(key).ok().map(|i| self.0[i].1.clone())
        }
        fn contains(&self, key: &u64) -> bool {
            self.find(key).is_ok()
        }
        fn rank(&self, key: &u64) -> usize {
            self.0.partition_point(|(k, _)| k < key)
        }
        fn min(&self) -> Option<&u64> {
            self.0.first().map(|(k, _)| k)
        }
        fn max(&self) -> Option<&u64> {
            self.0.last().map(|(k, _)| k)
        }
        fn collect_entries(&self) -> (Vec<u64>, Vec<V>) {
            self.0.iter().cloned().unzip()
        }
    }

    impl<V: Clone> BatchedMap<u64, V> for Toy<V> {
        fn batch_insert(&mut self, batch: &KvBatch<u64, V>) -> Vec<bool> {
            let upsert = |(k, v): (&u64, &V)| match self.find(k) {
                Ok(i) => {
                    self.0[i].1 = v.clone();
                    false
                }
                Err(i) => {
                    self.0.insert(i, (*k, v.clone()));
                    true
                }
            };
            batch.entries().map(upsert).collect()
        }
        fn batch_remove(&mut self, batch: &Batch<u64>) -> Vec<bool> {
            let remove = |k: &u64| {
                let found = self.find(k);
                if let Ok(i) = found {
                    self.0.remove(i);
                }
                found.is_ok()
            };
            batch.iter().map(remove).collect()
        }
    }

    fn toy_set(keys: &[u64]) -> Toy<()> {
        Toy(keys.iter().map(|&k| (k, ())).collect())
    }

    fn toy_keys(set: &Toy<()>) -> Vec<u64> {
        set.0.iter().map(|&(k, ())| k).collect()
    }

    #[test]
    fn collect_keys_returns_sorted_contents() {
        let set = toy_set(&[2, 4, 6]);
        let keys = set.collect_keys();
        assert_eq!(keys, vec![2, 4, 6]);
        assert!(Batch::from_sorted(keys).is_ok(), "collects a valid batch");
    }

    #[test]
    fn default_point_mutators_match_singleton_batches() {
        let mut set = toy_set(&[3, 5]);
        assert!(set.insert_one(&4));
        assert!(!set.insert_one(&4));
        assert!(set.remove_one(&3));
        assert!(!set.remove_one(&3));
        assert_eq!(toy_keys(&set), vec![4, 5]);
        let mut map = Toy(vec![(3u64, 'a')]);
        assert!(!map.upsert_one(&3, &'b'), "present: overwritten, not new");
        assert!(map.upsert_one(&4, &'c'));
        assert_eq!(map.0, vec![(3, 'b'), (4, 'c')]);
    }

    /// The ordered-query defaults, driven through `Toy` (which overrides
    /// none of them), against a `BTreeSet` oracle.
    #[test]
    fn default_ordered_queries_match_btreeset() {
        use std::collections::BTreeSet;
        use std::ops::Bound::*;
        let keys: Vec<u64> = (0..40).map(|i| i * 5).collect();
        let set = toy_set(&keys);
        let oracle: BTreeSet<u64> = keys.iter().copied().collect();

        for lo in [
            Unbounded,
            Included(&25u64),
            Excluded(&25u64),
            Included(&27u64),
        ] {
            for hi in [
                Unbounded,
                Included(&150u64),
                Excluded(&150u64),
                Excluded(&152u64),
            ] {
                let expect: Vec<u64> = oracle.range((lo, hi)).copied().collect();
                assert_eq!(set.range_keys(lo, hi), expect, "{lo:?}..{hi:?}");
                assert_eq!(set.range_count(lo, hi), expect.len(), "{lo:?}..{hi:?}");
            }
        }
        assert_eq!(set.kth(0), Some(0));
        assert_eq!(set.kth(39), Some(195));
        assert_eq!(set.kth(40), None);
        assert_eq!(set.predecessor(&0), None);
        assert_eq!(set.predecessor(&1), Some(0));
        assert_eq!(set.predecessor(&25), Some(20));
        assert_eq!(set.successor(&195), None);
        assert_eq!(set.successor(&194), Some(195));
        assert_eq!(set.successor(&25), Some(30));
    }

    #[test]
    fn map_upserts_and_answers_value_queries() {
        use std::ops::Bound::*;
        let mut map = Toy(Vec::new());
        let ins = map.batch_insert(&KvBatch::from_unsorted_entries(vec![
            (3u64, 'a'),
            (1, 'b'),
            (3, 'c'),
        ]));
        assert_eq!(ins, vec![true, true], "two distinct keys after dedup");
        assert_eq!(map.get(&3), Some('c'), "last-wins within the batch");
        // Upsert: present key keeps its slot, takes the new value, flags false.
        let ins = map.batch_insert(&KvBatch::from_unsorted_entries(vec![(3u64, 'z'), (9, 'q')]));
        assert_eq!(ins, vec![false, true]);
        assert_eq!(map.get(&3), Some('z'));
        assert_eq!(
            map.batch_get(&Batch::from_unsorted(vec![1, 2, 9])),
            vec![Some('b'), None, Some('q')]
        );
        assert_eq!(
            map.batch_contains(&Batch::from_unsorted(vec![1, 2, 9])),
            vec![true, false, true],
            "the default is a loop of point lookups"
        );
        assert_eq!(map.len(), 3);
        assert!(!map.is_empty());
        assert_eq!(
            map.range_entries(Included(&1), Excluded(&9)),
            vec![(1, 'b'), (3, 'z')]
        );
        assert_eq!(map.range_keys(Unbounded, Unbounded), vec![1, 3, 9]);
        assert_eq!(map.range_count(Excluded(&1), Unbounded), 2);
        assert_eq!(map.kth_entry(0), Some((1, 'b')));
        assert_eq!(map.kth_entry(3), None);
        assert_eq!(map.kth(2), Some(9));
        assert_eq!(map.predecessor(&3), Some(1));
        assert_eq!(map.predecessor(&1), None);
        assert_eq!(map.successor(&3), Some(9));
        assert_eq!(map.successor(&9), None);
        assert_eq!(map.get(&9), Some('q'));
        assert!(map.contains(&9) && !map.contains(&2));
        let gone = map.batch_remove(&Batch::from_unsorted(vec![1, 5]));
        assert_eq!(gone, vec![true, false]);
        assert_eq!(map.collect_entries(), (vec![3, 9], vec!['z', 'q']));
    }
}
