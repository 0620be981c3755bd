//! Node representation and the key-interpolation trait.
//!
//! An IST node's fanout grows with the size of its subtree (the paper uses
//! `Θ(√n)` children at the root of an `n`-key subtree; here capped at
//! [`MAX_FANOUT`] only where the children are inner nodes).  Each inner
//! node keeps the router keys separating its children plus the bounds of
//! its key range, which is what the interpolation step needs.
//!
//! # What a snapshot shares, and at which granularity
//!
//! A published read snapshot is a clone of the `IstMap` handle, and every
//! round of the concurrent front-end publishes one — so in service the root
//! is *always* shared, and every write copies the root-to-leaf path it
//! edits (`children::cow` copies a node only while a snapshot still
//! references it), leaving every outstanding snapshot untouched.
//! What that copy costs is set by how an inner node holds its two arrays:
//!
//! * **Children** are a [`Children`]: `≈ √f` chunks of `≈ √f` `Arc`'d
//!   subtrees each, every chunk behind its own `Arc`.  Copying the node
//!   bumps one refcount per chunk; reaching the child being edited copies
//!   one chunk (one refcount per child in it).  Per level that is `≈ 2·√f`
//!   increments — 32 at the 256-child cap, 64 at a 1 000-child node over
//!   leaves — where a flat `Vec` of `Arc`s paid `f`, each on a different
//!   cache line, and paid them again as decrements when the retired
//!   snapshot dropped.
//! * **Routers** are one `Arc<[K]>`: copying the node bumps one refcount
//!   and copies no keys.  The array itself is copied only when a router
//!   *changes* — never on insert (a key routed to child `i ≥ 1` is at or
//!   above that child's minimum, which is the router), on remove only when
//!   a child's minimum or a whole child goes.
//! * **Leaves** are a shared sorted base plus a small delta
//!   ([`LeafNode`]): the base is one `Arc<[(K, V)]>`, copying the leaf
//!   bumps its one refcount, and the delta holds at most
//!   [`DELTA_CAPACITY`] = `√`[`LEAF_CAPACITY`] = 32 edits — new keys,
//!   value overrides of base keys, tombstones of base keys.  A write under
//!   a snapshot copies the leaf node and its delta, never the ≈ 1 000-key
//!   base; only a run longer than the delta, or one that could push it
//!   past its capacity, folds base and edits into a new base.  A removal
//!   that finds none of its keys, and a set's upsert of keys already
//!   present, leave the leaf shared.
//!
//! The chunking is physical only: the logical child array, the fanout
//! formula, the depth, and interpolation over one flat router array are
//! exactly those of a flat node.

use std::sync::Arc;

use crate::children::Children;
use crate::traverse::gallop;

/// Maps a key to a position on the real line so a node can interpolate.
///
/// Interpolation search needs more than `Ord`: it must estimate *where*
/// between two keys a third one falls.  Implementations must be monotone
/// (`a <= b` implies `to_ordinal(a) <= to_ordinal(b)`); a poor (but still
/// monotone) mapping only costs performance, never correctness, because the
/// descent falls back to the routers' order.
pub trait InterpolateKey: Ord {
    /// The key's position on the real line.
    fn to_ordinal(&self) -> f64;
}

macro_rules! impl_interpolate_for_ints {
    ($($t:ty),*) => {
        $(impl InterpolateKey for $t {
            fn to_ordinal(&self) -> f64 {
                *self as f64
            }
        })*
    };
}

impl_interpolate_for_ints!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Keys per leaf when a subtree is built: a run of at most this many keys
/// is built as one leaf, and a node whose children are leaves takes the
/// full `⌊√n⌋` of them (about 1 000 leaves of about 1 000 keys each at
/// 10⁶ keys), uncapped by [`MAX_FANOUT`] — this constant already bounds its
/// router array.
///
/// Leaves are scanned with interpolation search over a contiguous array, so
/// they can be sizeable; this also keeps the tree shallow for the batch
/// recursion.  A leaf grows in place up to [`REBUILD_FACTOR`] times this
/// before it is rebuilt into inner structure — the same drift an inner
/// node is allowed — so a leaf built near capacity absorbs a batch without
/// splitting at once.
pub const LEAF_CAPACITY: usize = 1024;

/// Most edits a leaf's delta holds, `√`[`LEAF_CAPACITY`]: a write under a
/// snapshot copies at most this many entries, and a run that could push
/// the delta past it folds base and edits into a new base — so the base's
/// `O(L)` copy is paid at most once per `√L` edits to a leaf.  The
/// Bε-tree's buffer at a leaf (Brodal & Fagerberg, SODA 2003).
pub const DELTA_CAPACITY: usize = LEAF_CAPACITY.isqrt();

/// Maximum children of an inner node whose children are themselves inner
/// nodes.  The ideal IST fanout is `Θ(√n)` — the cap only bounds
/// worst-case router-array sizes (and with it the cost of the corrective
/// binary search when an interpolation guess misses) above the bottom
/// level, where `√n` would exceed [`LEAF_CAPACITY`]: from about 1.05·10⁶
/// keys up the root takes 256 children.  A node over leaves is not capped;
/// there the cap would only make the leaves smaller and more numerous.
pub const MAX_FANOUT: usize = 256;

/// A subtree is rebuilt when its size leaves
/// `[built_len / REBUILD_FACTOR, built_len * REBUILD_FACTOR]`, and a leaf
/// when it passes `REBUILD_FACTOR * LEAF_CAPACITY` keys.  Factor 2
/// amortises each rebuild against at least `built_len / 2` updates, while
/// keeping every node's fanout within a constant factor of `√len`.
pub const REBUILD_FACTOR: usize = 2;

/// A subtree: either a leaf or an inner routing node.
///
/// The value parameter `V` defaults to `()` — the set case, where a leaf's
/// `(K, ())` pairs are laid out as bare keys.  The map ([`crate::IstMap`])
/// instantiates the same structure with real values: leaves carry each
/// key's value beside it, inner nodes route exactly as for the set.
#[derive(Debug, Clone)]
pub enum Node<K, V = ()> {
    /// A sorted, deduplicated run of keys (with their values), as a
    /// shared base and a delta.
    Leaf(LeafNode<K, V>),
    /// A routing node over `children.len()` subtrees.
    Inner(InnerNode<K, V>),
}

impl<K, V> Node<K, V> {
    /// Number of keys stored in this subtree.
    pub fn len(&self) -> usize {
        match self {
            Node::Leaf(leaf) => leaf.len,
            Node::Inner(inner) => inner.len,
        }
    }

    /// Returns `true` when the subtree holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K: Ord, V> Node<K, V> {
    /// Smallest key in this subtree.
    ///
    /// # Panics
    ///
    /// Panics on an empty leaf; empty subtrees exist only transiently inside
    /// a batched removal, before the parent prunes them.
    pub fn min_key(&self) -> &K {
        match self {
            Node::Leaf(leaf) => leaf.first(),
            Node::Inner(inner) => &inner.min,
        }
    }

    /// Largest key in this subtree.
    ///
    /// # Panics
    ///
    /// Panics on an empty leaf (see [`Node::min_key`]).
    pub fn max_key(&self) -> &K {
        match self {
            Node::Leaf(leaf) => leaf.last(),
            Node::Inner(inner) => &inner.max,
        }
    }
}

/// A leaf's base: its pairs, in one allocation shared by every copy of the
/// leaf.
pub(crate) type Base<K, V> = Arc<[(K, V)]>;

/// A leaf: a sorted base shared with snapshots, and a sorted delta of
/// edits over it that belongs to this node alone.
///
/// The leaf's contents — its *merged view* — are the base with the delta
/// applied: every reader (point and batched lookups, `rank`, `kth`, range
/// carving, flattening, `min`/`max`) reads that view.  An empty delta
/// allocates nothing, so a leaf as `build` makes it is one node over one
/// base allocation, the depth of dependent loads a flat array has.
#[derive(Debug, Clone)]
pub struct LeafNode<K, V = ()> {
    /// The base pairs, keys strictly increasing: one allocation, shared by
    /// every copy of the leaf until a fold replaces it.
    pub(crate) base: Base<K, V>,
    /// Edits over the base, keys strictly increasing, at most
    /// [`DELTA_CAPACITY`]: an [`Edit::New`] only at a key the base lacks,
    /// an [`Edit::Override`] or [`Edit::Tombstone`] only at a base key.
    pub(crate) delta: Vec<(K, Edit<V>)>,
    /// Keys in the merged view: the base's, plus new keys, less tombstones.
    pub(crate) len: usize,
}

/// One delta entry's edit of its key.
#[derive(Debug, Clone, Copy)]
pub enum Edit<V> {
    /// A key the base lacks, with its value.
    New(V),
    /// A base key's new value.
    Override(V),
    /// A base key removed.
    Tombstone,
}

impl<V> Edit<V> {
    /// The edit with its value borrowed.
    pub(crate) fn as_ref(&self) -> Edit<&V> {
        match self {
            Edit::New(v) => Edit::New(v),
            Edit::Override(v) => Edit::Override(v),
            Edit::Tombstone => Edit::Tombstone,
        }
    }

    /// The key's value in the merged view: `None` for a tombstone.
    pub(crate) fn value(&self) -> Option<&V> {
        match self {
            Edit::New(v) | Edit::Override(v) => Some(v),
            Edit::Tombstone => None,
        }
    }
}

impl<V: Clone> Edit<&V> {
    /// The edit with its value cloned.
    pub(crate) fn cloned(self) -> Edit<V> {
        match self {
            Edit::New(v) => Edit::New(v.clone()),
            Edit::Override(v) => Edit::Override(v.clone()),
            Edit::Tombstone => Edit::Tombstone,
        }
    }
}

impl<K, V> LeafNode<K, V> {
    /// A leaf over `base` (keys strictly increasing), with no edits.
    pub(crate) fn from_base(base: Base<K, V>) -> LeafNode<K, V> {
        LeafNode {
            len: base.len(),
            base,
            delta: Vec::new(),
        }
    }
}

impl<K: Ord, V> LeafNode<K, V> {
    /// The merged view's pairs in key order.
    pub(crate) fn iter(&self) -> Merged<'_, K, V, impl Iterator<Item = (&K, Edit<&V>)>> {
        merged_view(&self.base, &self.delta)
    }

    /// The merged view's smallest key: `O(1)` past the tombstones at the
    /// front of the base.
    ///
    /// # Panics
    ///
    /// Panics on an empty leaf.
    pub(crate) fn first(&self) -> &K {
        // Every base key below the edit at hand is tombstoned and passed.
        let mut at = 0;
        for (key, edit) in &self.delta {
            match self.base.get(at) {
                Some((b, _)) if b < key => return b,
                _ if matches!(edit, Edit::Tombstone) => at += 1,
                _ => return key,
            }
        }
        &self.base[at].0
    }

    /// The merged view's largest key, [`LeafNode::first`] from the back.
    ///
    /// # Panics
    ///
    /// Panics on an empty leaf.
    pub(crate) fn last(&self) -> &K {
        let mut end = self.base.len();
        for (key, edit) in self.delta.iter().rev() {
            match end.checked_sub(1).map(|i| &self.base[i].0) {
                Some(b) if b > key => return b,
                _ if matches!(edit, Edit::Tombstone) => end -= 1,
                _ => return key,
            }
        }
        &self.base[end - 1].0
    }

    /// The merged view's `k`-th pair (0-indexed): the base index shifted
    /// by the edits below it, `O(|delta| · log L)`.
    ///
    /// # Panics
    ///
    /// Panics when `k >= self.len`.
    pub(crate) fn kth(&self, mut k: usize) -> (&K, &V) {
        // `k` counts from `base[at]` on, in merged order.
        let mut at = 0;
        for (key, edit) in &self.delta {
            let gap = self.base[at..].partition_point(|(b, _)| b < key);
            if k < gap {
                break;
            }
            (k, at) = (k - gap, at + gap);
            if let Some(v) = edit.value() {
                if k == 0 {
                    return (key, v);
                }
                k -= 1;
            }
            at += !matches!(edit, Edit::New(_)) as usize;
        }
        let (key, v) = &self.base[at + k];
        (key, v)
    }

    /// How many keys of the merged view lie below `key`, given how many of
    /// the base's do.
    pub(crate) fn rank(&self, base_rank: usize, key: &K) -> usize {
        let below = self.delta.iter().take_while(|(k, _)| k < key);
        below.fold(base_rank, |rank, (_, edit)| match edit {
            Edit::New(_) => rank + 1,
            Edit::Override(_) => rank,
            Edit::Tombstone => rank - 1,
        })
    }
}

/// The merged view of a base and a sorted stream of edits over it (keys
/// strictly increasing; an override or tombstone only at a base key, a new
/// key only at a key the base lacks), pair by pair in key order.  Each edit
/// gallops the base to its key from the previous edit's, and the base pairs
/// between two edits come off a slice iterator: `O(log gap)` comparisons
/// per edit and none per base pair — the one walk behind a leaf's
/// flattening, its range carve, and the fold of its edits into a new base.
/// A bulk copy takes each stretch of base pairs whole
/// ([`Merged::take_run`]) between the edited pairs `next` yields.
pub(crate) struct Merged<'a, K, V, I: Iterator> {
    /// The base pairs before the next edit.
    run: std::slice::Iter<'a, (K, V)>,
    /// The base pairs from the next edit's key on.
    rest: &'a [(K, V)],
    /// The edits not yet applied.
    edits: std::iter::Peekable<I>,
}

/// The merged view of a stretch of base under a stretch of delta that
/// holds exactly the edits of the base's keys' range.
pub(crate) fn merged_view<'a, K: Ord, V>(
    base: &'a [(K, V)],
    delta: &'a [(K, Edit<V>)],
) -> Merged<'a, K, V, impl Iterator<Item = (&'a K, Edit<&'a V>)>> {
    Merged::new(base, delta.iter().map(|(k, e)| (k, e.as_ref())))
}

impl<'a, K: Ord, V, I: Iterator<Item = (&'a K, Edit<&'a V>)>> Merged<'a, K, V, I> {
    /// The merged view of `base` under `edits`.
    pub(crate) fn new(base: &'a [(K, V)], edits: I) -> Merged<'a, K, V, I> {
        let mut merged = Merged {
            run: [].iter(),
            rest: base,
            edits: edits.peekable(),
        };
        merged.next_run();
        merged
    }

    /// The base pairs the walk would yield before the next edit, taken
    /// whole.
    pub(crate) fn take_run(&mut self) -> &'a [(K, V)] {
        std::mem::take(&mut self.run).as_slice()
    }

    /// Moves the base pairs below the next edit's key into `run`.
    fn next_run(&mut self) {
        let end = match self.edits.peek() {
            Some((key, _)) => gallop(self.rest, |(k, _)| k < *key),
            None => self.rest.len(),
        };
        let (run, rest) = self.rest.split_at(end);
        (self.run, self.rest) = (run.iter(), rest);
    }
}

impl<'a, K: Ord, V, I: Iterator<Item = (&'a K, Edit<&'a V>)>> Iterator for Merged<'a, K, V, I> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<(&'a K, &'a V)> {
        loop {
            if let Some((k, v)) = self.run.next() {
                return Some((k, v));
            }
            let (key, edit) = self.edits.next()?;
            if !matches!(edit, Edit::New(_)) {
                // An override or tombstone stands in for the base's pair.
                self.rest = &self.rest[1..];
            }
            self.next_run();
            if let Some(v) = edit.value() {
                return Some((key, v));
            }
        }
    }
}

/// An inner node routing to `children.len()` subtrees.
///
/// `routers[i]` is the smallest key of child `i + 1`; a search for `key`
/// descends into child `partition_point(routers, r <= key)`.  The
/// interpolation step uses `min`/`max` (the smallest and largest key in this
/// subtree) to guess that index before touching the routers.
///
/// Cloning one — which is what a write under a live snapshot does to every
/// inner node on its path — costs one refcount for the routers and one per
/// child *chunk*, not one per child (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct InnerNode<K, V = ()> {
    /// Separator keys, strictly increasing; `len == children.len() - 1`.
    /// One flat array (interpolation and the corrective binary search index
    /// it directly), shared whole with snapshots and replaced — never
    /// edited in place while shared — only when a router changes.
    pub routers: Arc<[K]>,
    /// The subtrees, each non-empty, shared with snapshots chunk by chunk;
    /// the update path reaches a child's slot through a `Children::window`,
    /// which unshares the chunk holding it and lends that chunk's key
    /// count, and forks only between chunks.
    pub children: Children<K, V>,
    /// Total number of keys under this node.
    pub len: usize,
    /// Number of keys under this node when its subtree was last (re)built.
    /// The update path compares `len` against this to decide when the
    /// subtree's size has drifted far enough from its ideal `Θ(√n)`-fanout
    /// shape to warrant a rebuild.
    pub built_len: usize,
    /// Smallest key in this subtree (interpolation lower bound).
    pub min: K,
    /// Largest key in this subtree (interpolation upper bound).
    pub max: K,
}

/// Guesses which of `len` evenly-spread slots `key` falls into, given the
/// bounds of the range.  Returns a slot in `[0, len)`.
///
/// This is the single arithmetic step that gives interpolation search its
/// `O(log log n)` behaviour on smooth key distributions; callers must treat
/// it as a *hint* and correct with the actual routers or keys.
pub fn interpolate_slot<K: InterpolateKey>(key: &K, min: &K, max: &K, len: usize) -> usize {
    debug_assert!(len > 0);
    let lo = min.to_ordinal();
    let hi = max.to_ordinal();
    let k = key.to_ordinal();
    // `partial_cmp` spells out the NaN case: a degenerate or non-finite
    // range yields slot 0 and the caller's fallback search takes over.
    let range_is_increasing = matches!(hi.partial_cmp(&lo), Some(std::cmp::Ordering::Greater));
    if !range_is_increasing || !k.is_finite() {
        return 0;
    }
    let frac = ((k - lo) / (hi - lo)).clamp(0.0, 1.0);
    ((frac * len as f64) as usize).min(len - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolate_slot_is_monotone_and_bounded() {
        let (min, max) = (0u64, 1000u64);
        let mut prev = 0usize;
        for key in 0..=1000u64 {
            let slot = interpolate_slot(&key, &min, &max, 10);
            assert!(slot < 10);
            assert!(slot >= prev);
            prev = slot;
        }
        assert_eq!(interpolate_slot(&0u64, &min, &max, 10), 0);
        assert_eq!(interpolate_slot(&1000u64, &min, &max, 10), 9);
    }

    #[test]
    fn interpolate_slot_handles_degenerate_range() {
        assert_eq!(interpolate_slot(&5u64, &5u64, &5u64, 4), 0);
    }

    #[test]
    fn interpolate_slot_clamps_out_of_range_keys() {
        assert_eq!(interpolate_slot(&0u64, &100u64, &200u64, 8), 0);
        assert_eq!(interpolate_slot(&999u64, &100u64, &200u64, 8), 7);
    }
}
