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
//! * **Leaves** are plain arrays (≤ [`REBUILD_FACTOR`] ·
//!   [`LEAF_CAPACITY`] keys, no refcounts) and are not cloned: a write
//!   builds the leaf's new run once, straight from the shared one, into a
//!   new node, and a removal that finds none of its keys leaves the leaf
//!   shared.
//!
//! The chunking is physical only: the logical child array, the fanout
//! formula, the depth, and interpolation over one flat router array are
//! exactly those of a flat node.

use std::sync::Arc;

use crate::children::Children;

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

/// A subtree: either a sorted leaf array or an inner routing node.
///
/// The value parameter `V` defaults to `()` — the set case, where the
/// per-key value array is a zero-sized no-op the compiler erases.  The map
/// ([`crate::IstMap`]) instantiates the same structure with real values:
/// leaves carry one value per key (parallel arrays), inner nodes route
/// exactly as for the set.
#[derive(Debug, Clone)]
pub enum Node<K, V = ()> {
    /// A sorted, deduplicated run of keys (with their values).
    Leaf(LeafNode<K, V>),
    /// A routing node over `children.len()` subtrees.
    Inner(InnerNode<K, V>),
}

impl<K, V> Node<K, V> {
    /// Number of keys stored in this subtree.
    pub fn len(&self) -> usize {
        match self {
            Node::Leaf(leaf) => leaf.keys.len(),
            Node::Inner(inner) => inner.len,
        }
    }

    /// Returns `true` when the subtree holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Smallest key in this subtree.
    ///
    /// # Panics
    ///
    /// Panics on an empty leaf; empty subtrees exist only transiently inside
    /// a batched removal, before the parent prunes them.
    pub fn min_key(&self) -> &K {
        match self {
            Node::Leaf(leaf) => &leaf.keys[0],
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
            Node::Leaf(leaf) => &leaf.keys[leaf.keys.len() - 1],
            Node::Inner(inner) => &inner.max,
        }
    }
}

/// A leaf: a sorted, deduplicated array of keys, with a parallel array of
/// values (`vals[i]` belongs to `keys[i]`; a zero-sized `Vec<()>` for sets).
#[derive(Debug, Clone)]
pub struct LeafNode<K, V = ()> {
    /// The keys, strictly increasing.
    pub keys: Vec<K>,
    /// The values, index-parallel to `keys` (`vals.len() == keys.len()`).
    pub vals: Vec<V>,
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
    /// which unshares the chunk holding it.
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
