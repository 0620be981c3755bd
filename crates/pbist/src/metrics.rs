//! Algorithmic counters for the tree: how much structure an operation
//! touched, independent of wall-clock noise.
//!
//! On a small machine the paper's claims are easier to check through work
//! counts than timings: nodes touched per batch shows the joint traversal
//! sharing the upper levels, and rebuild counts/keys bound the amortised
//! restructuring cost.  Collection is off by default and enabled per set
//! via [`IstMap::with_metrics`](crate::IstMap::with_metrics); disabled, the
//! recursion carries a `None` and every site is one branch.

use std::sync::Arc;

use obs::Counter;

/// Live counters shared by every clone of one [`IstMap`](crate::IstMap)
/// (clones share the same `Arc`, so they report into one set of numbers —
/// use [`IstMetricsSnapshot::delta`] to isolate a window).
#[derive(Debug, Default)]
pub(crate) struct IstMetrics {
    /// Nodes (inner or leaf) entered by a traversal, update, or point
    /// descent.  The joint batch recursion counts each node once per
    /// operation, however many queries route through it.
    pub(crate) nodes_touched: Counter,
    /// Leaves whose key run actually changed (at least one key added or
    /// removed) — untouched and lookup-only leaves don't count.
    pub(crate) leaves_edited: Counter,
    /// Subtrees rebuilt because their size drifted past the rebuild
    /// threshold (for a leaf, twice its capacity).
    pub(crate) rebuilds: Counter,
    /// Total keys in those rebuilt subtrees — the actual restructuring
    /// work, since a rebuild is linear in the keys it flattens.
    pub(crate) rebuild_keys: Counter,
    /// Nodes copied because a snapshot (a clone of the tree) still shared
    /// them when an update reached them — the path-copy length.
    pub(crate) cow_nodes: Counter,
    /// `Arc` refcount increments those copies performed: one per chunk and
    /// one for the router array when an inner node is copied, one per child
    /// when a chunk is, one for the base when a leaf is.  Each is a write
    /// to another allocation's cache line (and a decrement later, when the
    /// snapshot retires), which is what makes a copy cost more than its
    /// bytes.
    pub(crate) cow_refs: Counter,
    /// Keys written into new leaf arrays: a delta copied with its edits
    /// (at most `DELTA_CAPACITY` entries), or a base folded from base and
    /// edits (the leaf's whole merged view).  In-place edits of a leaf's
    /// own delta write no new array and count nothing.
    pub(crate) cow_keys: Counter,
}

impl IstMetrics {
    pub(crate) fn snapshot(&self) -> IstMetricsSnapshot {
        IstMetricsSnapshot {
            nodes_touched: self.nodes_touched.get(),
            leaves_edited: self.leaves_edited.get(),
            rebuilds: self.rebuilds.get(),
            rebuild_keys: self.rebuild_keys.get(),
            cow_nodes: self.cow_nodes.get(),
            cow_refs: self.cow_refs.get(),
            cow_keys: self.cow_keys.get(),
        }
    }
}

/// A point-in-time copy of an [`IstMap`](crate::IstMap)'s work counters
/// ([`IstMap::metrics`](crate::IstMap::metrics)).  Counter semantics are
/// documented on the live struct's fields; all are monotone, so windows are
/// taken with [`IstMetricsSnapshot::delta`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IstMetricsSnapshot {
    /// Nodes entered by traversals, updates, and point descents.
    pub nodes_touched: u64,
    /// Leaves whose contents changed.
    pub leaves_edited: u64,
    /// Drift-triggered subtree rebuilds.
    pub rebuilds: u64,
    /// Total keys flattened and re-split by those rebuilds.
    pub rebuild_keys: u64,
    /// Nodes copied on write because a snapshot still shared them.
    pub cow_nodes: u64,
    /// Refcount increments performed by those copies (and by the chunk
    /// copies beside them).
    pub cow_refs: u64,
    /// Keys written into new leaf arrays by delta copies and folds.
    pub cow_keys: u64,
}

impl IstMetricsSnapshot {
    /// What happened since `earlier` was taken (saturating, so snapshots
    /// from unrelated sets fail soft rather than panicking).
    pub fn delta(&self, earlier: &IstMetricsSnapshot) -> IstMetricsSnapshot {
        IstMetricsSnapshot {
            nodes_touched: self.nodes_touched.saturating_sub(earlier.nodes_touched),
            leaves_edited: self.leaves_edited.saturating_sub(earlier.leaves_edited),
            rebuilds: self.rebuilds.saturating_sub(earlier.rebuilds),
            rebuild_keys: self.rebuild_keys.saturating_sub(earlier.rebuild_keys),
            cow_nodes: self.cow_nodes.saturating_sub(earlier.cow_nodes),
            cow_refs: self.cow_refs.saturating_sub(earlier.cow_refs),
            cow_keys: self.cow_keys.saturating_sub(earlier.cow_keys),
        }
    }
}

/// The handle the recursions carry: `None` when the set was built without
/// metrics, so the disabled path is a single branch per site.  A shared
/// reference because update recursion forks — counters are atomics.
pub(crate) type MetricsRef<'a> = Option<&'a IstMetrics>;

/// Resolves a set's guard + handle pair into the recursion argument.
#[inline]
pub(crate) fn metrics_ref(obs: obs::Obs, metrics: &Arc<IstMetrics>) -> MetricsRef<'_> {
    if obs.is_enabled() {
        Some(metrics)
    } else {
        None
    }
}

/// Counts one node entry.
#[inline]
pub(crate) fn touch_node(m: MetricsRef<'_>) {
    if let Some(m) = m {
        m.nodes_touched.inc();
    }
}

/// Counts one edited leaf, gated on whether the edit changed anything.
#[inline]
pub(crate) fn touch_leaf_edit(m: MetricsRef<'_>, changed: bool) {
    if let Some(m) = m {
        if changed {
            m.leaves_edited.inc();
        }
    }
}

/// Counts one subtree rebuild over `keys` keys.
#[inline]
pub(crate) fn touch_rebuild(m: MetricsRef<'_>, keys: usize) {
    if let Some(m) = m {
        m.rebuilds.inc();
        m.rebuild_keys.add(keys as u64);
    }
}

/// Counts a copy-on-write: `nodes` nodes copied, `refs` refcounts bumped.
#[inline]
pub(crate) fn touch_cow(m: MetricsRef<'_>, nodes: u64, refs: usize) {
    if let Some(m) = m {
        m.cow_nodes.add(nodes);
        m.cow_refs.add(refs as u64);
    }
}

/// Counts `keys` keys written into a new leaf array.
#[inline]
pub(crate) fn touch_cow_keys(m: MetricsRef<'_>, keys: usize) {
    if let Some(m) = m {
        m.cow_keys.add(keys as u64);
    }
}
