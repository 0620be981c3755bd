//! Parallel-batched interpolation search tree (the AksenovKM23 subject).
//!
//! An interpolation search tree (IST) stores keys drawn from a smooth
//! distribution and descends by *interpolating* — guessing a child index from
//! the key's position within the node's key range — rather than binary
//! searching, giving expected `O(log log n)` searches.  The paper batches
//! operations (search/insert/delete arrive as sorted batches) and processes
//! each batch in parallel across the tree: at every inner node the sorted
//! batch is walked as runs — one interpolated route and one gallop per
//! child it reaches — a large sub-batch is split in half at a child
//! boundary and the halves recursed on with `forkjoin::join`, and at each
//! leaf the run meets the leaf's sorted keys in one galloping merge.
//!
//! # Layout
//!
//! * [`node`] — the node representation and the key-interpolation trait
//!   ([`node::InterpolateKey`]).  Nodes are generic over a per-key value
//!   (`V = ()` for the set), so the set and the map are one structure.  A
//!   leaf is a sorted base shared with snapshots plus a small sorted delta
//!   of edits ([`node::LeafNode`]); every reader reads their merged view.
//! * [`children`] — [`children::Children`], an inner node's child array as
//!   a two-level copy-on-write vector, the counted copy-on-write helper,
//!   and the mutable windows of whole chunks the update walk splits between
//!   chunks to fork: what makes a path copy under a live snapshot cost
//!   `≈ 2·√f` refcounts per level instead of `f`.
//! * [`tree`] — [`tree::IstMap`]: bulk parallel construction, interpolated
//!   point lookups, and the [`batchapi::BatchedMap`] impl (last-wins
//!   batched upserts); [`tree::IstSet`] is its `V = ()` alias.  A published
//!   snapshot is a clone of the handle: one `Arc` on the root.
//! * `traverse` (internal) — the joint sorted-batch membership/lookup
//!   traversal: route the batch by runs at each inner node, gallop through
//!   each leaf, fork by splitting a large sub-batch in half.
//! * `update` (internal) — batched insert/remove, one recursion for every
//!   batch size (a point write is a batch of one): the lookups' run walk,
//!   forking only between chunks of a node's children and keeping each
//!   chunk's key count as it goes; a run that fits a leaf's delta writes
//!   only the delta (in place when the tree owns the leaf alone), a longer
//!   one folds base, delta and run into a new base by a galloping
//!   copy-merge; router/`min`/`max`/`len` updates propagated, and any
//!   subtree whose size drifts past the rebuild threshold rebuilt.
//! * `range` (internal) — ordered queries: the descend-once range carve
//!   (binary searches only in the two boundary leaves, interior subtrees
//!   concatenated wholesale) and the `k`-th-smallest selection descent.
//!
//! All batched operations take a [`batchapi::Batch`] — sorted and
//! deduplicated once at the boundary — and exploit a surrounding
//! [`forkjoin::Pool`] when one is installed.

#![warn(missing_docs)]

pub mod children;
mod metrics;
pub mod node;
mod range;
mod traverse;
pub mod tree;
mod update;

pub use metrics::IstMetricsSnapshot;
pub use node::InterpolateKey;
pub use tree::{IstMap, IstSet};
