//! Ordered range and selection queries over the IST.
//!
//! A range query reuses the same observation the joint batched traversal is
//! built on: routers partition the key space, so a `(lo, hi)` bound pair
//! touches at most two *boundary* children per level.  [`range_for_each`]
//! descends once, binary-searches inside the (at most two) boundary leaves,
//! and emits every fully-covered subtree in between wholesale — no per-key
//! bound checks inside the interior.  Total cost is
//! `O(depth · log fanout + output)`.
//!
//! [`kth_entry`] is the selection descent: skip whole chunks of children by
//! their key counts, then subtract child sizes inside one chunk, until the
//! index lands in a leaf — `O(depth · √fanout)` reads.  The fanout is
//! bounded by [`crate::node::MAX_FANOUT`] above the bottom level and by
//! about [`crate::node::LEAF_CAPACITY`] at a node over leaves (1 000
//! children at 10⁶ keys: 32 chunks of 32).

use std::ops::Bound;

use crate::node::{merged_view, Node};

/// Returns `true` when `key` falls below the lower bound (outside the range).
pub(crate) fn below_lo<K: Ord>(key: &K, lo: Bound<&K>) -> bool {
    match lo {
        Bound::Unbounded => false,
        Bound::Included(b) => key < b,
        Bound::Excluded(b) => key <= b,
    }
}

/// Returns `true` when `key` falls above the upper bound (outside the range).
pub(crate) fn above_hi<K: Ord>(key: &K, hi: Bound<&K>) -> bool {
    match hi {
        Bound::Unbounded => false,
        Bound::Included(b) => key > b,
        Bound::Excluded(b) => key >= b,
    }
}

/// Calls `f` for every `(key, value)` pair inside the `(lo, hi)` bound pair,
/// in ascending key order.
///
/// Subtrees entirely inside the bounds are emitted without further
/// comparisons; subtrees entirely outside are skipped without being entered;
/// only the boundary path (at most two children per level) recurses with the
/// bounds still in hand.
pub(crate) fn range_for_each<'a, K, V, F>(
    node: &'a Node<K, V>,
    lo: Bound<&K>,
    hi: Bound<&K>,
    f: &mut F,
) where
    K: Ord,
    F: FnMut(&'a K, &'a V),
{
    if node.is_empty() {
        return;
    }
    if !below_lo(node.min_key(), lo) && !above_hi(node.max_key(), hi) {
        // Fully covered: concatenate the whole subtree.
        emit_all(node, f);
        return;
    }
    match node {
        Node::Leaf(leaf) => {
            // A boundary leaf: carve the covered run of the base and of the
            // delta with two binary searches each — an edit has its base
            // key's key, so both carves cut at one place — then emit their
            // merged view check-free.
            let (base, delta) = (carve(&leaf.base, lo, hi), carve(&leaf.delta, lo, hi));
            for (k, v) in merged_view(base, delta) {
                f(k, v);
            }
        }
        Node::Inner(inner) => {
            // First child that can hold an in-range key: the one `lo`'s key
            // itself would route to (earlier children end strictly below it).
            let start = match lo {
                Bound::Unbounded => 0,
                Bound::Included(b) | Bound::Excluded(b) => {
                    inner.routers.partition_point(|r| r <= b)
                }
            };
            for child in inner.children.iter().skip(start) {
                if above_hi(child.min_key(), hi) {
                    break;
                }
                if below_lo(child.max_key(), lo) {
                    continue;
                }
                range_for_each(child, lo, hi, f);
            }
        }
    }
}

/// The entries of `items` (keys strictly increasing) inside the bounds.
fn carve<'a, K: Ord, X>(items: &'a [(K, X)], lo: Bound<&K>, hi: Bound<&K>) -> &'a [(K, X)] {
    let start = items.partition_point(|(k, _)| below_lo(k, lo));
    let end = items.partition_point(|(k, _)| !above_hi(k, hi));
    &items[start..end.max(start)]
}

/// Emits every pair of `node` in ascending key order, no bound checks.
fn emit_all<'a, K, V, F>(node: &'a Node<K, V>, f: &mut F)
where
    K: Ord,
    F: FnMut(&'a K, &'a V),
{
    match node {
        Node::Leaf(leaf) => {
            for (k, v) in leaf.iter() {
                f(k, v);
            }
        }
        Node::Inner(inner) => {
            for child in inner.children.iter() {
                emit_all(child, f);
            }
        }
    }
}

/// The `k`-th smallest pair (0-indexed) of a non-empty subtree.
///
/// # Panics
///
/// Panics (index out of bounds) when `k >= node.len()`; callers check.
pub(crate) fn kth_entry<K: Ord, V>(root: &Node<K, V>, k: usize) -> (&K, &V) {
    debug_assert!(k < root.len());
    let mut node = root;
    let mut k = k;
    loop {
        match node {
            Node::Leaf(leaf) => return leaf.kth(k),
            Node::Inner(inner) => {
                let (idx, within) = inner.children.locate(k);
                node = inner.children.get(idx);
                k = within;
            }
        }
    }
}
