//! The paper's batched updates: insert and remove sorted batches in
//! parallel, rebuilding drifted subtrees.
//!
//! Both operations follow the same shape as the joint traversal
//! ([`crate::traverse`]): the batch is partitioned at each inner node and
//! the children recurse on their sub-batches in parallel.  At the leaves the
//! batch is merged in (insert) or filtered out (remove) with one sequential
//! pass, and on the way back up every inner node refreshes its metadata
//! (`len`, routers, `min`/`max`) from its children.  A subtree whose key
//! count has drifted outside `[built_len / 2, built_len * 2]` since it was
//! last built — or a leaf that outgrew [`LEAF_CAPACITY`] — is rebuilt from
//! its sorted keys, restoring the ideal `Θ(√n)` fanout; removals that empty
//! a subtree are pruned by the parent (single survivors are hoisted).
//!
//! Everything here is generic over the per-key value `V` ([`crate::IstMap`]
//! carries real values; the set instantiates `V = ()`, which the compiler
//! erases).  Inserts are upserts: a key already present keeps its slot and
//! takes the incoming value, reporting `false` ("not newly inserted").

use std::mem::MaybeUninit;
use std::sync::Arc;

use crate::metrics::{touch_leaf_edit, touch_node, touch_rebuild, MetricsRef};
use crate::node::{InnerNode, InterpolateKey, LeafNode, Node, LEAF_CAPACITY};
use crate::traverse::{partition_batch, SEQ_BATCH_LEN};
use crate::tree::{build, child_index};

/// A subtree is rebuilt when its size leaves
/// `[built_len / REBUILD_FACTOR, built_len * REBUILD_FACTOR]`.  Factor 2
/// amortises each rebuild against at least `built_len / 2` updates, while
/// keeping every node's fanout within a constant factor of `√len`.
const REBUILD_FACTOR: usize = 2;

/// Subtrees at or below this many keys are flattened sequentially by
/// [`collect_kv`]; above it, collection forks per child.
const SEQ_COLLECT_LEN: usize = 2048;

/// Batches at or below this length run as a loop of point operations
/// ([`insert_one`] / [`remove_one`]) instead of the batch recursion, whose
/// per-level scratch allocations dominate for a handful of keys.  Applying
/// a sorted, deduplicated batch key-by-key is observationally identical to
/// the batched run.
pub(crate) const POINT_BATCH_LEN: usize = 8;

/// One child's share of a batched insert: the subtree, its contiguous
/// key/value sub-batches, the matching output-flag slice, and the per-child
/// count the recursion reports back.
type InsertTask<'a, K, V> = (
    &'a mut Node<K, V>,
    &'a [K],
    &'a [V],
    &'a mut [MaybeUninit<bool>],
    usize,
);

/// One child's share of a batched removal (no values travel with it).
type RemoveTask<'a, K, V> = (
    &'a mut Node<K, V>,
    &'a [K],
    &'a mut [MaybeUninit<bool>],
    usize,
);

/// One child's share of a parallel flatten: the subtree and its slices of
/// the output key and value buffers.
type CollectTask<'a, K, V> = (
    &'a Node<K, V>,
    &'a mut [MaybeUninit<K>],
    &'a mut [MaybeUninit<V>],
);

/// Upserts the sorted `batch` (keys with index-parallel `vals`) into the
/// subtree at `node`, writing one "newly inserted?" flag per batch element
/// into `out` (batch order) and returning how many keys were actually
/// added.  Keys already present take the incoming value and flag `false`.
pub(crate) fn insert_into<K, V>(
    node: &mut Node<K, V>,
    batch: &[K],
    vals: &[V],
    out: &mut [MaybeUninit<bool>],
    m: MetricsRef<'_>,
) -> usize
where
    K: InterpolateKey + Clone + Send + Sync,
    V: Clone + Send + Sync,
{
    debug_assert_eq!(batch.len(), out.len());
    debug_assert_eq!(batch.len(), vals.len());
    debug_assert!(!batch.is_empty());
    touch_node(m);
    let added = match node {
        Node::Leaf(leaf) => {
            let added = insert_into_leaf(leaf, batch, vals, out);
            touch_leaf_edit(m, added > 0);
            added
        }
        Node::Inner(inner) => {
            let added = {
                let offsets = partition_batch(&inner.routers, batch);
                let mut tasks: Vec<InsertTask<'_, K, V>> = Vec::with_capacity(inner.children.len());
                let mut batch_rest = batch;
                let mut vals_rest = vals;
                let mut out_rest = out;
                for (child, window) in inner.children.iter_mut().zip(offsets.windows(2)) {
                    let seg_len = window[1] - window[0];
                    let (batch_seg, batch_tail) = batch_rest.split_at(seg_len);
                    let (vals_seg, vals_tail) = vals_rest.split_at(seg_len);
                    let (out_seg, out_tail) = out_rest.split_at_mut(seg_len);
                    batch_rest = batch_tail;
                    vals_rest = vals_tail;
                    out_rest = out_tail;
                    if seg_len > 0 {
                        // Copy-on-write: only children actually receiving
                        // updates are unshared from outstanding snapshots.
                        tasks.push((Arc::make_mut(child), batch_seg, vals_seg, out_seg, 0));
                    }
                }
                if batch.len() <= SEQ_BATCH_LEN {
                    for (child, batch_seg, vals_seg, out_seg, count) in tasks.iter_mut() {
                        *count = insert_into(child, batch_seg, vals_seg, out_seg, m);
                    }
                } else {
                    // Fork per child: each task is a whole sub-update (see
                    // the matching comment in `traverse`).
                    parprim::for_each_mut_with_grain(
                        &mut tasks,
                        1,
                        |(child, batch_seg, vals_seg, out_seg, count)| {
                            *count = insert_into(child, batch_seg, vals_seg, out_seg, m);
                        },
                    );
                }
                tasks.iter().map(|task| task.4).sum::<usize>()
            };
            inner.len += added;
            if added > 0 {
                refresh_metadata(inner);
            }
            added
        }
    };
    maybe_rebuild(node, m);
    added
}

/// Removes the sorted `batch` from the subtree at `node`, writing one "was
/// present?" flag per batch element into `out` (batch order) and returning
/// how many keys were actually removed.
///
/// May leave `node` as an **empty leaf** when the batch wipes the subtree
/// out; callers (the parent node, or `IstMap` at the root) prune it.
pub(crate) fn remove_from<K, V>(
    node: &mut Node<K, V>,
    batch: &[K],
    out: &mut [MaybeUninit<bool>],
    m: MetricsRef<'_>,
) -> usize
where
    K: InterpolateKey + Clone + Send + Sync,
    V: Clone + Send + Sync,
{
    debug_assert_eq!(batch.len(), out.len());
    debug_assert!(!batch.is_empty());
    touch_node(m);
    let removed = match node {
        Node::Leaf(leaf) => {
            let removed = remove_from_leaf(leaf, batch, out);
            touch_leaf_edit(m, removed > 0);
            removed
        }
        Node::Inner(inner) => {
            let removed =
                for_each_child_batch(inner, batch, out, |n, b, o| remove_from(n, b, o, m));
            inner.len -= removed;
            if removed > 0 {
                inner.children.retain(|c| !c.is_empty());
                if inner.children.len() >= 2 {
                    refresh_metadata(inner);
                }
            }
            removed
        }
    };
    // Prune inner nodes the retain above left degenerate: an emptied subtree
    // becomes an empty leaf (for the parent to drop in turn) and a single
    // surviving child is hoisted into its parent's slot.
    if let Node::Inner(inner) = node {
        if inner.children.len() < 2 {
            *node = match inner.children.pop() {
                Some(only) => Arc::unwrap_or_clone(only),
                None => Node::Leaf(LeafNode {
                    keys: Vec::new(),
                    vals: Vec::new(),
                }),
            };
        }
    }
    maybe_rebuild(node, m);
    removed
}

/// Upserts a single pair: interpolated descent, in-place leaf edit,
/// in-place metadata maintenance.  Returns `true` iff the key was newly
/// added (`false` = present; its value was overwritten).
///
/// This is the allocation-free fast path behind tiny batches — the shape
/// the flat-combining front-end produces under low contention, where the
/// batch recursion's per-level scratch (partition offsets, task lists,
/// refreshed router vectors) costs more than the whole operation.
///
/// Metadata stays exact without touching the router array: the descent
/// picks child `i` because `routers[i-1] <= key`, and `routers[i-1]` *is*
/// child `i`'s minimum, so a newly inserted key can never become the
/// minimum of any child except child 0 — whose minimum no router records.
pub(crate) fn insert_one<K, V>(node: &mut Node<K, V>, key: &K, val: &V, m: MetricsRef<'_>) -> bool
where
    K: InterpolateKey + Clone + Send + Sync,
    V: Clone + Send + Sync,
{
    touch_node(m);
    let added = match node {
        Node::Leaf(leaf) => match leaf.keys.binary_search(key) {
            Ok(pos) => {
                leaf.vals[pos] = val.clone();
                false
            }
            Err(pos) => {
                leaf.keys.insert(pos, key.clone());
                leaf.vals.insert(pos, val.clone());
                touch_leaf_edit(m, true);
                true
            }
        },
        Node::Inner(inner) => {
            let idx = child_index(inner, key);
            let added = insert_one(Arc::make_mut(&mut inner.children[idx]), key, val, m);
            if added {
                inner.len += 1;
                if *key < inner.min {
                    inner.min = key.clone();
                }
                if *key > inner.max {
                    inner.max = key.clone();
                }
            }
            added
        }
    };
    maybe_rebuild(node, m);
    added
}

/// Removes a single key: interpolated descent, in-place leaf edit, in-place
/// metadata maintenance (the counterpart of [`insert_one`]).  Returns
/// `true` iff the key was present.  May leave `node` as an **empty leaf**
/// when it held exactly this key; callers prune it (as with
/// [`remove_from`]).
pub(crate) fn remove_one<K, V>(node: &mut Node<K, V>, key: &K, m: MetricsRef<'_>) -> bool
where
    K: InterpolateKey + Clone + Send + Sync,
    V: Clone + Send + Sync,
{
    touch_node(m);
    let removed = match node {
        Node::Leaf(leaf) => match leaf.keys.binary_search(key) {
            Ok(pos) => {
                leaf.keys.remove(pos);
                leaf.vals.remove(pos);
                touch_leaf_edit(m, true);
                true
            }
            Err(_) => false,
        },
        Node::Inner(inner) => {
            let idx = child_index(inner, key);
            let removed = remove_one(Arc::make_mut(&mut inner.children[idx]), key, m);
            if removed {
                inner.len -= 1;
                if inner.children[idx].is_empty() {
                    // Drop the emptied child and the router that named it
                    // (child 0 is named by no router; dropping it promotes
                    // router 0's key to plain first-child minimum).
                    inner.children.remove(idx);
                    inner.routers.remove(idx.saturating_sub(1));
                } else {
                    // Removing a child's minimum shifts the router that
                    // records it; removing its maximum shifts nothing.
                    if idx > 0 {
                        let child_min = inner.children[idx].min_key();
                        if *child_min != inner.routers[idx - 1] {
                            inner.routers[idx - 1] = child_min.clone();
                        }
                    }
                }
                if !inner.children.is_empty() {
                    let first_min = inner.children[0].min_key();
                    if inner.min != *first_min {
                        inner.min = first_min.clone();
                    }
                    let last_max = inner.children[inner.children.len() - 1].max_key();
                    if inner.max != *last_max {
                        inner.max = last_max.clone();
                    }
                }
            }
            removed
        }
    };
    // Same degenerate-node pruning as the batch path: hoist a lone child,
    // collapse an emptied node into an empty leaf for the parent to drop.
    if let Node::Inner(inner) = node {
        if inner.children.len() < 2 {
            *node = match inner.children.pop() {
                Some(only) => Arc::unwrap_or_clone(only),
                None => Node::Leaf(LeafNode {
                    keys: Vec::new(),
                    vals: Vec::new(),
                }),
            };
        }
    }
    maybe_rebuild(node, m);
    removed
}

/// Flattens the subtree at `node` into parallel sorted key and value
/// vectors, forking per child for large subtrees — the shape [`build`]
/// consumes, so a drifted subtree rebuilds (and a store snapshots) without
/// pair-tupling the contents first.
pub(crate) fn collect_kv<K, V>(node: &Node<K, V>) -> (Vec<K>, Vec<V>)
where
    K: Clone + Send + Sync,
    V: Clone + Send + Sync,
{
    let n = node.len();
    let mut keys = Vec::with_capacity(n);
    let mut vals = Vec::with_capacity(n);
    collect_into(
        node,
        &mut keys.spare_capacity_mut()[..n],
        &mut vals.spare_capacity_mut()[..n],
    );
    // SAFETY: `collect_into` writes each of the first `n` slots of both
    // buffers exactly once (children cover disjoint ranges whose lengths
    // sum to `n`).
    unsafe {
        keys.set_len(n);
        vals.set_len(n);
    }
    (keys, vals)
}

fn collect_into<K, V>(
    node: &Node<K, V>,
    keys_out: &mut [MaybeUninit<K>],
    vals_out: &mut [MaybeUninit<V>],
) where
    K: Clone + Send + Sync,
    V: Clone + Send + Sync,
{
    debug_assert_eq!(node.len(), keys_out.len());
    debug_assert_eq!(node.len(), vals_out.len());
    match node {
        Node::Leaf(leaf) => {
            for ((key, val), (kslot, vslot)) in leaf
                .keys
                .iter()
                .zip(leaf.vals.iter())
                .zip(keys_out.iter_mut().zip(vals_out.iter_mut()))
            {
                kslot.write(key.clone());
                vslot.write(val.clone());
            }
        }
        Node::Inner(inner) => {
            let mut tasks: Vec<CollectTask<'_, K, V>> = Vec::with_capacity(inner.children.len());
            let mut keys_rest = keys_out;
            let mut vals_rest = vals_out;
            for child in &inner.children {
                let (kseg, ktail) = keys_rest.split_at_mut(child.len());
                let (vseg, vtail) = vals_rest.split_at_mut(child.len());
                keys_rest = ktail;
                vals_rest = vtail;
                tasks.push((child.as_ref(), kseg, vseg));
            }
            if inner.len <= SEQ_COLLECT_LEN {
                for (child, kseg, vseg) in tasks.iter_mut() {
                    collect_into(child, kseg, vseg);
                }
            } else {
                parprim::for_each_mut_with_grain(&mut tasks, 1, |(child, kseg, vseg)| {
                    collect_into(child, kseg, vseg);
                });
            }
        }
    }
}

/// Routes `batch` to `inner`'s children ([`partition_batch`]) and runs `op`
/// on every child that received a non-empty sub-batch — in parallel when the
/// batch is large enough — returning the sum of the per-child results.
fn for_each_child_batch<K, V, Op>(
    inner: &mut InnerNode<K, V>,
    batch: &[K],
    out: &mut [MaybeUninit<bool>],
    op: Op,
) -> usize
where
    K: InterpolateKey + Clone + Send + Sync,
    V: Clone + Send + Sync,
    Op: Fn(&mut Node<K, V>, &[K], &mut [MaybeUninit<bool>]) -> usize + Sync,
{
    let offsets = partition_batch(&inner.routers, batch);
    // Last tuple slot collects the per-child count, since `for_each_mut`
    // has no return channel.
    let mut tasks: Vec<RemoveTask<'_, K, V>> = Vec::with_capacity(inner.children.len());
    let mut batch_rest = batch;
    let mut out_rest = out;
    for (child, window) in inner.children.iter_mut().zip(offsets.windows(2)) {
        let seg_len = window[1] - window[0];
        let (batch_seg, batch_tail) = batch_rest.split_at(seg_len);
        let (out_seg, out_tail) = out_rest.split_at_mut(seg_len);
        batch_rest = batch_tail;
        out_rest = out_tail;
        if seg_len > 0 {
            // Copy-on-write: only children actually receiving updates are
            // unshared from outstanding snapshots.
            tasks.push((Arc::make_mut(child), batch_seg, out_seg, 0));
        }
    }
    if batch.len() <= SEQ_BATCH_LEN {
        for (child, batch_seg, out_seg, count) in tasks.iter_mut() {
            *count = op(child, batch_seg, out_seg);
        }
    } else {
        // Fork per child: each task is a whole sub-update (see the matching
        // comment in `traverse`).
        parprim::for_each_mut_with_grain(&mut tasks, 1, |(child, batch_seg, out_seg, count)| {
            *count = op(child, batch_seg, out_seg);
        });
    }
    tasks.iter().map(|task| task.3).sum()
}

/// Recomputes `min`, `max` and the routers of `inner` from its (non-empty,
/// at least two) children.  `len` is maintained incrementally by the caller.
fn refresh_metadata<K: Ord + Clone, V>(inner: &mut InnerNode<K, V>) {
    debug_assert!(inner.children.len() >= 2);
    inner.min = inner.children[0].min_key().clone();
    inner.max = inner.children[inner.children.len() - 1].max_key().clone();
    inner.routers = inner.children[1..]
        .iter()
        .map(|child| child.min_key().clone())
        .collect();
}

/// Rebuilds the subtree at `node` from its sorted keys when its size has
/// drifted past the rebuild threshold (or a leaf outgrew its capacity),
/// restoring the ideal `Θ(√n)`-fanout shape.
fn maybe_rebuild<K, V>(node: &mut Node<K, V>, m: MetricsRef<'_>)
where
    K: InterpolateKey + Clone + Send + Sync,
    V: Clone + Send + Sync,
{
    let drifted = match node {
        Node::Leaf(leaf) => leaf.keys.len() > LEAF_CAPACITY,
        Node::Inner(inner) => {
            inner.len > inner.built_len * REBUILD_FACTOR
                || inner.len * REBUILD_FACTOR < inner.built_len
        }
    };
    if drifted {
        touch_rebuild(m, node.len());
        let (keys, vals) = collect_kv(node);
        *node = build(&keys, &vals);
    }
}

/// Merges `batch` (keys with parallel `vals`) into one leaf's sorted run,
/// flagging which elements were new; returns the number added.  Present
/// keys take the incoming value (upsert).  The leaf may exceed
/// [`LEAF_CAPACITY`] afterwards — [`maybe_rebuild`] gives it inner
/// structure.
fn insert_into_leaf<K: Ord + Clone, V: Clone>(
    leaf: &mut LeafNode<K, V>,
    batch: &[K],
    vals: &[V],
    out: &mut [MaybeUninit<bool>],
) -> usize {
    let keys = &leaf.keys;
    let old_vals = &leaf.vals;
    let mut merged = Vec::with_capacity(keys.len() + batch.len());
    let mut merged_vals = Vec::with_capacity(keys.len() + batch.len());
    let mut i = 0;
    let mut added = 0;
    for ((q, v), slot) in batch.iter().zip(vals.iter()).zip(out.iter_mut()) {
        while i < keys.len() && keys[i] < *q {
            merged.push(keys[i].clone());
            merged_vals.push(old_vals[i].clone());
            i += 1;
        }
        if i < keys.len() && keys[i] == *q {
            // Present already: keep the stored key, take the batch's value
            // (upsert), report "not newly inserted".
            merged.push(keys[i].clone());
            merged_vals.push(v.clone());
            i += 1;
            slot.write(false);
        } else {
            merged.push(q.clone());
            merged_vals.push(v.clone());
            added += 1;
            slot.write(true);
        }
    }
    merged.extend_from_slice(&keys[i..]);
    merged_vals.extend_from_slice(&old_vals[i..]);
    leaf.keys = merged;
    leaf.vals = merged_vals;
    added
}

/// Filters `batch` out of one leaf's sorted run, flagging which elements
/// were present; returns the number removed.  May leave the leaf empty.
fn remove_from_leaf<K: Ord + Clone, V: Clone>(
    leaf: &mut LeafNode<K, V>,
    batch: &[K],
    out: &mut [MaybeUninit<bool>],
) -> usize {
    let keys = &leaf.keys;
    let old_vals = &leaf.vals;
    let mut kept = Vec::with_capacity(keys.len());
    let mut kept_vals = Vec::with_capacity(keys.len());
    let mut i = 0;
    let mut removed = 0;
    for (q, slot) in batch.iter().zip(out.iter_mut()) {
        while i < keys.len() && keys[i] < *q {
            kept.push(keys[i].clone());
            kept_vals.push(old_vals[i].clone());
            i += 1;
        }
        if i < keys.len() && keys[i] == *q {
            i += 1;
            removed += 1;
            slot.write(true);
        } else {
            slot.write(false);
        }
    }
    kept.extend_from_slice(&keys[i..]);
    kept_vals.extend_from_slice(&old_vals[i..]);
    leaf.keys = kept;
    leaf.vals = kept_vals;
    removed
}
