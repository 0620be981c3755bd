//! The paper's batched updates: insert and remove sorted batches in
//! parallel, rebuilding drifted subtrees.
//!
//! One recursion per operation serves every batch size, a point write
//! included — it is a batch of one ([`crate::IstMap`] hands the recursion
//! one-element slices).  Both operations split the batch at every router of
//! each inner node ([`partition_batch`]) and the children recurse on their
//! sub-batches, in parallel from [`SEQ_BATCH_LEN`] keys (the lookup
//! traversal in [`crate::traverse`] walks runs instead).  At the
//! leaves the batch is merged in (insert) or filtered out (remove) with one
//! sequential pass, and on the way back up every inner node brings its
//! metadata up to date: `len` and `min`/`max` always, the router array —
//! which snapshots share whole — only when a removal took a child or a
//! child's minimum (an insert can move no router).  A subtree whose key
//! count has drifted outside `[built_len / 2, built_len * 2]` since it was
//! last built — or a leaf that outgrew [`LEAF_CAPACITY`] — is rebuilt from
//! its sorted keys, restoring the ideal `Θ(√n)` fanout; removals that empty
//! a subtree are pruned by the parent (single survivors are hoisted).
//!
//! A *sub*-batch of one key — every level of a point write, and most levels
//! below the root for a handful of keys — skips the general step's scratch
//! at the two places where it would cost more than the step: routing
//! (`for_each_child_batch` interpolates the one child instead of
//! partitioning the batch and sweeping the child array) and the leaf
//! (`insert_into_leaf` / `remove_from_leaf` edit the run in place instead of
//! merging it into a fresh one).  The bookkeeping, the router repair,
//! pruning and the rebuild rule are the same code for one key or 16 384.
//!
//! Everything here is generic over the per-key value `V` ([`crate::IstMap`]
//! carries real values; the set instantiates `V = ()`, which the compiler
//! erases).  Inserts are upserts: a key already present keeps its slot and
//! takes the incoming value, reporting `false` ("not newly inserted").

use std::mem::MaybeUninit;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::children::cow;
use crate::metrics::{touch_leaf_edit, touch_node, touch_rebuild, MetricsRef};
use crate::node::{InnerNode, InterpolateKey, LeafNode, Node, LEAF_CAPACITY};
use crate::traverse::SEQ_BATCH_LEN;
use crate::tree::{build, child_index};

/// A subtree is rebuilt when its size leaves
/// `[built_len / REBUILD_FACTOR, built_len * REBUILD_FACTOR]`.  Factor 2
/// amortises each rebuild against at least `built_len / 2` updates, while
/// keeping every node's fanout within a constant factor of `√len`.
const REBUILD_FACTOR: usize = 2;

/// Subtrees at or below this many keys are flattened sequentially by
/// [`collect_kv`]; above it, collection forks per child.
const SEQ_COLLECT_LEN: usize = 2048;

/// One child's share of a batched update: the router recording its minimum
/// (none for the first child), the subtree (already unshared), the range of
/// the node's batch routed to it, the matching output-flag slice, and the
/// per-child count the recursion reports back.
type ChildTask<'a, K, V> = (
    Option<&'a K>,
    &'a mut Node<K, V>,
    Range<usize>,
    &'a mut [bool],
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
    out: &mut [bool],
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
            let added = for_each_child_batch(inner, batch, out, m, |_, child, seg, out_seg| {
                insert_into(child, &batch[seg.clone()], &vals[seg], out_seg, m)
            });
            inner.len += added;
            // Routers cannot move: a key routed to child `i >= 1` is at or
            // above `routers[i - 1]`, that child's minimum.  Only the node's
            // own bounds can, and only to the batch's ends.
            if batch[0] < inner.min {
                inner.min = batch[0].clone();
            }
            if batch[batch.len() - 1] > inner.max {
                inner.max = batch[batch.len() - 1].clone();
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
    out: &mut [bool],
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
            // Only a child the batch reached can have emptied or lost its
            // minimum, so staleness is decided there, on lines the removal
            // just touched, instead of by a scan of every child.  `Relaxed`:
            // read after the (possibly forked) loop has joined.
            let stale = AtomicBool::new(false);
            let removed =
                for_each_child_batch(inner, batch, out, m, |router, child, seg, out_seg| {
                    let removed = remove_from(child, &batch[seg], out_seg, m);
                    if removed > 0
                        && (child.is_empty() || router.is_some_and(|min| min != child.min_key()))
                    {
                        stale.store(true, Ordering::Relaxed);
                    }
                    removed
                });
            inner.len -= removed;
            if removed > 0 {
                refresh_after_removal(inner, stale.into_inner(), m);
            }
            removed
        }
    };
    prune(node, m);
    maybe_rebuild(node, m);
    removed
}

/// Prunes an inner node a removal left degenerate: an emptied subtree
/// becomes an empty leaf (for the parent to drop in turn) and a single
/// surviving child is hoisted into its parent's slot.
fn prune<K: Clone, V: Clone>(node: &mut Node<K, V>, m: MetricsRef<'_>) {
    if let Node::Inner(inner) = node {
        if inner.children.len() < 2 {
            *node = match inner.children.take_only() {
                Some(mut only) => {
                    // Unshare first so a shared survivor's copy is counted;
                    // the unwrap then moves.
                    cow(&mut only, m);
                    Arc::unwrap_or_clone(only)
                }
                None => Node::Leaf(LeafNode {
                    keys: Vec::new(),
                    vals: Vec::new(),
                }),
            };
        }
    }
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
            inner.children.iter().for_each(|child| {
                let (kseg, ktail) = std::mem::take(&mut keys_rest).split_at_mut(child.len());
                let (vseg, vtail) = std::mem::take(&mut vals_rest).split_at_mut(child.len());
                keys_rest = ktail;
                vals_rest = vtail;
                tasks.push((child, kseg, vseg));
            });
            if inner.len <= SEQ_COLLECT_LEN {
                for (child, kseg, vseg) in tasks.iter_mut() {
                    collect_into(child, kseg, vseg);
                }
            } else {
                parprim::for_each_task(&mut tasks, |(child, kseg, vseg)| {
                    collect_into(child, kseg, vseg);
                });
            }
        }
    }
}

/// Splits a sorted `batch` at every router: the keys destined for child
/// `i` are `batch[offsets[i]..offsets[i + 1]]`, where `offsets` is the
/// returned vector of length `routers.len() + 2`.
///
/// Each router is located by a binary search in the still-unassigned tail,
/// so one partition costs `O(fanout · log |batch|)`.  The offsets are
/// exactly the exclusive scan of the per-child key counts.
fn partition_batch<K: Ord>(routers: &[K], batch: &[K]) -> Vec<usize> {
    let mut offsets = Vec::with_capacity(routers.len() + 2);
    offsets.push(0);
    let mut assigned = 0;
    for router in routers {
        assigned += batch[assigned..].partition_point(|q| q < router);
        offsets.push(assigned);
    }
    offsets.push(batch.len());
    offsets
}

/// Routes `batch` to `inner`'s children and runs `op` on every child that
/// received a non-empty sub-batch — in parallel when the batch is large
/// enough — returning the sum of the per-child results.  `op` gets the
/// router recording the child's minimum (`None` for the first child), the
/// child, its range of `batch`, and the matching slice of `out`.
///
/// A sub-batch of one key is routed by the interpolated [`child_index`] and
/// unshares just its child — no offsets, no task list, no sweep over the
/// child array; anything longer is split by [`partition_batch`].
fn for_each_child_batch<K, V, Op>(
    inner: &mut InnerNode<K, V>,
    batch: &[K],
    out: &mut [bool],
    m: MetricsRef<'_>,
    op: Op,
) -> usize
where
    K: InterpolateKey + Clone + Send + Sync,
    V: Clone + Send + Sync,
    Op: Fn(Option<&K>, &mut Node<K, V>, Range<usize>, &mut [bool]) -> usize + Sync,
{
    let (routers, children) = (&*inner.routers, &mut inner.children);
    let router_of = |idx: usize| idx.checked_sub(1).map(|at| &routers[at]);
    if let [key] = batch {
        let idx = child_index(routers, &inner.min, &inner.max, key);
        return op(router_of(idx), children.get_mut(idx, m), 0..1, out);
    }
    let offsets = partition_batch(routers, batch);
    // Last tuple slot collects the per-child count, since `for_each_task`
    // has no return channel.
    let mut tasks: Vec<ChildTask<'_, K, V>> = Vec::with_capacity(children.len());
    let mut out_rest = out;
    // Copy-on-write: only children actually receiving updates — and only
    // the chunks holding them — are unshared from outstanding snapshots.
    let receives = |idx: usize| offsets[idx] < offsets[idx + 1];
    children.for_each_touched(receives, m, |idx, child| {
        let seg = offsets[idx]..offsets[idx + 1];
        let (out_seg, out_tail) = std::mem::take(&mut out_rest).split_at_mut(seg.len());
        out_rest = out_tail;
        tasks.push((router_of(idx), child, seg, out_seg, 0));
    });
    if batch.len() < SEQ_BATCH_LEN {
        for (router, child, seg, out_seg, count) in tasks.iter_mut() {
            *count = op(*router, child, seg.clone(), out_seg);
        }
    } else {
        parprim::for_each_task(&mut tasks, |(router, child, seg, out_seg, count)| {
            *count = op(*router, child, seg.clone(), out_seg);
        });
    }
    tasks.iter().map(|task| task.4).sum()
}

/// Restores `inner`'s children, bounds and routers after a batched removal
/// (`len` is maintained by the caller).  `stale` says a child emptied or
/// lost its minimum: only then are emptied children dropped (which
/// re-chunks) and the router array — shared whole with snapshots —
/// replaced.  May leave fewer than two children for [`prune`].
fn refresh_after_removal<K: Ord + Clone, V: Clone>(
    inner: &mut InnerNode<K, V>,
    stale: bool,
    m: MetricsRef<'_>,
) {
    if stale {
        inner.children.retain(|child| !child.is_empty(), m);
    }
    let children = &inner.children;
    if children.len() < 2 {
        return;
    }
    inner.min = children.get(0).min_key().clone();
    inner.max = children.get(children.len() - 1).max_key().clone();
    if stale {
        let mut minima = Vec::with_capacity(children.len() - 1);
        (children.iter().skip(1)).for_each(|child| minima.push(child.min_key().clone()));
        inner.routers = minima.into();
    }
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
/// A single key is edited in place; more are merged in one pass.
fn insert_into_leaf<K: Ord + Clone, V: Clone>(
    leaf: &mut LeafNode<K, V>,
    batch: &[K],
    vals: &[V],
    out: &mut [bool],
) -> usize {
    if let ([key], [val]) = (batch, vals) {
        let found = leaf.keys.binary_search(key);
        match found {
            Ok(pos) => leaf.vals[pos] = val.clone(),
            Err(pos) => {
                leaf.keys.insert(pos, key.clone());
                leaf.vals.insert(pos, val.clone());
            }
        }
        out[0] = found.is_err();
        return found.is_err() as usize;
    }
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
            *slot = false;
        } else {
            merged.push(q.clone());
            merged_vals.push(v.clone());
            added += 1;
            *slot = true;
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
/// A single key is removed in place; more are filtered in one pass.
fn remove_from_leaf<K: Ord + Clone, V: Clone>(
    leaf: &mut LeafNode<K, V>,
    batch: &[K],
    out: &mut [bool],
) -> usize {
    if let [key] = batch {
        let found = leaf.keys.binary_search(key);
        if let Ok(pos) = found {
            leaf.keys.remove(pos);
            leaf.vals.remove(pos);
        }
        out[0] = found.is_ok();
        return found.is_ok() as usize;
    }
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
            *slot = true;
        } else {
            *slot = false;
        }
    }
    kept.extend_from_slice(&keys[i..]);
    kept_vals.extend_from_slice(&old_vals[i..]);
    leaf.keys = kept;
    leaf.vals = kept_vals;
    removed
}
