//! The paper's batched updates: insert and remove sorted batches in
//! parallel, rebuilding drifted subtrees.
//!
//! One recursion per operation serves every batch size, a point write
//! included — it is a batch of one ([`crate::IstMap`] hands the recursion
//! one-element slices).  It walks the batch as the lookup traversal does
//! ([`crate::traverse`]): at an inner node the first unassigned key is
//! routed by the interpolated `child_index`, the end of its run galloped
//! over the batch, and the child recurses on the run; a one-key batch is
//! the degenerate run.  A sub-batch of at least [`SEQ_BATCH_LEN`] keys is
//! first split at the child boundary nearest its middle and the halves run
//! under `forkjoin::join`, each on its own [`Window`] of the child array.
//! On the way back up every inner node brings its metadata up to date:
//! `len`, `min`/`max` and its chunks' key counts always, the router array
//! — which snapshots share whole — only when a removal took a child or a
//! child's minimum (an insert can move no router).  A subtree whose key
//! count has drifted outside `[built_len / 2, built_len * 2]` since it was
//! last built — or a leaf grown past twice [`LEAF_CAPACITY`], the same
//! drift from the largest leaf `build` makes — is rebuilt from its sorted
//! keys, restoring the ideal `Θ(√n)` fanout; removals that empty a subtree
//! are pruned by the parent (single survivors are hoisted).  The leaf's
//! headroom is what lets a tree grown by uniform batches keep its leaves:
//! between two rebuilds of their parent they grow about as much as it
//! does — at most double — so leaves built with at most `LEAF_CAPACITY`
//! keys do not split in between.
//!
//! The recursion holds every node by its `Arc` slot, so a leaf is built
//! once.  A uniquely owned leaf given one key is edited in place.  Every
//! other run is merged straight from the old — possibly shared — leaf into
//! new arrays allocated once: each batch key gallops from the previous
//! key's position to its own, and the gap before it is copied whole
//! (`extend_from_slice`, keys and values alike), `O(log gap)` comparisons
//! per key.  Replacing a shared leaf so is its one copy, counted in
//! `cow_nodes`; a removal run that finds none of its keys leaves the leaf
//! as it was, shared or not.
//!
//! Everything here is generic over the per-key value `V` ([`crate::IstMap`]
//! carries real values; the set instantiates `V = ()`, which the compiler
//! erases).  Inserts are upserts: a key already present keeps its slot and
//! takes the incoming value, reporting `false` ("not newly inserted").

use std::mem::MaybeUninit;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::children::{cow, Window};
use crate::metrics::{touch_cow, touch_leaf_edit, touch_node, touch_rebuild, MetricsRef};
use crate::node::{InnerNode, InterpolateKey, LeafNode, Node, LEAF_CAPACITY, REBUILD_FACTOR};
use crate::traverse::{gallop, Routing, SEQ_BATCH_LEN};
use crate::tree::build;

/// Subtrees at or below this many keys are flattened sequentially by
/// [`collect_kv`]; above it, collection forks per child.
const SEQ_COLLECT_LEN: usize = 2048;

/// One child's share of a parallel flatten: the subtree and its slices of
/// the output key and value buffers.
type CollectTask<'a, K, V> = (
    &'a Node<K, V>,
    &'a mut [MaybeUninit<K>],
    &'a mut [MaybeUninit<V>],
);

/// Upserts the sorted `batch` (keys with index-parallel `vals`) into the
/// subtree in `slot`, writing one "newly inserted?" flag per batch element
/// into `out` (batch order) and returning how many keys were actually
/// added.  Keys already present take the incoming value and flag `false`.
pub(crate) fn insert_into<K, V>(
    slot: &mut Arc<Node<K, V>>,
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
    let added = if matches!(**slot, Node::Leaf(_)) {
        let added = insert_into_leaf(slot, batch, vals, out, m);
        touch_leaf_edit(m, added > 0);
        added
    } else {
        let Node::Inner(inner) = cow(slot, m) else {
            unreachable!("not a leaf")
        };
        let (routers, min, max) = (&*inner.routers, &inner.min, &inner.max);
        let routing = Routing { routers, min, max };
        let touched = routing.child(&batch[0])..=routing.child(&batch[batch.len() - 1]);
        let added = walk_runs(
            &routing,
            inner.children.window(),
            batch,
            0,
            out,
            m,
            &|_, child, run, flags| insert_into(child, &batch[run.clone()], &vals[run], flags, m),
        );
        inner.children.recount(touched, added as isize);
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
    };
    maybe_rebuild(slot, m);
    added
}

/// Removes the sorted `batch` from the subtree in `slot`, writing one "was
/// present?" flag per batch element into `out` (batch order) and returning
/// how many keys were actually removed.
///
/// May leave an **empty leaf** in `slot` when the batch wipes the subtree
/// out; callers (the parent node, or `IstMap` at the root) prune it.
pub(crate) fn remove_from<K, V>(
    slot: &mut Arc<Node<K, V>>,
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
    let removed = if matches!(**slot, Node::Leaf(_)) {
        let removed = remove_from_leaf(slot, batch, out, m);
        touch_leaf_edit(m, removed > 0);
        removed
    } else {
        let Node::Inner(inner) = cow(slot, m) else {
            unreachable!("not a leaf")
        };
        let (routers, min, max) = (&*inner.routers, &inner.min, &inner.max);
        // Only a child the batch reached can have emptied or lost its
        // minimum, so staleness is decided there, on lines the removal
        // just touched, instead of by a scan of every child.  `Relaxed`:
        // read after the (possibly forked) walk has joined.
        let stale = AtomicBool::new(false);
        let routing = Routing { routers, min, max };
        let touched = routing.child(&batch[0])..=routing.child(&batch[batch.len() - 1]);
        let removed = walk_runs(
            &routing,
            inner.children.window(),
            batch,
            0,
            out,
            m,
            &|router, child, run, flags| {
                let removed = remove_from(child, &batch[run], flags, m);
                if removed > 0
                    && (child.is_empty() || router.is_some_and(|min| min != child.min_key()))
                {
                    stale.store(true, Ordering::Relaxed);
                }
                removed
            },
        );
        inner.children.recount(touched, -(removed as isize));
        inner.len -= removed;
        if removed > 0 {
            refresh_after_removal(inner, stale.into_inner(), m);
        }
        removed
    };
    prune(slot);
    maybe_rebuild(slot, m);
    removed
}

/// Hands every run of `batch` — the node's keys from `base` on, with their
/// slice of `out` — to the child it routes to, in order, and sums what
/// `op` returns.  A sub-batch of [`SEQ_BATCH_LEN`] keys or more is first
/// split at a child boundary and its halves forked, each walking its own
/// part of `window`.  `op` gets the router recording the child's minimum
/// (`None` for the first child), the child's slot, the run's range of the
/// node's batch, and the run's slice of `out`.
fn walk_runs<K, V, Op>(
    routing: &Routing<'_, K>,
    mut window: Window<'_, K, V>,
    batch: &[K],
    base: usize,
    out: &mut [bool],
    m: MetricsRef<'_>,
    op: &Op,
) -> usize
where
    K: InterpolateKey + Clone + Send + Sync,
    V: Clone + Send + Sync,
    Op: Fn(Option<&K>, &mut Arc<Node<K, V>>, Range<usize>, &mut [bool]) -> usize + Sync,
{
    if batch.len() >= SEQ_BATCH_LEN {
        if let Some(at) = routing.split_point(batch) {
            let (left, right) = window.split_at(routing.child(&batch[at]), m);
            let (batch_left, batch_right) = batch.split_at(at);
            let (out_left, out_right) = out.split_at_mut(at);
            let (a, b) = forkjoin::join(
                || walk_runs(routing, left, batch_left, base, out_left, m, op),
                || walk_runs(routing, right, batch_right, base + at, out_right, m, op),
            );
            return a + b;
        }
    }
    let mut total = 0;
    routing.for_each_run(batch, |child, run| {
        let router = child.checked_sub(1).map(|at| &routing.routers[at]);
        let span = base + run.start..base + run.end;
        total += op(router, window.slot(child, m), span, &mut out[run]);
    });
    total
}

/// Prunes an inner node a removal left degenerate: an emptied subtree
/// becomes an empty leaf (for the parent to drop in turn) and a single
/// surviving child is hoisted into its parent's slot, shared or not.
fn prune<K: Clone, V: Clone>(slot: &mut Arc<Node<K, V>>) {
    let Some(Node::Inner(inner)) = Arc::get_mut(slot) else {
        return;
    };
    if inner.children.len() < 2 {
        *slot = inner.children.take_only().unwrap_or_else(|| {
            Arc::new(Node::Leaf(LeafNode {
                keys: Vec::new(),
                vals: Vec::new(),
            }))
        });
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
        // An iterator of known length collects into the `Arc` directly.
        inner.routers = (1..children.len())
            .map(|idx| children.get(idx).min_key().clone())
            .collect();
    }
}

/// Rebuilds the subtree in `slot` from its sorted keys when its size has
/// drifted past the rebuild threshold — for a leaf, past
/// [`REBUILD_FACTOR`] times [`LEAF_CAPACITY`] — restoring the ideal
/// `Θ(√n)`-fanout shape.
fn maybe_rebuild<K, V>(slot: &mut Arc<Node<K, V>>, m: MetricsRef<'_>)
where
    K: InterpolateKey + Clone + Send + Sync,
    V: Clone + Send + Sync,
{
    let drifted = match &**slot {
        Node::Leaf(leaf) => leaf.keys.len() > REBUILD_FACTOR * LEAF_CAPACITY,
        Node::Inner(inner) => {
            inner.len > inner.built_len * REBUILD_FACTOR
                || inner.len * REBUILD_FACTOR < inner.built_len
        }
    };
    if drifted {
        touch_rebuild(m, slot.len());
        let (keys, vals) = collect_kv(slot);
        *slot = Arc::new(build(&keys, &vals));
    }
}

/// Upserts a sorted run into the leaf in `slot`, flagging which keys were
/// new; returns how many.  One key into a leaf the tree owns alone is
/// inserted in place; anything else is merged into a new leaf by
/// [`upsert_run`].  The leaf may exceed its largest size afterwards —
/// [`maybe_rebuild`] gives it inner structure.
fn insert_into_leaf<K: Ord + Clone, V: Clone>(
    slot: &mut Arc<Node<K, V>>,
    batch: &[K],
    vals: &[V],
    out: &mut [bool],
    m: MetricsRef<'_>,
) -> usize {
    if let (Some(Node::Leaf(leaf)), [key], [val]) = (Arc::get_mut(slot), batch, vals) {
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
    let Node::Leaf(leaf) = &**slot else {
        unreachable!("a leaf's slot")
    };
    let merged = upsert_run(leaf, batch, vals, out);
    let added = merged.keys.len() - leaf.keys.len();
    replace_leaf(slot, merged, m);
    added
}

/// Removes a sorted run from the leaf in `slot`, flagging which keys were
/// present; returns how many.  May leave the leaf empty.  One key from a
/// leaf the tree owns alone is removed in place; anything else builds a new
/// leaf by [`remove_run`] — unless no key of the run is there.
fn remove_from_leaf<K: Ord + Clone, V: Clone>(
    slot: &mut Arc<Node<K, V>>,
    batch: &[K],
    out: &mut [bool],
    m: MetricsRef<'_>,
) -> usize {
    if let (Some(Node::Leaf(leaf)), [key]) = (Arc::get_mut(slot), batch) {
        let found = leaf.keys.binary_search(key);
        if let Ok(pos) = found {
            leaf.keys.remove(pos);
            leaf.vals.remove(pos);
        }
        out[0] = found.is_ok();
        return found.is_ok() as usize;
    }
    let Node::Leaf(leaf) = &**slot else {
        unreachable!("a leaf's slot")
    };
    let Some(kept) = remove_run(leaf, batch, out) else {
        return 0;
    };
    let removed = leaf.keys.len() - kept.keys.len();
    replace_leaf(slot, kept, m);
    removed
}

/// Puts `leaf` in `slot`: over the old leaf when the tree owns it alone,
/// else in a new node — a shared leaf's one copy, counted.
fn replace_leaf<K, V>(slot: &mut Arc<Node<K, V>>, leaf: LeafNode<K, V>, m: MetricsRef<'_>) {
    match Arc::get_mut(slot) {
        Some(node) => *node = Node::Leaf(leaf),
        None => {
            touch_cow(m, 1, 0);
            *slot = Arc::new(Node::Leaf(leaf));
        }
    }
}

/// `leaf` with the sorted run `batch` (and its `vals`) upserted, built in
/// one forward walk: each key gallops from the previous key's position to
/// its own and the gap before it is copied whole.  Flags new keys in `out`.
/// The arrays are sized for every key of the run new, so nothing regrows;
/// each key already present leaves one slot spare.
fn upsert_run<K: Ord + Clone, V: Clone>(
    leaf: &LeafNode<K, V>,
    batch: &[K],
    vals: &[V],
    out: &mut [bool],
) -> LeafNode<K, V> {
    let (keys, old) = (&leaf.keys, &leaf.vals);
    let room = keys.len() + batch.len();
    let mut run = LeafNode {
        keys: Vec::with_capacity(room),
        vals: Vec::with_capacity(room),
    };
    let mut at = 0;
    for ((q, v), new) in batch.iter().zip(vals).zip(out) {
        let end = at + gallop(&keys[at..], |k| k < q);
        run.keys.extend_from_slice(&keys[at..end]);
        run.vals.extend_from_slice(&old[at..end]);
        at = end;
        let present = keys.get(at) == Some(q);
        // A present key keeps its stored copy and takes the batch's value.
        run.keys.push((if present { &keys[at] } else { q }).clone());
        run.vals.push(v.clone());
        at += present as usize;
        *new = !present;
    }
    run.keys.extend_from_slice(&keys[at..]);
    run.vals.extend_from_slice(&old[at..]);
    run
}

/// `leaf` without the keys of the sorted run `batch`, built in the same
/// forward walk as [`upsert_run`] — or `None` when none of them is there.
/// Flags present keys in `out`.  The arrays are allocated at the first
/// hit, sized for the leaf less that key; each further hit leaves one slot
/// spare.
fn remove_run<K: Ord + Clone, V: Clone>(
    leaf: &LeafNode<K, V>,
    batch: &[K],
    out: &mut [bool],
) -> Option<LeafNode<K, V>> {
    let (keys, vals) = (&leaf.keys, &leaf.vals);
    let mut kept: Option<LeafNode<K, V>> = None;
    let (mut at, mut copied) = (0, 0);
    for (q, present) in batch.iter().zip(out) {
        at += gallop(&keys[at..], |k| k < q);
        *present = keys.get(at) == Some(q);
        if *present {
            let run = kept.get_or_insert_with(|| LeafNode {
                keys: Vec::with_capacity(keys.len() - 1),
                vals: Vec::with_capacity(keys.len() - 1),
            });
            run.keys.extend_from_slice(&keys[copied..at]);
            run.vals.extend_from_slice(&vals[copied..at]);
            at += 1;
            copied = at;
        }
    }
    let mut run = kept?;
    run.keys.extend_from_slice(&keys[copied..]);
    run.vals.extend_from_slice(&vals[copied..]);
    Some(run)
}
