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
//! first split at the chunk boundary of the child array nearest its middle
//! and the halves run under `forkjoin::join`, each on its own [`Window`]
//! of whole chunks; one that falls under a single chunk walks its runs in
//! turn.  A child's update moves its chunk's key count by what it changed
//! as it returns, so the counts are exact when the walk is, forked or not.
//! On the way back up every inner node brings the rest of its metadata up
//! to date: `len` and `min`/`max` always, the router array — which
//! snapshots share whole — only when a removal took a child or a child's
//! minimum (an insert can move no router).  A subtree whose key
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
//! The recursion holds every node by its `Arc` slot, and a leaf is a
//! shared base plus a delta of at most [`DELTA_CAPACITY`] edits
//! ([`LeafNode`]), so a run reaches a leaf in one of three ways.  A run
//! that changes nothing — a removal that finds none of its keys, a set's
//! upsert of keys already present — leaves the leaf as it was, shared or
//! not.  A run that fits the delta writes only the delta: one key into a
//! leaf the tree owns alone is edited in place, any other run copies the
//! delta with its edits into a new leaf over the same base — under a
//! snapshot, one node, at most `DELTA_CAPACITY` entries and one base
//! refcount, never the base's ≈ 1 000 keys.  A run longer than the delta,
//! or one that would push it past its capacity, folds base, delta and run
//! into a new base: each key gallops from the previous key's position to
//! its own and the base between edits is copied whole
//! (`extend_from_slice`), `O(log gap)` comparisons per key.  A copy of a
//! shared leaf is counted in `cow_nodes`, the keys written into new arrays
//! in `cow_keys`.
//!
//! Everything here is generic over the per-key value `V` ([`crate::IstMap`]
//! carries real values; the set instantiates `V = ()`, which the compiler
//! erases).  Inserts are upserts: a key already present keeps its stored
//! copy and takes the incoming value — an override in the delta —
//! reporting `false` ("not newly inserted"); a key removed and inserted
//! again takes the caller's copy, as in `BTreeMap`.

use std::mem::MaybeUninit;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::children::{cow, Window};
use crate::metrics::{
    touch_cow, touch_cow_keys, touch_leaf_edit, touch_node, touch_rebuild, MetricsRef,
};
use crate::node::{
    merged_view, Base, Edit, InnerNode, InterpolateKey, LeafNode, Merged, Node, DELTA_CAPACITY,
    LEAF_CAPACITY, REBUILD_FACTOR,
};
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
        let added = write_leaf(slot, batch, Some(vals), out, m);
        touch_leaf_edit(m, added > 0);
        added
    } else {
        let inner = cow(slot, m);
        let (routers, min, max) = (&*inner.routers, &inner.min, &inner.max);
        let routing = Routing { routers, min, max };
        let added = walk_runs(
            &routing,
            inner.children.window(),
            batch,
            0,
            out,
            m,
            &|_, (child, keys), run, flags| {
                let added = insert_into(child, &batch[run.clone()], &vals[run], flags, m);
                *keys += added;
                added
            },
        );
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
        let removed = write_leaf(slot, batch, None, out, m);
        touch_leaf_edit(m, removed > 0);
        removed
    } else {
        let inner = cow(slot, m);
        let (routers, min, max) = (&*inner.routers, &inner.min, &inner.max);
        // Only a child the batch reached can have emptied or lost its
        // minimum, so staleness is decided there, on lines the removal
        // just touched, instead of by a scan of every child.  `Relaxed`:
        // read after the (possibly forked) walk has joined.
        let stale = AtomicBool::new(false);
        let routing = Routing { routers, min, max };
        let removed = walk_runs(
            &routing,
            inner.children.window(),
            batch,
            0,
            out,
            m,
            &|router, (child, keys), run, flags| {
                let removed = remove_from(child, &batch[run], flags, m);
                *keys -= removed;
                if removed > 0
                    && (child.is_empty() || router.is_some_and(|min| min != child.min_key()))
                {
                    stale.store(true, Ordering::Relaxed);
                }
                removed
            },
        );
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
/// split between two of `window`'s chunks and its halves forked, each
/// walking its own part of `window`; one that falls under a single chunk
/// walks its runs in turn.  `op` gets the router recording the child's
/// minimum (`None` for the first child), the child's slot with its
/// chunk's key count, the run's range of the node's batch, and the run's
/// slice of `out`.
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
    Op: Fn(Option<&K>, (&mut Arc<Node<K, V>>, &mut usize), Range<usize>, &mut [bool]) -> usize
        + Sync,
{
    if batch.len() >= SEQ_BATCH_LEN {
        if let Some(at) = routing.split_point(batch, window.width()) {
            let (left, right) = window.split_at(routing.child(&batch[at]));
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
        *slot = inner
            .children
            .take_only()
            .unwrap_or_else(|| Arc::new(Node::Leaf(LeafNode::from_base(Arc::new([])))));
    }
}

/// Flattens the subtree at `node` into parallel sorted key and value
/// vectors, forking per child for large subtrees — the shape [`build`]
/// consumes, so a drifted subtree rebuilds (and a store snapshots) without
/// pair-tupling the contents first.
pub(crate) fn collect_kv<K, V>(node: &Node<K, V>) -> (Vec<K>, Vec<V>)
where
    K: Ord + Clone + Send + Sync,
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
    // sum to `n`, and a leaf asserts that its merged view fills its range).
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
    K: Ord + Clone + Send + Sync,
    V: Clone + Send + Sync,
{
    debug_assert_eq!(node.len(), keys_out.len());
    debug_assert_eq!(node.len(), vals_out.len());
    match node {
        Node::Leaf(leaf) => {
            let mut slots = keys_out.iter_mut().zip(vals_out.iter_mut());
            let mut put = |(key, val): (&K, &V)| {
                let (kslot, vslot) = slots.next().expect("`len` counts the merged view");
                kslot.write(key.clone());
                vslot.write(val.clone());
            };
            let mut merged = leaf.iter();
            loop {
                merged.take_run().iter().for_each(|(k, v)| put((k, v)));
                let Some(pair) = merged.next() else {
                    break;
                };
                put(pair);
            }
            // `collect_kv`'s `set_len` relies on every slot being written.
            assert!(slots.next().is_none(), "`len` counts the merged view");
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
        Node::Leaf(leaf) => leaf.len > REBUILD_FACTOR * LEAF_CAPACITY,
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

/// Upserts (`vals` given) or removes (`None`) the sorted run `batch` in the
/// leaf in `slot`, flagging each key in `out` — newly inserted, or was
/// present — and returning how many keys the run added or removed.  A run
/// that changes nothing leaves the leaf as it was, shared or not.
///
/// A run longer than [`DELTA_CAPACITY`] folds base, delta and run into a
/// new base ([`fold`]).  A shorter one is planned first ([`plan_run`]):
/// one whose delta would pass the capacity folds too (a point write by
/// [`fold_one`]); else one key into a leaf the tree owns alone is edited
/// into the delta in place, and any other run copies the delta with its
/// edits into a new leaf over the same base.  The leaf may exceed its largest size afterwards —
/// [`maybe_rebuild`] gives it inner structure.
fn write_leaf<K: Ord + Clone, V: Clone>(
    slot: &mut Arc<Node<K, V>>,
    batch: &[K],
    vals: Option<&[V]>,
    out: &mut [bool],
    m: MetricsRef<'_>,
) -> usize {
    let Node::Leaf(leaf) = &**slot else {
        unreachable!("a leaf's slot")
    };
    if batch.len() > DELTA_CAPACITY {
        let Some((base, count)) = fold(leaf, batch, vals, out) else {
            return 0;
        };
        install_base(slot, base, m);
        return count;
    }
    let Some(plan) = plan_run(leaf, batch, vals, out) else {
        return 0;
    };
    let len = match vals {
        Some(_) => leaf.len + plan.count,
        None => leaf.len - plan.count,
    };
    if plan.delta_len > DELTA_CAPACITY {
        let base = match batch {
            [_] => fold_one(leaf, batch, vals, out, len),
            _ => {
                fold(leaf, batch, vals, out)
                    .expect("the plan changes the leaf")
                    .0
            }
        };
        install_base(slot, base, m);
        return plan.count;
    }
    if let (Some(Node::Leaf(own)), [key]) = (Arc::get_mut(slot), batch) {
        edit_in_place(own, key, vals.map(|v| &v[0]), out[0]);
        own.len = len;
        return plan.count;
    }
    let Node::Leaf(leaf) = &**slot else {
        unreachable!("a leaf's slot")
    };
    let mut delta = Vec::with_capacity(plan.delta_len);
    let edits = replay(leaf, batch, vals, out);
    delta.extend(edits.map(|(key, edit)| (key.clone(), edit.cloned())));
    touch_cow_keys(m, delta.len());
    let base = Arc::clone(&leaf.base);
    let copy = Node::Leaf(LeafNode { base, delta, len });
    match Arc::get_mut(slot) {
        Some(node) => *node = copy,
        None => {
            touch_cow(m, 1, 1);
            *slot = Arc::new(copy);
        }
    }
    plan.count
}

/// Puts a leaf over the folded `base` in `slot`: over the old leaf, whose
/// delta is emptied but keeps its capacity, when the tree owns it alone;
/// else in a new node — a shared leaf's one copy, counted.
fn install_base<K, V>(slot: &mut Arc<Node<K, V>>, base: Base<K, V>, m: MetricsRef<'_>) {
    touch_cow_keys(m, base.len());
    match Arc::get_mut(slot) {
        Some(Node::Leaf(own)) => {
            own.delta.clear();
            own.len = base.len();
            own.base = base;
        }
        _ => {
            touch_cow(m, 1, 0);
            *slot = Arc::new(Node::Leaf(LeafNode::from_base(base)));
        }
    }
}

/// Appends what is left of a merged view to `out`, the base between edits
/// copied whole.
fn extend_merged<'a, K, V, I>(out: &mut Vec<(K, V)>, mut merged: Merged<'a, K, V, I>)
where
    K: Ord + Clone + 'a,
    V: Clone + 'a,
    I: Iterator<Item = (&'a K, Edit<&'a V>)>,
{
    loop {
        out.extend_from_slice(merged.take_run());
        let Some((key, val)) = merged.next() else {
            break;
        };
        out.push((key.clone(), val.clone()));
    }
}

/// What a run does to a leaf, from [`plan_run`]'s pass.
struct Plan {
    /// Keys the run adds (upserts) or removes (removals).
    count: usize,
    /// Entries the delta would hold after the run.
    delta_len: usize,
}

/// The first pass over a run: flags every key in `out` and plans the leaf
/// — or `None` when the run changes nothing.  Each key gallops the delta
/// and, when the delta has no entry for it, the base, from the previous
/// key's position: `O(log gap)` comparisons per key.
fn plan_run<K: Ord, V>(
    leaf: &LeafNode<K, V>,
    batch: &[K],
    vals: Option<&[V]>,
    out: &mut [bool],
) -> Option<Plan> {
    let (base, delta) = (&leaf.base[..], &leaf.delta[..]);
    let (mut at, mut d) = (0, 0);
    let mut plan = Plan {
        count: 0,
        delta_len: delta.len(),
    };
    let mut changed = false;
    for (i, (q, flag)) in batch.iter().zip(out).enumerate() {
        d += gallop(&delta[d..], |(k, _)| k < q);
        let old = delta
            .get(d)
            .filter(|(k, _)| k == q)
            .map(|(_, e)| e.as_ref());
        let in_base = old.map_or_else(
            || {
                at += gallop(&base[at..], |(k, _)| k < q);
                base.get(at).is_some_and(|(k, _)| k == q)
            },
            over_base,
        );
        let edit = edited(old, in_base, vals.map(|v| &v[i]));
        *flag = edit.flag;
        changed |= edit.changed;
        plan.count += edit.flag as usize;
        plan.delta_len = plan.delta_len + edit.entry.is_some() as usize - old.is_some() as usize;
    }
    changed.then_some(plan)
}

/// The second pass: the delta after the run, in key order — the old
/// entries merged with what the run made of its keys.  Read back from the
/// first pass's `flags`, so it compares base keys only to find the stored
/// copy of a key a map's upsert overrides.
fn replay<'a, K: Ord, V>(
    leaf: &'a LeafNode<K, V>,
    batch: &'a [K],
    vals: Option<&'a [V]>,
    flags: &'a [bool],
) -> impl Iterator<Item = (&'a K, Edit<&'a V>)> {
    let mut delta = leaf.delta.iter().peekable();
    let mut base = &leaf.base[..];
    let mut run = batch.iter().zip(flags).enumerate().peekable();
    std::iter::from_fn(move || loop {
        let next_key = run.peek().map(|(_, (q, _))| *q);
        if let Some((key, edit)) = delta.next_if(|(k, _)| next_key.is_none_or(|q| k < q)) {
            return Some((key, edit.as_ref()));
        }
        let (i, (q, &flag)) = run.next()?;
        let old = delta.next_if(|(k, _)| k == q);
        let old_edit = old.map(|(_, e)| e.as_ref());
        if let Some(entry) = replayed(old_edit, vals.map(|v| &v[i]), flag) {
            return Some((stored_key(old, entry, &mut base, q), entry));
        }
    })
}

/// The copy of `q` its new delta `entry` is kept under, given its `old`
/// entry.  A key already present keeps its stored copy — the old entry's,
/// or the base's for the first override of a base key, found by galloping
/// `base`, which then starts there — and any other takes the caller's `q`.
fn stored_key<'a, K: Ord, V>(
    old: Option<&'a (K, Edit<V>)>,
    entry: Edit<&V>,
    base: &mut &'a [(K, V)],
    q: &'a K,
) -> &'a K {
    match (old, entry) {
        (Some((key, Edit::New(_) | Edit::Override(_))), _) => key,
        (None, Edit::Override(_)) => {
            *base = &base[gallop(base, |(k, _)| k < q)..];
            &base[0].0
        }
        _ => q,
    }
}

/// The entry an upsert of `val` (`Some`) or a removal (`None`) leaves at a
/// key whose delta entry was `old`, given the op's flag from the first
/// pass.
fn replayed<'a, V>(
    old: Option<Edit<&'a V>>,
    val: Option<&'a V>,
    flag: bool,
) -> Option<Edit<&'a V>> {
    // With no entry at the key, the flag says whether the base holds it:
    // an upsert flags a key the leaf lacked, a removal one it held.
    let in_base = old.map_or(flag != val.is_some(), over_base);
    edited(old, in_base, val).entry
}

/// A delta entry's key is a base key unless the entry is a new key.
fn over_base<V>(edit: Edit<&V>) -> bool {
    !matches!(edit, Edit::New(_))
}

/// What one op makes of one key.
struct Edited<'a, V> {
    /// The key's delta entry after the op (`None`: no entry).
    entry: Option<Edit<&'a V>>,
    /// The op's flag: newly inserted (upsert) or was present (removal).
    flag: bool,
    /// Whether the op changed the leaf.
    changed: bool,
}

/// What an upsert of `val` (`Some`) or a removal (`None`) makes of a key
/// whose delta entry is `old` (`None`: none) and which the base holds or
/// not.  A zero-sized `V` carries nothing, so a set's upsert of a present
/// key changes nothing; a map's records the value.
fn edited<'a, V>(old: Option<Edit<&'a V>>, in_base: bool, val: Option<&'a V>) -> Edited<'a, V> {
    let inert = std::mem::size_of::<V>() == 0;
    let (entry, flag, changed) = match (val, old) {
        (Some(v), Some(Edit::New(_))) => (Some(Edit::New(v)), false, !inert),
        (Some(v), Some(Edit::Override(_))) => (Some(Edit::Override(v)), false, !inert),
        (Some(v), Some(Edit::Tombstone)) => (Some(Edit::Override(v)), true, true),
        (Some(_), None) if in_base && inert => (None, false, false),
        (Some(v), None) if in_base => (Some(Edit::Override(v)), false, true),
        (Some(v), None) => (Some(Edit::New(v)), true, true),
        (None, Some(Edit::New(_))) => (None, true, true),
        (None, Some(Edit::Override(_))) => (Some(Edit::Tombstone), true, true),
        (None, Some(Edit::Tombstone)) => (Some(Edit::Tombstone), false, false),
        (None, None) if in_base => (Some(Edit::Tombstone), true, true),
        (None, None) => (None, false, false),
    };
    Edited {
        entry,
        flag,
        changed,
    }
}

/// Base, delta and the run `batch` folded into a new base in one forward
/// walk — or `None` when the run changes nothing.  Each key gallops the
/// delta and the base from the previous key's position, and the merged
/// view between two keys that change something is copied whole
/// ([`extend_merged`]): `O(log gap)` comparisons per key.  The array is
/// allocated at the first change, sized for every key of the run new.
/// Flags each key in `out`; returns the base and how many keys the run
/// added or removed.
fn fold<K: Ord + Clone, V: Clone>(
    leaf: &LeafNode<K, V>,
    batch: &[K],
    vals: Option<&[V]>,
    out: &mut [bool],
) -> Option<(Base<K, V>, usize)> {
    let (base, delta) = (&leaf.base[..], &leaf.delta[..]);
    let mut merged: Option<Vec<(K, V)>> = None;
    let room = leaf.len + vals.map_or(0, |_| batch.len());
    // Where the searches stand, and how far the merged view is copied.
    let (mut at, mut d, mut copied_at, mut copied_d) = (0, 0, 0, 0);
    let mut count = 0;
    for (i, (q, flag)) in batch.iter().zip(out).enumerate() {
        d += gallop(&delta[d..], |(k, _)| k < q);
        at += gallop(&base[at..], |(k, _)| k < q);
        let old = delta.get(d).filter(|(k, _)| k == q);
        let in_base = base.get(at).is_some_and(|(k, _)| k == q);
        let edit = edited(old.map(|(_, e)| e.as_ref()), in_base, vals.map(|v| &v[i]));
        (*flag, count) = (edit.flag, count + edit.flag as usize);
        if !edit.changed {
            continue;
        }
        let run = merged.get_or_insert_with(|| Vec::with_capacity(room));
        extend_merged(run, merged_view(&base[copied_at..at], &delta[copied_d..d]));
        if let Some(entry) = edit.entry {
            if let Some(val) = entry.value() {
                let key = stored_key(old, entry, &mut &base[at..], q);
                run.push((key.clone(), (*val).clone()));
            }
        }
        (copied_at, copied_d) = (at + in_base as usize, d + old.is_some() as usize);
    }
    let mut run = merged?;
    extend_merged(
        &mut run,
        merged_view(&base[copied_at..], &delta[copied_d..]),
    );
    Some((run.into(), count))
}

/// A point write whose delta would overflow, folded like [`fold`] but from
/// its plan: its flag in `flags` and the new base's `len` known, the base
/// is filled pair by pair from a `Range` of trusted length, so it is
/// allocated once — a point write that folds allocates no more than one
/// that copies a delta.
fn fold_one<K: Ord + Clone, V: Clone>(
    leaf: &LeafNode<K, V>,
    key: &[K],
    val: Option<&[V]>,
    flags: &[bool],
    len: usize,
) -> Base<K, V> {
    let mut merged = Merged::new(&leaf.base, replay(leaf, key, val, flags));
    (0..len)
        .map(|_| {
            let (key, val) = merged.next().expect("`len` counts the merged view");
            (key.clone(), val.clone())
        })
        .collect()
}

/// Applies one key's op to the delta of a leaf the tree owns alone, given
/// its flag from the first pass; the plan has checked that the delta keeps
/// within [`DELTA_CAPACITY`].  The first entry reserves all of it, so the
/// delta is allocated once however many edits it takes.
fn edit_in_place<K: Ord + Clone, V: Clone>(
    leaf: &mut LeafNode<K, V>,
    key: &K,
    val: Option<&V>,
    flag: bool,
) {
    let delta = &mut leaf.delta;
    let at = delta.binary_search_by(|(k, _)| k.cmp(key));
    let old = at.ok().map(|i| &delta[i]);
    let entry = replayed(old.map(|(_, e)| e.as_ref()), val, flag).map(|entry| {
        let stored = stored_key(old, entry, &mut &leaf.base[..], key);
        (stored.clone(), entry.cloned())
    });
    match (at, entry) {
        (Ok(i), Some(entry)) => delta[i] = entry,
        (Ok(i), None) => drop(delta.remove(i)),
        (Err(i), Some(entry)) => {
            if delta.len() == delta.capacity() {
                delta.reserve_exact(DELTA_CAPACITY - delta.len());
            }
            delta.insert(i, entry);
        }
        (Err(_), None) => {}
    }
}
