//! The paper's joint sorted-batch traversal for lookups, and the run walk
//! the batched updates share with it.
//!
//! Instead of descending once per query, a whole sorted batch moves through
//! the tree together.  At each inner node the sub-batch is walked as *runs*
//! ([`Routing::for_each_run`]): the first unassigned key is routed by the
//! interpolated [`child_index`](crate::tree::child_index), the end of its
//! run — the keys below that child's upper router — is found by galloping
//! forward from it, the child recurses on the run, and the walk continues
//! from the run's end.
//! Each child so receives one contiguous run, and because the batch is
//! sorted its answers land in the matching contiguous slice of the output:
//! results are in batch order with nothing to stitch, and no per-node
//! scratch is allocated.
//!
//! At a leaf the whole run is answered by one forward walk over the leaf's
//! delta and base: each query gallops from the previous query's position
//! to its own lower bound, `O(log gap)` comparisons per query whatever the
//! key distribution — a sorted run meeting a sorted array is a merge — and
//! an empty delta costs one branch per query.
//!
//! A sub-batch of at least [`SEQ_BATCH_LEN`] keys is split at the child
//! boundary nearest its middle ([`Routing::split_point`]) and the two halves
//! run the same walk under `forkjoin::join`, so a steal takes half of what
//! is left; outside a pool `join` runs the halves in turn.  The batched
//! updates (`crate::update`) walk and gallop with the same functions, and
//! split with the same one at a coarser grain: only between the chunks of
//! child slots each half owns.

use std::ops::Range;

use crate::metrics::{touch_node, MetricsRef};
use crate::node::{InnerNode, InterpolateKey, LeafNode, Node};
use crate::tree::child_index;

/// A sub-batch of at least this many keys is split in two and the halves
/// forked; a smaller one walks its runs sequentially: below it, forking
/// would cost more than the remaining leaf work.  `combine::POOL_CUTOFF` is
/// this number seen from the caller's side — a whole batch enters the pool
/// exactly when the tree would fork it.
pub(crate) const SEQ_BATCH_LEN: usize = 512;

/// Answers `batch` (sorted, strictly increasing) against the subtree at
/// `node`, writing one `answer` per query over `out`'s slots (same order).
/// `answer` gets the query's value in its leaf, if present — a
/// membership flag for `batch_contains`, a value for `batch_get`.
///
/// `m` counts each node entered **once per traversal**, not once per
/// query routed through it — exactly the sharing the joint traversal buys
/// over per-query descents.
pub(crate) fn joint_query_into<K, V, R, F>(
    node: &Node<K, V>,
    batch: &[K],
    out: &mut [R],
    m: MetricsRef<'_>,
    answer: &F,
) where
    K: InterpolateKey + Send + Sync,
    V: Send + Sync,
    R: Send,
    F: Fn(Option<&V>) -> R + Sync,
{
    debug_assert_eq!(batch.len(), out.len());
    touch_node(m);
    match node {
        Node::Leaf(leaf) => answer_run(leaf, batch, out, answer),
        Node::Inner(inner) => route_runs(inner, batch, out, m, answer),
    }
}

/// Hands every run of `batch` to the child it routes to, in order; a
/// sub-batch of [`SEQ_BATCH_LEN`] keys or more is first split at a child
/// boundary and its halves forked, each running this same walk.
fn route_runs<K, V, R, F>(
    inner: &InnerNode<K, V>,
    batch: &[K],
    out: &mut [R],
    m: MetricsRef<'_>,
    answer: &F,
) where
    K: InterpolateKey + Send + Sync,
    V: Send + Sync,
    R: Send,
    F: Fn(Option<&V>) -> R + Sync,
{
    let (routers, min, max) = (&*inner.routers, &inner.min, &inner.max);
    let routing = Routing { routers, min, max };
    if batch.len() >= SEQ_BATCH_LEN {
        if let Some(at) = routing.split_point(batch, 1) {
            let (left, right) = batch.split_at(at);
            let (out_left, out_right) = out.split_at_mut(at);
            forkjoin::join(
                || route_runs(inner, left, out_left, m, answer),
                || route_runs(inner, right, out_right, m, answer),
            );
            return;
        }
    }
    routing.for_each_run(batch, |child, run| {
        let (keys, answers) = (&batch[run.clone()], &mut out[run]);
        joint_query_into(inner.children.get(child), keys, answers, m, answer);
    });
}

/// What routing a key through one inner node reads.  Borrowed field by
/// field, so the update walk can hold it beside a mutable window of the
/// same node's children.
pub(crate) struct Routing<'a, K> {
    /// The node's routers: `routers[i]` is child `i + 1`'s minimum.
    pub(crate) routers: &'a [K],
    /// The node's smallest key, where interpolation starts.
    pub(crate) min: &'a K,
    /// The node's largest key, where interpolation ends.
    pub(crate) max: &'a K,
}

impl<K: InterpolateKey> Routing<'_, K> {
    /// The child `key` routes to.
    pub(crate) fn child(&self, key: &K) -> usize {
        child_index(self.routers, self.min, self.max, key)
    }

    /// Calls `visit` with every run of the sorted `batch`, in order: the
    /// child it routes to and its range of `batch`.
    pub(crate) fn for_each_run(&self, batch: &[K], mut visit: impl FnMut(usize, Range<usize>)) {
        let mut start = 0;
        while start < batch.len() {
            let child = self.child(&batch[start]);
            let end = match self.routers.get(child) {
                Some(upper) => start + 1 + gallop(&batch[start + 1..], |q| q < upper),
                None => batch.len(),
            };
            visit(child, start..end);
            start = end;
        }
    }

    /// Where to cut `batch` for a fork: the boundary nearest its middle
    /// between two groups of `width` consecutive children (children
    /// `0..width`, `width..2 * width`, …) — where the keys routed to the
    /// middle key's group start or end, whichever is closer and not an end
    /// of `batch`.  `None` when the whole sub-batch routes to one group.
    /// A lookup, which owns nothing, cuts between any two children
    /// (`width` 1); the update walk cuts only between the chunks its
    /// halves own.
    pub(crate) fn split_point(&self, batch: &[K], width: usize) -> Option<usize> {
        let mid = batch.len() / 2;
        let child = self.child(&batch[mid]);
        let first = child - child % width;
        let below = |router: &K| batch.partition_point(|q| q < router);
        let start = first
            .checked_sub(1)
            .map_or(0, |at| below(&self.routers[at]));
        let end = (self.routers.get(first + width - 1)).map_or(batch.len(), below);
        [start, end]
            .into_iter()
            .filter(|&at| 0 < at && at < batch.len())
            .min_by_key(|&at| at.abs_diff(mid))
    }
}

/// Answers a sorted run against one leaf with one forward walk: each query
/// gallops from where the previous one stopped to its own lower bound in
/// the delta and, where the delta has no entry for it, in the base.  An
/// empty delta costs one branch per query.
fn answer_run<K: Ord, V, R, F>(leaf: &LeafNode<K, V>, batch: &[K], out: &mut [R], answer: &F)
where
    F: Fn(Option<&V>) -> R,
{
    let (base, delta) = (&leaf.base[..], &leaf.delta[..]);
    let (mut at, mut d) = (0, 0);
    for (q, slot) in batch.iter().zip(out) {
        if !delta.is_empty() {
            d += gallop(&delta[d..], |(k, _)| k < q);
            if let Some((_, edit)) = delta.get(d).filter(|(k, _)| k == q) {
                *slot = answer(edit.value());
                continue;
            }
        }
        at += gallop(&base[at..], |(k, _)| k < q);
        *slot = answer(base.get(at).filter(|(k, _)| k == q).map(|(_, v)| v));
    }
}

/// The length of `items`' prefix on which `below` holds (`below` must hold
/// on a prefix and nowhere after it), by exponential search from the front:
/// probes at 1, 2, 4, … elements, then a binary search inside the last
/// doubling — `O(log i)` comparisons for an answer of `i`.
pub(crate) fn gallop<T>(items: &[T], below: impl Fn(&T) -> bool) -> usize {
    let mut lo = 0;
    let mut hi = 1;
    while hi <= items.len() && below(&items[hi - 1]) {
        lo = hi;
        hi *= 2;
    }
    let end = (hi - 1).min(items.len());
    lo + items[lo..end].partition_point(below)
}

#[cfg(test)]
mod tests {
    use super::gallop;

    #[test]
    fn gallop_finds_every_prefix_length() {
        for len in 0..70usize {
            let items: Vec<usize> = (0..len).collect();
            for cut in 0..=len {
                assert_eq!(gallop(&items, |&x| x < cut), cut, "len {len}, cut {cut}");
            }
        }
    }
}
