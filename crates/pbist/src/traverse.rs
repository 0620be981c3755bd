//! The paper's joint sorted-batch traversal for lookups.
//!
//! Instead of descending once per query, a whole sorted batch moves through
//! the tree together: at each inner node the batch is split at the routers
//! with binary searches ([`partition_batch`]) and every child recurses on its
//! own contiguous sub-batch, forked via the `forkjoin` substrate.  Because
//! the batch is sorted, each child's answers land in a contiguous slice of
//! the output, so results are stitched back in batch order simply by carving
//! the output buffer at the same offsets — the offsets themselves being the
//! exclusive scan of the per-child query counts.

use crate::metrics::{touch_node, MetricsRef};
use crate::node::{InterpolateKey, LeafNode, Node};

/// A batch of at least this many keys forks per child and a smaller one
/// descends sequentially: below it, forking would cost more than the
/// remaining leaf work.  `combine::POOL_CUTOFF` is this number seen from the
/// caller's side — a whole batch enters the pool exactly when the tree
/// would fork it.
pub(crate) const SEQ_BATCH_LEN: usize = 512;

/// Splits a sorted `batch` at every router: the queries destined for child
/// `i` are `batch[offsets[i]..offsets[i + 1]]`, where `offsets` is the
/// returned vector of length `routers.len() + 2`.
///
/// Each router is located by a binary search in the still-unassigned tail,
/// so one partition costs `O(fanout · log |batch|)`.  The offsets are
/// exactly the exclusive scan of the per-child query counts.
pub(crate) fn partition_batch<K: Ord>(routers: &[K], batch: &[K]) -> Vec<usize> {
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

/// One child's share of a joint traversal: the subtree, its contiguous
/// sub-batch, and the matching slice of the output buffer.
type QueryTask<'a, K, V, R> = (&'a Node<K, V>, &'a [K], &'a mut [R]);

/// Answers `batch` (sorted, strictly increasing) against the subtree at
/// `node`, writing one `answer` per query over `out`'s slots (same order):
/// partitions `batch` at each inner node's routers, recurses per child
/// (forked once the batch is large enough), and answers each query at its
/// leaf — a membership flag for `batch_contains`, a value for `batch_get`.
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
    K: InterpolateKey + Clone + Send + Sync,
    V: Send + Sync,
    R: Send,
    F: Fn(&LeafNode<K, V>, &K) -> R + Sync,
{
    debug_assert_eq!(batch.len(), out.len());
    touch_node(m);
    match node {
        Node::Leaf(leaf) => {
            for (q, slot) in batch.iter().zip(out.iter_mut()) {
                *slot = answer(leaf, q);
            }
        }
        Node::Inner(inner) => {
            let offsets = partition_batch(&inner.routers, batch);
            let mut tasks: Vec<QueryTask<'_, K, V, R>> = Vec::with_capacity(inner.children.len());
            let mut batch_rest = batch;
            let mut out_rest = out;
            // Internal iteration: the chunked child array folds as nested
            // slice loops, which a `for` over its flattening iterator
            // would not.
            let mut windows = offsets.windows(2);
            inner.children.iter().for_each(|child| {
                let window = windows.next().expect("one window per child");
                let seg_len = window[1] - window[0];
                let (batch_seg, batch_tail) = batch_rest.split_at(seg_len);
                let (out_seg, out_tail) = std::mem::take(&mut out_rest).split_at_mut(seg_len);
                batch_rest = batch_tail;
                out_rest = out_tail;
                if seg_len > 0 {
                    tasks.push((child, batch_seg, out_seg));
                }
            });
            if batch.len() < SEQ_BATCH_LEN {
                for (child, batch_seg, out_seg) in tasks.iter_mut() {
                    joint_query_into(child, batch_seg, out_seg, m, answer);
                }
            } else {
                parprim::for_each_task(&mut tasks, |(child, batch_seg, out_seg)| {
                    joint_query_into(child, batch_seg, out_seg, m, answer);
                });
            }
        }
    }
}
