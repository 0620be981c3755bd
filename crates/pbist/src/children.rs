//! The child array of an inner node, shared with snapshots chunk by chunk.
//!
//! A flat `Vec` of child pointers makes path copying cost the fanout: a
//! write under a live snapshot clones the node, and cloning `f` `Arc`s is
//! `f` refcount increments on `f` different cache lines (and as many
//! decrements when the snapshot retires).  [`Children`] holds the same
//! logical array as an outer vector of `Arc`'d chunks of `≈ √f` children
//! each, so cloning a node bumps one count per chunk, and reaching one child
//! mutably copies only the chunk that holds it: `≈ 2·√f` increments per
//! level instead of `f` — 16 + 16 instead of 256 at [`MAX_FANOUT`], and
//! 32 + 32 instead of 1 000 at the node over leaves a 10⁶-key tree builds,
//! whose fanout is `√n`, uncapped.
//!
//! Each chunk also carries the number of keys under its children, so the
//! ordered queries that count keys before a child (`rank`, `kth`) read
//! `≈ √f` chunk counts and at most one chunk of child sizes, not up to `f`
//! children on as many cache lines.  The update walk keeps the counts as
//! it goes: it reaches a child together with its chunk's count and adds
//! or subtracts there what the child's update changed.
//!
//! The logical array is unchanged — same length, same order, same index for
//! every child — so the fanout formula, the routers and the interpolation
//! step never see the chunking.  Every chunk but the last holds exactly
//! `1 << shift` children, which makes indexing a shift and a mask; inserts
//! never add or drop a child (an overflowing leaf is rebuilt in its own
//! slot), so the array is re-chunked only when a child is removed.
//!
//! The update walk reaches the children through a `Window` — a run of
//! whole chunks, all of them from `Children::window` — which hands out the
//! slot of the child a run routes to, unsharing that child's chunk first,
//! and splits in two between chunks for a fork, so the halves of a split
//! never reach the same chunk and no chunk is copied to be cut.
//!
//! [`MAX_FANOUT`]: crate::node::MAX_FANOUT

use std::sync::Arc;

use crate::metrics::{touch_cow, MetricsRef};
use crate::node::{InnerNode, Node};

/// One run of consecutive children, shared as a unit.  A slice, not a
/// `Vec`: the children sit in the chunk's own allocation, so a descent pays
/// one dependent load for the chunking, not two.
type Chunk<K, V> = [Arc<Node<K, V>>];

/// An inner node's children: a two-level copy-on-write vector (see the
/// [module docs](self)).
#[derive(Debug, Clone)]
pub struct Children<K, V> {
    /// The chunks, in child order, each with the number of keys under its
    /// children; none empty, all but the last `1 << shift` wide.
    chunks: Vec<(Arc<Chunk<K, V>>, usize)>,
    /// Total children across the chunks.
    len: usize,
    /// `log2` of the chunk width chosen for `len` by [`chunk_shift`].
    shift: u32,
}

/// `log2` of the chunk width for `len` children: the power of two at or
/// above `√len`, so chunk count and chunk width — the two terms of a path
/// copy's refcount bill — stay within a factor two of each other.
fn chunk_shift(len: usize) -> u32 {
    let mut shift = 0;
    while (1usize << (2 * shift)) < len {
        shift += 1;
    }
    shift
}

/// Keys under a run of children.
fn keys_under<K, V>(children: &[Arc<Node<K, V>>]) -> usize {
    children.iter().map(|child| child.len()).sum()
}

/// Unshares the inner node in `node` from any snapshot still holding it
/// and returns it mutably — how the update path copies an inner node (a
/// shared leaf is not cloned but replaced by a new node over its base).  A
/// copy is counted in `cow_nodes`, and the refcount increments it performs
/// (the router array and one per chunk) in `cow_refs`.
pub(crate) fn cow<'a, K: Clone, V: Clone>(
    node: &'a mut Arc<Node<K, V>>,
    m: MetricsRef<'_>,
) -> &'a mut InnerNode<K, V> {
    let shared = m.is_some() && Arc::get_mut(node).is_none();
    let Node::Inner(inner) = Arc::make_mut(node) else {
        unreachable!("only an inner node is copied on write")
    };
    if shared {
        touch_cow(m, 1, 1 + inner.children.chunks.len());
    }
    inner
}

/// Unshares one chunk, counting the child refcounts a copy increments.
fn cow_chunk<'a, K, V>(chunk: &'a mut Arc<Chunk<K, V>>, m: MetricsRef<'_>) -> &'a mut Chunk<K, V> {
    if m.is_some() && Arc::get_mut(chunk).is_none() {
        touch_cow(m, 0, chunk.len());
    }
    Arc::make_mut(chunk)
}

impl<K, V> Children<K, V> {
    /// Cuts a flat run of children into chunks.
    pub(crate) fn from_vec(flat: Vec<Arc<Node<K, V>>>) -> Children<K, V> {
        let len = flat.len();
        let shift = chunk_shift(len);
        let mut chunks = Vec::with_capacity(len.div_ceil(1 << shift));
        let mut flat = flat.into_iter();
        while flat.len() > 0 {
            let chunk: Arc<Chunk<K, V>> = flat.by_ref().take(1 << shift).collect();
            let keys = keys_under(&chunk);
            chunks.push((chunk, keys));
        }
        Children { chunks, len, shift }
    }

    /// Number of children.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Child `idx`.
    ///
    /// # Panics
    ///
    /// Panics when `idx >= len()`.
    #[inline]
    pub(crate) fn get(&self, idx: usize) -> &Node<K, V> {
        &self.chunks[idx >> self.shift].0[idx & ((1 << self.shift) - 1)]
    }

    /// The children in order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Node<K, V>> {
        self.chunks
            .iter()
            .flat_map(|(chunk, _)| chunk.iter())
            .map(|child| &**child)
    }

    /// Keys under the children before child `idx`: the counts of the
    /// chunks before its own, then the sizes of the children before it in
    /// that chunk — `O(√f)` reads, where a plain sum reads `idx` children.
    pub(crate) fn keys_before(&self, idx: usize) -> usize {
        let (chunk, at) = (idx >> self.shift, idx & ((1 << self.shift) - 1));
        let before: usize = self.chunks[..chunk].iter().map(|(_, keys)| keys).sum();
        before + keys_under(&self.chunks[chunk].0[..at])
    }

    /// The child holding the `k`-th key under the node (0-indexed), and
    /// that key's index within the child: whole chunks are skipped by their
    /// counts, so `O(√f)` reads.
    ///
    /// # Panics
    ///
    /// Panics when the children hold `k` keys or fewer.
    pub(crate) fn locate(&self, mut k: usize) -> (usize, usize) {
        let mut idx = 0;
        for (chunk, keys) in &self.chunks {
            if k < *keys {
                for child in chunk.iter() {
                    if k < child.len() {
                        return (idx, k);
                    }
                    (k, idx) = (k - child.len(), idx + 1);
                }
                unreachable!("a chunk's count is its children's sizes")
            }
            (k, idx) = (k - keys, idx + chunk.len());
        }
        panic!("the children hold fewer than {} keys", k + 1)
    }

    /// Verifies the chunk rules — no empty chunk, every chunk but the last
    /// exactly as wide as the width chosen for `len`, chunk lengths summing
    /// to `len`, every chunk's key count its children's sizes — returning a
    /// description of the first violation.
    pub(crate) fn check(&self) -> Result<(), String> {
        if self.shift != chunk_shift(self.len) {
            return Err(format!(
                "chunk width {} is not the width for {} children",
                1usize << self.shift,
                self.len
            ));
        }
        let width = 1usize << self.shift;
        if let Some((_, keys)) =
            (self.chunks.iter()).find(|(chunk, keys)| keys_under(chunk) != *keys)
        {
            return Err(format!(
                "a chunk counts {keys} keys, not its children's sizes"
            ));
        }
        let (last, full) = match self.chunks.split_last() {
            Some(((last, _), full)) => (last, full),
            None if self.len == 0 => return Ok(()),
            None => return Err(format!("no chunks for {} children", self.len)),
        };
        if let Some((chunk, _)) = full.iter().find(|(chunk, _)| chunk.len() != width) {
            return Err(format!(
                "a chunk holds {} children, not the width {width}",
                chunk.len()
            ));
        }
        if last.is_empty() || last.len() > width {
            return Err(format!(
                "last chunk holds {} children (width {width})",
                last.len()
            ));
        }
        let sum = full.len() * width + last.len();
        if sum != self.len {
            return Err(format!("chunks hold {sum} children, len says {}", self.len));
        }
        Ok(())
    }
}

impl<K: Clone, V: Clone> Children<K, V> {
    /// All the children as one mutable window, for the update walk to
    /// reach the ones it edits and to split for a fork.
    pub(crate) fn window(&mut self) -> Window<'_, K, V> {
        Window {
            first: 0,
            chunks: &mut self.chunks,
            shift: self.shift,
        }
    }

    /// Drops the children failing `keep`, re-chunking what is left: every
    /// surviving child's refcount is bumped once — the old chunks, shared
    /// or not, are left to drop — which a removal, rare beside writes, can
    /// afford.  When every child passes, nothing is copied and no chunk is
    /// touched.
    pub(crate) fn retain(&mut self, keep: impl Fn(&Node<K, V>) -> bool, m: MetricsRef<'_>) {
        if self.iter().all(&keep) {
            return;
        }
        let flat: Vec<_> = (self.chunks.iter().flat_map(|(chunk, _)| chunk.iter()))
            .filter(|child| keep(child))
            .map(Arc::clone)
            .collect();
        touch_cow(m, 0, flat.len());
        *self = Children::from_vec(flat);
    }

    /// Removes and returns the lone child of a container holding at most
    /// one — what hoisting a single survivor needs.
    pub(crate) fn take_only(&mut self) -> Option<Arc<Node<K, V>>> {
        debug_assert!(self.len < 2);
        let only = self.chunks.first().map(|(chunk, _)| Arc::clone(&chunk[0]));
        *self = Children::from_vec(Vec::new());
        only
    }
}

/// A run of whole chunks lent mutably to one branch of the update walk.
/// A chunk stays shared until a child in it is reached.
pub(crate) struct Window<'a, K, V> {
    /// Index in the node of the window's first child.
    first: usize,
    /// The chunks, with their key counts.
    chunks: &'a mut [(Arc<Chunk<K, V>>, usize)],
    /// The node's chunk width, as a shift.
    shift: u32,
}

impl<K: Clone, V: Clone> Window<'_, K, V> {
    /// The node's chunk width: where [`Window::split_at`] can cut.
    pub(crate) fn width(&self) -> usize {
        1 << self.shift
    }

    /// The slot of child `idx` (an index into the whole node), its chunk
    /// unshared for editing, and that chunk's key count, for the caller to
    /// move by what it changes under the child; the child itself is the
    /// caller's to copy or replace.
    pub(crate) fn slot(
        &mut self,
        idx: usize,
        m: MetricsRef<'_>,
    ) -> (&mut Arc<Node<K, V>>, &mut usize) {
        let at = idx - self.first;
        let (chunk, keys) = &mut self.chunks[at >> self.shift];
        (&mut cow_chunk(chunk, m)[at & ((1 << self.shift) - 1)], keys)
    }

    /// Cuts the window before the chunk holding child `idx`, which must lie
    /// in a later chunk of the window than its first.
    pub(crate) fn split_at(self, idx: usize) -> (Self, Self) {
        let Window {
            first,
            chunks,
            shift,
        } = self;
        let (left, right) = chunks.split_at_mut((idx - first) >> shift);
        let window = |first, chunks| Window {
            first,
            chunks,
            shift,
        };
        let right_first = first + (left.len() << shift);
        (window(first, left), window(right_first, right))
    }
}
