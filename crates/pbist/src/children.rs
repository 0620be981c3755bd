//! The child array of an inner node, shared with snapshots chunk by chunk.
//!
//! A flat `Vec` of child pointers makes path copying cost the fanout: a
//! write under a live snapshot clones the node, and cloning `f` `Arc`s is
//! `f` refcount increments on `f` different cache lines (and as many
//! decrements when the snapshot retires).  [`Children`] holds the same
//! logical array as an outer vector of `Arc`'d chunks of `≈ √f` children
//! each, so cloning a node bumps one count per chunk, and reaching one child
//! mutably copies only the chunk that holds it: `≈ 2·√f` increments per
//! level instead of `f` (16 + 16 instead of 256 at [`MAX_FANOUT`]).
//!
//! The logical array is unchanged — same length, same order, same index for
//! every child — so the fanout formula, the routers and the interpolation
//! step never see the chunking.  Every chunk but the last holds exactly
//! `1 << shift` children, which makes indexing a shift and a mask; inserts
//! never add or drop a child (an overflowing leaf is rebuilt in its own
//! slot), so the array is re-chunked only when a child is removed.
//!
//! [`MAX_FANOUT`]: crate::node::MAX_FANOUT

use std::sync::Arc;

use crate::metrics::{touch_cow, MetricsRef};
use crate::node::Node;

/// One run of consecutive children, shared as a unit.  A slice, not a
/// `Vec`: the children sit in the chunk's own allocation, so a descent pays
/// one dependent load for the chunking, not two.
type Chunk<K, V> = [Arc<Node<K, V>>];

/// An inner node's children: a two-level copy-on-write vector (see the
/// [module docs](self)).
#[derive(Debug, Clone)]
pub struct Children<K, V> {
    /// The chunks, in child order; none empty, all but the last
    /// `1 << shift` wide.
    chunks: Vec<Arc<Chunk<K, V>>>,
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

/// Unshares `node` from any snapshot still holding it and returns it
/// mutably — the one place the update path copies a node.  A copy is
/// counted in `cow_nodes`, and the refcount increments it performs (an inner
/// node's router array and one per chunk; a leaf's arrays hold none) in
/// `cow_refs`.
pub(crate) fn cow<'a, K: Clone, V: Clone>(
    node: &'a mut Arc<Node<K, V>>,
    m: MetricsRef<'_>,
) -> &'a mut Node<K, V> {
    if m.is_some() && Arc::get_mut(node).is_none() {
        let refs = match &**node {
            Node::Leaf(_) => 0,
            Node::Inner(inner) => 1 + inner.children.chunks.len(),
        };
        touch_cow(m, 1, refs);
    }
    Arc::make_mut(node)
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
            chunks.push(flat.by_ref().take(1 << shift).collect());
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
        &self.chunks[idx >> self.shift][idx & ((1 << self.shift) - 1)]
    }

    /// The children in order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Node<K, V>> {
        self.chunks
            .iter()
            .flat_map(|chunk| chunk.iter())
            .map(|child| &**child)
    }

    /// Verifies the chunk rules — no empty chunk, every chunk but the last
    /// exactly as wide as the width chosen for `len`, chunk lengths summing
    /// to `len` — returning a description of the first violation.
    pub(crate) fn check(&self) -> Result<(), String> {
        if self.shift != chunk_shift(self.len) {
            return Err(format!(
                "chunk width {} is not the width for {} children",
                1usize << self.shift,
                self.len
            ));
        }
        let width = 1usize << self.shift;
        let (last, full) = match self.chunks.split_last() {
            Some(split) => split,
            None if self.len == 0 => return Ok(()),
            None => return Err(format!("no chunks for {} children", self.len)),
        };
        if let Some(chunk) = full.iter().find(|chunk| chunk.len() != width) {
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
    /// Child `idx`, unshared for editing: copies the chunk that holds it
    /// and then the child itself, each only if a snapshot still shares it.
    pub(crate) fn get_mut(&mut self, idx: usize, m: MetricsRef<'_>) -> &mut Node<K, V> {
        let chunk = cow_chunk(&mut self.chunks[idx >> self.shift], m);
        cow(&mut chunk[idx & ((1 << self.shift) - 1)], m)
    }

    /// Calls `visit` on the children whose index satisfies `touched`, each
    /// unshared for editing, with their indices.  Chunks holding no touched
    /// child are left shared.
    pub(crate) fn for_each_touched<'a>(
        &'a mut self,
        touched: impl Fn(usize) -> bool,
        m: MetricsRef<'_>,
        mut visit: impl FnMut(usize, &'a mut Node<K, V>),
    ) {
        let shift = self.shift;
        for (c, chunk) in self.chunks.iter_mut().enumerate() {
            let base = c << shift;
            if !(base..base + chunk.len()).any(&touched) {
                continue;
            }
            for (offset, child) in cow_chunk(chunk, m).iter_mut().enumerate() {
                if touched(base + offset) {
                    visit(base + offset, cow(child, m));
                }
            }
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
        let flat: Vec<_> = (self.chunks.iter().flat_map(|chunk| chunk.iter()))
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
        let only = self.chunks.first().map(|chunk| Arc::clone(&chunk[0]));
        *self = Children::from_vec(Vec::new());
        only
    }
}
