//! Batch-parallel primitives on top of the [`forkjoin`] substrate.
//!
//! Five functions, each with a caller outside this crate:
//!
//! * [`map`] — element-wise parallelism over a slice with the element-count
//!   grain heuristic (`baselines`' batched lookups),
//! * [`map_tasks`] / [`for_each_task`] — one fork per element, for elements
//!   that are themselves whole tasks (`pbist`'s subtree build and per-child
//!   fan-out, `service`'s per-shard sub-batches),
//! * [`merge`] — stable parallel merge of two sorted batches,
//! * [`filter`] — parallel order-preserving selection by predicate
//!   (`baselines`' batched insert and remove).
//!
//! Everything is built on binary [`forkjoin::join`], so these functions work
//! both inside a [`forkjoin::Pool`] (where recursion forks across workers)
//! and on ordinary threads (where they degrade to clean sequential loops).
//! Granularity cutoffs are derived from
//! [`forkjoin::current_num_threads`]: each primitive aims for a few chunks
//! per worker and never forks below a fixed sequential floor, so the
//! fork-join overhead stays amortised.
//!
//! # Panic behaviour
//!
//! If a user closure panics, the panic propagates out of the primitive once
//! all forked branches have stopped running (see [`forkjoin::join`]).
//! Primitives that build an output `Vec` leak the elements already produced
//! when unwinding (the memory itself is still freed); no garbage values are
//! ever observed.

#![warn(missing_docs)]

mod filter;
mod merge;
mod slice;

pub use filter::filter;
pub use merge::merge;
pub use slice::{for_each_task, map, map_tasks};

/// The smallest slice worth forking for.  Below this, per-element work would
/// have to be enormous for the fork overhead (a deque push/pop plus possible
/// steal) to pay off.
const MIN_SEQ_LEN: usize = 1024;

/// How many chunks per worker the primitives aim for.  More than one, so the
/// scheduler can balance uneven per-element costs; not many more, so the
/// per-chunk overhead stays small.
const CHUNKS_PER_THREAD: usize = 8;

/// Picks the sequential cutoff for an input of `len` elements, based on the
/// current pool size.  Outside any pool this returns at least `len`, making
/// every primitive a plain sequential loop.
fn grain_for(len: usize) -> usize {
    let threads = forkjoin::current_num_threads();
    if threads <= 1 {
        return len.max(1);
    }
    (len / (threads * CHUNKS_PER_THREAD)).max(MIN_SEQ_LEN)
}
