//! Parallel filter: keep the elements satisfying a predicate, in order.

use std::mem::MaybeUninit;

use crate::grain_for;
use crate::slice::{for_each_task, map_tasks};

/// Collects the elements of `input` for which `keep` returns `true`,
/// preserving their order, in parallel.
///
/// Equivalent to `input.iter().filter(|x| keep(x)).cloned().collect()`, but
/// split across the current pool's workers: each chunk filters independently,
/// a sequential pass over the (few) per-chunk lengths yields every chunk's
/// output offset — the same exclusive-scan step the batched tree uses to
/// stitch per-subtree results — and the surviving elements are then moved
/// into place in parallel.
///
/// ```
/// let evens = parprim::filter(&[1, 2, 3, 4, 5, 6], |x| x % 2 == 0);
/// assert_eq!(evens, vec![2, 4, 6]);
/// ```
pub fn filter<T, F>(input: &[T], keep: F) -> Vec<T>
where
    T: Clone + Send + Sync,
    F: Fn(&T) -> bool + Sync,
{
    let chunks: Vec<&[T]> = input.chunks(grain_for(input.len()).max(1)).collect();
    // Phase 1: filter each chunk independently.
    let parts: Vec<Vec<T>> =
        map_tasks(&chunks, |c| c.iter().filter(|x| keep(x)).cloned().collect());
    let total: usize = parts.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    // Phase 2: move each chunk's survivors into its slice of the output.
    // Splitting the spare capacity at the per-part lengths *is* the exclusive
    // scan of those lengths.
    {
        let mut rest = out.spare_capacity_mut();
        let mut tasks: Vec<(Vec<T>, &mut [MaybeUninit<T>])> = Vec::with_capacity(parts.len());
        for part in parts {
            let (dst, tail) = rest.split_at_mut(part.len());
            tasks.push((part, dst));
            rest = tail;
        }
        for_each_task(&mut tasks, |(part, dst)| {
            for (x, slot) in part.drain(..).zip(dst.iter_mut()) {
                slot.write(x);
            }
        });
    }
    // SAFETY: the tasks cover the first `total` spare slots exactly, and
    // `for_each_task` returned normally, so all are initialised.
    unsafe { out.set_len(total) };
    out
}
