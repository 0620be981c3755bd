//! Element-wise parallelism over slices: [`map`], [`map_with_grain`],
//! [`for_each_mut_with_grain`].

use std::mem::MaybeUninit;

use crate::grain_for;

/// Applies `f` to every element of `input` in parallel and collects the
/// results in order.
///
/// Equivalent to `input.iter().map(f).collect()`, but split across the
/// current pool's workers when called inside [`forkjoin::Pool::install`].
///
/// ```
/// let doubled = parprim::map(&[1, 2, 3], |x| x * 2);
/// assert_eq!(doubled, vec![2, 4, 6]);
/// ```
pub fn map<T, U, F>(input: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    map_with_grain(input, grain_for(input.len()), f)
}

/// [`map`] with an explicit sequential cutoff instead of the element-count
/// heuristic.
///
/// The default cutoff assumes cheap per-element work and refuses to fork
/// below ~1000 elements — the wrong call when each element is itself a large
/// task (a chunk to fold, a subtree to build).  Pass `grain = 1` to fork for
/// every element.
///
/// ```
/// let squares = parprim::map_with_grain(&[1u64, 2, 3], 1, |x| x * x);
/// assert_eq!(squares, vec![1, 4, 9]);
/// ```
pub fn map_with_grain<T, U, F>(input: &[T], grain: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let mut out = Vec::with_capacity(input.len());
    map_into(input, out.spare_capacity_mut(), grain.max(1), &f);
    // SAFETY: `map_into` returned normally, so every one of the first
    // `input.len()` slots has been written exactly once.
    unsafe { out.set_len(input.len()) };
    out
}

fn map_into<T, U, F>(input: &[T], out: &mut [MaybeUninit<U>], grain: usize, f: &F)
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    debug_assert_eq!(input.len(), out.len());
    if input.len() <= grain {
        for (src, dst) in input.iter().zip(out.iter_mut()) {
            dst.write(f(src));
        }
        return;
    }
    let mid = input.len() / 2;
    let (in_lo, in_hi) = input.split_at(mid);
    let (out_lo, out_hi) = out.split_at_mut(mid);
    forkjoin::join(
        || map_into(in_lo, out_lo, grain, f),
        || map_into(in_hi, out_hi, grain, f),
    );
}

/// Calls `f` on a mutable reference to every element of `items`, forking
/// down to runs of `grain` elements (see [`map_with_grain`]; `grain = 1`
/// forks for every element).
///
/// The slice is split into disjoint halves before forking, so each element is
/// visited by exactly one worker and no synchronisation is needed inside `f`.
///
/// ```
/// let mut values = vec![1, 2, 3];
/// parprim::for_each_mut_with_grain(&mut values, 1, |x| *x *= 10);
/// assert_eq!(values, vec![10, 20, 30]);
/// ```
pub fn for_each_mut_with_grain<T, F>(items: &mut [T], grain: usize, f: F)
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    for_each_mut_rec(items, grain.max(1), &f);
}

fn for_each_mut_rec<T, F>(items: &mut [T], grain: usize, f: &F)
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    if items.len() <= grain {
        items.iter_mut().for_each(f);
        return;
    }
    let mid = items.len() / 2;
    let (lo, hi) = items.split_at_mut(mid);
    forkjoin::join(
        || for_each_mut_rec(lo, grain, f),
        || for_each_mut_rec(hi, grain, f),
    );
}
