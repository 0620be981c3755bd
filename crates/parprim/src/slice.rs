//! Element-wise parallelism over slices: [`map`] for cheap elements,
//! [`map_tasks`] and [`for_each_task`] for elements that are whole tasks.

use std::mem::MaybeUninit;

use crate::grain_for;

/// Applies `f` to every element of `input` in parallel and collects the
/// results in order.
///
/// Equivalent to `input.iter().map(f).collect()`, but split across the
/// current pool's workers when called inside [`forkjoin::Pool::install`].
/// The sequential cutoff is the element-count heuristic: per-element work is
/// assumed cheap, so nothing forks below ~1000 elements.
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
    map_to_vec(input, grain_for(input.len()), &f)
}

/// [`map`] with one fork per element: each element is a whole sub-task (a
/// chunk to filter, a subtree to build), so the element-count heuristic —
/// which would never fork over a few hundred of them — is the wrong cutoff.
///
/// ```
/// let squares = parprim::map_tasks(&[1u64, 2, 3], |x| x * x);
/// assert_eq!(squares, vec![1, 4, 9]);
/// ```
pub fn map_tasks<T, U, F>(tasks: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    map_to_vec(tasks, 1, &f)
}

fn map_to_vec<T, U, F>(input: &[T], grain: usize, f: &F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let mut out = Vec::with_capacity(input.len());
    map_into(input, out.spare_capacity_mut(), grain, f);
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

/// Calls `f` on a mutable reference to every element of `tasks`, one fork
/// per element: each element is a whole sub-task (see [`map_tasks`]).
///
/// The slice is split into disjoint halves before forking, so each element is
/// visited by exactly one worker and no synchronisation is needed inside `f`.
///
/// ```
/// let mut values = vec![1, 2, 3];
/// parprim::for_each_task(&mut values, |x| *x *= 10);
/// assert_eq!(values, vec![10, 20, 30]);
/// ```
pub fn for_each_task<T, F>(tasks: &mut [T], f: F)
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    for_each_task_rec(tasks, &f);
}

fn for_each_task_rec<T, F>(tasks: &mut [T], f: &F)
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    if tasks.len() <= 1 {
        tasks.iter_mut().for_each(f);
        return;
    }
    let mid = tasks.len() / 2;
    let (lo, hi) = tasks.split_at_mut(mid);
    forkjoin::join(|| for_each_task_rec(lo, f), || for_each_task_rec(hi, f));
}
