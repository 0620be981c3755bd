//! Type-erased jobs.
//!
//! A job is a closure plus a latch plus a slot for its result.  Jobs that
//! originate from [`join`](crate::join) live on the stack of the joining
//! worker ([`StackJob`]); the pointer handed to other workers ([`JobRef`]) is
//! therefore only valid until the owning `join` call returns, which is
//! guaranteed because `join` does not return before the job's latch is set.
//!
//! # Single-word job references
//!
//! A [`JobRef`] is exactly **one pointer**: it points at the [`JobHeader`]
//! embedded as the *first* field of every concrete job type (`#[repr(C)]`
//! guarantees the header and the job share an address).  The header stores
//! the type-erased execute function, so no fat pointer or second word is
//! needed.  This is what lets the Chase-Lev deque in
//! [`deque`](crate::deque) keep each slot a single `AtomicPtr`: slot reads
//! and writes are individual atomic operations, so the benign race in
//! `steal` (reading a slot that a concurrent `push` may be about to reuse)
//! reads a stale *whole* pointer rather than a torn half-and-half value.

use std::any::Any;
use std::cell::UnsafeCell;
use std::panic::{self, AssertUnwindSafe};

use crate::latch::Latch;

/// The payload captured when a job panics, re-thrown at the join point.
pub(crate) type PanicPayload = Box<dyn Any + Send>;

/// The type-erasure header embedded at offset 0 of every concrete job.
///
/// Given a `*const JobHeader`, the stored function pointer knows how to cast
/// it back to the concrete job type and run it.
pub(crate) struct JobHeader {
    execute_fn: unsafe fn(*const JobHeader),
}

impl JobHeader {
    /// Builds a header for a job type that embeds it at offset 0.
    pub(crate) fn new(execute_fn: unsafe fn(*const JobHeader)) -> JobHeader {
        JobHeader { execute_fn }
    }
}

/// A type-erased pointer to a job that can be executed exactly once.
#[derive(Clone, Copy, Debug)]
pub(crate) struct JobRef {
    pointer: *const JobHeader,
}

// Equality on the job address alone: two live jobs never share an address.
impl PartialEq for JobRef {
    fn eq(&self, other: &JobRef) -> bool {
        self.pointer == other.pointer
    }
}

impl Eq for JobRef {}

// SAFETY: a `JobRef` is only ever created from jobs whose closures are
// `Send`; the pointer itself is just an opaque handle shipped between worker
// threads.
unsafe impl Send for JobRef {}
unsafe impl Sync for JobRef {}

impl JobRef {
    /// Creates a job reference from a job's embedded header.
    ///
    /// # Safety
    ///
    /// `header` must be the [`JobHeader`] at offset 0 of a live job, and the
    /// job must stay valid until `execute` has completed (enforced by the
    /// latch protocol in `join`).
    pub(crate) unsafe fn new(header: *const JobHeader) -> JobRef {
        JobRef { pointer: header }
    }

    /// Runs the job.  Must be called at most once.
    pub(crate) unsafe fn execute(self) {
        ((*self.pointer).execute_fn)(self.pointer)
    }

    /// Decomposes the reference into its single raw word, for storage in an
    /// atomic deque slot.
    pub(crate) fn into_raw(self) -> *mut JobHeader {
        self.pointer as *mut JobHeader
    }

    /// Rebuilds a reference from [`JobRef::into_raw`].
    ///
    /// # Safety
    ///
    /// `pointer` must have come from `into_raw` on a job that is still live.
    pub(crate) unsafe fn from_raw(pointer: *mut JobHeader) -> JobRef {
        JobRef { pointer }
    }
}

/// A job allocated on the stack of the `join` (or `install`) caller.
///
/// The result (or panic payload) is written back into the job itself so the
/// caller can pick it up after the latch fires.  `#[repr(C)]` with the
/// header first is load-bearing: `execute_erased` casts the header pointer
/// straight back to the job.
#[repr(C)]
pub(crate) struct StackJob<L, F, R>
where
    L: Latch,
    F: FnOnce() -> R + Send,
    R: Send,
{
    header: JobHeader,
    latch: L,
    func: UnsafeCell<Option<F>>,
    result: UnsafeCell<JobResult<R>>,
}

pub(crate) enum JobResult<R> {
    None,
    Ok(R),
    Panic(PanicPayload),
}

impl<L, F, R> StackJob<L, F, R>
where
    L: Latch,
    F: FnOnce() -> R + Send,
    R: Send,
{
    pub(crate) fn new(func: F, latch: L) -> Self {
        StackJob {
            header: JobHeader::new(Self::execute_erased),
            latch,
            func: UnsafeCell::new(Some(func)),
            result: UnsafeCell::new(JobResult::None),
        }
    }

    pub(crate) fn latch(&self) -> &L {
        &self.latch
    }

    /// Builds the type-erased reference used to publish this job to thieves.
    ///
    /// # Safety
    ///
    /// The caller must keep `self` alive (and not move it) until the latch is
    /// set.
    pub(crate) unsafe fn as_job_ref(&self) -> JobRef {
        // Cast the *whole-job* pointer rather than borrowing `self.header`:
        // `execute_erased` casts back to the full job, so the pointer must
        // carry provenance for the entire object, not just the header field.
        JobRef::new((self as *const Self).cast::<JobHeader>())
    }

    /// Runs the closure inline (the "nobody stole it" fast path) and returns
    /// its result, propagating panics directly.
    pub(crate) unsafe fn run_inline(&self) -> R {
        let func = (*self.func.get()).take().expect("job already executed");
        func()
    }

    /// Removes the recorded outcome (result or panic payload), leaving
    /// `JobResult::None` behind.  Callers that need to defer unwinding (the
    /// `join` protocol must not unwind while the sibling branch may still be
    /// running) use this raw form.
    pub(crate) unsafe fn take_result(&self) -> JobResult<R> {
        std::mem::replace(&mut *self.result.get(), JobResult::None)
    }

    /// The outcome recorded by whoever executed the job, once its latch is
    /// set: the value, or the panic payload kept inert so the caller can
    /// choose when to unwind.
    pub(crate) unsafe fn take_outcome(&self) -> std::thread::Result<R> {
        match self.take_result() {
            JobResult::None => unreachable!("latch set but no job result recorded"),
            JobResult::Ok(r) => Ok(r),
            JobResult::Panic(payload) => Err(payload),
        }
    }

    /// Extracts the result after the latch has been set by a thief,
    /// re-throwing the job's panic (if any) on the calling thread.
    pub(crate) unsafe fn extract_result(&self) -> R {
        self.take_outcome()
            .unwrap_or_else(|payload| panic::resume_unwind(payload))
    }

    /// The type-erased execute function stored in the header.
    ///
    /// # Safety
    ///
    /// `header` must point at the header of a live, not-yet-executed
    /// `StackJob<L, F, R>` of exactly these type parameters.
    unsafe fn execute_erased(header: *const JobHeader) {
        // `#[repr(C)]` puts the header at offset 0, so the header pointer
        // *is* the job pointer.
        let this = &*(header as *const Self);
        let func = (*this.func.get()).take().expect("job already executed");
        let result = match panic::catch_unwind(AssertUnwindSafe(func)) {
            Ok(value) => JobResult::Ok(value),
            Err(payload) => JobResult::Panic(payload),
        };
        *this.result.get() = result;
        // The latch must be the very last thing touched: as soon as it is
        // set, the owner may deallocate the job.
        Latch::set(&this.latch);
    }
}

/// A fire-and-forget job on the heap: no latch and no result slot, because
/// nobody waits for it ([`Pool::spawn`](crate::Pool::spawn)).  Executing it
/// frees it.  `#[repr(C)]` with the header first, as for [`StackJob`].
#[repr(C)]
pub(crate) struct HeapJob<F: FnOnce() + Send> {
    header: JobHeader,
    func: F,
}

impl<F: FnOnce() + Send> HeapJob<F> {
    /// Boxes `func` and leaks it as a job reference; the one `execute` of
    /// that reference runs and frees it.
    pub(crate) fn into_job_ref(func: F) -> JobRef {
        let job = Box::new(HeapJob {
            header: JobHeader::new(Self::execute_erased),
            func,
        });
        // SAFETY: the header is at offset 0 of the leaked job, which lives
        // until `execute_erased` reclaims it.
        unsafe { JobRef::new(Box::into_raw(job).cast::<JobHeader>()) }
    }

    /// Runs and frees the job.  A panic has nowhere to go — no caller waits
    /// for the result — so it aborts the process rather than unwind into
    /// the worker loop or vanish.
    ///
    /// # Safety
    ///
    /// `header` must come from [`HeapJob::into_job_ref`] of exactly this
    /// `F`, executed at most once.
    unsafe fn execute_erased(header: *const JobHeader) {
        let job = Box::from_raw(header as *mut Self);
        if panic::catch_unwind(AssertUnwindSafe(job.func)).is_err() {
            std::process::abort();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latch::SpinLatch;

    #[test]
    fn heap_job_runs_once_and_frees_its_closure() {
        let token = std::sync::Arc::new(());
        let held = std::sync::Arc::clone(&token);
        let job_ref = HeapJob::into_job_ref(move || drop(held));
        assert_eq!(std::sync::Arc::strong_count(&token), 2);
        unsafe { job_ref.execute() };
        assert_eq!(std::sync::Arc::strong_count(&token), 1);
    }

    #[test]
    fn stack_job_roundtrip_through_job_ref() {
        let job = StackJob::new(|| 6 * 7, SpinLatch::new());
        let job_ref = unsafe { job.as_job_ref() };
        assert!(!job.latch().probe());
        unsafe { job_ref.execute() };
        assert!(job.latch().probe());
        assert_eq!(unsafe { job.extract_result() }, 42);
    }

    #[test]
    fn stack_job_records_panic_payload() {
        let job: StackJob<_, _, ()> = StackJob::new(|| panic!("boom"), SpinLatch::new());
        let job_ref = unsafe { job.as_job_ref() };
        unsafe { job_ref.execute() };
        assert!(job.latch().probe());
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| unsafe {
            job.extract_result();
        }));
        assert!(caught.is_err());
    }

    #[test]
    fn run_inline_bypasses_result_slot() {
        let job = StackJob::new(|| String::from("inline"), SpinLatch::new());
        let value = unsafe { job.run_inline() };
        assert_eq!(value, "inline");
        // Latch is intentionally not set by `run_inline`; the joining worker
        // already has the value in hand.
        assert!(!job.latch().probe());
    }

    #[test]
    fn job_ref_raw_roundtrip_preserves_identity() {
        let job = StackJob::new(|| 1, SpinLatch::new());
        let job_ref = unsafe { job.as_job_ref() };
        let raw = job_ref.into_raw();
        let back = unsafe { JobRef::from_raw(raw) };
        assert_eq!(job_ref, back);
        unsafe { back.execute() };
        assert_eq!(unsafe { job.extract_result() }, 1);
    }
}
