//! Concurrent front-end for batched stores.
//!
//! The paper's data structures consume *batches*: sorted runs of keys
//! processed wholesale through [`batchapi::BatchedMap`].  Real traffic does
//! not arrive that way — many client threads each issue *single* inserts,
//! removes and lookups.  [`ConcurrentMap`] (and [`ConcurrentSet`], its
//! `V = ()` alias) is the layer between the two worlds.  **Writes** are
//! serialised by one lock, the *combiner flag* — a [`std::sync::Mutex`] over
//! the backend, the round counter and the commit sink; the name outlives the
//! flat combining it once served.  A point write takes it,
//! applies its own op to the backing store's point path and commits it as a
//! round of one — one sequence number, one published snapshot, one call
//! into the store's [`CommitSink`] — before it returns its result.  Writes
//! that arrive as whole batches commit the same way, one round per batch,
//! and when large enough to parallelise run inside a [`forkjoin::Pool`].
//! **Reads** never enter a round: they are traversals of the snapshot the
//! last round published, kept in [`READ_STRIPES`] copies, each behind a
//! [`std::sync::RwLock`] of its own that a reader thread keeps to itself
//! and a publish write-locks for a pointer swap at a time (see *Reads*
//! below) — in the paper, too, only `Insert`/`Remove` batches restructure
//! the tree.
//!
//! **Why a point write does not combine.**  Flat combining (Hendler,
//! Incze, Shavit & Tzafrir, SPAA '10) would have a writer that finds the
//! flag taken publish its op for the holder to apply in the holder's round.
//! This crate had that path — a lock-free list of op slots pinned on client
//! stacks, drained by whoever held the flag — and its rounds barely grew: over
//! a two-shard durable tier of 10⁶ keys with 80 % point writes (2-vCPU VM),
//! rounds held 1.0000 ops in the mean at 2 clients, 1.06 at 8 and 1.13–1.14
//! at 32, while the flag's waiters simply took it in turn.  Nor would a bigger
//! round pay as a batch: on a 10⁶-key `pbist::IstSet`, forming a sorted
//! batch from a k-op round and fanning the flags back cost 1.4–2.2× the k
//! point ops it replaced at k = 2 … 16, and the tree does not fork a batch
//! of fewer than [`POOL_CUTOFF`] keys however it is called.
//!
//! # Protocol
//!
//! 1. **Hold** — a writer locks the combiner flag (see *Waiting*); the
//!    mutex's release/acquire carries the backing store's mutations from
//!    each holder to the next.
//! 2. **Apply** — the holder runs its own op against the backend's point
//!    path ([`BatchedMap::upsert_one`] / [`BatchedMap::remove_one`]) on its
//!    own thread; a whole batch runs against the batched path instead (see
//!    *Whole batches*).
//! 3. **Commit** — one seq, one snapshot publish, one
//!    [`CommitSink::commit`] with the round's kind, keys, values and results
//!    borrowed from the caller, nothing cloned.  The publish comes first: a
//!    round is in the snapshot before its caller can return.
//! 4. **Release** — the holder unlocks the flag.  Only then does a point
//!    round's caller drop the snapshot its publish displaced (see *Reads*):
//!    the next writer need not wait out the frees of a three-node path
//!    copy.  A pooled round has already handed what it displaced to the
//!    pool ([`forkjoin::Pool::spawn`]) before it let go, so its caller drops
//!    nothing.
//!
//! # Waiting
//!
//! A writer that finds the flag taken waits for it to come free.  How it
//! waits depends on what the holder is doing:
//!
//! * **Behind a point round it polls.**  A point round is a path copy, a
//!   publish and a commit: microseconds.  Parking (a futex sleep, a wake-up
//!   syscall on the holder's side, and the scheduler's latency before the
//!   sleeper runs again) costs more than the whole round, so the waiter
//!   polls `try_lock` — no `yield_now`, no syscall — for a fixed budget
//!   (`POLL_BUDGET`, 32 µs) and calls the blocking `lock()` only if that
//!   runs out: a holder that lost its CPU, or a point op that is slow for
//!   reasons of the backend's own.  The budget is a constant taken from the
//!   measured distribution of these waits, not an option: see its doc
//!   comment for the numbers.
//! * **Behind a long round it blocks at once.**  A holder about to run a
//!   whole pre-sorted batch — and only that — first marks its round
//!   *long* (a flag beside the mutex, cleared before the unlock).  Such a
//!   round lasts tens of microseconds to milliseconds and — on a machine
//!   with as many clients as cores — needs the waiter's CPU for its pool
//!   workers; polling through it would be pure loss.
//!
//! Either way the mutex's own `lock()` is the only place a waiter sleeps,
//! so the polling phase changes *when* a waiter sleeps, never whether it
//! can be woken.  `combine.wait_ns` records each wait (when the
//! front-end's timed metrics are on — they follow the pool's
//! [`forkjoin::PoolBuilder::metrics`] switch) and `combine.sleeps` counts
//! the ones that went on to `lock()`.
//!
//! # Whole batches
//!
//! Writes that *already* arrive as sorted batches — a sharded service
//! tier routing per-shard sub-batches, a replayed log — are one round
//! each: [`ConcurrentMap::batch_insert`] / [`ConcurrentMap::batch_remove`]
//! take the flag as a point write does, mark it long, and execute the
//! whole batch as one committed round (handed to the sink as the batch's
//! keys, values and flags, counted, and poison-checked like any other).  A
//! batch of at least [`POOL_CUTOFF`] keys runs under
//! [`forkjoin::Pool::install`], a smaller one on the caller's thread; these
//! are the only rounds that enter the pool, and the only ones whose
//! displaced snapshot an idle worker frees (see *Publication protocol*).
//!
//! # Linearisability
//!
//! Each round runs whole under the flag and is one client call, so it
//! commits atomically: a point write linearises at its round's commit, and
//! a whole batch's ops at its round's commit, in key order.  Rounds are
//! ordered by flag succession, which respects real time (a call that
//! returned before another began released the flag before the other took
//! it, so its round comes first).  The [`CommitSink`] receives exactly that
//! order, under the flag.  A front-end built over a [`RoundLog`] keeps it
//! for [`ConcurrentMap::take_rounds`], so tests can replay it against a
//! sequential oracle — `tests/combine_stress.rs` does exactly that, and
//! checks every read against the replayed state of the rounds its snapshot
//! can have reflected.
//!
//! # Round sequence numbers
//!
//! Every committed round carries a sequence number: strictly increasing,
//! gap-free, starting at [`Options::first_seq`]` + 1` (the `seq` handed to
//! [`CommitSink::commit`]).  Because the seq order *is* the linearisation
//! order, a single `u64` names any prefix of the history, which is what two
//! consumers need:
//!
//! * **Durable replay is idempotent.**  A write-ahead log behind the
//!   [`CommitSink`] records each round under its seq; a snapshot taken via
//!   [`ConcurrentMap::snapshot_keys`] records the high-water mark it
//!   reflects — and taken under [`ConcurrentMap::hold_sink`], that mark is
//!   exactly the last round the sink has seen.  Recovery loads the snapshot
//!   and applies only records with `seq >` the mark — records at or below
//!   it (or replayed twice across restarts) change nothing.
//! * **Read-your-writes for readers.**  A client that completed a write in
//!   round *s* reads from a published snapshot whose seq is `>= s` — its
//!   own write is visible — because a round publishes the new root
//!   *before* its caller returns.
//!
//! # Reads
//!
//! The read-only operations — [`ConcurrentMap::contains`],
//! [`ConcurrentMap::get`], their batched forms, [`ConcurrentMap::len`],
//! [`ConcurrentMap::rank`], [`ConcurrentMap::min`] / [`ConcurrentMap::max`],
//! the ordered queries and [`ConcurrentMap::snapshot_entries`] — never
//! take the combiner flag and never wait for it.  They read the last published
//! [`ReadSnapshot`]: a clone of the backend (values included, sharing
//! structure with the live store via copy-on-write) paired with the seq of
//! the round that produced it.  The snapshot is *typed*: a read is a plain
//! [`batchapi::MapView`] call on an `&S`.
//!
//! **Publication protocol.**  Publication is `S::clone()`.  At the end of
//! every round the flag holder — still holding it — clones the
//! backend (one `Arc` bump for `pbist::IstMap`, two for
//! `baselines::SortedArrayMap`; a backend whose `Clone` copies its contents
//! pays that copy every round) into one `Arc<ReadSnapshot>` and publishes
//! it to the snapshot slot.  The slot is [`READ_STRIPES`] stripes, each an
//! `RwLock<Arc<ReadSnapshot>>` and a read count on a cache line of its own;
//! a reader thread keeps the stripe its first read drew (round-robin), so
//! a point read's atomic read-modify-writes — the guard's acquire and
//! release, the count — stay on a line no reader of another stripe writes.
//! The publish takes every stripe's write guard, in index order, swaps a
//! clone of the one new `Arc` into each and only then releases them all:
//! while it holds the last guard no stripe serves a read, and after it
//! every stripe serves the new version, so the swap is one linearisation
//! point, as it was with one slot (the big-reader lock of Hsieh & Weihl,
//! "Scalable Reader-Writer Locks for Parallel Systems", IPPS '92).  A point
//! read runs its query under its stripe's read guard; a long read (a scan,
//! a batch lookup, [`ConcurrentMap::read_snapshot`]) clones the `Arc` out
//! and lets go.  Every round publishes, so the published snapshot's seq
//! *is* the committed high-water mark ([`ConcurrentMap::committed_seq`]).
//!
//! A publish displaces exactly one version, the one the previous round
//! published: [`READ_STRIPES`] clones of one `Arc`, the last of them
//! usually its last reference.  Who frees it depends on the round:
//!
//! * **A point round** (and a whole batch under [`POOL_CUTOFF`]): its caller
//!   drops it only after it has committed its round and released the flag;
//!   `combine.publish_ns` times clone, swap and that drop together.
//! * **A pooled round**: what it displaced — the version one round old,
//!   whose leaves this round just copied from, a few thousand of them on a
//!   large batch — goes to the pool as one [`forkjoin::Pool::spawn`]ed
//!   teardown, freed by an idle worker while the caller starts its next
//!   call (the RCU idea: a version is freed after its grace period, on
//!   someone else's time).  A later `install` queues behind it in the
//!   pool's FIFO injector, so a shard holds at most about one unfreed
//!   version per worker.  `combine.publish_ns` then ends at the publish.
//!
//! **Staleness contract.**  A read observes the state after some round
//! `seq >= ` the client's last acknowledged write (publish happens before
//! acknowledgement, see above) but possibly older than rounds still in
//! flight.  Each read is linearisable — it returns the state at one point
//! between its invocation and its response.  The same floor holds for any
//! mark the caller *observed*, however it learned it — a
//! [`ConcurrentMap::committed_seq`], a [`ReadSnapshot::seq`], the seq of its
//! own acknowledged write, relayed from another thread or not:
//! [`ConcurrentMap::read_snapshot`]`().seq()` is `>=` that mark on the first
//! load, with no helping, because a seq is observable only once its round
//! has published to every stripe — a read on one stripe and a read on
//! another that follows it see the same publishes — and no stripe's seq
//! goes back.
//!
//! A read is not wait-free, but it never waits for a round: the write
//! guards are held only for the pointer swaps.  std's `RwLock` queues a new
//! reader behind a waiting writer, so a read can wait for at most one
//! publish, on its own stripe: the swaps plus the point reads that were in
//! flight, on any stripe, when the publish began.  Nothing else holds a
//! stripe: the swap cannot panic, and a read guard's panic (a user `Ord`
//! that throws mid-query) does not poison an `RwLock`.
//!
//! **Poisoning.**  Reads still fail fast on a poisoned front-end:
//! they panic like every other operation rather than serve reads from a
//! history whose tail is indeterminate.  They never wait for the flag —
//! poisoned or not, a read waits at most for the publish above, then completes
//! or panics.
//!
//! # Contract
//!
//! Writes must be issued from threads *outside* the backing pool: a
//! pool worker blocking as a client could leave the flag holder's own
//! `install` without a worker to run on.  With two or more such writers
//! parked on the flag, every worker of the pool could be parked while the
//! holder's `install` waits for one of them — a deadlock.  So a write is
//! never offered to the pool.  The service pattern — client threads in
//! front, the pool as compute backend — satisfies this naturally.
//!
//! A *read* may run on a pool worker, this front-end's or another's:
//! it takes no flag, so it never waits for a round (see *Reads*).  A
//! sharded tier does exactly that, offering each shard's share of a batched
//! lookup to the shard's own pool ([`ConcurrentMap::pool`],
//! [`forkjoin::Pool::join`]).
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//!
//! let pool = forkjoin::Pool::new(2).expect("pool");
//! let backing = pbist::IstSet::from_unsorted((0..1000u64).collect());
//! let set = Arc::new(combine::ConcurrentSet::new(backing, pool));
//!
//! let handles: Vec<_> = (0..4u64)
//!     .map(|t| {
//!         let set = Arc::clone(&set);
//!         std::thread::spawn(move || {
//!             assert!(set.contains(&t));          // 0..1000 pre-loaded
//!             set.insert(10_000 + t);             // distinct new keys
//!             assert!(!set.remove(&(20_000 + t))) // never present
//!         })
//!     })
//!     .collect();
//! for h in handles {
//!     h.join().unwrap();
//! }
//! assert_eq!(set.len(), 1004);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::array;
use std::cell::Cell;
use std::fmt;
use std::marker::PhantomData;
use std::mem;
use std::ops::Bound;
use std::slice;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{
    Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError,
};
use std::time::{Duration, Instant};

use batchapi::{Batch, BatchedMap, KvBatch};
use forkjoin::Pool;
use obs::{Counter, Histogram, Registry};

/// How long a waiting client polls `try_lock` — no syscall, no
/// `yield_now` — before it blocks in `lock()` (see the module docs'
/// *Waiting* section).
///
/// Set from the measured wait histogram, not guessed: two clients spread
/// over two `ConcurrentSet<_, IstSet>` shards of 5·10⁵ keys on the 2-vCPU
/// box (`combine.wait_ns`, 1.8·10⁵ waits, point rounds only) wait 1.7 µs in
/// the mean, ≤ 2 µs at the median, ≤ 8 µs at p99 and ≤ 32–64 µs at p99.9 —
/// the tail being combiners that lost their vCPU mid-round.  A park costs
/// about as much as that p99.9 (futex sleep + wake syscall + 20–50 µs before
/// the sleeper runs again), so polling up to there and parking beyond it
/// loses to neither.  With the budget at 8 / 20 / 32 / 50 µs the share of
/// waits that park is 0.5 / 0.1 / 0.06 / 0.02 %, throughput flat (400–470
/// kops/s) across all four; the spin → `yield_now` → condvar ladder this
/// replaces (64 spins, 16 yields) parked 56 % of waits, mean wait 19.8 µs.
const POLL_BUDGET: Duration = Duration::from_micros(32);

/// Polls between two reads of the clock while waiting: a poll is a load, a
/// `try_lock` and a pause, so the deadline check is amortised over this
/// many.
const POLLS_PER_CLOCK_READ: u32 = 32;

/// How many stripes the published snapshot is kept in (see the module
/// docs' *Publication protocol*): each reader thread reads, and counts its
/// reads, on one stripe, and a publish write-locks them all.
///
/// One slot made every read's three atomic read-modify-writes — the read
/// guard's acquire and release and the read count — land on one line that
/// all readers share: on a 2-vCPU VM, two threads' `contains` over 4 096
/// hot keys of a 5·10⁵-key `pbist::IstSet` took 309–386 ns a read against
/// 114–128 ns single-threaded, and 138–177 ns on two stripes; over
/// uniform keys 364–498 ns against 225–276, and 214–260 striped.  Four
/// stripes give two or four client threads a line each when their first
/// reads are drawn in turn, and cost a publish four uncontended write
/// guards; more would only lengthen the publish.  A constant, not an
/// option: the line traffic it removes is the hardware's, not the
/// workload's.
pub const READ_STRIPES: usize = 4;

thread_local! {
    /// This thread's stripe, drawn at its first read — `usize::MAX` until
    /// then.  Const-initialised and without a destructor, so it never
    /// allocates.
    static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The draw counter behind [`STRIPE`]: thread after thread takes the next
/// stripe, across every front-end of the process.
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

/// The calling thread's stripe index, drawn round-robin at its first call.
fn stripe_index() -> usize {
    STRIPE.with(|stripe| {
        if stripe.get() == usize::MAX {
            stripe.set(NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % READ_STRIPES);
        }
        stripe.get()
    })
}

/// One stripe of the snapshot slot: a copy of the published `Arc` behind a
/// lock of its own, and the reads served from it.  Aligned to 128 bytes —
/// a cache line and the one the adjacent-line prefetcher pairs with it — so
/// the readers of one stripe write no line that another stripe's touch.
#[repr(align(128))]
struct Stripe<S> {
    slot: RwLock<Arc<ReadSnapshot<S>>>,
    /// Snapshot reads served from this stripe; summed into
    /// `combine.snapshot_reads` by [`ConcurrentMap::metrics`].
    reads: AtomicU64,
}

impl<S> Stripe<S> {
    /// The slot's read guard; a stripe cannot be poisoned (see the module
    /// docs' *Staleness contract*), so its poison is ignored.
    fn read(&self) -> RwLockReadGuard<'_, Arc<ReadSnapshot<S>>> {
        self.slot.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The slot's write guard, its poison ignored as [`Stripe::read`]'s.
    fn write(&self) -> RwLockWriteGuard<'_, Arc<ReadSnapshot<S>>> {
        self.slot.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Counts one snapshot read served here.
    fn count(&self) {
        self.reads.fetch_add(1, Ordering::Relaxed);
    }
}

/// A whole batch ([`ConcurrentMap::batch_insert`] /
/// [`ConcurrentMap::batch_remove`]) of at least this many keys executes
/// inside the fork-join pool; a smaller one runs on the caller's thread.
///
/// 512 because that is where the tree starts to fork: in `pbist` a batch of
/// at least 512 keys forks per child and a smaller one descends
/// sequentially, so an `install` for a smaller batch would pay the pool
/// round trip (tens of microseconds) and then run on one worker anyway.
/// A point write never reaches it: its round is one op.
///
/// The same line decides who frees the version a round displaces: a pooled
/// round spawns its teardown on the pool, any other round's caller drops it
/// after the flag's release (see the module docs' *Publication protocol*).
///
/// And it decides which reads a sharded tier offers: a batched lookup's
/// share of at least this many keys for one shard is offered to that
/// shard's pool to run beside the caller's own share, a smaller one runs on
/// the caller, because below it the tree would not fork either.
pub const POOL_CUTOFF: usize = 512;

/// What a write does to the store, and so what a round does: a round is a
/// point write or a whole batch of one kind.  Rounds carry writes only — a
/// read never enters one (see the module docs' *Reads* section).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Upsert a key (with its value); the result is `true` iff the key was
    /// newly inserted.
    Insert,
    /// Remove a key; the result is `true` iff it was present.
    Remove,
}

/// Where a [`ConcurrentMap`]'s committed rounds go: the store's commit log,
/// kept by whoever needs one — `durable`'s write-ahead log, the replay
/// oracles' in-memory [`RoundLog`] — and [`NoLog`] by default.
///
/// [`CommitSink::commit`] runs inside every round's commit, under the
/// combiner flag: after the round's snapshot is published, before the
/// round's caller gets its results.  So a sink sees every round exactly once, in
/// seq order, with no lock of its own, and a client whose call has returned
/// finds its round already in the sink.  Between commits the sink is
/// reached through [`ConcurrentMap::hold_sink`].
pub trait CommitSink<K, V>: Send {
    /// Takes round `seq`: `kind` applied to `keys` in linearisation order
    /// (one key for a point write), `results[i]` what `keys[i]` returned,
    /// and `vals[i]` the value it wrote (`vals` is `None` for a remove).
    fn commit(&mut self, seq: u64, kind: OpKind, keys: &[K], vals: Option<&[V]>, results: &[bool]);
}

/// The default [`CommitSink`]: keeps nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoLog;

impl<K, V> CommitSink<K, V> for NoLog {
    fn commit(&mut self, _: u64, _: OpKind, _: &[K], _: Option<&[V]>, _: &[bool]) {}
}

/// An in-memory [`CommitSink`]: every committed round, its keys and values
/// cloned, kept for [`ConcurrentMap::take_rounds`] to drain — what the
/// replay oracles read.  Nothing else drains it, so it grows until taken.
#[derive(Debug)]
pub struct RoundLog<K, V = ()>(Vec<Round<K, V>>);

impl<K, V> Default for RoundLog<K, V> {
    fn default() -> RoundLog<K, V> {
        RoundLog(Vec::new())
    }
}

impl<K: Clone + Send, V: Clone + Send> CommitSink<K, V> for RoundLog<K, V> {
    fn commit(&mut self, seq: u64, kind: OpKind, keys: &[K], vals: Option<&[V]>, results: &[bool]) {
        let op = |(i, (key, &result)): (usize, (&K, &bool))| RoundOp {
            key: key.clone(),
            val: vals.map(|vals| vals[i].clone()),
            result,
        };
        let ops = keys.iter().zip(results).enumerate().map(op).collect();
        self.0.push(Round { seq, kind, ops });
    }
}

/// One operation of a committed round, for the [`RoundLog`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundOp<K, V = ()> {
    /// The key it applied to.
    pub key: K,
    /// The value an `Insert` wrote (`None` for a `Remove`) — what a
    /// replay needs to redo the upsert.
    pub val: Option<V>,
    /// The result handed back to the issuing client.
    pub result: bool,
}

/// One committed round: its kind and its operations in linearisation order
/// — a point write's one op, or a whole batch's in batch (key) order.
/// Replaying rounds in commit order against a sequential map, each round's
/// ops in the order given, must reproduce every `result` — the stress
/// suite's oracle check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Round<K, V = ()> {
    /// The round's sequence number: rounds commit with strictly increasing,
    /// gap-free sequence numbers starting at [`Options::first_seq`]` + 1`,
    /// so the log order *is* the seq order and any prefix of the history is
    /// named by a single `u64` high-water mark.  This is what makes
    /// downstream replay idempotent (a durability tier skips records at or
    /// below its snapshot's seq) and what a read-your-writes contract hangs
    /// off (see the module docs' *Reads* section).
    pub seq: u64,
    /// What every op of the round did.
    pub kind: OpKind,
    /// The committed operations, in linearisation order.
    pub ops: Vec<RoundOp<K, V>>,
}

/// Construction-time knobs for [`ConcurrentMap`]: one, set by `durable`,
/// which resumes a recovered history's numbering.  Where committed rounds
/// go is the front-end's [`CommitSink`], a type rather than a knob;
/// everything else about a round is decided by its traffic.
#[derive(Debug, Clone, Default)]
pub struct Options {
    /// Sequence number the round counter starts *after*: the first
    /// committed round gets seq `first_seq + 1`.  `0` (the default) numbers
    /// a fresh history `1, 2, 3, …`; a durability tier recovering an
    /// existing history passes the highest sequence number it replayed, so
    /// new rounds continue the old numbering and replay stays idempotent
    /// across restarts.
    pub first_seq: u64,
}

/// Handles cloned out of the registry once at construction, so the hot
/// path hits the atomics directly and never touches the registry mutex.
struct CombineMetrics {
    /// `combine.rounds` — committed rounds, point and whole-batch.
    rounds: Arc<Counter>,
    /// `combine.ops` — client operations completed across all rounds.
    ops: Arc<Counter>,
    /// `combine.pooled_rounds` — rounds that executed inside the pool.
    pooled_rounds: Arc<Counter>,
    /// `combine.poisoned` — combiner panics that poisoned the front-end.
    poisoned: Arc<Counter>,
    /// `combine.batch_rounds` — rounds that entered as a whole pre-sorted
    /// batch through the batched surface (a sharded tier's sub-batches),
    /// rather than as one point write.
    batch_rounds: Arc<Counter>,
    /// `combine.round_size` — ops per committed round.
    round_size: Arc<Histogram>,
    /// `combine.snapshot_reads` — read operations served from the
    /// published snapshot (each batched read counts once).  Reads count on
    /// their own stripe; [`ConcurrentMap::metrics`] raises this to the
    /// stripes' sum (`set_max`), so it is exact once the front-end is
    /// quiescent.
    snapshot_reads: Arc<Counter>,
    /// `combine.sleeps` — waits that ran out of polling (or met a long
    /// round) and went on to the mutex's blocking `lock()`.
    sleeps: Arc<Counter>,
    /// `combine.publish_ns` — what publication costs a round: the backend
    /// clone and the swaps under the stripes' write guards, and for a round
    /// outside the pool also dropping the version it displaced (the drop
    /// runs after the flag's release).  A pooled round's sample ends at its
    /// swap, since its teardown runs on the pool.  Timed only when the
    /// front-end's `obs` guard is on.
    publish_ns: Arc<Histogram>,
    /// `combine.wait_ns` — how long a writer that found the flag taken
    /// waited (polling plus any sleep) before it was free.  Timed only when the `obs` guard is on.
    wait_ns: Arc<Histogram>,
}

impl CombineMetrics {
    fn new(registry: &Registry) -> CombineMetrics {
        // `combine.publish_clone_keys` is constant 0: publication is
        // `S::clone()` by type, so there is no copying fallback left to
        // count.  It stays registered because the benchmark ladder and the
        // CI counter gate read it by name.
        registry.counter("combine.publish_clone_keys");
        CombineMetrics {
            rounds: registry.counter("combine.rounds"),
            ops: registry.counter("combine.ops"),
            pooled_rounds: registry.counter("combine.pooled_rounds"),
            poisoned: registry.counter("combine.poisoned"),
            batch_rounds: registry.counter("combine.batch_rounds"),
            round_size: registry.histogram("combine.round_size"),
            snapshot_reads: registry.counter("combine.snapshot_reads"),
            sleeps: registry.counter("combine.sleeps"),
            publish_ns: registry.histogram("combine.publish_ns"),
            wait_ns: registry.histogram("combine.wait_ns"),
        }
    }
}

/// A clone of the backend `S` paired with the seq of the round that
/// produced it — what every read is served from (see the module docs'
/// *Reads* section).
///
/// The clone shares structure with the live store (copy-on-write), so
/// holding one is cheap; its contents never change, no matter how many
/// rounds commit after it was published.
pub struct ReadSnapshot<S> {
    seq: u64,
    view: S,
}

impl<S> fmt::Debug for ReadSnapshot<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReadSnapshot")
            .field("seq", &self.seq)
            .finish_non_exhaustive()
    }
}

impl<S> ReadSnapshot<S> {
    /// Sequence number of the round whose state this snapshot is.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The frozen contents: query them through [`batchapi::MapView`].
    pub fn view(&self) -> &S {
        &self.view
    }
}

/// A concurrent ordered key→value store serving per-operation traffic from
/// any number of client threads over a [`BatchedMap`] backend: each write
/// is a round under the combiner flag, each read a snapshot query.
///
/// See the [module docs](self) for the protocol and its memory-ordering
/// contract.  Shared by reference (typically `Arc`); all operations take
/// `&self`.  Rounds return one `bool` per op whatever `V` is; reads are
/// served from the published snapshot, which carries the values.
///
/// `L` is the [`CommitSink`] every committed round goes to ([`NoLog`]
/// unless built [`with_sink`](ConcurrentMap::with_sink)).
///
/// # Poisoning
///
/// If a backend operation panics while a round executes, the store's
/// state is indeterminate.  The front-end then behaves like a poisoned
/// `Mutex`: the panic propagates on the round's thread, writers waiting for
/// the flag panic instead of blocking forever, and every subsequent
/// operation panics immediately.
pub struct ConcurrentMap<K, V, S, L = NoLog> {
    /// The combiner flag: whoever holds it owns the backend, the round
    /// counter and the sink.
    writer: Mutex<Writer<S, L>>,
    /// Set by a holder about to run a whole batch, cleared before it
    /// unlocks: waiters block at once rather than poll through the round
    /// (see the module docs' *Waiting*).  A hint, so `Relaxed`.
    long_round: AtomicBool,
    /// The last published read snapshot (a clone of the backend + seq),
    /// one `Arc` in every stripe, swapped by the holder at the end of every
    /// round, so its seq is the committed high-water mark.  The write
    /// guards are held only for the swaps.
    stripes: [Stripe<S>; READ_STRIPES],
    /// Fork-join pool executing whole batches of at least [`POOL_CUTOFF`]
    /// keys, and freeing the versions their publishes displace.
    pool: Pool,
    /// Set when a round panicked (a backend op threw): the backing store's
    /// state is indeterminate, so every subsequent operation panics instead
    /// of running on it.  The front-end's own, checked by reads too; the
    /// std mutex's poison is ignored.
    poisoned: AtomicBool,
    /// Named-metric registry behind [`ConcurrentMap::metrics`]; the hot
    /// path goes through the pre-cloned handles in `metrics` instead.
    registry: Registry,
    /// See [`CombineMetrics`].
    metrics: CombineMetrics,
    /// Gates the metrics that need the clock (`combine.publish_ns`,
    /// `combine.wait_ns`).  Follows the pool's telemetry switch
    /// ([`forkjoin::PoolBuilder::metrics`]): a stack built to be measured is
    /// measured at every layer, and the default pays no clock reads.
    obs: obs::Obs,
    /// The store's key and value types: only the backend holds either.
    types: PhantomData<fn() -> (K, V)>,
}

/// What the combiner flag guards.
struct Writer<S, L> {
    /// The backing batched store.
    set: S,
    /// Sequence number of the most recently committed round (starts at
    /// [`Options::first_seq`]).
    seq: u64,
    /// Where committed rounds go: reached by `commit_round`, and by
    /// [`ConcurrentMap::hold_sink`].
    sink: L,
}

/// A snapshot displaced by a publish, waiting to be dropped outside the
/// critical section, with what its publish has cost so far (when timed).
struct Retired<S> {
    snap: Arc<ReadSnapshot<S>>,
    publish_ns: Option<u64>,
}

/// A concurrent ordered set: the `V = ()` instance of [`ConcurrentMap`]
/// (its inserts carry a zero-sized value), with the value-less
/// [`insert`](ConcurrentMap::insert) spelling.
pub type ConcurrentSet<K, S, L = NoLog> = ConcurrentMap<K, (), S, L>;

/// A hold of the combiner flag.  Its `Drop` runs on every exit —
/// **including unwinds** — before the `writer` field releases the lock
/// (fields drop after `Drop::drop`): a panic under the flag marks the
/// front-end poisoned first, so the next holder observes the poison rather
/// than running on a half-mutated store, and the long-round mark is
/// cleared.  Only a panic that began under the flag poisons: a write made
/// from a destructor while another panic unwinds completes, and leaves the
/// front-end as healthy as std's `Mutex` would.
struct CombinerGuard<'a, K, V, S, L> {
    map: &'a ConcurrentMap<K, V, S, L>,
    writer: MutexGuard<'a, Writer<S, L>>,
    /// Whether the thread was already unwinding when it took the flag.
    panicking: bool,
}

impl<'a, K, V, S, L> CombinerGuard<'a, K, V, S, L> {
    fn new(map: &'a ConcurrentMap<K, V, S, L>, writer: MutexGuard<'a, Writer<S, L>>) -> Self {
        let panicking = std::thread::panicking();
        CombinerGuard {
            map,
            writer,
            panicking,
        }
    }
}

impl<K, V, S, L> Drop for CombinerGuard<'_, K, V, S, L> {
    fn drop(&mut self) {
        if std::thread::panicking() && !self.panicking {
            self.map.metrics.poisoned.inc();
            // Pairs with the `Acquire` loads of `is_poisoned` and
            // `check_poisoned`; the next holder also sees it through the
            // mutex, which this store precedes.
            self.map.poisoned.store(true, Ordering::Release);
        }
        self.map.long_round.store(false, Ordering::Relaxed);
    }
}

impl<K, V, S: Clone, L> ConcurrentMap<K, V, S, L> {
    /// Wraps `set` with explicit [`Options`], committing every round to
    /// `sink`.
    pub fn with_sink(set: S, pool: Pool, options: Options, sink: L) -> ConcurrentMap<K, V, S, L> {
        let registry = Registry::new();
        let metrics = CombineMetrics::new(&registry);
        let obs = obs::Obs::new(pool.metrics().enabled);
        // Publish the initial contents so the read path has a snapshot
        // before any round commits; its mark is the pre-history seq.
        let snap = Arc::new(ReadSnapshot {
            seq: options.first_seq,
            view: set.clone(),
        });
        let stripes = array::from_fn(|_| Stripe {
            slot: RwLock::new(Arc::clone(&snap)),
            reads: AtomicU64::new(0),
        });
        ConcurrentMap {
            writer: Mutex::new(Writer {
                set,
                seq: options.first_seq,
                sink,
            }),
            long_round: AtomicBool::new(false),
            stripes,
            pool,
            poisoned: AtomicBool::new(false),
            registry,
            metrics,
            obs,
            types: PhantomData,
        }
    }
}

impl<K, V, S, L> ConcurrentMap<K, V, S, L> {
    /// Drops a retired snapshot — usually its last reference, so this frees
    /// the path copy of the round that replaced it — and closes its
    /// `combine.publish_ns` sample.
    fn drop_retired(&self, retired: Retired<S>) {
        let start = self.obs.now();
        drop(retired.snap);
        if let (Some(so_far), Some(start)) = (retired.publish_ns, start) {
            let ns = so_far + start.elapsed().as_nanos() as u64;
            self.metrics.publish_ns.record(ns);
        }
    }

    /// Returns `true` when a round's panic has
    /// [poisoned](ConcurrentMap#poisoning) the front-end.  Unlike the
    /// operations, this never panics — it is how a supervising layer (a
    /// sharded tier) inspects shard health without tripping the poison
    /// itself.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// Runs `f` on the [`CommitSink`] while holding the combiner flag — the
    /// one way to reach the sink between commits.  Waits out a round in
    /// progress; no round commits until `f` returns, so the sink has seen
    /// exactly the rounds through [`ConcurrentMap::committed_seq`].  Reads
    /// go on meanwhile (they never touch the flag).  It works on a poisoned
    /// front-end too — a poisoned round never reached the sink — and, like
    /// a round, a panic in `f` poisons the front-end.
    pub fn hold_sink<T>(&self, f: impl FnOnce(&mut L) -> T) -> T {
        let mut held = CombinerGuard::new(self, self.lock_writer());
        f(&mut held.writer.sink)
    }

    /// Locks the combiner flag, waiting as the module docs' *Waiting* says:
    /// poll `try_lock` for [`POLL_BUDGET`] unless the round is long, then
    /// block in `lock()`.  The mutex's own poison is ignored: the
    /// front-end's `poisoned` flag is what callers check.
    fn lock_writer(&self) -> MutexGuard<'_, Writer<S, L>> {
        if let Some(writer) = self.try_writer() {
            return writer;
        }
        let start = Instant::now();
        let writer = self.poll_writer(start).unwrap_or_else(|| {
            self.metrics.sleeps.inc();
            self.writer.lock().unwrap_or_else(PoisonError::into_inner)
        });
        if self.obs.is_enabled() {
            let waited = start.elapsed().as_nanos() as u64;
            self.metrics.wait_ns.record(waited);
        }
        writer
    }

    /// One `try_lock` of the combiner flag, its poison ignored.
    fn try_writer(&self) -> Option<MutexGuard<'_, Writer<S, L>>> {
        match self.writer.try_lock() {
            Ok(writer) => Some(writer),
            Err(TryLockError::Poisoned(writer)) => Some(writer.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Polls `try_lock` — no syscall — until it wins the lock or polling
    /// has stopped paying (`None`): [`POLL_BUDGET`] has run out since
    /// `start`, or the holder has marked its round long.
    fn poll_writer(&self, start: Instant) -> Option<MutexGuard<'_, Writer<S, L>>> {
        loop {
            for _ in 0..POLLS_PER_CLOCK_READ {
                if self.long_round.load(Ordering::Relaxed) {
                    return None;
                }
                if let Some(writer) = self.try_writer() {
                    return Some(writer);
                }
                std::hint::spin_loop();
            }
            if start.elapsed() >= POLL_BUDGET {
                return None;
            }
        }
    }

    /// The calling thread's stripe of the snapshot slot.
    fn stripe(&self) -> &Stripe<S> {
        &self.stripes[stripe_index()]
    }
}

impl<K, S, L> ConcurrentSet<K, S, L>
where
    K: Ord + Clone + Send + Sync + 'static,
    S: BatchedMap<K, ()> + Clone + Send + Sync,
    L: CommitSink<K, ()>,
{
    /// Inserts `key`, returning `true` iff it was newly inserted — the
    /// set spelling of [`ConcurrentMap::upsert`].
    pub fn insert(&self, key: K) -> bool {
        self.upsert(key, ())
    }
}

impl<K, V, S: Clone> ConcurrentMap<K, V, S> {
    /// Wraps `set` behind a concurrent front-end with default
    /// [`Options`] and no commit log, executing large batches on `pool`.
    pub fn new(set: S, pool: Pool) -> ConcurrentMap<K, V, S> {
        ConcurrentMap::with_options(set, pool, Options::default())
    }

    /// Wraps `set` with explicit [`Options`] and no commit log.
    pub fn with_options(set: S, pool: Pool, options: Options) -> ConcurrentMap<K, V, S> {
        ConcurrentMap::with_sink(set, pool, options, NoLog)
    }
}

impl<K, V, S> ConcurrentMap<K, V, S, RoundLog<K, V>> {
    /// Drains the [`RoundLog`]: every round committed since the last drain,
    /// in commit order.  Replaying them sequentially reproduces every
    /// client-observed result.
    pub fn take_rounds(&self) -> Vec<Round<K, V>> {
        self.hold_sink(|log| mem::take(&mut log.0))
    }
}

impl<K, V, S, L> ConcurrentMap<K, V, S, L>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    S: BatchedMap<K, V> + Clone + Send + Sync,
    L: CommitSink<K, V>,
{
    /// Upserts `key → val`, returning `true` iff the key was newly inserted
    /// (`false`: it was present and now holds `val`).
    ///
    /// # Panics
    ///
    /// Panics if the front-end is [poisoned](ConcurrentMap#poisoning)
    /// (same for every other operation).
    pub fn upsert(&self, key: K, val: V) -> bool {
        self.run_point_op(OpKind::Insert, &key, Some(&val))
    }

    /// Removes `key`, returning `true` iff it was present.
    pub fn remove(&self, key: &K) -> bool {
        self.run_point_op(OpKind::Remove, key, None)
    }

    // Every read is one closure over the published snapshot's `&S`, under
    // the module docs' staleness contract and counted in
    // `combine.snapshot_reads`: `read` for the short ones, `scan` for those
    // that can be long.

    /// Returns `true` iff `key` is in the store.
    pub fn contains(&self, key: &K) -> bool {
        self.read(|view| view.contains(key))
    }

    /// The value stored under `key`, or `None`.
    pub fn get(&self, key: &K) -> Option<V> {
        self.read(|view| view.get(key))
    }

    /// Number of keys in the store.
    pub fn len(&self) -> usize {
        self.read(|view| view.len())
    }

    /// Returns `true` when the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of keys strictly smaller than `key`.
    pub fn rank(&self, key: &K) -> usize {
        self.read(|view| view.rank(key))
    }

    /// The smallest key, or `None` for an empty store.  Cloned out: the
    /// contents move on under concurrent writes, only a snapshot's view can
    /// hand out references.
    pub fn min(&self) -> Option<K> {
        self.read(|view| view.min().cloned())
    }

    /// The largest key, or `None` for an empty store.
    pub fn max(&self) -> Option<K> {
        self.read(|view| view.max().cloned())
    }

    /// Keys inside the `(lo, hi)` bound pair, in ascending order.
    ///
    /// The whole range is carved out of one [`ReadSnapshot`] — one
    /// consistent linearisation point (the result reflects every
    /// *acknowledged* write, and may miss writes not yet acknowledged).
    pub fn range_keys(&self, lo: Bound<&K>, hi: Bound<&K>) -> Vec<K> {
        self.scan(|view| view.range_keys(lo, hi))
    }

    /// Pairs whose keys fall inside the `(lo, hi)` bound pair, ascending.
    /// Same contract as [`ConcurrentMap::range_keys`].
    pub fn range_entries(&self, lo: Bound<&K>, hi: Bound<&K>) -> Vec<(K, V)> {
        self.scan(|view| view.range_entries(lo, hi))
    }

    /// Number of keys inside the `(lo, hi)` bound pair — two rank descents
    /// against one snapshot.
    pub fn range_count(&self, lo: Bound<&K>, hi: Bound<&K>) -> usize {
        self.read(|view| view.range_count(lo, hi))
    }

    /// The largest key strictly smaller than `key`, or `None`.
    pub fn predecessor(&self, key: &K) -> Option<K> {
        self.read(|view| view.predecessor(key))
    }

    /// The smallest key strictly greater than `key`, or `None`.
    pub fn successor(&self, key: &K) -> Option<K> {
        self.read(|view| view.successor(key))
    }

    /// The `k`-th smallest key (0-indexed), or `None` when `k >= len()`.
    pub fn kth(&self, k: usize) -> Option<K> {
        self.read(|view| view.kth(k))
    }

    /// The `k`-th smallest pair (0-indexed), or `None` when `k >= len()`.
    pub fn kth_entry(&self, k: usize) -> Option<(K, V)> {
        self.read(|view| view.kth_entry(k))
    }

    /// One value lookup per key of a pre-sorted `batch`, all answered from
    /// one snapshot (`None` for absent keys).
    pub fn batch_get(&self, batch: &Batch<K>) -> Vec<Option<V>> {
        self.scan(|view| view.batch_get(batch))
    }

    /// Answers one membership query per key of a pre-sorted `batch`, all
    /// from one snapshot — one linearisation point, no round, on the
    /// caller's thread.
    pub fn batch_contains(&self, batch: &Batch<K>) -> Vec<bool> {
        self.scan(|view| view.batch_contains(batch))
    }

    /// Upserts every pair of `batch` as one round; `result[i]` is `true`
    /// iff key `i` was newly inserted.
    ///
    /// This is the surface a sharded service tier routes sub-batches
    /// through: the caller takes the combiner flag, runs the whole batch
    /// against the backend in one round, and commits it to the sink like
    /// any other round.  Batches
    /// of at least [`POOL_CUTOFF`] keys execute inside the pool.
    pub fn batch_insert(&self, batch: &KvBatch<K, V>) -> Vec<bool>
    where
        S: 'static,
    {
        self.run_batch_op(OpKind::Insert, batch, Some(batch.vals()), |set| {
            set.batch_insert(batch)
        })
    }

    /// Removes every key of `batch` as one round; `result[i]` is
    /// `true` iff `batch[i]` was present.  See
    /// [`ConcurrentMap::batch_insert`] for the linearisation contract.
    pub fn batch_remove(&self, batch: &Batch<K>) -> Vec<bool>
    where
        S: 'static,
    {
        self.run_batch_op(OpKind::Remove, batch, None, |set| set.batch_remove(batch))
    }

    /// Takes the combiner flag, then executes one pre-sorted batch of `kind`
    /// ops over `keys` (with `vals` for inserts) as one round: `run` — the
    /// backend's batched op — runs once and its per-key flags are the
    /// result, and the round is committed and counted like a point one.
    fn run_batch_op(
        &self,
        kind: OpKind,
        keys: &[K],
        vals: Option<&[V]>,
        run: impl FnOnce(&mut S) -> Vec<bool> + Send,
    ) -> Vec<bool>
    where
        S: 'static,
    {
        if keys.is_empty() {
            // Nothing to linearise: no round, no seq.
            self.check_poisoned();
            return Vec::new();
        }
        let pooled = keys.len() >= POOL_CUTOFF;
        let (out, retired) = {
            let mut held = self.hold();
            // A whole batch is the one round waiters should not poll through.
            self.long_round.store(true, Ordering::Relaxed);
            let set = &mut held.writer.set;
            let out = if pooled {
                self.pool.install(|| run(set))
            } else {
                run(set)
            };
            debug_assert_eq!(out.len(), keys.len(), "one flag per batch key");
            let retired = self.commit_round(&mut held.writer, kind, keys, vals, &out);
            self.metrics.batch_rounds.add_single_writer(1);
            if pooled {
                self.metrics.pooled_rounds.add_single_writer(1);
                if let Some(ns) = retired.publish_ns {
                    self.metrics.publish_ns.record(ns);
                }
                // The old version's teardown — thousands of leaves this round
                // copied from — goes to an idle worker while the caller moves
                // on; the next `install` queues behind it in the injector.
                let snap = retired.snap;
                self.pool.spawn(move || drop(snap));
                (out, None)
            } else {
                (out, Some(retired))
            }
        };
        if let Some(retired) = retired {
            self.drop_retired(retired);
        }
        out
    }

    /// A short read (point query, rank arithmetic): the query runs under
    /// the read guard of the caller's stripe (no `Arc` refcount traffic —
    /// the read-side cost is the guard's two atomic ops plus the counter,
    /// all on the caller's own stripe line), so it stays cheaper than
    /// taking the combiner flag, even uncontended.
    fn read<T>(&self, read: impl FnOnce(&S) -> T) -> T {
        self.check_poisoned();
        let stripe = self.stripe();
        let result = read(stripe.read().view());
        stripe.count();
        result
    }

    /// A read that can be long (range scan, batch lookup): holds an `Arc`
    /// ([`ConcurrentMap::read_snapshot`]) rather than the read guard, so a
    /// concurrent publish never waits on the scan.
    fn scan<T>(&self, read: impl FnOnce(&S) -> T) -> T {
        self.check_poisoned();
        read(self.read_snapshot().view())
    }

    /// The last published [`ReadSnapshot`]: contents plus the seq of the
    /// round that produced them.  Counts as a snapshot read
    /// in the metrics.  Unlike the
    /// read operations this does **not** check for poisoning — like
    /// [`ConcurrentMap::is_poisoned`] it is a supervisor-grade accessor
    /// (the snapshot predates the poisoned round: a panicking round never
    /// publishes).
    pub fn read_snapshot(&self) -> Arc<ReadSnapshot<S>> {
        let stripe = self.stripe();
        stripe.count();
        Arc::clone(&stripe.read())
    }

    /// Seq of the last committed round — the published snapshot's seq,
    /// since every round publishes before its caller returns.  Any later
    /// [`ConcurrentMap::read_snapshot`] carries a seq `>=` this mark (the
    /// module docs' *Staleness contract*).
    pub fn committed_seq(&self) -> u64 {
        self.stripe().read().seq
    }

    /// Collects every pair of the last published snapshot (ascending, as
    /// parallel key and value arrays) together with the sequence number it
    /// reflects — a consistent snapshot *and* its high-water mark, from one
    /// linearisation point.
    ///
    /// Like every read it never enters a round and never races a writer: a
    /// round that panics mid-execution never publishes, so a half-applied
    /// round's view is structurally unreachable from here.  The pair
    /// reflects committed rounds only, and covers every write that has
    /// returned, because a round publishes before its caller returns.  This
    /// is the durability tier's snapshot primitive: persist the pairs,
    /// record the mark, and replay only log records with seq above it.
    pub fn snapshot_entries(&self) -> (Vec<K>, Vec<V>, u64) {
        self.check_poisoned();
        let snap = Arc::clone(&self.stripe().read());
        let (keys, vals) = snap.view().collect_entries();
        (keys, vals, snap.seq())
    }

    /// The key half of [`ConcurrentMap::snapshot_entries`], with its mark.
    pub fn snapshot_keys(&self) -> (Vec<K>, u64) {
        let (keys, _, seq) = self.snapshot_entries();
        (keys, seq)
    }

    /// Snapshot of every named metric on the front-end's registry — the
    /// round, op and pooled-round counters (monotone; exact once the
    /// front-end is quiescent), the snapshot-read, poison and
    /// `combine.sleeps` counts, the `combine.round_size`
    /// histogram and — recorded only when the pool was built with
    /// [`PoolBuilder::metrics`](forkjoin::PoolBuilder::metrics) on, since
    /// they read the clock — the `combine.publish_ns` and `combine.wait_ns`
    /// histograms.  Metric names follow the workspace `<subsystem>.<metric>`
    /// convention.
    pub fn metrics(&self) -> obs::Snapshot {
        let reads = self
            .stripes
            .iter()
            .map(|stripe| stripe.reads.load(Ordering::Relaxed));
        self.metrics.snapshot_reads.set_max(reads.sum());
        self.registry.snapshot()
    }

    /// Scheduler telemetry of the backing fork-join pool (all zeros unless
    /// the pool was built with
    /// [`PoolBuilder::metrics`](forkjoin::PoolBuilder::metrics) enabled).
    /// Lets a service snapshot front-end and scheduler counters from one
    /// handle.
    pub fn pool_metrics(&self) -> forkjoin::PoolMetrics {
        self.pool.metrics()
    }

    /// The backing fork-join pool, for a caller that wants this front-end's
    /// *reads* to run on it — a sharded tier offers each shard's share of a
    /// batched lookup to that shard's pool with [`Pool::join`].  Never run
    /// a write on it (see the module docs' *Contract*).
    pub fn pool(&self) -> &Pool {
        &self.pool
    }

    /// Consumes the front-end, returning the backing set (and shutting the
    /// pool down).  Owning `self` proves no operation is in flight; a
    /// poisoned front-end hands back its backend as the panic left it.
    pub fn into_inner(self) -> S {
        let writer = self.writer.into_inner();
        writer.unwrap_or_else(PoisonError::into_inner).set
    }

    /// Takes the combiner flag — the one way in for a write — waiting out
    /// the holder while it is taken (see the module docs' *Waiting*).  The
    /// flag is released when the returned guard drops.  Panics if the
    /// front-end is poisoned, also when the poison comes while it waits.
    fn hold(&self) -> CombinerGuard<'_, K, V, S, L> {
        self.check_poisoned();
        let writer = self.lock_writer();
        // Re-check *after* taking the lock: the holder this writer waited
        // for may have poisoned the front-end.  The bare `MutexGuard`
        // releases the lock as the panic unwinds without poisoning the
        // front-end a second time.
        self.check_poisoned();
        CombinerGuard::new(self, writer)
    }

    /// A point write: takes the flag, applies the op to the backend's point
    /// path and commits it as a round of one, then drops the version its
    /// publish displaced.
    fn run_point_op(&self, kind: OpKind, key: &K, val: Option<&V>) -> bool {
        let (result, retired) = {
            let mut held = self.hold();
            let set = &mut held.writer.set;
            let result = match kind {
                OpKind::Insert => set.upsert_one(key, val.expect("insert ops carry a value")),
                OpKind::Remove => set.remove_one(key),
            };
            let (keys, vals) = (slice::from_ref(key), val.map(slice::from_ref));
            (
                result,
                self.commit_round(&mut held.writer, kind, keys, vals, &[result]),
            )
        };
        self.drop_retired(retired);
        result
    }

    /// Commits the round the caller has just executed against `writer`'s
    /// backend — every round, of whatever origin, commits here — and
    /// returns the snapshot the publish displaced.  Caller must hold the
    /// combiner flag and must not have returned the round's results yet.
    /// The order is the contract: allocate the seq, **publish** the state
    /// as snapshot `seq` — publish-before-return is the whole
    /// read-your-writes guarantee — then hand the round to the **sink**,
    /// because a returning caller may at once rely on its round being in
    /// the sink: on the write-ahead log, or in the log a replay takes.
    ///
    /// The seq and the counters are flag-holder-only, so seqs are strictly
    /// increasing and gap-free in commit order, and the single-writer
    /// plain-load+store advance is exact without atomic RMWs.
    fn commit_round(
        &self,
        writer: &mut Writer<S, L>,
        kind: OpKind,
        keys: &[K],
        vals: Option<&[V]>,
        results: &[bool],
    ) -> Retired<S> {
        let start = self.obs.now();
        writer.seq += 1;
        let snap = Arc::new(ReadSnapshot {
            seq: writer.seq,
            view: writer.set.clone(),
        });
        // Readers queue behind the write guards: hold them for the swaps
        // alone.  Every guard is taken before any is released, so no read
        // can see the new version while another, later one sees the old.
        let mut slots: [_; READ_STRIPES] = array::from_fn(|i| self.stripes[i].write());
        let displaced = slots
            .each_mut()
            .map(|slot| mem::replace(&mut **slot, Arc::clone(&snap)));
        drop(slots);
        // The stripes held clones of one version: keep one for the
        // retirement, whose drop may free it; the others only count down.
        let [displaced, rest @ ..] = displaced;
        drop(rest);
        let retired = Retired {
            snap: displaced,
            publish_ns: start.map(|start| start.elapsed().as_nanos() as u64),
        };
        writer.sink.commit(writer.seq, kind, keys, vals, results);
        let len = keys.len() as u64;
        self.metrics.ops.add_single_writer(len);
        self.metrics.round_size.record(len);
        self.metrics.rounds.add_single_writer(1);
        retired
    }

    /// Panics if a round panicked (see the struct docs' poisoning section).
    fn check_poisoned(&self) {
        if self.poisoned.load(Ordering::Acquire) {
            panic!(
                "ConcurrentMap is poisoned: a round panicked mid-way, \
                 so the backing store's state is indeterminate"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchapi::MapView;
    use std::collections::BTreeSet;
    use std::sync::atomic::AtomicUsize;
    use std::sync::{mpsc, Arc};

    /// A sequential reference backend over a sorted `Vec` of pairs,
    /// implementing only the required trait methods (its `Clone` copies the
    /// `Vec`, so every publication is O(n) — fine at test sizes).
    /// Upserting the key `u64::MAX` panics — the bomb the poisoning tests
    /// plant: it sits in `batch_insert`, which the provided `upsert_one` (a
    /// singleton batch) reaches too — and so does asking `contains` for it,
    /// the stand-in for a user `Ord` that panics mid-read.
    #[derive(Clone)]
    struct VecMap<V>(Vec<(u64, V)>);

    type VecSet = VecMap<()>;

    impl<V> VecMap<V> {
        fn find(&self, key: &u64) -> Result<usize, usize> {
            self.0.binary_search_by(|(k, _)| k.cmp(key))
        }
    }

    impl<V: Clone> MapView<u64, V> for VecMap<V> {
        fn len(&self) -> usize {
            self.0.len()
        }
        fn get(&self, key: &u64) -> Option<V> {
            self.find(key).ok().map(|i| self.0[i].1.clone())
        }
        fn contains(&self, key: &u64) -> bool {
            assert!(*key != u64::MAX, "bomb");
            self.find(key).is_ok()
        }
        fn rank(&self, key: &u64) -> usize {
            self.0.partition_point(|(k, _)| k < key)
        }
        fn min(&self) -> Option<&u64> {
            self.0.first().map(|(k, _)| k)
        }
        fn max(&self) -> Option<&u64> {
            self.0.last().map(|(k, _)| k)
        }
        fn collect_entries(&self) -> (Vec<u64>, Vec<V>) {
            self.0.iter().cloned().unzip()
        }
    }

    impl<V: Clone> BatchedMap<u64, V> for VecMap<V> {
        fn batch_insert(&mut self, batch: &KvBatch<u64, V>) -> Vec<bool> {
            assert!(!batch.contains(&u64::MAX), "bomb");
            let upsert = |(k, v): (&u64, &V)| match self.find(k) {
                Ok(i) => {
                    self.0[i].1 = v.clone();
                    false
                }
                Err(i) => {
                    self.0.insert(i, (*k, v.clone()));
                    true
                }
            };
            batch.entries().map(upsert).collect()
        }
        fn batch_remove(&mut self, batch: &Batch<u64>) -> Vec<bool> {
            let remove = |k: &u64| {
                let found = self.find(k);
                if let Ok(i) = found {
                    self.0.remove(i);
                }
                found.is_ok()
            };
            batch.iter().map(remove).collect()
        }
    }

    fn keys_of(set: VecSet) -> Vec<u64> {
        set.0.into_iter().map(|(k, ())| k).collect()
    }

    type Logged<S> = ConcurrentSet<u64, S, RoundLog<u64>>;

    /// The harness: rounds go to a `RoundLog` so tests can replay them (and
    /// prove reads stay out).
    fn fresh() -> Logged<VecSet> {
        logged(VecMap(Vec::new()), Pool::new(1).unwrap(), 0)
    }

    /// A front-end over `backend` logging to a `RoundLog`, numbering its
    /// rounds from `first_seq + 1`.
    fn logged<V, S>(
        backend: S,
        pool: Pool,
        first_seq: u64,
    ) -> ConcurrentMap<u64, V, S, RoundLog<u64, V>>
    where
        V: Clone + Send + Sync + 'static,
        S: BatchedMap<u64, V> + Clone + Send + Sync,
    {
        let options = Options { first_seq };
        ConcurrentMap::with_sink(backend, pool, options, RoundLog::default())
    }

    fn counter(set: &Logged<VecSet>, name: &str) -> u64 {
        set.metrics().counter(name).unwrap()
    }

    #[test]
    fn sequential_ops_have_set_semantics() {
        let set = fresh();
        assert!(set.insert(5));
        assert!(!set.insert(5));
        assert!(set.insert(9));
        assert!(set.contains(&5));
        assert!(!set.contains(&6));
        assert_eq!(set.len(), 2);
        assert!(set.remove(&5));
        assert!(!set.remove(&5));
        assert!(!set.is_empty());
        assert_eq!(keys_of(set.into_inner()), vec![9]);
    }

    #[test]
    fn round_log_records_sequential_history() {
        let set = fresh();
        assert!(set.insert(1));
        assert!(set.contains(&1));
        assert!(set.remove(&1));
        let rounds = set.take_rounds();
        // Sequential clients combine themselves: one write per round, and
        // the read in between entered none.
        assert_eq!(rounds.len(), 2);
        let one = |seq, kind, val| Round {
            seq,
            kind,
            ops: vec![RoundOp {
                key: 1,
                val,
                result: true,
            }],
        };
        assert_eq!(
            rounds,
            vec![
                one(1, OpKind::Insert, Some(())),
                one(2, OpKind::Remove, None)
            ]
        );
        // The log drains.
        assert!(set.take_rounds().is_empty());
        assert_eq!(counter(&set, "combine.rounds"), 2);
        assert_eq!(counter(&set, "combine.ops"), 2);
    }

    #[test]
    fn rounds_carry_gap_free_sequence_numbers() {
        let set = fresh();
        assert!(set.insert(1));
        set.batch_insert(&Batch::from_unsorted(vec![2u64, 3]));
        assert!(set.contains(&2), "a read consumes no seq");
        assert!(set.remove(&1));
        let rounds = set.take_rounds();
        let seqs: Vec<u64> = rounds.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3], "fresh history numbers from 1");

        // Numbering continues across take_rounds drains.
        set.insert(9);
        assert_eq!(set.take_rounds()[0].seq, 4);

        // first_seq seeds the counter (the recovery path).
        let resumed: Logged<VecSet> = logged(VecMap(Vec::new()), Pool::new(1).unwrap(), 41);
        resumed.insert(7);
        assert_eq!(resumed.take_rounds()[0].seq, 42);
    }

    #[test]
    fn snapshot_keys_pairs_contents_with_their_seq() {
        let set = fresh();
        let (keys, seq) = set.snapshot_keys();
        assert!(keys.is_empty());
        assert_eq!(seq, 0, "no rounds committed yet");

        set.insert(5);
        set.batch_insert(&Batch::from_unsorted(vec![1u64, 9]));
        set.remove(&9);
        let (keys, seq) = set.snapshot_keys();
        assert_eq!(keys, vec![1, 5]);
        assert_eq!(seq, 3, "mark equals the last committed round's seq");
        assert_eq!(
            set.take_rounds().last().unwrap().seq,
            seq,
            "log agrees with the snapshot mark"
        );
        // Taking a snapshot consumes no seq.
        set.insert(2);
        assert_eq!(set.take_rounds()[0].seq, 4);
    }

    #[test]
    fn stats_count_pooled_rounds() {
        // Point ops never go through the pool.
        let set = fresh();
        for k in 0..10 {
            set.insert(k);
        }
        assert_eq!(counter(&set, "combine.ops"), 10);
        assert_eq!(counter(&set, "combine.pooled_rounds"), 0);
    }

    #[test]
    fn backend_panic_poisons_instead_of_wedging() {
        let set = fresh();
        assert!(set.insert(1));
        let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            set.insert(u64::MAX);
        }));
        assert!(boom.is_err());
        // Subsequent operations fail fast with the poison message rather
        // than deadlocking on a combiner flag that never clears.
        let after = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            set.contains(&1);
        }));
        let payload = after.unwrap_err();
        let msg = payload.downcast_ref::<&str>().expect("str payload");
        assert!(msg.contains("poisoned"), "{msg}");
        let len_call = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| set.len()));
        assert!(len_call.is_err());
        // The lock the panic unwound through hands the backend back as the
        // panic left it, rather than failing on the mutex's own poison.
        assert_eq!(keys_of(set.into_inner()), vec![1]);
    }

    /// A write made by a destructor while an unrelated panic unwinds runs
    /// to completion under the flag, and poisons nothing: the panic did not
    /// start under the flag.
    #[test]
    fn a_write_during_an_unrelated_unwind_does_not_poison() {
        struct InsertOnDrop<'a>(&'a Logged<VecSet>, &'a mut Option<bool>);
        impl Drop for InsertOnDrop<'_> {
            fn drop(&mut self) {
                *self.1 = Some(self.0.insert(7));
            }
        }
        let set = fresh();
        let mut inserted = None;
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _insert = InsertOnDrop(&set, &mut inserted);
            panic!("unrelated");
        }));
        assert!(unwound.is_err());
        assert_eq!(inserted, Some(true));
        assert!(!set.is_poisoned());
        assert_eq!(counter(&set, "combine.poisoned"), 0);
        assert!(set.contains(&7));
        assert!(set.insert(8));
    }

    #[test]
    fn registry_metrics_count_rounds_ops_and_reads() {
        let set = fresh();
        for k in 0..10 {
            set.insert(k);
        }
        assert!(set.contains(&3));
        let m = set.metrics();
        // One round per write; the read is no round at all.
        assert_eq!(m.counter("combine.rounds"), Some(10));
        assert_eq!(m.counter("combine.ops"), Some(10));
        assert_eq!(m.counter("combine.snapshot_reads"), Some(1));
        assert_eq!(m.counter("combine.poisoned"), Some(0));
        // Registered for the benchmark's frozen name list; nothing counts
        // into it (see `CombineMetrics::new`).
        assert_eq!(m.counter("combine.publish_clone_keys"), Some(0));
        let sizes = m.histogram("combine.round_size").unwrap();
        assert_eq!(sizes.count(), 10);
        assert_eq!(sizes.sum, 10, "all point rounds");
        let json = m.to_json();
        assert!(json.contains("\"combine.rounds\": 10"), "{json}");

        // Reads count on their own threads' stripes, beside a writer's
        // rounds; `metrics()` sums the stripes, exact once the readers are
        // done.
        const READERS: u64 = 8;
        const READS: u64 = 10_000;
        const WRITES: u64 = 500;
        let batch = Batch::from_unsorted(vec![1u64, 3, 11]);
        std::thread::scope(|s| {
            s.spawn(|| assert!((0..WRITES).all(|k| set.insert(100 + k))));
            for _ in 0..READERS {
                s.spawn(|| {
                    for k in 0..READS {
                        assert_eq!(set.contains(&(k % 20)), k % 20 < 10);
                    }
                    assert!(set.read_snapshot().seq() >= 10);
                    assert_eq!(set.batch_contains(&batch), vec![true, true, false]);
                });
            }
        });
        let reads = 1 + READERS * (READS + 2);
        assert_eq!(counter(&set, "combine.snapshot_reads"), reads);
        assert_eq!(counter(&set, "combine.rounds"), 10 + WRITES);

        // A writer that finds the flag taken waits for it, then commits a
        // round of its own: the open round and the one behind it.
        let (slow, entered, release) = gated();
        let holder = {
            let slow = Arc::clone(&slow);
            std::thread::spawn(move || slow.insert(GATE))
        };
        entered.recv().unwrap();
        let waiter = park_a_waiter(&slow);
        release.send(()).unwrap();
        assert!(holder.join().unwrap() && waiter.join().unwrap());
        let m = slow.metrics();
        assert_eq!(m.counter("combine.rounds"), Some(2));
        assert_eq!(m.counter("combine.ops"), Some(2));
    }

    #[test]
    fn batched_surface_commits_whole_batches_as_rounds() {
        let set = fresh();
        assert!(set.insert(5));
        let ins = set.batch_insert(&Batch::from_unsorted(vec![1u64, 5, 9]));
        assert_eq!(ins, vec![true, false, true]);
        let con = set.batch_contains(&Batch::from_unsorted(vec![1u64, 2, 9]));
        assert_eq!(con, vec![true, false, true]);
        let rem = set.batch_remove(&Batch::from_unsorted(vec![2u64, 5]));
        assert_eq!(rem, vec![false, true]);
        assert_eq!(set.len(), 2);

        // The log holds the point round plus one round per write batch,
        // each batch round carrying its keys in batch order.
        let rounds = set.take_rounds();
        assert_eq!(rounds.len(), 3);
        assert_eq!(rounds[1].ops.len(), 3);
        assert_eq!(rounds[1].kind, OpKind::Insert);
        assert_eq!(
            rounds[1].ops[0],
            RoundOp {
                key: 1,
                val: Some(()),
                result: true
            }
        );
        assert_eq!((rounds[2].kind, rounds[2].ops.len()), (OpKind::Remove, 2));

        // The counters count batch keys as ops and tally the batched rounds.
        let m = set.metrics();
        assert_eq!(m.counter("combine.batch_rounds"), Some(2));
        assert_eq!(m.counter("combine.ops"), Some(1 + 3 + 2));
        assert_eq!(m.counter("combine.rounds"), Some(3));

        // Empty batches are no-ops: no round, no flags, nothing logged.
        assert!(set.batch_insert(&Batch::empty()).is_empty());
        assert!(set.batch_remove(&Batch::empty()).is_empty());
        assert_eq!(counter(&set, "combine.rounds"), 3);
        assert_eq!(counter(&set, "combine.ops"), 1 + 3 + 2);
        assert!(set.take_rounds().is_empty());
    }

    #[test]
    fn batched_surface_pools_large_batches() {
        let set = fresh();
        let keys = |n: usize| Batch::from_unsorted((0..n as u64).collect());
        set.batch_insert(&keys(POOL_CUTOFF));
        assert_eq!(counter(&set, "combine.pooled_rounds"), 1, "at the cutoff");
        set.batch_remove(&keys(POOL_CUTOFF - 1));
        assert_eq!(
            counter(&set, "combine.pooled_rounds"),
            1,
            "below cutoff stays inline"
        );
    }

    #[test]
    fn batched_surface_respects_poisoning() {
        let set = fresh();
        assert!(!set.is_poisoned());
        // A bomb in a batch large enough to go off inside `Pool::install`.
        let keys = (1..POOL_CUTOFF as u64).chain([u64::MAX]).collect();
        let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            set.batch_insert(&Batch::from_unsorted(keys));
        }));
        assert!(boom.is_err());
        assert!(set.is_poisoned(), "is_poisoned reports without panicking");
        let after = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            set.batch_contains(&Batch::from_unsorted(vec![1u64]));
        }));
        let payload = after.unwrap_err();
        let msg = payload.downcast_ref::<&str>().expect("str payload");
        assert!(msg.contains("poisoned"), "{msg}");
    }

    #[test]
    fn snapshot_reads_bypass_the_combiner() {
        let set = fresh();
        // Read-your-writes: every acknowledged insert is visible to the
        // very next snapshot read.
        for k in [5u64, 1, 9] {
            assert!(set.insert(k));
            assert!(set.contains(&k), "write to {k} not visible to read");
        }
        assert!(!set.contains(&2));
        assert_eq!(set.len(), 3);
        assert_eq!(set.rank(&9), 2);
        assert_eq!(set.min(), Some(1));
        assert_eq!(set.max(), Some(9));
        assert_eq!(
            set.batch_contains(&Batch::from_unsorted(vec![1u64, 2, 9])),
            vec![true, false, true]
        );
        assert!(set.remove(&9));
        assert!(!set.contains(&9), "remove not visible to read");
        let _handle = set.read_snapshot();

        // None of those reads entered a round: the log holds only the
        // four writes.
        assert_eq!(set.take_rounds().len(), 4);
        assert_eq!(set.committed_seq(), 4, "reads consume no seqs");

        let m = set.metrics();
        let snap_reads = m.counter("combine.snapshot_reads").unwrap();
        assert!(snap_reads >= 10, "every read served by snapshot");
        assert_eq!(m.counter("combine.ops"), Some(4), "writes only");
    }

    #[test]
    fn snapshots_are_frozen_at_their_seq() {
        let set = fresh();
        set.batch_insert(&Batch::from_unsorted(vec![1u64, 2, 3]));
        let before = set.read_snapshot();
        assert!(set.insert(10));
        assert!(set.remove(&1));
        let after = set.read_snapshot();
        // The old snapshot still answers as of its own round.
        assert_eq!(before.seq(), 1);
        assert!(before.view().contains(&1) && !before.view().contains(&10));
        assert_eq!(before.view().collect_keys(), vec![1, 2, 3]);
        assert_eq!(after.seq(), 3);
        assert!(!after.view().contains(&1) && after.view().contains(&10));
        // `snapshot_keys` pairs the same way, without entering a round.
        let (keys, seq) = set.snapshot_keys();
        assert_eq!((keys, seq), (vec![2, 3, 10], 3));
        assert_eq!(set.committed_seq(), 3, "snapshot consumed no seq");
    }

    /// A [`VecSet`] that counts its live instances in `live`: the
    /// front-end's own version plus every published clone still alive.
    struct Counted {
        set: VecSet,
        live: Arc<AtomicUsize>,
    }

    impl Clone for Counted {
        fn clone(&self) -> Counted {
            self.live.fetch_add(1, Ordering::SeqCst);
            Counted {
                set: self.set.clone(),
                live: Arc::clone(&self.live),
            }
        }
    }

    impl Drop for Counted {
        fn drop(&mut self) {
            self.live.fetch_sub(1, Ordering::SeqCst);
        }
    }

    impl MapView<u64, ()> for Counted {
        fn len(&self) -> usize {
            self.set.len()
        }
        fn get(&self, key: &u64) -> Option<()> {
            self.set.get(key)
        }
        fn contains(&self, key: &u64) -> bool {
            self.set.contains(key)
        }
        fn rank(&self, key: &u64) -> usize {
            self.set.rank(key)
        }
        fn min(&self) -> Option<&u64> {
            self.set.min()
        }
        fn max(&self) -> Option<&u64> {
            self.set.max()
        }
        fn collect_entries(&self) -> (Vec<u64>, Vec<()>) {
            self.set.collect_entries()
        }
    }

    impl BatchedMap<u64, ()> for Counted {
        fn batch_insert(&mut self, batch: &Batch<u64>) -> Vec<bool> {
            self.set.batch_insert(batch)
        }
        fn batch_remove(&mut self, batch: &Batch<u64>) -> Vec<bool> {
            self.set.batch_remove(batch)
        }
    }

    #[test]
    fn a_pooled_round_keeps_one_old_version_and_frees_it_on_the_pool() {
        const THREADS: usize = 2;
        let live = Arc::new(AtomicUsize::new(1));
        let backend = Counted {
            set: VecMap(Vec::new()),
            live: Arc::clone(&live),
        };
        let set = ConcurrentSet::new(backend, Pool::new(THREADS).unwrap());
        let keys = Batch::from_unsorted((0..POOL_CUTOFF as u64).collect());
        set.batch_insert(&keys);
        let pin = set.read_snapshot();
        let pinned = pin.seq();
        // The front-end's version, the published one and the pin, plus the
        // versions of the teardowns not yet run: at most one job queued
        // since the last `install` took its turn, and one running per
        // worker, each holding one version.
        let bound = 3 + (1 + THREADS);
        for round in 0..1000 {
            let flags = if round % 2 == 0 {
                set.batch_remove(&keys)
            } else {
                set.batch_insert(&keys)
            };
            assert_eq!(flags, vec![true; POOL_CUTOFF], "round {round}");
            let versions = live.load(Ordering::SeqCst);
            assert!(versions <= bound, "round {round}: {versions} live versions");
            assert_eq!(pin.seq(), pinned, "the pin stays at its own seq");
            assert_eq!(pin.view().len(), POOL_CUTOFF, "the pin's contents stay");
        }
        assert_eq!(set.metrics().counter("combine.pooled_rounds"), Some(1001));
        assert!(set.insert(u64::MAX - 1));
        drop(pin);
        let backend = set.into_inner();
        assert_eq!(live.load(Ordering::SeqCst), 1, "only the backend is left");
        assert_eq!(backend.len(), POOL_CUTOFF + 1);
    }

    #[test]
    fn range_reads_are_wait_free_snapshot_reads() {
        let set = fresh();
        set.batch_insert(&Batch::from_unsorted((0..100u64).map(|i| i * 2).collect()));
        let before = set.metrics().counter("combine.snapshot_reads").unwrap();

        assert_eq!(
            set.range_keys(Bound::Included(&10), Bound::Excluded(&20)),
            vec![10, 12, 14, 16, 18]
        );
        assert_eq!(
            set.range_count(Bound::Included(&10), Bound::Excluded(&20)),
            5
        );
        assert_eq!(set.predecessor(&11), Some(10));
        assert_eq!(set.predecessor(&0), None);
        assert_eq!(set.successor(&196), Some(198));
        assert_eq!(set.successor(&198), None);
        assert_eq!(set.kth(0), Some(0));
        assert_eq!(set.kth(99), Some(198));
        assert_eq!(set.kth(100), None);

        // Every one of those was served from the snapshot: the counter
        // moved and the round log gained nothing.
        let after = set.metrics().counter("combine.snapshot_reads").unwrap();
        assert!(after >= before + 9, "{before} -> {after}");
        assert_eq!(set.take_rounds().len(), 1, "only the batch insert");

        // Staleness contract: a range read reflects acknowledged writes.
        set.insert(11);
        assert_eq!(
            set.range_keys(Bound::Included(&10), Bound::Included(&12)),
            vec![10, 11, 12]
        );
    }

    #[test]
    fn snapshot_reads_panic_on_poison_without_blocking() {
        let set = fresh();
        assert!(set.insert(3));
        assert!(set.contains(&3), "snapshot read before poisoning");
        let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            set.insert(u64::MAX);
        }));
        assert!(boom.is_err());
        // Every snapshot-served entry point fails fast with the poison
        // message — no hang, no stale answer.
        let reads: Vec<Box<dyn Fn() + '_>> = vec![
            Box::new(|| {
                set.contains(&3);
            }),
            Box::new(|| {
                set.len();
            }),
            Box::new(|| {
                set.rank(&3);
            }),
            Box::new(|| {
                set.min();
            }),
            Box::new(|| {
                set.snapshot_keys();
            }),
            Box::new(|| {
                set.batch_contains(&Batch::from_unsorted(vec![3u64]));
            }),
        ];
        for read in reads {
            let after = std::panic::catch_unwind(std::panic::AssertUnwindSafe(read));
            let payload = after.unwrap_err();
            let msg = payload.downcast_ref::<&str>().expect("str payload");
            assert!(msg.contains("poisoned"), "{msg}");
        }
        // The supervisor-grade accessor still answers: the last published
        // snapshot predates the poisoned round.
        assert!(set.read_snapshot().view().contains(&3));
    }

    #[test]
    fn a_read_that_panics_releases_its_borrow() {
        // A read that panics under its stripe's read guard must
        // release it: a guard left behind would keep every later publish
        // waiting with the combiner flag held.
        let set = Arc::new(fresh());
        let reader = {
            let set = Arc::clone(&set);
            std::thread::spawn(move || set.contains(&u64::MAX))
        };
        assert!(reader.join().is_err(), "the bomb went off in the reader");
        let (done_tx, done) = mpsc::channel();
        let writer = Arc::clone(&set);
        std::thread::spawn(move || {
            for k in 0..3 {
                writer.insert(k);
            }
            done_tx.send(()).unwrap();
        });
        done.recv_timeout(Duration::from_secs(5))
            .expect("a writer hung behind the leaked borrow");
        // Reads do not poison: the snapshot the panic unwound over is intact.
        assert!(!set.is_poisoned());
        assert!(set.contains(&2));
        assert_eq!(set.len(), 3);
    }

    /// Key that parks [`Gated`]'s batched insert until the test releases it.
    const GATE: u64 = 1 << 40;

    /// A `VecSet` whose batched insert, given a batch holding [`GATE`],
    /// reports on `entered` and then blocks on `release` — a round a test
    /// can hold open for as long as it likes.  (A batch that also holds
    /// `u64::MAX` panics once released: the inner set's bomb.  Removing
    /// `u64::MAX` panics too — the bomb a point round meets.)
    #[derive(Clone)]
    struct Gated {
        inner: VecSet,
        entered: mpsc::Sender<()>,
        release: Arc<Mutex<mpsc::Receiver<()>>>,
    }

    impl MapView<u64, ()> for Gated {
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn get(&self, key: &u64) -> Option<()> {
            self.inner.get(key)
        }
        fn contains(&self, key: &u64) -> bool {
            self.inner.contains(key)
        }
        fn rank(&self, key: &u64) -> usize {
            self.inner.rank(key)
        }
        fn min(&self) -> Option<&u64> {
            self.inner.min()
        }
        fn max(&self) -> Option<&u64> {
            self.inner.max()
        }
        fn collect_entries(&self) -> (Vec<u64>, Vec<()>) {
            self.inner.collect_entries()
        }
    }

    impl BatchedMap<u64, ()> for Gated {
        fn batch_insert(&mut self, batch: &Batch<u64>) -> Vec<bool> {
            if batch.contains(&GATE) {
                self.entered.send(()).unwrap();
                self.release.lock().unwrap().recv().unwrap();
            }
            self.inner.batch_insert(batch)
        }
        fn batch_remove(&mut self, batch: &Batch<u64>) -> Vec<bool> {
            assert!(!batch.contains(&u64::MAX), "bomb");
            self.inner.batch_remove(batch)
        }
    }

    /// A gated front-end (pool telemetry on, which turns the timed metrics
    /// on; rounds logged), the "round is open" receiver and the release
    /// sender.
    fn gated() -> (Arc<Logged<Gated>>, mpsc::Receiver<()>, mpsc::Sender<()>) {
        let (entered_tx, entered) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        let backend = Gated {
            inner: VecMap(Vec::new()),
            entered: entered_tx,
            release: Arc::new(Mutex::new(release_rx)),
        };
        let pool = Pool::builder()
            .num_threads(1)
            .metrics(true)
            .build()
            .unwrap();
        (Arc::new(logged(backend, pool, 0)), entered, release)
    }

    /// Spawns a client running `op` behind the open round and returns once
    /// it has parked — which it must, however long the round stays open:
    /// at once behind a long round, when the poll budget runs out behind a
    /// point round.
    fn park_behind<T: Send + 'static>(
        set: &Arc<Logged<Gated>>,
        op: impl FnOnce(&Logged<Gated>) -> T + Send + 'static,
    ) -> std::thread::JoinHandle<T> {
        let parked = set.metrics().counter("combine.sleeps");
        let client = {
            let set = Arc::clone(set);
            std::thread::spawn(move || op(&set))
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        while set.metrics().counter("combine.sleeps") == parked {
            assert!(Instant::now() < deadline, "the client never parked");
            std::thread::yield_now();
        }
        client
    }

    /// [`park_behind`] for a client inserting `7`.
    fn park_a_waiter(set: &Arc<Logged<Gated>>) -> std::thread::JoinHandle<bool> {
        park_behind(set, |set| set.insert(7))
    }

    /// Joins `client`, failing the test if it has not finished in 30 s: a
    /// client left waiting on a flag that will never come free is the
    /// failure these tests exist to catch.
    fn join_bounded<T>(client: std::thread::JoinHandle<T>) -> std::thread::Result<T> {
        let deadline = Instant::now() + Duration::from_secs(30);
        while !client.is_finished() {
            assert!(Instant::now() < deadline, "a client hung");
            std::thread::sleep(Duration::from_millis(1));
        }
        client.join()
    }

    /// Holds a whole-batch round open over `{1, 2, 3, GATE}`: the round is
    /// marked long, so every writer started before the returned sender
    /// fires blocks in `lock()` at once.
    fn hold_a_long_round(
        set: &Arc<Logged<Gated>>,
        entered: &mpsc::Receiver<()>,
    ) -> std::thread::JoinHandle<Vec<bool>> {
        let holder = {
            let set = Arc::clone(set);
            std::thread::spawn(move || set.batch_insert(&Batch::from_unsorted(vec![GATE, 1, 2, 3])))
        };
        entered.recv().unwrap();
        holder
    }

    #[test]
    fn a_panic_mid_round_publishes_none_of_the_round() {
        let (set, entered, release) = gated();
        let holder = hold_a_long_round(&set, &entered);
        // A point round behind the held flag whose backend op panics.
        let bomb = park_behind(&set, |set| set.remove(&u64::MAX));
        release.send(()).unwrap();
        assert_eq!(join_bounded(holder).unwrap(), vec![true; 4]);

        // The bomb's writer carries the backend's own panic; every later
        // writer fails with the poison message.  Nobody hangs.
        let message = |payload: Box<dyn std::any::Any + Send>| {
            *payload.downcast_ref::<&str>().expect("str payload")
        };
        let bomb = join_bounded(bomb).expect_err("the round returned");
        assert_eq!(message(bomb), "bomb");
        assert!(set.is_poisoned());
        for write in [
            Box::new(|| set.insert(5)) as Box<dyn Fn() -> bool>,
            Box::new(|| set.remove(&1)),
        ] {
            let later = std::panic::catch_unwind(std::panic::AssertUnwindSafe(write));
            assert!(message(later.unwrap_err()).contains("poisoned"));
        }

        // A panicking round never publishes: the snapshot is the state the
        // batch round left, at its seq.
        let snap = set.read_snapshot();
        assert_eq!(snap.seq(), 1);
        assert_eq!(snap.view().collect_keys(), vec![1, 2, 3, GATE]);
        assert_eq!(set.take_rounds().len(), 1, "the round was never logged");
    }

    #[test]
    fn handoff_parks_behind_an_open_round_and_wakes() {
        // A whole batch is a long round; a point insert (the default
        // `upsert_one` is a singleton batch) is not.
        for long_round in [true, false] {
            let (set, entered, release) = gated();
            let holder = {
                let set = Arc::clone(&set);
                std::thread::spawn(move || match long_round {
                    true => set.batch_insert(&Batch::from_unsorted(vec![GATE, 1, 2, 3])),
                    false => vec![set.insert(GATE)],
                })
            };
            entered.recv().unwrap();
            let waiter = park_a_waiter(&set);
            release.send(()).unwrap();
            assert!(holder.join().unwrap().iter().all(|&newly| newly));
            assert!(waiter.join().unwrap(), "7 was absent (long: {long_round})");
            assert!(set.contains(&7) && set.contains(&GATE));

            let m = set.metrics();
            assert!(m.counter("combine.sleeps") >= Some(1));
            let waits = m.histogram("combine.wait_ns").unwrap();
            assert!(waits.count() >= 1, "the wait went untimed");
            // Two rounds published, each timed once what it displaced
            // dropped.
            assert_eq!(m.histogram("combine.publish_ns").unwrap().count(), 2);
        }
    }

    #[test]
    fn poisoned_long_round_wakes_and_panics_the_parked_waiter() {
        let (set, entered, release) = gated();
        let holder = {
            let set = Arc::clone(&set);
            std::thread::spawn(move || {
                set.batch_insert(&Batch::from_unsorted(vec![GATE, 1, 2, u64::MAX]))
            })
        };
        entered.recv().unwrap();
        let waiter = park_a_waiter(&set);
        release.send(()).unwrap();
        assert!(holder.join().is_err(), "the bomb went off in the holder");
        let payload = waiter.join().unwrap_err();
        let msg = payload.downcast_ref::<&str>().expect("str payload");
        assert!(msg.contains("poisoned"), "{msg}");
        assert!(set.is_poisoned());
    }

    /// The same front-end at a real value type: upserts overwrite and report
    /// not-new, value reads see the acknowledged value, and the round log
    /// carries each insert's value for a WAL downstream.
    #[test]
    fn values_ride_the_rounds_and_the_snapshot() {
        let map = logged(VecMap(Vec::new()), Pool::new(1).unwrap(), 0);
        assert!(map.upsert(5, 'a'));
        assert!(!map.upsert(5, 'b'), "present: overwritten, not new");
        assert_eq!(map.get(&5), Some('b'));
        assert_eq!(map.get(&6), None);
        let flags = map.batch_insert(&KvBatch::from_unsorted_entries(vec![
            (9, 'x'),
            (1, 'y'),
            (5, 'c'),
            (9, 'z'),
        ]));
        assert_eq!(flags, vec![true, false, true], "keys 1, 5, 9");
        assert_eq!(
            map.batch_get(&Batch::from_unsorted(vec![1, 2, 5, 9])),
            vec![Some('y'), None, Some('c'), Some('z')]
        );
        assert_eq!(
            map.range_entries(Bound::Excluded(&1), Bound::Unbounded),
            vec![(5, 'c'), (9, 'z')]
        );
        assert_eq!(map.kth_entry(0), Some((1, 'y')));
        assert_eq!(map.kth(2), Some(9));
        assert!(map.remove(&1));
        assert_eq!(
            map.snapshot_entries(),
            (vec![5, 9], vec!['c', 'z'], map.read_snapshot().seq())
        );

        let vals: Vec<(OpKind, u64, Option<char>)> = map
            .take_rounds()
            .into_iter()
            .flat_map(|r| r.ops.into_iter().map(move |op| (r.kind, op.key, op.val)))
            .collect();
        assert_eq!(
            vals,
            vec![
                (OpKind::Insert, 5, Some('a')),
                (OpKind::Insert, 5, Some('b')),
                (OpKind::Insert, 1, Some('y')),
                (OpKind::Insert, 5, Some('c')),
                (OpKind::Insert, 9, Some('z')),
                (OpKind::Remove, 1, None),
            ]
        );
    }

    #[test]
    fn concurrent_clients_agree_with_oracle_replay() {
        let set = Arc::new(fresh());
        let threads = 4;
        let per_thread = 300u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let set = Arc::clone(&set);
                std::thread::spawn(move || {
                    // Overlapping key ranges force result races on purpose.
                    // Each read is recorded with the committed seq sampled
                    // before and after it.
                    let mut reads = Vec::new();
                    for i in 0..per_thread {
                        let k = (t * 7 + i) % 50;
                        match i % 3 {
                            0 => {
                                set.insert(k);
                            }
                            1 => {
                                set.remove(&k);
                            }
                            _ => {
                                let lo = set.committed_seq();
                                let found = set.contains(&k);
                                reads.push((k, found, lo, set.committed_seq()));
                            }
                        }
                    }
                    reads
                })
            })
            .collect();
        let reads: Vec<_> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        let rounds = set.take_rounds();
        let total_ops: usize = rounds.iter().map(|r| r.ops.len()).sum();
        assert_eq!(total_ops as u64, threads * per_thread * 2 / 3, "the writes");
        // Replaying the committed rounds sequentially must reproduce every
        // per-op result; `states[s]` is the contents after round `s`.
        let mut oracle = BTreeSet::new();
        let mut states = vec![oracle.clone()];
        for round in &rounds {
            assert_eq!(round.seq as usize, states.len(), "gap-free seqs");
            for op in &round.ops {
                let expect = match round.kind {
                    OpKind::Insert => oracle.insert(op.key),
                    OpKind::Remove => oracle.remove(&op.key),
                };
                assert_eq!(op.result, expect, "round {}, op {op:?}", round.seq);
            }
            states.push(oracle.clone());
        }
        // Every read answered with the state after some round between the
        // two seqs sampled around it — its linearisation window, since a
        // round publishes before it acknowledges.
        for (k, found, lo, hi) in reads {
            assert!(
                (lo..=hi).any(|s| states[s as usize].contains(&k) == found),
                "contains({k}) = {found} is no round's state in [{lo}, {hi}]"
            );
        }
        let final_keys: Vec<u64> = oracle.into_iter().collect();
        let backing = Arc::try_unwrap(set).ok().unwrap().into_inner();
        assert_eq!(keys_of(backing), final_keys);
    }
}
