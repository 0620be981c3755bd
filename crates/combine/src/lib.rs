//! Flat-combining concurrent front-end for batched stores.
//!
//! The paper's data structures consume *batches*: sorted runs of keys
//! processed wholesale through [`batchapi::BatchedMap`].  Real traffic does
//! not arrive that way — many client threads each issue *single* inserts,
//! removes and lookups.  [`ConcurrentMap`] (and [`ConcurrentSet`], its
//! `V = ()` alias) is the ingress layer between the two worlds.  **Writes**
//! are combined: clients publish one operation each into a lock-free list,
//! one thread elects itself **combiner**, drains everything published so
//! far, applies it to the backing store op by op in publish order, commits
//! the lot as one round — one sequence number, one published snapshot, one
//! call into the store's [`CommitSink`] — and hands each client its
//! individual result.
//! Writes that arrive as whole batches skip the combining and, when large
//! enough to parallelise, run inside a [`forkjoin::Pool`].  **Reads** never
//! enter a round: they are wait-free traversals of the snapshot the last
//! round published (see *Reads* below) — in the paper, too, only
//! `Insert`/`Remove` batches restructure the tree.
//!
//! This is the classic *flat combining* construction (Hendler, Incze,
//! Shavit & Tzafrir, SPAA '10), whose combiner applies the published ops one
//! by one.  What combining buys here is the synchronisation — one flag
//! hand-off, one publish and one commit to the sink per round instead of
//! per op — not a batch for the tree: a round holds one op per client
//! *blocked* on this store, and the tree does not fork a batch of fewer
//! than [`POOL_CUTOFF`] keys however it is called.  Measured (10⁶-key
//! `pbist::IstSet`, one thread, a fair insert/remove mix): forming a sorted
//! batch per kind from a k-op round and fanning the flags back cost
//! 1.4–2.2× the k point ops it replaced at k = 2 … 16, under a live
//! snapshot (which is every round here) as well as unshared, and was at
//! best level with them at k = 64 and 128; 32 client threads on one shard
//! form rounds of 1.02 ops in the mean, 1 at the 99th percentile.
//!
//! # Protocol
//!
//! 0. **Fast path** — a writer that finds the combiner flag free takes it
//!    directly (one CAS), flushes anything already published, runs its own
//!    operation against the backend's point path, and unlocks — no slot,
//!    no completion handshake.  Under no contention the front-end costs a
//!    CAS plus a load over a bare mutex; the published protocol below is
//!    the contended path, and an operation may go either way.
//! 1. **Publish** — the client embeds an op slot (`OpSlot`) on its own stack (the
//!    same single-word-pointer technique as `forkjoin`'s stack jobs: the
//!    slot never moves until its `done` flag is set) and pushes it onto the
//!    `ingress` Treiber stack with a `Release` CAS.  Push-only publishing
//!    makes the usual Treiber ABA hazard irrelevant: nothing is ever popped
//!    one-at-a-time, the combiner claims the whole list with one `swap`.
//! 2. **Elect** — any client with a pending op may become the combiner by
//!    CASing the `combiner` flag `FREE → HELD` (`Acquire`; the paired
//!    `Release` store of `FREE` on unlock carries the backing set's
//!    mutations from each combiner to the next).
//! 3. **Apply in publish order** — the combiner swaps the ingress head to
//!    null (`Acquire`, pairing with every publisher's `Release` CAS so slot
//!    fields are visible), reverses the drained list's links in place (the
//!    stack yields newest-first), and runs each slot's op against the
//!    backend's point path ([`BatchedMap::upsert_one`] /
//!    [`BatchedMap::remove_one`]), oldest first, writing the slot's result
//!    as it goes.  That order is the round's linearisation order (see
//!    below), and a round of one is the same loop running once.  The round
//!    then commits once: one seq, one snapshot publish, one
//!    [`CommitSink::commit`] — the round's ops borrowed straight from their
//!    slots, nothing cloned.  A combined round always runs inline on the
//!    combiner's thread; the pool is for whole batches (see *Batched
//!    ingress*).
//! 4. **Acknowledge** — each slot's result is written *before* its `done`
//!    flag is set (`Release`), and every `done` store comes after the
//!    round's publish; after that store the combiner never touches the
//!    slot again, because the client — who pairs with an `Acquire` load —
//!    is free to pop it off its stack.
//! 5. **Wake** — the combiner releases the `combiner` flag and then wakes
//!    waiters through the same fenced Dekker handshake as the scheduler's
//!    sleep path (`SeqCst` fence, then a sleeper-count check; sleepers
//!    register with a `SeqCst` RMW, fence, and re-check before waiting), so
//!    a completion or an unlock can never be slept through.  Only then does
//!    it drop the snapshot its publish retired (see *Reads*): freeing a
//!    round's path copy is the combiner's own time, not its clients'.
//!
//! # Waiting
//!
//! A client that finds the flag taken — its op published, or a whole batch
//! in hand — waits for its `done` flag or for the flag to come free.  How
//! it waits depends on what the combiner is doing, which the flag itself
//! says (free / held / held for a *long* round):
//!
//! * **Behind a point round it polls.**  A round of a few point ops is a
//!   path copy, a publish and the acknowledgements: microseconds.  Parking
//!   (a futex sleep, a wake-up syscall on the combiner's side, and the
//!   scheduler's latency before the sleeper runs again) costs more than the
//!   whole round, so the waiter polls — no `yield_now`, no syscall — for a
//!   fixed budget (`POLL_BUDGET`, 32 µs) and parks only if that runs out: a
//!   combiner that lost its CPU, or a point op that is slow for reasons of
//!   the backend's own.  The budget is a constant taken from the measured
//!   distribution of these waits, not an option: see its doc comment for
//!   the numbers.
//! * **Behind a long round it parks at once.**  A combiner about to run a
//!   whole pre-sorted batch — and only that — first marks the flag *long*.
//!   Such a round lasts tens of microseconds to milliseconds and — on a
//!   machine with as many clients as cores — needs the waiter's CPU for its
//!   pool workers; polling through it would be pure loss.
//!
//! Either way the sleeper handshake of step 5 is the only way onto or off
//! the condvar, so the polling phase changes *when* a waiter sleeps, never
//! whether it can be woken.  `combine.wait_ns` records each wait (when the
//! front-end's timed metrics are on — they follow the pool's
//! [`forkjoin::PoolBuilder::metrics`] switch) and `combine.sleeps` counts
//! the ones that parked.
//!
//! # Batched ingress
//!
//! Writes that *already* arrive as sorted batches — a sharded service
//! tier routing per-shard sub-batches, a replayed log — skip the slot
//! machinery entirely: [`ConcurrentMap::batch_insert`] /
//! [`ConcurrentMap::batch_remove`] make
//! the caller the combiner, flush any point ops published before it won
//! the flag, and execute the whole batch as one committed round (handed to
//! the sink as the batch's keys, values and flags, counted, and
//! poison-checked like any other).  A batch of at least
//! [`POOL_CUTOFF`] keys runs under [`forkjoin::Pool::install`], a smaller
//! one on the caller's thread; these are the only rounds that enter the
//! pool.
//!
//! # Linearisability
//!
//! Each round commits atomically between two combiner-lock critical
//! sections, and every operation in it was pending (published, not yet
//! completed) for the round's whole execution, so any order of them is a
//! valid linearisation: a round's ops linearise in publish order, the order
//! they are applied in.  Rounds themselves are ordered by combiner
//! succession, which respects real time
//! (an op completed in round *r* was drained before *r* executed, so any op
//! starting later publishes after the drain and lands in a later round).
//! The [`CommitSink`] receives exactly that order, under the flag.  A
//! front-end built over a [`RoundLog`] keeps it for
//! [`ConcurrentMap::take_rounds`], so tests can replay it against a
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
//!   own write is visible — because the combiner publishes the new root
//!   *before* it acknowledges any operation of the round that produced it.
//!
//! # Reads
//!
//! The read-only operations — [`ConcurrentMap::contains`],
//! [`ConcurrentMap::get`], their batched forms, [`ConcurrentMap::len`],
//! [`ConcurrentMap::rank`], [`ConcurrentMap::min`] / [`ConcurrentMap::max`],
//! the ordered queries and [`ConcurrentMap::snapshot_entries`] — never
//! elect a combiner and never wait for one.  They load the last published
//! [`ReadSnapshot`]: a clone of the backend (values included, sharing
//! structure with the live store via copy-on-write) paired with the seq of
//! the round that produced it.  The snapshot is *typed*: a read is a plain
//! [`batchapi::MapView`] call on an `&S`.
//!
//! **Publication protocol.**  Publication is `S::clone()`.  At the end of
//! every round the combiner — still holding the combiner flag — clones the
//! backend (one `Arc` bump for `pbist::IstMap`, two for
//! `baselines::SortedArrayMap`; a backend whose `Clone` copies its contents
//! pays that copy every round) and installs the clone in a two-slot
//! *left-right* cell: the new snapshot is written into the inactive slot
//! (after waiting out the readers still borrowing it), then the active-slot
//! index is flipped with a `SeqCst` store.  Readers increment the chosen
//! slot's borrow count, re-check the index, and clone the `Arc` out — a
//! handful of atomic ops, no allocation, no lock, regardless of combiner
//! activity.  Every round publishes, so the published snapshot's seq *is*
//! the committed high-water mark ([`ConcurrentMap::committed_seq`]).
//! Installing a snapshot displaces the one published two rounds earlier —
//! usually the last reference to that round's path copy — which the
//! combiner drops only after it has acknowledged its clients and released
//! the flag; `combine.publish_ns` times clone, flip and that drop together.
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
//! load, with no helping and no waiting, because a seq is observable only
//! once its round has published and the cell's seq never goes back.
//!
//! **Poisoning.**  Reads still fail fast on a poisoned front-end:
//! they panic like every other operation rather than serve reads from a
//! history whose tail is indeterminate.  They never *block* on the flag —
//! poisoned or not, a read completes or panics in bounded steps.
//!
//! # Contract
//!
//! Writes must be issued from threads *outside* the backing pool: a
//! pool worker blocking as a client could leave the combiner's own
//! `install` without a worker to run on.  The service pattern — client
//! threads in front, the pool as compute backend — satisfies this
//! naturally.
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

use std::cell::UnsafeCell;
use std::fmt;
use std::mem;
use std::ops::Bound;
use std::ptr;
use std::sync::atomic::{fence, AtomicBool, AtomicPtr, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use batchapi::{Batch, BatchedMap, KvBatch};
use forkjoin::Pool;
use obs::{Counter, Histogram, Registry};

/// How long a waiting client polls — no syscall, no `yield_now` — before it
/// parks on the condvar (see the module docs' *Waiting* section).
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

/// Polls between two reads of the clock while waiting: a poll is two loads
/// and a pause, so the deadline check is amortised over this many.
const POLLS_PER_CLOCK_READ: u32 = 32;

/// Spins a publishing combiner spends on a reader's borrow of the slot it
/// is about to overwrite before it starts yielding: the borrow is one `Arc`
/// clone or one point query, well under a microsecond unless its thread
/// lost the CPU.
const PUBLISH_SPINS: u32 = 128;

/// The combiner flag's states.  `FREE → HELD` is the election CAS; the
/// holder may raise `HELD → LONG` (a plain store: it owns the flag) before a
/// round whose length a handful of point ops does not bound, and releases
/// with a `Release` store of `FREE`.
const FREE: u8 = 0;
/// Held; the round in progress is a point round (or about to be known).
const HELD: u8 = 1;
/// Held by a combiner inside a whole-batch round: waiters park at once
/// rather than poll through it.
const LONG: u8 = 2;

/// A whole batch ([`ConcurrentMap::batch_insert`] /
/// [`ConcurrentMap::batch_remove`]) of at least this many keys executes
/// inside the fork-join pool; a smaller one runs on the caller's thread.
///
/// 512 because that is where the tree starts to fork: in `pbist` a batch of
/// at least 512 keys forks per child and a smaller one descends
/// sequentially, so an `install` for a smaller batch would pay the pool
/// round trip (tens of microseconds) and then run on one worker anyway.
/// Combined rounds never reach this: a round drained from published slots
/// holds one op per blocked client.
pub const POOL_CUTOFF: usize = 512;

/// What a combined operation does to the store.  Rounds carry writes
/// only — a read never enters one (see the module docs' *Reads* section).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Upsert a key (with its value); the result is `true` iff the key was
    /// newly inserted.
    Insert,
    /// Remove a key; the result is `true` iff it was present.
    Remove,
}

/// One operation slot, embedded on the issuing client's stack.
///
/// Published by pointer into the ingress list; the client guarantees the
/// slot stays pinned until `done` is set, and the combiner guarantees it
/// never touches the slot after setting `done`.
struct OpSlot<K, V> {
    /// Ingress linkage, written before the publishing CAS.
    next: AtomicPtr<OpSlot<K, V>>,
    kind: OpKind,
    key: K,
    /// The value an `Insert` carries (`None` for a `Remove`).  For the
    /// set this is an `Option<()>`: one byte, inside the slot's padding.
    val: Option<V>,
    /// Written by the combiner strictly before the `done` store.
    result: UnsafeCell<bool>,
    /// Completion flag: `Release` store by the combiner (its last touch of
    /// the slot), `Acquire` load by the owning client.
    done: AtomicBool,
}

/// One op of a committing round, borrowed from the round: `(kind, key,
/// value, result)`, the value `Some` for an insert.
pub type CommittedOp<'a, K, V> = (OpKind, &'a K, Option<&'a V>, bool);

/// Where a [`ConcurrentMap`]'s committed rounds go: the store's commit log,
/// kept by whoever needs one — `durable`'s write-ahead log, the replay
/// oracles' in-memory [`RoundLog`] — and [`NoLog`] by default.
///
/// [`CommitSink::commit`] runs inside every round's commit, under the
/// combiner flag: after the round's snapshot is published, before any of
/// its ops is acknowledged.  So a sink sees every round exactly once, in
/// seq order, with no lock of its own, and a client whose call has returned
/// finds its round already in the sink.  Between commits the sink is
/// reached through [`ConcurrentMap::hold_sink`].
pub trait CommitSink<K: 'static, V: 'static>: Send {
    /// Takes round `seq`'s ops, in linearisation order.
    fn commit<'a>(&mut self, seq: u64, ops: impl Iterator<Item = CommittedOp<'a, K, V>>);
}

/// The default [`CommitSink`]: keeps nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoLog;

impl<K: 'static, V: 'static> CommitSink<K, V> for NoLog {
    fn commit<'a>(&mut self, _: u64, _: impl Iterator<Item = CommittedOp<'a, K, V>>) {}
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

impl<K: Clone + Send + 'static, V: Clone + Send + 'static> CommitSink<K, V> for RoundLog<K, V> {
    fn commit<'a>(&mut self, seq: u64, ops: impl Iterator<Item = CommittedOp<'a, K, V>>) {
        let op = |(kind, key, val, result): CommittedOp<K, V>| RoundOp {
            kind,
            key: key.clone(),
            val: val.cloned(),
            result,
        };
        let ops = ops.map(op).collect();
        self.0.push(Round { seq, ops });
    }
}

/// One operation as committed by a combining round, for the [`RoundLog`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundOp<K, V = ()> {
    /// What the operation did.
    pub kind: OpKind,
    /// The key it applied to.
    pub key: K,
    /// The value an `Insert` wrote (`None` for a `Remove`) — what a
    /// replay needs to redo the upsert.
    pub val: Option<V>,
    /// The result handed back to the issuing client.
    pub result: bool,
}

/// One committed combining round: its operations in linearisation order —
/// publish order for a combined round, batch (key) order for a whole batch.
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
    /// `combine.rounds` — committed combining rounds (fast-path singletons
    /// included).
    rounds: Arc<Counter>,
    /// `combine.ops` — client operations completed across all rounds.
    ops: Arc<Counter>,
    /// `combine.pooled_rounds` — rounds that executed inside the pool.
    pooled_rounds: Arc<Counter>,
    /// `combine.fast_path_rounds` — ops that took the uncontended fast
    /// path (won the flag without publishing a slot).
    fast_path_rounds: Arc<Counter>,
    /// `combine.slow_path_ops` — ops that published a slot and went
    /// through the combining handshake.
    slow_path_ops: Arc<Counter>,
    /// `combine.poisoned` — combiner panics that poisoned the front-end.
    poisoned: Arc<Counter>,
    /// `combine.batch_rounds` — rounds that entered as a whole pre-sorted
    /// batch through the batched surface (a sharded tier's sub-batches),
    /// rather than being combined from published point ops.
    batch_rounds: Arc<Counter>,
    /// `combine.round_size` — ops per committed round.
    round_size: Arc<Histogram>,
    /// `combine.snapshot_reads` — read operations served wait-free from the
    /// published snapshot (each batched read counts once).
    snapshot_reads: Arc<Counter>,
    /// `combine.sleeps` — waits that ran out of polling (or met a long
    /// round) and parked on the condvar: one futex sleep and one wake each.
    sleeps: Arc<Counter>,
    /// `combine.publish_ns` — what publication costs a round: the backend
    /// clone, the snapshot-cell flip, and dropping the snapshot it retired
    /// (the drop runs after the round's acknowledgements, see
    /// `CombinerGuard`).  Timed only when the front-end's `obs` guard is on.
    publish_ns: Arc<Histogram>,
    /// `combine.wait_ns` — how long a client that found the flag taken
    /// waited (polling plus any sleep) before its op was done or the flag
    /// was free.  Timed only when the `obs` guard is on.
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
            fast_path_rounds: registry.counter("combine.fast_path_rounds"),
            slow_path_ops: registry.counter("combine.slow_path_ops"),
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

/// One slot of the left-right snapshot cell: the snapshot plus the number
/// of readers currently borrowing it.
struct SnapSlot<T> {
    readers: AtomicUsize,
    snap: UnsafeCell<Arc<T>>,
}

/// A two-slot *left-right* cell holding the last published snapshot.
///
/// Readers ([`SnapCell::load`]) are lock-free and run concurrently with
/// each other and with the single writer; the writer ([`SnapCell::publish`],
/// always the combiner, serialised by the combiner flag) updates the
/// *inactive* slot after waiting out its borrowers, then flips the active
/// index.  `SeqCst` on the index and the borrow registration keeps the
/// classic left-right argument airtight (see the proof sketch on `load`);
/// the borrow release needs only `Release` (the writer's spin load pairs
/// with it).
struct SnapCell<T> {
    /// Index (0 or 1) of the slot readers should borrow.
    active: AtomicUsize,
    slots: [SnapSlot<T>; 2],
}

// SAFETY: the `UnsafeCell`s are governed by the left-right protocol — the
// single writer mutates a slot only while its reader count is zero and the
// slot is inactive, and readers only read while registered on a slot they
// re-verified as active — so shared references handed out never alias a
// mutation.  The payload is an `Arc<T>`, shared across threads, hence
// `T: Send + Sync`.
unsafe impl<T: Send + Sync> Sync for SnapCell<T> {}
unsafe impl<T: Send + Sync> Send for SnapCell<T> {}

impl<T> SnapCell<T> {
    fn new(initial: Arc<T>) -> SnapCell<T> {
        SnapCell {
            active: AtomicUsize::new(0),
            slots: [
                SnapSlot {
                    readers: AtomicUsize::new(0),
                    snap: UnsafeCell::new(Arc::clone(&initial)),
                },
                SnapSlot {
                    readers: AtomicUsize::new(0),
                    snap: UnsafeCell::new(initial),
                },
            ],
        }
    }

    /// Returns the last published snapshot.  Lock-free: a reader retries
    /// only when the writer flipped the active index between its first load
    /// and its re-check, which one `publish` does at most once.
    ///
    /// Why the re-check suffices (all index/registration ops are `SeqCst`,
    /// so they form one total order): a writer mutates slot `a` only after
    /// its zero-check of `readers[a]`.  If our registration precedes that
    /// check in the total order, the writer sees the count and spins until
    /// our release.  If it follows, the flip that made `a` inactive (the
    /// writer targets `1 - active`) also precedes our re-check, which
    /// therefore reads the flipped index, fails, and retries — we never
    /// dereference a slot the writer may be mutating.
    fn load(&self) -> Arc<T> {
        self.with_snap(Arc::clone)
    }

    /// Runs `read` against the last published snapshot *inside* the borrow
    /// window — no `Arc` clone, so a point read's whole synchronisation
    /// cost is the two borrow-count bumps.  The flip side: the window now
    /// spans the read itself, so a publishing combiner may wait out one
    /// in-flight read (still bounded — new readers land on the flipped
    /// slot).  Long reads (batch scans) should [`SnapCell::load`] and pay
    /// the clone instead.
    ///
    /// The window is unwind-safe: the borrow is released by a drop guard, so
    /// a `read` that panics (a user `Ord` or `Clone`) leaves no count behind
    /// for a later `publish` to wait on.  Nothing is poisoned — the snapshot
    /// is immutable, so the next read finds it intact.
    fn with_snap<R>(&self, read: impl FnOnce(&Arc<T>) -> R) -> R {
        struct Borrow<'a>(&'a AtomicUsize);
        impl Drop for Borrow<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::Release);
            }
        }
        loop {
            let idx = self.active.load(Ordering::SeqCst);
            let slot = &self.slots[idx];
            slot.readers.fetch_add(1, Ordering::SeqCst);
            let _borrow = Borrow(&slot.readers);
            if self.active.load(Ordering::SeqCst) == idx {
                // SAFETY: registered on a slot re-verified active — the
                // left-right protocol (see `Sync` impl) keeps the writer
                // out until `_borrow` drops.
                return read(unsafe { &*slot.snap.get() });
            }
        }
    }

    /// Installs a new snapshot and hands back the one it displaced (two
    /// publishes old, and usually the last reference to it — dropping it
    /// frees that round's path copy, so the caller does it outside the
    /// critical section).  Caller must hold the combiner flag (single
    /// writer); waits out readers still borrowing the inactive slot, which
    /// hold it for at most one read — an `Arc` clone ([`SnapCell::load`])
    /// or a point query ([`SnapCell::with_snap`]) — spinning first, since
    /// that borrow is sub-microsecond unless its thread lost the CPU.
    fn publish(&self, snap: Arc<T>) -> Arc<T> {
        let idx = 1 - self.active.load(Ordering::Relaxed);
        let slot = &self.slots[idx];
        let mut spins = 0;
        while slot.readers.load(Ordering::SeqCst) != 0 {
            if spins < PUBLISH_SPINS {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        // SAFETY: slot `idx` is inactive (readers registering now target the
        // other slot, or will fail their re-check) and drained of readers;
        // the combiner flag excludes other writers.
        let retired = unsafe { mem::replace(&mut *slot.snap.get(), snap) };
        // The flip publishes the write above to readers: their `SeqCst`
        // re-check of `active` pairs with this store.
        self.active.store(idx, Ordering::SeqCst);
        retired
    }
}

/// A concurrent ordered key→value store serving per-operation traffic from
/// any number of client threads by flat-combining it into rounds over a
/// [`BatchedMap`] backend.
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
/// If a backend operation panics while a combiner executes a round,
/// the store's state — and the results of every operation drained into that
/// round — are indeterminate.  The front-end then behaves like a poisoned
/// `Mutex`: the panic propagates on the combining thread, clients whose
/// operations were in that round panic instead of blocking forever, and
/// every subsequent operation panics immediately.
pub struct ConcurrentMap<K, V, S, L = NoLog> {
    /// Head of the Treiber-stack ingress list of published op slots.
    ingress: AtomicPtr<OpSlot<K, V>>,
    /// The combiner flag ([`FREE`], [`HELD`] or [`LONG`]): held by at most
    /// one thread, which has exclusive access to `set`, `seq`, `retired`
    /// and `sink`.
    combiner: AtomicU8,
    /// The backing batched store.  Touched only while holding `combiner`.
    set: UnsafeCell<S>,
    /// Sequence number of the most recently committed round (starts at
    /// [`Options::first_seq`]).  Advanced by the combiner for every
    /// committed round.  Touched only while holding `combiner`.
    seq: UnsafeCell<u64>,
    /// The last published read snapshot (a clone of `set` + seq),
    /// republished by the combiner at the end of every round, so its seq is
    /// the committed high-water mark.  Read lock-free by every read;
    /// written only while holding `combiner`.
    snap: SnapCell<ReadSnapshot<S>>,
    /// The snapshot the last publish displaced, kept until the flag holder
    /// lets go (see [`CombinerGuard`]).  Touched only while holding
    /// `combiner`.
    retired: UnsafeCell<Option<Retired<S>>>,
    /// Fork-join pool executing whole batches of at least [`POOL_CUTOFF`]
    /// keys.
    pool: Pool,
    /// Where committed rounds go.  Touched only while holding `combiner`:
    /// by `commit_round`, and by [`ConcurrentMap::hold_sink`].
    sink: UnsafeCell<L>,
    /// Guards `progress` (never the data — that is what `combiner` is for).
    sleep_mutex: Mutex<()>,
    /// Signalled after every round commit and combiner unlock.
    progress: Condvar,
    /// Clients currently blocked on `progress`.
    sleepers: AtomicUsize,
    /// Set when a combiner panicked mid-round (a backend op threw):
    /// the backing store's state — and the results of any op drained into
    /// that round — are indeterminate, so every subsequent operation
    /// panics instead of blocking forever.  Mutex-poisoning semantics.
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
}

/// A snapshot displaced by a publish, waiting to be dropped outside the
/// critical section, with what its publish has cost so far (when timed).
struct Retired<S> {
    snap: Arc<ReadSnapshot<S>>,
    publish_ns: Option<u64>,
}

/// A concurrent ordered set: the `V = ()` instance of [`ConcurrentMap`]
/// (its insert slots carry a zero-sized value), with the value-less
/// [`insert`](ConcurrentMap::insert) spelling.
pub type ConcurrentSet<K, S, L = NoLog> = ConcurrentMap<K, (), S, L>;

/// Releases the combiner flag (and wakes waiters) on every exit from a
/// combining critical section — **including unwinds**.  A panic while
/// combining marks the front-end poisoned before the flag is released, so
/// woken waiters observe the poison rather than re-electing themselves
/// onto a half-mutated store (or hanging on slots whose `done` will never
/// come).
///
/// It also disposes of the snapshot the section's publish retired — *after*
/// the release and the wake-up: by then every client of the round has been
/// acknowledged and the next combiner can start, while this thread pays the
/// cascade of refcount decrements and frees that dropping a round's path
/// copy is.
struct CombinerGuard<'a, K, V, S, L> {
    set: &'a ConcurrentMap<K, V, S, L>,
}

impl<K, V, S, L> Drop for CombinerGuard<'_, K, V, S, L> {
    fn drop(&mut self) {
        let poisoning = std::thread::panicking();
        if poisoning {
            self.set.metrics.poisoned.inc();
            // SeqCst so the unlock below can never be observed before the
            // poison by a waiter's fenced re-check.
            self.set.poisoned.store(true, Ordering::SeqCst);
        }
        // SAFETY: still the flag holder — exclusive access to `retired`.
        let retired = unsafe { (*self.set.retired.get()).take() };
        self.set.combiner.store(FREE, Ordering::Release);
        // Producer half of the Dekker handshake (see module docs): fence,
        // then look for registered sleepers.  The common no-sleeper case is
        // one fence and one load.  On poison, always notify: blocked
        // clients must wake to observe it.
        fence(Ordering::SeqCst);
        if poisoning || self.set.sleepers.load(Ordering::Relaxed) > 0 {
            let _guard = self.set.sleep_mutex.lock().unwrap();
            self.set.progress.notify_all();
        }
        if let Some(retired) = retired {
            self.set.drop_retired(retired);
        }
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
        let snap = SnapCell::new(Arc::new(ReadSnapshot {
            seq: options.first_seq,
            view: set.clone(),
        }));
        ConcurrentMap {
            ingress: AtomicPtr::new(ptr::null_mut()),
            combiner: AtomicU8::new(FREE),
            set: UnsafeCell::new(set),
            seq: UnsafeCell::new(options.first_seq),
            snap,
            retired: UnsafeCell::new(None),
            pool,
            sink: UnsafeCell::new(sink),
            sleep_mutex: Mutex::new(()),
            progress: Condvar::new(),
            sleepers: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            registry,
            metrics,
            obs,
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

    /// Returns `true` when a combiner panic has
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
    /// go on meanwhile (they never touch the flag); ops published meanwhile
    /// are left to the next combiner.  It works on a poisoned front-end too
    /// — a poisoned round never reached the sink — and, like a round, a
    /// panic in `f` poisons the front-end.
    pub fn hold_sink<T>(&self, f: impl FnOnce(&mut L) -> T) -> T {
        while !self.lock_combiner() {
            self.wait_until(|| self.combiner_free());
        }
        let _held = CombinerGuard { set: self };
        // SAFETY: we hold the combiner flag — exclusive access to `sink`.
        f(unsafe { &mut *self.sink.get() })
    }

    fn lock_combiner(&self) -> bool {
        // Acquire pairs with the Release unlock of the previous combiner,
        // carrying the backing set's state to this thread.
        self.combiner
            .compare_exchange(FREE, HELD, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    /// `Acquire` so a waiter that sees the flag free also sees what the
    /// releasing combiner published.
    fn combiner_free(&self) -> bool {
        self.combiner.load(Ordering::Acquire) == FREE
    }

    /// Waits until `ready` holds: polls ([`ConcurrentMap::poll_until`]),
    /// then parks ([`ConcurrentMap::park_until`]).
    fn wait_until(&self, mut ready: impl FnMut() -> bool) {
        let start = Instant::now();
        if !self.poll_until(&mut ready, start) {
            self.park_until(&mut ready);
        }
        if self.obs.is_enabled() {
            let waited = start.elapsed().as_nanos() as u64;
            self.metrics.wait_ns.record(waited);
        }
    }

    /// Polls `ready` — no syscall — until it holds (`true`) or polling has
    /// stopped paying (`false`): [`POLL_BUDGET`] has run out since `start`,
    /// or the combiner has marked its round [`LONG`].
    fn poll_until(&self, mut ready: impl FnMut() -> bool, start: Instant) -> bool {
        loop {
            for _ in 0..POLLS_PER_CLOCK_READ {
                if ready() {
                    return true;
                }
                if self.combiner.load(Ordering::Relaxed) == LONG {
                    return false;
                }
                std::hint::spin_loop();
            }
            if start.elapsed() >= POLL_BUDGET {
                return false;
            }
        }
    }

    /// Parks on the condvar until `ready` holds.  Sleeper half of the Dekker
    /// handshake: register, fence, re-check, and only then wait, so a
    /// concurrent round commit or unlock cannot be slept through.
    fn park_until(&self, mut ready: impl FnMut() -> bool) {
        self.metrics.sleeps.inc();
        let mut guard = self.sleep_mutex.lock().unwrap();
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        while !ready() {
            guard = self.progress.wait(guard).unwrap();
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

// SAFETY: `ConcurrentMap` is a Mutex-like container.  `set`, `seq`, `retired`
// and `sink` are accessed only by the thread holding the `combiner` flag
// (Acquire/Release on that flag sequences successive combiners), so they
// need `Send` but not `Sync`; the published clones of `set` are read by
// every thread at once, hence `S: Sync`.  The ingress list holds pointers
// to `OpSlot`s pinned on client stacks; the publish CAS (Release) / drain
// swap (Acquire) pair transfers them to the combiner, which reads `key` and
// `val` by shared reference from another thread — hence `K: Sync`,
// `V: Sync` — and hands them back through the `done` Release/Acquire pair,
// after which only the owning client touches them.
unsafe impl<K: Send + Sync, V: Send + Sync, S: Send + Sync, L: Send> Sync
    for ConcurrentMap<K, V, S, L>
{
}
unsafe impl<K: Send, V: Send, S: Send + Sync, L: Send> Send for ConcurrentMap<K, V, S, L> {}

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
    /// Wraps `set` behind a flat-combining front-end with default
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
        match self.try_fast_op(OpKind::Insert, &key, Some(&val)) {
            Some(result) => result,
            None => self.run_op_published(OpKind::Insert, key, Some(val)),
        }
    }

    /// Removes `key`, returning `true` iff it was present.
    pub fn remove(&self, key: &K) -> bool {
        match self.try_fast_op(OpKind::Remove, key, None) {
            Some(result) => result,
            None => self.run_op_published(OpKind::Remove, key.clone(), None),
        }
    }

    // Every read is one closure over the published snapshot's `&S`,
    // wait-free under the module docs' staleness contract
    // and counted in `combine.snapshot_reads`: `read` for the short ones,
    // `scan` for those that can be long.

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

    /// Upserts every pair of `batch` as one combining round; `result[i]` is
    /// `true` iff key `i` was newly inserted.
    ///
    /// This is the batched ingress a sharded service tier routes sub-batches
    /// through: the caller becomes the combiner (flushing any point ops
    /// published before it won the flag — they were pending first, so they
    /// linearise first), runs the whole batch against the backend in one
    /// round, and commits it to the sink like any other round.  Batches
    /// of at least [`POOL_CUTOFF`] keys execute inside the pool.
    pub fn batch_insert(&self, batch: &KvBatch<K, V>) -> Vec<bool> {
        self.run_batch_op(OpKind::Insert, batch, Some(batch.vals()), |set| {
            set.batch_insert(batch)
        })
    }

    /// Removes every key of `batch` as one combining round; `result[i]` is
    /// `true` iff `batch[i]` was present.  See
    /// [`ConcurrentMap::batch_insert`] for the linearisation contract.
    pub fn batch_remove(&self, batch: &Batch<K>) -> Vec<bool> {
        self.run_batch_op(OpKind::Remove, batch, None, |set| set.batch_remove(batch))
    }

    /// Becomes the combiner (waiting out a concurrent one; the pending
    /// published ops are flushed on the way in), then executes one pre-sorted
    /// batch of `kind` ops over `keys` (with `vals` for inserts) as one round:
    /// `run` — the backend's batched op — runs once and its per-key flags
    /// are the result, and the round is committed and counted exactly like
    /// a combined one.
    fn run_batch_op(
        &self,
        kind: OpKind,
        keys: &[K],
        vals: Option<&[V]>,
        run: impl FnOnce(&mut S) -> Vec<bool> + Send,
    ) -> Vec<bool> {
        if keys.is_empty() {
            // Nothing to linearise: no round, no seq.
            self.check_poisoned();
            return Vec::new();
        }
        let _held = loop {
            if let Some(held) = self.try_hold() {
                break held;
            }
            self.wait_until(|| self.combiner_free() || self.poisoned.load(Ordering::Acquire));
        };
        // SAFETY: we hold the combiner flag — exclusive set access.
        let set = unsafe { &mut *self.set.get() };
        // A whole batch is the one round waiters should not poll through.
        // `Relaxed`: a hint, read by waiters' polls; the unlock's `Release`
        // store of `FREE` overwrites it.
        self.combiner.store(LONG, Ordering::Relaxed);
        let pooled = keys.len() >= POOL_CUTOFF;
        let out = if pooled {
            self.pool.install(|| run(set))
        } else {
            run(set)
        };
        debug_assert_eq!(out.len(), keys.len(), "one flag per batch key");
        let ops = (keys.iter().zip(&out).enumerate())
            .map(|(i, (key, &result))| (kind, key, vals.map(|vals| &vals[i]), result));
        self.commit_round(keys.len() as u64, ops);
        self.metrics.batch_rounds.add_single_writer(1);
        if pooled {
            self.metrics.pooled_rounds.add_single_writer(1);
        }
        out
    }

    /// A short read (point query, rank arithmetic): the query runs inside
    /// the snapshot cell's borrow window (no `Arc` refcount traffic — the
    /// read-side cost is two borrow-count bumps plus the counter), so it
    /// stays cheaper than electing a combiner even on the uncontended fast
    /// path.
    fn read<T>(&self, read: impl FnOnce(&S) -> T) -> T {
        self.check_poisoned();
        let result = self.snap.with_snap(|snap| read(snap.view()));
        self.metrics.snapshot_reads.inc();
        result
    }

    /// A read that can be long (range scan, batch lookup): holds an `Arc`
    /// ([`ConcurrentMap::read_snapshot`]) rather than the cell's borrow
    /// window, so a concurrent publisher never waits on the scan.
    fn scan<T>(&self, read: impl FnOnce(&S) -> T) -> T {
        self.check_poisoned();
        read(self.read_snapshot().view())
    }

    /// The last published [`ReadSnapshot`]: contents plus the seq of the
    /// round that produced them.  Lock-free; counts as a snapshot read
    /// in the metrics.  Unlike the
    /// read operations this does **not** check for poisoning — like
    /// [`ConcurrentMap::is_poisoned`] it is a supervisor-grade accessor
    /// (the snapshot predates the poisoned round: a panicking round never
    /// publishes).
    pub fn read_snapshot(&self) -> Arc<ReadSnapshot<S>> {
        self.metrics.snapshot_reads.inc();
        self.snap.load()
    }

    /// Seq of the last committed round — the published snapshot's seq,
    /// since every round publishes before it acknowledges.  Any later
    /// [`ConcurrentMap::read_snapshot`] carries a seq `>=` this mark (the
    /// module docs' *Staleness contract*).
    pub fn committed_seq(&self) -> u64 {
        self.snap.with_snap(|snap| snap.seq)
    }

    /// Collects every pair of the last published snapshot (ascending, as
    /// parallel key and value arrays) together with the sequence number it
    /// reflects — a consistent snapshot *and* its high-water mark, from one
    /// linearisation point.
    ///
    /// Like every read it never enters a round and never
    /// races a combiner: a round that panics mid-execution never publishes,
    /// so a half-applied round's view is structurally unreachable from
    /// here.  Pending published ops are *not* flushed — the pair reflects
    /// acknowledged rounds only (every acknowledged write is covered,
    /// because rounds publish before they acknowledge).  This is the
    /// durability tier's snapshot primitive: persist the pairs, record the
    /// mark, and replay only log records with seq above it.
    pub fn snapshot_entries(&self) -> (Vec<K>, Vec<V>, u64) {
        self.check_poisoned();
        let snap = self.snap.load();
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
    /// front-end is quiescent), the fast/slow path split, the snapshot-read,
    /// poison and `combine.sleeps` counts, the `combine.round_size`
    /// histogram and — recorded only when the pool was built with
    /// [`PoolBuilder::metrics`](forkjoin::PoolBuilder::metrics) on, since
    /// they read the clock — the `combine.publish_ns` and `combine.wait_ns`
    /// histograms.  Metric names follow the workspace `<subsystem>.<metric>`
    /// convention.
    pub fn metrics(&self) -> obs::Snapshot {
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

    /// Consumes the front-end, returning the backing set (and shutting the
    /// pool down).  Owning `self` proves no operation is in flight, so no
    /// published slot can be pending.
    pub fn into_inner(self) -> S {
        debug_assert!(self.ingress.load(Ordering::Relaxed).is_null());
        self.set.into_inner()
    }

    /// Takes the combiner flag if it is free — the one way in for the fast
    /// path, a publisher electing itself and a whole batch — and flushes
    /// whatever is already published: those ops were pending before the
    /// holder's own, so they must not be starved, and linearising them first
    /// keeps the log order honest.  The flag is released (and waiters woken)
    /// when the returned guard drops.  `None` when the flag is taken.
    fn try_hold(&self) -> Option<CombinerGuard<'_, K, V, S, L>> {
        self.check_poisoned();
        if !self.lock_combiner() {
            return None;
        }
        let held = CombinerGuard { set: self };
        // Re-check *after* winning the flag: the pre-CAS check races a
        // poisoning combiner's release, and proceeding here would both
        // combine on the half-mutated set and dereference slots abandoned
        // by clients that already panicked out.  The Acquire CAS pairs
        // with the poisoner's Release unlock, which its poison store
        // preceded, so this load cannot miss the poison.
        self.check_poisoned();
        self.combine_round();
        Some(held)
    }

    /// The uncontended fast path: if nobody is combining, become the
    /// combiner *without* publishing a slot and run our own op directly
    /// against the backend's point path, as a round of its own.  No slot, no
    /// `done` handshake, no key clone; under no contention the front-end
    /// costs one CAS + one load over a plain mutex.
    ///
    /// Returns `None` when the combiner flag is taken, and the caller must
    /// fall back to [`ConcurrentMap::run_op_published`].
    fn try_fast_op(&self, kind: OpKind, key: &K, val: Option<&V>) -> Option<bool> {
        let _held = self.try_hold()?;
        self.metrics.fast_path_rounds.add_single_writer(1);
        let result = self.apply(kind, key, val);
        self.commit_round(1, std::iter::once((kind, key, val, result)));
        Some(result)
    }

    /// Executes one operation against the backend's point path.  Caller
    /// must hold the combiner flag (and commit the round the op belongs to).
    fn apply(&self, kind: OpKind, key: &K, val: Option<&V>) -> bool {
        // SAFETY: the caller holds the combiner flag — exclusive set access.
        let set = unsafe { &mut *self.set.get() };
        match kind {
            OpKind::Insert => set.upsert_one(key, val.expect("insert ops carry a value")),
            OpKind::Remove => set.remove_one(key),
        }
    }

    /// The contended path: publishes a slot, then combines or waits until
    /// the op completes.
    fn run_op_published(&self, kind: OpKind, key: K, val: Option<V>) -> bool {
        // Concurrent clients land here, so this is a real RMW, not the
        // combiner-only single-writer advance.
        self.metrics.slow_path_ops.inc();
        let slot = OpSlot {
            next: AtomicPtr::new(ptr::null_mut()),
            kind,
            key,
            val,
            result: UnsafeCell::new(false),
            done: AtomicBool::new(false),
        };
        // Pinned from here on: `slot` must not move until `done` is set.
        let slot_ptr = &slot as *const OpSlot<K, V> as *mut OpSlot<K, V>;
        let mut head = self.ingress.load(Ordering::Relaxed);
        loop {
            slot.next.store(head, Ordering::Relaxed);
            // Release publishes the slot's fields (kind/key/val/next) to the
            // combiner's Acquire drain-swap.  A successful CAS against a
            // re-seen head value is still correct (push-only ABA): whatever
            // lives at that address now is a live published slot, and our
            // `next` points at it.
            match self.ingress.compare_exchange_weak(
                head,
                slot_ptr,
                Ordering::Release,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(current) => head = current,
            }
        }
        loop {
            if slot.done.load(Ordering::Acquire) {
                break;
            }
            // A poisoned front-end will never complete our slot; panicking
            // here (rather than blocking forever) also means the slot's
            // memory is abandoned exactly like every other poisoned path —
            // nothing dereferences it again, because every entry point
            // panics before touching the ingress list.
            if self.try_hold().is_some() {
                continue; // we combined a round; our op may be done now
            }
            // Someone else holds the combiner flag; they will either drain
            // our op or wake us when they release.
            self.wait_until(|| {
                slot.done.load(Ordering::Acquire)
                    || self.combiner_free()
                    || self.poisoned.load(Ordering::Acquire)
            });
        }
        // SAFETY: `done` was set (Acquire above) after the combiner's final
        // write of `result`, and the combiner no longer touches the slot.
        unsafe { *slot.result.get() }
    }

    /// Commits the round of `len` ops the caller has just executed against
    /// the backend — every round, of whatever origin, commits here.  Caller
    /// must hold the combiner flag and must not have acknowledged any op of
    /// the round yet (stored a slot's `done`, returned a result).  The order
    /// is the contract: allocate the seq, **publish** the state as snapshot
    /// `seq` — publish-before-acknowledge is the whole read-your-writes
    /// guarantee — then hand the round to the **sink** (`ops`, the round's
    /// operations in linearisation order), because an acknowledged client
    /// may return and at once rely on its round being in the sink: on the
    /// write-ahead log, or in the log a replay takes.
    ///
    /// The seq and the counters are combiner-only — flag hand-off (Release
    /// unlock / Acquire lock) orders successive combiners — so seqs are
    /// strictly increasing and gap-free in commit order, and the
    /// single-writer plain-load+store advance is exact without atomic RMWs.
    fn commit_round<'a>(&self, len: u64, ops: impl Iterator<Item = CommittedOp<'a, K, V>>) {
        let start = self.obs.now();
        // SAFETY: combiner flag held — exclusive access to `seq`, `set` (the
        // round's own `&mut` borrow is dead by the time this runs),
        // `retired` and `sink`.
        let (seq, view, retired, sink) = unsafe {
            let seq = &mut *self.seq.get();
            *seq += 1;
            let view = (*self.set.get()).clone();
            (*seq, view, &mut *self.retired.get(), &mut *self.sink.get())
        };
        let snap = self.snap.publish(Arc::new(ReadSnapshot { seq, view }));
        let publish_ns = start.map(|start| start.elapsed().as_nanos() as u64);
        // The snapshot this displaced waits in `retired` for the
        // [`CombinerGuard`] to drop once the flag is free.  A second publish
        // under one hold of the flag (a fast-path or batch op that first
        // flushed published ops): only the last waits for the guard.
        if let Some(earlier) = retired.replace(Retired { snap, publish_ns }) {
            self.drop_retired(earlier);
        }
        sink.commit(seq, ops);
        self.metrics.ops.add_single_writer(len);
        self.metrics.round_size.record(len);
        self.metrics.rounds.add_single_writer(1);
    }

    /// Panics if a combiner panicked mid-round (see the struct docs'
    /// poisoning section).
    fn check_poisoned(&self) {
        if self.poisoned.load(Ordering::Acquire) {
            panic!(
                "ConcurrentMap is poisoned: a combiner panicked mid-round, \
                 so the backing store's state is indeterminate"
            );
        }
    }

    /// Runs one combining round — inline, on this thread: every op published
    /// so far, applied to the backend's point path in publish order and
    /// committed as one round.  Caller must hold the combiner flag.
    fn combine_round(&self) {
        // A plain load dodges the swap's locked RMW in the common empty
        // case (`Relaxed`: only compared with null — the swap below is what
        // makes a slot's fields visible).  Missing a racing publish is
        // harmless: its publisher observes our unlock (spin recheck or the
        // Dekker handshake) and elects itself next.
        if self.ingress.load(Ordering::Relaxed).is_null() {
            return;
        }
        // Claim everything published so far.  Acquire pairs with the
        // publishers' Release CASes, making the slots' fields visible.
        let mut newer = self.ingress.swap(ptr::null_mut(), Ordering::Acquire);
        // The Treiber stack yields newest-first: reverse the links in place
        // to restore publish order.  The drained list is the combiner's own
        // — a publisher writes `next` only before its CAS.
        let mut oldest: *mut OpSlot<K, V> = ptr::null_mut();
        let mut len = 0;
        // SAFETY: every published slot stays pinned until its `done` flag
        // is set, which is the last thing this round does to it.
        while let Some(slot) = unsafe { newer.as_ref() } {
            let older = slot.next.load(Ordering::Relaxed);
            slot.next.store(oldest, Ordering::Relaxed);
            (oldest, newer) = (newer, older);
            len += 1;
        }
        // The round's slots, oldest first.  Each slot's link is read
        // *before* the slot is yielded, so a consumer may set `done` — after
        // which the slot is gone — as its last touch.
        let round = || {
            let mut cursor: *const OpSlot<K, V> = oldest;
            std::iter::from_fn(move || {
                // SAFETY: pinned as above, and the links are ours.
                let slot = unsafe { cursor.as_ref() }?;
                cursor = slot.next.load(Ordering::Relaxed);
                Some(slot)
            })
        };
        // Publish order is the round's linearisation order (see the module
        // docs); a round of one is this loop running once.
        for slot in round() {
            let result = self.apply(slot.kind, &slot.key, slot.val.as_ref());
            // SAFETY: combiner-exclusive until the `done` store; the owning
            // client reads `result` only after its Acquire load of `done`.
            unsafe { *slot.result.get() = result };
        }
        let ops = round().map(|slot| {
            // SAFETY: written above, still combiner-exclusive.
            let result = unsafe { *slot.result.get() };
            (slot.kind, &slot.key, slot.val.as_ref(), result)
        });
        self.commit_round(len, ops);
        // Completion: after each `done` store (Release publishes the result
        // write) the owning client may pop the slot off its stack, so it is
        // the combiner's last touch — `round` has read `next` already.
        for slot in round() {
            slot.done.store(true, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchapi::MapView;
    use std::collections::BTreeSet;
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
        let flat: Vec<RoundOp<u64>> = rounds.into_iter().flat_map(|r| r.ops).collect();
        assert_eq!(
            flat,
            vec![
                RoundOp {
                    kind: OpKind::Insert,
                    key: 1,
                    val: Some(()),
                    result: true
                },
                RoundOp {
                    kind: OpKind::Remove,
                    key: 1,
                    val: None,
                    result: true
                },
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
    }

    #[test]
    fn registry_metrics_split_fast_and_slow_paths() {
        let set = fresh();
        for k in 0..10 {
            set.insert(k);
        }
        assert!(set.contains(&3));
        let m = set.metrics();
        // Sequential writers always win the flag: everything is fast path,
        // and the read is no round at all.
        assert_eq!(m.counter("combine.fast_path_rounds"), Some(10));
        assert_eq!(m.counter("combine.slow_path_ops"), Some(0));
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

        // A writer that finds the flag taken publishes: the holder of the
        // open round took the fast path, the one behind it the slow one.
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
        assert_eq!(m.counter("combine.fast_path_rounds"), Some(1));
        assert_eq!(m.counter("combine.slow_path_ops"), Some(1));
        assert_eq!(m.counter("combine.rounds"), Some(2));
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
        assert_eq!(
            rounds[1].ops[0],
            RoundOp {
                kind: OpKind::Insert,
                key: 1,
                val: Some(()),
                result: true
            }
        );
        assert_eq!(rounds[2].ops.len(), 2);

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
        // Regression: the panicking read's borrow count stayed on its slot,
        // so the second publish after it — the one that reuses that slot —
        // waited for ever with the combiner flag held.
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
    /// `u64::MAX` panics too — the bomb a combined round meets mid-way.)
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
    /// point round.  A client parks only after it has published, so parking
    /// clients one after another fixes their publish order.
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
    /// client left waiting on a round that will never acknowledge it is the
    /// failure these tests exist to catch.
    fn join_bounded<T>(client: std::thread::JoinHandle<T>) -> std::thread::Result<T> {
        let deadline = Instant::now() + Duration::from_secs(30);
        while !client.is_finished() {
            assert!(Instant::now() < deadline, "a client hung");
            std::thread::sleep(Duration::from_millis(1));
        }
        client.join()
    }

    /// Holds a whole-batch round open over `{1, 2, 3, GATE}`: the flag is
    /// `LONG`, so every client started before the returned sender fires
    /// parks as soon as it has published.
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
    fn a_rounds_ops_linearise_in_publish_order() {
        let (set, entered, release) = gated();
        let holder = hold_a_long_round(&set, &entered);
        // Published in this order, all into the one round the first client
        // to wake combines.
        let x = 50;
        let clients = [
            park_behind(&set, move |set| set.remove(&x)),
            park_behind(&set, move |set| set.insert(x)),
            park_behind(&set, move |set| set.insert(x)),
        ];
        release.send(()).unwrap();
        assert_eq!(join_bounded(holder).unwrap(), vec![true; 4]);
        let results: Vec<bool> = clients
            .into_iter()
            .map(|client| join_bounded(client).unwrap())
            .collect();
        assert_eq!(
            results,
            [false, true, false],
            "remove observed an insert published after it"
        );
        assert!(set.contains(&x));

        let rounds = set.take_rounds();
        assert_eq!(rounds.len(), 2, "the batch, then one combined round");
        let logged: Vec<(OpKind, u64, bool)> = rounds[1]
            .ops
            .iter()
            .map(|op| (op.kind, op.key, op.result))
            .collect();
        assert_eq!(
            logged,
            [
                (OpKind::Remove, x, false),
                (OpKind::Insert, x, true),
                (OpKind::Insert, x, false)
            ]
        );
        let mut oracle = BTreeSet::new();
        for op in rounds.iter().flat_map(|round| &round.ops) {
            let expect = match op.kind {
                OpKind::Insert => oracle.insert(op.key),
                OpKind::Remove => oracle.remove(&op.key),
            };
            assert_eq!(op.result, expect, "replaying {op:?}");
        }
        assert_eq!(set.snapshot_keys().0, Vec::from_iter(oracle));
    }

    #[test]
    fn a_panic_mid_round_publishes_none_of_the_round() {
        let (set, entered, release) = gated();
        let holder = hold_a_long_round(&set, &entered);
        // A three-op round whose second op is the bomb: by the time it goes
        // off, `insert(20)` has been applied to the working copy.
        let clients = [
            park_behind(&set, |set| set.insert(20)),
            park_behind(&set, |set| set.remove(&u64::MAX)),
            park_behind(&set, |set| set.insert(21)),
        ];
        release.send(()).unwrap();
        assert_eq!(join_bounded(holder).unwrap(), vec![true; 4]);

        // Whichever client woke first combined the round and carries the
        // backend's own panic; the other two fail with the poison message,
        // and so does every later writer.  Nobody hangs.
        let message = |payload: Box<dyn std::any::Any + Send>| {
            *payload.downcast_ref::<&str>().expect("str payload")
        };
        let mut messages: Vec<&str> = clients
            .into_iter()
            .map(|client| message(join_bounded(client).expect_err("the round was acknowledged")))
            .collect();
        messages.sort_by_key(|msg| msg.contains("poisoned"));
        assert_eq!(messages[0], "bomb");
        assert!(messages[1..].iter().all(|msg| msg.contains("poisoned")));
        assert!(set.is_poisoned());
        let later = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| set.insert(5)));
        assert!(message(later.unwrap_err()).contains("poisoned"));

        // A panicking round never publishes: the snapshot is the state the
        // batch round left, at its seq, with none of the applied ops in it.
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
            assert_eq!(m.counter("combine.slow_path_ops"), Some(1));
            assert!(m.counter("combine.sleeps") >= Some(1));
            let waits = m.histogram("combine.wait_ns").unwrap();
            assert!(waits.count() >= 1, "the wait went untimed");
            // Two rounds published, each timed once its retiree dropped.
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
            .flat_map(|r| r.ops)
            .map(|op| (op.kind, op.key, op.val))
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
                let expect = match op.kind {
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
