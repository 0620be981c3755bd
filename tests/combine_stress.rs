//! Linearizability-style stress suite for the concurrent front-end.
//!
//! N client threads issue recorded single-op traces through a
//! `combine::ConcurrentMap` over the real tree.  A round log keeps every
//! committed round — the writes; afterwards the test replays the rounds
//! **sequentially** against a `BTreeMap` oracle and demands that
//!
//! 1. every per-op result recorded in the log matches the sequential replay
//!    (the committed order is a valid linearisation),
//! 2. the multiset of `(kind, key, result)` triples the writers observed
//!    equals the multiset in the log (every client write appears exactly
//!    once, with exactly the result its client saw),
//! 3. the backing store's final contents — values included — equal the
//!    oracle's, with the tree's shape invariants intact, and
//! 4. every read of the traces — `contains`, `get`, `batch_contains`, and a
//!    `read_snapshot` handle's view — answered with the replayed state after
//!    a round it can have observed (`common::History::check`).
//!
//! The harness is generic over the value type and runs at `V = ()` (the
//! set) and at `V = u64`, where every insert writes a value no other op
//! writes, so "which write won" is decidable from the contents alone.
//!
//! Together with the fact that round commit order respects real time (an op
//! that completed before another started committed in an earlier round,
//! and a round publishes its snapshot before its caller returns),
//! this is a linearizability check for the whole history.
//!
//! Every failure message carries the active seed and configuration so CI
//! failures replay without bisecting.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Debug;
use std::ops::Bound;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;

mod common;
use common::{write_kind, Answer, BombSet, History, Read};

use batchapi::{Batch, KvBatch, MapView};
use combine::{
    ConcurrentMap, ConcurrentSet, OpKind as CombinedOp, Options, ReadSnapshot, Round, RoundLog,
    POOL_CUTOFF, READ_STRIPES,
};
use forkjoin::Pool;
use pbist::{IstMap, IstSet};
use workloads::{self, ClientTrace, OpKind};

/// The value types the replay oracle runs at.
trait Val: Clone + PartialEq + Debug + Send + Sync + 'static {
    /// The value client `client` writes at step `step` of its trace —
    /// distinct for every (client, step) at `u64`, so a value names the one
    /// write that produced it.
    fn of(client: u64, step: u64) -> Self;
}

impl Val for () {
    fn of(_client: u64, _step: u64) {}
}

impl Val for u64 {
    fn of(client: u64, step: u64) -> u64 {
        client << 32 | step
    }
}

/// The client id the pre-loaded contents are written under.
const PRELOAD: u64 = 0xFFFF;

/// The front-end under test: the tree, its rounds kept for the replay.
type Logged<V> = ConcurrentMap<u64, V, IstMap<u64, V>, RoundLog<u64, V>>;

/// What a client saw from one op of its trace.
enum Seen<V> {
    Wrote(bool),
    Read(Read<V>),
}

/// Reads `key` through the surface `step` picks — three of four through the
/// front-end's own calls, bracketed by the committed seq; the fourth through
/// a snapshot handle, whose answer must be the state at exactly its seq.
fn read_key<V: Val>(set: &Logged<V>, acked: &AtomicU64, key: u64, step: u64) -> Read<V> {
    let acked = acked.load(Ordering::SeqCst);
    let (lo, answer, hi) = if step % 4 == 3 {
        let snap = set.read_snapshot();
        (snap.seq(), Answer::Value(snap.view().get(&key)), snap.seq())
    } else {
        let lo = set.committed_seq();
        let answer = match step % 4 {
            0 => Answer::Present(set.contains(&key)),
            1 => Answer::Value(set.get(&key)),
            _ => Answer::Present(set.batch_contains(&Batch::from_unsorted(vec![key]))[0]),
        };
        (lo, answer, set.committed_seq())
    };
    Read {
        key,
        answer,
        acked,
        lo,
        hi,
    }
}

/// Drives `traces` — and beside them one more client issuing `script`'s
/// whole write batches — concurrently through a logged
/// `ConcurrentMap<_, V, IstMap>` seeded with `initial`, then runs the four
/// oracle checks above.
fn drive_and_verify<V: Val>(
    ctx: &str,
    pool_threads: usize,
    initial: &[u64],
    traces: &[ClientTrace],
    script: &[(CombinedOp, Batch<u64>)],
) {
    let ctx = &format!("{ctx}, V = {}", std::any::type_name::<V>());
    let pool = Pool::new(pool_threads).unwrap_or_else(|e| panic!("{ctx}: pool: {e}"));
    let preload = |&k: &u64| (k, V::of(PRELOAD, k));
    let backing = IstMap::from_unsorted_entries(initial.iter().map(preload).collect());
    let set = Arc::new(ConcurrentMap::with_sink(
        backing,
        pool,
        Options::default(),
        RoundLog::default(),
    ));

    // Writes acknowledged so far, to any client (see `common`).
    let acked = AtomicU64::new(0);
    let (observed, batch_flags): (Vec<Vec<Seen<V>>>, Vec<Vec<bool>>) = thread::scope(|s| {
        let batcher = {
            let (set, acked, client) = (Arc::clone(&set), &acked, traces.len() as u64);
            s.spawn(move || {
                let run = |((kind, batch), step): (&(CombinedOp, Batch<u64>), u64)| {
                    let flags = match kind {
                        CombinedOp::Insert => {
                            let entry = |&k: &u64| (k, V::of(client, step));
                            let entries = batch.iter().map(entry).collect();
                            set.batch_insert(&KvBatch::from_unsorted_entries(entries))
                        }
                        CombinedOp::Remove => set.batch_remove(batch),
                    };
                    acked.fetch_add(batch.len() as u64, Ordering::SeqCst);
                    flags
                };
                script.iter().zip(0u64..).map(run).collect()
            })
        };
        let handles: Vec<_> = traces
            .iter()
            .zip(0u64..)
            .map(|(trace, client)| {
                let (set, acked) = (Arc::clone(&set), &acked);
                s.spawn(move || {
                    trace
                        .iter()
                        .zip(0u64..)
                        .map(|((kind, key), step)| {
                            let wrote = match kind {
                                OpKind::Insert => set.upsert(*key, V::of(client, step)),
                                OpKind::Remove => set.remove(key),
                                OpKind::Contains => {
                                    return Seen::Read(read_key(&set, acked, *key, step))
                                }
                            };
                            acked.fetch_add(1, Ordering::SeqCst);
                            Seen::Wrote(wrote)
                        })
                        .collect()
                })
            })
            .collect();
        let observed = handles.into_iter().map(|h| h.join().unwrap()).collect();
        (observed, batcher.join().unwrap())
    });

    let rounds = set.take_rounds();
    let point_writes = traces
        .iter()
        .flatten()
        .filter(|(kind, _)| *kind != OpKind::Contains)
        .count();
    let writes = point_writes + script.iter().map(|(_, batch)| batch.len()).sum::<usize>();
    assert_eq!(
        rounds.iter().map(|r| r.ops.len()).sum::<usize>(),
        writes,
        "{ctx}: logged op count"
    );

    // Check 0: sequence numbers are strictly increasing and gap-free in
    // commit order — the numbering a durable log keys its records by.
    for (r, round) in rounds.iter().enumerate() {
        assert_eq!(round.seq, r as u64 + 1, "{ctx}: round seq at index {r}");
    }

    // Check 1: the committed round order is a valid linearisation.
    let mut history: History<V> = History::new(initial.iter().map(preload).collect());
    for (r, round) in rounds.iter().enumerate() {
        let expect = history.apply(round);
        for (op, expect) in round.ops.iter().zip(expect) {
            assert_eq!(op.result, expect, "{ctx}: round {r}, op {op:?}");
        }
    }

    // Check 2: writers observed exactly the logged multiset of results.
    // Check 4: every read is the state after a round it can have observed.
    let mut tally: HashMap<(CombinedOp, u64, bool), i64> = HashMap::new();
    for (trace, results) in traces.iter().zip(&observed) {
        assert_eq!(results.len(), trace.len(), "{ctx}: client result count");
        for ((kind, key), seen) in trace.iter().zip(results) {
            match seen {
                Seen::Read(read) => history.check(read, ctx),
                Seen::Wrote(result) => {
                    *tally.entry((write_kind(*kind), *key, *result)).or_insert(0) += 1
                }
            }
        }
    }
    for ((kind, batch), flags) in script.iter().zip(&batch_flags) {
        assert_eq!(flags.len(), batch.len(), "{ctx}: batch result width");
        for (key, &result) in batch.iter().zip(flags) {
            *tally.entry((*kind, *key, result)).or_insert(0) += 1;
        }
    }
    for round in &rounds {
        for op in &round.ops {
            *tally.entry((round.kind, op.key, op.result)).or_insert(0) -= 1;
        }
    }
    if let Some((entry, count)) = tally.iter().find(|(_, &c)| c != 0) {
        panic!("{ctx}: client/log multiset mismatch at {entry:?} (excess {count})");
    }

    // Check 3: the final structure matches the oracle, invariants intact.
    let oracle = &history.now;
    assert_eq!(
        set.metrics().counter("combine.ops"),
        Some(writes as u64),
        "{ctx}: combine.ops"
    );
    // The pool is for whole batches at the cut-off, and for nothing else.
    let large = script.iter().filter(|(_, b)| b.len() >= POOL_CUTOFF);
    assert_eq!(
        set.metrics().counter("combine.pooled_rounds"),
        Some(large.count() as u64),
        "{ctx}: combine.pooled_rounds"
    );
    let backing = Arc::try_unwrap(set)
        .unwrap_or_else(|_| panic!("{ctx}: client Arc leaked"))
        .into_inner();
    backing
        .check_invariants()
        .unwrap_or_else(|e| panic!("{ctx}: invariants: {e}"));
    assert_eq!(backing.len(), oracle.len(), "{ctx}: final len");
    let present = Batch::from_unsorted(oracle.keys().copied().collect());
    assert!(
        backing.batch_contains(&present).iter().all(|&hit| hit),
        "{ctx}: an oracle key is missing from the backing set"
    );
    assert!(
        backing
            .batch_get(&present)
            .into_iter()
            .eq(oracle.values().cloned().map(Some)),
        "{ctx}: a key ended up with a value the replay does not leave there"
    );
    let absent_probes = Batch::from_unsorted(
        (0..1000u64)
            .map(|i| i * 37)
            .filter(|k| !oracle.contains_key(k))
            .collect(),
    );
    assert!(
        !backing
            .batch_contains(&absent_probes)
            .iter()
            .any(|&hit| hit),
        "{ctx}: the backing set holds a key the oracle does not"
    );
}

/// Uniform traffic over a narrow key range (heavy cross-client collisions),
/// across pool sizes 1–8.
#[test]
fn uniform_traffic_linearizes_across_pool_sizes() {
    for (seed, pool_threads) in [(1u64, 1usize), (2, 2), (3, 4), (4, 8)] {
        let initial = workloads::uniform_keys_distinct(seed ^ 0xA5A5, 600, 0..2_000);
        let traces = workloads::client_traces(seed, 4, 2_500, 0..2_000, (3, 2, 2));
        let ctx = format!("seed {seed}, pool {pool_threads}");
        drive_and_verify::<()>(&ctx, pool_threads, &initial, &traces, &[]);
        drive_and_verify::<u64>(&ctx, pool_threads, &initial, &traces, &[]);
    }
}

/// Zipf hot-key traffic: many concurrent ops on the same few keys, which is
/// exactly what stresses duplicate resolution inside one round.
#[test]
fn zipf_hot_key_traffic_linearizes() {
    for (seed, pool_threads) in [(5u64, 2usize), (6, 4)] {
        let universe = workloads::uniform_keys_distinct(seed, 300, 0..1_000_000);
        let initial: Vec<u64> = universe[..150].to_vec();
        let traces = workloads::client_traces_zipf(seed, 6, 800, &universe, 0.99, (2, 2, 1));
        let ctx = format!("seed {seed}, pool {pool_threads}, zipf");
        drive_and_verify::<()>(&ctx, pool_threads, &initial, &traces, &[]);
        drive_and_verify::<u64>(&ctx, pool_threads, &initial, &traces, &[]);
    }
}

/// Whole batches of `POOL_CUTOFF` keys — each one a `Pool::install` under
/// the combiner flag — beside point traffic on the same keys (and batches one
/// key short of the cut-off, which stay on the caller).  Run on a 1-worker
/// pool, the configuration where a blocking bug becomes a deadlock rather
/// than a slowdown.
#[test]
fn one_worker_pool_with_forced_pool_rounds() {
    let seed = 7u64;
    let universe = 0..4 * POOL_CUTOFF as u64;
    let initial = workloads::uniform_keys_distinct(seed, 400, universe.clone());
    let traces = workloads::client_traces(seed, 4, 400, universe.clone(), (3, 2, 2));
    let script: Vec<_> = (0..12u64)
        .map(|i| {
            let kind = [CombinedOp::Insert, CombinedOp::Remove][i as usize % 2];
            let len = POOL_CUTOFF - usize::from(i % 4 == 3);
            let keys = workloads::uniform_keys_distinct(seed ^ (i << 8), len, universe.clone());
            (kind, Batch::from_unsorted(keys))
        })
        .collect();
    let ctx = format!("seed {seed}, pool 1, {POOL_CUTOFF}-key batches");
    drive_and_verify::<()>(&ctx, 1, &initial, &traces, &script);
    drive_and_verify::<u64>(&ctx, 1, &initial, &traces, &script);
}

/// The owner's handle can be dropped while clients still hold theirs and
/// have operations in flight; the last client to finish tears the whole
/// front-end (and its pool) down from a worker-facing thread.
#[test]
fn drop_with_waiters_lifecycle() {
    let seed = 8u64;
    let pool = Pool::new(2).unwrap();
    let set = Arc::new(ConcurrentSet::new(
        IstSet::from_unsorted((0..500u64).collect()),
        pool,
    ));
    let traces = workloads::client_traces(seed, 8, 500, 0..1_000, (2, 2, 1));
    let handles: Vec<_> = traces
        .into_iter()
        .map(|trace| {
            let set = Arc::clone(&set);
            thread::spawn(move || {
                for (kind, key) in trace {
                    match kind {
                        OpKind::Insert => set.insert(key),
                        OpKind::Remove => set.remove(&key),
                        OpKind::Contains => set.contains(&key),
                    };
                }
            })
        })
        .collect();
    // Drop the owning handle immediately: clients keep the set alive, and
    // whoever finishes last runs the full teardown.
    drop(set);
    for h in handles {
        h.join().unwrap();
    }
}

/// Applies one committed round's writes to a key-set oracle (the replays
/// below track membership only).
fn apply_to_key_set<V>(oracle: &mut BTreeSet<u64>, round: &Round<u64, V>) {
    for op in &round.ops {
        match round.kind {
            CombinedOp::Insert => {
                oracle.insert(op.key);
            }
            CombinedOp::Remove => {
                oracle.remove(&op.key);
            }
        }
    }
}

/// Staleness-contract replay for the snapshot read path.
///
/// Clients write disjoint key spaces (default options plus the round log
/// for the replay).  Three properties:
///
/// 1. **Read-your-writes** — immediately after an acknowledged write, a
///    snapshot `contains` of the same key reflects it (a round publishes
///    its snapshot *before* its write returns, and no other client touches
///    the key).
/// 2. **Monotonicity** — a single client's observed snapshot seqs never
///    go backwards.
/// 3. **Exactness at the observed seq** — replaying the round log, every
///    recorded read `(key, result, seq)` must equal the oracle state
///    after exactly the rounds with seq `<= seq` — i.e. the snapshot *is*
///    some round's state, between the client's last write and the read.
#[test]
fn snapshot_reads_satisfy_the_staleness_contract() {
    let pool = Pool::new(2).unwrap();
    let set = Arc::new(ConcurrentSet::with_sink(
        IstSet::from_unsorted(Vec::new()),
        pool,
        Options::default(),
        RoundLog::default(),
    ));
    let clients = 4u64;
    let per_client = 400u64;
    let span = 97u64;

    // Each client records its snapshot reads, exact at the snapshot's seq.
    let reads: Vec<Vec<Read<()>>> = thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let set = Arc::clone(&set);
                s.spawn(move || {
                    let mut recorded = Vec::new();
                    let mut last_seq = 0u64;
                    for i in 0..per_client {
                        let key = c * 1_000_000 + (i % span);
                        let insert = i % 3 != 2;
                        if insert {
                            set.insert(key);
                        } else {
                            set.remove(&key);
                        }
                        // Property 1: read-your-writes.
                        assert_eq!(
                            set.contains(&key),
                            insert,
                            "client {c} step {i}: read of own write went stale"
                        );
                        // Properties 2 + 3: record a probe from one
                        // snapshot, pairing result and seq exactly.
                        let snap = set.read_snapshot();
                        assert!(
                            snap.seq() >= last_seq,
                            "client {c} step {i}: snapshot seq went backwards \
                             ({last_seq} -> {})",
                            snap.seq()
                        );
                        last_seq = snap.seq();
                        let probe = c * 1_000_000 + ((i * 31) % span);
                        recorded.push(Read {
                            key: probe,
                            answer: Answer::Present(snap.view().contains(&probe)),
                            // This client's own acknowledged writes.
                            acked: i + 1,
                            lo: snap.seq(),
                            hi: snap.seq(),
                        });
                    }
                    recorded
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Reads bypassed the combiner flag entirely: only the writes made
    // rounds, and a point write's round is that write alone.
    let rounds = set.take_rounds();
    assert_eq!(
        set.metrics().counter("combine.ops"),
        Some(clients * per_client),
        "only the writes may enter rounds"
    );
    assert!(
        rounds.iter().all(|round| round.ops.len() == 1),
        "a point write committed in a round with another op"
    );
    assert_eq!(
        set.metrics().counter("combine.rounds"),
        set.metrics().counter("combine.ops"),
        "one round per point write"
    );
    assert!(
        set.metrics().counter("combine.snapshot_reads").unwrap_or(0) >= clients * per_client * 2,
        "every contains and read_snapshot must count as a snapshot read"
    );

    // Property 3: replay the log; a read observed at seq s must be the
    // oracle's state after exactly the rounds with seq <= s.
    let mut history: History<()> = History::new(BTreeMap::new());
    for round in &rounds {
        history.apply(round);
    }
    for read in reads.iter().flatten() {
        history.check(read, "staleness contract");
    }
}

/// A seq mark relayed from reader to reader, across the snapshot's
/// stripes: a publish swaps every stripe before it releases any, so a mark
/// one reader observed bounds what any other reader sees next.
///
/// One writer commits point rounds (upserts of fresh values, every third
/// op a remove) while `READ_STRIPES + 1` readers stand in a ring, each
/// handing the seq of every snapshot it reads to the next through an
/// `AtomicU64`.  The readers make their first reads one after another, so
/// they draw consecutive stripes — every stripe serves one of them and one
/// stripe two — unless a thread of another test draws in between, which
/// only moves who shares.  Each reader checks that the mark it was handed
/// bounds its next `committed_seq()` and `read_snapshot().seq()` from
/// below, and every snapshot's `get` is replayed against the round log at
/// exactly the snapshot's seq.
#[test]
fn a_seq_mark_relayed_across_stripes_bounds_the_next_read() {
    const READERS: usize = READ_STRIPES + 1;
    const KEYS: u64 = 64;
    const ROUNDS: u64 = 20_000;
    /// Reads a reader records for the replay; past it, it goes on
    /// checking the marks alone until the writer is done.
    const RECORDED: usize = 100_000;
    let initial: BTreeMap<u64, u64> = (0..KEYS).map(|k| (k, 0)).collect();
    let map: Logged<u64> = ConcurrentMap::with_sink(
        IstMap::from_sorted_entries(initial.clone().into_iter().collect()),
        Pool::new(1).unwrap(),
        Options::default(),
        RoundLog::default(),
    );
    let relay: Vec<AtomicU64> = (0..READERS).map(|_| AtomicU64::new(0)).collect();
    let writing = AtomicBool::new(true);

    let reads: Vec<(u64, Vec<Read<u64>>)> = thread::scope(|s| {
        let (map, relay, writing) = (&map, &relay, &writing);
        let writer = s.spawn(move || {
            let wrote = catch_unwind(AssertUnwindSafe(|| {
                for round in 1..=ROUNDS {
                    let key = round * 7 % KEYS;
                    if round % 3 == 0 {
                        map.remove(&key);
                    } else {
                        map.upsert(key, round);
                    }
                }
            }));
            // The readers stop however the writer ends.
            writing.store(false, Ordering::SeqCst);
            wrote.unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        });
        let readers: Vec<_> = (0..READERS)
            .map(|r| {
                let (drawn, drew) = mpsc::channel();
                let reader = s.spawn(move || {
                    // This thread's first read draws its stripe.
                    map.committed_seq();
                    drawn.send(()).unwrap();
                    let mut recorded = Vec::new();
                    let mut i = 0u64;
                    while writing.load(Ordering::SeqCst) {
                        let handed = relay[r].load(Ordering::SeqCst);
                        let committed = map.committed_seq();
                        assert!(
                            committed >= handed,
                            "reader {r}: committed_seq {committed} is below the relayed mark \
                             {handed}"
                        );
                        let snap = map.read_snapshot();
                        assert!(
                            snap.seq() >= handed,
                            "reader {r}: read_snapshot seq {} is below the relayed mark {handed}",
                            snap.seq()
                        );
                        if recorded.len() < RECORDED {
                            let key = (i * 5 + r as u64) % KEYS;
                            recorded.push(Read {
                                key,
                                answer: Answer::Value(snap.view().get(&key)),
                                acked: 0,
                                lo: snap.seq(),
                                hi: snap.seq(),
                            });
                        }
                        relay[(r + 1) % READERS].store(snap.seq(), Ordering::SeqCst);
                        i += 1;
                    }
                    (i, recorded)
                });
                // The next reader draws after this one has.
                drew.recv().unwrap();
                reader
            })
            .collect();
        writer.join().unwrap();
        readers.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut history = History::new(initial);
    for round in &map.take_rounds() {
        history.apply(round);
    }
    let (keys, vals) = map.into_inner().collect_entries();
    assert!(
        keys.into_iter().zip(vals).eq(history.now.clone()),
        "the store's contents are not the replay's"
    );
    for read in reads.iter().flat_map(|(_, recorded)| recorded) {
        history.check(read, "relayed seq mark");
    }
    let total: u64 = reads.iter().map(|(made, _)| made).sum();
    let recorded: usize = reads.iter().map(|(_, recorded)| recorded.len()).sum();
    println!(
        "relayed seq marks: {total} reads by {READERS} readers over {ROUNDS} rounds, \
         {recorded} of them replayed"
    );
}

/// One value read a client made right after one of its own upserts.
struct ValueRead {
    key: u64,
    /// The (globally unique) value the client had just written to `key`.
    wrote: u64,
    /// What `get` on the `read_snapshot()` taken after the write returned.
    got: Option<u64>,
    /// The seq of the snapshot that answered.
    seq: u64,
}

/// The committed-round replay at `V = u64`: concurrent upserts of distinct
/// values onto *shared* keys (so clients keep overwriting each other),
/// through the default front-end with the round log on.
///
/// (a) Replaying the round log reproduces every `bool`, the log's and the
///     clients' alike.
/// (b) A plain `read_snapshot()` taken after my write was acknowledged has
///     a seq at or past the `committed_seq()` mark sampled before it — on
///     the first load, no helping, no waiting — and `get` on it returns
///     exactly the state of that seq, which covers my write: the value is
///     mine or a later round's, never an older one.
/// (c) A `ReadSnapshot` pinned early and held across 10⁴ later rounds —
///     the clients' concurrent ones, then a sequential tail — keeps
///     returning the contents of its own seq throughout, and once the pin
///     is dropped a `Weak` taken from it no longer upgrades: nothing in the
///     front-end keeps a retired snapshot alive.
#[test]
fn upserted_values_replay_against_the_committed_rounds() {
    let map: Arc<Logged<u64>> = Arc::new(ConcurrentMap::with_sink(
        IstMap::from_sorted_entries(Vec::new()),
        Pool::new(2).unwrap(),
        Options::default(),
        RoundLog::default(),
    ));
    let clients = 4u64;
    let per_client = 400u64;
    let span = 53u64;
    let pin_after = 200u64;
    let pinned_rounds = 10_000u64;
    let everything = (Bound::Unbounded, Bound::Unbounded);
    let contents = |snap: &ReadSnapshot<IstMap<u64, u64>>| {
        let entries = snap.view().range_entries(everything.0, everything.1);
        for (key, val) in &entries {
            assert_eq!(snap.view().get(key), Some(*val), "pinned key {key}");
        }
        entries
    };

    type Observed = (Vec<(u64, bool)>, Vec<ValueRead>);
    let (observed, pin, first): (Vec<Observed>, _, _) = thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let map = Arc::clone(&map);
                s.spawn(move || {
                    let mut upserts = Vec::new();
                    let mut reads = Vec::new();
                    for i in 0..per_client {
                        let key = (c * 7 + i) % span;
                        let mine = u64::of(c, i);
                        upserts.push((mine, map.upsert(key, mine)));
                        // The round that wrote `mine` is committed (it
                        // acknowledged), so the mark is at or past it.
                        let mark = map.committed_seq();
                        let snap = map.read_snapshot();
                        assert!(
                            snap.seq() >= mark,
                            "client {c}: snapshot seq {} is behind the observed mark {mark}",
                            snap.seq()
                        );
                        reads.push(ValueRead {
                            key,
                            wrote: mine,
                            got: snap.view().get(&key),
                            seq: snap.seq(),
                        });
                        if i % 5 == 4 {
                            map.remove(&key);
                        }
                    }
                    (upserts, reads)
                })
            })
            .collect();
        // (c): pin once the clients are under way, and keep comparing the
        // pin with itself while they overwrite every key it holds.
        while map.committed_seq() < pin_after {
            thread::yield_now();
        }
        let pin = map.read_snapshot();
        let first = contents(&pin);
        while !handles.iter().all(|h| h.is_finished()) {
            assert_eq!(contents(&pin), first, "a held snapshot's contents drifted");
            thread::yield_now();
        }
        let observed = handles.into_iter().map(|h| h.join().unwrap()).collect();
        (observed, pin, first)
    });

    // (a): sequential replay; remember each round's state and which round
    // wrote each (unique) value.
    let rounds = map.take_rounds();
    let mut history: History<u64> = History::new(BTreeMap::new());
    let mut states: HashMap<u64, BTreeMap<u64, u64>> = HashMap::from([(0, BTreeMap::new())]);
    let mut written: HashMap<u64, (u64, bool)> = HashMap::new();
    for round in &rounds {
        let expect = history.apply(round);
        for (op, expect) in round.ops.iter().zip(expect) {
            assert_eq!(op.result, expect, "round {}, op {op:?}", round.seq);
            if let Some(val) = op.val {
                let again = written.insert(val, (round.seq, op.result));
                assert!(again.is_none(), "value {val:#x} was logged twice");
            }
        }
        states.insert(round.seq, history.now.clone());
    }
    assert_eq!(
        written.len() as u64,
        clients * per_client,
        "every upsert is logged once"
    );

    for (c, (upserts, reads)) in observed.iter().enumerate() {
        for (val, saw) in upserts {
            assert_eq!(
                written[val].1, *saw,
                "client {c}: upsert of {val:#x} saw another bool"
            );
        }
        // (b)
        for read in reads {
            let (my_seq, _) = written[&read.wrote];
            assert!(
                read.seq >= my_seq,
                "client {c}: read_snapshot returned seq {} for a write in round {my_seq}",
                read.seq
            );
            assert_eq!(
                read.got,
                states[&read.seq].get(&read.key).copied(),
                "client {c}: get({}) at snapshot seq {} is not that round's state",
                read.key,
                read.seq
            );
            if let Some(got) = read.got {
                assert!(
                    written[&got].0 >= my_seq,
                    "client {c}: read back {got:#x}, older than its own write {:#x}",
                    read.wrote
                );
            }
        }
    }

    // (c): what the pin holds is its own seq's state — still, after a
    // sequential tail (one round per op) has taken the history 10⁴ rounds
    // past it.
    let expect: Vec<(u64, u64)> = states[&pin.seq()].iter().map(|(k, v)| (*k, *v)).collect();
    assert_eq!(first, expect, "pinned snapshot seq {}", pin.seq());
    drop((rounds, states));
    let mut step = 0u64;
    while map.committed_seq() < pin.seq() + pinned_rounds {
        let key = step % span;
        if step % 5 == 4 {
            map.remove(&key);
        } else {
            map.upsert(key, u64::of(clients, step));
        }
        step += 1;
        if step.is_multiple_of(1_000) {
            assert_eq!(contents(&pin), first, "pin drifted {step} tail rounds on");
            map.take_rounds(); // keep the log from growing
        }
    }
    assert_eq!(
        contents(&pin),
        first,
        "pin drifted after {pinned_rounds} rounds"
    );
    let weak = Arc::downgrade(&pin);
    drop(pin);
    assert!(
        weak.upgrade().is_none(),
        "a retired snapshot outlived its last reader"
    );
}

/// One recorded ordered read: everything a client learned from a single
/// snapshot, paired with that snapshot's seq.
struct RangeRead {
    seq: u64,
    lo: u64,
    hi: u64,
    keys: Vec<u64>,
    count: usize,
    pred: Option<u64>,
    succ: Option<u64>,
}

/// Staleness-contract replay for the *ordered* snapshot reads
/// (`range_keys` / `range_count` / `predecessor` / `successor` off the
/// published snapshot), mirroring the point-read contract test above.
///
/// Clients write disjoint key spaces and, after each write, capture one
/// snapshot and record a full ordered read against it.  Afterwards the
/// round log replays sequentially and every recorded read must equal the
/// oracle state after exactly the rounds with seq `<=` the observed seq —
/// i.e. every range a client ever saw *is* some committed round's range,
/// never a half-applied or invented one.  The front-end's own snapshot
/// wrappers are exercised in the same run and must never enter a round.
#[test]
fn snapshot_range_reads_replay_against_the_committed_rounds() {
    let pool = Pool::new(2).unwrap();
    let set = Arc::new(ConcurrentSet::with_sink(
        IstSet::from_unsorted(Vec::new()),
        pool,
        Options::default(),
        RoundLog::default(),
    ));
    let clients = 4u64;
    let per_client = 300u64;
    let span = 61u64;

    let reads: Vec<Vec<RangeRead>> = thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let set = Arc::clone(&set);
                s.spawn(move || {
                    let base = c * 1_000_000;
                    let mut recorded = Vec::new();
                    for i in 0..per_client {
                        let key = base + (i % span);
                        if i % 3 != 2 {
                            set.insert(key);
                        } else {
                            set.remove(&key);
                        }
                        // The snapshot wrappers must answer without a
                        // round; their results are checked only for
                        // plausibility here (they may come from a newer
                        // snapshot than the one recorded below).
                        let quick = set.range_count(
                            std::ops::Bound::Included(&base),
                            std::ops::Bound::Excluded(&(base + span)),
                        );
                        assert!(quick as u64 <= span, "client {c}: impossible count");
                        // The recorded read: one snapshot, every ordered
                        // query against that same view, seq attached.
                        let snap = set.read_snapshot();
                        let lo = base + ((i * 13) % span);
                        let hi = lo + 1 + (i * 7) % 40;
                        let view = snap.view();
                        recorded.push(RangeRead {
                            seq: snap.seq(),
                            lo,
                            hi,
                            keys: view.range_keys(
                                std::ops::Bound::Included(&lo),
                                std::ops::Bound::Excluded(&hi),
                            ),
                            count: view.range_count(
                                std::ops::Bound::Included(&lo),
                                std::ops::Bound::Excluded(&hi),
                            ),
                            pred: view.predecessor(&lo),
                            succ: view.successor(&lo),
                        });
                    }
                    recorded
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Ordered reads bypassed the combiner flag: only the writes made rounds.
    let rounds = set.take_rounds();
    assert_eq!(
        set.metrics().counter("combine.ops"),
        Some(clients * per_client),
        "only the writes may enter rounds"
    );

    // Replay: a read observed at seq s is checked against the oracle once
    // every round with seq <= s has applied.
    let mut events: Vec<RangeRead> = reads.into_iter().flatten().collect();
    events.sort_by_key(|e| e.seq);
    let mut oracle: BTreeSet<u64> = BTreeSet::new();
    let mut next = 0usize;
    let check = |e: &RangeRead, oracle: &BTreeSet<u64>| {
        let expect: Vec<u64> = oracle
            .iter()
            .copied()
            .filter(|&k| k >= e.lo && k < e.hi)
            .collect();
        assert_eq!(
            e.keys, expect,
            "range [{}, {}) at snapshot seq {} does not match the round state",
            e.lo, e.hi, e.seq
        );
        assert_eq!(e.count, expect.len(), "count at seq {} diverged", e.seq);
        assert_eq!(
            e.pred,
            oracle.range(..e.lo).next_back().copied(),
            "predecessor({}) at seq {} diverged",
            e.lo,
            e.seq
        );
        assert_eq!(
            e.succ,
            oracle.range(e.lo + 1..).next().copied(),
            "successor({}) at seq {} diverged",
            e.lo,
            e.seq
        );
    };
    for round in &rounds {
        while next < events.len() && events[next].seq < round.seq {
            check(&events[next], &oracle);
            next += 1;
        }
        apply_to_key_set(&mut oracle, round);
    }
    while next < events.len() {
        check(&events[next], &oracle);
        next += 1;
    }
}

/// `snapshot_keys` racing a poisoning combiner: every successful
/// `(keys, seq)` pair must equal the round-log oracle at exactly that
/// seq — a half-applied (panicked) round's view must be structurally
/// unreachable — and once the poison lands, `snapshot_keys` fails fast
/// with the poison error while `read_snapshot` (supervisor-grade) still
/// answers with the last good snapshot.
#[test]
fn snapshot_keys_never_observes_a_half_applied_round() {
    let set = Arc::new(ConcurrentSet::with_sink(
        BombSet::new(),
        Pool::new(1).unwrap(),
        Options::default(),
        RoundLog::default(),
    ));

    let observed: Vec<Vec<(Vec<u64>, u64)>> = thread::scope(|s| {
        let observers: Vec<_> = (0..2)
            .map(|_| {
                let set = Arc::clone(&set);
                s.spawn(move || {
                    let mut pairs = Vec::new();
                    // Snapshot until the poison lands; the Err arm is the
                    // test finishing, so an observer can never hang.
                    loop {
                        match catch_unwind(AssertUnwindSafe(|| set.snapshot_keys())) {
                            Ok(pair) => pairs.push(pair),
                            Err(_) => return pairs,
                        }
                        thread::yield_now();
                    }
                })
            })
            .collect();
        let bomber = {
            let set = Arc::clone(&set);
            s.spawn(move || {
                for i in 0..512u64 {
                    set.insert(i);
                }
                catch_unwind(AssertUnwindSafe(|| set.insert(u64::MAX))).is_err()
            })
        };
        assert!(bomber.join().unwrap(), "the bomb insert must panic");
        observers.into_iter().map(|o| o.join().unwrap()).collect()
    });
    assert!(set.is_poisoned(), "the combiner must be poisoned");

    // Replay the committed rounds (the panicked round never logged, never
    // published) and pin every observed pair to its seq's exact state.
    let rounds = set.take_rounds();
    let mut states: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut oracle: BTreeSet<u64> = BTreeSet::new();
    states.insert(0, Vec::new());
    for round in &rounds {
        apply_to_key_set(&mut oracle, round);
        states.insert(round.seq, oracle.iter().copied().collect());
    }
    let total: usize = observed.iter().map(Vec::len).sum();
    assert!(total > 0, "observers must have snapshotted at least once");
    for pairs in &observed {
        for (keys, seq) in pairs {
            let expect = states
                .get(seq)
                .unwrap_or_else(|| panic!("snapshot seq {seq} is not a committed round"));
            assert_eq!(
                keys, expect,
                "snapshot at seq {seq} does not match that round's state"
            );
        }
    }

    // Fail-fast contract after the poison: snapshot_keys refuses...
    let err = catch_unwind(AssertUnwindSafe(|| set.snapshot_keys())).unwrap_err();
    let msg = err
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| err.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(
        msg.contains("poisoned"),
        "snapshot_keys after poison must fail fast, got: {msg:?}"
    );
    // ...while the supervisor-grade accessor still serves the last good
    // snapshot (it predates the poisoned round by construction).
    let snap = set.read_snapshot();
    assert_eq!(
        &snap.view().collect_keys(),
        states.get(&snap.seq()).expect("last good snapshot seq"),
        "read_snapshot after poison must still be a committed round's state"
    );
}

/// `len` reads the published snapshot, so calling
/// it concurrently with mutating traffic must neither deadlock nor return
/// out-of-thin-air values — and because snapshots are published in round
/// order, a single reader must see monotonically non-decreasing lengths
/// while the set only grows.
#[test]
fn concurrent_len_reads_stay_bounded() {
    let pool = Pool::new(2).unwrap();
    let set = Arc::new(ConcurrentSet::new(IstSet::from_unsorted(Vec::new()), pool));
    let writers = 3usize;
    let per_writer = 500u64;
    thread::scope(|s| {
        for w in 0..writers as u64 {
            let set = Arc::clone(&set);
            s.spawn(move || {
                for i in 0..per_writer {
                    // Distinct key spaces: the set only ever grows.
                    set.insert(w * 10_000 + i);
                }
            });
        }
        let set = Arc::clone(&set);
        s.spawn(move || {
            let mut last = 0usize;
            for _ in 0..200 {
                let n = set.len();
                assert!(n >= last, "len went backwards: {last} -> {n}");
                assert!(n <= writers * per_writer as usize, "len overshot: {n}");
                last = n;
            }
        });
    });
    assert_eq!(set.len(), writers * per_writer as usize);
    // Quiescent, the counters are exact: every write is one op of one round.
    let m = set.metrics();
    let (ops, rounds) = (m.counter("combine.ops"), m.counter("combine.rounds"));
    assert_eq!(ops, Some(writers as u64 * per_writer), "quiescent op total");
    assert!(Some(1) <= rounds && rounds <= ops, "quiescent rounds");
}
