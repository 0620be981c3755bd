//! Cross-shard linearizability stress suite for the sharded service tier.
//!
//! N point-op clients and M batch clients hammer a `service::Tier` whose
//! shards log every committed round — the writes.  Afterwards the test
//! replays **each shard's log independently** against an oracle restricted
//! to that shard's key range and demands that
//!
//! 1. every key a shard committed actually routes to that shard (the
//!    router's assignment is total and the tier never mis-delivers),
//! 2. every per-op result in a shard's log matches the sequential replay
//!    of that shard's rounds — the committed order is a valid
//!    linearisation *per shard*, which is exactly the contract the tier
//!    documents (there is no cross-shard ordering guarantee to test),
//! 3. the multiset of `(kind, key, value, result)` tuples the writers
//!    observed (batch results flattened to per-key tuples) equals the union
//!    of the shard logs — every client write appears on exactly one shard,
//!    once, with the value its client sent and the result its client saw,
//! 4. each shard's final contents, values included, equal its oracle with
//!    tree invariants intact, so the union of shard contents equals the
//!    union of the per-shard sequential oracles, and
//! 5. every read — point `contains` / `get`, a shard's `read_snapshot`
//!    handle, and each key of a `batch_contains` / `batch_get` — answered
//!    with the owning shard's replayed state after a round it can have
//!    observed (`common::History::check`).
//!
//! The replay runs at `V = ()` (a `ShardedSet`) and at `V = u64` (a map
//! tier), where every write carries a value derived from its key and call.
//!
//! A separate set of tests drives a panicking backend through one shard
//! and asserts the poison propagates to the tier: the bombing client
//! observes the backend panic, clients on *other* shards either complete
//! or observe the tier-level poison, and nothing hangs.
//!
//! Every failure message carries the active seed and configuration so CI
//! failures replay without bisecting.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Debug;
use std::hash::Hash;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

mod common;
use common::{write_kind, Answer, BombSet, History, Read, READ_BOMB};

use batchapi::{Batch, KvBatch, MapView};
use combine::{ConcurrentMap, ConcurrentSet, OpKind as CombinedOp, Options, RoundLog, POOL_CUTOFF};
use forkjoin::Pool;
use pbist::{IstMap, IstSet};
use service::{RangeRouter, ShardRouter, ShardedSet, Tier};
use workloads::{self, ClientTrace, OpKind};

/// The value types the replay runs at.
trait Val: Clone + PartialEq + Eq + Hash + Debug + Send + Sync + 'static {
    /// The value a write of `key` carries in call `call` of its client.
    fn of(key: u64, call: u64) -> Self;
}

impl Val for () {
    fn of(_key: u64, _call: u64) {}
}

impl Val for u64 {
    fn of(key: u64, call: u64) -> u64 {
        key ^ call << 40
    }
}

/// One batch client's script: pre-validated batches, so observed result
/// vectors align index-for-index with batch keys when tallying.
type BatchScript = Vec<(OpKind, Batch<u64>)>;

fn to_script(ops: Vec<workloads::OpBatch>) -> BatchScript {
    ops.into_iter()
        .map(|op| (op.kind, Batch::from_unsorted(op.keys)))
        .collect()
}

/// Two batch clients: client 0 issues `small`-key batches, client 1
/// `large`-key ones.
fn small_and_large_scripts(seed: u64, small: usize, large: usize, range: u64) -> Vec<BatchScript> {
    let script = |salt, batches, len| {
        to_script(workloads::mixed_op_batches(
            seed ^ salt,
            batches,
            len,
            0..range,
            (2, 2, 1),
        ))
    };
    vec![script(0, 25, small), script(1, 10, large)]
}

/// The values a write call carries: `V::of(key, call)` for every key.
fn entries<V: Val>(keys: &[u64], call: u64) -> Vec<(u64, V)> {
    keys.iter().map(|&key| (key, V::of(key, call))).collect()
}

/// What a client saw from one call — a point op counts as a batch of one:
/// the per-key results of a write, or the per-key records of a read.
enum Seen<V> {
    Wrote(Vec<bool>),
    Read(Vec<Read<V>>),
}

/// Per client, what it saw from each of its calls.
type Seens<V> = Vec<Vec<Seen<V>>>;

/// One client call: its kind, its keys, and its index in its client's
/// sequence (which derives the values its writes carried).
type Call<'a> = (OpKind, &'a [u64], u64);

/// Drives point traces and batch scripts concurrently through a logged
/// tier seeded with `initial`, then runs the five checks above.  Returns
/// how many read shares the tier offered to its shard pools.
fn drive_and_verify_sharded<V: Val>(
    ctx: &str,
    router: RangeRouter<u64>,
    shard_pool_threads: usize,
    initial: &[u64],
    traces: &[ClientTrace],
    scripts: &[BatchScript],
) -> u64 {
    let ctx = &format!("{ctx}, V = {}", std::any::type_name::<V>());
    let num_shards = router.num_shards();
    let mut per_shard_initial: Vec<BTreeMap<u64, V>> = vec![BTreeMap::new(); num_shards];
    for &key in initial {
        per_shard_initial[router.shard_of(&key)].insert(key, V::of(key, u64::MAX));
    }
    let shards = per_shard_initial
        .iter()
        .map(|entries| {
            ConcurrentMap::with_sink(
                IstMap::from_sorted_entries(entries.clone().into_iter().collect()),
                Pool::builder()
                    .num_threads(shard_pool_threads)
                    .metrics(true)
                    .build()
                    .unwrap_or_else(|e| panic!("{ctx}: shard pool: {e}")),
                Options::default(),
                RoundLog::default(),
            )
        })
        .collect();
    let set = Tier::new(router.clone(), shards, Pool::new(1).unwrap());

    // Writes acknowledged so far on each shard, to any client (see `common`).
    let acked: Vec<AtomicU64> = (0..num_shards).map(|_| AtomicU64::new(0)).collect();
    let (tier, router, acked) = (&set, &router, &acked);
    let wrote = move |keys: &[u64], flags: Vec<bool>| {
        for key in keys {
            acked[router.shard_of(key)].fetch_add(1, Ordering::SeqCst);
        }
        Seen::Wrote(flags)
    };
    // A read through the tier, bracketed on every shard it can touch.
    let read = move |keys: &[u64], call: &dyn Fn() -> Vec<Answer<V>>| {
        let sample = |of: &dyn Fn(usize) -> u64| (0..num_shards).map(of).collect::<Vec<u64>>();
        let seqs = |shard: usize| tier.shard(shard).committed_seq();
        let acked = sample(&|shard| acked[shard].load(Ordering::SeqCst));
        let (lo, answers, hi) = (sample(&seqs), call(), sample(&seqs));
        let record = |(&key, answer)| {
            let shard = router.shard_of(&key);
            Read {
                key,
                answer,
                acked: acked[shard],
                lo: lo[shard],
                hi: hi[shard],
            }
        };
        Seen::Read(keys.iter().zip(answers).map(record).collect())
    };
    let present = |flags: Vec<bool>| flags.into_iter().map(Answer::Present).collect();
    let values = |vals: Vec<Option<V>>| vals.into_iter().map(Answer::Value).collect();
    // A read through the owning shard's snapshot handle: exact at its seq.
    let read_handle = move |key: u64| {
        let shard = router.shard_of(&key);
        let acked = acked[shard].load(Ordering::SeqCst);
        let snap = tier.shard(shard).read_snapshot();
        Seen::Read(vec![Read {
            key,
            answer: Answer::Value(snap.view().get(&key)),
            acked,
            lo: snap.seq(),
            hi: snap.seq(),
        }])
    };

    let (point_results, batch_results): (Seens<V>, Seens<V>) = thread::scope(|s| {
        let point_handles: Vec<_> = traces
            .iter()
            .map(|trace| {
                s.spawn(move || {
                    trace
                        .iter()
                        .zip(0u64..)
                        .map(|(&(kind, key), call)| match kind {
                            OpKind::Insert => {
                                wrote(&[key], vec![tier.upsert(key, V::of(key, call))])
                            }
                            OpKind::Remove => wrote(&[key], vec![tier.remove(&key)]),
                            OpKind::Contains if call % 4 == 3 => read_handle(key),
                            OpKind::Contains if call % 4 == 1 => {
                                read(&[key], &|| vec![Answer::Value(tier.get(&key))])
                            }
                            OpKind::Contains => {
                                read(&[key], &|| vec![Answer::Present(tier.contains(&key))])
                            }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let batch_handles: Vec<_> = scripts
            .iter()
            .map(|script| {
                s.spawn(move || {
                    script
                        .iter()
                        .zip(0u64..)
                        .map(|((kind, batch), call)| match kind {
                            OpKind::Insert => {
                                let pairs = entries(batch, call);
                                let pairs = KvBatch::from_sorted_entries(pairs).unwrap();
                                wrote(batch, tier.batch_insert(&pairs))
                            }
                            OpKind::Remove => wrote(batch, tier.batch_remove(batch)),
                            OpKind::Contains if call % 2 == 1 => {
                                read(batch, &|| values(tier.batch_get(batch)))
                            }
                            OpKind::Contains => {
                                read(batch, &|| present(tier.batch_contains(batch)))
                            }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let join = |handles: Vec<thread::ScopedJoinHandle<'_, Vec<Seen<V>>>>| {
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        };
        (join(point_handles), join(batch_handles))
    });

    // Every client call with what its client saw, point ops as batches of
    // one, and the values its writes carried.
    let results = || point_results.iter().chain(&batch_results);
    let issued = traces
        .iter()
        .map(Vec::len)
        .chain(scripts.iter().map(Vec::len));
    for (issued, seen) in issued.zip(results()) {
        assert_eq!(seen.len(), issued, "{ctx}: client result count");
    }
    let point_calls = traces.iter().flat_map(|trace| {
        trace
            .iter()
            .zip(0u64..)
            .map(|((kind, key), call)| (*kind, std::slice::from_ref(key), call))
    });
    let batch_calls = scripts.iter().flat_map(|script| {
        script
            .iter()
            .zip(0u64..)
            .map(|((kind, batch), call)| (*kind, batch.as_slice(), call))
    });
    let calls: Vec<(Call<'_>, &Seen<V>)> = point_calls
        .chain(batch_calls)
        .zip(results().flatten())
        .collect();

    let shard_rounds: Vec<_> = (0..num_shards)
        .map(|shard| set.shard(shard).take_rounds())
        .collect();
    let written: usize = calls
        .iter()
        .filter(|((kind, ..), _)| *kind != OpKind::Contains)
        .map(|((_, keys, _), _)| keys.len())
        .sum();
    assert_eq!(
        shard_rounds
            .iter()
            .flat_map(|rounds| rounds.iter().map(|r| r.ops.len()))
            .sum::<usize>(),
        written,
        "{ctx}: logged op count across shards"
    );

    // Checks 1 + 2: per-shard routing invariant and linearisation replay.
    let mut histories: Vec<History<V>> = per_shard_initial.into_iter().map(History::new).collect();
    for (shard, rounds) in shard_rounds.iter().enumerate() {
        for (r, round) in rounds.iter().enumerate() {
            let expect = histories[shard].apply(round);
            for (op, expect) in round.ops.iter().zip(expect) {
                assert_eq!(
                    router.shard_of(&op.key),
                    shard,
                    "{ctx}: shard {shard} committed key {} owned by shard {}",
                    op.key,
                    router.shard_of(&op.key)
                );
                assert_eq!(
                    op.result, expect,
                    "{ctx}: shard {shard}, round {r}, op {op:?}"
                );
            }
        }
    }

    // Check 3: writers observed exactly the union of the shard logs, values
    // included.  Check 5: every read is its shard's state after a round it
    // can have observed.
    let mut tally: HashMap<(CombinedOp, u64, Option<V>, bool), i64> = HashMap::new();
    for ((kind, keys, call), seen) in calls {
        match seen {
            Seen::Read(reads) => {
                assert_eq!(reads.len(), keys.len(), "{ctx}: batch result width");
                for read in reads {
                    histories[router.shard_of(&read.key)].check(read, ctx);
                }
            }
            Seen::Wrote(flags) => {
                assert_eq!(flags.len(), keys.len(), "{ctx}: batch result width");
                for (&key, &flag) in keys.iter().zip(flags) {
                    let val = (kind == OpKind::Insert).then(|| V::of(key, call));
                    *tally.entry((write_kind(kind), key, val, flag)).or_insert(0) += 1;
                }
            }
        }
    }
    for rounds in &shard_rounds {
        for round in rounds {
            for op in &round.ops {
                let entry = (round.kind, op.key, op.val.clone(), op.result);
                *tally.entry(entry).or_insert(0) -= 1;
            }
        }
    }
    if let Some((entry, count)) = tally.iter().find(|(_, &c)| c != 0) {
        panic!("{ctx}: client/log multiset mismatch at {entry:?} (excess {count})");
    }

    let offers = (0..num_shards)
        .map(|shard| {
            let m = set.shard(shard).pool_metrics();
            m.offers_reclaimed + m.offers_taken
        })
        .sum();

    // Check 4: per-shard final contents match the per-shard oracles, so
    // the union of shard contents is the union of the oracles.
    assert!(!set.is_poisoned(), "{ctx}: tier poisoned by healthy run");
    for (shard, backing) in set.into_shards().into_iter().enumerate() {
        let tree = backing.into_inner();
        tree.check_invariants()
            .unwrap_or_else(|e| panic!("{ctx}: shard {shard} invariants: {e}"));
        let (keys, vals) = tree.collect_entries();
        assert!(
            keys.into_iter().zip(vals).eq(histories[shard].now.clone()),
            "{ctx}: shard {shard} final contents differ from its oracle"
        );
    }
    offers
}

/// Uniform point + batch traffic across shard counts 1–8 over a range
/// router, with batch clients on both sides of the shards' pool cut-off
/// (48 keys, and 1 536 keys: ≥ 512 per shard at one to three shards);
/// per-shard linearizability must hold at every width.
#[test]
fn shard_counts_one_through_eight_linearize_per_shard() {
    for num_shards in [1usize, 2, 3, 4, 8] {
        let seed = 0x5EED ^ num_shards as u64;
        let initial = workloads::uniform_keys_distinct(seed, 400, 0..4_000);
        let traces = workloads::client_traces(seed, 3, 800, 0..4_000, (3, 2, 2));
        let scripts = small_and_large_scripts(seed, 48, 1_536, 4_000);
        let ctx = format!("seed {seed}, {num_shards} shards, range router");
        drive_and_verify_sharded::<()>(
            &ctx,
            RangeRouter::new(num_shards, 0, 4_000),
            1,
            &initial,
            &traces,
            &scripts,
        );
    }
}

/// The same replay on a map tier: every logged `RoundOp::val` must be the
/// value its client sent, and the replayed values must answer every `get`
/// and `batch_get` and equal the final contents.
#[test]
fn a_map_tier_linearizes_per_shard_with_its_values() {
    for num_shards in [1usize, 3] {
        let seed = 0x3A9 ^ num_shards as u64;
        let initial = workloads::uniform_keys_distinct(seed, 400, 0..4_000);
        let traces = workloads::client_traces(seed, 3, 800, 0..4_000, (3, 2, 2));
        let scripts = small_and_large_scripts(seed, 48, 1_536, 4_000);
        let ctx = format!("seed {seed}, {num_shards} shards, map tier");
        drive_and_verify_sharded::<u64>(
            &ctx,
            RangeRouter::new(num_shards, 0, 4_000),
            2,
            &initial,
            &traces,
            &scripts,
        );
    }
}

/// Zipf hot-key traffic: most ops hammer a few keys of one shard, the
/// worst case for both duplicate resolution inside a shard round and
/// skewed sub-batch splits at the tier.
#[test]
fn zipf_hot_key_traffic_linearizes_across_shards() {
    let seed = 0x21AF;
    let universe = workloads::uniform_keys_distinct(seed, 300, 0..1_000_000);
    let initial: Vec<u64> = universe[..120].to_vec();
    let traces = workloads::client_traces_zipf(seed, 4, 600, &universe, 0.99, (2, 2, 1));
    let scripts: Vec<BatchScript> = (0..2)
        .map(|c| {
            to_script(workloads::mixed_op_batches_zipf(
                seed ^ c,
                20,
                40,
                &universe,
                0.99,
                (2, 2, 1),
            ))
        })
        .collect();
    let ctx = format!("seed {seed}, 4 shards, zipf 0.99");
    drive_and_verify_sharded::<()>(
        &ctx,
        RangeRouter::new(4, 0, 1_000_000),
        2,
        &initial,
        &traces,
        &scripts,
    );
}

/// Everything forced through every shard's pool with a single worker: the
/// large script's batches carry at least `POOL_CUTOFF` keys *per shard*, so
/// every write sub-batch runs in its shard's 1-worker pool and every read
/// offers shards 1–3 their shares, beside the writes (the 32-key script
/// beside them keeps the inline arm in the mix).  The configuration where
/// any blocking bug between the caller's loop and the shard combiners
/// becomes a deadlock instead of a slowdown.
#[test]
fn one_worker_pools_with_forced_parallel_splits() {
    let seed = 0x1DEA;
    let (shards, range) = (4, 16 * POOL_CUTOFF as u64);
    let router = RangeRouter::new(shards, 0, range);
    let initial = workloads::uniform_keys_distinct(seed, 200, 0..range);
    let traces = workloads::client_traces(seed, 2, 300, 0..range, (3, 2, 2));
    let scripts = small_and_large_scripts(seed, 32, 6 * POOL_CUTOFF, range);
    for (_, batch) in &scripts[1] {
        let share = |shard| batch.iter().filter(|k| router.shard_of(k) == shard).count();
        assert!(
            (0..shards).all(|shard| share(shard) >= POOL_CUTOFF),
            "seed {seed}: a shard's share of a large batch is below the shard pool's cut-off"
        );
    }
    let ctx = format!("seed {seed}, {shards} shards, 1-worker pools, pooled sub-batches");
    let offers = drive_and_verify_sharded::<()>(&ctx, router, 1, &initial, &traces, &scripts);
    // Each large read offers shards 1–3 their shares, beside the writes.
    let large_reads = scripts[1]
        .iter()
        .filter(|(kind, _)| *kind == OpKind::Contains);
    let large_reads = large_reads.count() as u64;
    assert!(large_reads > 0, "{ctx}: the large script reads");
    assert_eq!(offers, 3 * large_reads, "{ctx}: offered read shares");
}

// ---------------------------------------------------------------------
// Poison propagation
// ---------------------------------------------------------------------

/// Builds a 4-shard bomb-backed tier over `[0, 8_000]`; `u64::MAX` clamps
/// into the top shard, so shards 0–2 never see the bomb key.
fn bomb_tier() -> ShardedSet<u64, BombSet, RangeRouter<u64>> {
    ShardedSet::new(
        RangeRouter::new(4, 0, 8_000),
        (0..4)
            .map(|_| {
                let pool = Pool::builder().num_threads(1).metrics(true).build();
                ConcurrentSet::new(BombSet::new(), pool.unwrap())
            })
            .collect(),
        Pool::new(2).unwrap(),
    )
}

/// A panic in one shard's backend poisons the tier; clients pinned to
/// *other* shards complete or observe the tier poison — and every thread
/// joins (the test finishing at all is the no-hang assertion).
#[test]
fn backend_panic_in_one_shard_poisons_tier_without_hanging() {
    let set = Arc::new(bomb_tier());
    let bombed = thread::scope(|s| {
        // Victims hammer shards 0–2 (keys < 6_000) until they finish their
        // script or observe a poison panic.
        let victims: Vec<_> = (0..3u64)
            .map(|v| {
                let set = Arc::clone(&set);
                s.spawn(move || {
                    let mut poisoned_at = None;
                    for i in 0..3_000u64 {
                        let key = (v * 1_777 + i * 13) % 5_900;
                        let result = catch_unwind(AssertUnwindSafe(|| {
                            if i % 3 == 0 {
                                set.insert(key)
                            } else {
                                set.contains(&key)
                            }
                        }));
                        if result.is_err() {
                            poisoned_at = Some(i);
                            break;
                        }
                    }
                    poisoned_at
                })
            })
            .collect();
        // The bomber lets the victims get going, then detonates shard 3
        // through the point path (which routes through `batch_insert`).
        let bomber = {
            let set = Arc::clone(&set);
            s.spawn(move || {
                for _ in 0..64 {
                    if catch_unwind(AssertUnwindSafe(|| set.insert(7_500))).is_err() {
                        return false;
                    }
                }
                catch_unwind(AssertUnwindSafe(|| set.insert(u64::MAX))).is_err()
            })
        };
        for victim in victims {
            // Completing or stopping at a poison panic are both fine;
            // joining at all is the property under test.
            let _ = victim.join().unwrap();
        }
        bomber.join().unwrap()
    });
    assert!(bombed, "the bomb insert must panic");
    assert!(set.is_poisoned(), "tier must observe the shard poison");
    assert_eq!(
        set.metrics().counter("service.poisoned"),
        Some(1),
        "the probe alone must count the poisoning"
    );
    let err = catch_unwind(AssertUnwindSafe(|| set.contains(&5))).unwrap_err();
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("poisoned"),
        "fresh ops must fail fast with a poison panic, got: {msg:?}"
    );
    assert!(
        set.metrics().counter("service.poisoned").unwrap_or(0) >= 1,
        "tier must count the observed poisoning"
    );
}

/// Regression: a shard poisoned *before* the tier ever observes a panic
/// through its own guards (here: poisoned before the tier is even built)
/// used to kill read entry points with the shard's own poison message
/// while `is_poisoned()` already reported the tier state.  Every read
/// entry point must fail fast with the *tier-level* poison error, and the
/// health probe alone already counts the poisoning.
#[test]
fn reads_fail_fast_with_the_tier_poison_when_a_shard_is_pre_poisoned() {
    // Detonate a lone shard first, outside any tier guard.
    let bombed = ConcurrentSet::new(BombSet::new(), Pool::new(1).unwrap());
    assert!(
        catch_unwind(AssertUnwindSafe(|| bombed.insert(u64::MAX))).is_err(),
        "the bomb insert must panic"
    );
    assert!(bombed.is_poisoned(), "shard must be poisoned");

    let mut shards: Vec<_> = (0..3)
        .map(|_| ConcurrentSet::new(BombSet::new(), Pool::new(1).unwrap()))
        .collect();
    shards.push(bombed);
    let set = ShardedSet::new(RangeRouter::new(4, 0, 8_000), shards, Pool::new(2).unwrap());
    assert!(
        set.is_poisoned(),
        "the health probe must see the shard poison"
    );
    assert_eq!(
        set.metrics().counter("service.poisoned"),
        Some(1),
        "the health probe must count the poisoning"
    );

    let healthy_batch = Batch::from_unsorted(vec![10u64, 2_100, 4_100]);
    type Read<'a> = Box<dyn Fn() + 'a>;
    let reads: Vec<(&str, Read<'_>)> = vec![
        (
            "contains",
            Box::new(|| {
                set.contains(&5);
            }),
        ),
        (
            "len",
            Box::new(|| {
                set.len();
            }),
        ),
        (
            "is_empty",
            Box::new(|| {
                set.is_empty();
            }),
        ),
        (
            "batch_contains",
            Box::new(|| {
                set.batch_contains(&healthy_batch);
            }),
        ),
    ];
    for (name, read) in reads {
        let err = catch_unwind(AssertUnwindSafe(read))
            .err()
            .unwrap_or_else(|| panic!("{name} must fail fast on a pre-poisoned shard"));
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            msg.starts_with("tier is poisoned"),
            "{name} must raise the tier-level poison error, got: {msg:?}"
        );
    }
    assert!(
        set.metrics().counter("service.poisoned").unwrap_or(0) >= 1,
        "the tier must count the poisoning"
    );
}

/// Staleness contract at the tier: clients write disjoint key spaces, and
/// every snapshot read — the point path and the all-read batched path —
/// must observe the client's own acknowledged writes (the shard snapshot
/// is published before the write is acknowledged, so a client can never
/// read past its own last write going *backwards*).
#[test]
fn tier_snapshot_reads_observe_the_clients_own_writes() {
    let set = Arc::new(ShardedSet::new(
        RangeRouter::new(4, 0, 4_000_000),
        (0..4)
            .map(|_| ConcurrentSet::new(IstSet::from_unsorted(Vec::new()), Pool::new(1).unwrap()))
            .collect(),
        Pool::new(2).unwrap(),
    ));
    let span = 89u64; // keys per client space, so writes revisit keys
    thread::scope(|s| {
        for c in 0..4u64 {
            let set = Arc::clone(&set);
            s.spawn(move || {
                let mut mine = BTreeSet::new();
                for i in 0..400u64 {
                    let key = c * 1_000_000 + (i % span);
                    let insert = i % 3 != 2;
                    if insert {
                        set.insert(key);
                        mine.insert(key);
                    } else {
                        set.remove(&key);
                        mine.remove(&key);
                    }
                    // Read-your-writes through the tier point path: nobody
                    // else touches this key, so the snapshot the read lands
                    // on must already hold this client's write.
                    assert_eq!(
                        set.contains(&key),
                        insert,
                        "client {c} step {i}: read of own write went stale"
                    );
                    if i % 16 == 7 {
                        // The all-read batched path: membership of the
                        // client's whole space must match its local oracle
                        // exactly.
                        let space =
                            Batch::from_unsorted((0..span).map(|r| c * 1_000_000 + r).collect());
                        let flags = set.batch_contains(&space);
                        for (k, &flag) in space.as_slice().iter().zip(&flags) {
                            assert_eq!(
                                flag,
                                mine.contains(k),
                                "client {c} step {i}: batched read of key {k} diverged"
                            );
                        }
                    }
                }
            });
        }
    });
    // The reads really took the snapshot path on every shard.
    for (shard, metrics) in set.shard_metrics().iter().enumerate() {
        assert!(
            metrics.counter("combine.snapshot_reads").unwrap_or(0) > 0,
            "shard {shard} answered no reads from its snapshot"
        );
    }
}

/// A tier-level batch containing the bomb key panics the issuing client
/// and poisons the tier — with a few keys, and with a sub-batch of at least
/// `POOL_CUTOFF` keys running in the bombed shard's pool.
#[test]
fn batch_containing_bomb_key_poisons_tier() {
    // 2 600 filler keys put ≈ 600 on the bombed top shard.
    for filler in [2u64, 2_600] {
        let set = bomb_tier();
        let healthy = Batch::from_unsorted(vec![10u64, 2_100, 4_100, 6_100]);
        assert_eq!(set.batch_insert(&healthy), vec![true; 4]);
        let mut keys: Vec<u64> = (0..filler).map(|i| 20 + i * (7_900 / filler)).collect();
        keys.push(u64::MAX);
        let bomb = Batch::from_unsorted(keys);
        let err = catch_unwind(AssertUnwindSafe(|| set.batch_insert(&bomb)));
        assert!(err.is_err(), "bomb batch must panic ({} keys)", bomb.len());
        assert!(
            set.is_poisoned(),
            "tier must be poisoned after a bomb batch ({} keys)",
            bomb.len()
        );
        // A few keys, and ≈ 1 000 a shard: shares the read would offer.
        let wide = Batch::from_unsorted((0..8_000).step_by(2).collect());
        for follow_up in [&healthy, &wide] {
            let unwound = catch_unwind(AssertUnwindSafe(|| set.batch_contains(follow_up)));
            let msg = panic_message(unwound.expect_err("post-poison reads fail fast"));
            assert!(
                msg.starts_with("tier is poisoned"),
                "{} keys after a {}-key bomb: {msg:?}",
                follow_up.len(),
                bomb.len()
            );
        }
    }
}

/// The message of a caught panic.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

/// A backend panic inside a read's offered share reaches the tier's
/// caller, whichever thread ran the share, once both halves have settled.
/// A read takes no flag and enters no round, so — as in `combine` — its
/// panic poisons nothing: the shard pools keep serving offered reads, and
/// writes go on.
#[test]
fn a_panic_in_an_offered_read_reaches_its_caller_and_poisons_nothing() {
    let set = bomb_tier();
    // 600 keys on shard 0 (the caller's share) and 601 on shard 3, the
    // offered share, with the read bomb among them.
    let keys = || (0..600).chain(6_100..6_700);
    let bomb = Batch::from_unsorted(keys().chain([READ_BOMB]).collect());
    let healthy = Batch::from_unsorted(keys().collect());
    assert_eq!(set.batch_insert(&healthy), vec![true; 1_200]);
    for round in 0..20 {
        let unwound = catch_unwind(AssertUnwindSafe(|| set.batch_contains(&bomb)));
        let msg = panic_message(unwound.expect_err("the read bomb goes off"));
        assert!(msg.contains("blew up mid-read"), "round {round}: {msg:?}");
        assert!(!set.is_poisoned(), "round {round}: a read poisons nothing");
        assert_eq!(set.batch_contains(&healthy), vec![true; 1_200]);
    }
    assert!(set.insert(7_999) && set.contains(&7_999));
    let offers: u64 = (0..4)
        .map(|i| {
            let m = set.shard(i).pool_metrics();
            m.offers_reclaimed + m.offers_taken
        })
        .sum();
    assert_eq!(offers, 40, "every read offered shard 3's share");
}

/// Pins `ShardedSet::len`'s documented consistency bracket (the satellite
/// contract in the crate docs): under a *monotone* concurrent workload
/// (insert-only, distinct keys), every call observes
///
/// ```text
/// acknowledged-before-the-call  <=  len()  <=  issued-after-the-call
/// ```
///
/// because an insert acknowledged before the call began has committed on
/// its shard before that shard's count is read, and a key counted by some
/// shard must have been issued before the call returned.  The non-atomic
/// cut shows up only *between* the two bounds — that slack is the
/// documented behaviour, not a bug, so the test asserts the bracket and
/// nothing tighter.
#[test]
fn len_stays_within_the_monotone_workload_bracket() {
    use std::sync::atomic::{AtomicU64, Ordering};

    let num_shards = 4;
    let set = Arc::new(ShardedSet::new(
        RangeRouter::new(num_shards, 0u64, 1_000_000),
        (0..num_shards)
            .map(|_| ConcurrentSet::new(IstSet::from_unsorted(Vec::new()), Pool::new(1).unwrap()))
            .collect(),
        Pool::new(2).unwrap(),
    ));
    let issued = Arc::new(AtomicU64::new(0));
    let acked = Arc::new(AtomicU64::new(0));

    let writers: Vec<_> = (0..3u64)
        .map(|w| {
            let set = Arc::clone(&set);
            let issued = Arc::clone(&issued);
            let acked = Arc::clone(&acked);
            thread::spawn(move || {
                // Distinct keys per writer (disjoint residues), so every
                // insert is new and cardinality is exactly the ack count.
                for i in 0..2_000u64 {
                    let key = i * 3 + w;
                    issued.fetch_add(1, Ordering::SeqCst);
                    assert!(set.insert(key), "key {key} must be new");
                    acked.fetch_add(1, Ordering::SeqCst);
                }
            })
        })
        .collect();

    let mut observed = 0usize;
    while observed < 6_000 {
        let lo = acked.load(Ordering::SeqCst);
        let n = set.len();
        let hi = issued.load(Ordering::SeqCst);
        assert!(
            (lo as usize) <= n && n <= hi as usize,
            "len() = {n} outside the bracket [{lo}, {hi}]"
        );
        observed = n;
    }
    for w in writers {
        w.join().unwrap();
    }
    assert_eq!(set.len(), 6_000, "quiescent tier counts exactly");
    assert!(!set.is_empty());

    // Quiescent ordered queries agree with the oracle built from the same
    // keys — the stitched range is exact once no writer is in flight.
    let oracle: BTreeSet<u64> = (0..6_000u64).collect();
    assert_eq!(
        set.range_keys(std::ops::Bound::Unbounded, std::ops::Bound::Unbounded),
        oracle.iter().copied().collect::<Vec<_>>()
    );
    assert_eq!(
        set.range_count(
            std::ops::Bound::Included(&100),
            std::ops::Bound::Excluded(&200)
        ),
        100
    );
}
