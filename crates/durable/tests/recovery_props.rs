//! Property tests for durability recovery.
//!
//! Every test is generic over the value type and runs at `V = ()` (the
//! set) and `V = u64` (values must survive byte-for-byte).  Two families:
//!
//! 1. **Oracle equivalence** — a deterministic pseudo-random op stream is
//!    applied to a [`DurableMap`] and a plain `BTreeMap` side by side,
//!    across the configuration grid {snapshot never / every round /
//!    every 7} × {group commit 1 / 8 / 64}, with the store closed and
//!    reopened mid-stream.  Every op result and every recovered state
//!    must match the oracle exactly.
//!
//! 2. **Corrupt-a-byte fuzz** — flip each byte of the on-disk state in a
//!    fresh copy of the directory and reopen.  A flipped WAL byte must
//!    recover exactly the state as of the last record before the damage
//!    (and heal, so a second open is clean) — except in the header's
//!    width/version bytes, where the segment now claims to belong to a
//!    differently-typed store: that open must *refuse* and change nothing.
//!    A flipped byte of the committed snapshot must refuse to open with
//!    `InvalidData` — never panic, and never silently fall back to an
//!    emptier state.
//!
//! The grid's batches are small, so none of its replayed rounds forks;
//! one more oracle case replays batches large enough to fork on a
//! two-worker pool, with a snapshot part-way and a torn tail.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use batchapi::{Batch, KeyCodec, KvBatch};
use durable::{DurableMap, DurableOptions};
use forkjoin::Pool;
use pbist::IstMap;

/// The value types the suite runs at.
trait Val: Clone + PartialEq + std::fmt::Debug + Send + Sync + KeyCodec + 'static {
    /// A value derived from `key` and a `salt` (the step that wrote it), so
    /// an overwrite is distinguishable from the write it replaced.
    fn of(key: u64, salt: u64) -> Self;
}

impl Val for () {
    fn of(_key: u64, _salt: u64) {}
}

impl Val for u64 {
    fn of(key: u64, salt: u64) -> u64 {
        key << 20 | salt
    }
}

type Store<V> = DurableMap<u64, V, IstMap<u64, V>>;

/// Instantiates each generic test below once per value type.
macro_rules! at_both_value_types {
    ($($name:ident),* $(,)?) => {
        mod set {
            $(#[test] fn $name() { super::$name::<()>() })*
        }
        mod map {
            $(#[test] fn $name() { super::$name::<u64>() })*
        }
    };
}

at_both_value_types!(
    recovery_matches_a_btreemap_oracle_across_the_config_grid,
    flipping_any_wal_byte_recovers_the_prefix_before_the_damage,
    an_oversized_record_appends_whole_to_one_fresh_segment,
    flipping_any_manifest_or_snapshot_byte_refuses_to_open,
    a_replay_of_forking_rounds_recovers_the_oracle,
);

static DIR_ID: AtomicU64 = AtomicU64::new(0);

fn scratch_dir(tag: &str) -> PathBuf {
    let id = DIR_ID.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("durable-props-{}-{tag}-{id}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn try_open<V: Val>(dir: &Path, options: DurableOptions) -> io::Result<Store<V>> {
    DurableMap::open(dir, Pool::new(1).expect("pool"), options, |batch| {
        IstMap::from_batch(&batch)
    })
}

fn open<V: Val>(dir: &Path, group_commit: u64, snapshot_every: u64) -> Store<V> {
    let options = DurableOptions {
        group_commit,
        snapshot_every,
        ..DurableOptions::default()
    };
    try_open(dir, options).expect("open durable store")
}

/// The durable store's full contents (one linearisation point).
fn contents<V: Val>(store: &Store<V>) -> Vec<(u64, V)> {
    let (keys, vals, _) = store.inner().snapshot_entries();
    keys.into_iter().zip(vals).collect()
}

fn entries<V: Val>(oracle: &BTreeMap<u64, V>) -> Vec<(u64, V)> {
    oracle.iter().map(|(k, v)| (*k, v.clone())).collect()
}

/// Flat copy of a durable directory (it never has subdirectories).
fn copy_dir(src: &Path, dst: &Path) {
    fs::create_dir_all(dst).unwrap();
    for entry in fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

fn flip_byte(path: &Path, at: usize) {
    let mut bytes = fs::read(path).unwrap();
    bytes[at] ^= 0x5A;
    fs::write(path, &bytes).unwrap();
}

/// xorshift64* — deterministic, seedable, no external crates.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

fn recovery_matches_a_btreemap_oracle_across_the_config_grid<V: Val>() {
    for snapshot_every in [0u64, 1, 7] {
        for group_commit in [1u64, 8, 64] {
            let tag = format!("s{snapshot_every}-g{group_commit}");
            let dir = scratch_dir(&tag);
            let mut rng = Rng(0x9E37_79B9_7F4A_7C15 ^ (snapshot_every << 8 | group_commit));
            let mut oracle: BTreeMap<u64, V> = BTreeMap::new();
            let mut set = open::<V>(&dir, group_commit, snapshot_every);

            for step in 0..240 {
                if step == 90 || step == 201 {
                    // Mid-stream reopen: everything must survive the trip
                    // through the log (and any snapshots) byte-for-byte.
                    set.close().expect("close");
                    set = open::<V>(&dir, group_commit, snapshot_every);
                    assert_eq!(
                        contents(&set),
                        entries(&oracle),
                        "{tag}: reopen at step {step} diverged from the oracle"
                    );
                }
                let key = rng.next() % 128;
                match rng.next() % 5 {
                    0 => assert_eq!(
                        set.upsert(key, V::of(key, step)).expect("upsert"),
                        oracle.insert(key, V::of(key, step)).is_none(),
                        "{tag}: upsert({key}) at step {step}"
                    ),
                    1 => assert_eq!(
                        set.remove(&key).expect("remove"),
                        oracle.remove(&key).is_some(),
                        "{tag}: remove({key}) at step {step}"
                    ),
                    2 => assert_eq!(
                        set.get(&key).expect("get"),
                        oracle.get(&key).cloned(),
                        "{tag}: get({key}) at step {step}"
                    ),
                    kind => {
                        let keys: Vec<u64> =
                            (0..1 + rng.next() % 9).map(|_| rng.next() % 128).collect();
                        let batch = Batch::from_unsorted(keys);
                        // Insert-only (or remove-only) batches of distinct
                        // keys: the per-key result is independent of order.
                        let expect: Vec<bool> = batch
                            .iter()
                            .map(|&k| {
                                if kind == 3 {
                                    oracle.insert(k, V::of(k, step)).is_none()
                                } else {
                                    oracle.remove(&k).is_some()
                                }
                            })
                            .collect();
                        let got = if kind == 3 {
                            let pairs = batch.iter().map(|&k| (k, V::of(k, step)));
                            set.batch_insert(&KvBatch::from_unsorted_entries(pairs.collect()))
                                .expect("batch_insert")
                        } else {
                            set.batch_remove(&batch).expect("batch_remove")
                        };
                        assert_eq!(got, expect, "{tag}: batch op at step {step}");
                    }
                }
                assert_eq!(set.len(), oracle.len(), "{tag}: len at step {step}");
            }

            set.close().expect("final close");
            let set = open::<V>(&dir, group_commit, snapshot_every);
            assert_eq!(
                contents(&set),
                entries(&oracle),
                "{tag}: final recovery diverged from the oracle"
            );
            assert_eq!(
                set.metrics().counter("durable.torn_tails"),
                Some(0),
                "{tag}: clean shutdowns must not report tears"
            );
            drop(set);
            fs::remove_dir_all(&dir).unwrap();
        }
    }
}

/// Builds a directory whose WAL holds exactly 24 single-op records (no
/// snapshot), returning the oracle state after each record — `states[k]`
/// is the contents once the first `k` records have applied — and the byte
/// offset in the segment at which each record ends (`ends[0]` = the header).
fn build_wal_fixture<V: Val>(dir: &Path) -> (Vec<Vec<(u64, V)>>, Vec<usize>) {
    const HEADER: usize = 8;
    let mut oracle: BTreeMap<u64, V> = BTreeMap::new();
    let mut states = vec![Vec::new()];
    let mut ends = vec![HEADER];
    let set = open::<V>(dir, 1, 0);
    for i in 0..24u64 {
        // Every op is effective (so every op writes a record): two
        // inserts of fresh keys, then a remove of the second.
        if i % 3 == 2 {
            assert!(set.remove(&(i - 1)).expect("remove"));
            oracle.remove(&(i - 1));
        } else {
            assert!(set.upsert(i, V::of(i, i)).expect("upsert"));
            oracle.insert(i, V::of(i, i));
        }
        states.push(entries(&oracle));
        let written = set.metrics().counter("durable.bytes_written").unwrap();
        ends.push(HEADER + written as usize);
    }
    set.close().expect("close fixture");
    (states, ends)
}

fn flipping_any_wal_byte_recovers_the_prefix_before_the_damage<V: Val>() {
    let base = scratch_dir("wal-fuzz-base");
    let (states, ends) = build_wal_fixture::<V>(&base);

    // All 24 records land in the single active segment the fixture's one
    // open created (default 8 MiB rotation threshold).
    let segments: Vec<PathBuf> = fs::read_dir(&base)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .collect();
    assert_eq!(segments.len(), 1, "fixture should be one unrotated segment");
    let segment_name = segments[0].file_name().unwrap().to_owned();
    let len = fs::metadata(&segments[0]).unwrap().len() as usize;
    assert_eq!(ends[24], len, "the fixture is the header plus 24 records");
    let whole_dir = |dir: &Path| -> Vec<Vec<u8>> {
        let mut names: Vec<PathBuf> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        names.sort();
        names.iter().map(|p| fs::read(p).unwrap()).collect()
    };

    for at in 0..len {
        let dir = scratch_dir("wal-fuzz");
        copy_dir(&base, &dir);
        flip_byte(&dir.join(&segment_name), at);

        // Header bytes 5..8 are the key width, value width and format
        // version: flipped, the file is a well-formed segment of *another*
        // store, which must be refused untouched rather than "healed".
        if (5..8).contains(&at) {
            let before = whole_dir(&dir);
            let err = try_open::<V>(&dir, DurableOptions::default())
                .err()
                .unwrap_or_else(|| panic!("byte {at}: a foreign header opened anyway"));
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "byte {at}: {err}");
            assert_eq!(whole_dir(&dir), before, "byte {at}: refused open wrote");
            fs::remove_dir_all(&dir).unwrap();
            continue;
        }

        // A tear in the header's tag voids the whole segment; a tear in
        // record k keeps exactly the records before it.  Either way
        // open() succeeds — a damaged log *tail* is the expected crash
        // shape.
        let survivors = ends.iter().rposition(|&end| end <= at).unwrap_or(0);
        let set = open::<V>(&dir, 1, 0);
        assert_eq!(
            set.metrics().counter("durable.torn_tails"),
            Some(1),
            "byte {at}: the flip must read as a tear"
        );
        assert_eq!(
            contents(&set),
            states[survivors],
            "byte {at}: recovery must keep exactly the {survivors} records before the damage"
        );
        drop(set);

        // Recovery healed (truncated or deleted) the damage: the second
        // open replays a clean log and agrees.
        let set = open::<V>(&dir, 1, 0);
        assert_eq!(
            set.metrics().counter("durable.torn_tails"),
            Some(0),
            "byte {at}: the tear must not survive healing"
        );
        assert_eq!(
            contents(&set),
            states[survivors],
            "byte {at}: healed state drifted"
        );
        drop(set);
        fs::remove_dir_all(&dir).unwrap();
    }
    fs::remove_dir_all(&base).unwrap();
}

/// All `wal-*.log` segments in `dir` as `(file name, byte length)`,
/// sorted by name (= sequence order).
fn wal_segments(dir: &Path) -> Vec<(String, u64)> {
    let mut segments: Vec<(String, u64)> = fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| {
            e.file_name()
                .to_str()
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .map(|e| {
            (
                e.file_name().to_str().unwrap().to_owned(),
                e.metadata().unwrap().len(),
            )
        })
        .collect();
    segments.sort();
    segments
}

/// Regression: a record larger than `segment_bytes` must append *whole*
/// to a single fresh segment — exactly one rotation, never a split
/// across segments, never a rotate-forever loop — and the state must
/// survive a reopen.  The rotation check runs once per record (before
/// the append), so an oversized record is legal in exactly one place:
/// alone at the head of the segment it forced open.
fn an_oversized_record_appends_whole_to_one_fresh_segment<V: Val>() {
    let dir = scratch_dir("oversize");
    let open_tiny = |dir: &Path| {
        let options = DurableOptions {
            group_commit: 1,
            snapshot_every: 0,
            segment_bytes: 64,
        };
        try_open::<V>(dir, options).expect("open durable store")
    };

    let set = open_tiny(&dir);
    // Push the active segment past the 64-byte threshold with small
    // records, so the oversized record's own rotation check fires.
    for i in 0..6u64 {
        assert!(set.upsert(i, V::of(i, 0)).expect("upsert"));
    }
    let before = wal_segments(&dir);
    assert!(
        before.len() >= 2,
        "fixture should already have rotated under 64-byte segments: {before:?}"
    );

    // One batch round commits to one WAL record: 200 keys is a single
    // record ~25x the segment threshold.
    let big: Vec<(u64, V)> = (1_000..1_200u64).map(|k| (k, V::of(k, 1))).collect();
    assert!(
        set.batch_insert(&KvBatch::from_unsorted_entries(big.clone()))
            .expect("batch_insert")
            .iter()
            .all(|&fresh| fresh),
        "all 200 keys are new"
    );

    let after = wal_segments(&dir);
    assert_eq!(
        after.len(),
        before.len() + 1,
        "the oversized record must force exactly one rotation: {before:?} -> {after:?}"
    );
    assert_eq!(
        &after[..before.len()],
        &before[..],
        "sealed segments must be untouched — the record must not split across files"
    );
    let (_, fresh_len) = after.last().unwrap();
    assert!(
        *fresh_len >= 200 * 8,
        "the whole record (>= 1600 bytes of keys) must sit in the fresh segment, got {fresh_len}"
    );

    // A follow-up small record rotates once more (the oversized segment
    // is over threshold) instead of re-triggering on the same record.
    assert!(set
        .upsert(9_999, V::of(9_999, 2))
        .expect("upsert after oversize"));
    assert_eq!(
        wal_segments(&dir).len(),
        after.len() + 1,
        "exactly one more rotation for the next record"
    );

    set.close().expect("close");
    let set = open_tiny(&dir);
    let mut expect: Vec<(u64, V)> = (0..6u64).map(|k| (k, V::of(k, 0))).chain(big).collect();
    expect.push((9_999, V::of(9_999, 2)));
    assert_eq!(
        contents(&set),
        expect,
        "recovery must replay the oversized record byte-for-byte"
    );
    drop(set);
    fs::remove_dir_all(&dir).unwrap();
}

fn flipping_any_manifest_or_snapshot_byte_refuses_to_open<V: Val>() {
    let base = scratch_dir("snap-fuzz-base");
    {
        let set = open::<V>(&base, 1, 0);
        for i in 0..10u64 {
            set.upsert(i, V::of(i, 0)).expect("upsert");
        }
        set.snapshot().expect("snapshot");
        for i in 10..15u64 {
            set.upsert(i, V::of(i, 0)).expect("upsert");
        }
        set.close().expect("close fixture");
    }

    let snap_name = fs::read_dir(&base)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.file_name()))
        .find(|n| {
            n.to_str()
                .is_some_and(|n| n.starts_with("snap-") && n.ends_with(".snap"))
        })
        .expect("fixture has a snapshot");

    let len = fs::metadata(base.join(&snap_name)).unwrap().len() as usize;
    for at in 0..len {
        let dir = scratch_dir("snap-fuzz");
        copy_dir(&base, &dir);
        flip_byte(&dir.join(&snap_name), at);

        // Committing the snapshot authorised deleting older log segments,
        // so a damaged one cannot degrade to "no snapshot" — that would
        // present data loss as a clean open.
        let err = try_open::<V>(&dir, DurableOptions::default())
            .err()
            .unwrap_or_else(|| panic!("snapshot byte {at}: corrupt root opened anyway"));
        assert_eq!(
            err.kind(),
            io::ErrorKind::InvalidData,
            "snapshot byte {at}: wrong error kind ({err})"
        );
        fs::remove_dir_all(&dir).unwrap();
    }
    // The un-flipped copy still opens: the fixture itself is sound.
    let dir = scratch_dir("snap-fuzz-sound");
    copy_dir(&base, &dir);
    let set = open::<V>(&dir, 1, 0);
    let expect: Vec<(u64, V)> = (0..15u64).map(|k| (k, V::of(k, 0))).collect();
    assert_eq!(contents(&set), expect);
    drop(set);
    fs::remove_dir_all(&dir).unwrap();
    fs::remove_dir_all(&base).unwrap();
}

/// Keys of the forking-replay case: large enough that its batches spread
/// over many chunks of the tree's root.
const LARGE_UNIVERSE: u64 = 20_000;

/// Opens `dir` on a two-worker pool with metrics on, so the reopened
/// store's `pool_metrics()` count the joins its recovery made.
fn open_forking<V: Val>(dir: &Path) -> Store<V> {
    let pool = Pool::builder()
        .num_threads(2)
        .metrics(true)
        .build()
        .expect("pool");
    DurableMap::open(dir, pool, DurableOptions::default(), |batch| {
        IstMap::from_batch(&batch)
    })
    .expect("open durable store")
}

/// Writes round `step` to the store and the oracle alike: an insert batch
/// of every `2..=8`th key, a remove batch of every `4..=32`th (at least
/// 625 keys either way, above the tree's 512-key fork cutoff), or 16 point
/// writes, by turns.
fn write_forking_round<V: Val>(
    store: &Store<V>,
    oracle: &mut BTreeMap<u64, V>,
    rng: &mut Rng,
    step: u64,
) {
    let strided = |rng: &mut Rng, lo: u64, hi: u64| {
        let stride = lo + rng.next() % (hi - lo + 1);
        (rng.next() % stride..LARGE_UNIVERSE)
            .step_by(stride as usize)
            .collect::<Vec<u64>>()
    };
    match step % 3 {
        0 => {
            let keys = strided(rng, 2, 8);
            let expect: Vec<bool> = keys
                .iter()
                .map(|&k| oracle.insert(k, V::of(k, step)).is_none())
                .collect();
            let pairs = keys.iter().map(|&k| (k, V::of(k, step))).collect();
            let batch = KvBatch::from_sorted_entries(pairs).expect("strided keys ascend");
            let got = store.batch_insert(&batch).expect("batch_insert");
            assert_eq!(got, expect, "batch insert at step {step}");
        }
        1 => {
            let keys = strided(rng, 4, 32);
            let expect: Vec<bool> = keys.iter().map(|k| oracle.remove(k).is_some()).collect();
            let batch = Batch::from_sorted(keys).expect("strided keys ascend");
            let got = store.batch_remove(&batch).expect("batch_remove");
            assert_eq!(got, expect, "batch remove at step {step}");
        }
        _ => {
            for _ in 0..16 {
                let key = rng.next() % LARGE_UNIVERSE;
                if rng.next().is_multiple_of(2) {
                    let got = store.upsert(key, V::of(key, step)).expect("upsert");
                    assert_eq!(got, oracle.insert(key, V::of(key, step)).is_none());
                } else {
                    let got = store.remove(&key).expect("remove");
                    assert_eq!(got, oracle.remove(&key).is_some());
                }
            }
        }
    }
}

/// The recovered store holds exactly the oracle's entries, in a tree that
/// passes its own invariant check.
fn check_recovered<V: Val>(store: &Store<V>, oracle: &BTreeMap<u64, V>, what: &str) {
    assert_eq!(
        contents(store),
        entries(oracle),
        "{what}: diverged from the oracle"
    );
    if let Err(err) = store.inner().read_snapshot().view().check_invariants() {
        panic!("{what}: the recovered tree is broken: {err}");
    }
}

/// Recovery replays each logged round through the tree's own batched
/// writes, so a replayed batch of ≥ 512 keys forks there as it did when
/// it was written.  Rounds of both kinds and point writes, a snapshot
/// part-way and a torn final record must recover equal to a `BTreeMap`
/// replay, every time.
fn a_replay_of_forking_rounds_recovers_the_oracle<V: Val>() {
    let dir = scratch_dir("forking-replay");
    let mut rng = Rng(0x5EED_F04C);
    let mut oracle: BTreeMap<u64, V> = BTreeMap::new();
    let mut store = open_forking::<V>(&dir);
    for step in 0..9 {
        write_forking_round(&store, &mut oracle, &mut rng, step);
    }
    store.close().expect("close");
    // No snapshot yet, so `make_backend` builds an empty tree: every join
    // the reopened pool has counted is the replay's.
    store = open_forking::<V>(&dir);
    let joins = store.inner().pool_metrics().join_latency.count();
    assert!(joins > 0, "no replayed round forked");
    check_recovered(&store, &oracle, "log only");

    for step in 9..15 {
        write_forking_round(&store, &mut oracle, &mut rng, step);
    }
    store.snapshot().expect("snapshot");
    for step in 15..21 {
        write_forking_round(&store, &mut oracle, &mut rng, step);
    }
    store.close().expect("close");
    store = open_forking::<V>(&dir);
    check_recovered(&store, &oracle, "snapshot and log");

    // Cut the last round's record in half: the state before it recovers.
    for step in 21..27 {
        write_forking_round(&store, &mut oracle, &mut rng, step);
    }
    let before = oracle.clone();
    let (segment, valid_len) = wal_segments(&dir).pop().expect("an active segment");
    write_forking_round(&store, &mut oracle, &mut rng, 27);
    store.close().expect("close");
    let (last, len) = wal_segments(&dir).pop().expect("an active segment");
    assert_eq!(last, segment, "the last record landed in the same segment");
    fs::OpenOptions::new()
        .write(true)
        .open(dir.join(&segment))
        .and_then(|file| file.set_len((valid_len + len) / 2))
        .expect("tear the last record");
    for torn_tails in [1, 0] {
        let store = open_forking::<V>(&dir);
        assert_eq!(
            store.metrics().counter("durable.torn_tails"),
            Some(torn_tails)
        );
        check_recovered(&store, &before, "a torn tail");
    }
    fs::remove_dir_all(&dir).unwrap();
}
