//! Property tests for the batched-operations API: randomized mixed batches
//! of insert/remove/contains driven against a `std::collections::BTreeSet`
//! oracle, through the same generic [`BatchedSet`] interface every backend
//! implements — outside any pool and inside a 4-worker `forkjoin::Pool`,
//! with the tree's shape invariant checked after every batch.
//!
//! Every assertion carries the active seed (via the `ctx` string) so a CI
//! failure replays directly instead of bisecting seed lists.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;
use std::ops::Bound;

use baselines::SortedArraySet;
use batchapi::{Batch, BatchedMap, BatchedSet, KvBatch, MapView};
use forkjoin::Pool;
use pbist::node::{DELTA_CAPACITY, LEAF_CAPACITY, REBUILD_FACTOR};
use pbist::{IstMap, IstSet};
use workloads::{self, OpKind, SplitMix64};

/// Applies `ops` to `set` and a fresh oracle, checking per-element flags and
/// aggregate state (`len`, `min`/`max`, spot-checked `rank`) after every
/// batch; `audit` runs backend-specific checks (the tree's shape invariant).
/// `ctx` (the active seed and configuration) prefixes every failure message.
fn drive_against_oracle<S>(ctx: &str, set: &mut S, ops: &[workloads::OpBatch], audit: impl Fn(&S))
where
    S: BatchedSet<u64>,
{
    let mut oracle = BTreeSet::new();
    for (step, op) in ops.iter().enumerate() {
        let batch = Batch::from_unsorted(op.keys.clone());
        let flags = match op.kind {
            OpKind::Insert => set.batch_insert(&batch),
            OpKind::Remove => set.batch_remove(&batch),
            OpKind::Contains => set.batch_contains(&batch),
        };
        let expected: Vec<bool> = batch
            .iter()
            .map(|k| match op.kind {
                OpKind::Insert => oracle.insert(*k),
                OpKind::Remove => oracle.remove(k),
                OpKind::Contains => oracle.contains(k),
            })
            .collect();
        assert_eq!(
            flags, expected,
            "{ctx}: step {step}: {:?} flags diverged",
            op.kind
        );
        assert_eq!(set.len(), oracle.len(), "{ctx}: step {step}: len diverged");
        assert_eq!(set.is_empty(), oracle.is_empty(), "{ctx}: step {step}");
        assert_eq!(
            set.min(),
            oracle.first(),
            "{ctx}: step {step}: min diverged"
        );
        assert_eq!(set.max(), oracle.last(), "{ctx}: step {step}: max diverged");
        for probe in batch.iter().step_by(97).chain([0, u64::MAX].iter()) {
            assert_eq!(
                set.rank(probe),
                oracle.range(..probe).count(),
                "{ctx}: step {step}: rank of {probe} diverged"
            );
            assert_eq!(
                set.contains(probe),
                oracle.contains(probe),
                "{ctx}: step {step}: contains({probe}) diverged"
            );
        }
        audit(set);
    }
    assert!(
        !oracle.is_empty(),
        "{ctx}: workload never populated the set"
    );
}

fn mixed_ops(seed: u64) -> Vec<workloads::OpBatch> {
    // Narrow key range so inserts and removes collide often; batch sizes
    // large enough that pooled runs genuinely fork.
    workloads::mixed_op_batches(seed, 25, 3_000, 0..40_000, (3, 2, 2))
}

fn zipf_ops(seed: u64) -> Vec<workloads::OpBatch> {
    let universe = workloads::uniform_keys_distinct(seed, 5_000, 0..1_000_000);
    workloads::mixed_op_batches_zipf(seed, 20, 2_000, &universe, 0.9, (2, 2, 1))
}

#[test]
fn ist_set_matches_oracle_outside_pool() {
    for seed in [1, 2, 3] {
        let ctx = format!("seed {seed}, outside pool");
        let mut set: IstSet<u64> = IstSet::from_sorted(Vec::new());
        drive_against_oracle(&ctx, &mut set, &mixed_ops(seed), |s| {
            s.check_invariants()
                .unwrap_or_else(|e| panic!("{ctx}: invariants: {e}"))
        });
    }
}

#[test]
fn ist_set_matches_oracle_inside_pool() {
    let pool = Pool::new(4).unwrap();
    pool.install(|| {
        for seed in [4, 5] {
            let ctx = format!("seed {seed}, 4-worker pool");
            let mut set: IstSet<u64> = IstSet::from_sorted(Vec::new());
            drive_against_oracle(&ctx, &mut set, &mixed_ops(seed), |s| {
                s.check_invariants()
                    .unwrap_or_else(|e| panic!("{ctx}: invariants: {e}"))
            });
        }
    });
}

#[test]
fn ist_set_matches_oracle_on_zipf_traffic() {
    let seed = 6;
    let ops = zipf_ops(seed);
    let ctx = format!("seed {seed}, zipf, outside pool");
    let mut set: IstSet<u64> = IstSet::from_sorted(Vec::new());
    drive_against_oracle(&ctx, &mut set, &ops, |s| {
        s.check_invariants()
            .unwrap_or_else(|e| panic!("{ctx}: invariants: {e}"))
    });
    let pool = Pool::new(4).unwrap();
    pool.install(|| {
        let ctx = format!("seed {seed}, zipf, 4-worker pool");
        let mut set: IstSet<u64> = IstSet::from_sorted(Vec::new());
        drive_against_oracle(&ctx, &mut set, &ops, |s| {
            s.check_invariants()
                .unwrap_or_else(|e| panic!("{ctx}: invariants: {e}"))
        });
    });
}

#[test]
fn sorted_array_matches_oracle_outside_pool() {
    for seed in [1, 7] {
        let ctx = format!("seed {seed}, outside pool");
        let mut set: SortedArraySet<u64> = SortedArraySet::default();
        drive_against_oracle(&ctx, &mut set, &mixed_ops(seed), |_| {});
    }
}

#[test]
fn sorted_array_matches_oracle_inside_pool() {
    let pool = Pool::new(4).unwrap();
    pool.install(|| {
        let seed = 8;
        let ctx = format!("seed {seed}, 4-worker pool");
        let mut set: SortedArraySet<u64> = SortedArraySet::default();
        drive_against_oracle(&ctx, &mut set, &mixed_ops(seed), |_| {});
    });
}

#[test]
fn tree_starting_full_survives_heavy_removal() {
    // Start from a built tree and hammer it with remove-heavy traffic so
    // subtree pruning, hoisting, and shrink-rebuilds all trigger.
    let seed = 9;
    let ctx = format!("seed {seed}, remove-heavy");
    let keys = workloads::uniform_keys_distinct(seed, 30_000, 0..100_000);
    let mut set = IstSet::from_unsorted(keys.clone());
    let mut oracle: BTreeSet<u64> = keys.into_iter().collect();
    let ops = workloads::mixed_op_batches(10, 30, 2_500, 0..100_000, (1, 6, 1));
    for (step, op) in ops.iter().enumerate() {
        let batch = Batch::from_unsorted(op.keys.clone());
        let flags = match op.kind {
            OpKind::Insert => set.batch_insert(&batch),
            OpKind::Remove => set.batch_remove(&batch),
            OpKind::Contains => set.batch_contains(&batch),
        };
        let expected: Vec<bool> = batch
            .iter()
            .map(|k| match op.kind {
                OpKind::Insert => oracle.insert(*k),
                OpKind::Remove => oracle.remove(k),
                OpKind::Contains => oracle.contains(k),
            })
            .collect();
        assert_eq!(flags, expected, "{ctx}: step {step}");
        assert_eq!(set.len(), oracle.len(), "{ctx}: step {step}");
        set.check_invariants()
            .unwrap_or_else(|e| panic!("{ctx}: step {step}: {e}"));
    }
}

/// Long-churn soak: 2,000 small zipf-keyed batches with a remove-heavy tail
/// that drains the tree to near-empty and then refills it.  Small batches
/// under sustained drift are what exercise the factor-2 rebuild threshold
/// over and over (single leaves outgrowing capacity, subtrees shrinking
/// past `built_len / 2`, the root collapsing and reviving) — shapes the
/// bulk-batch tests above never sit in for long.
#[test]
fn long_churn_soak_pins_rebuild_threshold_behavior() {
    let seed = 11;
    let ctx = format!("seed {seed}, soak");
    let universe = workloads::uniform_keys_distinct(seed, 4_000, 0..10_000_000);

    // Four phases over 2,000 batches: grow (insert-leaning), churn
    // (balanced), drain (remove-heavy with a flat skew, so removals cover
    // the whole universe and actually empty the set rather than re-hitting
    // dead hot keys), refill (insert-heavy again).
    let phases: [(usize, f64, workloads::OpMix); 4] = [
        (600, 0.9, (5, 1, 1)),
        (500, 0.9, (2, 2, 1)),
        (700, 0.2, (1, 12, 1)),
        (200, 0.9, (6, 1, 1)),
    ];
    let mut set: IstSet<u64> = IstSet::from_sorted(Vec::new());
    let mut oracle: BTreeSet<u64> = BTreeSet::new();
    let mut step = 0usize;
    let mut min_after_drain = usize::MAX;
    for (phase, (batches, theta, mix)) in phases.iter().enumerate() {
        let ops = workloads::mixed_op_batches_zipf(
            seed.wrapping_add(phase as u64),
            *batches,
            32,
            &universe,
            *theta,
            *mix,
        );
        for op in &ops {
            let batch = Batch::from_unsorted(op.keys.clone());
            let flags = match op.kind {
                OpKind::Insert => set.batch_insert(&batch),
                OpKind::Remove => set.batch_remove(&batch),
                OpKind::Contains => set.batch_contains(&batch),
            };
            let expected: Vec<bool> = batch
                .iter()
                .map(|k| match op.kind {
                    OpKind::Insert => oracle.insert(*k),
                    OpKind::Remove => oracle.remove(k),
                    OpKind::Contains => oracle.contains(k),
                })
                .collect();
            assert_eq!(
                flags, expected,
                "{ctx}: phase {phase}, step {step}: {:?} flags diverged",
                op.kind
            );
            assert_eq!(
                set.len(),
                oracle.len(),
                "{ctx}: phase {phase}, step {step}: len diverged"
            );
            // A full-shape audit every batch would dominate the runtime;
            // every 50 batches still catches drift within one phase.
            if step.is_multiple_of(50) {
                set.check_invariants()
                    .unwrap_or_else(|e| panic!("{ctx}: phase {phase}, step {step}: {e}"));
            }
            if phase == 2 {
                min_after_drain = min_after_drain.min(set.len());
            }
            step += 1;
        }
        set.check_invariants()
            .unwrap_or_else(|e| panic!("{ctx}: end of phase {phase}: {e}"));
    }
    assert_eq!(step, 2_000, "{ctx}: batch count");
    // The drain phase must actually have pulled the set to near-empty —
    // otherwise the shrink-rebuild/prune/hoist paths were never really
    // under sustained test.
    assert!(
        min_after_drain < 300,
        "{ctx}: drain phase never got near empty (min {min_after_drain})"
    );
    // And the refill phase must have grown a consistent tree back.
    assert!(
        set.len() > min_after_drain && set.len() > 500,
        "{ctx}: refill did not rebuild the set (min {min_after_drain}, final {})",
        set.len()
    );
}

// ---- A leaf is a shared base plus a delta of at most `DELTA_CAPACITY`
// edits: scripts aimed at the delta's edges, then seeded interleavings,
// every step checked against a `BTreeMap` replay and clones pinned along
// the way. ----

/// Spacing of the scripts' base keys: `N_BASE` keys `i · GAP` build a root
/// over `⌊√N_BASE⌋` = 100 leaves of 100 keys — leaf `j` holds the base
/// keys `(100·j + i) · GAP`, `i < 100` — and `GAP - 1` fresh keys follow
/// each base key, room to grow one leaf past twice `LEAF_CAPACITY`.
const GAP: u64 = 4_096;
const N_BASE: u64 = 10_000;
const B: usize = DELTA_CAPACITY;

/// The `i`-th base key of leaf `j`.
fn base_key(j: u64, i: u64) -> u64 {
    (100 * j + i) * GAP
}

/// The `n`-th fresh key of leaf `j`: a key between its base keys.
fn fresh_key(j: u64, n: u64) -> u64 {
    base_key(j, n % 100) + 1 + n / 100
}

enum Op {
    Upsert(u64),
    Remove(u64),
    Upserts(Vec<u64>),
    Removes(Vec<u64>),
}

/// A tree and its `BTreeMap` replay, with clones pinned along the way, each
/// beside the replay as it stood when the clone was taken.
struct Replay<V, F> {
    ctx: String,
    map: IstMap<u64, V>,
    oracle: BTreeMap<u64, V>,
    pinned: Vec<(IstMap<u64, V>, BTreeMap<u64, V>)>,
    /// The value an upsert of a key stores at a step (a map's differ from
    /// step to step, so a lost override shows).
    val_of: F,
    step: u64,
}

impl<V, F> Replay<V, F>
where
    V: Clone + PartialEq + Debug + Send + Sync,
    F: Fn(u64, u64) -> V,
{
    fn new(ctx: &str, val_of: F) -> Replay<V, F> {
        let entries: Vec<(u64, V)> = (0..N_BASE).map(|i| (i * GAP, val_of(i * GAP, 0))).collect();
        Replay {
            ctx: ctx.to_string(),
            map: IstMap::from_sorted_entries(entries.clone()).with_metrics(true),
            oracle: entries.into_iter().collect(),
            pinned: Vec::new(),
            val_of,
            step: 0,
        }
    }

    fn pin(&mut self) {
        self.pinned.push((self.map.clone(), self.oracle.clone()));
    }

    /// Applies `op` to the tree and the replay, then checks every reader.
    fn apply(&mut self, op: Op) {
        self.step += 1;
        let step = self.step;
        let (flags, expected, touched) = match op {
            Op::Upsert(key) => {
                let val = (self.val_of)(key, step);
                let flag = self.map.upsert_one(&key, &val);
                (
                    vec![flag],
                    vec![self.oracle.insert(key, val).is_none()],
                    vec![key],
                )
            }
            Op::Remove(key) => {
                let flag = self.map.remove_one(&key);
                (
                    vec![flag],
                    vec![self.oracle.remove(&key).is_some()],
                    vec![key],
                )
            }
            Op::Upserts(keys) => {
                let entries = keys.iter().map(|&k| (k, (self.val_of)(k, step))).collect();
                let batch = KvBatch::from_unsorted_entries(entries);
                let flags = self.map.batch_insert(&batch);
                let expected = (batch.keys().iter().zip(batch.vals()))
                    .map(|(k, v)| self.oracle.insert(*k, v.clone()).is_none())
                    .collect();
                (flags, expected, batch.keys().to_vec())
            }
            Op::Removes(keys) => {
                let batch = Batch::from_unsorted(keys);
                let flags = self.map.batch_remove(&batch);
                let expected = batch
                    .iter()
                    .map(|k| self.oracle.remove(k).is_some())
                    .collect();
                (flags, expected, batch.keys().to_vec())
            }
        };
        let ctx = format!("{}: step {step}", self.ctx);
        assert_eq!(flags, expected, "{ctx}: flags");
        self.check(&ctx, &touched);
    }

    /// Every reader against the replay: the whole contents, and around the
    /// keys the step touched point and batched lookups, `rank`, `kth`,
    /// `predecessor` / `successor` and a range.
    fn check(&self, ctx: &str, touched: &[u64]) {
        let (map, oracle) = (&self.map, &self.oracle);
        map.check_invariants()
            .unwrap_or_else(|e| panic!("{ctx}: invariants: {e}"));
        let (keys, vals) = map.collect_entries();
        assert!(
            keys.iter().eq(oracle.keys()) && vals.iter().eq(oracle.values()),
            "{ctx}: collect_entries diverged"
        );
        assert_eq!(map.len(), keys.len(), "{ctx}: len");
        assert_eq!(
            (map.min(), map.max()),
            (keys.first(), keys.last()),
            "{ctx}: min/max"
        );
        let mut probes: Vec<u64> = (touched.iter())
            .flat_map(|&k| [k.saturating_sub(1), k, k + 1])
            .chain([0, u64::MAX])
            .collect();
        probes.sort_unstable();
        probes.dedup();
        let batch = Batch::from_sorted(probes.clone()).unwrap();
        let present: Vec<bool> = probes.iter().map(|k| oracle.contains_key(k)).collect();
        assert_eq!(map.batch_contains(&batch), present, "{ctx}: batch_contains");
        let got: Vec<Option<V>> = probes.iter().map(|k| oracle.get(k).cloned()).collect();
        assert_eq!(map.batch_get(&batch), got, "{ctx}: batch_get");
        for &p in &probes {
            let rank = keys.partition_point(|&k| k < p);
            let after = keys.partition_point(|&k| k <= p);
            assert_eq!(
                map.contains(&p),
                oracle.contains_key(&p),
                "{ctx}: contains({p})"
            );
            assert_eq!(map.get(&p), oracle.get(&p).cloned(), "{ctx}: get({p})");
            assert_eq!(map.rank(&p), rank, "{ctx}: rank({p})");
            let kth = keys.get(rank).map(|k| (*k, oracle[k].clone()));
            assert_eq!(map.kth_entry(rank), kth, "{ctx}: kth_entry({rank})");
            let before = rank.checked_sub(1).map(|r| keys[r]);
            assert_eq!(map.predecessor(&p), before, "{ctx}: predecessor({p})");
            assert_eq!(
                map.successor(&p),
                keys.get(after).copied(),
                "{ctx}: successor({p})"
            );
        }
        let lo = touched.iter().min().map_or(0, |k| k.saturating_sub(GAP));
        let hi = touched.iter().max().map_or(0, |k| k + GAP);
        let want = &keys[keys.partition_point(|&k| k < lo)..keys.partition_point(|&k| k < hi)];
        let range = map.range_keys(Bound::Included(&lo), Bound::Excluded(&hi));
        assert_eq!(range, want, "{ctx}: range_keys({lo}..{hi})");
    }

    /// Every pinned clone still holds what the replay held when it was
    /// taken.
    fn finish(self) {
        assert!(
            self.pinned.len() >= 100,
            "{}: {} clones pinned",
            self.ctx,
            self.pinned.len()
        );
        for (at, (clone, frozen)) in self.pinned.iter().enumerate() {
            let ctx = format!("{}: clone {at}", self.ctx);
            clone
                .check_invariants()
                .unwrap_or_else(|e| panic!("{ctx}: invariants: {e}"));
            let (keys, vals) = clone.collect_entries();
            assert!(
                keys.iter().eq(frozen.keys()) && vals.iter().eq(frozen.values()),
                "{ctx}: a pinned clone moved"
            );
        }
    }
}

/// Scripts aimed at the delta's edges, each on its own leaf, a clone
/// pinned before every other write so both the shared and the owned paths
/// run; then seeded rounds of point and batch upserts and removes crowded
/// onto a few leaves.
fn drive_leaf_deltas<V, F>(ctx: &str, val_of: F)
where
    V: Clone + PartialEq + Debug + Send + Sync,
    F: Fn(u64, u64) -> V,
{
    let mut t = Replay::new(ctx, val_of);
    // B − 1, B and B + 1 edits to one leaf: new keys and tombstones in
    // turn, so the last one folds the delta on leaf 3 alone.
    for (j, edits) in [(1, B - 1), (2, B), (3, B + 1)] {
        for n in 0..edits as u64 {
            if n % 2 == 0 {
                t.pin();
            }
            t.apply(match n % 2 {
                0 => Op::Upsert(fresh_key(j, n)),
                _ => Op::Remove(base_key(j, n)),
            });
        }
    }
    // A base key removed and inserted again, by point and by batch: the
    // tombstone goes (a set) or becomes an override (a map).
    let key = base_key(4, 10);
    for op in [
        Op::Remove(key),
        Op::Upsert(key),
        Op::Removes(vec![key, base_key(4, 11)]),
        Op::Upserts(vec![key, base_key(4, 11), fresh_key(4, 3)]),
    ] {
        t.pin();
        t.apply(op);
    }
    // A value overwrite of base keys, by point and by batch (a no-op for a
    // set), then of the override itself.
    t.pin();
    t.apply(Op::Upsert(base_key(5, 20)));
    t.apply(Op::Upserts((20..26).map(|i| base_key(5, i)).collect()));
    t.pin();
    t.apply(Op::Upsert(base_key(5, 20)));
    // Runs longer than the delta into one leaf, over a non-empty delta.
    t.apply(Op::Upsert(fresh_key(6, 1_000)));
    t.pin();
    let fresh: Vec<u64> = (0..B as u64 + 8).map(|n| fresh_key(6, n)).collect();
    t.apply(Op::Upserts(
        fresh.iter().copied().chain([base_key(6, 50)]).collect(),
    ));
    t.pin();
    let gone = fresh
        .iter()
        .step_by(2)
        .copied()
        .chain((0..20).map(|i| base_key(6, i)));
    t.apply(Op::Removes(gone.collect()));
    // A leaf emptied by point tombstones — its delta folding on the way —
    // and pruned; another emptied by one batch over a non-empty delta.
    t.apply(Op::Upsert(fresh_key(7, 0)));
    for i in 0..100 {
        if i % 4 == 0 {
            t.pin();
        }
        t.apply(Op::Remove(base_key(7, i)));
    }
    t.pin();
    t.apply(Op::Remove(fresh_key(7, 0)));
    t.apply(Op::Upsert(fresh_key(8, 0)));
    t.apply(Op::Remove(base_key(8, 0)));
    t.pin();
    t.apply(Op::Removes(
        (0..100)
            .map(|i| base_key(8, i))
            .chain([fresh_key(8, 0)])
            .collect(),
    ));
    // A leaf grown past twice `LEAF_CAPACITY`, by batches and points in
    // turn, and rebuilt.
    let grow = (REBUILD_FACTOR * LEAF_CAPACITY) as u64;
    let rebuilds = t.map.metrics().rebuilds;
    let mut n = 0;
    while n < grow {
        t.pin();
        t.apply(Op::Upserts((n..n + 300).map(|n| fresh_key(9, n)).collect()));
        t.apply(Op::Upsert(fresh_key(9, n + 300)));
        n += 301;
    }
    assert!(
        t.map.metrics().rebuilds > rebuilds,
        "{ctx}: leaf 9 was not rebuilt"
    );
    // Seeded rounds: point writes and runs of up to 2·B keys on six hot
    // leaves, with an occasional batch across many leaves; a clone pinned
    // every third round.
    let mut rng = SplitMix64::new(0xDE17A);
    for round in 0..360 {
        if round % 3 == 0 {
            t.pin();
        }
        let leaf = 10 + rng.next_below(6);
        let key = |rng: &mut SplitMix64| match rng.next_below(2) {
            0 => base_key(leaf, rng.next_below(100)),
            _ => fresh_key(leaf, rng.next_below(200)),
        };
        let wide = |rng: &mut SplitMix64| {
            base_key(rng.next_below(100), rng.next_below(100)) + rng.next_below(2)
        };
        let op = match rng.next_below(10) {
            0..=2 => Op::Upsert(key(&mut rng)),
            3..=5 => Op::Remove(key(&mut rng)),
            6 | 7 => {
                let len = 2 + rng.next_below(2 * B as u64 - 1);
                let keys = (0..len).map(|_| key(&mut rng)).collect();
                if rng.next_below(2) == 0 {
                    Op::Upserts(keys)
                } else {
                    Op::Removes(keys)
                }
            }
            _ => {
                let keys = (0..200).map(|_| wide(&mut rng)).collect();
                if rng.next_below(2) == 0 {
                    Op::Upserts(keys)
                } else {
                    Op::Removes(keys)
                }
            }
        };
        t.apply(op);
    }
    t.finish();
}

#[test]
fn ist_set_leaf_deltas_match_a_replay_under_pinned_clones() {
    drive_leaf_deltas("set", |_, _| ());
}

#[test]
fn ist_map_leaf_deltas_match_a_replay_under_pinned_clones() {
    drive_leaf_deltas("map", |key, step| key ^ (step << 40));
}
