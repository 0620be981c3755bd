//! Property tests for the batched-operations API: randomized mixed batches
//! of insert/remove/contains driven against a `std::collections::BTreeSet`
//! oracle, through the same generic [`BatchedSet`] interface every backend
//! implements — outside any pool and inside a 4-worker `forkjoin::Pool`,
//! with the tree's shape invariant checked after every batch.
//!
//! Every assertion carries the active seed (via the `ctx` string) so a CI
//! failure replays directly instead of bisecting seed lists.

use std::collections::BTreeSet;

use pbist_repro::{
    baselines::SortedArraySet,
    batchapi::{Batch, BatchedMap, BatchedSet, MapView},
    forkjoin::Pool,
    pbist::IstSet,
    workloads::{self, OpKind},
};

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
