//! Router property tests: splitting a batch across shards and stitching
//! the per-shard results must be observationally equivalent to running the
//! whole batch against a single unsharded backend.
//!
//! The reference is a plain [`baselines::SortedArrayMap`] driven through
//! the [`batchapi::BatchedMap`] surface — sequential, so any divergence is
//! the router's fault, not a concurrency artefact.  Every script runs at
//! `V = ()` (the set) and at `V = u64`, where each insert carries every key
//! twice with different values (the later wins) and each lookup batch is
//! answered by `batch_get` as well as `batch_contains`.

use std::fmt::Debug;

use baselines::SortedArrayMap;
use batchapi::{Batch, BatchedMap, KvBatch, MapView};
use combine::ConcurrentMap;
use forkjoin::Pool;
use service::{RangeRouter, ShardRouter, Tier};
use workloads::{mixed_op_batches, OpKind};

/// The value types the scripts run at.
trait Val: Clone + PartialEq + Debug + Send + Sync + 'static {
    /// The value key `key` carries in arrival `arrival` of step `step`.
    fn of(key: u64, step: usize, arrival: usize) -> Self;
}

impl Val for () {
    fn of(_key: u64, _step: usize, _arrival: usize) {}
}

impl Val for u64 {
    fn of(key: u64, step: usize, arrival: usize) -> u64 {
        key ^ (step as u64) << 32 ^ (arrival as u64) << 48
    }
}

/// Runs the same batched op script against the sharded tier and the
/// unsharded reference; every per-op result vector must match, and so must
/// the final contents, values included.
fn assert_split_then_stitch_equivalence<V: Val>(
    router: RangeRouter<u64>,
    ops: &[(OpKind, Batch<u64>)],
    ctx: &str,
) {
    let ctx = format!("{ctx}, V = {}", std::any::type_name::<V>());
    let empty = || SortedArrayMap::<u64, V>::from_unsorted_entries(Vec::new());
    // The shards are `SortedArrayMap`s too, so the sharded and unsharded
    // sides run the very same backend code.
    let shards = (0..router.num_shards())
        .map(|_| ConcurrentMap::new(empty(), Pool::new(1).expect("shard pool")))
        .collect();
    let sharded = Tier::new(router, shards, Pool::new(1).expect("unused pool"));
    let mut reference = empty();

    for (step, (kind, batch)) in ops.iter().enumerate() {
        let (got, want) = match kind {
            OpKind::Contains => {
                assert_eq!(
                    sharded.batch_get(batch),
                    reference.batch_get(batch),
                    "{ctx}: step {step} batch_get diverged"
                );
                (
                    sharded.batch_contains(batch),
                    reference.batch_contains(batch),
                )
            }
            OpKind::Insert => {
                let pairs = batch
                    .iter()
                    .flat_map(|&k| (0..2).map(move |arrival| (k, V::of(k, step, arrival))));
                let pairs = KvBatch::from_unsorted_entries(pairs.collect());
                (sharded.batch_insert(&pairs), reference.batch_insert(&pairs))
            }
            OpKind::Remove => (sharded.batch_remove(batch), reference.batch_remove(batch)),
        };
        assert_eq!(
            got,
            want,
            "{ctx}: step {step} ({kind:?}, {} keys) diverged from the unsharded reference",
            batch.len()
        );
    }

    assert_eq!(
        sharded.len(),
        reference.len(),
        "{ctx}: final sizes diverged"
    );
    let mut union: Vec<(u64, V)> = sharded
        .into_shards()
        .into_iter()
        .flat_map(|shard| {
            let (keys, vals) = shard.into_inner().collect_entries();
            keys.into_iter().zip(vals)
        })
        .collect();
    union.sort_unstable_by_key(|&(key, _)| key);
    let (keys, vals) = reference.collect_entries();
    assert_eq!(
        union,
        keys.into_iter().zip(vals).collect::<Vec<_>>(),
        "{ctx}: union of shard contents != reference contents"
    );
}

/// The equivalence at both value types.
fn assert_equivalence_for_sets_and_maps(
    router: RangeRouter<u64>,
    ops: &[(OpKind, Batch<u64>)],
    ctx: &str,
) {
    assert_split_then_stitch_equivalence::<()>(router.clone(), ops, ctx);
    assert_split_then_stitch_equivalence::<u64>(router, ops, ctx);
}

fn mixed_script(
    seed: u64,
    batches: usize,
    batch_len: usize,
    range: u64,
) -> Vec<(OpKind, Batch<u64>)> {
    mixed_op_batches(seed, batches, batch_len, 0..range, (2, 2, 1))
        .into_iter()
        .map(|op| (op.kind, Batch::from_unsorted(op.keys)))
        .collect()
}

#[test]
fn range_router_matches_unsharded_reference() {
    // 64-key batches stay under every shard's pool cut-off; 4 096-key
    // batches put ≥ 512 keys on each shard at up to 4 shards, so those
    // sub-batches run in their shard's pool (20 of those suffice).
    for shards in [1usize, 2, 3, 4, 8] {
        for (batch_len, batches) in [(64usize, 40), (4_096, 20)] {
            assert_equivalence_for_sets_and_maps(
                RangeRouter::new(shards, 0, 10_000),
                &mixed_script(0xA11CE ^ shards as u64, batches, batch_len, 10_000),
                &format!("range router, {shards} shards, {batch_len}-key batches"),
            );
        }
    }
}

#[test]
fn batches_with_empty_sub_batches_round_trip() {
    // All keys land in shard 0's slice of [0, 10_000), so shards 1..4 get
    // empty sub-batches on every op.
    let narrow: Vec<Batch<u64>> = (0..8)
        .map(|i| Batch::from_unsorted((0..32).map(|j| i * 37 + j * 3).collect()))
        .collect();
    let mut ops = Vec::new();
    for (i, batch) in narrow.iter().enumerate() {
        let kind = match i % 3 {
            0 => OpKind::Insert,
            1 => OpKind::Contains,
            _ => OpKind::Remove,
        };
        ops.push((kind, batch.clone()));
    }
    assert_equivalence_for_sets_and_maps(
        RangeRouter::new(4, 0, 10_000),
        &ops,
        "range router, all keys in shard 0",
    );

    // And confirm the split itself really produced empty sub-batches.
    let router = RangeRouter::new(4, 0u64, 10_000);
    let split = router.split(&narrow[0]);
    assert!(split.sub_batches()[1..].iter().all(Batch::is_empty));
    assert_eq!(split.sub_batches()[0].len(), narrow[0].len());
}

#[test]
fn boundary_keys_on_shard_edges_route_consistently() {
    // Keys sitting exactly on the shard-boundary ordinals of a 4-way
    // split of [0, 100]: 25, 50, 75 — plus both range endpoints and their
    // neighbours.  Consistency (same shard for point and batched paths)
    // is what matters, not which side of the edge each key falls on.
    let router = RangeRouter::new(4, 0u64, 100);
    let edges = Batch::from_unsorted(vec![0u64, 24, 25, 26, 49, 50, 51, 74, 75, 76, 99, 100]);

    let split = router.split(&edges);
    let routed: usize = split.sub_batches().iter().map(|sub| sub.len()).sum();
    assert_eq!(routed, edges.len());
    for (shard, sub) in split.sub_batches().iter().enumerate() {
        for key in sub.as_slice() {
            assert_eq!(
                router.shard_of(key),
                shard,
                "key {key} carved into sub-batch {shard} but routed elsewhere"
            );
        }
    }

    let ops = vec![
        (OpKind::Insert, edges.clone()),
        (OpKind::Contains, edges.clone()),
        (OpKind::Remove, edges.clone()),
        (OpKind::Insert, edges),
    ];
    assert_equivalence_for_sets_and_maps(
        RangeRouter::new(4, 0u64, 100),
        &ops,
        "range router, boundary keys",
    );
}

#[test]
fn out_of_range_keys_still_route_and_match() {
    // RangeRouter clamps keys outside [min, max] into the edge shards;
    // results must still match the unsharded reference.
    let wild = Batch::from_unsorted(vec![0u64, 5, 9_999, 50_000, u64::MAX]);
    let ops = vec![
        (OpKind::Insert, wild.clone()),
        (OpKind::Contains, wild.clone()),
        (OpKind::Remove, wild),
    ];
    assert_equivalence_for_sets_and_maps(
        RangeRouter::new(4, 100u64, 9_000),
        &ops,
        "range router, out-of-range keys",
    );
}

/// The carve moves values with their keys: a split map batch stitches back
/// into the batch's own pairs.
#[test]
fn a_map_batch_splits_with_its_values() {
    let router = RangeRouter::new(3, 0u64, 90);
    let batch = KvBatch::from_unsorted_entries((0..=90u64).map(|k| (k, k * 10)).collect());
    let split = router.split(&batch);
    let per_shard: Vec<Vec<u64>> = split
        .sub_batches()
        .iter()
        .map(|sub| {
            assert!(
                sub.entries().all(|(&k, &v)| v == k * 10),
                "a value left its key"
            );
            sub.vals().to_vec()
        })
        .collect();
    let mut stitched = Vec::new();
    split.stitch(&per_shard, &mut stitched);
    assert_eq!(stitched, batch.vals());
}
