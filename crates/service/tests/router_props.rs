//! Router property tests: splitting a batch across shards and stitching
//! the per-shard results must be observationally equivalent to running the
//! whole batch against a single unsharded backend.
//!
//! The reference is a plain [`baselines::SortedArraySet`] driven through
//! the [`batchapi::BatchedSet`] surface — sequential, so any divergence is
//! the router's fault, not a concurrency artefact.

use batchapi::{Batch, BatchedMap, MapView};
use combine::ConcurrentSet;
use forkjoin::Pool;
use service::{RangeRouter, ShardRouter, ShardedSet};
use workloads::{mixed_op_batches, OpKind};

/// Runs the same batched op script against the sharded tier and the
/// unsharded reference; every per-op result vector must match, and so must
/// the final contents.
fn assert_split_then_stitch_equivalence(
    router: RangeRouter<u64>,
    ops: &[(OpKind, Batch<u64>)],
    ctx: &str,
) {
    // The shards are `SortedArraySet`s, so the sharded and unsharded sides
    // run the very same backend code.
    let shards = (0..router.num_shards())
        .map(|_| {
            ConcurrentSet::new(
                baselines::SortedArraySet::from_unsorted(Vec::new()),
                Pool::new(1).expect("shard pool"),
            )
        })
        .collect();
    let sharded = ShardedSet::new(router, shards, Pool::new(2).expect("tier pool"));
    let mut reference = baselines::SortedArraySet::from_unsorted(Vec::new());

    for (step, (kind, batch)) in ops.iter().enumerate() {
        let (got, want) = match kind {
            OpKind::Contains => (
                sharded.batch_contains(batch),
                reference.batch_contains(batch),
            ),
            OpKind::Insert => (sharded.batch_insert(batch), reference.batch_insert(batch)),
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
    let mut union: Vec<u64> = sharded
        .into_shards()
        .into_iter()
        .flat_map(|shard| shard.into_inner().as_slice().to_vec())
        .collect();
    union.sort_unstable();
    assert_eq!(
        union,
        reference.as_slice().to_vec(),
        "{ctx}: union of shard contents != reference contents"
    );
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
    // 64-key batches run the shards inline on the caller, 512-key batches
    // (>= the tier's 256-key cut-off after dedup, spread over every shard)
    // run them in the tier pool.
    for shards in [1usize, 2, 3, 4, 8] {
        for batch_len in [64usize, 512] {
            assert_split_then_stitch_equivalence(
                RangeRouter::new(shards, 0, 10_000),
                &mixed_script(0xA11CE ^ shards as u64, 40, batch_len, 10_000),
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
    assert_split_then_stitch_equivalence(
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
    assert_split_then_stitch_equivalence(
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
    assert_split_then_stitch_equivalence(
        RangeRouter::new(4, 100u64, 9_000),
        &ops,
        "range router, out-of-range keys",
    );
}
