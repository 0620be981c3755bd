//! End-to-end equivalence across the workspace layers: workload generators
//! produce keys and operation batches, the `pbist` tree and the `baselines`
//! sorted array ingest the same keys through the shared
//! [`batchapi::BatchedSet`] trait, and both must answer identically —
//! sequentially and under a multi-worker pool.

use batchapi::{Batch, BatchedMap, MapView};

#[test]
fn tree_and_sorted_array_agree_on_generated_workload() {
    let keys = workloads::uniform_keys_distinct(0xA5EE, 20_000, 0..1_000_000);
    let queries = Batch::from_unsorted(workloads::uniform_keys(0xBEEF, 30_000, 0..1_000_000));

    let array = baselines::SortedArraySet::from_unsorted(keys.clone());
    let tree = pbist::IstSet::from_unsorted(keys);
    assert_eq!(array.len(), tree.len());
    assert_eq!(array.min(), tree.min());
    assert_eq!(array.max(), tree.max());

    let sequential: Vec<bool> = queries.iter().map(|q| array.contains(q)).collect();
    assert_eq!(array.batch_contains(&queries), sequential);
    assert_eq!(tree.batch_contains(&queries), sequential);

    let pool = forkjoin::Pool::new(4).unwrap();
    let (from_array, from_tree) = pool.install(|| {
        (
            array.batch_contains(&queries),
            tree.batch_contains(&queries),
        )
    });
    assert_eq!(from_array, sequential);
    assert_eq!(from_tree, sequential);
}

#[test]
fn tree_and_sorted_array_agree_under_batched_updates() {
    let keys = workloads::uniform_keys_distinct(0xCAFE, 10_000, 0..500_000);
    let mut array = baselines::SortedArraySet::from_unsorted(keys.clone());
    let mut tree = pbist::IstSet::from_unsorted(keys);

    let ops = workloads::mixed_op_batches(0xD00D, 12, 4_000, 0..500_000, (2, 2, 1));
    for op in &ops {
        let batch = Batch::from_unsorted(op.keys.clone());
        let (from_array, from_tree) = match op.kind {
            workloads::OpKind::Insert => (array.batch_insert(&batch), tree.batch_insert(&batch)),
            workloads::OpKind::Remove => (array.batch_remove(&batch), tree.batch_remove(&batch)),
            workloads::OpKind::Contains => {
                (array.batch_contains(&batch), tree.batch_contains(&batch))
            }
        };
        assert_eq!(from_array, from_tree, "{:?} batch diverged", op.kind);
        assert_eq!(array.len(), tree.len());
        tree.check_invariants().unwrap();
    }
}

#[test]
fn zipf_queries_hit_the_hot_keys() {
    let keys = workloads::uniform_keys_distinct(1, 1000, 0..1_000_000);
    let tree = pbist::IstSet::from_unsorted(keys.clone());
    let mut zipf = workloads::ZipfSampler::new(2, keys.len(), 0.99);
    let queries: Vec<u64> = zipf.take(5000).into_iter().map(|rank| keys[rank]).collect();
    // Every Zipf-selected query is a real key, so all lookups must hit.
    let hits = tree.batch_contains(&Batch::from_unsorted(queries));
    assert!(hits.iter().all(|&h| h));
}
