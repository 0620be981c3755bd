//! The durable tier: one [`DurableMap`] per shard, one directory per
//! shard, tier-wide recovery on open.
//!
//! Durability is each shard's own WAL + snapshot protocol (see the
//! [`durable`] crate docs).  Because every key maps to exactly one shard,
//! each shard's log is a complete history of its key range, so shards
//! recover independently and in any order.
//!
//! On disk a tier is a directory of shard directories, each named for its
//! index *and* the shard count, so the names record the count and no other
//! file does.  Reopening with a router that partitions a different number
//! of ways is refused, because it would create other names: records would
//! route to different shards than the ones whose logs hold them, silently
//! splitting the history.  (Resharding would need an explicit migration —
//! out of scope here.)  A tier whose first open crashed part-way holds only
//! some of its shard directories; their names still record the count.
//!
//! ```text
//! tier-dir/
//!   shard-0000-of-0003/   a durable::DurableMap directory (WAL + snapshots)
//!   shard-0001-of-0003/
//!   shard-0002-of-0003/
//! ```

use std::io;
use std::path::Path;

use batchapi::{Batch, BatchedMap, KeyCodec, KvBatch};
use combine::ConcurrentMap;
use durable::{DurableMap, DurableOptions, DurableSet, Wal};
use forkjoin::Pool;
use obs::Snapshot;

use crate::{Shard, ShardRouter, Tier};

/// The durable sharded set: [`DurableSet`] shards.
pub type DurableTier<K, S, R> = Tier<DurableSet<K, S>, R>;

impl<K, V, S> Shard for DurableMap<K, V, S>
where
    K: Ord + Clone + Send + Sync + KeyCodec + 'static,
    V: Clone + Send + Sync + KeyCodec + 'static,
    S: BatchedMap<K, V> + Clone + Send + Sync,
{
    type Key = K;
    type Val = V;
    type Backend = S;
    type Sink = Wal;
    type Error = io::Error;

    fn front(&self) -> &ConcurrentMap<K, V, S, Wal> {
        self.inner()
    }

    /// The store's `durable.*` registry.
    fn metrics(&self) -> Snapshot {
        DurableMap::metrics(self)
    }

    fn in_shard(err: io::Error, index: usize) -> io::Error {
        io::Error::new(err.kind(), format!("shard {index}: {err}"))
    }
}

/// The directory of shard `index` in a tier of `num_shards`.
fn shard_dir(index: usize, num_shards: usize) -> String {
    format!("shard-{index:04}-of-{num_shards:04}")
}

impl<K, V, S, R> Tier<DurableMap<K, V, S>, R>
where
    K: Ord + Clone + Send + Sync + KeyCodec + 'static,
    V: Clone + Send + Sync + KeyCodec + 'static,
    S: BatchedMap<K, V> + Clone + Send + Sync,
    R: ShardRouter<K>,
{
    /// Opens (creating if absent) the tier rooted at `dir`, recovering
    /// every shard: `shard-<i>-of-<n>/` is opened as a [`DurableMap`] with
    /// `options`, a pool built by `make_pool(i)` (pools are per shard —
    /// a shard's combiner must never block on another shard's workers),
    /// and a backend built by `make_backend` (called once per shard with
    /// the contents of that shard's snapshot, on that shard's pool, which
    /// then replays the shard's log tail through the backend).
    ///
    /// # Errors
    ///
    /// Any shard's recovery error propagates; additionally `InvalidData`,
    /// before anything is created, when `dir` holds a `shard-*` entry this
    /// router would not create — a tier created with a different shard
    /// count.
    pub fn open<P, MP, F>(
        dir: P,
        router: R,
        options: DurableOptions,
        mut make_pool: MP,
        mut make_backend: F,
    ) -> io::Result<Self>
    where
        P: AsRef<Path>,
        MP: FnMut(usize) -> Pool,
        F: FnMut(KvBatch<K, V>) -> S + Send,
    {
        let dir = dir.as_ref();
        let n = router.num_shards();
        std::fs::create_dir_all(dir)?;
        for entry in std::fs::read_dir(dir)? {
            let name = entry?.file_name().to_string_lossy().into_owned();
            if name.starts_with("shard-") && !(0..n).any(|i| name == shard_dir(i, n)) {
                // `shard-0000-of-0002` records 2 shards; any other name, none.
                let recorded = name
                    .rsplit_once("-of-")
                    .and_then(|(_, r)| r.parse::<usize>().ok());
                let created = recorded.map_or("another layout".into(), |r| format!("{r} shards"));
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "tier at {} was created with {created} ({name}), but the router \
                         partitions {n} ways; resharding needs an explicit migration",
                        dir.display()
                    ),
                ));
            }
        }
        let shards = (0..n)
            .map(|i| {
                DurableMap::open(
                    dir.join(shard_dir(i, n)),
                    make_pool(i),
                    options.clone(),
                    &mut make_backend,
                )
            })
            .collect::<io::Result<Vec<_>>>()?;
        // The shard directories' names are directory entries of the tier:
        // without this a crash could keep their contents and lose them.
        #[cfg(unix)]
        std::fs::File::open(dir)?.sync_all()?;
        Ok(Tier::from_shards(router, shards))
    }

    /// Upserts `key → val` on its owning shard; `Ok(true)` iff newly
    /// inserted.  Durability timing is the shard's group-commit contract
    /// ([`DurableMap::upsert`]).
    pub fn upsert(&self, key: K, val: V) -> io::Result<bool> {
        self.shard_of(&key).upsert(key, val)
    }

    /// Removes `key` from its owning shard; `Ok(true)` iff it was present.
    pub fn remove(&self, key: &K) -> io::Result<bool> {
        self.shard_of(key).remove(key)
    }

    /// Membership test on the owning shard (fails on a wedged shard).
    pub fn contains(&self, key: &K) -> io::Result<bool> {
        self.shard_of(key).contains(key)
    }

    /// The value under `key`, read like [`Tier::contains`].
    pub fn get(&self, key: &K) -> io::Result<Option<V>> {
        self.shard_of(key).get(key)
    }

    /// Upserts every pair of `batch`, one durable batch per touched shard;
    /// `result[i]` is `true` iff `batch[i]` was newly inserted.  Each
    /// sub-batch is a durability point; on an error see the
    /// [crate docs](crate#failures) for which shards committed.
    pub fn batch_insert(&self, batch: &KvBatch<K, V>) -> io::Result<Vec<bool>>
    where
        S: 'static,
    {
        self.run_batch(batch, false, DurableMap::batch_insert)
    }

    /// Batched remove; see [`Tier::batch_insert`].
    pub fn batch_remove(&self, batch: &Batch<K>) -> io::Result<Vec<bool>>
    where
        S: 'static,
    {
        self.run_batch(batch, false, DurableMap::batch_remove)
    }

    /// Batched membership (fails on a wedged shard).
    pub fn batch_contains(&self, batch: &Batch<K>) -> io::Result<Vec<bool>> {
        self.run_batch(batch, true, DurableMap::batch_contains)
    }

    /// Batched value lookup (fails on a wedged shard).
    pub fn batch_get(&self, batch: &Batch<K>) -> io::Result<Vec<Option<V>>> {
        self.run_batch(batch, true, DurableMap::batch_get)
    }

    /// Forces every shard's log onto disk; returns the per-shard durable
    /// high-water marks, index-aligned with the router's numbering.
    pub fn sync_all(&self) -> io::Result<Vec<u64>> {
        self.shards.iter().map(DurableMap::sync).collect()
    }

    /// Snapshots every shard (truncating its log); returns the per-shard
    /// snapshot seqs.  N independent per-shard checkpoints, not an
    /// atomic tier-wide one.
    pub fn snapshot_all(&self) -> io::Result<Vec<u64>> {
        self.shards.iter().map(DurableMap::snapshot).collect()
    }

    /// Fsyncs every shard, then closes; first error wins (the
    /// remaining shards still run their best-effort `Drop` sync).
    pub fn close(self) -> io::Result<()> {
        self.shards.into_iter().try_for_each(DurableMap::close)
    }
}

impl<K, S, R> DurableTier<K, S, R>
where
    K: Ord + Clone + Send + Sync + KeyCodec + 'static,
    S: BatchedMap<K, ()> + Clone + Send + Sync,
    R: ShardRouter<K>,
{
    /// Inserts `key`; `Ok(true)` iff newly inserted — the set spelling of
    /// [`Tier::upsert`].
    pub fn insert(&self, key: K) -> io::Result<bool> {
        self.upsert(key, ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RangeRouter;
    use pbist::{IstMap, IstSet};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_ID: AtomicU64 = AtomicU64::new(0);

    fn scratch_dir(tag: &str) -> PathBuf {
        let id = DIR_ID.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "durable-tier-test-{}-{tag}-{id}",
            std::process::id()
        ))
    }

    type SetTier = DurableTier<u64, IstSet<u64>, RangeRouter<u64>>;

    fn try_open(dir: &Path, num_shards: usize, options: DurableOptions) -> io::Result<SetTier> {
        DurableTier::open(
            dir,
            RangeRouter::new(num_shards, 0, 10_000),
            options,
            |_| Pool::new(1).unwrap(),
            |batch| IstSet::from_batch(&batch),
        )
    }

    fn open(dir: &Path, num_shards: usize, options: DurableOptions) -> SetTier {
        try_open(dir, num_shards, options).unwrap()
    }

    #[test]
    fn tier_routes_persists_and_recovers() {
        let dir = scratch_dir("basic");
        let tier = open(&dir, 4, DurableOptions::default());
        assert!(tier.is_empty());
        let batch = Batch::from_unsorted(vec![1u64, 2_600, 5_100, 7_600, 9_999]);
        assert_eq!(tier.batch_insert(&batch).unwrap(), vec![true; 5]);
        assert!(tier.insert(42).unwrap());
        assert!(tier.remove(&2_600).unwrap());
        assert_eq!(tier.len(), 5);
        // Every shard directory exists and is a durable set root.
        for i in 0..4 {
            assert!(dir.join(format!("shard-{i:04}-of-0004")).is_dir());
        }
        tier.close().unwrap();

        let tier = open(&dir, 4, DurableOptions::default());
        assert_eq!(tier.len(), 5);
        assert_eq!(
            tier.batch_contains(&batch).unwrap(),
            vec![true, false, true, true, true]
        );
        assert!(tier.contains(&42).unwrap());
        tier.close().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shard_count_change_is_refused() {
        let dir = scratch_dir("reshard");
        let tier = open(&dir, 2, DurableOptions::default());
        tier.insert(5).unwrap();
        tier.close().unwrap();

        let err = try_open(&dir, 3, DurableOptions::default())
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("2 shards"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A first open that crashed after creating one shard directory leaves
    /// a partly created tier: the name it left still records the count, so
    /// only that count reopens it, and a refused open creates nothing.
    #[test]
    fn a_partly_created_tier_reopens_only_at_its_count() {
        let dir = scratch_dir("partial");
        std::fs::create_dir_all(dir.join("shard-0000-of-0002")).unwrap();
        let listing = || {
            let mut names: Vec<String> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect();
            names.sort();
            names
        };
        for num_shards in [1, 3] {
            let err = try_open(&dir, num_shards, DurableOptions::default())
                .map(|_| ())
                .unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("2 shards"), "{err}");
            assert_eq!(
                listing(),
                ["shard-0000-of-0002"],
                "a refused open made a shard"
            );
        }
        let tier = open(&dir, 2, DurableOptions::default());
        tier.insert(5).unwrap();
        tier.insert(9_000).unwrap();
        tier.close().unwrap();
        assert_eq!(listing(), ["shard-0000-of-0002", "shard-0001-of-0002"]);
        let tier = open(&dir, 2, DurableOptions::default());
        assert!(tier.contains(&5).unwrap() && tier.contains(&9_000).unwrap());
        tier.close().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sync_all_and_snapshot_all_cover_every_shard() {
        let dir = scratch_dir("syncall");
        let tier = open(
            &dir,
            3,
            DurableOptions {
                group_commit: 1_000, // nothing durable until sync_all
                ..DurableOptions::default()
            },
        );
        for k in (0..9_000u64).step_by(100) {
            tier.insert(k).unwrap();
        }
        let durable = tier.sync_all().unwrap();
        assert_eq!(durable.len(), 3);
        for (shard, &mark) in durable.iter().enumerate() {
            assert_eq!(tier.shard(shard).durable_seq(), mark, "shard {shard}");
        }
        assert!(durable.iter().all(|&d| d > 0), "{durable:?}");

        let snaps = tier.snapshot_all().unwrap();
        assert_eq!(snaps.len(), 3);
        for (i, snap) in tier.shard_metrics().iter().enumerate() {
            assert_eq!(
                snap.counter("durable.snapshots"),
                Some(1),
                "shard {i} must have snapshotted"
            );
        }
        tier.close().unwrap();

        // Snapshot-only recovery (logs were truncated).
        let tier = open(&dir, 3, DurableOptions::default());
        assert_eq!(tier.len(), 90);
        tier.close().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A batch that fails on one shard names that shard and keeps the
    /// error's kind; the shard below it committed, durably.
    #[test]
    fn a_mid_batch_error_names_its_shard() {
        let dir = scratch_dir("wedge");
        let tier = open(&dir, 2, DurableOptions::default());
        std::fs::remove_dir_all(dir.join("shard-0001-of-0002")).unwrap();
        assert!(
            tier.shard(1).snapshot().is_err(),
            "shard 1 lost its directory"
        );
        let batch = Batch::from_unsorted(vec![1u64, 2, 9_000]);
        let err = tier.batch_insert(&batch).unwrap_err();
        assert!(err.to_string().starts_with("shard 1: "), "{err}");
        assert!(err.to_string().contains("wedged"), "{err}");
        assert_eq!(err.kind(), io::ErrorKind::Other);
        // Shard 1 ran its sub-batch in memory before its log failed: point
        // reads refuse, while `len` and the ordered queries serve 9 000.
        let refused = tier.contains(&9_000).unwrap_err();
        assert!(refused.to_string().contains("wedged"), "{refused}");
        assert_eq!(tier.len(), 3);
        use std::ops::Bound::Unbounded;
        assert_eq!(tier.range_keys(Unbounded, Unbounded), vec![1, 2, 9_000]);
        assert_eq!(tier.kth(2), Some(9_000));
        // Shard 0 closes cleanly before the wedged shard 1 reports.
        assert!(tier.close().is_err());

        let tier = open(&dir, 2, DurableOptions::default());
        assert_eq!(
            tier.batch_contains(&batch).unwrap(),
            vec![true, true, false]
        );
        tier.close().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A batched read runs its shards side by side, so with two wedged
    /// shards both may fail; the lowest one is named, its kind kept, as a
    /// write would name it.
    #[test]
    fn a_read_over_two_wedged_shards_names_the_lowest() {
        let dir = scratch_dir("wedge2");
        let tier = open(&dir, 3, DurableOptions::default());
        // ≈ 1 666 keys a shard: every share past the first is offered.
        let batch = Batch::from_unsorted((0..10_000u64).step_by(2).collect());
        tier.batch_insert(&batch).unwrap();
        for shard in [1, 2] {
            std::fs::remove_dir_all(dir.join(format!("shard-{shard:04}-of-0003"))).unwrap();
            assert!(
                tier.shard(shard).snapshot().is_err(),
                "shard {shard} wedged"
            );
        }
        let errs = [
            tier.batch_contains(&batch).map(|_| ()).unwrap_err(),
            tier.batch_get(&batch).map(|_| ()).unwrap_err(),
            tier.batch_insert(&batch).map(|_| ()).unwrap_err(),
        ];
        for err in errs {
            assert!(err.to_string().starts_with("shard 1: "), "{err}");
            assert!(err.to_string().contains("wedged"), "{err}");
            assert_eq!(err.kind(), io::ErrorKind::Other);
        }
        let low = Batch::from_unsorted((0..3_000u64).collect());
        assert_eq!(tier.batch_contains(&low).unwrap().len(), 3_000);
        assert!(tier.close().is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A map tier: values survive close and reopen exactly, and the ordered
    /// queries read across shards.
    #[test]
    fn a_map_tier_recovers_its_values_exactly() {
        type MapTier = Tier<DurableMap<u64, u64, IstMap<u64, u64>>, RangeRouter<u64>>;
        let dir = scratch_dir("map");
        let open_map = || -> MapTier {
            Tier::open(
                &dir,
                RangeRouter::new(3, 0, 10_000),
                DurableOptions::default(),
                |_| Pool::new(1).unwrap(),
                |batch| IstMap::from_batch(&batch),
            )
            .unwrap()
        };
        let tier = open_map();
        let pairs: Vec<(u64, u64)> = (0..60u64).map(|i| (i * 163, i)).collect();
        let batch = KvBatch::from_unsorted_entries(pairs.clone());
        assert_eq!(tier.batch_insert(&batch).unwrap(), vec![true; 60]);
        assert!(!tier.upsert(163, 1_000).unwrap(), "an upsert overwrites");
        assert!(tier.remove(&0).unwrap());
        tier.close().unwrap();

        let tier = open_map();
        let mut want: Vec<(u64, u64)> = pairs[1..].to_vec();
        want[0].1 = 1_000;
        let keys = Batch::from_unsorted(want.iter().map(|&(k, _)| k).collect());
        let vals: Vec<Option<u64>> = want.iter().map(|&(_, v)| Some(v)).collect();
        assert_eq!(tier.batch_get(&keys).unwrap(), vals);
        assert_eq!(tier.get(&163).unwrap(), Some(1_000));
        assert_eq!(tier.get(&0).unwrap(), None);
        use std::ops::Bound::Unbounded;
        assert_eq!(tier.range_entries(Unbounded, Unbounded), want);
        assert_eq!(tier.kth_entry(1), Some(want[1]));
        tier.close().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
