//! The durable tier: one [`DurableMap`] per shard, one directory per
//! shard, tier-wide recovery on open.
//!
//! Durability is each shard's own WAL + snapshot protocol (see the
//! [`durable`] crate docs).  Because every key maps to exactly one shard,
//! each shard's log is a complete history of its key range, so shards
//! recover independently and in any order.
//!
//! On disk a tier is a directory of shard directories plus a small `TIER`
//! file recording the shard count.  Reopening with a router that
//! partitions a different number of ways is refused: records would route
//! to different shards than the ones whose logs hold them, silently
//! splitting the history.  (Resharding would need an explicit migration —
//! out of scope here.)
//!
//! ```text
//! tier-dir/
//!   TIER            shard-count manifest
//!   shard-0000/     a durable::DurableMap directory (WAL + snapshots)
//!   shard-0001/
//!   ...
//! ```

use std::io::{self, Write};
use std::path::Path;

use batchapi::{Batch, BatchedMap, KeyCodec, KvBatch};
use combine::ConcurrentMap;
use durable::{DurableMap, DurableOptions, DurableSet, Wal};
use forkjoin::Pool;
use obs::Snapshot;

use crate::{Shard, ShardRouter, Tier};

/// First line of the `TIER` manifest file.
const TIER_MAGIC: &str = "pbtier-v1";

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

/// Reads or creates the `TIER` manifest, enforcing a stable shard count.
///
/// A missing manifest beside existing `shard-*` directories is what a crash
/// right after the first open can leave (or an operator's `rm`): the shard
/// directories are then the record of the count, and only a router that
/// partitions that many ways may recreate the manifest.
fn check_tier_manifest(dir: &Path, num_shards: usize) -> io::Result<()> {
    let path = dir.join("TIER");
    let refuse = |why: String| Err(io::Error::new(io::ErrorKind::InvalidData, why));
    let migrate =
        format!("the router partitions {num_shards} ways; resharding needs an explicit migration");
    match std::fs::read_to_string(&path) {
        Ok(text) => {
            let mut lines = text.lines();
            if lines.next() != Some(TIER_MAGIC) {
                return refuse(format!("{} is not a tier manifest", path.display()));
            }
            match lines
                .next()
                .and_then(|count| count.trim().parse::<usize>().ok())
            {
                None => refuse(format!("{} has no shard count", path.display())),
                Some(recorded) if recorded != num_shards => refuse(format!(
                    "tier at {} was created with {recorded} shards but {migrate}",
                    dir.display()
                )),
                Some(_) => Ok(()),
            }
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            let mut existing = 0;
            for entry in std::fs::read_dir(dir)? {
                existing += entry?.file_name().to_string_lossy().starts_with("shard-") as usize;
            }
            if existing != 0 && existing != num_shards {
                return refuse(format!(
                    "tier at {} has no manifest but {existing} shard directories, and {migrate}",
                    dir.display()
                ));
            }
            let mut file = std::fs::File::create(&path)?;
            write!(file, "{TIER_MAGIC}\n{num_shards}\n")?;
            file.sync_all()?;
            // The file's *name* is a directory entry: without this the
            // fsynced manifest can be lost to a crash while the shard
            // directories created after it survive.
            #[cfg(unix)]
            std::fs::File::open(dir)?.sync_all()?;
            Ok(())
        }
        Err(e) => Err(e),
    }
}

impl<K, V, S, R> Tier<DurableMap<K, V, S>, R>
where
    K: Ord + Clone + Send + Sync + KeyCodec + 'static,
    V: Clone + Send + Sync + KeyCodec + 'static,
    S: BatchedMap<K, V> + Clone + Send + Sync,
    R: ShardRouter<K>,
{
    /// Opens (creating if absent) the tier rooted at `dir`, recovering
    /// every shard: `shard-<i>/` is opened as a [`DurableMap`] with
    /// `options`, a pool built by `make_pool(i)` (pools are per shard —
    /// a shard's combiner must never block on another shard's workers),
    /// and a backend built by `make_backend` (called once per shard with
    /// that shard's recovered contents).
    ///
    /// # Errors
    ///
    /// Any shard's recovery error propagates; additionally `InvalidData`
    /// when `dir` holds a tier created with a different shard count.
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
        F: FnMut(KvBatch<K, V>) -> S,
    {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        check_tier_manifest(dir, router.num_shards())?;
        let shards = (0..router.num_shards())
            .map(|i| {
                DurableMap::open(
                    dir.join(format!("shard-{i:04}")),
                    make_pool(i),
                    options.clone(),
                    &mut make_backend,
                )
            })
            .collect::<io::Result<Vec<_>>>()?;
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
    pub fn batch_insert(&self, batch: &KvBatch<K, V>) -> io::Result<Vec<bool>> {
        self.run_batch(batch, DurableMap::batch_insert)
    }

    /// Batched remove; see [`Tier::batch_insert`].
    pub fn batch_remove(&self, batch: &Batch<K>) -> io::Result<Vec<bool>> {
        self.run_batch(batch, DurableMap::batch_remove)
    }

    /// Batched membership (fails on a wedged shard).
    pub fn batch_contains(&self, batch: &Batch<K>) -> io::Result<Vec<bool>> {
        self.run_batch(batch, DurableMap::batch_contains)
    }

    /// Batched value lookup (fails on a wedged shard).
    pub fn batch_get(&self, batch: &Batch<K>) -> io::Result<Vec<Option<V>>> {
        self.run_batch(batch, DurableMap::batch_get)
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
            assert!(dir.join(format!("shard-{i:04}")).is_dir());
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

    /// A lost manifest (crash before its directory entry was durable) must
    /// not let a different shard count in: the shard directories vouch for
    /// the count, and only the matching router recreates `TIER`.
    #[test]
    fn a_lost_manifest_still_refuses_a_shard_count_change() {
        let dir = scratch_dir("lost-manifest");
        let tier = open(&dir, 2, DurableOptions::default());
        tier.insert(5).unwrap();
        tier.insert(9_000).unwrap();
        tier.close().unwrap();
        std::fs::remove_file(dir.join("TIER")).unwrap();

        let err = try_open(&dir, 3, DurableOptions::default())
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("2 shard directories"), "{err}");
        assert!(
            !dir.join("TIER").exists(),
            "a refused open wrote a manifest"
        );
        assert!(
            !dir.join("shard-0002").exists(),
            "a refused open made a shard"
        );

        let tier = open(&dir, 2, DurableOptions::default());
        assert!(tier.contains(&5).unwrap() && tier.contains(&9_000).unwrap());
        assert!(dir.join("TIER").exists(), "the matching open restores it");
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
        std::fs::remove_dir_all(dir.join("shard-0001")).unwrap();
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
