//! Durability tier: a write-ahead log, snapshots and crash recovery
//! layered over the flat-combining front-end's commit log.
//!
//! The flat-combining combiner already produces exactly the artefact a
//! write-ahead log needs: a totally-ordered stream of committed rounds,
//! each stamped with a gap-free sequence number.  So the log *is* the
//! front-end's commit sink: [`DurableMap`] (and [`DurableSet`], its `V = ()`
//! alias) builds its [`combine::ConcurrentMap`] over a [`Wal`], and the
//! combiner that commits a round appends one checksummed record per
//! *mutation* round to an append-only segment log, amortising `fsync` over
//! groups of rounds the same way combining amortises the flag hand-off over
//! groups of ops.
//!
//! # The protocol
//!
//! * **Append under the flag.**  A round's commit hands its ops to the
//!   [`Wal`] ([`combine::CommitSink`]) while the combiner still holds the
//!   combiner flag — after the round's snapshot is published, before any of
//!   its clients is acknowledged.  The sink strips ops whose replay could
//!   not change state (see *What is logged*), encodes the rest straight
//!   from the round's borrowed keys and values into one reused buffer, and
//!   appends it (a `write`).  The flag makes append order equal commit
//!   order, so the log *is* the linearisation, with no lock of its own, and
//!   every round — a write issued through [`DurableMap::inner`] too — is in
//!   the log when its call returns.
//! * **Group commit.**  Records accumulate until
//!   [`DurableOptions::group_commit`] of them form a full group; the append
//!   that completes a group fsyncs the active segment, still under the
//!   flag, and only then advances [`DurableMap::durable_seq`] to its seq, so
//!   state at or below it survives any crash.  `group_commit: 1` makes
//!   every mutation round a group — each op is durable before its call
//!   returns; larger groups trade bounded post-crash loss for an order of
//!   magnitude fewer fsyncs.  [`DurableMap::sync`] forces the boundary.
//!   A failed fsync wedges the store before the flag is released, and no
//!   round appends or fsyncs after it: Linux reports a writeback error to
//!   one fsync of a file only, so a retry could succeed for lost pages.
//!   (Handing the fsync to the returning writers, outside the flag, was
//!   measured: on the benchmark's two-client `point-write` it was not
//!   faster beyond run-to-run spread — see ROADMAP item 1.)
//! * **Read.**  Reads never touch the WAL: they are the front-end's
//!   wait-free snapshot reads and take no lock, so they never queue behind
//!   an append or an fsync.  They fail only on a wedged store (below).
//! * **Rotate.**  When the active segment reaches
//!   [`DurableOptions::segment_bytes`], the append that finds it full first
//!   fsyncs it, then starts the next segment.
//! * **Snapshot.**  Every [`DurableOptions::snapshot_every`] appended
//!   records (or on [`DurableMap::snapshot`]), the store's full contents are
//!   captured under the combiner flag
//!   ([`combine::ConcurrentMap::hold_sink`], then
//!   [`combine::ConcurrentMap::snapshot_entries`]), written to a snapshot
//!   file, and committed by atomically renaming a manifest into place.
//!   Under the flag the published snapshot's seq *is* the last round the
//!   log has seen, so it covers every record in every segment: *all*
//!   segments are deleted and the log restarts empty — bounded disk,
//!   bounded recovery.
//! * **Recover.**  [`DurableMap::open`] loads the manifest's snapshot (if
//!   any) and replays log records with seq above it, in segment-name
//!   order, into a fresh backend.  A torn final record — the signature of
//!   a crash mid-append — ends replay cleanly and is truncated away; the
//!   new combiner's numbering resumes from the recovered high-water seq
//!   ([`combine::Options::first_seq`]), so a later recovery replays the
//!   continued history without seq collisions.
//!
//! # Crash-consistency contract
//!
//! After `SIGKILL` at any point, reopening the directory yields a store
//! whose contents — keys *and* values — equal the committed history up to some round boundary
//! at or after the last fsynced record — never a torn state, never a
//! reordering, and always including every round at or below the
//! `durable_seq` the crashed process last observed.  The kill-9 test in
//! `tests/durable_crash.rs` and the property suite in
//! `crates/durable/tests/recovery_props.rs` enforce exactly this.
//!
//! What is *not* promised: rounds above `durable_seq` (acknowledged in
//! memory, not yet fsynced under `group_commit > 1`) may or may not
//! survive — whole trailing rounds, never fractions of one.
//!
//! # What is logged
//!
//! One rule: an op is logged iff replaying it could change state.  Reads
//! never enter a round, so the WAL never sees them; a remove is logged iff
//! it removed something; an insert is iff it was
//! newly inserted **or values have bytes** (`V::WIDTH != 0` — an upsert of
//! a present key may have changed its value, and replaying an unchanged
//! one is idempotent).  For a set the rule reads "failed mutations write no
//! records"; for a map, "every upsert is logged".  WAL sequence numbers
//! therefore skip rounds that logged nothing.
//!
//! # One on-disk dialect
//!
//! Sets and maps share one record codec, one segment replayer and one
//! snapshot format: an insert record carries `V::WIDTH` value bytes after
//! the key, which for `V = ()` is none at all.  Segment and snapshot
//! headers name the key and value widths they were written with, and
//! [`DurableMap::open`] refuses — `InvalidData`, directory untouched — a
//! directory written at other widths instead of "recovering" it as a torn
//! log.
//!
//! # Example
//!
//! ```
//! use durable::{DurableOptions, DurableSet};
//! use pbist::IstSet;
//! use forkjoin::Pool;
//!
//! let dir = std::env::temp_dir().join(format!("durable-doc-{}", std::process::id()));
//! let open = |pool| {
//!     DurableSet::open(&dir, pool, DurableOptions::default(), |batch| {
//!         IstSet::from_batch(&batch)
//!     })
//! };
//!
//! let set = open(Pool::new(2).unwrap()).unwrap();
//! assert!(set.insert(7).unwrap());
//! set.sync().unwrap();
//! set.close().unwrap();
//!
//! // A new process (here: a new handle) recovers the history.
//! let set = open(Pool::new(2).unwrap()).unwrap();
//! assert!(set.contains(&7).unwrap());
//! set.close().unwrap();
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![warn(missing_docs)]

mod log;
mod record;
mod snapshot;

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use batchapi::{Batch, BatchedMap, KeyCodec, KvBatch};
use combine::{CommitSink, CommittedOp, ConcurrentMap, OpKind, Options};
use forkjoin::Pool;
use obs::{Counter, Histogram, Registry};

use crate::log::{
    list_segments, replay_segment, segment_magic, truncate_segment, SegmentEnd, SegmentLog,
};
use crate::record::{encode_record, payload_len, WalOp, MAX_PAYLOAD};
use crate::snapshot::{
    commit_manifest, load_snapshot, read_manifest, remove_stale_snapshots, snapshot_path,
    write_snapshot,
};

/// Construction-time knobs for [`DurableMap`].
#[derive(Debug, Clone)]
pub struct DurableOptions {
    /// Mutation records per `fsync`: `1` makes every op durable before it
    /// returns; `n` lets up to `n` records ride one fsync (bounded loss on
    /// crash — see the crate docs' contract).  Values below 1 behave as 1.
    pub group_commit: u64,
    /// Appended records between automatic snapshots; `0` (the default)
    /// never snapshots automatically — [`DurableMap::snapshot`] still
    /// works on demand.
    pub snapshot_every: u64,
    /// Size threshold, in bytes, at which the active log segment rotates.
    pub segment_bytes: u64,
}

impl Default for DurableOptions {
    fn default() -> DurableOptions {
        DurableOptions {
            group_commit: 8,
            snapshot_every: 0,
            segment_bytes: 8 << 20,
        }
    }
}

/// A store's write-ahead log, as its front-end's [`CommitSink`]: the
/// combiner committing a round appends it here, under the combiner flag
/// (see the crate docs' protocol).  It has no API of its own — it is what
/// [`DurableMap::inner`]'s type names.
#[derive(Debug)]
pub struct Wal {
    log: SegmentLog,
    /// Highest segment name ever created; names must strictly increase so
    /// that segment-name order stays append order (see `next_name`).
    last_name: u64,
    /// Records appended since the last group was counted.
    pending: u64,
    /// Records appended since the last snapshot.
    since_snapshot: u64,
    /// The group and snapshot cadences (a `group_commit` of 0 acts as 1:
    /// `pending` is at least 1 when compared).
    options: DurableOptions,
    /// Encode scratch, reused across appends (see [`WAL_BUF_KEEP`]).
    buf: Vec<u8>,
    shared: Arc<Shared>,
}

/// What the log shares with the writers outside the combiner flag: the
/// snapshot they take, the wedge they report, and the metrics.
#[derive(Debug)]
struct Shared {
    /// Set once `snapshot_every` records have been appended since the last
    /// snapshot: the next returning writer takes one.
    snapshot_due: AtomicBool,
    /// What wedged the store, once an I/O error has.
    wedged: OnceLock<String>,
    metrics: Metrics,
}

impl Shared {
    /// Wedges the store on `err` (the first cause sticks) and returns it.
    fn wedge(&self, err: io::Error) -> io::Error {
        let _ = self.wedged.set(err.to_string());
        err
    }

    /// Refuses when an earlier I/O error wedged the store.
    fn check_wedged(&self) -> io::Result<()> {
        match self.wedged.get() {
            None => Ok(()),
            Some(cause) => Err(io::Error::other(format!(
                "durable store wedged by an earlier I/O error ({cause}); \
                 reopen the directory to recover"
            ))),
        }
    }
}

/// The WAL keeps its encode buffer from one append to the next only while
/// the buffer's capacity is at most this.  A whole-batch record may be as
/// large as `MAX_PAYLOAD`, and a buffer grown for one such batch would
/// otherwise stay allocated — per shard — for as long as the store is open.
/// 1 MiB clears every record the benchmark writes (73 KB for a `batch-large`
/// sub-batch, 295 KB for a prefill one), so no steady-state append
/// reallocates.
const WAL_BUF_KEEP: usize = 1 << 20;

impl<K: KeyCodec + 'static, V: KeyCodec + 'static> CommitSink<K, V> for Wal {
    fn commit<'a>(&mut self, seq: u64, ops: impl Iterator<Item = CommittedOp<'a, K, V>>) {
        // Keep only ops whose replay could change state (the crate docs'
        // logging rule): a failed remove replays to nothing, and so does a
        // failed insert unless it may have rewritten a value.  Sequence
        // gaps this leaves in the WAL are expected.
        let mut muts = ops
            .filter(|&(kind, .., result)| result || (kind == OpKind::Insert && V::WIDTH != 0))
            .map(|(kind, key, val, _)| match kind {
                OpKind::Insert => WalOp::Insert(key, val.expect("insert ops carry a value")),
                OpKind::Remove => WalOp::Remove(key),
            })
            .peekable();
        // Past an I/O error nothing more is appended or fsynced: the log's
        // tail is unknown (and a retried fsync could report success for
        // pages a failed one lost), and the writers report the wedge.
        if muts.peek().is_none() || self.shared.wedged.get().is_some() {
            return;
        }
        self.buf.clear();
        encode_record(seq, muts, &mut self.buf);
        if let Err(err) = self.append(seq) {
            self.shared.wedge(err);
        }
    }
}

impl Wal {
    /// Appends round `seq`'s record, encoded in `buf`, rotating first when
    /// the active segment is full, and counts it into its group, fsyncing
    /// the group once it is full.
    fn append(&mut self, seq: u64) -> io::Result<()> {
        if self.log.wants_rotation() {
            self.rotate(self.next_name())?;
        }
        let appended = self.log.append(&self.buf);
        let metrics = &self.shared.metrics;
        metrics.bytes_written.add(self.buf.len() as u64);
        if self.buf.capacity() > WAL_BUF_KEEP {
            self.buf = Vec::new();
        }
        appended?;
        metrics.records_appended.inc();
        metrics.appended_seq.set_max(seq);
        self.since_snapshot += 1;
        if self.options.snapshot_every > 0 && self.since_snapshot >= self.options.snapshot_every {
            self.shared.snapshot_due.store(true, Ordering::Relaxed);
        }
        self.pending += 1;
        if self.pending >= self.options.group_commit {
            self.seal()?;
        }
        Ok(())
    }

    /// The name for the next segment: past the last appended record *and*
    /// past every name already used (open and snapshot name the active
    /// segment past the recovered or snapshotted seq, which can be above
    /// the last record, so `appended_seq` alone could repeat a name and
    /// truncate a live segment).
    fn next_name(&self) -> u64 {
        (self.shared.metrics.appended_seq.get() + 1).max(self.last_name + 1)
    }

    /// Seals the active segment and starts segment `name`.
    fn rotate(&mut self, name: u64) -> io::Result<()> {
        self.seal()?;
        self.log.rotate(name)?;
        self.last_name = name;
        self.shared.metrics.segments_created.inc();
        Ok(())
    }

    /// Fsyncs every appended record not yet durable and counts the group
    /// they form, then advances the durable mark past them.  Runs under the
    /// combiner flag: when an append fills a group, before a rotation, and
    /// for `sync`, a snapshot and `close`.
    fn seal(&mut self) -> io::Result<()> {
        let metrics = &self.shared.metrics;
        if self.pending > 0 {
            metrics.group_size.record(self.pending);
            self.pending = 0;
        }
        let appended = metrics.appended_seq.get();
        if appended > metrics.durable_seq.get() {
            self.log.sync()?;
            metrics.fsyncs.inc();
            metrics.durable_seq.set_max(appended);
        }
        Ok(())
    }
}

/// Handles to the `durable.*` metrics, resolved once at construction.
#[derive(Debug)]
struct Metrics {
    records_appended: Arc<Counter>,
    bytes_written: Arc<Counter>,
    fsyncs: Arc<Counter>,
    snapshots: Arc<Counter>,
    segments_created: Arc<Counter>,
    segments_deleted: Arc<Counter>,
    torn_tails: Arc<Counter>,
    group_size: Arc<Histogram>,
    recovery_replayed: Arc<Histogram>,
    /// The three marks are counters moved by [`Counter::set_max`], under
    /// the combiner flag.
    appended_seq: Arc<Counter>,
    durable_seq: Arc<Counter>,
    snapshot_seq: Arc<Counter>,
}

impl Metrics {
    fn new(registry: &Registry) -> Metrics {
        Metrics {
            records_appended: registry.counter("durable.records_appended"),
            bytes_written: registry.counter("durable.bytes_written"),
            fsyncs: registry.counter("durable.fsyncs"),
            snapshots: registry.counter("durable.snapshots"),
            segments_created: registry.counter("durable.segments_created"),
            segments_deleted: registry.counter("durable.segments_deleted"),
            torn_tails: registry.counter("durable.torn_tails"),
            group_size: registry.histogram("durable.group_size"),
            recovery_replayed: registry.histogram("durable.recovery_replayed"),
            appended_seq: registry.counter("durable.appended_seq"),
            durable_seq: registry.counter("durable.durable_seq"),
            snapshot_seq: registry.counter("durable.snapshot_seq"),
        }
    }
}

/// A durable concurrent key→value store: a [`combine::ConcurrentMap`] whose
/// committed rounds are appended to an on-disk write-ahead log,
/// checkpointed by snapshots, and recovered by [`DurableMap::open`].  See
/// the crate docs for the protocol and the crash-consistency contract.
///
/// Operations return `io::Result`: a write's round is appended at commit
/// (possibly by another client's combiner) and fsynced there if it
/// completes a group, and the write may then take a snapshot; any of these
/// can fail.  After an error the instance is *wedged* — later calls, reads
/// included, fail fast — and reopening the directory recovers everything
/// durable up to that point.
/// Reads never touch the WAL; they fail only on a wedged store.
pub struct DurableMap<K, V, S> {
    inner: ConcurrentMap<K, V, S, Wal>,
    /// The log's state outside the flag, shared with the [`Wal`].  Once an
    /// I/O error has left the on-disk log in an unknown state, its `wedged`
    /// cause makes every later call refuse: appending past a
    /// possibly-partial record would corrupt the log, and a read would
    /// answer from a history whose durable tail is unknown.  Reopening the
    /// directory recovers the durable prefix.
    shared: Arc<Shared>,
    dir: PathBuf,
    registry: Registry,
}

/// A durable concurrent set: the `V = ()` instance of [`DurableMap`] —
/// zero value bytes per record and per snapshot entry — with the
/// value-less [`insert`](DurableMap::insert) spelling.
pub type DurableSet<K, S> = DurableMap<K, (), S>;

impl<K, S> DurableSet<K, S>
where
    K: Ord + Clone + Send + Sync + KeyCodec + 'static,
    S: BatchedMap<K, ()> + Clone + Send + Sync,
{
    /// Inserts `key`; `Ok(true)` iff it was newly inserted — the set
    /// spelling of [`DurableMap::upsert`].
    pub fn insert(&self, key: K) -> io::Result<bool> {
        self.upsert(key, ())
    }
}

impl<K, V, S> DurableMap<K, V, S>
where
    K: Ord + Clone + Send + Sync + KeyCodec + 'static,
    V: Clone + Send + Sync + KeyCodec + 'static,
    S: BatchedMap<K, V> + Clone + Send + Sync,
{
    /// Opens (creating if absent) the durable store rooted at `dir`,
    /// recovering any existing history: load the manifest's snapshot,
    /// replay the log tail above it, truncate a torn final record, and
    /// seed a fresh backend via `make_backend` (e.g.
    /// `IstMap::from_batch`).  Large recovered batches build on `pool`,
    /// which the front-end then uses for large rounds.
    ///
    /// # Errors
    ///
    /// I/O failure, or `InvalidData` when a *committed* artefact (the
    /// manifest or the snapshot it points to) is damaged — that is real
    /// corruption, unlike a torn log tail, which is an expected crash
    /// signature and recovered from silently — or when the directory was
    /// written by a store with other key/value widths.  A failed open
    /// changes nothing on disk.
    pub fn open<P, F>(
        dir: P,
        pool: Pool,
        options: DurableOptions,
        make_backend: F,
    ) -> io::Result<DurableMap<K, V, S>>
    where
        P: AsRef<Path>,
        F: FnOnce(KvBatch<K, V>) -> S,
    {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let registry = Registry::new();
        let metrics = Metrics::new(&registry);

        // 1. The snapshot, if one was ever committed.
        let mut contents: BTreeMap<K, V> = BTreeMap::new();
        let mut snap_seq = 0u64;
        if let Some((seq, path)) = read_manifest(&dir)? {
            let (file_seq, keys, vals) = load_snapshot::<K, V>(&path)?;
            if file_seq != seq {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "manifest says seq {seq} but snapshot {} says {file_seq}",
                        path.display()
                    ),
                ));
            }
            snap_seq = seq;
            contents.extend(keys.into_iter().zip(vals));
        }
        metrics.snapshot_seq.set_max(snap_seq);

        // 2. Replay the log tail in segment-name (= append) order.  A
        //    record seq that fails to strictly increase is treated like a
        //    checksum failure: the valid log ends there.  A segment written
        //    at other widths is an error, returned before anything below
        //    can "heal" it.
        let segments = list_segments(&dir)?;
        let mut max_seq = snap_seq;
        let mut last_record_seq = 0u64;
        let mut replayed = 0u64;
        let mut tear: Option<(usize, u64)> = None;
        for (i, (_, path)) in segments.iter().enumerate() {
            let end = replay_segment::<K, V, _>(path, |record| {
                if record.seq <= last_record_seq {
                    return false;
                }
                last_record_seq = record.seq;
                if record.seq > snap_seq {
                    for op in record.ops {
                        match op {
                            WalOp::Insert(key, val) => contents.insert(key, val),
                            WalOp::Remove(key) => contents.remove(&key),
                        };
                    }
                    max_seq = record.seq;
                    replayed += 1;
                }
                true
            })?;
            if let SegmentEnd::Torn(offset) = end {
                tear = Some((i, offset));
                break;
            }
        }

        // 3. Heal a tear: truncate the damaged segment at the tear and
        //    delete everything appended after it — point-in-time recovery
        //    to the last valid record.
        if let Some((i, offset)) = tear {
            metrics.torn_tails.inc();
            if offset == 0 {
                // No valid prefix — not even the header.  Truncating would
                // leave a headerless file that replays as torn on every
                // future open; delete it instead.
                std::fs::remove_file(&segments[i].1)?;
                metrics.segments_deleted.inc();
            } else {
                truncate_segment(&segments[i].1, offset)?;
            }
            for (_, path) in &segments[i + 1..] {
                std::fs::remove_file(path)?;
                metrics.segments_deleted.inc();
            }
            log::sync_dir(&dir)?;
        }
        metrics.recovery_replayed.record(replayed);

        // 4. A fresh active segment, named past every survivor so that
        //    name order stays append order across process lifetimes.
        let highest_name = segments.iter().map(|&(seq, _)| seq).max().unwrap_or(0);
        let name = (max_seq + 1).max(highest_name + 1);
        let log = SegmentLog::create(
            &dir,
            name,
            options.segment_bytes.max(1),
            segment_magic::<K, V>(),
        )?;
        metrics.segments_created.inc();

        // 5. The backend, from the recovered contents, behind a front-end
        //    that commits its rounds to the WAL and whose round numbering
        //    continues where the history left off.
        let batch = KvBatch::from_sorted_entries(contents.into_iter().collect())
            .expect("BTreeMap iterates strictly ascending");
        let backend = make_backend(batch);
        metrics.appended_seq.set_max(max_seq);
        metrics.durable_seq.set_max(max_seq);
        let shared = Arc::new(Shared {
            snapshot_due: AtomicBool::new(false),
            wedged: OnceLock::new(),
            metrics,
        });
        let wal = Wal {
            log,
            last_name: name,
            pending: 0,
            since_snapshot: 0,
            options,
            buf: Vec::new(),
            shared: Arc::clone(&shared),
        };
        Ok(DurableMap {
            inner: ConcurrentMap::with_sink(backend, pool, Options { first_seq: max_seq }, wal),
            shared,
            dir,
            registry,
        })
    }

    /// Upserts `key → val`; `Ok(true)` iff the key was newly inserted (an
    /// upsert of a present key returns `Ok(false)` and replaces the value).
    /// Durable on return only under `group_commit: 1` — otherwise durable
    /// once [`DurableMap::durable_seq`] passes its round (see the crate
    /// docs).
    pub fn upsert(&self, key: K, val: V) -> io::Result<bool> {
        self.settle(self.inner.upsert(key, val))
    }

    /// Removes `key`; `Ok(true)` iff it was present.
    pub fn remove(&self, key: &K) -> io::Result<bool> {
        self.settle(self.inner.remove(key))
    }

    /// Membership test: the front-end's wait-free snapshot read.  Reads
    /// never touch the WAL (no lock, no append, no fsync); they fail only on
    /// a wedged store.
    pub fn contains(&self, key: &K) -> io::Result<bool> {
        self.read(|inner| inner.contains(key))
    }

    /// The value stored under `key`, if any (a read, like
    /// [`DurableMap::contains`]).
    pub fn get(&self, key: &K) -> io::Result<Option<V>> {
        self.read(|inner| inner.get(key))
    }

    /// Batch upsert; one combining round, one WAL record.
    ///
    /// # Errors
    ///
    /// `InvalidInput` — before anything commits, the store stays usable —
    /// when the batch is too large for one record (256 MiB of payload:
    /// ≈ 29.8 M `u64` keys, ≈ 15.8 M `u64 → u64` pairs; split it).  Same for
    /// [`DurableMap::batch_remove`].
    pub fn batch_insert(&self, batch: &KvBatch<K, V>) -> io::Result<Vec<bool>> {
        Self::check_fits_one_record(payload_len::<K, V>(batch.len(), 0))?;
        self.settle(self.inner.batch_insert(batch))
    }

    /// Batch remove; one combining round, one WAL record.
    pub fn batch_remove(&self, batch: &Batch<K>) -> io::Result<Vec<bool>> {
        Self::check_fits_one_record(payload_len::<K, V>(0, batch.len()))?;
        self.settle(self.inner.batch_remove(batch))
    }

    /// Batch membership test (a read, like [`DurableMap::contains`]).
    pub fn batch_contains(&self, batch: &Batch<K>) -> io::Result<Vec<bool>> {
        self.read(|inner| inner.batch_contains(batch))
    }

    /// Batch value lookup (a read, like [`DurableMap::contains`]).
    pub fn batch_get(&self, batch: &Batch<K>) -> io::Result<Vec<Option<V>>> {
        self.read(|inner| inner.batch_get(batch))
    }

    /// Number of keys in the store (in memory; never fails).
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the store is empty (in memory; never fails).
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Forces everything committed so far onto disk and returns the new
    /// durable high-water sequence number.
    pub fn sync(&self) -> io::Result<u64> {
        self.hold_wal(Wal::seal)?;
        Ok(self.durable_seq())
    }

    /// Takes a snapshot now (regardless of [`DurableOptions::snapshot_every`])
    /// and truncates the log; returns the snapshot's sequence number.
    /// Everything at or below it is durable when this returns.
    pub fn snapshot(&self) -> io::Result<u64> {
        self.hold_wal(|wal| self.snapshot_wal(wal))
    }

    /// The durable high-water mark: every round with seq at or below this
    /// has reached disk (via fsynced records or a committed snapshot) and
    /// survives any crash.
    pub fn durable_seq(&self) -> u64 {
        self.shared.metrics.durable_seq.get()
    }

    /// Snapshot of the `durable.*` metrics (see the README's metrics
    /// table).  The wrapped front-end's `combine.*` metrics live on
    /// [`DurableMap::inner`]`.metrics()`.
    pub fn metrics(&self) -> obs::Snapshot {
        self.registry.snapshot()
    }

    /// The wrapped flat-combining front-end, for its metrics and
    /// snapshots.  A write issued through it is logged at commit like any
    /// other — its record is appended when the call returns, and fsynced if
    /// it completes a group — and is durable at the next group or
    /// [`DurableMap::sync`]; it takes no snapshot and reports no wedge.
    pub fn inner(&self) -> &ConcurrentMap<K, V, S, Wal> {
        &self.inner
    }

    /// Fsyncs what is pending, then closes.  [`Drop`] does the same on a
    /// best-effort basis; `close` is the variant that reports the error.
    pub fn close(self) -> io::Result<()> {
        self.sync().map(|_| ())
    }

    /// What a write does once its round has committed (and so been
    /// appended, and fsynced if it completed a group), before it returns
    /// the round's `result`: report a wedge, and take a snapshot if one is
    /// due.  No lock is taken unless a snapshot is.
    fn settle<T>(&self, result: T) -> io::Result<T> {
        self.shared.check_wedged()?;
        // One writer claims a due snapshot and takes it.
        let snapshot_due = &self.shared.snapshot_due;
        if snapshot_due.load(Ordering::Relaxed) && snapshot_due.swap(false, Ordering::Relaxed) {
            self.hold_wal(|wal| self.snapshot_wal(wal))?;
        }
        Ok(result)
    }

    /// Runs `read` on the front-end's snapshot, unless the store is wedged.
    fn read<T>(&self, read: impl FnOnce(&ConcurrentMap<K, V, S, Wal>) -> T) -> io::Result<T> {
        self.shared.check_wedged().map(|()| read(&self.inner))
    }

    /// Refuses a batch whose round could encode to a record that recovery
    /// would read as a torn tail — discarding it and everything after it.
    fn check_fits_one_record(payload: usize) -> io::Result<()> {
        if payload > MAX_PAYLOAD {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "batch would log a {payload}-byte record; recovery accepts at most \
                     {MAX_PAYLOAD} bytes, so split the batch"
                ),
            ));
        }
        Ok(())
    }

    /// Runs `f` on the log under the combiner flag
    /// ([`ConcurrentMap::hold_sink`]) with the wedge bookkeeping: refuse if
    /// the store is wedged, wedge it if `f` fails.
    fn hold_wal<T>(&self, f: impl FnOnce(&mut Wal) -> io::Result<T>) -> io::Result<T> {
        self.inner.hold_sink(|wal| {
            self.shared.check_wedged()?;
            f(wal).map_err(|err| self.shared.wedge(err))
        })
    }

    /// Takes and commits a snapshot, then truncates the log.  Runs under
    /// the combiner flag ([`DurableMap::hold_wal`]).
    fn snapshot_wal(&self, wal: &mut Wal) -> io::Result<u64> {
        // Seal what is already appended: the snapshot supersedes it, but
        // if the snapshot fails mid-way the log must still stand alone.
        wal.seal()?;

        // One linearisation point: contents plus their high-water seq,
        // read from the combiner-published snapshot.  Under the flag no
        // round is between its publish and its append, so that seq is the
        // last round the log has seen: every record in every segment has
        // seq <= snap_seq, and truncation deletes whole segments.
        let (keys, vals, snap_seq) = self.inner.snapshot_entries();
        let name = write_snapshot(&self.dir, snap_seq, &keys, &vals)?;
        commit_manifest(&self.dir, snap_seq, &name)?;
        let metrics = &self.shared.metrics;
        metrics.snapshots.inc();
        metrics.snapshot_seq.set_max(snap_seq);
        metrics.durable_seq.set_max(snap_seq);

        let survivors = list_segments(&self.dir)?;
        let next = wal.next_name().max(snap_seq + 1);
        wal.rotate(next)?;
        let active = log::segment_path(&self.dir, next);
        for (_, path) in survivors {
            if path != active {
                std::fs::remove_file(&path)?;
                metrics.segments_deleted.inc();
            }
        }
        remove_stale_snapshots(&self.dir, &snapshot_path(&self.dir, snap_seq))?;
        log::sync_dir(&self.dir)?;
        wal.since_snapshot = 0;
        self.shared.snapshot_due.store(false, Ordering::Relaxed);
        Ok(snap_seq)
    }
}

impl<K, V, S> Drop for DurableMap<K, V, S> {
    fn drop(&mut self) {
        // Best-effort final fsync; `close()` is the error-reporting path.
        // Skipped when wedged (the log's tail is unknown) or poisoned.
        if self.shared.wedged.get().is_none() && !self.inner.is_poisoned() {
            let _ = self.inner.hold_sink(Wal::seal);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbist::IstMap;
    use std::fmt::Debug;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::thread;

    /// The value types the suite runs at: `()` (the set — zero bytes on
    /// disk) and `u64` (values that must survive recovery exactly).
    trait Val: Clone + PartialEq + Debug + Send + Sync + KeyCodec + 'static {
        /// A value derived from `key` and a `salt`, so an overwrite is
        /// distinguishable from the write it replaced.
        fn of(key: u64, salt: u64) -> Self;
    }

    impl Val for () {
        fn of(_key: u64, _salt: u64) {}
    }

    impl Val for u64 {
        fn of(key: u64, salt: u64) -> u64 {
            key * 1_000 + salt
        }
    }

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
        fresh_open_write_reopen_recovers,
        group_commit_one_makes_every_op_durable_on_return,
        larger_groups_amortise_fsyncs,
        only_ops_whose_replay_could_change_state_are_logged,
        batches_recover_with_last_wins_values,
        an_oversize_batch_is_refused_before_anything_commits,
        snapshot_truncates_the_log_and_still_recovers,
        automatic_snapshots_fire_on_the_configured_cadence,
        segment_rotation_keeps_every_record,
        concurrent_writers_recover_exactly,
        sequence_numbering_continues_across_reopen,
    );

    type Store<K, V> = DurableMap<K, V, IstMap<K, V>>;

    static DIR_ID: AtomicU64 = AtomicU64::new(0);

    fn scratch_dir(tag: &str) -> PathBuf {
        let id = DIR_ID.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "durable-lib-test-{}-{tag}-{id}",
            std::process::id()
        ))
    }

    fn try_open<K, V>(dir: &Path, options: DurableOptions) -> io::Result<Store<K, V>>
    where
        K: pbist::InterpolateKey + Clone + Send + Sync + KeyCodec + 'static,
        V: Val,
    {
        DurableMap::open(dir, Pool::new(2).unwrap(), options, |batch| {
            IstMap::from_batch(&batch)
        })
    }

    fn open<V: Val>(dir: &Path, options: DurableOptions) -> Store<u64, V> {
        try_open(dir, options).unwrap()
    }

    fn appended<V: Val>(store: &Store<u64, V>) -> u64 {
        store.metrics().counter("durable.records_appended").unwrap()
    }

    fn fresh_open_write_reopen_recovers<V: Val>() {
        let dir = scratch_dir("basic");
        let store = open::<V>(&dir, DurableOptions::default());
        assert!(store.is_empty());
        assert!(store.upsert(3, V::of(3, 0)).unwrap());
        assert!(store.upsert(1, V::of(1, 0)).unwrap());
        // Upsert of a present key: replaces the value, reports not-new.
        assert!(!store.upsert(3, V::of(3, 1)).unwrap());
        assert!(store.remove(&1).unwrap());
        assert!(!store.remove(&1).unwrap());
        assert!(store.contains(&3).unwrap());
        assert_eq!(store.get(&3).unwrap(), Some(V::of(3, 1)));
        store.close().unwrap();

        let store = open::<V>(&dir, DurableOptions::default());
        assert_eq!(store.len(), 1);
        assert_eq!(
            store.get(&3).unwrap(),
            Some(V::of(3, 1)),
            "the upserted value must survive"
        );
        assert!(!store.contains(&1).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn group_commit_one_makes_every_op_durable_on_return<V: Val>() {
        let dir = scratch_dir("group1");
        let store = open::<V>(
            &dir,
            DurableOptions {
                group_commit: 1,
                ..DurableOptions::default()
            },
        );
        for k in 0..10u64 {
            store.upsert(k, V::of(k, 0)).unwrap();
            let appended = store.metrics().counter("durable.appended_seq").unwrap();
            assert_eq!(
                store.durable_seq(),
                appended,
                "group_commit=1 leaves nothing pending"
            );
        }
        let m = store.metrics();
        assert_eq!(m.counter("durable.records_appended"), Some(10));
        assert_eq!(m.counter("durable.fsyncs"), Some(10));
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn larger_groups_amortise_fsyncs<V: Val>() {
        let dir = scratch_dir("group64");
        let store = open::<V>(
            &dir,
            DurableOptions {
                group_commit: 64,
                ..DurableOptions::default()
            },
        );
        // Single-threaded, so each op is its own round/record: 64 records
        // per fsync exactly.
        for k in 0..128u64 {
            store.upsert(k, V::of(k, 0)).unwrap();
        }
        let m = store.metrics();
        assert_eq!(m.counter("durable.records_appended"), Some(128));
        assert_eq!(m.counter("durable.fsyncs"), Some(2));
        let sizes = m.histogram("durable.group_size").unwrap();
        assert_eq!(sizes.count(), 2);
        assert_eq!(sizes.sum, 128);
        // Ops beyond the durable mark are pending, not lost: sync flushes.
        assert!(store.upsert(1000, V::of(1000, 0)).unwrap());
        assert!(store.durable_seq() < store.metrics().counter("durable.appended_seq").unwrap());
        let durable = store.sync().unwrap();
        assert_eq!(
            durable,
            store.metrics().counter("durable.appended_seq").unwrap()
        );
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The one logging rule (crate docs): reads and failed removes never
    /// reach the WAL; an insert of a present key does iff values have bytes
    /// — so sets keep "failed mutations write no records" and maps keep
    /// "every upsert is logged".
    fn only_ops_whose_replay_could_change_state_are_logged<V: Val>() {
        let dir = scratch_dir("rule");
        let store = open::<V>(&dir, DurableOptions::default());
        store.upsert(5, V::of(5, 0)).unwrap();
        let before = appended(&store);
        assert!(store.contains(&5).unwrap());
        assert!(!store.contains(&6).unwrap());
        assert_eq!(store.get(&5).unwrap(), Some(V::of(5, 0)));
        assert_eq!(
            store.batch_get(&Batch::from_unsorted(vec![5, 6])).unwrap(),
            vec![Some(V::of(5, 0)), None]
        );
        assert!(!store.remove(&99).unwrap());
        assert_eq!(appended(&store), before, "no state change, no WAL record");
        assert!(!store.upsert(5, V::of(5, 1)).unwrap());
        assert_eq!(
            appended(&store) - before,
            (V::WIDTH != 0) as u64,
            "an upsert of a present key is logged iff it may have changed a value"
        );
        // One record, and exactly the documented size: the set's is the
        // 12-byte frame + 12 + (1 + 8), a map's adds V::WIDTH value bytes.
        let bytes = store.metrics().counter("durable.bytes_written").unwrap();
        assert_eq!(
            bytes,
            (12 + 12 + 1 + 8 + V::WIDTH as u64) * appended(&store)
        );
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn batches_recover_with_last_wins_values<V: Val>() {
        let dir = scratch_dir("batch");
        let store = open::<V>(&dir, DurableOptions::default());
        let entries = |keys: &mut dyn Iterator<Item = u64>, salt| {
            KvBatch::from_unsorted_entries(keys.map(|k| (k, V::of(k, salt))).collect())
        };
        let ins = entries(&mut (0..100u64), 0);
        assert!(store.batch_insert(&ins).unwrap().iter().all(|&b| b));
        let over = entries(&mut (0..50u64).map(|i| i * 2), 7);
        let flags = store.batch_insert(&over).unwrap();
        assert!(flags.iter().all(|&b| !b), "overwrites are not new");
        let rem = Batch::from_unsorted((0..20u64).map(|i| i * 5).collect());
        assert!(store.batch_remove(&rem).unwrap().iter().all(|&b| b));
        store.close().unwrap();

        let store = open::<V>(&dir, DurableOptions::default());
        assert_eq!(store.len(), 80);
        let probe = Batch::from_unsorted((0..100u64).collect());
        let hits = store.batch_contains(&probe).unwrap();
        let vals = store.batch_get(&probe).unwrap();
        for (i, (hit, val)) in hits.into_iter().zip(vals).enumerate() {
            let key = i as u64;
            let salt = if key.is_multiple_of(2) { 7 } else { 0 };
            let expect = (!key.is_multiple_of(5)).then(|| V::of(key, salt));
            assert_eq!(hit, expect.is_some(), "key {key}");
            assert_eq!(val, expect, "key {key}");
        }
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Encode refuses what decode calls torn: a batch whose record would
    /// pass `MAX_PAYLOAD` (1 MiB under `cfg(test)`) is turned away with
    /// `InvalidInput` before its round commits — recovery would otherwise
    /// discard that record and everything after it — and the store carries
    /// on; the largest batch that fits is logged and recovered whole.
    fn an_oversize_batch_is_refused_before_anything_commits<V: Val>() {
        let dir = scratch_dir("oversize");
        let store = open::<V>(&dir, DurableOptions::default());
        store.upsert(1, V::of(1, 0)).unwrap();
        let before = (appended(&store), store.inner().committed_seq());

        let fits = (MAX_PAYLOAD - 12) / (1 + 8 + V::WIDTH);
        let entries = |n: usize| {
            let pairs = (10..10 + n as u64).map(|k| (k, V::of(k, 0))).collect();
            KvBatch::from_sorted_entries(pairs).unwrap()
        };
        let err = store.batch_insert(&entries(fits + 1)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        let keys = (0..=(MAX_PAYLOAD as u64 - 12) / (1 + 8)).collect();
        let err = store
            .batch_remove(&Batch::from_sorted(keys).unwrap())
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        let after = (appended(&store), store.inner().committed_seq());
        assert_eq!(
            (after, store.len()),
            (before, 1),
            "a refused batch left a trace"
        );

        // Not wedged: the next call works, the boundary batch included.
        assert!(store
            .batch_insert(&entries(fits))
            .unwrap()
            .iter()
            .all(|&b| b));
        // That record outgrew the encode scratch the WAL keeps; the next
        // one starts a small buffer, which is kept.
        let scratch = || store.inner().hold_sink(|wal| wal.buf.capacity());
        assert_eq!(scratch(), 0, "the WAL kept a record-limit-sized buffer");
        store.remove(&1).unwrap();
        assert!((1..=WAL_BUF_KEEP).contains(&scratch()));
        store.close().unwrap();
        let store = open::<V>(&dir, DurableOptions::default());
        assert_eq!(store.len(), fits);
        assert_eq!(store.metrics().counter("durable.torn_tails"), Some(0));
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn snapshot_truncates_the_log_and_still_recovers<V: Val>() {
        let dir = scratch_dir("snap");
        let store = open::<V>(&dir, DurableOptions::default());
        for k in 0..200u64 {
            store.upsert(k, V::of(k, 1)).unwrap();
        }
        let snap_seq = store.snapshot().unwrap();
        assert!(snap_seq >= 200);
        assert_eq!(store.durable_seq(), snap_seq);
        // Post-snapshot, exactly one (fresh, near-empty) segment remains.
        let segments = list_segments(&dir).unwrap();
        assert_eq!(segments.len(), 1);
        // And the history continues past it.
        for k in 200..230u64 {
            store.upsert(k, V::of(k, 2)).unwrap();
        }
        store.close().unwrap();

        let store = open::<V>(&dir, DurableOptions::default());
        assert_eq!(store.len(), 230);
        assert_eq!(store.get(&150).unwrap(), Some(V::of(150, 1)), "snapshotted");
        assert_eq!(store.get(&229).unwrap(), Some(V::of(229, 2)), "replayed");
        let m = store.metrics();
        assert_eq!(m.counter("durable.snapshot_seq"), Some(snap_seq));
        let replayed = m.histogram("durable.recovery_replayed").unwrap();
        assert_eq!(replayed.count(), 1);
        assert_eq!(replayed.sum, 30, "only the post-snapshot tail replays");
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn automatic_snapshots_fire_on_the_configured_cadence<V: Val>() {
        let dir = scratch_dir("autosnap");
        let store = open::<V>(
            &dir,
            DurableOptions {
                snapshot_every: 10,
                ..DurableOptions::default()
            },
        );
        for k in 0..35u64 {
            store.upsert(k, V::of(k, 3)).unwrap();
        }
        let m = store.metrics();
        assert_eq!(m.counter("durable.snapshots"), Some(3));
        drop(store);
        let store = open::<V>(&dir, DurableOptions::default());
        assert_eq!(store.len(), 35);
        assert_eq!(store.get(&34).unwrap(), Some(V::of(34, 3)));
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn segment_rotation_keeps_every_record<V: Val>() {
        let dir = scratch_dir("rotate");
        let store = open::<V>(
            &dir,
            DurableOptions {
                segment_bytes: 64,
                ..DurableOptions::default()
            },
        );
        for k in 0..100u64 {
            store.upsert(k, V::of(k, 4)).unwrap();
        }
        store.sync().unwrap();
        assert!(
            list_segments(&dir).unwrap().len() > 1,
            "64-byte segments must have rotated"
        );
        drop(store);
        let store = open::<V>(&dir, DurableOptions::default());
        assert_eq!(store.len(), 100);
        assert_eq!(store.get(&99).unwrap(), Some(V::of(99, 4)));
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn concurrent_writers_recover_exactly<V: Val>() {
        let dir = scratch_dir("threads");
        let store = Arc::new(open::<V>(
            &dir,
            DurableOptions {
                group_commit: 4,
                ..DurableOptions::default()
            },
        ));
        thread::scope(|s| {
            for t in 0..4u64 {
                let store = Arc::clone(&store);
                s.spawn(move || {
                    for i in 0..200u64 {
                        let key = t * 1_000 + i;
                        store.upsert(key, V::of(key, 0)).unwrap();
                        if i % 3 == 0 {
                            store.remove(&key).unwrap();
                        } else if i % 3 == 1 {
                            store.upsert(key, V::of(key, t + 1)).unwrap();
                        }
                    }
                });
            }
        });
        let expect: BTreeMap<u64, V> = (0..4u64)
            .flat_map(|t| (0..200u64).map(move |i| (t, i)))
            .filter(|&(_, i)| i % 3 != 0)
            .map(|(t, i)| {
                let key = t * 1_000 + i;
                (key, V::of(key, if i % 3 == 1 { t + 1 } else { 0 }))
            })
            .collect();
        assert_eq!(store.len(), expect.len());
        let store = Arc::into_inner(store).unwrap();
        store.close().unwrap();

        let store = open::<V>(&dir, DurableOptions::default());
        let (keys, vals, _) = store.inner().snapshot_entries();
        assert!(keys.iter().eq(expect.keys()), "recovered keys differ");
        assert!(vals.iter().eq(expect.values()), "recovered values differ");
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn sequence_numbering_continues_across_reopen<V: Val>() {
        let dir = scratch_dir("seqcont");
        let store = open::<V>(&dir, DurableOptions::default());
        for k in 0..5u64 {
            store.upsert(k, V::of(k, 0)).unwrap();
        }
        let before = store.metrics().counter("durable.appended_seq").unwrap();
        store.close().unwrap();

        let store = open::<V>(&dir, DurableOptions::default());
        store.upsert(99, V::of(99, 0)).unwrap();
        let after = store.metrics().counter("durable.appended_seq").unwrap();
        assert!(
            after > before,
            "new rounds must continue the old numbering ({after} vs {before})"
        );
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Every file in `dir` with its bytes, sorted by name.
    fn dir_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| {
                let entry = entry.unwrap();
                let name = entry.file_name().into_string().unwrap();
                (name, std::fs::read(entry.path()).unwrap())
            })
            .collect();
        files.sort();
        files
    }

    /// Regression: opening a directory as the wrong type used to read its
    /// segments as "torn at offset 0 / at the first record" and then
    /// *truncate or delete them* — data loss presented as a clean recovery.
    /// A mistyped open must fail with `InvalidData` and change nothing.
    #[test]
    fn a_mistyped_open_is_refused_and_leaves_the_directory_untouched() {
        // Once with the history in the log only, once behind a snapshot.
        for with_snapshot in [false, true] {
            let dir = scratch_dir("mistyped");
            let options = || DurableOptions {
                group_commit: 1,
                segment_bytes: 256, // several segments, so "later ones" exist
                ..DurableOptions::default()
            };
            let set = open::<()>(&dir, options());
            for k in 0..40u64 {
                set.insert(k * 3).unwrap();
            }
            if with_snapshot {
                set.snapshot().unwrap();
                set.insert(1_000).unwrap();
            }
            set.close().unwrap();
            let before = dir_bytes(&dir);
            assert!(before.len() > 1, "fixture should span several files");

            let as_map = try_open::<u64, u64>(&dir, options()).err();
            let as_narrow = try_open::<u32, ()>(&dir, options()).err();
            for err in [as_map, as_narrow] {
                let err = err.expect("a mistyped open must not succeed");
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
                assert!(err.to_string().contains("8-byte keys"), "{err}");
                assert_eq!(
                    dir_bytes(&dir),
                    before,
                    "a refused open touched the directory"
                );
            }

            // The right types still recover everything.
            let set = open::<()>(&dir, options());
            let mut expect: Vec<u64> = (0..40u64).map(|k| k * 3).collect();
            expect.extend(with_snapshot.then_some(1_000));
            assert_eq!(set.inner().snapshot_keys().0, expect);
            assert_eq!(set.metrics().counter("durable.torn_tails"), Some(0));
            drop(set);
            std::fs::remove_dir_all(&dir).unwrap();
        }
        // And the other way round: a map's directory is not a set's.
        let dir = scratch_dir("mistyped-map");
        let map = open::<u64>(&dir, DurableOptions::default());
        map.upsert(1, 100).unwrap();
        map.close().unwrap();
        let before = dir_bytes(&dir);
        let err = try_open::<u64, ()>(&dir, DurableOptions::default()).err();
        assert_eq!(err.expect("refused").kind(), io::ErrorKind::InvalidData);
        assert_eq!(dir_bytes(&dir), before);
        let map = open::<u64>(&dir, DurableOptions::default());
        assert_eq!(map.get(&1).unwrap(), Some(100));
        drop(map);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The four reads, each of which must succeed (or fail) as one.
    fn all_reads(store: &Store<u64, u64>) -> io::Result<()> {
        let batch = Batch::from_unsorted(vec![1, 2]);
        assert!(store.contains(&1)?);
        assert_eq!(store.get(&1)?, Some(10));
        assert_eq!(store.batch_contains(&batch)?, vec![true, false]);
        assert_eq!(store.batch_get(&batch)?, vec![Some(10), None]);
        Ok(())
    }

    /// Reads never touch the WAL: with the log held by this thread through
    /// the combiner flag — a sync or snapshot in progress — a second
    /// thread's reads must still return.
    #[test]
    fn reads_return_while_the_log_is_held() {
        let dir = scratch_dir("readlock");
        let store = Arc::new(open::<u64>(&dir, DurableOptions::default()));
        store.upsert(1, 10).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let answered = store.inner().hold_sink(|_wal| {
            let reader = {
                let store = Arc::clone(&store);
                thread::spawn(move || tx.send(all_reads(&store)).unwrap())
            };
            let answered = rx.recv_timeout(std::time::Duration::from_secs(10));
            (answered, reader)
        });
        let (answered, reader) = answered;
        reader.join().unwrap();
        answered
            .expect("reads blocked on the held log")
            .expect("reads of a healthy store succeed");
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// An I/O error inside a round's commit — here a rotation that cannot
    /// create the next segment, because a directory sits at its path —
    /// wedges the store: the write whose round hit it fails, every later
    /// call fails fast, and a reopen recovers every write acknowledged
    /// before it.
    #[test]
    fn an_io_failure_inside_a_commit_wedges_the_store() {
        let dir = scratch_dir("commitfail");
        let options = || DurableOptions {
            group_commit: 1,
            segment_bytes: 1,
            ..DurableOptions::default()
        };
        let store = open::<u64>(&dir, options());
        // Every record fills a segment, so every append rotates first, to
        // the name after the newest segment's.
        for k in 1..=5u64 {
            store.upsert(k, k * 10).unwrap();
        }
        let (newest, _) = *list_segments(&dir).unwrap().last().unwrap();
        let planted = log::segment_path(&dir, newest + 1);
        std::fs::create_dir(&planted).unwrap();
        let err = store.upsert(6, 60).unwrap_err();
        assert!(err.to_string().contains("wedged"), "{err}");
        let err = store.get(&1).unwrap_err();
        assert!(err.to_string().contains("wedged"), "{err}");
        let err = store.upsert(7, 70).unwrap_err();
        assert!(err.to_string().contains("wedged"), "{err}");
        assert!(store.sync().is_err() && store.snapshot().is_err());
        drop(store);

        std::fs::remove_dir(&planted).unwrap();
        let store = open::<u64>(&dir, options());
        let (keys, vals, _) = store.inner().snapshot_entries();
        assert_eq!(keys, vec![1, 2, 3, 4, 5], "acknowledged writes lost");
        assert_eq!(vals, vec![10, 20, 30, 40, 50]);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A failed fsync wedges the store under the flag, and nothing is
    /// appended or fsynced after it — not by a write through `inner()`,
    /// which skips the wedge check, not by `sync` — so the durable mark
    /// never moves again.  Linux reports a writeback error to one fsync of
    /// a file only, so a retry could return `Ok` for pages that never
    /// reached disk.  Here the active segment is swapped for a pipe (whose
    /// fsync fails) for one write, then back, so a retry would succeed.
    #[test]
    fn a_failed_fsync_wedges_before_any_retry() {
        let dir = scratch_dir("fsyncfail");
        let options = || DurableOptions {
            group_commit: 1,
            ..DurableOptions::default()
        };
        let store = open::<u64>(&dir, options());
        store.upsert(1, 10).unwrap();
        let durable = store.durable_seq();
        let (_reader, writer) = io::pipe().unwrap();
        let pipe = std::fs::File::from(std::os::fd::OwnedFd::from(writer));
        let segment = store.inner().hold_sink(|wal| wal.log.swap_file(pipe));
        let err = store.upsert(2, 20).unwrap_err();
        assert!(err.to_string().contains("wedged"), "{err}");
        store.inner().hold_sink(|wal| wal.log.swap_file(segment));

        assert!(store.inner().upsert(3, 30), "the write runs in memory");
        let err = store.sync().unwrap_err();
        assert!(err.to_string().contains("wedged"), "{err}");
        assert_eq!(
            store.durable_seq(),
            durable,
            "an fsync ran after a failed one"
        );
        assert_eq!(store.metrics().counter("durable.fsyncs"), Some(1));
        drop(store);
        let store = open::<u64>(&dir, options());
        assert_eq!(store.inner().snapshot_keys().0, vec![1]);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A write through `inner()` commits to the log like any other: its
    /// record is appended by the time the call returns, with no further
    /// `DurableMap` call, and `sync` makes it durable.
    #[test]
    fn a_write_through_inner_is_appended_at_commit() {
        let dir = scratch_dir("inner");
        let store = open::<u64>(&dir, DurableOptions::default());
        store.upsert(1, 10).unwrap();
        assert!(store.inner().upsert(2, 20));
        let seq = store.inner().committed_seq();
        let appended = store.metrics().counter("durable.appended_seq").unwrap();
        assert_eq!(appended, seq, "the inner write's round was not appended");
        assert_eq!(store.sync().unwrap(), seq);
        drop(store);
        let store = open::<u64>(&dir, DurableOptions::default());
        assert_eq!(store.get(&2).unwrap(), Some(20));
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_wedged_store_fails_reads_fast() {
        let dir = scratch_dir("wedged");
        let store = open::<u64>(&dir, DurableOptions::default());
        store.upsert(1, 10).unwrap();
        all_reads(&store).unwrap();
        // A real I/O failure: with its directory gone the snapshot cannot
        // be written, and the failed call wedges the store.
        std::fs::remove_dir_all(&dir).unwrap();
        store.snapshot().unwrap_err();
        let err = all_reads(&store).unwrap_err();
        assert!(err.to_string().contains("wedged"), "{err}");
        let err = store.upsert(2, 20).unwrap_err();
        assert!(err.to_string().contains("wedged"), "{err}");
        assert_eq!(store.len(), 2, "the write itself still ran in memory");
    }

    /// Reads leave the WAL alone: the same write trace appends the same
    /// records and bytes and trips the same fsyncs with reads interleaved
    /// as without.
    #[test]
    fn interleaved_reads_leave_record_and_fsync_counts_unchanged() {
        let run = |with_reads: bool| {
            let dir = scratch_dir("readmix");
            let store = open::<u64>(
                &dir,
                DurableOptions {
                    group_commit: 8,
                    ..DurableOptions::default()
                },
            );
            store.upsert(1, 10).unwrap();
            for i in 0..100u64 {
                let key = i % 23 + 3;
                if i % 3 == 2 {
                    store.remove(&key).unwrap();
                } else {
                    store.upsert(key, i).unwrap();
                }
                if with_reads {
                    all_reads(&store).unwrap();
                }
            }
            let m = store.metrics();
            drop(store);
            std::fs::remove_dir_all(&dir).unwrap();
            ["records_appended", "bytes_written", "fsyncs"]
                .map(|name| m.counter(&format!("durable.{name}")).unwrap())
        };
        let quiet = run(false);
        assert!(quiet[0] > 50 && quiet[2] > 5, "{quiet:?}");
        assert_eq!(run(true), quiet);
    }

    /// A file too short to hold a header is what a crash during segment
    /// creation leaves behind: still a torn tail, healed by deletion.
    #[test]
    fn a_headerless_segment_is_still_a_torn_tail() {
        let dir = scratch_dir("headerless");
        let set = open::<()>(
            &dir,
            DurableOptions {
                group_commit: 1,
                ..DurableOptions::default()
            },
        );
        set.insert(1).unwrap();
        drop(set);
        let planted = log::segment_path(&dir, 1_000);
        std::fs::write(&planted, b"PBW").unwrap();

        let set = open::<()>(&dir, DurableOptions::default());
        assert_eq!(set.metrics().counter("durable.torn_tails"), Some(1));
        assert_eq!(set.inner().snapshot_keys().0, vec![1]);
        assert!(!planted.exists(), "recovery deletes the headerless file");
        drop(set);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
