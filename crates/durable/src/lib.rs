//! Durability tier: a write-ahead log, snapshots and crash recovery
//! layered over the flat-combining front-end's commit log.
//!
//! The flat-combining combiner already produces exactly the artefact a
//! write-ahead log needs: a totally-ordered stream of committed rounds,
//! each stamped with a gap-free sequence number (`combine::Round::seq`).
//! [`DurableMap`] (and [`DurableSet`], its `V = ()` alias) drains that stream
//! ([`combine::ConcurrentMap::take_rounds`]) and appends one checksummed
//! record per *mutation* round to an
//! append-only segment log, amortising `fsync` over groups of rounds the
//! same way combining amortises tree descents over groups of keys.
//!
//! # The protocol
//!
//! * **Append.**  Every write, after completing in memory, *publishes*:
//!   it takes the wal lock, drains all committed-but-unappended rounds
//!   (its own round among them — the combiner logs a round before
//!   releasing any of its clients), strips ops whose replay could
//!   not change state (see *What is logged*), and appends the remainder as
//!   records.  The wal lock makes append order
//!   equal commit order, so the log *is* the linearisation.
//! * **Read.**  Reads never touch the WAL: they are the front-end's
//!   wait-free snapshot reads and take no lock, so they never queue behind
//!   another client's append or fsync.  They fail only on a wedged store
//!   (below).  Every writer drains its own round, so no round waits on a
//!   reader to reach the log.
//! * **Group commit.**  Records accumulate until
//!   [`DurableOptions::group_commit`] of them are pending, then one
//!   `fsync` covers them all.  `group_commit: 1` fsyncs on every mutation
//!   round — each op is durable before its call returns; larger groups
//!   trade bounded post-crash loss for an order of magnitude fewer
//!   fsyncs.  [`DurableMap::durable_seq`] is the contract either way: it
//!   advances only when records reach disk, so state at or below it
//!   survives any crash.  [`DurableMap::sync`] forces the boundary.
//! * **Snapshot.**  Every [`DurableOptions::snapshot_every`] appended
//!   records (or on [`DurableMap::snapshot`]), the store's full contents are
//!   captured at one linearisation point ([`combine::ConcurrentMap::snapshot_entries`],
//!   which serves the combiner-published read snapshot without entering a
//!   round), written to a snapshot file, and committed by atomically
//!   renaming a manifest into place.  Because the combiner publishes a
//!   round's snapshot *before* appending the round to the commit log, the
//!   snapshot's seq covers every record already drained into the wal, so
//!   *all* segments are deleted and the log restarts empty — bounded disk,
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
use std::sync::{Arc, Mutex};

use batchapi::{Batch, BatchedMap, KeyCodec, KvBatch};
use combine::{ConcurrentMap, OpKind, Options};
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

/// The wal-side mutable state, all under one mutex: the lock is what makes
/// WAL append order equal round commit order.
#[derive(Debug)]
struct Wal {
    log: SegmentLog,
    /// Seq of the last record appended (starts at the recovery mark).
    appended_seq: u64,
    /// Highest segment name ever created; names must strictly increase so
    /// that segment-name order stays append order (see `next_name`).
    last_name: u64,
    /// Records appended since the last fsync.
    pending: u64,
    /// Records appended since the last snapshot.
    since_snapshot: u64,
    /// Encode scratch, reused across appends (see [`WAL_BUF_KEEP`]).
    buf: Vec<u8>,
}

/// The WAL keeps its encode buffer from one append to the next only while
/// the buffer's capacity is at most this.  A whole-batch record may be as
/// large as `MAX_PAYLOAD`, and a buffer grown for one such batch would
/// otherwise stay allocated — per shard — for as long as the store is open.
/// 1 MiB clears every record the benchmark writes (73 KB for a `batch-large`
/// sub-batch, 295 KB for a prefill one), so no steady-state append
/// reallocates.
const WAL_BUF_KEEP: usize = 1 << 20;

impl Wal {
    /// The name for the next segment: past the last appended record *and*
    /// past every name already used (post-snapshot segments can carry
    /// late-drained records numbered below their name, so `appended_seq`
    /// alone could repeat a name and truncate a live segment).
    fn next_name(&self) -> u64 {
        (self.appended_seq + 1).max(self.last_name + 1)
    }
}

/// Handles to the `durable.*` metrics, resolved once at construction.
#[derive(Debug)]
struct Metrics {
    rounds_drained: Arc<Counter>,
    records_appended: Arc<Counter>,
    bytes_written: Arc<Counter>,
    fsyncs: Arc<Counter>,
    snapshots: Arc<Counter>,
    segments_created: Arc<Counter>,
    segments_deleted: Arc<Counter>,
    torn_tails: Arc<Counter>,
    group_size: Arc<Histogram>,
    recovery_replayed: Arc<Histogram>,
    /// The three marks are counters moved by [`Counter::set_max`], all
    /// written under the WAL lock.
    appended_seq: Arc<Counter>,
    durable_seq: Arc<Counter>,
    snapshot_seq: Arc<Counter>,
}

impl Metrics {
    fn new(registry: &Registry) -> Metrics {
        Metrics {
            rounds_drained: registry.counter("durable.rounds_drained"),
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
/// Operations return `io::Result`: besides its own round, each write may
/// drain and append *other* clients' rounds and trip the group-commit
/// fsync, any of which can fail.  After an error the instance is
/// *wedged* — later calls, reads included, fail fast — and reopening the
/// directory recovers everything durable up to that point.  Reads never
/// touch the WAL; they fail only on a wedged store.
pub struct DurableMap<K, V, S>
where
    K: Ord + Clone + Send + Sync + KeyCodec + 'static,
    V: Clone + Send + Sync + KeyCodec + 'static,
    S: BatchedMap<K, V> + Clone + Send + Sync,
{
    inner: ConcurrentMap<K, V, S>,
    wal: Mutex<Wal>,
    /// Set when an I/O error left the on-disk log in an unknown state;
    /// every later call refuses, because appending past a possibly-partial
    /// record would corrupt the log (and a read would answer from a history
    /// whose durable tail is unknown).  Stored (`Release`) under the wal
    /// lock by the call that failed; loaded (`Acquire`) by every call,
    /// the reads without the lock.  Reopening the directory recovers the
    /// durable prefix.
    wedged: AtomicBool,
    dir: PathBuf,
    group_commit: u64,
    snapshot_every: u64,
    registry: Registry,
    metrics: Metrics,
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
        //    whose round log the WAL consumes and whose round numbering
        //    continues where the history left off.
        let batch = KvBatch::from_sorted_entries(contents.into_iter().collect())
            .expect("BTreeMap iterates strictly ascending");
        let backend = make_backend(batch);
        let inner = ConcurrentMap::with_options(
            backend,
            pool,
            Options {
                log_rounds: true,
                first_seq: max_seq,
            },
        );

        metrics.appended_seq.set_max(max_seq);
        metrics.durable_seq.set_max(max_seq);
        Ok(DurableMap {
            inner,
            wal: Mutex::new(Wal {
                log,
                appended_seq: max_seq,
                last_name: name,
                pending: 0,
                since_snapshot: 0,
                buf: Vec::new(),
            }),
            wedged: AtomicBool::new(false),
            dir,
            group_commit: options.group_commit.max(1),
            snapshot_every: options.snapshot_every,
            registry,
            metrics,
        })
    }

    /// Upserts `key → val`; `Ok(true)` iff the key was newly inserted (an
    /// upsert of a present key returns `Ok(false)` and replaces the value).
    /// Durable on return only under `group_commit: 1` — otherwise durable
    /// once [`DurableMap::durable_seq`] passes its round (see the crate
    /// docs).
    pub fn upsert(&self, key: K, val: V) -> io::Result<bool> {
        let result = self.inner.upsert(key, val);
        self.publish()?;
        Ok(result)
    }

    /// Removes `key`; `Ok(true)` iff it was present.
    pub fn remove(&self, key: &K) -> io::Result<bool> {
        let result = self.inner.remove(key);
        self.publish()?;
        Ok(result)
    }

    /// Membership test: the front-end's wait-free snapshot read.  Reads
    /// never touch the WAL (no lock, no drain, no fsync); they fail only on
    /// a wedged store.
    pub fn contains(&self, key: &K) -> io::Result<bool> {
        self.check_wedged()?;
        Ok(self.inner.contains(key))
    }

    /// The value stored under `key`, if any (a read, like
    /// [`DurableMap::contains`]).
    pub fn get(&self, key: &K) -> io::Result<Option<V>> {
        self.check_wedged()?;
        Ok(self.inner.get(key))
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
        let result = self.inner.batch_insert(batch);
        self.publish()?;
        Ok(result)
    }

    /// Batch remove; one combining round, one WAL record.
    pub fn batch_remove(&self, batch: &Batch<K>) -> io::Result<Vec<bool>> {
        Self::check_fits_one_record(payload_len::<K, V>(0, batch.len()))?;
        let result = self.inner.batch_remove(batch);
        self.publish()?;
        Ok(result)
    }

    /// Batch membership test (a read, like [`DurableMap::contains`]).
    pub fn batch_contains(&self, batch: &Batch<K>) -> io::Result<Vec<bool>> {
        self.check_wedged()?;
        Ok(self.inner.batch_contains(batch))
    }

    /// Batch value lookup (a read, like [`DurableMap::contains`]).
    pub fn batch_get(&self, batch: &Batch<K>) -> io::Result<Vec<Option<V>>> {
        self.check_wedged()?;
        Ok(self.inner.batch_get(batch))
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
        self.with_wal(|this, wal| {
            this.drain_into(wal)?;
            this.fsync_wal(wal)?;
            Ok(this.metrics.durable_seq.get())
        })
    }

    /// Takes a snapshot now (regardless of [`DurableOptions::snapshot_every`])
    /// and truncates the log; returns the snapshot's sequence number.
    /// Everything at or below it is durable when this returns.
    pub fn snapshot(&self) -> io::Result<u64> {
        self.with_wal(|this, wal| {
            this.drain_into(wal)?;
            this.snapshot_wal(wal)
        })
    }

    /// The durable high-water mark: every round with seq at or below this
    /// has reached disk (via fsynced records or a committed snapshot) and
    /// survives any crash.
    pub fn durable_seq(&self) -> u64 {
        self.metrics.durable_seq.get()
    }

    /// Snapshot of the `durable.*` metrics (see the README's metrics
    /// table).  The wrapped front-end's `combine.*` metrics live on
    /// [`DurableMap::inner`]`.metrics()`.
    pub fn metrics(&self) -> obs::Snapshot {
        self.registry.snapshot()
    }

    /// The wrapped flat-combining front-end, for its metrics and
    /// snapshots.  Issuing *writes* through it does not lose them — they are
    /// drained on the next publish — but they bypass group commit's
    /// timing, so their durability point is some later client's call.
    pub fn inner(&self) -> &ConcurrentMap<K, V, S> {
        &self.inner
    }

    /// Drains and fsyncs, then closes.  [`Drop`] does the same on a best-
    /// effort basis; `close` is the variant that reports the error.
    pub fn close(self) -> io::Result<()> {
        self.sync().map(|_| ())
    }

    /// The post-write durability step: under the wal lock, drain every
    /// committed round, append the mutations, and run group commit and
    /// the snapshot policy.  See the crate docs' protocol section.
    fn publish(&self) -> io::Result<()> {
        self.with_wal(|this, wal| {
            this.drain_into(wal)?;
            if wal.pending >= this.group_commit {
                this.fsync_wal(wal)?;
            }
            if this.snapshot_every > 0 && wal.since_snapshot >= this.snapshot_every {
                this.snapshot_wal(wal)?;
            }
            Ok(())
        })
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

    /// Refuses when an earlier call wedged the store.
    fn check_wedged(&self) -> io::Result<()> {
        if self.wedged.load(Ordering::Acquire) {
            return Err(io::Error::other(
                "durable store wedged by an earlier I/O error; reopen the directory to recover",
            ));
        }
        Ok(())
    }

    /// Runs `f` under the wal lock with wedge bookkeeping: refuse if a
    /// previous call failed, wedge if this one does.
    fn with_wal<T>(&self, f: impl FnOnce(&Self, &mut Wal) -> io::Result<T>) -> io::Result<T> {
        let mut wal = self.wal.lock().unwrap();
        self.check_wedged()?;
        let result = f(self, &mut wal);
        if result.is_err() {
            self.wedged.store(true, Ordering::Release);
        }
        result
    }

    /// Drains the combiner's round log and appends one record per
    /// mutation round.  Caller holds the wal lock.
    fn drain_into(&self, wal: &mut Wal) -> io::Result<()> {
        let rounds = self.inner.take_rounds();
        if rounds.is_empty() {
            return Ok(());
        }
        self.metrics.rounds_drained.add(rounds.len() as u64);
        for round in &rounds {
            // Keep only ops whose replay could change state (the crate
            // docs' logging rule): a failed remove replays to nothing, and
            // so does a failed insert unless it may have rewritten a value.
            // Sequence gaps this leaves in the WAL are expected.
            let mut muts = round
                .ops
                .iter()
                .filter(|op| op.result || (op.kind == OpKind::Insert && V::WIDTH != 0))
                .map(|op| match op.kind {
                    OpKind::Insert => {
                        let val = op.val.as_ref().expect("insert ops carry a value");
                        WalOp::Insert(&op.key, val)
                    }
                    OpKind::Remove => WalOp::Remove(&op.key),
                })
                .peekable();
            if muts.peek().is_none() {
                continue;
            }
            if wal.log.wants_rotation() {
                // Seal the active segment before abandoning it: its
                // records must never wait on a rotated-away fd.
                self.fsync_wal(wal)?;
                let name = wal.next_name();
                wal.log.rotate(name)?;
                wal.last_name = name;
                self.metrics.segments_created.inc();
            }
            let mut buf = std::mem::take(&mut wal.buf);
            buf.clear();
            encode_record(round.seq, muts, &mut buf);
            let appended = wal.log.append(&buf);
            self.metrics.bytes_written.add(buf.len() as u64);
            if buf.capacity() <= WAL_BUF_KEEP {
                wal.buf = buf;
            }
            appended?;
            self.metrics.records_appended.inc();
            wal.appended_seq = round.seq;
            wal.pending += 1;
            wal.since_snapshot += 1;
            self.metrics.appended_seq.set_max(round.seq);
        }
        Ok(())
    }

    /// Fsyncs the active segment, advancing the durable mark over every
    /// pending record.  Caller holds the wal lock.
    fn fsync_wal(&self, wal: &mut Wal) -> io::Result<()> {
        if wal.pending == 0 {
            return Ok(());
        }
        wal.log.sync()?;
        self.metrics.fsyncs.inc();
        self.metrics.group_size.record(wal.pending);
        wal.pending = 0;
        self.metrics.durable_seq.set_max(wal.appended_seq);
        Ok(())
    }

    /// Takes and commits a snapshot, then truncates the log.  Caller
    /// holds the wal lock and has drained.
    fn snapshot_wal(&self, wal: &mut Wal) -> io::Result<u64> {
        // Seal what is already appended: the snapshot supersedes it, but
        // if the snapshot fails mid-way the log must still stand alone.
        self.fsync_wal(wal)?;

        // One linearisation point: contents plus their high-water seq,
        // read from the combiner-published snapshot (no round entered).
        // Every record drained above carries seq <= snap_seq, because its
        // round published the snapshot cell *before* entering the commit
        // log and the cell is monotone.  Rounds that publish between the
        // drain and this load land in the *next* segment with seq <= snap
        // — skipped at replay, harmless (the snapshot already holds them).
        let (keys, vals, snap_seq) = self.inner.snapshot_entries();
        let name = write_snapshot(&self.dir, snap_seq, &keys, &vals)?;
        commit_manifest(&self.dir, snap_seq, &name)?;
        self.metrics.snapshots.inc();
        self.metrics.snapshot_seq.set_max(snap_seq);
        self.metrics.durable_seq.set_max(snap_seq);

        // Every record in every segment now has seq <= snap_seq: the
        // snapshot covers them all, so truncation deletes whole segments.
        let survivors = list_segments(&self.dir)?;
        let next = wal.next_name().max(snap_seq + 1);
        wal.log.rotate(next)?;
        wal.last_name = next;
        self.metrics.segments_created.inc();
        let active = log::segment_path(&self.dir, next);
        for (_, path) in survivors {
            if path != active {
                std::fs::remove_file(&path)?;
                self.metrics.segments_deleted.inc();
            }
        }
        remove_stale_snapshots(&self.dir, &snapshot_path(&self.dir, snap_seq))?;
        log::sync_dir(&self.dir)?;
        wal.since_snapshot = 0;
        Ok(snap_seq)
    }
}

impl<K, V, S> Drop for DurableMap<K, V, S>
where
    K: Ord + Clone + Send + Sync + KeyCodec + 'static,
    V: Clone + Send + Sync + KeyCodec + 'static,
    S: BatchedMap<K, V> + Clone + Send + Sync,
{
    fn drop(&mut self) {
        // Best-effort final drain + fsync; `close()` is the error-
        // reporting path.  Skip when wedged (appending could corrupt) or
        // when the wal mutex is poisoned by a panicking thread.
        let Ok(mut wal) = self.wal.lock() else { return };
        if self.wedged.load(Ordering::Acquire) || self.inner.is_poisoned() {
            return;
        }
        let _ = self
            .drain_into(&mut wal)
            .and_then(|()| self.fsync_wal(&mut wal));
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
        let scratch = || store.wal.lock().unwrap().buf.capacity();
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

    /// Reads never touch the WAL: with the wal lock held by this thread —
    /// another client's append or fsync in progress — a second thread's
    /// reads must still return.  (They used to publish, and queued here.)
    #[test]
    fn reads_return_while_the_wal_lock_is_held() {
        let dir = scratch_dir("readlock");
        let store = Arc::new(open::<u64>(&dir, DurableOptions::default()));
        store.upsert(1, 10).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let wal = store.wal.lock().unwrap();
        let reader = {
            let store = Arc::clone(&store);
            thread::spawn(move || tx.send(all_reads(&store)).unwrap())
        };
        let answered = rx.recv_timeout(std::time::Duration::from_secs(10));
        drop(wal);
        reader.join().unwrap();
        answered
            .expect("reads blocked on the wal lock")
            .expect("reads of a healthy store succeed");
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
