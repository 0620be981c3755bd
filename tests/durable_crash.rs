//! Kill-9 crash test for the durability tier.
//!
//! The only honest way to test crash recovery is to actually crash: the
//! parent re-executes this same test binary (`std::process::Command` on
//! `current_exe`, `--exact` on this very test, an env flag flipping it
//! into child mode), lets the child stream acknowledged batches over a
//! pipe, and `SIGKILL`s it mid-commit — no destructors, no flushes, the
//! process just stops.  The parent then recovers the directory and checks
//! the contract from the `durable` crate docs:
//!
//! * **acknowledged implies recovered** — every batch the child reported
//!   at or below its last printed `durable_seq` is present after
//!   recovery;
//! * **round granularity** — the recovered contents are an exact prefix
//!   of the child's batch sequence: whole trailing batches may be lost
//!   (they were past the durable mark), but never a fraction of one;
//! * **torn tails are tolerated** — recovery succeeds even when the kill
//!   landed mid-append, and a second open replays the healed log with no
//!   tear observed.
//!
//! The child writes disjoint batches `[i*B, (i+1)*B)` in order, so "which
//! prefix survived" is readable straight off the recovered length.  Some
//! runs use two writer threads, each with its own key range and its own
//! ACKs, so that one writer's rounds interleave with — and may be
//! combined into the fsynced groups of — the other's: each thread's
//! recovered batches must be a prefix of its own sequence.
//!
//! Some rows snapshot every 3 records, so kills also land inside a
//! snapshot's write, its rename and the truncation after it.
//!
//! The suite is generic over the value type and runs twice: at `V = ()`
//! (the set) and at `V = u64`, where each key `k` carries the derived value
//! `k * 2 + 1` and the contract is strictly stronger — every key must come
//! back with the exact value it was committed with.  A recovery that
//! replays keys but invents, drops, or cross-wires values passes the first
//! run and fails the second.
//!
//! A second test kills a snapshot at a known point: a child reopens a
//! snapshotted store and snapshots it again under a file-size limit far
//! below the snapshot's size, so `SIGXFSZ` stops it mid-write.  Whether the
//! new snapshot has the committed one's seq or a later one, the committed
//! snapshot must still recover every key with its value.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::process::ExitStatusExt;
use std::path::PathBuf;
use std::process::{Command, Stdio};

use batchapi::{KeyCodec, KvBatch};
use durable::{DurableMap, DurableOptions};
use forkjoin::Pool;
use pbist::IstMap;

/// Keys per child batch.
const BATCH: u64 = 4;

/// Child mode: write acknowledged batches forever (until killed).
const CHILD_ENV: &str = "DURABLE_CRASH_CHILD";
/// Directory handed to the child.
const DIR_ENV: &str = "DURABLE_CRASH_DIR";
/// Group-commit size the child runs with.
const GROUP_ENV: &str = "DURABLE_CRASH_GROUP";
/// Which value type the child runs at ([`Val::NAME`]).
const VALUES_ENV: &str = "DURABLE_CRASH_VALUES";
/// How many writer threads the child runs.
const WRITERS_ENV: &str = "DURABLE_CRASH_WRITERS";
/// The child's `snapshot_every`.
const SNAPSHOT_ENV: &str = "DURABLE_CRASH_SNAPSHOT_EVERY";
/// Child mode of the repeated-snapshot test: reopen, snapshot, exit.
const RESNAPSHOT_CHILD_ENV: &str = "DURABLE_CRASH_RESNAPSHOT_CHILD";

/// Writer `t` owns the keys `[t * STRIDE, (t + 1) * STRIDE)`.
const STRIDE: u64 = 1 << 32;

/// The value types the suite runs at.
trait Val: Clone + PartialEq + std::fmt::Debug + Send + Sync + KeyCodec + 'static {
    const NAME: &'static str;
    /// The value every key commits with — derived, so recovery can be
    /// checked end to end from the keys alone.
    fn of(key: u64) -> Self;
}

impl Val for () {
    const NAME: &'static str = "unit";
    fn of(_key: u64) {}
}

impl Val for u64 {
    const NAME: &'static str = "u64";
    fn of(key: u64) -> u64 {
        key * 2 + 1
    }
}

fn open<V: Val>(
    dir: &PathBuf,
    group_commit: u64,
    snapshot_every: u64,
) -> DurableMap<u64, V, IstMap<u64, V>> {
    DurableMap::open(
        dir,
        Pool::new(1).expect("pool"),
        DurableOptions {
            group_commit,
            snapshot_every,
            ..DurableOptions::default()
        },
        |batch| IstMap::from_batch(&batch),
    )
    .expect("open durable store")
}

fn env_u64(name: &str) -> u64 {
    let value = std::env::var(name).unwrap_or_else(|_| panic!("child needs {name}"));
    value.parse().expect(name)
}

/// The child: each writer thread `t` upserts its batch `i` =
/// `t * STRIDE + [i*B, (i+1)*B)` with derived values, then acknowledges it
/// by printing `ACK <t> <i> <durable_seq>` on a flushed line.  Runs until
/// the parent kills it.
fn run_child<V: Val>() -> ! {
    let dir = PathBuf::from(std::env::var_os(DIR_ENV).expect("child needs the dir"));
    let set = open::<V>(&dir, env_u64(GROUP_ENV), env_u64(SNAPSHOT_ENV));
    let write = |t: u64| -> ! {
        let stdout = std::io::stdout();
        let mut i = 0u64;
        loop {
            let keys = t * STRIDE + i * BATCH..t * STRIDE + (i + 1) * BATCH;
            let batch = KvBatch::from_unsorted_entries(keys.map(|k| (k, V::of(k))).collect());
            set.batch_insert(&batch).expect("child batch_insert");
            // One flushed line per acknowledged batch: pipes are block-
            // buffered, and an ACK the parent never sees is no ACK at all.
            let mut out = stdout.lock();
            writeln!(out, "ACK {t} {i} {}", set.durable_seq()).expect("child stdout");
            out.flush().expect("child flush");
            i += 1;
        }
    };
    std::thread::scope(|s| {
        for t in 1..env_u64(WRITERS_ENV) {
            s.spawn(move || write(t));
        }
        write(0)
    })
}

/// One parent run: spawn the child with `writers` writer threads and
/// `snapshot_every`, kill it after `acks` acknowledged batches (over all
/// writers), recover, verify the contract — keys *and* values, per writer.
///
/// `tear_tail` appends garbage to the dead child's last log segment
/// before recovering.  A `SIGKILL` alone cannot produce a torn record —
/// the kernel completes an in-flight `write` even as it reaps the
/// process, and each record is one `write` — so this stands in for the
/// crash that *does* tear: power loss mid-write.  Returns whether the
/// first recovery observed a torn tail.
fn crash_once<V: Val>(
    tag: &str,
    group_commit: u64,
    writers: u64,
    snapshot_every: u64,
    acks: u64,
    tear_tail: bool,
) -> bool {
    let dir = std::env::temp_dir().join(format!(
        "durable-crash-{}-{}-g{group_commit}-w{writers}-s{snapshot_every}-a{acks}",
        std::process::id(),
        V::NAME
    ));
    // A previous failed run may have left debris behind.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");

    let exe = std::env::current_exe().expect("current_exe");
    let mut child = Command::new(&exe)
        .arg("--exact")
        .arg("kill9_mid_commit_loses_nothing_acknowledged")
        .arg("--nocapture")
        .env(CHILD_ENV, "1")
        .env(DIR_ENV, &dir)
        .env(GROUP_ENV, group_commit.to_string())
        .env(VALUES_ENV, V::NAME)
        .env(WRITERS_ENV, writers.to_string())
        .env(SNAPSHOT_ENV, snapshot_every.to_string())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn child");

    // Read ACK lines off the pipe (ignoring libtest chatter), and kill
    // the instant the threshold arrives: the child is then almost
    // certainly inside a later append/fsync — exactly "mid-commit".
    let stdout = child.stdout.take().expect("piped stdout");
    // Per writer, the batches it acknowledged; and the highest durable
    // mark any writer reported.
    let mut acked = vec![0u64; writers as usize];
    let mut last_durable = 0u64;
    for line in BufReader::new(stdout).lines() {
        let line = line.expect("read child line");
        let mut parts = line.split_whitespace();
        if parts.next() != Some("ACK") {
            continue;
        }
        let mut field = |name| -> u64 {
            let field = parts.next().unwrap_or_else(|| panic!("ack {name}"));
            field.parse().unwrap_or_else(|_| panic!("ack {name}"))
        };
        let (t, i, durable) = (field("writer"), field("index"), field("durable_seq"));
        assert_eq!(
            acked[t as usize], i,
            "{tag}: writer {t} acknowledged out of order"
        );
        acked[t as usize] = i + 1;
        last_durable = last_durable.max(durable);
        if acked.iter().sum::<u64>() >= acks {
            break;
        }
    }
    child.kill().expect("SIGKILL child");
    child.wait().expect("reap child");
    assert_eq!(
        acked.iter().sum::<u64>(),
        acks,
        "{tag}: parent read the wrong ACK count"
    );

    if tear_tail {
        // The power-loss signature: the log ends in bytes that are not a
        // whole valid record.
        let last_segment = std::fs::read_dir(&dir)
            .expect("read dir")
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
            })
            .max()
            .expect("a log segment to tear");
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(last_segment)
            .expect("open segment to tear");
        file.write_all(&[0xAB; 20]).expect("tear the tail");
    }

    // Recover.  The child died with batches in flight (and possibly a
    // torn tail); open() must succeed regardless.
    let set = open::<V>(&dir, 1, 0);
    let torn = set.metrics().counter("durable.torn_tails").unwrap_or(0) > 0;
    if tear_tail {
        assert!(torn, "{tag}: the injected tear went unnoticed");
    }

    // Round granularity, per writer: an exact prefix of its whole batches
    // survived — every key of its range below the count, each carrying the
    // exact value it was committed with.
    let (keys, vals, _) = set.inner().snapshot_entries();
    let mut batches = 0u64;
    for t in 0..writers {
        let mine: Vec<(u64, V)> = (keys.iter().copied().zip(vals.iter().cloned()))
            .filter(|&(key, _)| key / STRIDE == t)
            .collect();
        let len = mine.len() as u64;
        assert_eq!(
            len % BATCH,
            0,
            "{tag}: writer {t}: recovered a fraction of a batch ({len} keys)"
        );
        let expect = (t * STRIDE..t * STRIDE + len).map(|key| (key, V::of(key)));
        assert!(
            mine.into_iter().eq(expect),
            "{tag}: writer {t}: the recovered keys are no prefix of its batches"
        );
        if group_commit == 1 {
            // Every return was an fsync: each writer's last ACKed batch is
            // covered by the guarantee, not just the durable-mark prefix.
            assert!(
                len / BATCH >= acked[t as usize],
                "{tag}: writer {t} acknowledged {} batches under group_commit=1, \
                 but only {} survived",
                acked[t as usize],
                len / BATCH
            );
        }
        batches += len / BATCH;
    }

    // Acknowledged implies recovered.  Every batch is one round, and a
    // fresh directory numbers the rounds 1, 2, … with each one logged, so
    // rounds `1..=last_durable` — that many batches — were on disk (in the
    // log or a snapshot) when a writer last reported.
    assert!(
        batches >= last_durable,
        "{tag}: durable_seq said {last_durable} batches were on disk, \
         but only {batches} were recovered"
    );
    let len = set.len() as u64;
    drop(set);

    // Recovery healed the tear (truncation), so a second open replays a
    // clean log and sees the same state.
    let set = open::<V>(&dir, 1, 0);
    assert_eq!(
        set.metrics().counter("durable.torn_tails"),
        Some(0),
        "{tag}: second open still sees a torn tail"
    );
    assert_eq!(set.len() as u64, len, "{tag}: second recovery differs");
    for &key in &keys {
        assert_eq!(
            set.get(&key).expect("get"),
            Some(V::of(key)),
            "{tag}: key {key} lost its value on the second recovery"
        );
    }
    drop(set);

    std::fs::remove_dir_all(&dir).expect("cleanup");
    torn
}

/// The whole crash grid at one value type.
fn crash_grid<V: Val>() {
    let mut torn_seen = 0u32;
    // (group_commit, writers, snapshot_every, acks, tear_tail)
    let grid = [
        (1u64, 1u64, 0u64, 3u64, false),
        (1, 1, 0, 11, true),
        (1, 1, 0, 29, false),
        (4, 1, 0, 5, true),
        (4, 1, 0, 17, false),
        (16, 1, 0, 40, true),
        (1, 2, 0, 30, false),
        (16, 2, 0, 60, true),
        (1, 1, 3, 23, false),
        (16, 1, 3, 50, false),
        (1, 2, 3, 31, false),
        (16, 2, 3, 61, true),
    ];
    for (group_commit, writers, snapshot_every, acks, tear_tail) in grid {
        let tag = format!(
            "{}/g{group_commit}/w{writers}/s{snapshot_every}/a{acks}/tear={tear_tail}",
            V::NAME
        );
        if crash_once::<V>(&tag, group_commit, writers, snapshot_every, acks, tear_tail) {
            torn_seen += 1;
        }
    }
    assert!(torn_seen >= 4, "the injected tears must all be observed");
    println!(
        "{}: runs that hit a torn tail: {torn_seen}/{}",
        V::NAME,
        grid.len()
    );
}

#[test]
fn kill9_mid_commit_loses_nothing_acknowledged() {
    if std::env::var_os(CHILD_ENV).is_some() {
        match std::env::var(VALUES_ENV).expect("child needs the value type") {
            name if name == <()>::NAME => run_child::<()>(),
            name if name == u64::NAME => run_child::<u64>(),
            other => panic!("unknown value type {other:?}"),
        }
    }
    crash_grid::<()>();
    crash_grid::<u64>();
}

/// The repeated-snapshot child: reopen the store, snapshot it, exit.  Run
/// under a 4 KiB file-size limit, it dies of `SIGXFSZ` mid-write.
fn run_resnapshot_child() -> ! {
    let dir = PathBuf::from(std::env::var_os(DIR_ENV).expect("child needs the dir"));
    let set = open::<u64>(&dir, 1, 0);
    set.snapshot().expect("child snapshot");
    std::process::exit(0)
}

/// Regression: a snapshot retaken at an unchanged seq once overwrote the
/// committed snapshot file in place, after its log segments were deleted,
/// so a crash mid-write lost the whole store.  The committed snapshot
/// must survive a kill at any point of the next one's write — at the same
/// seq (no write in between) and at a new one (one write in between).
#[test]
fn a_repeated_snapshot_killed_mid_write_loses_nothing() {
    if std::env::var_os(RESNAPSHOT_CHILD_ENV).is_some() {
        run_resnapshot_child();
    }
    // 20 000 `u64 → u64` entries: a 320 KB snapshot, far past the limit.
    const KEYS: u64 = 20_000;
    const SIGXFSZ: i32 = 25;
    for write_between in [false, true] {
        let tag = format!("write_between={write_between}");
        let dir = std::env::temp_dir().join(format!(
            "durable-resnapshot-{}-{write_between}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let keys = 0..KEYS + write_between as u64;

        let set = open::<u64>(&dir, 1, 0);
        let pairs = (0..KEYS).map(|k| (k, u64::of(k))).collect();
        set.batch_insert(&KvBatch::from_unsorted_entries(pairs))
            .expect("prefill");
        set.snapshot().expect("first snapshot");
        if write_between {
            set.upsert(KEYS, u64::of(KEYS)).expect("write in between");
        }
        set.close().expect("close");

        let exe = std::env::current_exe().expect("current_exe");
        let status = Command::new("sh")
            .arg("-c")
            .arg("ulimit -f 8; exec \"$0\" \"$@\"")
            .arg(&exe)
            .arg("--exact")
            .arg("a_repeated_snapshot_killed_mid_write_loses_nothing")
            .arg("--nocapture")
            .env(RESNAPSHOT_CHILD_ENV, "1")
            .env(DIR_ENV, &dir)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .expect("run child");
        assert_eq!(
            status.signal(),
            Some(SIGXFSZ),
            "{tag}: the child's snapshot was not cut mid-write ({status})"
        );

        let set = open::<u64>(&dir, 1, 0);
        let (got_keys, got_vals, _) = set.inner().snapshot_entries();
        assert!(
            got_keys.iter().copied().eq(keys.clone()),
            "{tag}: keys lost"
        );
        assert!(
            got_vals.iter().copied().eq(keys.map(u64::of)),
            "{tag}: values differ"
        );
        drop(set);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
