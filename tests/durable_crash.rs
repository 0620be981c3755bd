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
//! prefix survived" is readable straight off the recovered length.
//!
//! The suite is generic over the value type and runs twice: at `V = ()`
//! (the set) and at `V = u64`, where each key `k` carries the derived value
//! `k * 2 + 1` and the contract is strictly stronger — every key must come
//! back with the exact value it was committed with.  A recovery that
//! replays keys but invents, drops, or cross-wires values passes the first
//! run and fails the second.

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Command, Stdio};

use pbist_repro::{
    batchapi::{Batch, KeyCodec, KvBatch},
    durable::{DurableMap, DurableOptions},
    forkjoin::Pool,
    pbist::IstMap,
};

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

fn open<V: Val>(dir: &PathBuf, group_commit: u64) -> DurableMap<u64, V, IstMap<u64, V>> {
    DurableMap::open(
        dir,
        Pool::new(1).expect("pool"),
        DurableOptions {
            group_commit,
            ..DurableOptions::default()
        },
        |batch| IstMap::from_batch(&batch),
    )
    .expect("open durable store")
}

/// The child: upsert batch `i` = `[i*B, (i+1)*B)` with derived values,
/// then acknowledge it by printing `ACK <i> <durable_seq>` on a flushed
/// line.  Runs until the parent kills it.
fn run_child<V: Val>() -> ! {
    let dir = PathBuf::from(std::env::var_os(DIR_ENV).expect("child needs the dir"));
    let group: u64 = std::env::var(GROUP_ENV)
        .expect("child needs the group size")
        .parse()
        .expect("group size");
    let set = open::<V>(&dir, group);
    let stdout = std::io::stdout();
    let mut i = 0u64;
    loop {
        let entries = (i * BATCH..(i + 1) * BATCH).map(|k| (k, V::of(k)));
        let batch = KvBatch::from_unsorted_entries(entries.collect());
        set.batch_insert(&batch).expect("child batch_insert");
        // One flushed line per acknowledged batch: pipes are block-
        // buffered, and an ACK the parent never sees is no ACK at all.
        let mut out = stdout.lock();
        writeln!(out, "ACK {i} {}", set.durable_seq()).expect("child stdout");
        out.flush().expect("child flush");
        i += 1;
    }
}

/// One parent run: spawn the child, kill it after `acks` acknowledged
/// batches, recover, verify the contract — keys *and* values.
///
/// `tear_tail` appends garbage to the dead child's last log segment
/// before recovering.  A `SIGKILL` alone cannot produce a torn record —
/// the kernel completes an in-flight `write` even as it reaps the
/// process, and each record is one `write` — so this stands in for the
/// crash that *does* tear: power loss mid-write.  Returns whether the
/// first recovery observed a torn tail.
fn crash_once<V: Val>(tag: &str, group_commit: u64, acks: u64, tear_tail: bool) -> bool {
    let dir = std::env::temp_dir().join(format!(
        "durable-crash-{}-{}-g{group_commit}-a{acks}",
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
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn child");

    // Read ACK lines off the pipe (ignoring libtest chatter), and kill
    // the instant the threshold arrives: the child is then almost
    // certainly inside a later append/fsync — exactly "mid-commit".
    let stdout = child.stdout.take().expect("piped stdout");
    let mut last_ack = None;
    let mut last_durable = 0u64;
    for line in BufReader::new(stdout).lines() {
        let line = line.expect("read child line");
        let mut parts = line.split_whitespace();
        if parts.next() != Some("ACK") {
            continue;
        }
        let i: u64 = parts.next().expect("ack index").parse().expect("ack index");
        last_durable = parts
            .next()
            .expect("ack durable_seq")
            .parse()
            .expect("ack durable_seq");
        last_ack = Some(i);
        if i + 1 >= acks {
            break;
        }
    }
    child.kill().expect("SIGKILL child");
    child.wait().expect("reap child");
    let last_ack = last_ack.expect("child produced no ACKs");
    assert_eq!(last_ack + 1, acks, "{tag}: parent read the wrong ACK count");

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
    let set = open::<V>(&dir, 1);
    let torn = set.metrics().counter("durable.torn_tails").unwrap_or(0) > 0;
    if tear_tail {
        assert!(torn, "{tag}: the injected tear went unnoticed");
    }

    // Round granularity: an exact prefix of whole batches survived.
    let len = set.len() as u64;
    assert_eq!(
        len % BATCH,
        0,
        "{tag}: recovered a fraction of a batch ({len} keys)"
    );
    let batches = len / BATCH;

    // Acknowledged implies recovered.  Batch i is the child's round
    // seq i + 1 (fresh dir, one round per batch_insert), so batches
    // `0..last_durable` were durable when the child last reported.
    assert!(
        batches >= last_durable,
        "{tag}: durable_seq said {last_durable} batches were on disk, \
         but only {batches} were recovered"
    );
    if group_commit == 1 {
        // Every return was an fsync: the last ACKed batch itself is
        // covered by the guarantee, not just the durable-mark prefix.
        assert!(
            batches > last_ack,
            "{tag}: batch {last_ack} was acknowledged under group_commit=1 \
             but did not survive ({batches} batches recovered)"
        );
    }
    // And the prefix really is the contents: every key below the count,
    // each carrying the exact value it was committed with.
    let probe = Batch::from_unsorted((0..len).collect());
    let hits = set.batch_get(&probe).expect("probe recovered store");
    for (key, hit) in (0..len).zip(hits) {
        assert_eq!(
            hit,
            Some(V::of(key)),
            "{tag}: key {key} missing or recovered with the wrong value"
        );
    }
    drop(set);

    // Recovery healed the tear (truncation), so a second open replays a
    // clean log and sees the same state.
    let set = open::<V>(&dir, 1);
    assert_eq!(
        set.metrics().counter("durable.torn_tails"),
        Some(0),
        "{tag}: second open still sees a torn tail"
    );
    assert_eq!(set.len() as u64, len, "{tag}: second recovery differs");
    for key in 0..len {
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
    for (group_commit, acks, tear_tail) in [
        (1u64, 3u64, false),
        (1, 11, true),
        (1, 29, false),
        (4, 5, true),
        (4, 17, false),
        (16, 40, true),
    ] {
        let tag = format!("{}/g{group_commit}/a{acks}/tear={tear_tail}", V::NAME);
        if crash_once::<V>(&tag, group_commit, acks, tear_tail) {
            torn_seen += 1;
        }
    }
    assert!(torn_seen >= 3, "the injected tears must all be observed");
    println!("{}: runs that hit a torn tail: {torn_seen}/6", V::NAME);
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
