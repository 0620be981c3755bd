//! WAL segment files, and the one record reader and one directory listing
//! for segments and snapshots alike.
//!
//! The log is a directory of segments named `wal-<seq>.log` (20-digit
//! zero-padded, so lexicographic name order is numeric seq order).  A
//! segment's name is the smallest sequence number any record inside it may
//! carry: segments are created when the previous one reaches its size
//! threshold, and are named `appended_seq + 1` at that moment.  Because
//! records are appended in strictly increasing seq order, this gives two
//! recovery invariants for free:
//!
//! 1. replaying segments in name order replays records in seq order, and
//! 2. a snapshot at seq `S` makes *every* record in *every* current
//!    segment redundant (all have seq <= `S`), so truncation after a
//!    snapshot deletes whole segments — never a byte range.
//!
//! The directory listing is the store's only index: no file records which
//! other files count.  [`list_files`] reads the seq out of each name, for
//! segments (`wal-<seq>.log`) and committed snapshots (`snap-<seq>.snap`)
//! alike, and recovery takes the highest-seq snapshot as its root.
//!
//! Both kinds of file are one format: an 8-byte header ([`stamped_magic`]:
//! the tag `PBWAL` or `PBSNP`, the key and value widths, the format
//! version), then records ([`crate::record`]), read by [`read_records`].
//! A segment too short for the header, or not one of ours at all, replays
//! as torn at offset zero — what a crash during `create` leaves behind.  A
//! *well-formed* header for other widths (a differently-typed store) or
//! another version is not damage and must never be "healed": it is
//! refused with `InvalidData` and the directory is left untouched.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use batchapi::KeyCodec;

use crate::record::{decode_record, DecodeOutcome, WalRecord};

/// The on-disk format version stamped into every header.  Versions 1 and 2
/// were the keys-only and key-value dialects of the WAL; version 3 wrote a
/// kind byte before every op and gave a snapshot a byte layout of its own.
const FORMAT_VERSION: u8 = 4;

/// The 8-byte header of a file holding `K` keys and `V` values: a 5-byte
/// format `tag`, `K::WIDTH`, `V::WIDTH`, [`FORMAT_VERSION`].  The widths
/// are the part of the type that decides how bytes are framed, so a file
/// names them itself rather than trusting whoever opens it.
pub(crate) fn stamped_magic<K: KeyCodec, V: KeyCodec>(tag: &[u8; 5]) -> [u8; 8] {
    let width = |w: usize| u8::try_from(w).expect("codec widths fit in a byte");
    let mut magic = [0u8; 8];
    magic[..5].copy_from_slice(tag);
    magic[5..].copy_from_slice(&[width(K::WIDTH), width(V::WIDTH), FORMAT_VERSION]);
    magic
}

/// Compares a file's leading bytes with the header its opener expects:
/// `Ok(true)` when they match, `Ok(false)` when the file carries no header
/// of this format at all (too short — a crash during `create` — or
/// foreign bytes), and `InvalidData` when it carries a well-formed header
/// for *other* widths or another version.  The last case is a mistyped
/// `open`, not damage: treating it as a tear would truncate or delete a
/// perfectly valid log.
pub(crate) fn check_magic(found: &[u8], expect: &[u8; 8], path: &Path) -> io::Result<bool> {
    let Some(found) = found.get(..8) else {
        return Ok(false);
    };
    if found == expect {
        return Ok(true);
    }
    if found[..5] != expect[..5] {
        return Ok(false);
    }
    Err(io::Error::new(
        io::ErrorKind::InvalidData,
        format!(
            "{} was written with {}-byte keys and {}-byte values (format version {}), \
             but is being opened with {}-byte keys and {}-byte values (version {}); \
             refusing to touch it",
            path.display(),
            found[5],
            found[6],
            found[7],
            expect[5],
            expect[6],
            expect[7],
        ),
    ))
}

/// The header of a WAL segment holding `K` keys and `V` values.
pub(crate) fn segment_magic<K: KeyCodec, V: KeyCodec>() -> [u8; 8] {
    stamped_magic::<K, V>(b"PBWAL")
}

/// The active segment an open [`DurableMap`](crate::DurableMap) appends to.
#[derive(Debug)]
pub(crate) struct SegmentLog {
    dir: PathBuf,
    file: File,
    /// The header this log stamps on every segment it creates; rotation
    /// preserves it.
    magic: [u8; 8],
    /// Bytes written to the active segment (including the magic).
    bytes: u64,
    /// Rotation threshold; the active segment rotates once `bytes`
    /// exceeds it.  A single record never splits across segments.
    segment_bytes: u64,
}

impl SegmentLog {
    /// Creates (truncating) the active segment `wal-<name_seq>.log` and
    /// makes its directory entry durable.
    pub(crate) fn create(
        dir: &Path,
        name_seq: u64,
        segment_bytes: u64,
        magic: [u8; 8],
    ) -> io::Result<SegmentLog> {
        let path = segment_path(dir, name_seq);
        let mut file = File::create(&path)?;
        file.write_all(&magic)?;
        file.sync_all()?;
        sync_dir(dir)?;
        Ok(SegmentLog {
            dir: dir.to_path_buf(),
            file,
            magic,
            bytes: magic.len() as u64,
            segment_bytes,
        })
    }

    /// Appends raw encoded record bytes (no fsync).
    pub(crate) fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.file.write_all(bytes)?;
        self.bytes += bytes.len() as u64;
        Ok(())
    }

    /// Forces everything appended so far onto disk.
    pub(crate) fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    /// Whether the active segment has reached its rotation threshold.
    pub(crate) fn wants_rotation(&self) -> bool {
        self.bytes >= self.segment_bytes
    }

    /// Rotates to a fresh segment named `name_seq`.  The caller must have
    /// synced the old segment first (rotation seals it; nothing ever
    /// appends to it again).
    pub(crate) fn rotate(&mut self, name_seq: u64) -> io::Result<()> {
        let next = SegmentLog::create(&self.dir, name_seq, self.segment_bytes, self.magic)?;
        *self = next;
        Ok(())
    }

    /// Bytes written to the active segment so far.
    #[cfg(test)]
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Replaces the active segment's file handle, returning the old one.
    #[cfg(test)]
    pub(crate) fn swap_file(&mut self, file: File) -> File {
        std::mem::replace(&mut self.file, file)
    }
}

/// Path of the segment named `seq` inside `dir`.
pub(crate) fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:020}.log"))
}

/// Every file in `dir` named `<prefix><seq><suffix>`, sorted by `seq`:
/// `("wal-", ".log")` lists the segments, `("snap-", ".snap")` the
/// committed snapshots.  Any other name is ignored — segments and
/// snapshots share the directory, and a snapshot still being written is a
/// `snap-<seq>.tmp`.
pub(crate) fn list_files(
    dir: &Path,
    prefix: &str,
    suffix: &str,
) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut files = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let seq = name.to_str().and_then(|name| {
            name.strip_prefix(prefix)?
                .strip_suffix(suffix)?
                .parse()
                .ok()
        });
        if let Some(seq) = seq {
            files.push((seq, entry.path()));
        }
    }
    files.sort_unstable_by_key(|&(seq, _)| seq);
    Ok(files)
}

/// How reading one file's records ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SegmentEnd {
    /// Every byte decoded as a record; the file is intact.
    Clean,
    /// The valid prefix ends at this byte offset (torn final write, bit
    /// rot, or a foreign/empty file).  Recovery truncates a segment here.
    Torn(u64),
}

/// Reads one file headed by `magic` — a segment or a snapshot — feeding
/// each valid record to `apply` in order.  `apply` returns `false` to
/// reject a record (recovery uses this to treat a non-increasing sequence
/// number as damage); the rejected record's offset is reported as the tear.
///
/// # Errors
///
/// I/O failure, or `InvalidData` when the header names other widths than
/// `K`/`V`, or another format version (see [`check_magic`]).
pub(crate) fn read_records<K, V, F>(
    path: &Path,
    magic: &[u8; 8],
    mut apply: F,
) -> io::Result<SegmentEnd>
where
    K: KeyCodec,
    V: KeyCodec,
    F: FnMut(WalRecord<K, V>) -> bool,
{
    let mut buf = Vec::new();
    File::open(path)?.read_to_end(&mut buf)?;
    if !check_magic(&buf, magic, path)? {
        return Ok(SegmentEnd::Torn(0));
    }
    let mut at = magic.len();
    loop {
        match decode_record::<K, V>(&buf, at) {
            DecodeOutcome::Clean => return Ok(SegmentEnd::Clean),
            DecodeOutcome::Torn => return Ok(SegmentEnd::Torn(at as u64)),
            DecodeOutcome::Record { record, consumed } => {
                if !apply(record) {
                    return Ok(SegmentEnd::Torn(at as u64));
                }
                at += consumed;
            }
        }
    }
}

/// Truncates the file at `path` to `len` bytes and syncs it — recovery's
/// cleanup of a torn tail, so the next open sees a clean log.
pub(crate) fn truncate_segment(path: &Path, len: u64) -> io::Result<()> {
    let file = OpenOptions::new().write(true).open(path)?;
    file.set_len(len)?;
    file.sync_all()
}

/// Makes `dir`'s entries durable.  File creation, deletion and rename are
/// directory mutations: without this an fsynced *file* can survive a crash
/// while its *name* does not.
pub(crate) fn sync_dir(dir: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        File::open(dir)?.sync_all()
    }
    #[cfg(not(unix))]
    {
        // Windows has no directory handle sync with std; rely on the
        // file-level syncs (tests and CI for this workspace run on unix).
        let _ = dir;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::encode_record;
    use combine::OpKind;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_ID: AtomicU64 = AtomicU64::new(0);

    fn scratch_dir(tag: &str) -> PathBuf {
        let id = DIR_ID.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "durable-log-test-{}-{tag}-{id}",
            std::process::id()
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Reads a segment written with `segment_magic::<K, V>()`.
    fn replay<K: KeyCodec, V: KeyCodec, F: FnMut(WalRecord<K, V>) -> bool>(
        path: &Path,
        apply: F,
    ) -> io::Result<SegmentEnd> {
        read_records(path, &segment_magic::<K, V>(), apply)
    }

    fn one_record(seq: u64, key: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_record(seq, OpKind::Insert, &[key], Some(&[()]), 0..1, &mut buf);
        buf
    }

    #[test]
    fn append_replay_round_trips_across_rotation() {
        let dir = scratch_dir("rotate");
        // Tiny threshold: every record trips rotation.
        let mut log = SegmentLog::create(&dir, 1, 16, segment_magic::<u64, ()>()).unwrap();
        for seq in 1..=5u64 {
            if log.wants_rotation() {
                log.sync().unwrap();
                log.rotate(seq).unwrap();
            }
            log.append(&one_record(seq, seq * 10)).unwrap();
        }
        log.sync().unwrap();

        let segments = list_files(&dir, "wal-", ".log").unwrap();
        assert!(segments.len() > 1, "rotation should have split the log");
        assert!(segments.windows(2).all(|w| w[0].0 < w[1].0));

        let mut seen = Vec::new();
        for (_, path) in &segments {
            let end = replay::<u64, (), _>(path, |r| {
                seen.push((r.seq, r.kind, r.keys));
                true
            })
            .unwrap();
            assert_eq!(end, SegmentEnd::Clean);
        }
        assert_eq!(
            seen,
            (1..=5u64)
                .map(|s| (s, OpKind::Insert, vec![s * 10]))
                .collect::<Vec<_>>()
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_reports_the_valid_prefix_and_truncation_heals_it() {
        let dir = scratch_dir("torn");
        let mut log = SegmentLog::create(&dir, 1, u64::MAX, segment_magic::<u64, ()>()).unwrap();
        log.append(&one_record(1, 7)).unwrap();
        let valid_end = log.bytes();
        let mut partial = one_record(2, 8);
        partial.truncate(partial.len() - 3);
        log.append(&partial).unwrap();
        log.sync().unwrap();

        let path = segment_path(&dir, 1);
        let mut count = 0;
        let end = replay::<u64, (), _>(&path, |_| {
            count += 1;
            true
        })
        .unwrap();
        assert_eq!(count, 1);
        assert_eq!(end, SegmentEnd::Torn(valid_end));

        truncate_segment(&path, valid_end).unwrap();
        let end = replay::<u64, (), _>(&path, |_| true).unwrap();
        assert_eq!(end, SegmentEnd::Clean);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn foreign_or_headerless_file_is_torn_at_zero() {
        let dir = scratch_dir("magic");
        let path = segment_path(&dir, 3);
        fs::write(&path, b"not a wal segment").unwrap();
        let end = replay::<u64, (), _>(&path, |_| panic!("no records")).unwrap();
        assert_eq!(end, SegmentEnd::Torn(0));
        fs::write(&path, b"xy").unwrap();
        let end = replay::<u64, (), _>(&path, |_| panic!("no records")).unwrap();
        assert_eq!(end, SegmentEnd::Torn(0));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_header_for_other_widths_is_refused_not_torn() {
        let dir = scratch_dir("widths");
        let mut log = SegmentLog::create(&dir, 1, u64::MAX, segment_magic::<u64, ()>()).unwrap();
        log.append(&one_record(1, 7)).unwrap();
        log.sync().unwrap();
        let path = segment_path(&dir, 1);
        for err in [
            replay::<u64, u64, _>(&path, |_| panic!("no records")).unwrap_err(),
            replay::<u32, (), _>(&path, |_| panic!("no records")).unwrap_err(),
        ] {
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            assert!(err.to_string().contains("8-byte keys"), "{err}");
        }
        // Read with the types it was written with, the segment is intact.
        let end = replay::<u64, (), _>(&path, |_| true).unwrap();
        assert_eq!(end, SegmentEnd::Clean);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A segment of an older format version frames its records otherwise:
    /// it is refused, never healed as a torn log.
    #[test]
    fn a_header_from_format_version_3_is_refused_not_torn() {
        let dir = scratch_dir("version");
        let mut log = SegmentLog::create(&dir, 1, u64::MAX, segment_magic::<u64, ()>()).unwrap();
        log.append(&one_record(1, 7)).unwrap();
        log.sync().unwrap();
        let path = segment_path(&dir, 1);
        let mut bytes = fs::read(&path).unwrap();
        assert_eq!(bytes[7], FORMAT_VERSION);
        bytes[7] = 3;
        fs::write(&path, &bytes).unwrap();
        let err = replay::<u64, (), _>(&path, |_| panic!("no records")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("format version 3"), "{err}");
        assert_eq!(fs::read(&path).unwrap(), bytes, "a refused read wrote");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn listing_ignores_non_segment_files() {
        let dir = scratch_dir("list");
        SegmentLog::create(&dir, 2, 64, segment_magic::<u64, ()>()).unwrap();
        fs::write(dir.join("snap-00000000000000000001.snap"), b"s").unwrap();
        fs::write(dir.join("snap-00000000000000000009.tmp"), b"t").unwrap();
        fs::write(dir.join("wal-junk.log"), b"j").unwrap();
        let segments = list_files(&dir, "wal-", ".log").unwrap();
        assert_eq!(segments, vec![(2, segment_path(&dir, 2))]);
        let snapshots = list_files(&dir, "snap-", ".snap").unwrap();
        assert_eq!(snapshots.len(), 1, "a .tmp is not a snapshot");
        assert_eq!(snapshots[0].0, 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}
