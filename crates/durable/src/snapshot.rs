//! Snapshot files, each committed by renaming itself into place.
//!
//! A snapshot is the store's full contents at one linearisation point,
//! paired with that point's sequence number `S`: loading the snapshot and
//! replaying WAL records with seq > `S` reconstructs the exact state.
//! It is written to `snap-<S>.tmp` and fsynced, then renamed to
//! `snap-<S>.snap` and the directory fsynced.  The rename is the commit
//! point: crash before it and the previous snapshot (or none) still rules,
//! with the `.tmp` ignored; crash after it and the new one rules — there is
//! no in-between state, and a snapshot retaken at an unchanged `S` replaces
//! the committed file atomically instead of overwriting it in place.
//!
//! The file has no byte layout of its own: it is a WAL segment's format
//! under its own tag ([`stamped_magic`], `PBSNP`) — a stamped header, then
//! insert records ([`crate::record`]), every one at seq `S`, holding the
//! entries in strictly ascending key order, at most
//! [`MAX_PAYLOAD`](crate::record::MAX_PAYLOAD) bytes a record, and closed
//! by one empty record.  The WAL never writes an empty record (a round
//! that logs nothing writes none), so the end mark is unambiguous: a file
//! cut at a record boundary lacks it.  Each record's checksum covers its
//! bytes, and the stamped header names the key and value widths, so
//! opening a snapshot as another type is refused with a message that says
//! so rather than "corrupt".
//!
//! Recovery's root is the highest-seq `snap-*.snap` in the directory
//! ([`list_files`](crate::log::list_files)), and its records' seq must
//! equal the seq in its name.  No snapshot means a fresh (or
//! never-snapshotted) directory and is normal; a *corrupt* root — a torn
//! record, a missing end mark, a remove record, keys out of order — is an
//! error: silently falling back to an older snapshot or to none would
//! present data loss as a clean recovery, because committing the root is
//! what authorised deleting older log segments.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use batchapi::{KeyCodec, KvBatch};
use combine::OpKind;

use crate::log::{read_records, stamped_magic, sync_dir, SegmentEnd};
use crate::record::{encode_record, payload_len, MAX_PAYLOAD};

/// The header of a snapshot holding `K` keys and `V` values.
fn snap_magic<K: KeyCodec, V: KeyCodec>() -> [u8; 8] {
    stamped_magic::<K, V>(b"PBSNP")
}

/// Path of the snapshot taken at `seq` inside `dir`.
pub(crate) fn snapshot_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("snap-{seq:020}.snap"))
}

/// Writes the snapshot of `keys -> vals` (keys must be strictly ascending,
/// `vals` parallel to them) taken at `seq` and commits it: write and fsync
/// `snap-<seq>.tmp`, rename it to `snap-<seq>.snap`, fsync the directory.
/// Once this returns the snapshot is the recovery root.
pub(crate) fn write_snapshot<K: KeyCodec, V: KeyCodec>(
    dir: &Path,
    seq: u64,
    keys: &[K],
    vals: &[V],
) -> io::Result<()> {
    debug_assert_eq!(keys.len(), vals.len());
    let entry = (K::WIDTH + V::WIDTH).max(1);
    let per_record = (MAX_PAYLOAD - payload_len::<K, V>(OpKind::Insert, 0)) / entry;
    let mut buf = snap_magic::<K, V>().to_vec();
    for (keys, vals) in keys.chunks(per_record).zip(vals.chunks(per_record)) {
        encode_record(
            seq,
            OpKind::Insert,
            keys,
            Some(vals),
            0..keys.len(),
            &mut buf,
        );
    }
    // The end mark: an insert record of no ops.
    encode_record(seq, OpKind::Insert, keys, Some(vals), 0..0, &mut buf);

    let path = snapshot_path(dir, seq);
    let tmp = path.with_extension("tmp");
    let mut file = File::create(&tmp)?;
    file.write_all(&buf)?;
    file.sync_all()?;
    drop(file);
    fs::rename(&tmp, &path)?;
    sync_dir(dir)
}

/// Loads and verifies the snapshot at `path`, which its name says was
/// taken at `seq`, returning its entries as one batch.  Anything else — a
/// damaged record, a missing end mark, a remove record, keys out of order,
/// a record seq other than `seq` (the file is not the snapshot its name
/// claims) — is `InvalidData`.
pub(crate) fn load_snapshot<K: KeyCodec + Ord, V: KeyCodec>(
    path: &Path,
    seq: u64,
) -> io::Result<KvBatch<K, V>> {
    let (mut keys, mut vals, mut closed) = (Vec::new(), Vec::new(), false);
    let end = read_records::<K, V, _>(path, &snap_magic::<K, V>(), |record| {
        let sound = record.seq == seq && record.kind == OpKind::Insert && !closed;
        closed = record.keys.is_empty();
        keys.extend(record.keys);
        vals.extend(record.vals);
        sound
    })?;
    // Only a file of insert records closed by the end mark has a value for
    // every key, so the batch is built after that check, never before.
    let batch = match end {
        SegmentEnd::Clean if closed => KvBatch::from_sorted_parts(keys, vals).ok(),
        _ => None,
    };
    batch.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "{} is not a sound snapshot taken at seq {seq}",
                path.display()
            ),
        )
    })
}

/// Deletes every `snap-*` entry in `dir` except `keep`: the superseded
/// snapshot, and any `.tmp` a crash mid-write left behind.  Run only after
/// `keep` is committed.
pub(crate) fn remove_stale_snapshots(dir: &Path, keep: &Path) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let stale = path
            .file_name()
            .and_then(|name| name.to_str())
            .is_some_and(|name| name.starts_with("snap-"));
        if stale && path != keep {
            fs::remove_file(&path)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_ID: AtomicU64 = AtomicU64::new(0);

    fn scratch_dir(tag: &str) -> PathBuf {
        let id = DIR_ID.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "durable-snap-test-{}-{tag}-{id}",
            std::process::id()
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn snapshot_and_manifest_round_trip() {
        let dir = scratch_dir("roundtrip");
        let keys: Vec<u64> = vec![3, 9, 27, u64::MAX];
        let vals: Vec<u64> = keys.iter().map(|k| k ^ 0xABCD).collect();
        write_snapshot(&dir, 41, &keys, &vals).unwrap();
        let path = snapshot_path(&dir, 41);
        let loaded = load_snapshot::<u64, u64>(&path, 41).unwrap();
        assert_eq!(loaded.into_parts(), (keys.clone(), vals));
        assert!(
            !path.with_extension("tmp").exists(),
            "the commit renamed it"
        );
        // The set instance: same file shape, zero value bytes per entry.
        let units = vec![(); keys.len()];
        write_snapshot(&dir, 42, &keys, &units).unwrap();
        let path = snapshot_path(&dir, 42);
        let len = fs::metadata(&path).unwrap().len();
        // The header, one record of 4 keys, the end mark.
        assert_eq!(len as usize, 8 + (12 + 13 + keys.len() * 8) + (12 + 13));
        let loaded = load_snapshot::<u64, ()>(&path, 42).unwrap();
        assert_eq!(loaded.into_parts(), (keys, units));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_snapshot_is_valid() {
        let dir = scratch_dir("empty");
        write_snapshot::<u64, ()>(&dir, 0, &[], &[]).unwrap();
        let loaded = load_snapshot::<u64, ()>(&snapshot_path(&dir, 0), 0).unwrap();
        assert_eq!(loaded.into_parts(), (vec![], vec![]));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_snapshot_or_manifest_is_an_error_not_a_fallback() {
        let dir = scratch_dir("corrupt");
        write_snapshot(&dir, 5, &[1u64, 2], &[(), ()]).unwrap();
        let snap_path = snapshot_path(&dir, 5);
        let mut bytes = fs::read(&snap_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&snap_path, &bytes).unwrap();
        assert_eq!(
            load_snapshot::<u64, ()>(&snap_path, 5).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    /// An intact file under another seq's name is not that seq's snapshot.
    #[test]
    fn a_header_seq_other_than_the_name_is_refused() {
        let dir = scratch_dir("renamed");
        write_snapshot(&dir, 5, &[1u64, 2], &[(), ()]).unwrap();
        let err = load_snapshot::<u64, ()>(&snapshot_path(&dir, 5), 6).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("seq 6"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Hand-builds a set snapshot named for seq 1 from `(seq, kind, keys)`
    /// records — honest checksums, so only the planted defect is wrong —
    /// and loads it.
    fn load_records(tag: &str, records: &[(u64, OpKind, &[u64])]) -> io::Result<Vec<u64>> {
        let dir = scratch_dir(tag);
        let mut buf = snap_magic::<u64, ()>().to_vec();
        for &(seq, kind, keys) in records {
            let units = vec![(); keys.len()];
            encode_record(seq, kind, keys, Some(&units), 0..keys.len(), &mut buf);
        }
        let path = snapshot_path(&dir, 1);
        fs::write(&path, &buf).unwrap();
        let loaded = load_snapshot::<u64, ()>(&path, 1).map(|batch| batch.into_parts().0);
        fs::remove_dir_all(&dir).unwrap();
        loaded
    }

    const END: (u64, OpKind, &[u64]) = (1, OpKind::Insert, &[]);

    #[test]
    fn unsorted_snapshot_keys_are_rejected() {
        let within = load_records("unsorted", &[(1, OpKind::Insert, &[9, 3]), END]);
        let across = load_records(
            "unsorted",
            &[(1, OpKind::Insert, &[2, 9]), (1, OpKind::Insert, &[9]), END],
        );
        for loaded in [within, across] {
            assert_eq!(loaded.unwrap_err().kind(), io::ErrorKind::InvalidData);
        }
        // The same records in order load.
        let sound = load_records(
            "sorted",
            &[
                (1, OpKind::Insert, &[2, 9]),
                (1, OpKind::Insert, &[10]),
                END,
            ],
        );
        assert_eq!(sound.unwrap(), vec![2, 9, 10]);
    }

    /// A snapshot is insert records closed by the end mark, all at its
    /// name's seq: anything else is refused as corrupt, never read as a
    /// shorter snapshot.
    #[test]
    fn a_snapshot_that_is_not_insert_records_closed_by_the_end_mark_is_refused() {
        let ins: (u64, OpKind, &[u64]) = (1, OpKind::Insert, &[2, 9]);
        for (what, records) in [
            ("cut at a record boundary", vec![ins]),
            ("no records at all", vec![]),
            (
                "holding a remove record",
                vec![ins, (1, OpKind::Remove, &[10][..]), END],
            ),
            (
                "a record after the end mark",
                vec![ins, END, (1, OpKind::Insert, &[10][..])],
            ),
            ("a second end mark", vec![ins, END, END]),
            (
                "a record of another seq",
                vec![ins, (2, OpKind::Insert, &[10][..]), END],
            ),
            (
                "an end mark of another seq",
                vec![ins, (0, OpKind::Insert, &[][..])],
            ),
        ] {
            let err = load_records("not-insert-records", &records).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
        }
        assert_eq!(load_records("sound", &[ins, END]).unwrap(), vec![2, 9]);
    }

    /// A snapshot larger than one record's payload limit spans several
    /// records and reads back whole.
    #[test]
    fn a_snapshot_larger_than_one_record_round_trips() {
        let dir = scratch_dir("multi-record");
        let per_record = (MAX_PAYLOAD - 13) / 8;
        let keys: Vec<u64> = (0..per_record as u64 + 3).map(|k| k * 3).collect();
        let units = vec![(); keys.len()];
        write_snapshot(&dir, 8, &keys, &units).unwrap();
        let path = snapshot_path(&dir, 8);
        let len = fs::metadata(&path).unwrap().len() as usize;
        assert_eq!(
            len,
            8 + 3 * (12 + 13) + keys.len() * 8,
            "two records and the end mark"
        );
        let loaded = load_snapshot::<u64, ()>(&path, 8).unwrap();
        assert_eq!(loaded.into_parts(), (keys, units));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_snapshot_opened_at_other_widths_is_refused_by_name() {
        let dir = scratch_dir("widths");
        let keys: Vec<u64> = vec![2, 5, 8];
        write_snapshot(&dir, 9, &keys, &[(); 3]).unwrap();
        write_snapshot(&dir, 7, &keys, &[20u64, 50, 80]).unwrap();
        let (set_path, map_path) = (snapshot_path(&dir, 9), snapshot_path(&dir, 7));
        // A set snapshot must not load as a map (no values to invent), a
        // map snapshot must not load as a set (values to lose), and neither
        // at another key width — and the error says why.
        for err in [
            load_snapshot::<u64, u64>(&set_path, 9).unwrap_err(),
            load_snapshot::<u64, ()>(&map_path, 7).unwrap_err(),
            load_snapshot::<u32, ()>(&set_path, 9).unwrap_err(),
        ] {
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            assert!(err.to_string().contains("8-byte keys"), "{err}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_snapshots_are_reaped_except_the_kept_one() {
        let dir = scratch_dir("reap");
        write_snapshot(&dir, 1, &[1u64], &[()]).unwrap();
        write_snapshot(&dir, 2, &[1u64, 2], &[(), ()]).unwrap();
        let leftover = snapshot_path(&dir, 3).with_extension("tmp");
        fs::write(&leftover, b"a crash mid-write").unwrap();
        let keep = snapshot_path(&dir, 2);
        remove_stale_snapshots(&dir, &keep).unwrap();
        assert!(!snapshot_path(&dir, 1).exists());
        assert!(!leftover.exists(), "a leftover .tmp is reaped too");
        assert!(keep.exists());
        fs::remove_dir_all(&dir).unwrap();
    }
}
