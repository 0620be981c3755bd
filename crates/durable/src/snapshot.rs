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
//! Recovery's root is the highest-seq `snap-*.snap` in the directory
//! ([`list_files`](crate::log::list_files)).  The file carries a magic, an
//! FNV-1a 64 checksum and explicit lengths, and its header repeats `S`,
//! which must equal the seq in its name.  The magic also names the key and
//! value widths it was written with ([`stamped_magic`]), so opening it as
//! another type is refused with a message that says so rather than
//! "corrupt".  No snapshot means a fresh (or never-snapshotted) directory
//! and is normal; a *corrupt* root is an error — silently falling back to
//! an older snapshot or to none would present data loss as a clean
//! recovery, because committing the root is what authorised deleting older
//! log segments.

use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use batchapi::KeyCodec;

use crate::log::{check_magic, stamped_magic, sync_dir};
use crate::record::fnv1a;

/// The header of a snapshot holding `K` keys and `V` values: each entry is
/// `K::WIDTH` key bytes followed by `V::WIDTH` value bytes (none for a set).
fn snap_magic<K: KeyCodec, V: KeyCodec>() -> [u8; 8] {
    stamped_magic::<K, V>(b"PBSNP")
}

/// Path of the snapshot taken at `seq` inside `dir`.
pub(crate) fn snapshot_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("snap-{seq:020}.snap"))
}

fn corrupt(what: &str, path: &Path) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{what} at {} is corrupt", path.display()),
    )
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
    let entry = K::WIDTH + V::WIDTH;
    let magic = snap_magic::<K, V>();
    let mut buf = Vec::with_capacity(8 + 8 + 8 + keys.len() * entry + 8);
    buf.extend_from_slice(&magic);
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(&(keys.len() as u64).to_le_bytes());
    for (key, val) in keys.iter().zip(vals) {
        let at = buf.len();
        buf.resize(at + entry, 0);
        key.encode(&mut buf[at..at + K::WIDTH]);
        val.encode(&mut buf[at + K::WIDTH..]);
    }
    let checksum = fnv1a(&buf[magic.len()..]);
    buf.extend_from_slice(&checksum.to_le_bytes());

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
/// taken at `seq`, returning `(keys, vals)` with `vals` parallel to the
/// strictly-ascending `keys`.  A header seq other than `seq` is
/// `InvalidData`: the file is not the snapshot its name claims.
pub(crate) fn load_snapshot<K: KeyCodec + Ord, V: KeyCodec>(
    path: &Path,
    seq: u64,
) -> io::Result<(Vec<K>, Vec<V>)> {
    let mut buf = Vec::new();
    File::open(path)?.read_to_end(&mut buf)?;
    let magic = snap_magic::<K, V>();
    let header = magic.len() + 8 + 8;
    if !check_magic(&buf, &magic, path)? || buf.len() < header + 8 {
        return Err(corrupt("snapshot", path));
    }
    let body = &buf[magic.len()..buf.len() - 8];
    let stored = u64::from_le_bytes(buf[buf.len() - 8..].try_into().unwrap());
    if fnv1a(body) != stored {
        return Err(corrupt("snapshot", path));
    }
    let file_seq = u64::from_le_bytes(body[0..8].try_into().unwrap());
    if file_seq != seq {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "snapshot {} is named for seq {seq} but was taken at seq {file_seq}",
                path.display()
            ),
        ));
    }
    let count = u64::from_le_bytes(body[8..16].try_into().unwrap());
    let entry = K::WIDTH + V::WIDTH;
    let entry_bytes = &body[16..];
    // Checked arithmetic: the count comes from the file.
    let count = usize::try_from(count)
        .ok()
        .filter(|count| count.checked_mul(entry) == Some(entry_bytes.len()));
    let Some(count) = count else {
        return Err(corrupt("snapshot", path));
    };
    let mut keys: Vec<K> = Vec::with_capacity(count);
    let mut vals = Vec::with_capacity(count);
    for chunk in (0..count).map(|i| &entry_bytes[i * entry..][..entry]) {
        let key = K::decode(&chunk[..K::WIDTH]);
        if keys.last().is_some_and(|last| *last >= key) {
            return Err(corrupt("snapshot (keys not strictly ascending)", path));
        }
        keys.push(key);
        vals.push(V::decode(&chunk[K::WIDTH..]));
    }
    Ok((keys, vals))
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
        assert_eq!(loaded, (keys.clone(), vals));
        assert!(
            !path.with_extension("tmp").exists(),
            "the commit renamed it"
        );
        // The set instance: same file shape, zero value bytes per entry.
        let units = vec![(); keys.len()];
        write_snapshot(&dir, 42, &keys, &units).unwrap();
        let path = snapshot_path(&dir, 42);
        let len = fs::metadata(&path).unwrap().len();
        assert_eq!(len as usize, 8 + 8 + 8 + keys.len() * 8 + 8);
        let loaded = load_snapshot::<u64, ()>(&path, 42).unwrap();
        assert_eq!(loaded, (keys, units));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_snapshot_is_valid() {
        let dir = scratch_dir("empty");
        write_snapshot::<u64, ()>(&dir, 0, &[], &[]).unwrap();
        let loaded = load_snapshot::<u64, ()>(&snapshot_path(&dir, 0), 0).unwrap();
        assert_eq!(loaded, (vec![], vec![]));
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

    #[test]
    fn unsorted_snapshot_keys_are_rejected() {
        let dir = scratch_dir("unsorted");
        // Hand-build a snapshot whose keys are out of order but whose
        // checksum is honest: the order check must still reject it.
        let mut buf = Vec::new();
        buf.extend_from_slice(&snap_magic::<u64, ()>());
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&2u64.to_le_bytes());
        buf.extend_from_slice(&9u64.to_be_bytes());
        buf.extend_from_slice(&3u64.to_be_bytes());
        let sum = fnv1a(&buf[8..]);
        buf.extend_from_slice(&sum.to_le_bytes());
        let path = snapshot_path(&dir, 1);
        fs::write(&path, &buf).unwrap();
        assert_eq!(
            load_snapshot::<u64, ()>(&path, 1).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
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
