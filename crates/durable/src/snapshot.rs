//! Snapshot files and the manifest that commits them.
//!
//! A snapshot is the store's full contents at one linearisation point,
//! paired with that point's sequence number `S`: loading the snapshot and
//! replaying WAL records with seq > `S` reconstructs the exact state.
//! The snapshot file itself (`snap-<seq>.snap`) is written and fsynced
//! first; it only *becomes* the recovery root when the single-file
//! `MANIFEST` is atomically renamed into place pointing at it.  Crash
//! anywhere before the rename and the old manifest (or none) still rules;
//! crash after and the new snapshot rules — there is no in-between state.
//!
//! Both files carry a magic, an FNV-1a 64 checksum, and explicit lengths;
//! the snapshot's magic also names the key and value widths it was written
//! with ([`stamped_magic`]), so opening it as another type is refused with
//! a message that says so rather than "corrupt".
//! A *missing* manifest means a fresh (or pre-snapshot) directory and is
//! normal; a *corrupt* manifest or snapshot is an error — silently falling
//! back to "no snapshot" would present data loss as a clean recovery,
//! because the snapshot that manifest pointed at was what authorised
//! deleting older log segments.

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

/// Identifies the manifest (version 1).
const MANIFEST_MAGIC: &[u8; 8] = b"PBMANI\x00\x01";

/// The manifest's file name inside the durable directory.
const MANIFEST_NAME: &str = "MANIFEST";

/// Path of the snapshot taken at `seq` inside `dir`.
pub(crate) fn snapshot_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(snapshot_name(seq))
}

fn snapshot_name(seq: u64) -> String {
    format!("snap-{seq:020}.snap")
}

fn corrupt(what: &str, path: &Path) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{what} at {} is corrupt", path.display()),
    )
}

/// Writes and fsyncs the snapshot of `keys -> vals` (keys must be
/// strictly ascending, `vals` parallel to them) taken at `seq`; returns
/// its file name.  The snapshot is inert until [`commit_manifest`] points
/// the manifest at it.
pub(crate) fn write_snapshot<K: KeyCodec, V: KeyCodec>(
    dir: &Path,
    seq: u64,
    keys: &[K],
    vals: &[V],
) -> io::Result<String> {
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
    let mut file = File::create(&path)?;
    file.write_all(&buf)?;
    file.sync_all()?;
    sync_dir(dir)?;
    Ok(snapshot_name(seq))
}

/// Loads and verifies the snapshot at `path`, returning `(seq, keys,
/// vals)` with `vals` parallel to the strictly-ascending `keys`.
pub(crate) fn load_snapshot<K: KeyCodec + Ord, V: KeyCodec>(
    path: &Path,
) -> io::Result<(u64, Vec<K>, Vec<V>)> {
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
    let seq = u64::from_le_bytes(body[0..8].try_into().unwrap());
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
    Ok((seq, keys, vals))
}

/// Atomically commits `snap_name` (taken at `seq`) as the recovery root:
/// write `MANIFEST.tmp`, fsync it, rename over `MANIFEST`, fsync the
/// directory.  The rename is the commit point.
pub(crate) fn commit_manifest(dir: &Path, seq: u64, snap_name: &str) -> io::Result<()> {
    let mut buf = Vec::with_capacity(8 + 8 + 4 + snap_name.len() + 8);
    buf.extend_from_slice(MANIFEST_MAGIC);
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(&(snap_name.len() as u32).to_le_bytes());
    buf.extend_from_slice(snap_name.as_bytes());
    let checksum = fnv1a(&buf[MANIFEST_MAGIC.len()..]);
    buf.extend_from_slice(&checksum.to_le_bytes());

    let tmp = dir.join("MANIFEST.tmp");
    let mut file = File::create(&tmp)?;
    file.write_all(&buf)?;
    file.sync_all()?;
    drop(file);
    fs::rename(&tmp, dir.join(MANIFEST_NAME))?;
    sync_dir(dir)
}

/// Reads the manifest: `Ok(None)` when it does not exist (a fresh or
/// never-snapshotted directory), `Ok(Some((seq, snapshot_path)))` when
/// valid, `Err` when present but damaged (see the module docs for why
/// damage must not degrade to `None`).
pub(crate) fn read_manifest(dir: &Path) -> io::Result<Option<(u64, PathBuf)>> {
    let path = dir.join(MANIFEST_NAME);
    let mut buf = Vec::new();
    match File::open(&path) {
        Ok(mut f) => f.read_to_end(&mut buf)?,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let header = MANIFEST_MAGIC.len() + 8 + 4;
    if buf.len() < header + 8 || &buf[..MANIFEST_MAGIC.len()] != MANIFEST_MAGIC {
        return Err(corrupt("manifest", &path));
    }
    let body = &buf[MANIFEST_MAGIC.len()..buf.len() - 8];
    let stored = u64::from_le_bytes(buf[buf.len() - 8..].try_into().unwrap());
    if fnv1a(body) != stored {
        return Err(corrupt("manifest", &path));
    }
    let seq = u64::from_le_bytes(body[0..8].try_into().unwrap());
    let name_len = u32::from_le_bytes(body[8..12].try_into().unwrap()) as usize;
    if body.len() != 12 + name_len {
        return Err(corrupt("manifest", &path));
    }
    let Ok(name) = std::str::from_utf8(&body[12..]) else {
        return Err(corrupt("manifest", &path));
    };
    // The name is a bare file name we wrote ourselves; refuse anything
    // that could escape the directory.
    if name.contains('/') || name.contains('\\') || name.is_empty() {
        return Err(corrupt("manifest", &path));
    }
    Ok(Some((seq, dir.join(name))))
}

/// Deletes every `snap-*.snap` in `dir` except `keep`; returns how many
/// were removed.  Run after a manifest commit to reap the superseded
/// snapshot (and any orphans a crash left behind).
pub(crate) fn remove_stale_snapshots(dir: &Path, keep: &Path) -> io::Result<usize> {
    let mut removed = 0;
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if name.starts_with("snap-") && name.ends_with(".snap") && path != keep {
            fs::remove_file(&path)?;
            removed += 1;
        }
    }
    Ok(removed)
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
        assert_eq!(read_manifest(&dir).unwrap(), None);
        let keys: Vec<u64> = vec![3, 9, 27, u64::MAX];
        let vals: Vec<u64> = keys.iter().map(|k| k ^ 0xABCD).collect();
        let name = write_snapshot(&dir, 41, &keys, &vals).unwrap();
        commit_manifest(&dir, 41, &name).unwrap();
        let (seq, path) = read_manifest(&dir).unwrap().expect("manifest committed");
        assert_eq!(seq, 41);
        let loaded = load_snapshot::<u64, u64>(&path).unwrap();
        assert_eq!(loaded, (41, keys.clone(), vals));
        // The set instance: same file shape, zero value bytes per entry.
        let units = vec![(); keys.len()];
        let name = write_snapshot(&dir, 42, &keys, &units).unwrap();
        let len = fs::metadata(dir.join(&name)).unwrap().len();
        assert_eq!(len as usize, 8 + 8 + 8 + keys.len() * 8 + 8);
        let loaded = load_snapshot::<u64, ()>(&dir.join(name)).unwrap();
        assert_eq!(loaded, (42, keys, units));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_snapshot_is_valid() {
        let dir = scratch_dir("empty");
        let name = write_snapshot::<u64, ()>(&dir, 0, &[], &[]).unwrap();
        let loaded = load_snapshot::<u64, ()>(&dir.join(name)).unwrap();
        assert_eq!(loaded, (0, vec![], vec![]));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_snapshot_or_manifest_is_an_error_not_a_fallback() {
        let dir = scratch_dir("corrupt");
        let name = write_snapshot(&dir, 5, &[1u64, 2], &[(), ()]).unwrap();
        commit_manifest(&dir, 5, &name).unwrap();

        let snap_path = dir.join(&name);
        let mut bytes = fs::read(&snap_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&snap_path, &bytes).unwrap();
        assert_eq!(
            load_snapshot::<u64, ()>(&snap_path).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );

        let manifest = dir.join("MANIFEST");
        let mut bytes = fs::read(&manifest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&manifest, &bytes).unwrap();
        assert_eq!(
            read_manifest(&dir).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
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
        let path = dir.join("snap-bad.snap");
        fs::write(&path, &buf).unwrap();
        assert_eq!(
            load_snapshot::<u64, ()>(&path).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_snapshot_opened_at_other_widths_is_refused_by_name() {
        let dir = scratch_dir("widths");
        let keys: Vec<u64> = vec![2, 5, 8];
        let set_path = dir.join(write_snapshot(&dir, 9, &keys, &[(); 3]).unwrap());
        let map_path = dir.join(write_snapshot(&dir, 7, &keys, &[20u64, 50, 80]).unwrap());
        // A set snapshot must not load as a map (no values to invent), a
        // map snapshot must not load as a set (values to lose), and neither
        // at another key width — and the error says why.
        for err in [
            load_snapshot::<u64, u64>(&set_path).unwrap_err(),
            load_snapshot::<u64, ()>(&map_path).unwrap_err(),
            load_snapshot::<u32, ()>(&set_path).unwrap_err(),
        ] {
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            assert!(err.to_string().contains("8-byte keys"), "{err}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_snapshots_are_reaped_except_the_kept_one() {
        let dir = scratch_dir("reap");
        let a = write_snapshot(&dir, 1, &[1u64], &[()]).unwrap();
        let b = write_snapshot(&dir, 2, &[1u64, 2], &[(), ()]).unwrap();
        let keep = dir.join(&b);
        assert_eq!(remove_stale_snapshots(&dir, &keep).unwrap(), 1);
        assert!(!dir.join(a).exists());
        assert!(keep.exists());
        fs::remove_dir_all(&dir).unwrap();
    }
}
