//! The record codec — one for every store (a set's values are zero bytes
//! wide) and for both files a store writes, WAL segments and snapshots.
//!
//! A record is one round, and a round is one kind of write, so the kind is
//! written once per record.  The WAL holds one record per round that
//! logged anything (reads never enter a round, and a round whose every op
//! failed writes none, so WAL sequence numbers may have gaps).  The wire
//! layout is
//!
//! ```text
//! [payload_len: u32 LE][checksum: u64 LE]      <- header, 12 bytes
//! [seq: u64 LE][kind: u8][n: u32 LE]           <- payload ...
//! n x [key: K::WIDTH bytes][value: V::WIDTH bytes]    (KIND_INSERT)
//! n x [key: K::WIDTH bytes]                           (KIND_REMOVE)
//! ```
//!
//! so an insert record is `25 + n * (K::WIDTH + V::WIDTH)` bytes and a
//! remove record `25 + n * K::WIDTH`: a point write's `u64` record is 33
//! bytes, and a set pays nothing for sharing the codec.  The checksum is FNV-1a 64 over the payload bytes.  Decoding is strictly
//! *prefix-tolerant*: any defect — a partial header, a partial payload, an
//! implausible length, a checksum mismatch, an unknown kind byte, a body
//! that is not exactly `n` ops — is reported as [`DecodeOutcome::Torn`] at
//! the offending offset rather than an error, because on the recovery path
//! every one of those is the same event: the valid log ends here.
//! Recovery truncates at that point and the history before it stands.
//! (Key and value *widths* are not a per-record matter: they are stamped
//! into the file header, see [`crate::log`].)

use batchapi::KeyCodec;
use combine::OpKind;

/// Bytes in a record header: `payload_len: u32` + `checksum: u64`.
pub(crate) const RECORD_HEADER: usize = 4 + 8;

/// Bytes of a payload before its ops: `seq: u64`, `kind: u8`, `n: u32`.
const PAYLOAD_HEADER: usize = 8 + 1 + 4;

/// Upper bound on a single record's payload, as a plausibility filter: a
/// corrupted length field must not convince the replayer to wait for
/// gigabytes of payload that never existed.  A point write's round holds
/// one op and stays far below it, but a whole-batch round is as large as
/// its batch — 256 MiB is ≈ 33.6 M `u64` keys or ≈ 16.8 M `u64 → u64`
/// pairs — so the store refuses a larger batch before it commits
/// ([`payload_len`] is the rule): what decoding calls torn, encoding must
/// never write.  A snapshot splits its entries into records of at most
/// this size.  (1 MiB under `cfg(test)`, so this crate's unit tests reach
/// the limit without a 256 MiB batch.)
pub(crate) const MAX_PAYLOAD: usize = if cfg!(test) { 1 << 20 } else { 256 << 20 };

/// Op kind tags on the wire.
const KIND_INSERT: u8 = 0;
const KIND_REMOVE: u8 = 1;

/// Bytes of one op of a `kind` record: a key, and a value for an insert.
fn op_width<K: KeyCodec, V: KeyCodec>(kind: OpKind) -> usize {
    match kind {
        OpKind::Insert => K::WIDTH + V::WIDTH,
        OpKind::Remove => K::WIDTH,
    }
}

/// Payload bytes of a `kind` record holding `n` ops (see the module docs'
/// wire layout).
pub(crate) fn payload_len<K: KeyCodec, V: KeyCodec>(kind: OpKind, n: usize) -> usize {
    PAYLOAD_HEADER + n * op_width::<K, V>(kind)
}

/// FNV-1a 64-bit over `bytes` — tiny, allocation-free, std-only, and
/// plenty to catch torn writes and bit rot (this guards against crashes,
/// not adversaries).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One decoded record: a round's sequence number, its kind, and its keys
/// in linearisation order — with, for an insert, the values parallel to
/// them (`vals` is empty for a remove).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct WalRecord<K, V> {
    pub(crate) seq: u64,
    pub(crate) kind: OpKind,
    pub(crate) keys: Vec<K>,
    pub(crate) vals: Vec<V>,
}

/// Appends one encoded `kind` record at `seq` to `buf`, holding the ops
/// at the indices `kept` yields into `keys` (and, for an insert, into
/// `vals`, which is `Some` exactly then).
///
/// `kept` is lazy: the op count — like the length and the checksum — is
/// patched into place once the ops are in, so nobody collects them first.
pub(crate) fn encode_record<K: KeyCodec, V: KeyCodec>(
    seq: u64,
    kind: OpKind,
    keys: &[K],
    vals: Option<&[V]>,
    kept: impl Iterator<Item = usize>,
    buf: &mut Vec<u8>,
) {
    let (tag, vals) = match kind {
        OpKind::Insert => (KIND_INSERT, vals.expect("an insert carries its values")),
        OpKind::Remove => (KIND_REMOVE, &[][..]),
    };
    let width = op_width::<K, V>(kind);
    // Reserved as if every op were kept.
    buf.reserve(RECORD_HEADER + payload_len::<K, V>(kind, kept.size_hint().1.unwrap_or(0)));
    let header_at = buf.len();
    buf.extend_from_slice(&[0u8; RECORD_HEADER]);
    let payload_at = buf.len();
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.push(tag);
    buf.extend_from_slice(&[0u8; 4]);
    let mut n = 0u32;
    for i in kept {
        let at = buf.len();
        buf.resize(at + width, 0);
        let (key, val) = buf[at..].split_at_mut(K::WIDTH);
        keys[i].encode(key);
        if kind == OpKind::Insert {
            vals[i].encode(val);
        }
        n += 1;
    }
    let payload_len = buf.len() - payload_at;
    debug_assert!(
        payload_len <= MAX_PAYLOAD,
        "a {payload_len}-byte record would read back as a torn tail"
    );
    buf[payload_at + 9..payload_at + PAYLOAD_HEADER].copy_from_slice(&n.to_le_bytes());
    let checksum = fnv1a(&buf[payload_at..]);
    buf[header_at..header_at + 4].copy_from_slice(&(payload_len as u32).to_le_bytes());
    buf[header_at + 4..header_at + 12].copy_from_slice(&checksum.to_le_bytes());
}

/// What decoding found at one offset.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum DecodeOutcome<K, V> {
    /// A valid record; `consumed` bytes advance the cursor past it.
    Record {
        record: WalRecord<K, V>,
        consumed: usize,
    },
    /// The buffer ends exactly here — a cleanly-terminated file.
    Clean,
    /// The bytes from this offset on are not a valid record (torn final
    /// write, bit rot, garbage).  The valid log ends at this offset.
    Torn,
}

/// Decodes the record starting at `buf[at..]`.  Every op of a record has
/// its kind's width, so the body is sliced, not walked.
pub(crate) fn decode_record<K: KeyCodec, V: KeyCodec>(
    buf: &[u8],
    at: usize,
) -> DecodeOutcome<K, V> {
    let rest = &buf[at..];
    if rest.is_empty() {
        return DecodeOutcome::Clean;
    }
    if rest.len() < RECORD_HEADER {
        return DecodeOutcome::Torn;
    }
    let payload_len = u32::from_le_bytes(rest[0..4].try_into().unwrap()) as usize;
    let checksum = u64::from_le_bytes(rest[4..12].try_into().unwrap());
    if !(PAYLOAD_HEADER..=MAX_PAYLOAD).contains(&payload_len) {
        return DecodeOutcome::Torn;
    }
    let Some(payload) = rest.get(RECORD_HEADER..RECORD_HEADER + payload_len) else {
        return DecodeOutcome::Torn;
    };
    if fnv1a(payload) != checksum {
        return DecodeOutcome::Torn;
    }
    let seq = u64::from_le_bytes(payload[0..8].try_into().unwrap());
    let kind = match payload[8] {
        KIND_INSERT => OpKind::Insert,
        KIND_REMOVE => OpKind::Remove,
        _ => return DecodeOutcome::Torn,
    };
    let n = u32::from_le_bytes(payload[9..PAYLOAD_HEADER].try_into().unwrap()) as usize;
    let body = &payload[PAYLOAD_HEADER..];
    // Checked against the body before anything is allocated: the count
    // comes from the file.
    let width = op_width::<K, V>(kind);
    if n.checked_mul(width) != Some(body.len()) {
        return DecodeOutcome::Torn;
    }
    let op = |i: usize| &body[i * width..(i + 1) * width];
    let keys = (0..n).map(|i| K::decode(&op(i)[..K::WIDTH])).collect();
    let vals = match kind {
        OpKind::Insert => (0..n).map(|i| V::decode(&op(i)[K::WIDTH..])).collect(),
        OpKind::Remove => Vec::new(),
    };
    DecodeOutcome::Record {
        record: WalRecord {
            seq,
            kind,
            keys,
            vals,
        },
        consumed: RECORD_HEADER + payload_len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode<V: KeyCodec>(seq: u64, kind: OpKind, keys: &[u64], vals: &[V]) -> Vec<u8> {
        let mut buf = Vec::new();
        let vals = (kind == OpKind::Insert).then_some(vals);
        encode_record(seq, kind, keys, vals, 0..keys.len(), &mut buf);
        buf
    }

    /// The codec's properties, checked at one value type and both kinds:
    /// round trip, exact size, and every truncation / single-byte flip
    /// reading as torn.
    fn check_codec<V: KeyCodec + Copy + PartialEq + std::fmt::Debug>(v: impl Fn(u64) -> V) {
        let keys = [0u64, 7, u64::MAX];
        let vals = [v(0xDEAD_BEEF), v(700), v(1)];
        for (kind, width, vals) in [
            (OpKind::Insert, 8 + V::WIDTH, vals.to_vec()),
            (OpKind::Remove, 8, Vec::new()),
        ] {
            let buf = encode(42, kind, &keys, &vals);
            assert_eq!(
                buf.len(),
                RECORD_HEADER + 8 + 1 + 4 + 3 * width,
                "an insert's ops carry V::WIDTH value bytes, a remove's none"
            );
            assert_eq!(buf.len(), RECORD_HEADER + payload_len::<u64, V>(kind, 3));
            match decode_record::<u64, V>(&buf, 0) {
                DecodeOutcome::Record { record, consumed } => {
                    assert_eq!(consumed, buf.len());
                    let expect = WalRecord {
                        seq: 42,
                        kind,
                        keys: keys.to_vec(),
                        vals,
                    };
                    assert_eq!(record, expect);
                }
                other => panic!("expected a record, got {other:?}"),
            }
            assert_eq!(
                decode_record::<u64, V>(&buf, buf.len()),
                DecodeOutcome::Clean
            );
            for cut in 1..buf.len() {
                assert_eq!(
                    decode_record::<u64, V>(&buf[..cut], 0),
                    DecodeOutcome::Torn,
                    "prefix of {cut} bytes should read as torn"
                );
            }
            // A flip in the length field *could* in principle frame a
            // different window whose checksum happens to match — FNV makes
            // that astronomically unlikely, so any non-torn outcome is a
            // failure.
            for i in 0..buf.len() {
                let mut bad = buf.clone();
                bad[i] ^= 0x01;
                assert_eq!(
                    decode_record::<u64, V>(&bad, 0),
                    DecodeOutcome::Torn,
                    "flip at byte {i}"
                );
            }
        }
    }

    #[test]
    fn set_records_round_trip_and_every_damage_reads_as_torn() {
        check_codec(|_| ());
    }

    #[test]
    fn value_records_round_trip_and_every_damage_reads_as_torn() {
        check_codec(|v| v);
    }

    #[test]
    fn a_set_record_is_byte_for_byte_the_v1_size() {
        // A point record is the v1 size, 33 bytes: one kind byte per
        // record is one per op.
        for kind in [OpKind::Insert, OpKind::Remove] {
            assert_eq!(encode::<()>(1, kind, &[1], &[()]).len(), 33);
        }
        // A batch record pays the 12-byte frame + 13 once and K::WIDTH per
        // key: values and kinds cost a set nothing per op.
        assert_eq!(
            encode(1, OpKind::Insert, &[1, 2, 3], &[(); 3]).len(),
            12 + 13 + 3 * 8
        );
    }

    /// Rewrites the length and checksum so only the planted defect is wrong.
    fn reseal(buf: &mut [u8]) {
        let len = (buf.len() - RECORD_HEADER) as u32;
        buf[0..4].copy_from_slice(&len.to_le_bytes());
        let sum = fnv1a(&buf[RECORD_HEADER..]);
        buf[4..12].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn bad_kind_byte_is_torn() {
        for mut buf in [
            encode(1, OpKind::Insert, &[1], &[()]),
            encode(1, OpKind::Insert, &[1], &[10u64]),
        ] {
            // The kind byte sits right after the header and the seq.
            for kind in [2, 7] {
                buf[RECORD_HEADER + 8] = kind;
                reseal(&mut buf);
                assert_eq!(decode_record::<u64, ()>(&buf, 0), DecodeOutcome::Torn);
                assert_eq!(decode_record::<u64, u64>(&buf, 0), DecodeOutcome::Torn);
            }
        }
    }

    #[test]
    fn a_body_that_disagrees_with_its_op_count_is_torn() {
        // An honest checksum over a body one op too long / too short for
        // the declared count: the decoder must not read past or stop early.
        let count = RECORD_HEADER + 9..RECORD_HEADER + 13;
        let mut buf = encode(1, OpKind::Insert, &[1, 2], &[10u64, 20]);
        buf[count.clone()].copy_from_slice(&1u32.to_le_bytes());
        reseal(&mut buf);
        assert_eq!(decode_record::<u64, u64>(&buf, 0), DecodeOutcome::Torn);
        buf[count].copy_from_slice(&3u32.to_le_bytes());
        reseal(&mut buf);
        assert_eq!(decode_record::<u64, u64>(&buf, 0), DecodeOutcome::Torn);
        // A body one byte longer than its `n` ops.
        for mut buf in [
            encode(1, OpKind::Remove, &[1, 2], &[(); 2]),
            encode(1, OpKind::Insert, &[1], &[10u64]),
        ] {
            buf.push(0);
            reseal(&mut buf);
            assert_eq!(decode_record::<u64, u64>(&buf, 0), DecodeOutcome::Torn);
        }
        // Read at the wrong value width, the same bytes misframe and tear
        // (the file header is what normally prevents getting this far).
        let buf = encode(1, OpKind::Insert, &[1], &[10u64]);
        assert_eq!(decode_record::<u64, ()>(&buf, 0), DecodeOutcome::Torn);
    }

    #[test]
    fn implausible_length_is_torn_not_a_huge_allocation() {
        let mut buf = vec![0u8; RECORD_HEADER];
        buf[0..4].copy_from_slice(&(u32::MAX).to_le_bytes());
        assert_eq!(decode_record::<u64, ()>(&buf, 0), DecodeOutcome::Torn);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }
}
