//! The write-ahead log's record codec — one codec for every store, the
//! set being the instance whose values are zero bytes wide.
//!
//! One record per round that logged anything (reads never enter a round,
//! and a round whose every op failed — replaying it would change nothing —
//! writes no record, so the WAL's sequence numbers are allowed to have
//! gaps).  The wire layout is
//!
//! ```text
//! [payload_len: u32 LE][checksum: u64 LE]    <- header, 12 bytes
//! [seq: u64 LE][n_ops: u32 LE]               <- payload ...
//! n_ops x ( [KIND_INSERT][key: K::WIDTH bytes][value: V::WIDTH bytes]
//!         | [KIND_REMOVE][key: K::WIDTH bytes] )
//! ```
//!
//! so a `V = ()` record is `12 + 12 + n_ops * (1 + K::WIDTH)` bytes — a set
//! pays nothing for sharing the codec.  The checksum is FNV-1a 64 over the
//! payload bytes.  Decoding is strictly *prefix-tolerant*: any defect — a
//! partial header, a partial payload, an implausible length, a checksum
//! mismatch, an unknown kind byte, a body that does not end exactly at the
//! declared op count — is reported as [`DecodeOutcome::Torn`] at the
//! offending offset rather than an error, because on the recovery path
//! every one of those is the same event: the valid log ends here.
//! Recovery truncates at that point and the history before it stands.
//! (Key and value *widths* are not a per-record matter: they are stamped
//! into the segment header, see [`crate::log`].)

use batchapi::KeyCodec;

/// Bytes in a record header: `payload_len: u32` + `checksum: u64`.
pub(crate) const RECORD_HEADER: usize = 4 + 8;

/// Upper bound on a single record's payload, as a plausibility filter: a
/// corrupted length field must not convince the replayer to wait for
/// gigabytes of payload that never existed.  A point write's round holds
/// one op and stays far below it, but a whole-batch round is as large as
/// its batch — 256 MiB is ≈ 29.8 M `u64` keys or ≈ 15.8 M `u64 → u64`
/// pairs — so the store refuses a larger batch before it commits
/// ([`payload_len`] is the rule): what decoding calls torn, encoding must
/// never write.  (1 MiB under `cfg(test)`, so this
/// crate's unit tests reach the limit without a 256 MiB batch.)
pub(crate) const MAX_PAYLOAD: usize = if cfg!(test) { 1 << 20 } else { 256 << 20 };

/// Payload bytes of a record holding `inserts` inserts and `removes`
/// removes (see the module docs' wire layout).
pub(crate) fn payload_len<K: KeyCodec, V: KeyCodec>(inserts: usize, removes: usize) -> usize {
    8 + 4 + inserts * (1 + K::WIDTH + V::WIDTH) + removes * (1 + K::WIDTH)
}

/// Op kind tags on the wire.
const KIND_INSERT: u8 = 0;
const KIND_REMOVE: u8 = 1;

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

/// One logged mutation.  Decoding yields owned `WalOp<K, V>`s, replayed
/// against a `BTreeMap` during recovery; encoding borrows, as
/// `WalOp<&K, &V>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WalOp<K, V> {
    /// The round upserted this key to this value.
    Insert(K, V),
    /// The round removed this key.
    Remove(K),
}

/// One decoded WAL record: a round's sequence number and its logged
/// operations in linearisation order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct WalRecord<K, V> {
    pub(crate) seq: u64,
    pub(crate) ops: Vec<WalOp<K, V>>,
}

/// Appends one encoded record for `(seq, ops)` to `buf`.
///
/// `ops` are the round's ops already filtered down to the ones the logging
/// rule keeps, as a lazy iterator: the op count — like the length and the
/// checksum — is patched into place once they are in, so nobody collects
/// them first.  The caller skips rounds that keep no op rather than writing
/// empty records.
pub(crate) fn encode_record<'a, K: KeyCodec + 'a, V: KeyCodec + 'a>(
    seq: u64,
    ops: impl Iterator<Item = WalOp<&'a K, &'a V>>,
    buf: &mut Vec<u8>,
) {
    // Reserved as if every op were kept and carried a value.
    buf.reserve(RECORD_HEADER + payload_len::<K, V>(ops.size_hint().1.unwrap_or(0), 0));
    let header_at = buf.len();
    buf.extend_from_slice(&[0u8; RECORD_HEADER]);
    let payload_at = buf.len();
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(&[0u8; 4]);
    let mut n_ops = 0u32;
    for op in ops {
        let (kind, key, val) = match op {
            WalOp::Insert(key, val) => (KIND_INSERT, key, Some(val)),
            WalOp::Remove(key) => (KIND_REMOVE, key, None),
        };
        buf.push(kind);
        let at = buf.len();
        buf.resize(at + K::WIDTH, 0);
        key.encode(&mut buf[at..]);
        if let Some(val) = val {
            let at = buf.len();
            buf.resize(at + V::WIDTH, 0);
            val.encode(&mut buf[at..]);
        }
        n_ops += 1;
    }
    let payload_len = buf.len() - payload_at;
    debug_assert!(
        payload_len <= MAX_PAYLOAD,
        "a {payload_len}-byte record would read back as a torn tail"
    );
    buf[payload_at + 8..payload_at + 12].copy_from_slice(&n_ops.to_le_bytes());
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
    /// The buffer ends exactly here — a cleanly-terminated log.
    Clean,
    /// The bytes from this offset on are not a valid record (torn final
    /// write, bit rot, garbage).  The valid log ends at this offset.
    Torn,
}

/// Decodes the record starting at `buf[at..]`.  Ops are variable-width
/// when values are (the kind byte decides whether a value follows the
/// key), so the body is walked with a cursor.
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
    if !(8 + 4..=MAX_PAYLOAD).contains(&payload_len) {
        return DecodeOutcome::Torn;
    }
    let Some(payload) = rest.get(RECORD_HEADER..RECORD_HEADER + payload_len) else {
        return DecodeOutcome::Torn;
    };
    if fnv1a(payload) != checksum {
        return DecodeOutcome::Torn;
    }
    let seq = u64::from_le_bytes(payload[0..8].try_into().unwrap());
    let n_ops = u32::from_le_bytes(payload[8..12].try_into().unwrap()) as usize;
    let mut body = &payload[12..];
    // Every op is at least a kind byte wide: bound the allocation by what
    // the body can actually hold, not by the declared count.
    let mut ops = Vec::with_capacity(n_ops.min(body.len()));
    for _ in 0..n_ops {
        let Some((&kind, after_kind)) = body.split_first() else {
            return DecodeOutcome::Torn;
        };
        let width = match kind {
            KIND_INSERT => K::WIDTH + V::WIDTH,
            KIND_REMOVE => K::WIDTH,
            _ => return DecodeOutcome::Torn,
        };
        if after_kind.len() < width {
            return DecodeOutcome::Torn;
        }
        let (op, after_op) = after_kind.split_at(width);
        let key = K::decode(&op[..K::WIDTH]);
        ops.push(match kind {
            KIND_INSERT => WalOp::Insert(key, V::decode(&op[K::WIDTH..])),
            _ => WalOp::Remove(key),
        });
        body = after_op;
    }
    if !body.is_empty() {
        return DecodeOutcome::Torn;
    }
    DecodeOutcome::Record {
        record: WalRecord { seq, ops },
        consumed: RECORD_HEADER + payload_len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode<V: KeyCodec>(seq: u64, ops: &[WalOp<u64, V>]) -> Vec<u8> {
        let mut buf = Vec::new();
        let borrowed = ops.iter().map(|op| match op {
            WalOp::Insert(k, v) => WalOp::Insert(k, v),
            WalOp::Remove(k) => WalOp::Remove(k),
        });
        encode_record(seq, borrowed, &mut buf);
        buf
    }

    /// The codec's properties, checked at one value type: round trip,
    /// exact size, and every truncation / single-byte flip reading as torn.
    fn check_codec<V: KeyCodec + Copy + PartialEq + std::fmt::Debug>(v: impl Fn(u64) -> V) {
        let ops = [
            WalOp::Insert(7u64, v(700)),
            WalOp::Remove(u64::MAX),
            WalOp::Insert(0, v(0xDEAD_BEEF)),
        ];
        let buf = encode(42, &ops);
        assert_eq!(
            buf.len(),
            RECORD_HEADER + 8 + 4 + 3 * (1 + 8) + 2 * V::WIDTH,
            "inserts carry V::WIDTH value bytes, removes none"
        );
        assert_eq!(buf.len(), RECORD_HEADER + payload_len::<u64, V>(2, 1));
        match decode_record::<u64, V>(&buf, 0) {
            DecodeOutcome::Record { record, consumed } => {
                assert_eq!(consumed, buf.len());
                assert_eq!(record.seq, 42);
                assert_eq!(record.ops, ops);
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
        // A flip in the length field *could* in principle frame a different
        // window whose checksum happens to match — FNV makes that
        // astronomically unlikely, so any non-torn outcome is a failure.
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
        // 12-byte frame + 12 + n * (1 + K::WIDTH): values cost a set nothing.
        let ops = [
            WalOp::Insert(1u64, ()),
            WalOp::Remove(2),
            WalOp::Insert(3, ()),
        ];
        assert_eq!(encode(1, &ops).len(), 12 + 12 + 3 * (1 + 8));
        assert_eq!(encode(1, &[WalOp::Insert(1u64, ())]).len(), 33);
    }

    /// Rewrites the checksum so only the planted defect is wrong.
    fn reseal(buf: &mut [u8]) {
        let sum = fnv1a(&buf[RECORD_HEADER..]);
        buf[4..12].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn bad_kind_byte_is_torn() {
        for mut buf in [
            encode(1, &[WalOp::Insert(1u64, ())]),
            encode(1, &[WalOp::Insert(1u64, 10u64)]),
        ] {
            // Kind byte sits right after header + seq + n_ops.
            buf[RECORD_HEADER + 8 + 4] = 7;
            reseal(&mut buf);
            assert_eq!(decode_record::<u64, ()>(&buf, 0), DecodeOutcome::Torn);
            assert_eq!(decode_record::<u64, u64>(&buf, 0), DecodeOutcome::Torn);
        }
    }

    #[test]
    fn a_body_that_disagrees_with_its_op_count_is_torn() {
        // An honest checksum over a body one op too long / too short for
        // the declared count: the decoder must not read past or stop early.
        let mut buf = encode(1, &[WalOp::Insert(1u64, 10u64), WalOp::Remove(2)]);
        buf[RECORD_HEADER + 8..RECORD_HEADER + 12].copy_from_slice(&1u32.to_le_bytes());
        reseal(&mut buf);
        assert_eq!(decode_record::<u64, u64>(&buf, 0), DecodeOutcome::Torn);
        buf[RECORD_HEADER + 8..RECORD_HEADER + 12].copy_from_slice(&3u32.to_le_bytes());
        reseal(&mut buf);
        assert_eq!(decode_record::<u64, u64>(&buf, 0), DecodeOutcome::Torn);
        // Read at the wrong value width, the same bytes misframe and tear
        // (the segment header is what normally prevents getting this far).
        let buf = encode(1, &[WalOp::Insert(1u64, 10u64)]);
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
