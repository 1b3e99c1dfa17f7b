//! Log records.
//!
//! §5.1 logs the old and new *value of a record*; §5.4 observes that a
//! memory-resident database undoes from memory, so the disk log needs
//! only the new values of transactions that commit. Two record kinds, for
//! the two §5 stacks, sit on either side of that observation:
//!
//! * [`LogRecord::Put`] is what the wall-clock session engine writes and
//!   replays — §5.4's record: a variable-length byte [`Record`], new
//!   value only, written once at pre-commit, whose
//!   [`LogRecord::byte_size`] is exactly its encoded length.
//! * [`LogRecord::Update`] is the virtual-time `RecoveryManager`'s
//!   paper-accounted record: an 8-byte value plus explicit `padding`, so
//!   a "typical" transaction charges the paper's 400 bytes — 40 for
//!   begin/end and 360 for old/new values — without carrying them. It
//!   keeps its old value, so the §5.4 compression model
//!   ([`LogRecord::compressed_size`]) stays measurable byte-for-byte.

use mmdb_types::{Reader, Result, TxnId};
use std::sync::Arc;

/// An immutable byte record: one shared allocation, so the session
/// engine's store, its undo pre-images, the queued log record and the
/// checkpoint sweeper's cached image all point at the same bytes.
pub type Record = Arc<[u8]>;

/// Largest [`Record`] the log carries (16 MiB). The encoded length field
/// is a `u32`; writers refuse anything larger and the decoder rejects a
/// length field above it before looking at the payload.
pub const MAX_RECORD_BYTES: usize = 1 << 24;

/// A log sequence number: position of a record in the (merged) log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Lsn(pub u64);

/// A write-ahead-log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord {
    /// Transaction start (20 bytes in the paper's accounting).
    Begin {
        /// Transaction.
        txn: TxnId,
    },
    /// A byte-record write by the session engine, redo-only (§5.4): the
    /// value the committing transaction left under `key`, at its real
    /// length.
    Put {
        /// Transaction.
        txn: TxnId,
        /// Written key.
        key: u64,
        /// Post-image.
        new: Record,
    },
    /// The virtual-time manager's update: old value for undo, new value
    /// for redo, padded to the paper's byte accounting.
    Update {
        /// Transaction.
        txn: TxnId,
        /// Updated key.
        key: u64,
        /// Pre-image (`None` for an insert).
        old: Option<i64>,
        /// Post-image.
        new: i64,
        /// Extra payload bytes charged to this record, so workloads can
        /// match the paper's 360-byte old/new-value volume exactly.
        padding: u32,
    },
    /// Commit record (20 bytes).
    Commit {
        /// Transaction.
        txn: TxnId,
    },
    /// Abort record.
    Abort {
        /// Transaction.
        txn: TxnId,
    },
    /// §5.3 online-checkpoint marker, written inside the synthetic
    /// snapshot transaction (id 0) of a checkpoint log generation. It
    /// frames what the snapshot covers: replay may start at `start`
    /// (every committed update below it is baked into the snapshot's
    /// update records), and `next_txn` is a floor for transaction-id
    /// allocation so ids used only before `start` are never reissued.
    Checkpoint {
        /// First LSN of the live-log suffix recovery must still replay.
        start: Lsn,
        /// Transaction-id allocator value captured when the sweep began.
        next_txn: u64,
    },
}

const TAG_BEGIN: u8 = 1;
const TAG_UPDATE: u8 = 2;
const TAG_COMMIT: u8 = 3;
const TAG_ABORT: u8 = 4;
const TAG_CHECKPOINT: u8 = 5;
const TAG_PUT: u8 = 6;

/// Fixed part of an encoded [`LogRecord::Put`]: tag, txn, key.
const PUT_HEADER_BYTES: usize = 1 + 8 + 8;

impl LogRecord {
    /// The transaction this record belongs to. A checkpoint marker
    /// belongs to the synthetic snapshot transaction (id 0).
    pub fn txn(&self) -> TxnId {
        match self {
            LogRecord::Begin { txn }
            | LogRecord::Put { txn, .. }
            | LogRecord::Update { txn, .. }
            | LogRecord::Commit { txn }
            | LogRecord::Abort { txn } => *txn,
            LogRecord::Checkpoint { .. } => TxnId(0),
        }
    }

    /// Bytes this record occupies in a log page, matching §5.1: begin and
    /// commit are 20 bytes each; an update is a 24-byte header plus 8
    /// bytes of old value, 8 of new, and its padding; a put is its
    /// encoded length (the length-prefixed new value after a 17-byte
    /// header).
    pub fn byte_size(&self) -> usize {
        match self {
            LogRecord::Begin { .. } | LogRecord::Commit { .. } | LogRecord::Abort { .. } => 20,
            LogRecord::Put { new, .. } => PUT_HEADER_BYTES + 4 + new.len(),
            LogRecord::Update { old, padding, .. } => {
                24 + 8 + if old.is_some() { 8 } else { 0 } + *padding as usize
            }
            // Tag byte rounded into the same 20-byte frame as begin/commit
            // plus the two u64 fields it actually carries.
            LogRecord::Checkpoint { .. } => 20 + 16,
        }
    }

    /// Byte size after §5.4 compression: old values stripped (the 8-byte
    /// pre-image plus half of the padding, which models old-value bytes).
    /// A put never carried one.
    pub fn compressed_size(&self) -> usize {
        match self {
            LogRecord::Update { padding, .. } => 24 + 8 + (*padding as usize) / 2,
            other => other.byte_size(),
        }
    }

    /// Serializes the record.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            LogRecord::Begin { txn } => {
                out.push(TAG_BEGIN);
                out.extend_from_slice(&txn.0.to_le_bytes());
            }
            LogRecord::Put { txn, key, new } => {
                out.push(TAG_PUT);
                out.extend_from_slice(&txn.0.to_le_bytes());
                out.extend_from_slice(&key.to_le_bytes());
                put_bytes(out, new);
            }
            LogRecord::Update {
                txn,
                key,
                old,
                new,
                padding,
            } => {
                out.push(TAG_UPDATE);
                out.extend_from_slice(&txn.0.to_le_bytes());
                out.extend_from_slice(&key.to_le_bytes());
                match old {
                    Some(v) => {
                        out.push(1);
                        out.extend_from_slice(&v.to_le_bytes());
                    }
                    None => out.push(0),
                }
                out.extend_from_slice(&new.to_le_bytes());
                out.extend_from_slice(&padding.to_le_bytes());
            }
            LogRecord::Commit { txn } => {
                out.push(TAG_COMMIT);
                out.extend_from_slice(&txn.0.to_le_bytes());
            }
            LogRecord::Abort { txn } => {
                out.push(TAG_ABORT);
                out.extend_from_slice(&txn.0.to_le_bytes());
            }
            LogRecord::Checkpoint { start, next_txn } => {
                out.push(TAG_CHECKPOINT);
                out.extend_from_slice(&start.0.to_le_bytes());
                out.extend_from_slice(&next_txn.to_le_bytes());
            }
        }
    }

    /// Deserializes one record from the front of `buf`, advancing `buf`
    /// past it.
    pub fn decode(buf: &mut &[u8]) -> Result<LogRecord> {
        let mut r = Reader::new(buf);
        let record = Self::read(&mut r)?;
        *buf = r.rest();
        Ok(record)
    }

    fn read(r: &mut Reader<'_>) -> Result<LogRecord> {
        let tag = r.u8()?;
        if tag == TAG_CHECKPOINT {
            let start = Lsn(r.u64()?);
            let next_txn = r.u64()?;
            return Ok(LogRecord::Checkpoint { start, next_txn });
        }
        let txn = TxnId(r.u64()?);
        match tag {
            TAG_BEGIN => Ok(LogRecord::Begin { txn }),
            TAG_COMMIT => Ok(LogRecord::Commit { txn }),
            TAG_ABORT => Ok(LogRecord::Abort { txn }),
            TAG_PUT => {
                let key = r.u64()?;
                let new = take_bytes(r, "new value")?;
                Ok(LogRecord::Put { txn, key, new })
            }
            TAG_UPDATE => {
                let key = r.u64()?;
                let old = match r.u8()? {
                    1 => Some(r.u64()? as i64),
                    _ => None,
                };
                let new = r.u64()? as i64;
                let padding = r.u32()?;
                Ok(LogRecord::Update {
                    txn,
                    key,
                    old,
                    new,
                    padding,
                })
            }
            other => Err(r.corrupt(&format!("unknown record tag {other}"))),
        }
    }
}

/// Appends a length-prefixed value. Writers bound values by
/// [`MAX_RECORD_BYTES`], so the length always fits its `u32` field.
fn put_bytes(out: &mut Vec<u8>, value: &[u8]) {
    out.extend_from_slice(&mmdb_types::cast::u32_from_usize(value.len()).to_le_bytes());
    out.extend_from_slice(value);
}

/// Reads one length-prefixed value. The length field is checked against
/// [`MAX_RECORD_BYTES`] and against what the reader actually holds
/// *before* anything is allocated for it.
fn take_bytes(r: &mut Reader<'_>, what: &str) -> Result<Record> {
    let len = r.u32()? as usize;
    if len > MAX_RECORD_BYTES {
        return Err(r.corrupt(&format!("{what} of {len} bytes")));
    }
    r.take(len).map(Record::from)
}

/// Padding that makes a one-update transaction §5.1's "typical" 400
/// bytes: begin(20) + commit(20) + header(24) + old(8) + new(8) + padding
/// = 400.
pub const TYPICAL_UPDATE_PADDING: u32 = 320;

/// Builds the paper's "typical" banking transaction log: begin + one
/// update padded so the whole transaction occupies exactly 400 bytes +
/// commit.
pub fn typical_transaction(txn: TxnId, key: u64, old: i64, new: i64) -> Vec<LogRecord> {
    let update = LogRecord::Update {
        txn,
        key,
        old: Some(old),
        new,
        padding: TYPICAL_UPDATE_PADDING,
    };
    vec![LogRecord::Begin { txn }, update, LogRecord::Commit { txn }]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_types::Error;

    #[test]
    fn typical_transaction_is_400_bytes() {
        let recs = typical_transaction(TxnId(1), 7, 100, 200);
        let total: usize = recs.iter().map(|r| r.byte_size()).sum();
        assert_eq!(total, 400, "§5.1's typical transaction");
    }

    #[test]
    fn compression_roughly_halves_update_volume() {
        let recs = typical_transaction(TxnId(1), 7, 100, 200);
        let full: usize = recs.iter().map(|r| r.byte_size()).sum();
        let compressed: usize = recs.iter().map(|r| r.compressed_size()).sum();
        let ratio = compressed as f64 / full as f64;
        assert!(
            (0.5..0.65).contains(&ratio),
            "§5.4: about half the log stores old values; ratio {ratio}"
        );
    }

    #[test]
    fn encode_decode_roundtrip() {
        let records = vec![
            LogRecord::Begin { txn: TxnId(9) },
            LogRecord::Update {
                txn: TxnId(9),
                key: 123,
                old: Some(-5),
                new: 6,
                padding: 17,
            },
            LogRecord::Update {
                txn: TxnId(9),
                key: 4,
                old: None,
                new: 0,
                padding: 0,
            },
            LogRecord::Put {
                txn: TxnId(9),
                key: u64::MAX,
                new: Record::from(&b"a longer new row"[..]),
            },
            LogRecord::Put {
                txn: TxnId(9),
                key: 5,
                new: Record::from(&[][..]),
            },
            LogRecord::Commit { txn: TxnId(9) },
            LogRecord::Abort { txn: TxnId(10) },
            LogRecord::Checkpoint {
                start: Lsn(77),
                next_txn: 42,
            },
        ];
        let mut buf = Vec::new();
        for r in &records {
            r.encode(&mut buf);
        }
        let mut view = buf.as_slice();
        for r in &records {
            assert_eq!(&LogRecord::decode(&mut view).unwrap(), r);
        }
        assert!(view.is_empty());
    }

    /// The on-disk bytes of every record kind, pinned literally: a
    /// change to the encoder that moves any byte fails here, not in a
    /// recovery that cannot read an older log.
    #[test]
    fn encoded_bytes_are_pinned() {
        let pinned: [(LogRecord, &[u8]); 7] = [
            (
                LogRecord::Begin { txn: TxnId(0x0102) },
                &[1, 2, 1, 0, 0, 0, 0, 0, 0],
            ),
            (
                LogRecord::Put {
                    txn: TxnId(9),
                    key: 0xA1B2,
                    new: Record::from(&b"row"[..]),
                },
                &[
                    6, 9, 0, 0, 0, 0, 0, 0, 0, 0xB2, 0xA1, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, b'r',
                    b'o', b'w',
                ],
            ),
            (
                LogRecord::Update {
                    txn: TxnId(9),
                    key: 123,
                    old: Some(-5),
                    new: 6,
                    padding: 17,
                },
                &[
                    2, 9, 0, 0, 0, 0, 0, 0, 0, 123, 0, 0, 0, 0, 0, 0, 0, 1, 0xFB, 0xFF, 0xFF, 0xFF,
                    0xFF, 0xFF, 0xFF, 0xFF, 6, 0, 0, 0, 0, 0, 0, 0, 17, 0, 0, 0,
                ],
            ),
            (
                LogRecord::Update {
                    txn: TxnId(9),
                    key: 4,
                    old: None,
                    new: -1,
                    padding: 0x0102_0304,
                },
                &[
                    2, 9, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF,
                    0xFF, 0xFF, 0xFF, 0xFF, 4, 3, 2, 1,
                ],
            ),
            (
                LogRecord::Commit { txn: TxnId(9) },
                &[3, 9, 0, 0, 0, 0, 0, 0, 0],
            ),
            (
                LogRecord::Abort { txn: TxnId(10) },
                &[4, 10, 0, 0, 0, 0, 0, 0, 0],
            ),
            (
                LogRecord::Checkpoint {
                    start: Lsn(77),
                    next_txn: 42,
                },
                &[5, 77, 0, 0, 0, 0, 0, 0, 0, 42, 0, 0, 0, 0, 0, 0, 0],
            ),
        ];
        for (record, bytes) in &pinned {
            let mut buf = Vec::new();
            record.encode(&mut buf);
            assert_eq!(buf, *bytes, "{record:?}");
            let mut view = *bytes;
            assert_eq!(&LogRecord::decode(&mut view).unwrap(), record);
            assert!(view.is_empty());
        }
    }

    #[test]
    fn put_byte_size_is_its_encoded_length() {
        for len in [0usize, 8, 106] {
            let rec = LogRecord::Put {
                txn: TxnId(1),
                key: 2,
                new: Record::from(vec![9u8; len]),
            };
            let mut buf = Vec::new();
            rec.encode(&mut buf);
            assert_eq!(buf.len(), 17 + 4 + len);
            assert_eq!(rec.byte_size(), buf.len());
            assert_eq!(rec.compressed_size(), buf.len(), "§5.4: nothing to strip");
        }
    }

    #[test]
    fn put_decode_rejects_truncation_and_forged_lengths() {
        let rec = LogRecord::Put {
            txn: TxnId(3),
            key: 4,
            new: Record::from(&b"after!"[..]),
        };
        let mut buf = Vec::new();
        rec.encode(&mut buf);
        for cut in 0..buf.len() {
            let mut view = &buf[..cut];
            assert!(LogRecord::decode(&mut view).is_err(), "cut at {cut}");
        }
        // The length field claims 4 GiB: an error, not an allocation of
        // the claimed size.
        let mut forged = buf;
        forged[PUT_HEADER_BYTES..PUT_HEADER_BYTES + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut view = forged.as_slice();
        assert!(LogRecord::decode(&mut view).is_err());
    }

    /// The retired layout carried a flag byte and a length-prefixed
    /// pre-image ahead of the new value. Read as the current layout, flag
    /// and length run together into a length field the record cannot
    /// honour.
    #[test]
    fn put_in_the_retired_layout_fails_its_length_check() {
        for pre_image in [None, Some(&b"was"[..])] {
            let mut buf = vec![TAG_PUT];
            buf.extend_from_slice(&3u64.to_le_bytes());
            buf.extend_from_slice(&4u64.to_le_bytes());
            match pre_image {
                Some(v) => {
                    buf.push(1);
                    put_bytes(&mut buf, v);
                }
                None => buf.push(0),
            }
            put_bytes(&mut buf, &[5u8; 40]);
            let mut view = buf.as_slice();
            assert!(
                matches!(LogRecord::decode(&mut view), Err(Error::CorruptLog(_))),
                "retired layout, pre-image {pre_image:?}"
            );
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        let mut empty: &[u8] = &[];
        assert!(LogRecord::decode(&mut empty).is_err());
        let bad = [99u8, 0, 0, 0, 0, 0, 0, 0, 0];
        let mut view = &bad[..];
        assert!(LogRecord::decode(&mut view).is_err());
    }

    #[test]
    fn txn_accessor() {
        assert_eq!(LogRecord::Begin { txn: TxnId(3) }.txn(), TxnId(3));
    }
}
