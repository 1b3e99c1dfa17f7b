//! Property-based testing of the §5 log layer: codec round-trips, byte
//! accounting, device durability prefixes, lock-manager dependency
//! bookkeeping, and the device-file reader on bytes it must not trust.

use mmdb_recovery::device::LogDevice;
use mmdb_recovery::lock::LockManager;
use mmdb_recovery::log::{LogRecord, Lsn, Record};
use mmdb_recovery::wal::{crc32, read_log_file_report, WalDevice};
use mmdb_types::TxnId;
use proptest::prelude::*;
use std::ops::Range;
use std::path::PathBuf;
use std::time::Duration;

/// The page-frame magic as `WalDevice` writes it.
const MAGIC: [u8; 4] = 0x4D4D_5733u32.to_le_bytes();

/// The records a session engine writes to its device files.
fn session_record_strategy() -> impl Strategy<Value = LogRecord> {
    prop_oneof![
        any::<u64>().prop_map(|t| LogRecord::Commit { txn: TxnId(t) }),
        (
            any::<u64>(),
            any::<u64>(),
            prop::collection::vec(any::<u8>(), 0..40)
        )
            .prop_map(|(t, key, bytes)| LogRecord::Put {
                txn: TxnId(t),
                key,
                new: Record::from(bytes),
            }),
        (any::<u64>(), any::<u64>()).prop_map(|(start, next_txn)| LogRecord::Checkpoint {
            start: Lsn(start),
            next_txn,
        }),
    ]
}

fn pages_strategy(pages: Range<usize>) -> impl Strategy<Value = Vec<Vec<LogRecord>>> {
    prop::collection::vec(
        prop::collection::vec(session_record_strategy(), 1..6),
        pages,
    )
}

/// One page frame of a device file: its byte range and its records.
type Frame = (Range<usize>, Vec<(Lsn, LogRecord)>);

/// A device file written by [`WalDevice`], one page per entry with LSNs
/// counting from 1: its path, its bytes and its frames.
struct Written {
    path: PathBuf,
    bytes: Vec<u8>,
    frames: Vec<Frame>,
}

fn write_pages(name: &str, pages: &[Vec<LogRecord>]) -> Written {
    let dir = std::env::temp_dir().join(format!("mmdb-proptest-log-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}.log"));
    let mut device = WalDevice::create(&path, 4096, Duration::ZERO).unwrap();
    let mut lsn = 0;
    let mut frames = Vec::new();
    for page in pages {
        let records: Vec<(Lsn, LogRecord)> = page
            .iter()
            .map(|r| {
                lsn += 1;
                (Lsn(lsn), r.clone())
            })
            .collect();
        let start = device.bytes_written() as usize;
        device.append_page(&records).unwrap();
        frames.push((start..device.bytes_written() as usize, records));
    }
    drop(device);
    let bytes = std::fs::read(&path).unwrap();
    Written {
        path,
        bytes,
        frames,
    }
}

/// A reference reading of the whole frame at the head of `bytes`: the
/// magic, a CRC over count‖len‖payload that checks, and exactly `count`
/// records filling the payload. Its records and length, or `None`.
fn whole_frame(bytes: &[u8]) -> Option<(Vec<(Lsn, LogRecord)>, usize)> {
    let word = |at: usize| Some(u32::from_le_bytes(bytes.get(at..at + 4)?.try_into().ok()?));
    if bytes.get(..4)? != MAGIC {
        return None;
    }
    let (count, len, stored) = (word(4)?, word(8)? as usize, word(12)?);
    let payload = bytes.get(16..16usize.checked_add(len)?)?;
    if crc32(&[bytes.get(4..12)?, payload].concat()) != stored {
        return None;
    }
    let mut rest = payload;
    let mut records = Vec::new();
    for _ in 0..count {
        let lsn = u64::from_le_bytes(rest.get(..8)?.try_into().ok()?);
        rest = rest.get(8..)?;
        records.push((Lsn(lsn), LogRecord::decode(&mut rest).ok()?));
    }
    rest.is_empty().then_some((records, 16 + len))
}

/// Bytes a device file might hold after its whole frames: arbitrary
/// bytes; a frame header with arbitrary count, length and CRC; or a frame
/// whose CRC checks over a payload of truncated records and a count that
/// may disagree with it.
fn tail_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        prop::collection::vec(any::<u8>(), 0..300),
        (
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            prop::collection::vec(any::<u8>(), 0..64)
        )
            .prop_map(|(count, len, crc, body)| {
                [
                    &MAGIC[..],
                    &count.to_le_bytes(),
                    &len.to_le_bytes(),
                    &crc.to_le_bytes(),
                    &body,
                ]
                .concat()
            }),
        (
            prop::collection::vec(session_record_strategy(), 0..4),
            0usize..3,
            any::<usize>()
        )
            .prop_map(|(records, count_skew, cut)| {
                let mut payload = Vec::new();
                for (i, r) in records.iter().enumerate() {
                    payload.extend_from_slice(&(i as u64 + 100).to_le_bytes());
                    r.encode(&mut payload);
                }
                payload.truncate(cut % (payload.len() + 1));
                let count = (records.len() + count_skew).saturating_sub(1) as u32;
                let head = [count.to_le_bytes(), (payload.len() as u32).to_le_bytes()].concat();
                let crc = crc32(&[&head[..], &payload].concat());
                [&MAGIC[..], &head, &crc.to_le_bytes(), &payload].concat()
            }),
    ]
}

fn record_strategy() -> impl Strategy<Value = LogRecord> {
    prop_oneof![
        any::<u64>().prop_map(|t| LogRecord::Begin { txn: TxnId(t) }),
        any::<u64>().prop_map(|t| LogRecord::Commit { txn: TxnId(t) }),
        any::<u64>().prop_map(|t| LogRecord::Abort { txn: TxnId(t) }),
        (
            any::<u64>(),
            any::<u64>(),
            any::<Option<i64>>(),
            any::<i64>(),
            0u32..10_000
        )
            .prop_map(|(t, key, old, new, padding)| LogRecord::Update {
                txn: TxnId(t),
                key,
                old,
                new,
                padding,
            }),
    ]
}

proptest! {
    #[test]
    fn log_records_roundtrip(records in prop::collection::vec(record_strategy(), 0..50)) {
        let mut buf = Vec::new();
        for r in &records {
            r.encode(&mut buf);
        }
        let mut view = buf.as_slice();
        let mut decoded = Vec::new();
        while !view.is_empty() {
            decoded.push(LogRecord::decode(&mut view).unwrap());
        }
        prop_assert_eq!(decoded, records);
    }

    #[test]
    fn compressed_size_never_exceeds_full_size(r in record_strategy()) {
        prop_assert!(r.compressed_size() <= r.byte_size());
    }

    #[test]
    fn device_durability_is_a_prefix(
        submit_gaps in prop::collection::vec(0u64..30_000, 1..40),
        crash_at in 0u64..1_000_000,
    ) {
        // Pages submitted in order to one device complete in order, so the
        // durable set at any crash time is a prefix of submissions.
        let mut d = LogDevice::paper();
        let mut now = 0u64;
        for (i, gap) in submit_gaps.iter().enumerate() {
            now += gap;
            d.write_page(vec![(Lsn(i as u64), LogRecord::Commit { txn: TxnId(i as u64) })], now);
        }
        let durable: Vec<u64> = d
            .durable_pages(crash_at)
            .map(|p| p.seqno)
            .collect();
        let expected: Vec<u64> = (0..durable.len() as u64).collect();
        prop_assert_eq!(durable, expected, "durable pages must form a prefix");
    }

    #[test]
    fn precommitted_holders_never_block_a_grant(
        object_picks in prop::collection::vec(0u64..6, 1..30),
    ) {
        // A chain of transactions each taking one lock after the previous
        // holder pre-commits: a released holder is forgotten, so every
        // grant succeeds at once and no lock outlives its last holder.
        let mut lm = LockManager::new();
        for (i, obj) in object_picks.iter().enumerate() {
            let txn = TxnId(i as u64 + 1);
            lm.begin(txn);
            prop_assert!(lm.acquire(txn, *obj).is_ok(), "txn {} on object {}", i + 1, obj);
            prop_assert!(lm.release(txn));
            prop_assert_eq!(lm.lock_count(), 0);
        }
    }

    /// Arbitrary bytes in a device file are read, never trusted: the
    /// reader returns `Ok` with exactly the records of the whole valid
    /// frames at the head of the file — the written pages, and a garbage
    /// frame only if its CRC checks and its records fill it exactly — and
    /// reports everything after them as dropped.
    #[test]
    fn arbitrary_bytes_in_a_device_file_yield_only_whole_valid_frames(
        pages in pages_strategy(0..4),
        tail in tail_strategy(),
    ) {
        let mut file = write_pages("garbage", &pages);
        file.bytes.extend_from_slice(&tail);
        std::fs::write(&file.path, &file.bytes).unwrap();
        let report = read_log_file_report(&file.path);
        prop_assert!(report.is_ok(), "{:?}", report);
        let report = report.unwrap();
        let mut expected = Vec::new();
        let mut at = 0;
        while let Some((records, len)) = file.bytes.get(at..).and_then(whole_frame) {
            expected.extend(records);
            at += len;
        }
        prop_assert!(at >= file.frames.last().map_or(0, |(range, _)| range.end));
        prop_assert_eq!(report.records, expected);
        prop_assert_eq!(report.bytes_dropped, (file.bytes.len() - at) as u64);
    }

    /// One byte of a multi-page file changed, and its frame's CRC
    /// recomputed so the checksum cannot catch it: the reader still
    /// returns `Ok`, and the records before the changed frame unchanged.
    /// Either the changed frame ends the read — an LSN prefix of the
    /// original — or the change left it well-formed (a record's bytes,
    /// not its framing), and only that frame reads differently.
    #[test]
    fn a_changed_byte_under_a_recomputed_crc_keeps_an_lsn_prefix(
        pages in pages_strategy(2..6),
        at in any::<usize>(),
        flip in (0u8..255).prop_map(|f| f + 1),
    ) {
        let mut file = write_pages("changed-byte", &pages);
        let at = at % file.bytes.len();
        file.bytes[at] ^= flip;
        let changed = file.frames.iter().position(|(range, _)| range.contains(&at)).unwrap();
        let start = file.frames[changed].0.start;
        let len = u32::from_le_bytes(file.bytes[start + 8..start + 12].try_into().unwrap());
        if let Some(payload) = file.bytes.get(start + 16..start + 16 + len as usize) {
            let crc = crc32(&[&file.bytes[start + 4..start + 12], payload].concat());
            file.bytes[start + 12..start + 16].copy_from_slice(&crc.to_le_bytes());
        }
        std::fs::write(&file.path, &file.bytes).unwrap();
        let report = read_log_file_report(&file.path);
        prop_assert!(report.is_ok(), "{:?}", report);
        let report = report.unwrap();
        let original: Vec<(Lsn, LogRecord)> =
            file.frames.iter().flat_map(|(_, records)| records.clone()).collect();
        let before: usize = file.frames[..changed].iter().map(|(_, r)| r.len()).sum();
        let after = before + file.frames[changed].1.len();
        prop_assert!(report.records.len() >= before);
        prop_assert_eq!(&report.records[..before], &original[..before]);
        if report.records.len() > before {
            prop_assert_eq!(report.records.len(), original.len());
            prop_assert_eq!(&report.records[after..], &original[after..]);
        }
    }
}
