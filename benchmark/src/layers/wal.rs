//! `mmdb-recovery`'s wall-clock log: the device floor under every
//! commit, what framing and the checksum add to it, and how fast a log
//! reads back.

use crate::probe::{median_run_ns, per_call_ns, per_call_percentiles_ns, Reading};
use mmdb_recovery::wal::{crc32, read_log_file};
use mmdb_recovery::{FileBackend, LogBackend, LogRecord, Lsn, WalDevice};
use mmdb_types::TxnId;
use std::hint::black_box;
use std::path::Path;
use std::time::Duration;

const PAGE_BYTES: usize = 4096;

/// Update records filling one log page, as a batch of row-chunk writes would.
fn full_page() -> Vec<(Lsn, LogRecord)> {
    let mut records = Vec::new();
    let mut encoded = Vec::new();
    for i in 0u64.. {
        let record = LogRecord::Update {
            txn: TxnId(7),
            key: 0x8000_0000_0000_0000 | i,
            old: Some(i as i64),
            new: i as i64 + 1,
            padding: 0,
        };
        let before = encoded.len();
        encoded.extend_from_slice(&i.to_le_bytes());
        record.encode(&mut encoded);
        if encoded.len() > PAGE_BYTES - 16 {
            encoded.truncate(before);
            break;
        }
        records.push((Lsn(i + 1), record));
    }
    records
}

/// The largest `wal-*.log` under `dir`.
fn largest_log(dir: &Path) -> Option<(std::path::PathBuf, u64)> {
    std::fs::read_dir(dir)
        .ok()?
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
        .filter_map(|e| Some((e.path(), e.metadata().ok()?.len())))
        .max_by_key(|(_, len)| *len)
}

/// `crashed_log` is the log directory the end-to-end run crashed with.
pub fn probe(scratch: &Path, crashed_log: &Path) -> Result<Vec<Reading>, String> {
    let dir = scratch.join("wal");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;

    let mut backend = FileBackend::create(dir.join("floor.log")).map_err(|e| e.to_string())?;
    let page = [0xA5u8; PAGE_BYTES];
    let (fsync_p50, fsync_p99) = per_call_percentiles_ns(300, || {
        backend.write_all(&page).expect("write");
        backend.sync().expect("sync");
    });
    drop(backend);

    let records = full_page();
    let mut device = WalDevice::create(dir.join("append.log"), PAGE_BYTES, Duration::ZERO)
        .map_err(|e| e.to_string())?;
    let (append_p50, _) = per_call_percentiles_ns(300, || {
        device.append_page(&records).expect("append_page");
    });
    drop(device);

    let mib = vec![0x5Au8; 1 << 20];
    let crc_ns = per_call_ns(20, || {
        black_box(crc32(black_box(&mib)));
    });

    let (path, bytes) = largest_log(crashed_log)
        .ok_or_else(|| format!("no wal file in {}", crashed_log.display()))?;
    let read_ns = median_run_ns(3, || read_log_file(&path).expect("read_log_file"));

    std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    let mb = |bytes: f64, ns: f64| bytes / 1e6 / (ns / 1e9);
    Ok(vec![
        ("wal.fsync_4k_us_p50", fsync_p50 / 1e3, "us"),
        ("wal.fsync_4k_us_p99", fsync_p99 / 1e3, "us"),
        ("wal.append_page_us_p50", append_p50 / 1e3, "us"),
        ("wal.crc32_mb_s", mb((1 << 20) as f64, crc_ns), "MB/s"),
        ("wal.read_log_mb_s", mb(bytes as f64, read_ns), "MB/s"),
    ])
}
