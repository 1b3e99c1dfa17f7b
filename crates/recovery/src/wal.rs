//! Wall-clock log devices (§5.2 on real hardware).
//!
//! The [`crate::device`] module models a log device in *virtual* time for
//! the recovery manager; this module is the same abstraction
//! backed by a real append-only file, for the multi-threaded session
//! layer that reproduces the §5.2 arithmetic with OS threads and a wall
//! clock. A device writes page-framed batches of log records and calls
//! `fsync` after each page, so "durable" means exactly what it means in
//! the paper: the page write completed. An optional configured latency
//! lets experiments model the paper's 10 ms page write on hardware whose
//! real fsync is far faster — the group-commit daemon sleeps for it
//! before each page write, which is also where a crash can lose a
//! submitted-but-unwritten page.
//!
//! The device writes through the [`crate::backend::LogBackend`] trait, so
//! tests and the torture harness can swap the real file for a
//! [`crate::backend::FaultyBackend`] executing a deterministic fault
//! plan. A failed append rewinds the file to the last good frame before
//! returning, so a retried page never lands after torn garbage.
//!
//! On-disk format, per page: a 16-byte header — magic `"MMW3"`, record
//! count, payload bytes, and a CRC32 over count‖len‖payload — followed
//! by `count` records, each an 8-byte LSN and the [`LogRecord`] encoding
//! from [`crate::log`]. A page holds whole records, so one record larger
//! than `page_bytes` simply makes a larger page. Reading applies the
//! §5.2 contiguous-prefix rule uniformly: the first page that is torn,
//! checksum-bad, or malformed — any other magic included — truncates the
//! log *at that page*: earlier pages survive, the rest is dropped and
//! reported, and recovery never fails because one page went bad.

use crate::backend::{FileBackend, LogBackend};
use crate::log::{LogRecord, Lsn};
use mmdb_types::{Error, Result};
use std::fs::File;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Magic number opening every page frame ("MMW3"); CRC32-guarded. "MMW2"
/// frames carried puts with pre-images and are corrupt pages now.
const PAGE_MAGIC: u32 = 0x4D4D_5733;

/// Size of the page-frame header in bytes (magic, count, len, crc).
const HEADER_BYTES: usize = 16;

/// Smallest encoded record in a frame: an 8-byte LSN, a tag byte and a
/// transaction id. Bounds how many records a payload can really hold.
const MIN_RECORD_BYTES: usize = 8 + 9;

/// CRC32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) lookup table,
/// built at compile time so the checksum needs no runtime init and no
/// external crate.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC32 (IEEE) of `bytes` — the per-page checksum guarding frames
/// against the silent corruption a bare magic number cannot catch.
/// Public so tests and the torture harness can craft or verify frames.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for b in bytes {
        let idx = ((crc ^ *b as u32) & 0xFF) as usize;
        crc = (crc >> 8) ^ CRC32_TABLE.get(idx).copied().unwrap_or(0);
    }
    !crc
}

/// A wall-clock log device: an append-only file written one page frame at
/// a time, synced after every log page (§5.2's unit of durability) or
/// once per snapshot image.
#[derive(Debug)]
pub struct WalDevice {
    backend: Box<dyn LogBackend>,
    path: PathBuf,
    page_bytes: usize,
    write_latency: Duration,
    pages_written: usize,
    bytes_written: u64,
}

impl WalDevice {
    /// Creates (truncating) a device file at `path` over the real
    /// [`FileBackend`]. `page_bytes` is the capacity callers should pack
    /// per page (the device itself accepts any batch); `write_latency` is
    /// the modeled per-page write time the daemon sleeps before each
    /// write (zero for raw hardware speed).
    pub fn create(
        path: impl Into<PathBuf>,
        page_bytes: usize,
        write_latency: Duration,
    ) -> Result<WalDevice> {
        let path = path.into();
        let backend = FileBackend::create(&path)?;
        Ok(WalDevice::with_backend(
            Box::new(backend),
            path,
            page_bytes,
            write_latency,
        ))
    }

    /// Wraps an already-open backend (real or fault-injecting) as a
    /// device. `path` is carried for reporting only; the backend owns the
    /// actual storage.
    pub fn with_backend(
        backend: Box<dyn LogBackend>,
        path: impl Into<PathBuf>,
        page_bytes: usize,
        write_latency: Duration,
    ) -> WalDevice {
        WalDevice {
            backend,
            path: path.into(),
            page_bytes: page_bytes.max(1),
            write_latency,
            pages_written: 0,
            bytes_written: 0,
        }
    }

    /// Page capacity in bytes callers should honor when batching.
    pub fn page_bytes(&self) -> usize {
        self.page_bytes
    }

    /// The modeled per-page write time (the §5.2 10 ms, scaled down for
    /// fast experiments). The caller sleeps for it; the device does not,
    /// so a crash flag can be checked between the sleep and the write.
    pub fn write_latency(&self) -> Duration {
        self.write_latency
    }

    /// The device file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one page frame of records and syncs it to disk. After
    /// this returns `Ok`, the records are durable — they survive a crash
    /// (§5.2). On *any* failure the device rewinds the file to the end of
    /// the last good frame (best effort) so a retried append starts from
    /// a clean boundary instead of landing after a torn partial frame.
    pub fn append_page(&mut self, records: &[(Lsn, LogRecord)]) -> Result<()> {
        let (pages, bytes) = (self.pages_written, self.bytes_written);
        self.append_page_unsynced(records)?;
        let synced = self.backend.sync();
        if synced.is_err() {
            // A failed sync leaves the frame's durability unknown: take
            // the frame back, as a failed write takes its own.
            let _ = self.backend.truncate(bytes);
            self.pages_written = pages;
            self.bytes_written = bytes;
        }
        synced
    }

    /// Appends one page frame *without* syncing it: nothing is durable
    /// until [`WalDevice::sync`] returns. For a writer that lays down a
    /// whole image — a snapshot generation, trusted only once its final
    /// commit record is readable — and pays one sync for all of it; live
    /// log pages go through [`WalDevice::append_page`]. A failed write
    /// rewinds to the end of the last frame, as there.
    pub fn append_page_unsynced(&mut self, records: &[(Lsn, LogRecord)]) -> Result<()> {
        let frame = encode_frame(records, self.page_bytes);
        match self.backend.write_all(&frame) {
            Ok(()) => {
                self.pages_written += 1;
                self.bytes_written += frame.len() as u64;
                Ok(())
            }
            Err(e) => {
                // Discard whatever partial frame may have landed; if the
                // rewind itself fails the recovery-time prefix rule still
                // drops the torn page, so the original error wins.
                let _ = self.backend.truncate(self.bytes_written);
                Err(e)
            }
        }
    }

    /// Durability barrier over every frame appended so far.
    pub fn sync(&mut self) -> Result<()> {
        self.backend.sync()
    }

    /// Pages written so far (durable once synced).
    pub fn pages_written(&self) -> usize {
        self.pages_written
    }

    /// Bytes written so far, frames included (durable once synced).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }
}

/// Builds the on-disk frame for one page of records.
fn encode_frame(records: &[(Lsn, LogRecord)], page_bytes: usize) -> Vec<u8> {
    let mut payload = Vec::with_capacity(page_bytes);
    for (lsn, rec) in records {
        payload.extend_from_slice(&lsn.0.to_le_bytes());
        rec.encode(&mut payload);
    }
    // Page frames are a few KiB; u32 header fields never saturate in
    // practice, and the saturating helpers keep the cast checked.
    let count = mmdb_types::cast::u32_from_usize(records.len());
    let bytes = mmdb_types::cast::u32_from_usize(payload.len());
    let mut frame = Vec::with_capacity(HEADER_BYTES + payload.len());
    frame.extend_from_slice(&PAGE_MAGIC.to_le_bytes());
    frame.extend_from_slice(&count.to_le_bytes());
    frame.extend_from_slice(&bytes.to_le_bytes());
    let mut crc = crc32(&count.to_le_bytes());
    crc = crc32_continue(crc, &bytes.to_le_bytes());
    crc = crc32_continue(crc, &payload);
    frame.extend_from_slice(&crc.to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// Continues a CRC32 over more bytes (`crc` is a finished [`crc32`]
/// value; the pre/post inversion is undone and redone around the update).
fn crc32_continue(crc: u32, bytes: &[u8]) -> u32 {
    let mut crc = !crc;
    for b in bytes {
        let idx = ((crc ^ *b as u32) & 0xFF) as usize;
        crc = (crc >> 8) ^ CRC32_TABLE.get(idx).copied().unwrap_or(0);
    }
    !crc
}

/// What [`read_log_file_report`] found in one device file: the records of
/// the good contiguous prefix, plus how much was cut off and why.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LogFileReport {
    /// Records of every page before the first bad/torn page, in order.
    pub records: Vec<(Lsn, LogRecord)>,
    /// 1 if the scan stopped at a *corrupt* page (bad magic, checksum
    /// mismatch, malformed record) rather than clean EOF or a torn tail.
    /// Per-file this is 0 or 1 — everything after the first bad page is
    /// dropped unexamined — and recovery sums it across files.
    pub corrupt_pages_dropped: usize,
    /// Bytes from the truncation point to end of file (0 on clean EOF).
    pub bytes_dropped: u64,
    /// Frame bytes checksummed and decoded into `records` — the replay
    /// work this read actually performed (headers included).
    pub bytes_replayed: u64,
    /// Complete pages stepped over without checksum or decode because
    /// every record in them precedes the caller's replay floor (§5.3:
    /// data already baked into a checkpoint image).
    pub pages_skipped: usize,
    /// Frame bytes of those skipped pages.
    pub bytes_skipped: u64,
}

/// Why a page frame failed to parse — all folded into the same
/// truncate-at-this-page outcome, but distinguished for reporting.
enum PageFailure {
    /// The file ends mid-frame: a crash tore the final write (§5.2's
    /// half-written page). Expected after any crash; not corruption.
    Torn,
    /// The frame is structurally bad: wrong magic, checksum mismatch, or
    /// a record that does not decode. Media damage or a software bug.
    Corrupt,
}

/// Reads every complete page frame from a device file, in append order,
/// applying the §5.2 contiguous-prefix rule uniformly: the first page
/// that is torn, checksum-bad, or otherwise malformed truncates the log
/// at that page. Earlier pages survive, the remainder is dropped and
/// reported — never an error. Only a genuine I/O failure (file
/// unreadable) returns `Err`.
pub fn read_log_file_report(path: &Path) -> Result<LogFileReport> {
    read_log_file_report_from(path, Lsn(0))
}

/// [`read_log_file_report`] with a §5.3 replay floor: complete pages
/// whose every record precedes `floor` are stepped over without being
/// checksummed or decoded, bounding replay work by the log *suffix*
/// instead of total history. The engine writes each page's records with
/// consecutive LSNs, so the page's range is `[first, first + count - 1]`
/// and the first LSN sits at a fixed offset after the header; a skipped
/// page's contents are already covered by the checkpoint image that
/// supplied `floor`, so an undetected flipped bit inside one cannot
/// change the recovered state. `Lsn(0)` skips nothing.
pub fn read_log_file_report_from(path: &Path, floor: Lsn) -> Result<LogFileReport> {
    let mut file =
        File::open(path).map_err(|e| Error::Io(format!("open {}: {e}", path.display())))?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)
        .map_err(|e| Error::Io(format!("read {}: {e}", path.display())))?;
    let mut report = LogFileReport::default();
    let mut at = 0usize;
    while at < bytes.len() {
        if let Some(frame_len) = skippable_frame(&bytes, at, floor) {
            report.pages_skipped += 1;
            report.bytes_skipped += frame_len as u64;
            at += frame_len;
            continue;
        }
        match parse_frame(&bytes, at) {
            Ok((records, frame_len)) => {
                report.records.extend(records);
                report.bytes_replayed += frame_len as u64;
                at += frame_len;
            }
            Err(failure) => {
                if matches!(failure, PageFailure::Corrupt) {
                    report.corrupt_pages_dropped = 1;
                }
                report.bytes_dropped = (bytes.len() - at) as u64;
                break;
            }
        }
    }
    Ok(report)
}

/// If the frame at `at` is complete and every record in it precedes
/// `floor`, returns its total length so the caller can step over it
/// without checksum or decode work. Any doubt — short frame, bad magic,
/// zero records, LSN range touching the floor — returns `None` and the
/// caller takes the full parse path.
fn skippable_frame(bytes: &[u8], at: usize, floor: Lsn) -> Option<usize> {
    if floor.0 == 0 {
        return None;
    }
    let header = bytes.get(at..at + HEADER_BYTES)?;
    if u32::from_le_bytes(four(header)) != PAGE_MAGIC {
        return None;
    }
    let count = u32::from_le_bytes(four(header.get(4..8)?)) as u64;
    let len = u32::from_le_bytes(four(header.get(8..12)?)) as usize;
    // The whole frame must be present: a torn or truncated tail goes
    // through the parse path so it is reported as such.
    let payload = bytes.get(at + HEADER_BYTES..at + HEADER_BYTES + len)?;
    if count == 0 {
        return None;
    }
    let first = u64::from_le_bytes(eight(payload.get(..8)?));
    let last = first.checked_add(count - 1)?;
    (last < floor.0).then_some(HEADER_BYTES + len)
}

/// Parses one frame starting at `at`, returning its records and total
/// encoded length, or the reason the prefix ends here.
fn parse_frame(
    bytes: &[u8],
    at: usize,
) -> std::result::Result<(Vec<(Lsn, LogRecord)>, usize), PageFailure> {
    let magic_bytes = bytes.get(at..at + 4).ok_or(PageFailure::Torn)?;
    if u32::from_le_bytes(four(magic_bytes)) != PAGE_MAGIC {
        return Err(PageFailure::Corrupt);
    }
    let header = bytes.get(at..at + HEADER_BYTES).ok_or(PageFailure::Torn)?;
    let count_bytes = header.get(4..8).ok_or(PageFailure::Torn)?;
    let len_bytes = header.get(8..12).ok_or(PageFailure::Torn)?;
    let count = u32::from_le_bytes(four(count_bytes));
    let len = u32::from_le_bytes(four(len_bytes)) as usize;
    let payload = bytes
        .get(at + HEADER_BYTES..at + HEADER_BYTES + len)
        .ok_or(PageFailure::Torn)?;
    let stored = u32::from_le_bytes(four(header.get(12..16).ok_or(PageFailure::Torn)?));
    let mut crc = crc32(count_bytes);
    crc = crc32_continue(crc, len_bytes);
    crc = crc32_continue(crc, payload);
    if crc != stored {
        return Err(PageFailure::Corrupt);
    }
    let mut rest = payload;
    // Sized by what the payload can hold, not by what the header claims.
    let mut records = Vec::with_capacity((count as usize).min(len / MIN_RECORD_BYTES));
    for _ in 0..count {
        // A record cut short *inside* a complete frame is corruption (the
        // header promised `count` records), folded into the same
        // truncate-here outcome as a bad checksum.
        let lsn_bytes = rest.get(..8).ok_or(PageFailure::Corrupt)?;
        let mut lsn8 = [0u8; 8];
        lsn8.copy_from_slice(lsn_bytes);
        rest = rest.get(8..).unwrap_or(&[]);
        let rec = LogRecord::decode(&mut rest).map_err(|_| PageFailure::Corrupt)?;
        records.push((Lsn(u64::from_le_bytes(lsn8)), rec));
    }
    // Payload left over: some length field inside the records lies.
    if !rest.is_empty() {
        return Err(PageFailure::Corrupt);
    }
    Ok((records, HEADER_BYTES + len))
}

/// Copies four bytes out of a slice known to hold at least four (callers
/// bound-check first; short input yields zeros rather than a panic).
fn four(slice: &[u8]) -> [u8; 4] {
    let mut out = [0u8; 4];
    if let Some(src) = slice.get(..4) {
        out.copy_from_slice(src);
    }
    out
}

/// Copies eight bytes out of a slice known to hold at least eight, with
/// the same zero-fill fallback as [`four`].
fn eight(slice: &[u8]) -> [u8; 8] {
    let mut out = [0u8; 8];
    if let Some(src) = slice.get(..8) {
        out.copy_from_slice(src);
    }
    out
}

/// Reads the good contiguous prefix of a device file — the records of
/// [`read_log_file_report`] without the damage accounting, for callers
/// that only need the data.
pub fn read_log_file(path: &Path) -> Result<Vec<(Lsn, LogRecord)>> {
    Ok(read_log_file_report(path)?.records)
}

/// Reads and merges every `*.log` device file in `dir` by LSN,
/// deduplicating records that reached more than one device. This is the
/// restart-recovery view of a partitioned log (§5.2): fragments from `k`
/// devices joined back into one sequence.
pub fn read_log_dir(dir: &Path) -> Result<Vec<(Lsn, LogRecord)>> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| Error::Io(format!("read {}: {e}", dir.display())))?;
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "log"))
        .collect();
    paths.sort();
    let mut all = Vec::new();
    for p in &paths {
        all.extend(read_log_file(p)?);
    }
    all.sort_by_key(|(lsn, _)| *lsn);
    all.dedup_by_key(|(lsn, _)| *lsn);
    Ok(all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{FaultPlan, FaultyBackend};
    use mmdb_types::TxnId;
    use std::fs::OpenOptions;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mmdb-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn typical(txn: u64, key: u64) -> Vec<(Lsn, LogRecord)> {
        crate::log::typical_transaction(TxnId(txn), key, 0, 1)
            .into_iter()
            .enumerate()
            .map(|(i, r)| (Lsn(txn * 10 + i as u64), r))
            .collect()
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        // Incremental == one-shot.
        let whole = crc32(b"hello world");
        let part = crc32_continue(crc32(b"hello "), b"world");
        assert_eq!(whole, part);
    }

    #[test]
    fn roundtrip_pages() {
        let path = tmp("roundtrip.log");
        let mut dev = WalDevice::create(&path, 4096, Duration::ZERO).unwrap();
        let p1 = typical(1, 7);
        let p2 = typical(2, 8);
        dev.append_page(&p1).unwrap();
        dev.append_page(&p2).unwrap();
        assert_eq!(dev.pages_written(), 2);
        let report = read_log_file_report(&path).unwrap();
        let want: Vec<_> = p1.into_iter().chain(p2).collect();
        assert_eq!(report.records, want);
        assert_eq!(report.corrupt_pages_dropped, 0);
        assert_eq!(report.bytes_dropped, 0);
    }

    /// Recomputes a forged frame's checksum, so only record parsing can
    /// reject it.
    fn reseal(frame: &mut [u8]) {
        let crc = crc32_continue(crc32(&frame[4..12]), &frame[HEADER_BYTES..]);
        frame[12..16].copy_from_slice(&crc.to_le_bytes());
    }

    /// Appends `frames` after one good page and expects the log to
    /// truncate there, reporting one corrupt page.
    fn assert_truncates_after_first_page(name: &str, frames: &[Vec<u8>]) {
        let path = tmp(name);
        let mut dev = WalDevice::create(&path, 4096, Duration::ZERO).unwrap();
        let p1 = typical(1, 7);
        dev.append_page(&p1).unwrap();
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        use std::io::Write;
        for frame in frames {
            file.write_all(frame).unwrap();
        }
        drop(file);
        let dropped: usize = frames.iter().map(Vec::len).sum();
        let report = read_log_file_report(&path).unwrap();
        assert_eq!(report.records, p1);
        assert_eq!(report.corrupt_pages_dropped, 1);
        assert_eq!(report.bytes_dropped, dropped as u64);
    }

    #[test]
    fn old_magic_frame_is_a_corrupt_page() {
        // A good page, then a frame in the first, unchecksummed layout
        // (magic "MMWL", 12-byte header) claiming u32::MAX records: the
        // log truncates there and nothing is sized from its header.
        let mut v1 = Vec::new();
        v1.extend_from_slice(&0x4D4D_574Cu32.to_le_bytes());
        v1.extend_from_slice(&u32::MAX.to_le_bytes());
        v1.extend_from_slice(&8u32.to_le_bytes());
        v1.extend_from_slice(&[0u8; 8]);
        assert_truncates_after_first_page(
            "oldmagic.log",
            &[v1, encode_frame(&typical(2, 8), 4096)],
        );
        // The previous magic ("MMW2", puts with pre-images): same header
        // layout and a valid checksum, still not this log's page.
        let mut v2 = encode_frame(&typical(2, 8), 4096);
        v2[..4].copy_from_slice(&0x4D4D_5732u32.to_le_bytes());
        assert_truncates_after_first_page("prevmagic.log", &[v2]);
    }

    #[test]
    fn retired_put_layout_under_the_new_magic_is_a_corrupt_page() {
        // A tag-6 record as "MMW2" wrote it — flag byte, length-prefixed
        // pre-image, then the new value — sealed into a current frame.
        let mut payload = Vec::new();
        payload.extend_from_slice(&4u64.to_le_bytes()); // LSN
        payload.push(6);
        payload.extend_from_slice(&1u64.to_le_bytes()); // txn
        payload.extend_from_slice(&9u64.to_le_bytes()); // key
        payload.push(1);
        payload.extend_from_slice(&3u32.to_le_bytes());
        payload.extend_from_slice(b"was");
        payload.extend_from_slice(&40u32.to_le_bytes());
        payload.extend_from_slice(&[5u8; 40]);
        let mut frame = Vec::new();
        frame.extend_from_slice(&PAGE_MAGIC.to_le_bytes());
        frame.extend_from_slice(&1u32.to_le_bytes());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&[0u8; 4]);
        frame.extend_from_slice(&payload);
        reseal(&mut frame);
        assert_truncates_after_first_page("retiredput.log", &[frame]);
    }

    #[test]
    fn put_page_cut_anywhere_or_forged_never_panics() {
        let page = vec![
            (
                Lsn(1),
                LogRecord::Put {
                    txn: TxnId(1),
                    key: 9,
                    new: crate::Record::from(&[5u8; 40][..]),
                },
            ),
            (Lsn(2), LogRecord::Commit { txn: TxnId(1) }),
            // A page may end inside the next transaction's run.
            (
                Lsn(3),
                LogRecord::Put {
                    txn: TxnId(2),
                    key: 10,
                    new: crate::Record::from(&b"row"[..]),
                },
            ),
        ];
        let frame = encode_frame(&page, 4096);
        let path = tmp("putcut.log");
        for cut in 0..frame.len() {
            std::fs::write(&path, &frame[..cut]).unwrap();
            let report = read_log_file_report(&path).unwrap();
            assert!(report.records.is_empty(), "cut at {cut}");
            assert_eq!(report.bytes_dropped, cut as u64);
        }
        let mut forged = frame.clone();
        reseal(&mut forged);
        assert_eq!(forged, frame, "resealing an intact frame changes nothing");
        // Under a valid checksum, the last put's length claims 4 GiB,
        // then one byte less than it has (the records no longer fill the
        // payload): a corrupt page both times, nothing sized from it.
        let len_at = HEADER_BYTES + (8 + 17 + 4 + 40) + (8 + 9) + 8 + 17;
        for claim in [u32::MAX, 2] {
            let mut forged = frame.clone();
            forged[len_at..len_at + 4].copy_from_slice(&claim.to_le_bytes());
            reseal(&mut forged);
            std::fs::write(&path, &forged).unwrap();
            let report = read_log_file_report(&path).unwrap();
            assert!(report.records.is_empty(), "length {claim}");
            assert_eq!(report.corrupt_pages_dropped, 1, "length {claim}");
        }
        std::fs::write(&path, &frame).unwrap();
        assert_eq!(read_log_file(&path).unwrap(), page);
    }

    #[test]
    fn torn_tail_is_dropped_earlier_pages_survive() {
        let path = tmp("torn.log");
        let mut dev = WalDevice::create(&path, 4096, Duration::ZERO).unwrap();
        let p1 = typical(1, 7);
        dev.append_page(&p1).unwrap();
        dev.append_page(&typical(2, 8)).unwrap();
        // Truncate into the middle of the second frame: a crash mid-write.
        let full = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(full - 10).unwrap();
        let report = read_log_file_report(&path).unwrap();
        assert_eq!(report.records, p1, "only the complete first page survives");
        assert_eq!(
            report.corrupt_pages_dropped, 0,
            "a torn tail is not corruption"
        );
        // Everything from the start of the torn frame to EOF is dropped.
        let truncated = std::fs::metadata(&path).unwrap().len();
        let first_frame = encode_frame(&p1, 4096).len() as u64;
        assert_eq!(report.bytes_dropped, truncated - first_frame);
    }

    #[test]
    fn dir_merge_sorts_by_lsn() {
        let dir = std::env::temp_dir().join(format!("mmdb-wal-merge-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut d0 = WalDevice::create(dir.join("wal-dev0.log"), 4096, Duration::ZERO).unwrap();
        let mut d1 = WalDevice::create(dir.join("wal-dev1.log"), 4096, Duration::ZERO).unwrap();
        let p1 = typical(1, 1);
        let p2 = typical(2, 2);
        d1.append_page(&p2).unwrap();
        d0.append_page(&p1).unwrap();
        let merged = read_log_dir(&dir).unwrap();
        let want: Vec<_> = p1.into_iter().chain(p2).collect();
        assert_eq!(merged, want);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_magic_truncates_instead_of_erroring() {
        // A good page followed by garbage: the prefix survives, the
        // garbage is reported as one dropped corrupt page — not an error.
        let path = tmp("corrupt.log");
        let mut dev = WalDevice::create(&path, 4096, Duration::ZERO).unwrap();
        let p1 = typical(1, 7);
        dev.append_page(&p1).unwrap();
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        use std::io::Write;
        file.write_all(&[0u8; 64]).unwrap();
        drop(file);
        let report = read_log_file_report(&path).unwrap();
        assert_eq!(report.records, p1);
        assert_eq!(report.corrupt_pages_dropped, 1);
        assert_eq!(report.bytes_dropped, 64);
        // All-garbage file: empty prefix, still not an error.
        let path2 = tmp("corrupt2.log");
        std::fs::write(&path2, [0xAAu8; 64]).unwrap();
        let report2 = read_log_file_report(&path2).unwrap();
        assert!(report2.records.is_empty());
        assert_eq!(report2.corrupt_pages_dropped, 1);
    }

    #[test]
    fn bit_flip_in_payload_fails_checksum_and_truncates() {
        let path = tmp("flip.log");
        let plan = FaultPlan::none().bit_flip(1, 40);
        let backend = FaultyBackend::create(&path, plan).unwrap();
        let mut dev = WalDevice::with_backend(Box::new(backend), &path, 4096, Duration::ZERO);
        let p1 = typical(1, 7);
        let p2 = typical(2, 8);
        let p3 = typical(3, 9);
        dev.append_page(&p1).unwrap();
        dev.append_page(&p2).unwrap(); // silently corrupted by the flip
        dev.append_page(&p3).unwrap();
        let report = read_log_file_report(&path).unwrap();
        assert_eq!(
            report.records, p1,
            "the flipped page and everything after it are dropped"
        );
        assert_eq!(report.corrupt_pages_dropped, 1);
        assert!(report.bytes_dropped > 0);
    }

    #[test]
    fn lsn_cut_short_inside_complete_frame_truncates() {
        // Forge a frame whose header promises more records than the
        // payload holds (checksum valid, so only record parsing trips):
        // the old code returned Err(CorruptLog), the prefix rule drops it.
        let path = tmp("cutshort.log");
        let p1 = typical(1, 7);
        let mut dev = WalDevice::create(&path, 4096, Duration::ZERO).unwrap();
        dev.append_page(&p1).unwrap();
        let payload = [1u8, 2, 3]; // 3 bytes: not even one 8-byte LSN
        let count = 5u32;
        let len = payload.len() as u32;
        let mut crc = crc32(&count.to_le_bytes());
        crc = crc32_continue(crc, &len.to_le_bytes());
        crc = crc32_continue(crc, &payload);
        let mut frame = Vec::new();
        frame.extend_from_slice(&PAGE_MAGIC.to_le_bytes());
        frame.extend_from_slice(&count.to_le_bytes());
        frame.extend_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(&crc.to_le_bytes());
        frame.extend_from_slice(&payload);
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        use std::io::Write;
        file.write_all(&frame).unwrap();
        drop(file);
        let report = read_log_file_report(&path).unwrap();
        assert_eq!(report.records, p1);
        assert_eq!(report.corrupt_pages_dropped, 1);
    }

    #[test]
    fn replay_floor_skips_whole_pages_without_decoding() {
        // Three pages of consecutive LSNs 1..=9; a floor of 7 must step
        // over the first two pages entirely and decode only the third.
        let path = tmp("floor.log");
        let mut dev = WalDevice::create(&path, 4096, Duration::ZERO).unwrap();
        let recs: Vec<(Lsn, LogRecord)> = (1..=9u64)
            .map(|l| (Lsn(l), LogRecord::Commit { txn: TxnId(l) }))
            .collect();
        dev.append_page(&recs[0..3]).unwrap();
        dev.append_page(&recs[3..6]).unwrap();
        dev.append_page(&recs[6..9]).unwrap();
        let report = read_log_file_report_from(&path, Lsn(7)).unwrap();
        assert_eq!(report.records, recs[6..9]);
        assert_eq!(report.pages_skipped, 2);
        assert!(report.bytes_skipped > 0);
        assert!(report.bytes_replayed > 0);
        assert_eq!(report.corrupt_pages_dropped, 0);
        // A page straddling the floor is decoded, not skipped.
        let straddle = read_log_file_report_from(&path, Lsn(5)).unwrap();
        assert_eq!(straddle.records, recs[3..9]);
        assert_eq!(straddle.pages_skipped, 1);
        // Floor 0 is the plain full read.
        let full = read_log_file_report_from(&path, Lsn(0)).unwrap();
        assert_eq!(full.records, recs);
        assert_eq!(full.pages_skipped, 0);
    }

    #[test]
    fn corrupt_page_below_floor_is_still_skipped_torn_tail_still_reported() {
        // A bit flip inside a page wholly below the floor must not abort
        // the suffix replay: the page is stepped over unexamined (its
        // contents are covered by the checkpoint image).
        let path = tmp("floor-corrupt.log");
        let mut dev = WalDevice::create(&path, 4096, Duration::ZERO).unwrap();
        let recs: Vec<(Lsn, LogRecord)> = (1..=6u64)
            .map(|l| (Lsn(l), LogRecord::Commit { txn: TxnId(l) }))
            .collect();
        dev.append_page(&recs[0..3]).unwrap();
        dev.append_page(&recs[3..6]).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a payload byte of the FIRST page, past its first LSN.
        bytes[HEADER_BYTES + 10] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let full = read_log_file_report(&path).unwrap();
        assert!(full.records.is_empty(), "full read truncates at the flip");
        assert_eq!(full.corrupt_pages_dropped, 1);
        let suffix = read_log_file_report_from(&path, Lsn(4)).unwrap();
        assert_eq!(suffix.records, recs[3..6], "suffix read survives it");
        assert_eq!(suffix.pages_skipped, 1);
        assert_eq!(suffix.corrupt_pages_dropped, 0);
    }

    #[test]
    fn unsynced_frames_cost_one_sync_and_a_failed_sync_takes_its_page_back() {
        // Sync #0 belongs to the image (three unsynced frames, one
        // barrier); sync #1, the first live page's, fails once.
        let path = tmp("unsynced.log");
        let plan = FaultPlan::none().fail_sync(1, 1);
        let backend = FaultyBackend::create(&path, plan).unwrap();
        let mut dev = WalDevice::with_backend(Box::new(backend), &path, 4096, Duration::ZERO);
        let image = [typical(1, 7), typical(2, 8), typical(3, 9)];
        for page in &image {
            dev.append_page_unsynced(page).unwrap();
        }
        dev.sync().unwrap();
        assert_eq!(dev.pages_written(), 3);
        let live = typical(4, 1);
        let before = dev.bytes_written();
        assert!(dev.append_page(&live).is_err(), "the injected sync failure");
        assert_eq!(dev.pages_written(), 3, "the unsynced page does not count");
        assert_eq!(dev.bytes_written(), before);
        dev.append_page(&live).unwrap();
        let want: Vec<_> = image.into_iter().flatten().chain(live).collect();
        assert_eq!(read_log_file(&path).unwrap(), want, "no duplicate frame");
    }

    #[test]
    fn failed_append_rewinds_so_retry_lands_clean() {
        // A torn write leaves a partial frame; the device truncates it
        // away, so the retried page starts at a clean boundary and the
        // whole log replays.
        let path = tmp("rewind.log");
        let plan = FaultPlan::none().torn_write(1, 7);
        let backend = FaultyBackend::create(&path, plan).unwrap();
        let mut dev = WalDevice::with_backend(Box::new(backend), &path, 4096, Duration::ZERO);
        let p1 = typical(1, 7);
        let p2 = typical(2, 8);
        dev.append_page(&p1).unwrap();
        assert!(dev.append_page(&p2).is_err(), "torn write surfaces");
        dev.append_page(&p2).unwrap();
        let report = read_log_file_report(&path).unwrap();
        let want: Vec<_> = p1.into_iter().chain(p2).collect();
        assert_eq!(report.records, want);
        assert_eq!(report.corrupt_pages_dropped, 0);
        assert_eq!(report.bytes_dropped, 0);
        assert_eq!(dev.pages_written(), 2, "only successful appends count");
    }
}
