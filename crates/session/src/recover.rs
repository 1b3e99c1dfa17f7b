//! Restart recovery for the wall-clock log (§5.2).
//!
//! After a crash the volatile store is gone; the log files are all that
//! remain, and only *complete* pages at that (a torn tail is dropped by
//! [`mmdb_recovery::wal::read_log_file`]). Recovery merges every device's
//! pages by LSN and applies the **contiguous-prefix rule**: records count
//! only up to the first missing LSN. A gap means a later page beat an
//! earlier one to disk and the earlier one died with the crash — exactly
//! the reordering partitioned logs permit — and nothing past the gap was
//! ever reported durable (the writers' watermark enforces the same
//! prefix), so dropping it breaks no promise. Committed transactions in
//! the prefix are redone from their new values; everything else is a
//! loser and vanishes with the volatile state.
//!
//! Recovery then *compacts*: the recovered image is written to a fresh
//! **log generation** (`wal-gen{g}-d{i}.log`) as one synthetic committed
//! transaction (id 0) — every frame written, then one sync — and only
//! once that snapshot is durably complete are the old generation's files
//! deleted, so a real crash at any point inside recovery leaves either
//! the old generation intact or both, and replay picks the newest
//! generation whose snapshot finished. The new
//! engine then appends to the *same* device files (they are handed over
//! open, never reopened-and-truncated), so its LSN sequence continues
//! the snapshot's and stale post-gap records can never collide with it.
//! This is the restart flavor of the §5.3 idea: bound future recovery
//! work by checkpointing the recovered state.

use crate::daemon::Shared;
use crate::engine::{log_files, open_devices, Engine};
use crate::policy::EngineOptions;
use mmdb_recovery::wal::{read_log_file_report_from, WalDevice};
use mmdb_recovery::{LogRecord, Lsn, Record};
use mmdb_types::{Error, Result, TxnId};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// What restart recovery found and did (§5.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// Transactions whose commits survived (sorted by id).
    pub committed: Vec<TxnId>,
    /// Transactions seen in the log prefix but not committed in it —
    /// in-flight or pre-committed-but-not-durable at the crash. Their
    /// effects are discarded.
    pub losers: Vec<TxnId>,
    /// Records read off the devices (all complete pages).
    pub records_scanned: usize,
    /// Put records replayed into the recovered image.
    pub records_replayed: usize,
    /// First missing LSN, when the prefix rule truncated the log —
    /// `None` means every scanned record counted.
    pub truncated_at: Option<Lsn>,
    /// Pages dropped from the replayed generation because they were
    /// corrupt — bad magic, checksum mismatch, malformed record — each
    /// truncating its file at that page per the §5.2 prefix rule
    /// (replay keeps going; corruption is reported, never fatal).
    pub corrupt_pages_dropped: usize,
    /// `*.log` files in the log directory whose names match no known
    /// device-file pattern. They are neither replayed nor deleted —
    /// a stray file must not be merged into the image (it was never
    /// part of the LSN sequence) nor destroyed by compaction.
    pub skipped_files: Vec<String>,
    /// Log bytes actually checksummed and decoded during replay. This is
    /// the §5.3 recovery-cost denominator: with online checkpointing the
    /// live generation's pages below the checkpoint's replay floor are
    /// skipped wholesale, so this stays proportional to the checkpoint
    /// interval instead of total history.
    pub log_bytes_replayed: u64,
    /// When replay combined a complete §5.3 checkpoint with the live
    /// generation's suffix, the first LSN that suffix replay started at;
    /// `None` for a plain full-log (or restart-snapshot) replay.
    pub checkpoint_start: Option<Lsn>,
}

/// The outcome of replaying a log directory, before compaction.
#[derive(Debug)]
pub(crate) struct RecoveredImage {
    pub db: BTreeMap<u64, Record>,
    pub next_txn: u64,
    /// Highest log generation found on disk (0 when the directory is
    /// empty); compaction writes generation `max_generation + 1`.
    pub max_generation: u64,
    pub info: RecoveryInfo,
}

/// Log generation a device file belongs to — the exact inverse of
/// [`crate::engine::device_file_name`]: `wal-d{i}.log` is generation 0,
/// `wal-gen{g}-d{i}.log` is generation `g`. Any other name returns
/// `None`: a stray `*.log` file must not be silently merged into replay
/// as generation 0 (its records were never part of the LSN sequence).
pub(crate) fn generation_of(path: &Path) -> Option<u64> {
    let stem = path.file_stem()?.to_str()?;
    let rest = stem.strip_prefix("wal-")?;
    if let Some(device) = rest.strip_prefix('d') {
        device.parse::<u64>().ok()?;
        return Some(0);
    }
    let rest = rest.strip_prefix("gen")?;
    let (generation, device) = rest.split_once("-d")?;
    let g = generation.parse::<u64>().ok()?;
    device.parse::<u64>().ok()?;
    Some(g)
}

/// One generation's device files merged by LSN and cut to a contiguous
/// prefix, plus the byte/corruption accounting replay reports.
struct GenScan {
    prefix: Vec<LogRecord>,
    truncated_at: Option<Lsn>,
    records_scanned: usize,
    corrupt_pages_dropped: usize,
    bytes_replayed: u64,
}

/// Reads and merges one generation's device files by LSN, deduplicating
/// records that reached more than one device — the restart-recovery view
/// of a partitioned log (§5.2) — and applies the contiguous-prefix rule
/// starting at `first`. A non-zero `floor` lets the reader skip whole
/// pages below the §5.3 checkpoint's replay floor without decoding them.
fn scan_generation(paths: &[PathBuf], floor: Lsn, first: u64) -> Result<GenScan> {
    let mut all = Vec::new();
    let mut corrupt = 0usize;
    let mut bytes = 0u64;
    for p in paths {
        let report = read_log_file_report_from(p, floor)?;
        corrupt += report.corrupt_pages_dropped;
        bytes += report.bytes_replayed;
        all.extend(report.records);
    }
    all.sort_by_key(|(lsn, _)| *lsn);
    all.dedup_by_key(|(lsn, _)| *lsn);
    // Page skipping is page-granular: a page straddling the floor still
    // surfaces its below-floor records. They are baked into the
    // checkpoint image already, so drop them before the prefix rule.
    all.retain(|(lsn, _)| lsn.0 >= first);
    let records_scanned = all.len();
    let mut prefix = Vec::with_capacity(all.len());
    let mut truncated_at = None;
    for (expect, (lsn, rec)) in (first..).zip(all) {
        if lsn.0 != expect {
            truncated_at = Some(Lsn(expect));
            break;
        }
        prefix.push(rec);
    }
    Ok(GenScan {
        prefix,
        truncated_at,
        records_scanned,
        corrupt_pages_dropped: corrupt,
        bytes_replayed: bytes,
    })
}

/// True when the prefix carries a complete compaction snapshot: the
/// synthetic transaction 0's commit record made it to disk.
fn snapshot_complete(prefix: &[LogRecord]) -> bool {
    prefix
        .iter()
        .any(|r| matches!(r, LogRecord::Commit { txn } if txn.0 == 0))
}

/// The §5.3 checkpoint marker carried by a generation's prefix, if any:
/// `(replay floor, txn-id allocator floor)`. Restart-compaction
/// snapshots carry no marker — they *are* the live generation — so a
/// marker distinguishes an online checkpoint, whose image must be
/// combined with the live generation's suffix.
fn checkpoint_marker(prefix: &[LogRecord]) -> Option<(Lsn, u64)> {
    prefix.iter().find_map(|r| match r {
        LogRecord::Checkpoint { start, next_txn } => Some((*start, *next_txn)),
        _ => None,
    })
}

/// Two-pass redo over a contiguous record prefix: commit decisions
/// first, then committed transactions' puts applied in LSN order onto
/// `db` (absolute values, so re-applying records whose effects a
/// checkpoint image already carries is idempotent — §5.3). Returns how
/// many put records were replayed.
///
/// The engine writes one update-record kind, [`LogRecord::Put`]. A
/// [`LogRecord::Update`] — the virtual-time manager's paper-accounted
/// record — under a valid checksum means these files are not this
/// engine's log: replay refuses them rather than guess what an 8-byte
/// value with padding was meant to store.
fn redo_prefix(
    prefix: &[LogRecord],
    db: &mut BTreeMap<u64, Record>,
    seen: &mut BTreeSet<TxnId>,
    committed: &mut BTreeSet<TxnId>,
) -> Result<usize> {
    for rec in prefix {
        match rec {
            LogRecord::Begin { txn } | LogRecord::Put { txn, .. } | LogRecord::Abort { txn } => {
                seen.insert(*txn);
            }
            LogRecord::Update { txn, key, .. } => {
                return Err(Error::CorruptLog(format!(
                    "paper-accounted Update record ({txn:?}, key {key}) in a session log; \
                     the session engine writes and replays only Put"
                )));
            }
            LogRecord::Commit { txn } => {
                seen.insert(*txn);
                committed.insert(*txn);
            }
            // A checkpoint marker frames replay; it has no effects.
            LogRecord::Checkpoint { .. } => {}
        }
    }
    let mut records_replayed = 0usize;
    for rec in prefix {
        if let LogRecord::Put { txn, key, new, .. } = rec {
            if committed.contains(txn) {
                db.insert(*key, Record::clone(new));
                records_replayed += 1;
            }
        }
    }
    Ok(records_replayed)
}

/// Replays the log files under `dir` into an image, applying the
/// contiguous-LSN-prefix rule.
///
/// When more than one log generation is present, the newest generation
/// whose snapshot completed wins. If that snapshot carries a §5.3
/// checkpoint marker it is an *online* checkpoint: its image is loaded
/// and only the live (oldest) generation's records at or past the
/// marker's replay floor are replayed on top — making recovery work
/// proportional to the checkpoint interval, not total history. A
/// marker-less complete snapshot is a restart compaction and stands
/// alone. The oldest generation present is always usable: old files are
/// only ever deleted *after* the superseding snapshot is durably
/// complete, so an incomplete (torn) snapshot generation always has an
/// intact predecessor still on disk to fall back to.
pub(crate) fn replay_dir(dir: &Path) -> Result<RecoveredImage> {
    let mut generations: BTreeMap<u64, Vec<PathBuf>> = BTreeMap::new();
    let mut skipped_files: Vec<String> = Vec::new();
    for path in log_files(dir)? {
        match generation_of(&path) {
            Some(g) => generations.entry(g).or_default().push(path),
            // A stray *.log file: report it, replay nothing from it.
            None => skipped_files.push(
                path.file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_else(|| path.display().to_string()),
            ),
        }
    }
    skipped_files.sort();
    let max_generation = generations.keys().next_back().copied().unwrap_or(0);
    let oldest = generations.keys().next().copied();
    let mut db = BTreeMap::new();
    let mut seen = BTreeSet::new();
    let mut committed = BTreeSet::new();
    let mut records_replayed = 0usize;
    let mut records_scanned = 0usize;
    let mut corrupt_pages_dropped = 0usize;
    let mut bytes_replayed = 0u64;
    let mut truncated_at = None;
    let mut checkpoint_start = None;
    let mut txn_floor = 0u64;
    for (&generation, paths) in generations.iter().rev() {
        let scan = scan_generation(paths, Lsn(0), 1)?;
        let complete = snapshot_complete(&scan.prefix);
        if Some(generation) != oldest && !complete {
            // Torn snapshot: the generation it superseded is still on
            // disk (truncation waits for durable completeness).
            continue;
        }
        let marker = complete.then(|| checkpoint_marker(&scan.prefix)).flatten();
        records_scanned += scan.records_scanned;
        corrupt_pages_dropped += scan.corrupt_pages_dropped;
        bytes_replayed += scan.bytes_replayed;
        records_replayed += redo_prefix(&scan.prefix, &mut db, &mut seen, &mut committed)?;
        let live_paths = oldest
            .filter(|&g| g != generation)
            .and_then(|g| generations.get(&g));
        match (marker, live_paths) {
            (Some((start, floor)), Some(live)) => {
                // Online checkpoint: the live (oldest) generation holds
                // the log suffix. Pages wholly below the floor are
                // skipped without decoding.
                let first = start.0.max(1);
                let suffix = scan_generation(live, start, first)?;
                records_scanned += suffix.records_scanned;
                corrupt_pages_dropped += suffix.corrupt_pages_dropped;
                bytes_replayed += suffix.bytes_replayed;
                records_replayed +=
                    redo_prefix(&suffix.prefix, &mut db, &mut seen, &mut committed)?;
                truncated_at = suffix.truncated_at;
                checkpoint_start = Some(start);
                txn_floor = floor;
            }
            // Standalone generation: a restart-compaction snapshot, the
            // plain live generation, or (defensively) a checkpoint left
            // as the oldest generation — its image is all that remains.
            _ => truncated_at = scan.truncated_at,
        }
        break;
    }
    let next_txn = (seen.iter().map(|t| t.0).max().unwrap_or(0) + 1)
        .max(txn_floor)
        .max(1);
    // The synthetic snapshot transaction (id 0) is compaction plumbing,
    // not a recovered user transaction: keep it out of the report.
    let losers: Vec<TxnId> = seen
        .difference(&committed)
        .filter(|t| t.0 != 0)
        .copied()
        .collect();
    let committed: Vec<TxnId> = committed.into_iter().filter(|t| t.0 != 0).collect();
    Ok(RecoveredImage {
        db,
        next_txn,
        max_generation,
        info: RecoveryInfo {
            committed,
            losers,
            records_scanned,
            records_replayed,
            truncated_at,
            corrupt_pages_dropped,
            skipped_files,
            log_bytes_replayed: bytes_replayed,
            checkpoint_start,
        },
    })
}

/// Writes an image into `device` as one synthetic committed transaction
/// (id 0), page by page, returning the next free LSN. An empty image
/// still writes its begin/commit pair: the commit record is what marks
/// the generation's snapshot as complete (see [`snapshot_complete`]).
/// With `marker` set this becomes a §5.3 *online checkpoint* generation:
/// the marker rides just after the begin record, so any complete prefix
/// that proves the snapshot finished also carries the replay floor.
pub(crate) fn write_snapshot(
    device: &mut WalDevice,
    image: &BTreeMap<u64, Record>,
    page_bytes: usize,
    marker: Option<(Lsn, u64)>,
) -> Result<u64> {
    let mut records: Vec<LogRecord> = Vec::with_capacity(image.len() + 3);
    records.push(LogRecord::Begin { txn: TxnId(0) });
    if let Some((start, next_txn)) = marker {
        records.push(LogRecord::Checkpoint { start, next_txn });
    }
    for (key, value) in image {
        records.push(LogRecord::Put {
            txn: TxnId(0),
            key: *key,
            new: Record::clone(value),
        });
    }
    records.push(LogRecord::Commit { txn: TxnId(0) });
    append_paged(device, records, page_bytes)
}

/// Appends `records` to `device` as LSNs 1, 2, … packed into pages of
/// `page_bytes` (a larger record gets a page to itself), returning the
/// next free LSN. The image costs **one sync**, after its last frame: a
/// generation is trusted only once its CRC-framed `Commit { txn: 0 }` is
/// readable behind a contiguous prefix, so a crash that leaves any subset
/// of the unsynced frames behind leaves a torn generation
/// [`replay_dir`] falls back past — and callers delete what the image
/// supersedes only after this returns.
pub(crate) fn append_paged(
    device: &mut WalDevice,
    records: Vec<LogRecord>,
    page_bytes: usize,
) -> Result<u64> {
    let mut lsn = 1u64;
    let mut page: Vec<(Lsn, LogRecord)> = Vec::new();
    let mut bytes = 0usize;
    for rec in records {
        let size = rec.byte_size();
        if !page.is_empty() && bytes + size > page_bytes {
            device.append_page_unsynced(&page)?;
            page.clear();
            bytes = 0;
        }
        page.push((Lsn(lsn), rec));
        lsn += 1;
        bytes += size;
    }
    if !page.is_empty() {
        device.append_page_unsynced(&page)?;
    }
    device.sync()?;
    Ok(lsn)
}

impl Engine {
    /// Recovers from the log files under `options.log_dir` and starts a
    /// fresh engine on the recovered image. The old files are compacted
    /// into a new snapshot generation (see the module docs), so recovery
    /// is idempotent: crash, recover, crash again, recover again — and a
    /// crash *during* recovery itself falls back to the generation it
    /// was recovering from.
    pub fn recover(options: EngineOptions) -> Result<(Engine, RecoveryInfo)> {
        let replay_started = std::time::Instant::now();
        let image = replay_dir(&options.log_dir)?;
        let replay_us = u64::try_from(replay_started.elapsed().as_micros()).unwrap_or(u64::MAX);
        // Only recognized generation files are compacted away; a stray
        // *.log was never replayed, so deleting it would destroy data
        // recovery does not understand.
        let old_files: Vec<PathBuf> = log_files(&options.log_dir)?
            .into_iter()
            .filter(|p| generation_of(p).is_some())
            .collect();
        let live_generation = image.max_generation + 1;
        let mut devices = open_devices(&options, live_generation)?;
        // Snapshot before deleting anything: `write_snapshot` returns
        // after the image's one sync, so by the time the old generation
        // goes away the new one is durably complete. A crash in between
        // leaves both on disk and `replay_dir` picks the newest complete
        // generation.
        let first = devices
            .first_mut()
            .ok_or_else(|| Error::Io("no log devices configured".into()))?;
        let next_lsn = write_snapshot(first, &image.db, options.page_bytes, None)?;
        for path in old_files {
            std::fs::remove_file(&path)
                .map_err(|e| Error::Io(format!("remove {}: {e}", path.display())))?;
        }
        // Hand the open devices to the engine: reopening the files here
        // would truncate the snapshot just written.
        let engine = Engine::start_with(
            options,
            image.db.into_iter().collect(),
            image.next_txn,
            next_lsn,
            devices,
            live_generation,
        )?;
        // Restart-cost visibility (§5.2's recovery-time concern): how
        // many transactions the log prefix carried and how long the
        // replay scan took, exposed through the engine's own registry.
        let registry = engine.registry();
        registry
            .gauge(
                "mmdb_session_recovered_txns",
                "Committed transactions restored by the last restart recovery",
            )
            .set(i64::try_from(image.info.committed.len()).unwrap_or(i64::MAX));
        registry
            .gauge(
                "mmdb_session_recovery_replay_us",
                "Wall time of the last restart recovery's log replay",
            )
            .set(i64::try_from(replay_us).unwrap_or(i64::MAX));
        registry
            .gauge(
                "mmdb_session_recovery_log_bytes",
                "Log bytes decoded by the last restart recovery's replay",
            )
            .set(i64::try_from(image.info.log_bytes_replayed).unwrap_or(i64::MAX));
        Ok((engine, image.info))
    }
}

/// Compile-time guard: the shared engine state must cross threads.
fn _assert_shared_send_sync() {
    fn assert<T: Send + Sync>() {}
    assert::<Shared>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::time::Duration;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mmdb-session-recover-{}-{name}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn word(value: i64) -> Record {
        Record::from(&value.to_le_bytes()[..])
    }

    fn put(txn: u64, key: u64, value: i64) -> LogRecord {
        LogRecord::Put {
            txn: TxnId(txn),
            key,
            new: word(value),
        }
    }

    #[test]
    fn replay_empty_dir_is_empty() {
        let dir = tmp_dir("empty");
        let image = replay_dir(&dir).unwrap();
        assert!(image.db.is_empty());
        assert_eq!(image.next_txn, 1);
        assert_eq!(image.info.records_scanned, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prefix_rule_drops_records_after_a_gap() {
        let dir = tmp_dir("gap");
        let mut dev = WalDevice::create(dir.join("wal-d0.log"), 4096, Duration::ZERO).unwrap();
        // Txn 1 commits in LSNs 1..=3; txn 2's commit lands at LSN 7
        // with LSNs 4..=6 missing (their page died with the crash).
        dev.append_page(&[
            (Lsn(1), LogRecord::Begin { txn: TxnId(1) }),
            (Lsn(2), put(1, 10, 100)),
            (Lsn(3), LogRecord::Commit { txn: TxnId(1) }),
        ])
        .unwrap();
        dev.append_page(&[(Lsn(7), LogRecord::Commit { txn: TxnId(2) })])
            .unwrap();
        let image = replay_dir(&dir).unwrap();
        assert_eq!(image.info.truncated_at, Some(Lsn(4)));
        assert_eq!(image.info.committed, vec![TxnId(1)]);
        assert_eq!(image.db.get(&10), Some(&word(100)));
        assert_eq!(image.db.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn losers_are_discarded() {
        let dir = tmp_dir("losers");
        let mut dev = WalDevice::create(dir.join("wal-d0.log"), 4096, Duration::ZERO).unwrap();
        dev.append_page(&[
            (Lsn(1), LogRecord::Begin { txn: TxnId(1) }),
            (Lsn(2), put(1, 1, 11)),
            (Lsn(3), LogRecord::Begin { txn: TxnId(2) }),
            (Lsn(4), put(2, 2, 22)),
            (Lsn(5), LogRecord::Commit { txn: TxnId(1) }),
        ])
        .unwrap();
        let image = replay_dir(&dir).unwrap();
        assert_eq!(image.info.committed, vec![TxnId(1)]);
        assert_eq!(image.info.losers, vec![TxnId(2)]);
        assert_eq!(image.db.get(&1), Some(&word(11)));
        assert_eq!(image.db.get(&2), None, "loser's update discarded");
        assert_eq!(image.next_txn, 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn paper_accounted_update_in_a_session_log_is_refused() {
        // A checksum-valid page carrying the virtual-time manager's
        // record kind: not media damage, so not a truncation — these
        // files are not a session log, and recovery says so.
        let dir = tmp_dir("foreign-update");
        let mut dev = WalDevice::create(dir.join("wal-d0.log"), 4096, Duration::ZERO).unwrap();
        dev.append_page(&[
            (Lsn(1), LogRecord::Begin { txn: TxnId(1) }),
            (
                Lsn(2),
                LogRecord::Update {
                    txn: TxnId(1),
                    key: 1,
                    old: None,
                    new: 11,
                    padding: 0,
                },
            ),
            (Lsn(3), LogRecord::Commit { txn: TxnId(1) }),
        ])
        .unwrap();
        assert!(matches!(replay_dir(&dir), Err(Error::CorruptLog(_))));
        let opts = crate::EngineOptions::new(crate::CommitPolicy::Group, &dir);
        assert!(matches!(Engine::recover(opts), Err(Error::CorruptLog(_))));
        assert!(
            dir.join("wal-d0.log").exists(),
            "nothing was compacted away"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn generation_parsing_is_strict() {
        assert_eq!(generation_of(Path::new("/x/wal-d0.log")), Some(0));
        assert_eq!(generation_of(Path::new("/x/wal-d17.log")), Some(0));
        assert_eq!(generation_of(Path::new("/x/wal-gen3-d1.log")), Some(3));
        assert_eq!(generation_of(Path::new("/x/wal-gen12-d0.log")), Some(12));
        // Strays that the old parser silently counted as generation 0.
        assert_eq!(generation_of(Path::new("/x/debug.log")), None);
        assert_eq!(generation_of(Path::new("/x/wal-backup.log")), None);
        assert_eq!(generation_of(Path::new("/x/wal-genX-d0.log")), None);
        assert_eq!(generation_of(Path::new("/x/wal-gen3-dx.log")), None);
        assert_eq!(generation_of(Path::new("/x/wal-dx.log")), None);
        assert_eq!(generation_of(Path::new("/x/wal-gen3.log")), None);
    }

    #[test]
    fn stray_log_file_is_skipped_and_reported_not_replayed() {
        let dir = tmp_dir("stray");
        let mut dev = WalDevice::create(dir.join("wal-d0.log"), 4096, Duration::ZERO).unwrap();
        dev.append_page(&[
            (Lsn(1), LogRecord::Begin { txn: TxnId(1) }),
            (Lsn(2), LogRecord::Commit { txn: TxnId(1) }),
        ])
        .unwrap();
        // A stray file whose records would wreck the image if merged:
        // same LSNs, different content.
        let mut stray = WalDevice::create(dir.join("app-debug.log"), 4096, Duration::ZERO).unwrap();
        stray
            .append_page(&[
                (Lsn(1), LogRecord::Begin { txn: TxnId(9) }),
                (Lsn(2), put(9, 5, 55)),
            ])
            .unwrap();
        let image = replay_dir(&dir).unwrap();
        assert_eq!(image.info.skipped_files, vec!["app-debug.log".to_string()]);
        assert_eq!(image.info.committed, vec![TxnId(1)]);
        assert!(image.db.is_empty(), "stray records were not merged");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_page_truncates_and_is_reported() {
        let dir = tmp_dir("corruptpage");
        let mut dev = WalDevice::create(dir.join("wal-d0.log"), 4096, Duration::ZERO).unwrap();
        dev.append_page(&[
            (Lsn(1), LogRecord::Begin { txn: TxnId(1) }),
            (Lsn(2), LogRecord::Commit { txn: TxnId(1) }),
        ])
        .unwrap();
        dev.append_page(&[
            (Lsn(3), LogRecord::Begin { txn: TxnId(2) }),
            (Lsn(4), LogRecord::Commit { txn: TxnId(2) }),
        ])
        .unwrap();
        // Flip one payload byte of the second page on disk: its CRC now
        // fails, the page is dropped, replay keeps txn 1 and reports.
        let path = dir.join("wal-d0.log");
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let image = replay_dir(&dir).unwrap();
        assert_eq!(image.info.committed, vec![TxnId(1)]);
        assert_eq!(image.info.corrupt_pages_dropped, 1);
        assert!(image.info.skipped_files.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_preserves_stray_files() {
        let dir = tmp_dir("stray-preserved");
        let opts = crate::EngineOptions::new(crate::CommitPolicy::Group, &dir)
            .with_flush_interval(Duration::from_millis(1))
            .with_page_write_latency(Duration::ZERO);
        let engine = Engine::start(opts.clone()).unwrap();
        let s = engine.session();
        let t = s.begin().unwrap();
        s.write(&t, 1, 10).unwrap();
        s.commit_durable(t).unwrap();
        engine.crash().unwrap();
        std::fs::write(dir.join("operator-notes.log"), b"do not delete").unwrap();
        let (engine, info) = Engine::recover(opts).unwrap();
        assert_eq!(info.skipped_files, vec!["operator-notes.log".to_string()]);
        assert_eq!(engine.read(1).unwrap(), Some(10));
        engine.shutdown().unwrap();
        assert!(
            dir.join("operator-notes.log").exists(),
            "compaction must not delete files it did not replay"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_roundtrips_through_replay() {
        let dir = tmp_dir("snapshot");
        // Records of every length from empty up, some past the page size.
        let image: BTreeMap<u64, Record> = (0..100u64)
            .map(|i| (i, Record::from(vec![i as u8; (i as usize) * 9])))
            .collect();
        let mut dev = WalDevice::create(dir.join("wal-d0.log"), 512, Duration::ZERO).unwrap();
        let next = write_snapshot(&mut dev, &image, 512, None).unwrap();
        assert_eq!(next as usize, image.len() + 3, "begin + updates + commit");
        assert!(dev.pages_written() > 1, "snapshot spans pages");
        let replayed = replay_dir(&dir).unwrap();
        assert_eq!(replayed.db, image);
        assert_eq!(replayed.info.truncated_at, None);
        std::fs::remove_dir_all(&dir).ok();
    }
}
