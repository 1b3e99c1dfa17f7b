//! Restart recovery for the wall-clock log (§5.2), closed by a §5.3
//! checkpoint.
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
//! The log directory holds **log generations** (`wal-d{i}.log` is
//! generation 0, `wal-gen{g}-d{i}.log` generation `g`), and replay has
//! one rule for them: the oldest generation is the live log, every other
//! one is a §5.3 checkpoint image. Replay loads the newest *complete*
//! image — its transaction-0 commit and its marker both in its prefix —
//! and redoes the live log from the image's replay floor; with no
//! complete image it redoes the live log from LSN 1.
//!
//! [`Engine::recover`] then starts the engine on a fresh live generation
//! above every one on disk, its LSNs continuing the replayed prefix, and
//! takes one checkpoint of the recovered state. That sweep deletes the
//! generations it supersedes only once its image is durable, so a crash
//! anywhere inside recovery leaves the pre-restart generations intact
//! and the next restart recovers the same state — bounding future
//! recovery work by checkpointing the recovered state, as §5.3 does for
//! live traffic.

use crate::engine::{device_file_name, log_files, Engine};
use crate::log_writer::Shared;
use crate::policy::EngineOptions;
use mmdb_recovery::wal::read_log_file_report_from;
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
    /// part of the LSN sequence) nor destroyed by a checkpoint sweep.
    pub skipped_files: Vec<String>,
    /// Log bytes actually checksummed and decoded during replay. This is
    /// the §5.3 recovery-cost denominator: with online checkpointing the
    /// live generation's pages below the checkpoint's replay floor are
    /// skipped wholesale, so this stays proportional to the checkpoint
    /// interval instead of total history.
    pub log_bytes_replayed: u64,
    /// When replay combined a complete §5.3 checkpoint with the live
    /// generation's suffix, the first LSN that suffix replay started at;
    /// `None` for a full-log replay from LSN 1.
    pub checkpoint_start: Option<Lsn>,
}

/// The outcome of replaying a log directory.
#[derive(Debug)]
pub(crate) struct RecoveredImage {
    pub db: BTreeMap<u64, Record>,
    pub next_txn: u64,
    /// The LSN after the live log's contiguous prefix: where the
    /// restarted engine's LSNs continue.
    pub next_lsn: u64,
    /// Highest log generation found on disk (0 when the directory is
    /// empty); the restarted engine's live log is the next one.
    pub max_generation: u64,
    pub info: RecoveryInfo,
}

/// Log generation a device file belongs to — the exact inverse of
/// [`device_file_name`]: a name is accepted only if `device_file_name`
/// reproduces it byte for byte. Any other name returns `None`: a stray
/// `*.log` file (`debug.log`, `wal-gen0-d0.log`, `wal-d01.log`) must not
/// be merged into a generation's replay, where its LSNs would collide
/// with the real device files' (its records were never part of the LSN
/// sequence), nor deleted with that generation.
pub(crate) fn generation_of(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let rest = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    let (generation, device) = match rest.strip_prefix("gen") {
        Some(rest) => rest.split_once("-d")?,
        None => ("0", rest.strip_prefix('d')?),
    };
    let g = generation.parse::<u64>().ok()?;
    let i = device.parse::<usize>().ok()?;
    (device_file_name(g, i) == name).then_some(g)
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
/// starting at LSN `first`. Whole pages below `first` (the §5.3
/// checkpoint's replay floor) are skipped without being decoded.
fn scan_generation(paths: &[PathBuf], first: u64) -> Result<GenScan> {
    let mut all = Vec::new();
    let mut corrupt = 0usize;
    let mut bytes = 0u64;
    for p in paths {
        let report = read_log_file_report_from(p, Lsn(first))?;
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

/// The marker of a *complete* checkpoint image — `(replay floor,
/// txn-id allocator floor)` — when the prefix carries both the
/// synthetic transaction 0's commit record and a
/// [`LogRecord::Checkpoint`]; `None` for a torn image.
fn complete_image(prefix: &[LogRecord]) -> Option<(Lsn, u64)> {
    let committed = prefix
        .iter()
        .any(|r| matches!(r, LogRecord::Commit { txn } if txn.0 == 0));
    let marker = prefix.iter().find_map(|r| match r {
        LogRecord::Checkpoint { start, next_txn } => Some((*start, *next_txn)),
        _ => None,
    });
    marker.filter(|_| committed)
}

/// The image being rebuilt and what replay has counted so far.
#[derive(Default)]
struct Redo {
    db: BTreeMap<u64, Record>,
    seen: BTreeSet<TxnId>,
    committed: BTreeSet<TxnId>,
    records_scanned: usize,
    records_replayed: usize,
    corrupt_pages_dropped: usize,
    bytes_replayed: u64,
}

impl Redo {
    /// Two-pass redo over a scanned prefix: commit decisions first, then
    /// committed transactions' puts applied in LSN order (absolute
    /// values, so re-applying records whose effects a checkpoint image
    /// already carries is idempotent — §5.3).
    ///
    /// The engine writes one update-record kind, [`LogRecord::Put`]. A
    /// [`LogRecord::Update`] — the virtual-time manager's paper-accounted
    /// record — under a valid checksum means these files are not this
    /// engine's log: replay refuses them rather than guess what an 8-byte
    /// value with padding was meant to store.
    fn apply(&mut self, scan: &GenScan) -> Result<()> {
        self.records_scanned += scan.records_scanned;
        self.corrupt_pages_dropped += scan.corrupt_pages_dropped;
        self.bytes_replayed += scan.bytes_replayed;
        for rec in &scan.prefix {
            match rec {
                LogRecord::Begin { txn }
                | LogRecord::Put { txn, .. }
                | LogRecord::Abort { txn } => {
                    self.seen.insert(*txn);
                }
                LogRecord::Update { txn, key, .. } => {
                    return Err(Error::CorruptLog(format!(
                        "paper-accounted Update record ({txn:?}, key {key}) in a session log; \
                         the session engine writes and replays only Put"
                    )));
                }
                LogRecord::Commit { txn } => {
                    self.seen.insert(*txn);
                    self.committed.insert(*txn);
                }
                // A checkpoint marker frames replay; it has no effects.
                LogRecord::Checkpoint { .. } => {}
            }
        }
        for rec in &scan.prefix {
            if let LogRecord::Put { txn, key, new, .. } = rec {
                if self.committed.contains(txn) {
                    self.db.insert(*key, Record::clone(new));
                    self.records_replayed += 1;
                }
            }
        }
        Ok(())
    }
}

/// Replays the log files under `dir` into an image by the one rule of
/// the module docs: the newest complete checkpoint image, then the live
/// (oldest) generation from that image's floor — or, with no complete
/// image, from LSN 1. A torn image is passed over: superseded
/// generations are deleted only *after* the image superseding them is
/// durably complete, so whatever a torn image was replacing is still on
/// disk.
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
    let mut generations = generations.into_values();
    let live = generations.next().unwrap_or_default();
    let mut redo = Redo::default();
    let mut first = 1;
    let mut txn_floor = 0;
    let mut checkpoint_start = None;
    for paths in generations.rev() {
        let scan = scan_generation(&paths, 1)?;
        if let Some((start, next_txn)) = complete_image(&scan.prefix) {
            redo.apply(&scan)?;
            first = start.0.max(1);
            txn_floor = next_txn;
            checkpoint_start = Some(start);
            break;
        }
    }
    let suffix = scan_generation(&live, first)?;
    redo.apply(&suffix)?;
    let next_lsn = first + suffix.prefix.len() as u64;
    let next_txn = (redo.seen.iter().map(|t| t.0).max().unwrap_or(0) + 1)
        .max(txn_floor)
        .max(1);
    // The synthetic image transaction (id 0) is checkpoint plumbing, not
    // a recovered user transaction: keep it out of the report.
    let losers: Vec<TxnId> = redo
        .seen
        .difference(&redo.committed)
        .filter(|t| t.0 != 0)
        .copied()
        .collect();
    let committed: Vec<TxnId> = redo.committed.into_iter().filter(|t| t.0 != 0).collect();
    Ok(RecoveredImage {
        db: redo.db,
        next_txn,
        next_lsn,
        max_generation,
        info: RecoveryInfo {
            committed,
            losers,
            records_scanned: redo.records_scanned,
            records_replayed: redo.records_replayed,
            truncated_at: suffix.truncated_at,
            corrupt_pages_dropped: redo.corrupt_pages_dropped,
            skipped_files,
            log_bytes_replayed: redo.bytes_replayed,
            checkpoint_start,
        },
    })
}

impl Engine {
    /// Recovers from the log files under `options.log_dir`: replays them
    /// (see the module docs), starts a fresh engine on the recovered
    /// image in a new live generation, and checkpoints it with
    /// [`Engine::checkpoint_now`], whose sweep retires the old
    /// generations once the image is durable. Recovery is idempotent —
    /// crash, recover, crash again, recover again — and a crash or a
    /// failed write *during* recovery leaves the generations it was
    /// recovering from on disk: a failed sweep crashes the new engine and
    /// returns the error.
    pub fn recover(options: EngineOptions) -> Result<(Engine, RecoveryInfo)> {
        let replay_started = std::time::Instant::now();
        let image = replay_dir(&options.log_dir)?;
        let replay_us = u64::try_from(replay_started.elapsed().as_micros()).unwrap_or(u64::MAX);
        let engine = Engine::start_with(
            options,
            image.db.into_iter().collect(),
            image.next_txn,
            image.next_lsn,
            image.max_generation + 1,
        )?;
        if let Err(e) = engine.checkpoint_now() {
            let _ = engine.crash();
            return Err(e);
        }
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
    use mmdb_recovery::wal::WalDevice;
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
        assert_eq!(image.next_lsn, 4, "a restart's LSNs continue the prefix");
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
            "nothing was checkpointed away"
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
        // Names that parse but that `device_file_name` never writes.
        assert_eq!(generation_of(Path::new("/x/wal-gen0-d0.log")), None);
        assert_eq!(generation_of(Path::new("/x/wal-gen03-d1.log")), None);
        assert_eq!(generation_of(Path::new("/x/wal-d01.log")), None);
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
            "a checkpoint sweep must not delete files recovery did not replay"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    fn group_options(dir: &Path) -> EngineOptions {
        crate::EngineOptions::new(crate::CommitPolicy::Group, dir)
    }

    fn commit_words(engine: &Engine, writes: &[(u64, i64)]) -> Lsn {
        let s = engine.session();
        let t = s.begin().unwrap();
        for (key, value) in writes {
            s.write(&t, *key, *value).unwrap();
        }
        s.commit_durable(t).unwrap().lsn
    }

    /// The log directory's generations, oldest first.
    fn generations(dir: &Path) -> Vec<(u64, Vec<PathBuf>)> {
        let mut by_generation: BTreeMap<u64, Vec<PathBuf>> = BTreeMap::new();
        for path in log_files(dir).unwrap() {
            if let Some(g) = generation_of(&path) {
                by_generation.entry(g).or_default().push(path);
            }
        }
        by_generation.into_iter().collect()
    }

    /// What every successful [`Engine::recover`] leaves: the live
    /// generation's device files and one complete checkpoint generation
    /// above it — strays aside, nothing else.
    fn assert_live_log_and_one_image(dir: &Path, devices: usize) {
        let generations = generations(dir);
        let [(live, live_files), (image, image_files)] = generations.as_slice() else {
            panic!("want a live log and one image, found {generations:?}");
        };
        assert!(image > live, "{generations:?}");
        assert_eq!(live_files.len(), devices, "{generations:?}");
        assert_eq!(
            image_files.len(),
            1,
            "an image is device 0: {generations:?}"
        );
        let scan = scan_generation(image_files, 1).unwrap();
        assert!(complete_image(&scan.prefix).is_some(), "{generations:?}");
    }

    /// Invariant (a), over one- and two-device logs, restarts after a
    /// crash and after a clean shutdown, with and without a stray file.
    #[test]
    fn every_restart_leaves_a_live_log_and_one_complete_image() {
        for devices in [1, 2] {
            let dir = tmp_dir("settled");
            let mut opts = group_options(&dir);
            if devices == 2 {
                opts.policy = crate::CommitPolicy::Partitioned { devices: 2 };
            }
            let engine = Engine::start(opts.clone()).unwrap();
            commit_words(&engine, &[(1, 1)]);
            engine.crash().unwrap();
            for round in 0..3i64 {
                if round == 1 {
                    std::fs::write(dir.join("notes.log"), b"stray").unwrap();
                }
                let (engine, _) = Engine::recover(opts.clone()).unwrap();
                assert_live_log_and_one_image(&dir, devices);
                assert_eq!(engine.read(1).unwrap(), Some(1 + round));
                commit_words(&engine, &[(1, 2 + round)]);
                if round == 2 {
                    engine.shutdown().unwrap();
                } else {
                    engine.crash().unwrap();
                }
            }
            assert!(dir.join("notes.log").exists());
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// Invariant (b): the first commit after a restart gets an LSN above
    /// every one replayed — also after a restart that committed nothing,
    /// and with stale post-gap records in the pre-restart log.
    #[test]
    fn lsns_never_go_backwards_across_a_restart() {
        let dir = tmp_dir("lsn-continues");
        let mut dev = WalDevice::create(dir.join("wal-d0.log"), 4096, Duration::ZERO).unwrap();
        dev.append_page(&[
            (Lsn(1), put(1, 10, 100)),
            (Lsn(2), LogRecord::Commit { txn: TxnId(1) }),
        ])
        .unwrap();
        // LSN 3 died with the crash; txn 2's put and commit beat it to disk.
        dev.append_page(&[
            (Lsn(4), put(2, 10, 666)),
            (Lsn(5), LogRecord::Commit { txn: TxnId(2) }),
        ])
        .unwrap();
        drop(dev);
        let opts = group_options(&dir);
        let (engine, info) = Engine::recover(opts.clone()).unwrap();
        assert_eq!(info.truncated_at, Some(Lsn(3)));
        let first = commit_words(&engine, &[(11, 1)]);
        assert!(first > Lsn(2), "first commit after restart at {first:?}");
        engine.crash().unwrap();
        // A restart that commits nothing still moves no LSN backwards.
        let (engine, _) = Engine::recover(opts.clone()).unwrap();
        engine.crash().unwrap();
        let (engine, _) = Engine::recover(opts.clone()).unwrap();
        let second = commit_words(&engine, &[(12, 2)]);
        assert!(second > first, "{second:?} after {first:?}");
        engine.crash().unwrap();
        let (engine, _) = Engine::recover(opts).unwrap();
        assert_eq!(
            engine.read(10).unwrap(),
            Some(100),
            "post-gap txn never redone"
        );
        assert_eq!(engine.read(11).unwrap(), Some(1));
        assert_eq!(engine.read(12).unwrap(), Some(2));
        engine.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A log with a checkpoint image and a suffix past it, crashed; the
    /// state it recovers to.
    fn crashed_with_image_and_suffix(dir: &Path) -> Vec<Option<i64>> {
        let engine = Engine::start(group_options(dir)).unwrap();
        commit_words(&engine, &[(1, 10), (2, 20)]);
        engine.checkpoint_now().unwrap();
        commit_words(&engine, &[(2, 21), (3, 30)]);
        engine.crash().unwrap();
        vec![Some(10), Some(21), Some(30)]
    }

    fn read_keys(engine: &Engine) -> Vec<Option<i64>> {
        (1..4).map(|k| engine.read(k).unwrap()).collect()
    }

    /// Invariant (c), first window: the restart dies after opening its
    /// live generation, on the image's first write. The next restart
    /// recovers the pre-restart image plus suffix, and settles.
    #[test]
    fn a_restart_that_dies_before_its_image_completes_changes_nothing() {
        let dir = tmp_dir("dies-mid-image");
        let want = crashed_with_image_and_suffix(&dir);
        let before = generations(&dir);
        let faulted = group_options(&dir)
            .with_fault_plans(vec![mmdb_recovery::FaultPlan::none().fail_write(0, 1)]);
        assert!(matches!(Engine::recover(faulted), Err(Error::Io(_))));
        // Its live generation and its torn image stayed behind.
        assert_eq!(generations(&dir).len(), before.len() + 2);
        let (engine, info) = Engine::recover(group_options(&dir)).unwrap();
        assert!(info.checkpoint_start.is_some(), "the pre-restart image");
        assert_eq!(info.committed.len(), 1, "and its suffix");
        assert_eq!(read_keys(&engine), want);
        assert_live_log_and_one_image(&dir, 1);
        engine.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Invariant (c), second window: the restart's image is durable but
    /// the generations it supersedes are still on disk (put back here by
    /// hand, byte for byte). The next restart loads the restart's image,
    /// and settles.
    #[test]
    fn a_restart_that_dies_before_retiring_old_generations_changes_nothing() {
        let dir = tmp_dir("dies-before-delete");
        let want = crashed_with_image_and_suffix(&dir);
        let old: Vec<(PathBuf, Vec<u8>)> = log_files(&dir)
            .unwrap()
            .into_iter()
            .map(|p| {
                let bytes = std::fs::read(&p).unwrap();
                (p, bytes)
            })
            .collect();
        let (engine, _) = Engine::recover(group_options(&dir)).unwrap();
        engine.crash().unwrap();
        for (path, bytes) in &old {
            std::fs::write(path, bytes).unwrap();
        }
        assert_eq!(generations(&dir).len(), old.len() + 2);
        let (engine, info) = Engine::recover(group_options(&dir)).unwrap();
        assert!(info.checkpoint_start.is_some(), "the restart's image");
        assert!(info.committed.is_empty(), "nothing past it");
        assert_eq!(read_keys(&engine), want);
        assert_live_log_and_one_image(&dir, 1);
        engine.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Invariant (d): a restart is one sweep, and a background sweeper on
    /// the restarted engine allocates past the restart image's
    /// generation instead of overwriting it.
    #[test]
    fn a_restart_is_one_checkpoint_and_the_sweeper_numbers_past_it() {
        let dir = tmp_dir("one-sweep");
        let engine = Engine::start(group_options(&dir)).unwrap();
        commit_words(&engine, &[(1, 10)]);
        engine.crash().unwrap();
        let (engine, _) = Engine::recover(group_options(&dir)).unwrap();
        assert_eq!(
            engine.stats().counter("mmdb_session_checkpoints_total"),
            Some(1)
        );
        engine.crash().unwrap();
        let restart_image = generations(&dir).last().unwrap().0 + 2;
        let opts = group_options(&dir).with_checkpoint_interval(Duration::from_millis(1));
        let (engine, _) = Engine::recover(opts).unwrap();
        while engine.stats().counter("mmdb_session_checkpoints_total") < Some(2) {
            std::thread::yield_now();
        }
        engine.crash().unwrap();
        let on_disk: Vec<u64> = generations(&dir).into_iter().map(|(g, _)| g).collect();
        assert!(!on_disk.contains(&restart_image), "{on_disk:?}");
        assert!(on_disk.iter().any(|&g| g > restart_image), "{on_disk:?}");
        let (engine, _) = Engine::recover(group_options(&dir)).unwrap();
        assert_eq!(engine.read(1).unwrap(), Some(10));
        engine.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(16))]

        /// Garbage where a checkpoint image should be — arbitrary bytes,
        /// behind or without a well-formed image page that never commits
        /// and names a replay floor past the whole live log — is passed
        /// over: recovery returns the live log's state.
        #[test]
        fn a_garbage_image_generation_beside_an_intact_live_log_is_ignored(
            garbage in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..512),
            torn_image_head in proptest::prelude::any::<bool>(),
        ) {
            let dir = tmp_dir("garbage-image");
            let engine = Engine::start(group_options(&dir)).unwrap();
            commit_words(&engine, &[(1, 10), (2, 20)]);
            commit_words(&engine, &[(2, 21)]);
            engine.crash().unwrap();
            let image = dir.join(device_file_name(1, 0));
            let mut dev = WalDevice::create(&image, 4096, Duration::ZERO).unwrap();
            if torn_image_head {
                dev.append_page(&[
                    (Lsn(1), LogRecord::Begin { txn: TxnId(0) }),
                    (Lsn(2), LogRecord::Checkpoint { start: Lsn(1_000), next_txn: 1 }),
                    (Lsn(3), put(0, 1, 999)),
                ])
                .unwrap();
            }
            drop(dev);
            let mut bytes = std::fs::read(&image).unwrap();
            bytes.extend_from_slice(&garbage);
            std::fs::write(&image, &bytes).unwrap();
            let (engine, info) = Engine::recover(group_options(&dir)).unwrap();
            proptest::prop_assert_eq!(info.checkpoint_start, None);
            proptest::prop_assert_eq!(info.committed.len(), 2);
            proptest::prop_assert_eq!(read_keys(&engine), vec![Some(10), Some(21), None]);
            engine.shutdown().unwrap();
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// A stray whose name *almost* matches a device file — it parses as
    /// generation 0, device 0 — carries a committed transaction at the
    /// LSNs right after the live log's prefix. Merged, it would extend
    /// that prefix and be redone; instead it is skipped, reported, never
    /// replayed, and outlives the restart's sweep.
    #[test]
    fn near_miss_device_name_is_a_stray_not_generation_0() {
        let dir = tmp_dir("near-miss");
        let opts = crate::EngineOptions::new(crate::CommitPolicy::Group, &dir);
        let engine = Engine::start(opts.clone()).unwrap();
        let s = engine.session();
        let t = s.begin().unwrap();
        s.write(&t, 1, 10).unwrap();
        // One put and the commit record: LSNs 1 and 2.
        assert_eq!(s.commit_durable(t).unwrap().lsn, Lsn(2));
        engine.crash().unwrap();
        let mut stray =
            WalDevice::create(dir.join("wal-gen0-d0.log"), 4096, Duration::ZERO).unwrap();
        stray
            .append_page(&[
                (Lsn(3), put(7, 1, 99)),
                (Lsn(4), LogRecord::Commit { txn: TxnId(7) }),
            ])
            .unwrap();
        drop(stray);
        let (engine, info) = Engine::recover(opts.clone()).unwrap();
        assert_eq!(info.skipped_files, vec!["wal-gen0-d0.log".to_string()]);
        assert_eq!(
            engine.read(1).unwrap(),
            Some(10),
            "the stray was not replayed"
        );
        engine.shutdown().unwrap();
        assert!(
            dir.join("wal-gen0-d0.log").exists(),
            "the stray outlived the sweep"
        );
        let (engine, info) = Engine::recover(opts).unwrap();
        assert_eq!(info.skipped_files, vec!["wal-gen0-d0.log".to_string()]);
        assert_eq!(engine.read(1).unwrap(), Some(10));
        engine.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
