//! §5.3 online fuzzy checkpointing for the wall-clock engine — the one
//! writer of checkpoint images, on a timer, on demand, and as the last
//! step of every restart ([`Engine::recover`]).
//!
//! The paper's recovery-cost argument is that replay work should be
//! bounded by the *checkpoint interval*, not by total history. A sweep
//! runs *during live traffic*, §5.3-style:
//!
//! - A background sweeper walks the shards one at a time, taking each
//!   shard guard only long enough to copy its table — **action
//!   consistent** per shard, no global pause, exactly the paper's fuzzy
//!   dump discipline.
//! - In-flight (not yet durably committed) writes are backed out of the
//!   copy using the shard's undo list, newest write first by the shard's
//!   own write sequence, so the image holds only durable data. A
//!   transaction is in the log only from pre-commit on (§5.4), as one
//!   LSN run its undo lists are stamped with. The sweep captures the
//!   queue's next LSN, then the durable LSN, before visiting any shard:
//!   a list committed at or below that durable LSN is *settled* — left
//!   in the image, finalized or not; a pre-committed list above it is
//!   backed out and pulls the **replay floor** `start` down to its run's
//!   first LSN; an active one is backed out and needs no floor — its run
//!   will land at or past the captured next LSN, `start`'s upper bound.
//!   Every effect missing from the image sits in the live log at
//!   LSN ≥ `start`.
//! - The image goes to a **new generation** — device 0 of it, opened
//!   like any log device, through the same [`WalDevice`] /
//!   `LogBackend` stack the commit path uses — as one synthetic
//!   committed transaction (id 0) whose [`LogRecord::Checkpoint`] marker
//!   carries `start` and the transaction-id floor. The live generation
//!   keeps growing in place; the sweeper never touches it.
//! - Every other generation — superseded images, torn leftovers of
//!   crashed sweeps, and after a restart the pre-restart live log — is
//!   deleted only *after* the new image's commit record is durable (the
//!   image is written, then synced once): a crash mid-sweep leaves a
//!   torn generation that recovery skips, with its predecessors intact.
//! - A **dirty-shard table** ([`crate::shard::ShardState::dirty`] plus
//!   the sweeper's settled-image cache) makes successive sweeps copy
//!   only shards mutated since the last sweep.
//!
//! Recovery ([`crate::recover`]) loads the newest complete checkpoint
//! and replays only the live-log suffix past `start`, making recovery
//! O(checkpoint interval).
//!
//! [`Engine::recover`]: crate::Engine::recover

use crate::engine::{log_files, open_device};
use crate::log_writer::Shared;
use crate::recover::generation_of;
use crate::shard::UndoEntry;
use mmdb_recovery::wal::WalDevice;
use mmdb_recovery::{LogRecord, Lsn, Record};
use mmdb_types::{Error, Result, TxnId};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Sweeper state carried across checkpoints: the settled-image cache
/// behind the §5.3 dirty-shard optimization, and the generation
/// numbering the sweeper allocates from.
#[derive(Debug)]
pub(crate) struct CheckpointState {
    /// Per-shard image from the last sweep, kept only when the shard was
    /// *settled* (nothing to back out — every value durably committed) at
    /// copy time. A clean shard with a cached image is not re-copied.
    /// An image shares its records with the store it was copied from.
    cache: Vec<Option<HashMap<u64, Record>>>,
    /// The generation the engine's live log files belong to. Never
    /// deleted by the sweeper: the live log is the suffix recovery
    /// replays past the checkpoint's floor.
    live_generation: u64,
    /// Next generation number to allocate for a checkpoint image.
    /// Monotonic even across failed sweeps, so a torn image never gets
    /// overwritten by a later attempt reusing its name.
    next_generation: u64,
}

impl CheckpointState {
    /// Fresh state for an engine whose live log files belong to
    /// `live_generation`.
    pub fn new(shards: usize, live_generation: u64) -> Self {
        CheckpointState {
            cache: (0..shards).map(|_| None).collect(),
            live_generation,
            next_generation: live_generation + 1,
        }
    }
}

/// Where a torture sweep deliberately dies, emulating a crash at the
/// §5.3 failure points the generation protocol must survive: a torn
/// image (crash mid-dump) and a complete-but-untruncated pair (crash
/// between durability and cleanup).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SweepHalt {
    /// Run the sweep to completion (production behavior).
    None,
    /// Write a truncated copy of the image's records — begin record,
    /// checkpoint marker, half the puts, **no commit** — then fail,
    /// leaving an incomplete generation on disk exactly as a crash
    /// mid-checkpoint would.
    MidImage,
    /// Write the complete image but skip truncating superseded
    /// generations, as a crash between the final sync and the deletes
    /// would.
    BeforeTruncate,
}

/// What one completed checkpoint sweep did (§5.3 accounting): which
/// generation it wrote, the replay floor it established, and how much
/// of the store the dirty-shard table let it skip.
#[derive(Debug, Clone)]
pub struct CheckpointStats {
    /// Log generation the checkpoint image was written to.
    pub generation: u64,
    /// Replay floor: recovery from this checkpoint replays only live-log
    /// records at LSN ≥ `start` (§5.3's bounded-recovery claim).
    pub start: Lsn,
    /// Shards freshly copied this sweep (dirty, or never yet cached).
    /// The §5.3 dirty-shard table means a quiet shard appears here at
    /// most once until the next write touches it.
    pub rewritten: Vec<usize>,
    /// Total shard count, for rewrite-ratio reporting.
    pub shards: usize,
    /// Keys in the checkpoint image.
    pub image_keys: usize,
    /// Bytes of the checkpoint generation file (what a recovery would
    /// read *instead of* the full history).
    pub log_bytes_written: u64,
}

/// Runs one §5.3 fuzzy checkpoint sweep. Takes each shard guard briefly
/// (action-consistent per shard, no global pause), never holds two
/// engine locks at once, and does all file I/O with no locks held —
/// commit traffic proceeds throughout.
pub(crate) fn sweep(
    shared: &Shared,
    ck: &mut CheckpointState,
    halt: SweepHalt,
) -> Result<CheckpointStats> {
    let started = Instant::now();
    // Capture the fuzziness window's upper bound before visiting any
    // shard: whatever pre-commits after this gets LSNs ≥ it, so even if
    // its writes sneak into a shard image copied later, replay covers it.
    let captured_next_lsn = {
        let q = shared.queue_guard()?;
        if q.shutdown || q.crashed {
            return Err(Error::Shutdown);
        }
        q.next_lsn()
    };
    // ordering: Relaxed suffices — releasing the queue mutex above
    // synchronizes with every transaction that appended before the
    // capture, so their `fetch_add`s on next_txn are already visible;
    // later allocations only push the floor higher, which is safe.
    let next_txn = shared.next_txn.load(Ordering::Relaxed);
    // Read once, before any shard: a commit at or below this is durable
    // whether or not the writer has dropped its undo lists yet.
    let durable_lsn = {
        let d = shared.durable_guard()?;
        d.table.durable_lsn()
    };

    let shard_count = shared.shards.len();
    let mut start = captured_next_lsn;
    let mut fresh: Vec<Option<HashMap<u64, Record>>> = Vec::with_capacity(shard_count);
    let mut rewritten: Vec<usize> = Vec::new();
    for (i, (shard, cache)) in shared.shards.iter().zip(ck.cache.iter_mut()).enumerate() {
        let mut state = shard.guard()?;
        // What the image must not contain: every list not durably
        // committed. A pre-committed one also lowers the replay floor to
        // its run's first record, cached copy or not.
        let mut in_flight: Vec<&UndoEntry> = Vec::new();
        for list in state.undo.values() {
            match list.logged {
                Some((_, commit)) if commit <= durable_lsn => continue,
                Some((first, _)) => start = start.min(first),
                None => {}
            }
            in_flight.extend(&list.entries);
        }
        if !state.dirty && cache.is_some() {
            // Untouched since its cached settled image — the §5.3
            // dirty-shard table says don't re-copy it.
            fresh.push(None);
            continue;
        }
        let mut image = state.db.clone();
        // Back out newest-first so chained overwrites by different
        // transactions unwind in the right order.
        in_flight.sort_by_key(|e| std::cmp::Reverse(e.seq));
        let settled = in_flight.is_empty();
        for entry in in_flight {
            match &entry.old {
                Some(v) => {
                    image.insert(entry.key, Record::clone(v));
                }
                None => {
                    image.remove(&entry.key);
                }
            }
        }
        if settled {
            // Every value is durably committed: the copy stays valid
            // until the next write, which re-marks the shard dirty.
            state.dirty = false;
            *cache = Some(image);
            fresh.push(None);
        } else {
            *cache = None;
            fresh.push(Some(image));
        }
        rewritten.push(i);
    }

    // No engine locks held from here on: merge, write, truncate. A key
    // lives on one shard, so merging is concatenating; sorting makes an
    // image's bytes a function of its contents.
    let mut merged: Vec<(u64, Record)> = fresh
        .iter()
        .zip(ck.cache.iter())
        .filter_map(|(new_copy, cached)| new_copy.as_ref().or(cached.as_ref()))
        .flat_map(|image| image.iter().map(|(k, v)| (*k, Record::clone(v))))
        .collect();
    merged.sort_unstable_by_key(|(key, _)| *key);
    let image_keys = merged.len();

    let generation = ck.next_generation;
    ck.next_generation += 1;
    let mut device = open_device(&shared.options, generation, 0)?;
    let mut records = image_records(merged, Lsn(start), next_txn);
    if halt == SweepHalt::MidImage {
        // Begin, marker, half the puts, no commit record.
        records.truncate(2 + image_keys / 2);
        write_image(&mut device, records)?;
        return Err(Error::Io("checkpoint halted mid-image (torture)".into()));
    }
    write_image(&mut device, records)?;
    let log_bytes_written = device.bytes_written();

    // The image is durably complete (written, then synced); every
    // generation but it and the live log can go.
    if halt != SweepHalt::BeforeTruncate {
        for p in log_files(&shared.options.log_dir)? {
            if let Some(g) = generation_of(&p) {
                if g != ck.live_generation && g != generation {
                    std::fs::remove_file(&p)
                        .map_err(|e| Error::Io(format!("remove {}: {e}", p.display())))?;
                }
            }
        }
    }

    let m = &shared.metrics;
    m.checkpoints.inc();
    m.checkpoint_duration_us
        .record(crate::metrics::us_since(started));
    m.checkpoint_bytes
        .set(i64::try_from(log_bytes_written).unwrap_or(i64::MAX));
    // ordering: the appended-LSN watermark is a monotonic gauge input;
    // a slightly stale read only understates the lag.
    let appended = m.appended_lsn.load(Ordering::Relaxed);
    m.checkpoint_lag
        .set(i64::try_from(appended.saturating_sub(start)).unwrap_or(i64::MAX));
    m.checkpoint_rewritten
        .set(i64::try_from(rewritten.len()).unwrap_or(i64::MAX));

    Ok(CheckpointStats {
        generation,
        start: Lsn(start),
        rewritten,
        shards: shard_count,
        image_keys,
        log_bytes_written,
    })
}

/// The records of a checkpoint image: one synthetic transaction (id 0)
/// — begin, the [`LogRecord::Checkpoint`] marker carrying the replay
/// floor `start` and the transaction-id floor, one put per key, commit.
/// The marker rides right after the begin record, so any prefix that
/// proves the image complete (its commit is there) also carries the
/// floor; an empty image is still a begin/marker/commit triple.
fn image_records(image: Vec<(u64, Record)>, start: Lsn, next_txn: u64) -> Vec<LogRecord> {
    let txn = TxnId(0);
    let mut records = Vec::with_capacity(image.len() + 3);
    records.push(LogRecord::Begin { txn });
    records.push(LogRecord::Checkpoint { start, next_txn });
    records.extend(
        image
            .into_iter()
            .map(|(key, new)| LogRecord::Put { txn, key, new }),
    );
    records.push(LogRecord::Commit { txn });
    records
}

/// Appends `records` to `device` as LSNs 1, 2, … packed into the
/// device's pages (a larger record gets a page to itself). The image costs
/// **one sync**, after its last frame: a generation is trusted only once
/// its CRC-framed `Commit { txn: 0 }` is readable behind a contiguous
/// prefix, so a crash that leaves any subset of the unsynced frames
/// behind leaves a torn generation recovery falls back past — and the
/// sweep deletes what the image supersedes only after this returns.
fn write_image(device: &mut WalDevice, records: Vec<LogRecord>) -> Result<()> {
    let page_bytes = device.page_bytes();
    let mut page: Vec<(Lsn, LogRecord)> = Vec::new();
    let mut bytes = 0usize;
    for (lsn, rec) in (1..).zip(records) {
        let size = rec.byte_size();
        if !page.is_empty() && bytes + size > page_bytes {
            device.append_page_unsynced(&page)?;
            page.clear();
            bytes = 0;
        }
        page.push((Lsn(lsn), rec));
        bytes += size;
    }
    if !page.is_empty() {
        device.append_page_unsynced(&page)?;
    }
    device.sync()
}

/// The background checkpointer thread body (§5.3): sweep every
/// `interval` until shutdown. Waits on the queue condvar so an engine
/// shutdown or crash wakes it immediately instead of at the next tick;
/// transient sweep failures (e.g. a full disk) are retried next tick
/// rather than killing the thread.
pub(crate) fn run_checkpointer(
    shared: Arc<Shared>,
    ck: Arc<Mutex<CheckpointState>>,
    interval: Duration,
) {
    loop {
        let deadline = Instant::now() + interval;
        {
            let Ok(mut q) = shared.queue.lock() else {
                return;
            };
            loop {
                if q.shutdown || q.crashed {
                    return;
                }
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                match shared.queue_cv.wait_timeout(q, deadline - now) {
                    Ok((guard, _)) => q = guard,
                    Err(_) => return,
                }
            }
        }
        let Ok(mut state) = ck.lock() else {
            return;
        };
        match sweep(&shared, &mut state, SweepHalt::None) {
            Ok(_) | Err(Error::Io(_)) => {}
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{image_records, write_image, SweepHalt};
    use crate::engine::{log_files, open_device};
    use crate::recover::generation_of;
    use crate::{CommitPolicy, Engine, EngineOptions};
    use mmdb_recovery::{Lsn, Record};
    use std::collections::BTreeMap;
    use std::path::PathBuf;
    use std::time::Duration;

    fn opts(name: &str) -> EngineOptions {
        let dir: PathBuf =
            std::env::temp_dir().join(format!("mmdb-ckpt-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        EngineOptions::new(CommitPolicy::Group, dir)
            .with_page_write_latency(Duration::from_micros(200))
            .with_flush_interval(Duration::from_micros(500))
            .with_shards(4)
    }

    fn commit_keys(engine: &Engine, keys: impl Iterator<Item = u64>) {
        let s = engine.session();
        for k in keys {
            let t = s.begin().unwrap();
            s.write(&t, k, k as i64 * 7).unwrap();
            s.commit_durable(t).unwrap();
        }
    }

    fn image_plus_suffix_round_trip(o: EngineOptions) {
        let dir = o.log_dir.clone();
        let engine = Engine::start(o.clone()).unwrap();
        commit_keys(&engine, 0..20);
        let stats = engine.checkpoint_now().unwrap();
        assert_eq!(stats.generation, 1);
        assert_eq!(stats.image_keys, 20);
        assert!(stats.log_bytes_written > 0);
        commit_keys(&engine, 100..105);
        engine.crash().unwrap();
        let (engine, info) = Engine::recover(o).unwrap();
        assert_eq!(info.checkpoint_start, Some(stats.start));
        // The suffix carries only the post-checkpoint transactions.
        assert_eq!(info.committed.len(), 5);
        for k in (0..20).chain(100..105) {
            assert_eq!(engine.read(k).unwrap(), Some(k as i64 * 7), "key {k}");
        }
        engine.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_then_crash_recovers_image_plus_suffix() {
        image_plus_suffix_round_trip(opts("basic"));
    }

    #[test]
    fn image_roundtrips_through_replay() {
        let mut o = opts("image");
        o.page_bytes = 512;
        std::fs::create_dir_all(&o.log_dir).unwrap();
        // Records of every length from empty up, some past the page size.
        let image: BTreeMap<u64, Record> = (0..100u64)
            .map(|i| (i, Record::from(vec![i as u8; (i as usize) * 9])))
            .collect();
        let records = image_records(image.clone().into_iter().collect(), Lsn(1), 1);
        assert_eq!(
            records.len(),
            image.len() + 3,
            "begin, marker, puts, commit"
        );
        // An empty live log beside the image, as a fresh engine leaves it.
        open_device(&o, 0, 0).unwrap();
        let mut dev = open_device(&o, 1, 0).unwrap();
        write_image(&mut dev, records).unwrap();
        assert!(dev.pages_written() > 1, "image spans pages");
        let replayed = crate::recover::replay_dir(&o.log_dir).unwrap();
        assert_eq!(replayed.db, image);
        assert_eq!(replayed.info.checkpoint_start, Some(Lsn(1)));
        assert_eq!(replayed.info.truncated_at, None);
        std::fs::remove_dir_all(&o.log_dir).ok();
    }

    /// `commit_durable` returns when `durable_lsn` advances; the writer
    /// drops the transaction's undo lists a moment later. A sweep in
    /// between used to back that durable write out of the image and start
    /// replay one transaction early (about 1 run in 30). The sweeper now
    /// reads `durable_lsn` first and leaves such a list alone; at raw
    /// device speed, 200 times over, the window gets hit.
    #[test]
    fn a_sweep_never_backs_out_a_durable_commit_the_writer_has_not_finalized() {
        for _ in 0..200 {
            image_plus_suffix_round_trip(
                opts("finalize-race")
                    .with_page_write_latency(Duration::ZERO)
                    .with_flush_interval(Duration::from_micros(50)),
            );
        }
    }

    #[test]
    fn dirty_shard_table_skips_untouched_shards() {
        let o = opts("dirty");
        let dir = o.log_dir.clone();
        let engine = Engine::start(o).unwrap();
        commit_keys(&engine, 0..32);
        // The first sweep copies everything — every commit is durable, so
        // every shard settles, finalized or not — and a second with no
        // traffic in between copies nothing.
        assert_eq!(engine.checkpoint_now().unwrap().rewritten.len(), 4);
        assert!(engine.checkpoint_now().unwrap().rewritten.is_empty());
        // One write re-dirties exactly one shard.
        commit_keys(&engine, std::iter::once(5));
        let stats = engine.checkpoint_now().unwrap();
        assert_eq!(stats.rewritten.len(), 1, "one shard written, one copied");
        engine.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_checkpoint_is_ignored_by_recovery() {
        let o = opts("torn");
        let dir = o.log_dir.clone();
        let engine = Engine::start(o.clone()).unwrap();
        commit_keys(&engine, 0..10);
        assert!(engine.checkpoint_halted(SweepHalt::MidImage).is_err());
        // The torn generation is on disk but incomplete.
        assert!(log_files(&dir)
            .unwrap()
            .iter()
            .any(|p| generation_of(p) == Some(1)));
        engine.crash().unwrap();
        let (engine, info) = Engine::recover(o).unwrap();
        assert_eq!(info.checkpoint_start, None, "torn checkpoint not used");
        for k in 0..10 {
            assert_eq!(engine.read(k).unwrap(), Some(k as i64 * 7));
        }
        engine.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn next_sweep_truncates_generations_a_crash_left_behind() {
        let o = opts("truncate");
        let dir = o.log_dir.clone();
        let engine = Engine::start(o.clone()).unwrap();
        commit_keys(&engine, 0..8);
        // Complete checkpoint, crash before truncation: gen 1 stays.
        let first = engine.checkpoint_halted(SweepHalt::BeforeTruncate).unwrap();
        assert_eq!(first.generation, 1);
        commit_keys(&engine, 8..12);
        let second = engine.checkpoint_now().unwrap();
        assert_eq!(second.generation, 2);
        let gens: Vec<Option<u64>> = log_files(&dir)
            .unwrap()
            .iter()
            .map(|p| generation_of(p))
            .collect();
        assert!(gens.contains(&Some(0)), "live generation never deleted");
        assert!(gens.contains(&Some(2)), "newest checkpoint kept");
        assert!(!gens.contains(&Some(1)), "superseded checkpoint removed");
        engine.crash().unwrap();
        let (engine, info) = Engine::recover(o).unwrap();
        assert_eq!(info.checkpoint_start, Some(second.start));
        for k in 0..12 {
            assert_eq!(engine.read(k).unwrap(), Some(k as i64 * 7));
        }
        engine.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn background_sweeper_bounds_replay_and_survives_shutdown() {
        let o = opts("background").with_checkpoint_interval(Duration::from_millis(10));
        let dir = o.log_dir.clone();
        let engine = Engine::start(o.clone()).unwrap();
        commit_keys(&engine, 0..50);
        // Give the sweeper a couple of intervals of live traffic.
        std::thread::sleep(Duration::from_millis(50));
        commit_keys(&engine, 50..55);
        let ckpts = engine
            .stats()
            .counter("mmdb_session_checkpoints_total")
            .unwrap_or(0);
        assert!(ckpts >= 1, "background sweeper ran (got {ckpts})");
        engine.crash().unwrap();
        let (engine, info) = Engine::recover(o).unwrap();
        assert!(
            info.checkpoint_start.is_some(),
            "recovery used a checkpoint"
        );
        assert!(
            info.committed.len() < 55,
            "replay bounded to the suffix (replayed {} txns)",
            info.committed.len()
        );
        for k in 0..55 {
            assert_eq!(engine.read(k).unwrap(), Some(k as i64 * 7));
        }
        engine.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_with_in_flight_writer_excludes_its_effects() {
        let o = opts("inflight");
        let dir = o.log_dir.clone();
        let engine = Engine::start(o.clone()).unwrap();
        commit_keys(&engine, 0..4);
        let s = engine.session();
        let t = s.begin().unwrap();
        s.write(&t, 2, -999).unwrap();
        let stats = engine.checkpoint_now().unwrap();
        // The uncommitted write is backed out of the image; the floor
        // reaches back to (at latest) its log record.
        s.commit_durable(t).unwrap();
        engine.crash().unwrap();
        let (engine, info) = Engine::recover(o).unwrap();
        assert_eq!(info.checkpoint_start, Some(stats.start));
        assert_eq!(
            engine.read(2).unwrap(),
            Some(-999),
            "in-flight commit recovered from the suffix"
        );
        engine.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// One shard, three kinds of undo list at sweep time: settled (durable,
    /// perhaps not finalized), pre-committed but not durable, and active.
    /// The image holds the first only; the floor reaches back to the
    /// pre-committed run's first record and no further.
    #[test]
    fn sweep_beside_an_active_and_a_pre_committed_transaction_on_one_shard() {
        let o = opts("three-kinds")
            .with_shards(1)
            .with_flush_interval(Duration::from_secs(30));
        let dir = o.log_dir.clone();
        let engine = Engine::start(o.clone()).unwrap();
        let s = engine.session();
        // Nobody waits on these commits: only `flush` sends them before
        // the 30 s deadline.
        for k in 1..4 {
            let t = s.begin().unwrap();
            s.write(&t, k, k as i64 * 7).unwrap();
            s.commit(t).unwrap();
        }
        engine.flush().unwrap();
        let active = s.begin().unwrap();
        s.write(&active, 1, -1).unwrap();
        // Nobody waits on this commit and the interval is 30 s: it stays
        // queued, pre-committed, its two puts and commit one LSN run.
        let pre = s.begin().unwrap();
        s.write(&pre, 2, 22).unwrap();
        s.write(&pre, 3, 33).unwrap();
        let ticket = s.commit(pre).unwrap();
        let first_lsn = ticket.lsn.0 - 2;

        let stats = engine.checkpoint_now().unwrap();
        assert_eq!(stats.start.0, first_lsn, "floor = its first redo record");
        assert_eq!(stats.image_keys, 3);
        engine.flush().unwrap();
        assert!(engine.is_durable(&ticket).unwrap());
        engine.crash().unwrap();

        let (engine, info) = Engine::recover(o).unwrap();
        assert_eq!(info.checkpoint_start, Some(stats.start));
        assert_eq!(info.committed, vec![ticket.txn], "the suffix is that run");
        assert_eq!(info.records_replayed, 3 + 2, "image, then its two puts");
        assert_eq!(engine.read(1).unwrap(), Some(7), "active write backed out");
        assert_eq!(engine.read(2).unwrap(), Some(22));
        assert_eq!(engine.read(3).unwrap(), Some(33));
        engine.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
