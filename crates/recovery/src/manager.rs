//! The recovery manager: a memory-resident KV database with write-ahead
//! logging, pre-committed transactions, group commit, partitioned logs,
//! stable memory, fuzzy checkpointing, crash, and restart recovery.
//!
//! This is the §5 machinery assembled in virtual time: transactions
//! update an in-memory image under exclusive locks; log records flow
//! through the §5.2 commit core ([`crate::commit`]) — the same queue,
//! page cuts and durable watermark the wall-clock engine runs — under the
//! chosen [`CommitPolicy`]; a crash discards everything volatile and
//! recovery rebuilds the image from the disk snapshot plus the durable
//! log.

use crate::checkpoint::{page_of, Snapshot};
use crate::commit::{self, CutParams, DurableTable, LogQueue};
use crate::device::{LogDevice, Micros, PAGE_BYTES};
use crate::lock::LockManager;
use crate::log::{LogRecord, Lsn, TYPICAL_UPDATE_PADDING};
use crate::stable::StableMemory;
use mmdb_types::{AuditViolation, Auditable, CommitPolicy, Error, Result, TxnId};
use std::collections::{HashMap, HashSet};

/// Handle to an open transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnHandle(pub TxnId);

/// What a crash preserves.
#[derive(Debug)]
pub struct CrashImage {
    policy: CommitPolicy,
    snapshot: Snapshot,
    durable_log: Vec<(Lsn, LogRecord)>,
    stable: Option<StableMemory>,
    /// The §5.5 dirty-page table, which survives only in stable memory.
    dirty_pages: Option<HashMap<u64, Lsn>>,
}

/// What recovery observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Transactions whose effects survived.
    pub committed: Vec<TxnId>,
    /// Transactions rolled back (no durable commit record).
    pub losers: Vec<TxnId>,
    /// Log records examined in total.
    pub records_scanned: usize,
    /// Records the §5.5 dirty-page table allowed redo to skip.
    pub records_skipped_by_dirty_table: usize,
}

/// The §5 recovery manager.
#[derive(Debug)]
pub struct RecoveryManager {
    policy: CommitPolicy,
    db: HashMap<u64, i64>,
    snapshot: Snapshot,
    locks: LockManager,
    devices: Vec<LogDevice>,
    next_device: usize,
    /// Completion time of the page submitted last.
    last_page_done: Micros,
    /// The commit core's two halves.
    queue: LogQueue,
    durable: DurableTable,
    stable: Option<StableMemory>,
    now: Micros,
    next_txn: u64,
    undo: HashMap<TxnId, Vec<(u64, Option<i64>)>>,
    /// When commits became durable, kept only as long as something reads
    /// it: in stable memory, while the transaction has records in the
    /// tail (what a drain may write out); otherwise, from the page write
    /// that completes a commit until the next commit has read its own.
    commit_durable_at: HashMap<TxnId, Micros>,
    /// §5.5: each dirty page's first-update LSN since its last
    /// checkpoint. It lives in stable memory when there is some, so only
    /// then does a crash keep it.
    dirty_first_update: HashMap<u64, Lsn>,
}

impl RecoveryManager {
    /// A fresh, empty database under the given commit policy, one
    /// [`LogDevice`] per device the policy names.
    pub fn new(policy: CommitPolicy) -> Self {
        RecoveryManager {
            policy,
            db: HashMap::new(),
            snapshot: Snapshot::new(),
            locks: LockManager::new(),
            devices: (0..policy.devices()).map(|_| LogDevice::paper()).collect(),
            next_device: 0,
            last_page_done: 0,
            queue: LogQueue::starting_at(1),
            durable: DurableTable::starting_at(1),
            stable: None,
            now: 0,
            next_txn: 1,
            undo: HashMap::new(),
            commit_durable_at: HashMap::new(),
            dirty_first_update: HashMap::new(),
        }
    }

    /// A fresh database whose log tail lives in `capacity_bytes` of
    /// battery-backed stable memory (§5.4): transactions commit on
    /// append, and committed records drain to one log device compressed.
    pub fn with_stable_memory(capacity_bytes: usize) -> Self {
        RecoveryManager {
            stable: Some(StableMemory::new(capacity_bytes)),
            ..RecoveryManager::new(CommitPolicy::Group)
        }
    }

    /// Current virtual time (µs).
    pub fn now(&self) -> Micros {
        self.now
    }

    /// Reads a key from the in-memory image.
    pub fn read(&self, key: u64) -> Option<i64> {
        self.db.get(&key).copied()
    }

    /// Number of keys resident.
    pub fn len(&self) -> usize {
        self.db.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.db.is_empty()
    }

    /// Starts a transaction.
    pub fn begin(&mut self) -> TxnHandle {
        let txn = TxnId(self.next_txn);
        self.next_txn += 1;
        self.locks.begin(txn);
        self.undo.insert(txn, Vec::new());
        self.append_record(LogRecord::Begin { txn });
        TxnHandle(txn)
    }

    /// Logs `rec`: into stable memory, or through the commit core, which
    /// cuts a page as soon as one is full.
    fn append_record(&mut self, rec: LogRecord) -> Lsn {
        let Some(stable) = self.stable.as_mut() else {
            let lsn = self.queue.append(rec);
            self.write_pages();
            return lsn;
        };
        let lsn = self.queue.take_lsn();
        if !stable.append(lsn, rec.clone()) {
            // Region full: drain committed records to disk, then retry.
            self.drain_stable();
            if !self.stable.as_mut().is_some_and(|s| s.append(lsn, rec)) {
                // Still full (all records belong to in-doubt txns):
                // model the paper's back-pressure by forcing a page of
                // raw (uncompressed) tail out. Simplest sound fallback:
                // grow is forbidden, so panic loudly — workloads in
                // this repo size the region adequately.
                panic!("stable memory exhausted by uncommitted transactions");
            }
        }
        lsn
    }

    /// Writes `key = value` under `txn`.
    pub fn write(&mut self, txn: &TxnHandle, key: u64, value: i64) -> Result<()> {
        self.write_logging(txn, key, value, 0)
    }

    /// [`Self::write`] whose update record charges `padding` extra log
    /// bytes: [`TYPICAL_UPDATE_PADDING`] makes a one-update transaction
    /// the §5.1 "typical" 400.
    fn write_logging(&mut self, txn: &TxnHandle, key: u64, value: i64, padding: u32) -> Result<()> {
        if !self.locks.is_active(txn.0) {
            return Err(Error::InvalidTransaction(txn.0 .0));
        }
        self.locks.acquire(txn.0, key)?;
        let old = self.db.get(&key).copied();
        let lsn = self.append_record(LogRecord::Update {
            txn: txn.0,
            key,
            old,
            new: value,
            padding,
        });
        // §5.5 dirty-page bookkeeping: first update since last checkpoint.
        self.dirty_first_update.entry(page_of(key)).or_insert(lsn);
        if let Some(undo) = self.undo.get_mut(&txn.0) {
            undo.push((key, old));
        }
        self.db.insert(key, value);
        Ok(())
    }

    /// Runs one §5.1 "typical" banking transaction — debit `from`, credit
    /// `to` — and commits it. It logs two 360-byte padded updates plus
    /// begin and commit, 760 bytes, so 5 transfers fill a 4,096-byte log
    /// page. Returns the durability
    /// time (virtual µs); on a lock conflict the transaction is rolled
    /// back and the error surfaced.
    pub fn transfer(&mut self, from: u64, to: u64, amount: i64) -> Result<Micros> {
        let txn = self.begin();
        let result = (|| {
            let src = self.read(from).unwrap_or(0);
            self.write_logging(&txn, from, src - amount, TYPICAL_UPDATE_PADDING)?;
            // Read after the debit, so a self-transfer nets to zero.
            let dst = self.read(to).unwrap_or(0);
            self.write_logging(&txn, to, dst + amount, TYPICAL_UPDATE_PADDING)?;
            self.commit(txn)
        })();
        if result.is_err() {
            let _ = self.abort(txn);
        }
        result
    }

    /// Runs one §5.1 "typical" transaction — a single padded update of
    /// `key` — and commits it, as [`crate::log::typical_transaction`]
    /// spells it: 400 bytes of log when `key` already holds a value, so
    /// ten fill a 4,096-byte page. Returns the durability time (virtual
    /// µs); on a lock conflict the transaction is rolled back and the
    /// error surfaced.
    pub fn typical(&mut self, key: u64, value: i64) -> Result<Micros> {
        let txn = self.begin();
        let result = self
            .write_logging(&txn, key, value, TYPICAL_UPDATE_PADDING)
            .and_then(|()| self.commit(txn));
        if result.is_err() {
            let _ = self.abort(txn);
        }
        result
    }

    /// Aborts a transaction: undoes its in-memory updates (reverse order),
    /// logs the abort, and releases its locks.
    pub fn abort(&mut self, txn: TxnHandle) -> Result<()> {
        let undo = self
            .undo
            .remove(&txn.0)
            .ok_or(Error::InvalidTransaction(txn.0 .0))?;
        for (key, old) in undo.into_iter().rev() {
            match old {
                Some(v) => {
                    self.db.insert(key, v);
                }
                None => {
                    self.db.remove(&key);
                }
            }
        }
        self.append_record(LogRecord::Abort { txn: txn.0 });
        self.locks.release(txn.0);
        Ok(())
    }

    /// Pre-commits `txn`: the commit record is logged and locks are
    /// released immediately (dependents may read the dirty data). Returns
    /// the virtual time at which the transaction is durably committed —
    /// known as soon as its page is submitted, because device completion
    /// times are deterministic — or [`Micros::MAX`] while its record still
    /// waits in the queue for a fuller page or a flush. Under
    /// [`CommitPolicy::Synchronous`] the committer waits for its page
    /// write; in stable memory the commit is durable on append (§5.4).
    pub fn commit(&mut self, txn: TxnHandle) -> Result<Micros> {
        let t = self.commit_inner(txn)?;
        // Debug builds audit the lock table and log bookkeeping at every
        // commit point: a violation here is an engine bug, caught at the
        // moment §5.2's ordering guarantees are supposed to hold.
        #[cfg(debug_assertions)]
        {
            self.locks.audit()?;
            self.audit()?;
        }
        Ok(t)
    }

    fn commit_inner(&mut self, txn: TxnHandle) -> Result<Micros> {
        if !self.locks.release(txn.0) {
            return Err(Error::InvalidTransaction(txn.0 .0));
        }
        self.undo.remove(&txn.0);
        if self.stable.is_some() {
            // §5.4: "transactions commit as soon as they write their
            // commit records into the in-memory log".
            self.append_record(LogRecord::Commit { txn: txn.0 });
            self.commit_durable_at.insert(txn.0, self.now);
            return Ok(self.now);
        }
        let lsn = self.queue.append_commit(txn.0, 0, self.now);
        let waits = self.policy == CommitPolicy::Synchronous;
        if waits {
            self.queue.raise_demand(lsn.0, false);
        }
        self.write_pages();
        // The other commits those pages made durable returned
        // `Micros::MAX` when they were made; nothing asks for them again.
        let t = self.commit_durable_at.get(&txn.0).copied();
        self.commit_durable_at.clear();
        let t = t.unwrap_or(Micros::MAX);
        if waits {
            self.now = self.now.max(t);
        }
        Ok(t)
    }

    /// Forces the queued log out — the partial page included — or, in
    /// stable memory, drains the committed tail. Returns the durability
    /// time of the last page submitted, or `None` if nothing was queued.
    pub fn flush(&mut self) -> Option<Micros> {
        if self.stable.is_some() {
            return self.drain_stable();
        }
        self.queue.raise_demand(u64::MAX, true);
        self.write_pages()
    }

    /// [`Self::flush`], then waits — advances virtual time — until the
    /// write completes, so everything committed so far is durable on
    /// return (§5.2).
    pub fn flush_and_wait(&mut self) {
        if let Some(done) = self.flush() {
            self.now = self.now.max(done);
        }
    }

    /// Submits every page the commit core releases now — under the
    /// policy's cut with the paper's page, no group window and no
    /// deadline — each to the next device, and reports its commits
    /// durable at its completion time.
    /// Reporting at submit is exact: pages go in LSN order at
    /// non-decreasing times and every write takes the same time, so pages
    /// complete in the order they were submitted. Returns the last page's
    /// completion time, if any page left.
    fn write_pages(&mut self) -> Option<Micros> {
        let cut = CutParams::new(self.policy, PAGE_BYTES);
        let mut last = None;
        while let (Some(page), _) = self.queue.next_page(self.now, &cut) {
            self.durable.register(&page);
            let done = self.submit_page(page.records);
            for c in self.durable.complete(page.seqno) {
                self.commit_durable_at.insert(c.txn, done);
            }
            last = Some(done);
        }
        last
    }

    /// Submits a page to the next device, round-robin, now. Pages go in
    /// LSN order at non-decreasing times and each write takes the same
    /// time, so none completes before the one submitted ahead of it.
    fn submit_page(&mut self, records: Vec<(Lsn, LogRecord)>) -> Micros {
        let dev = self.next_device;
        self.next_device = (dev + 1) % self.devices.len();
        let done = self.devices[dev].write_page(records, self.now);
        self.last_page_done = done;
        done
    }

    /// Drains committed, compressed log records from stable memory to the
    /// log device. The drain only runs when forced (region full, or an
    /// explicit flush), at which point the caller genuinely has to wait
    /// for space — so the virtual clock advances to the final write's
    /// completion (back-pressure, §5.4: the transaction rate is still
    /// limited by how fast the drain empties the region's pages). Returns
    /// the last completion time, if anything drained.
    fn drain_stable(&mut self) -> Option<Micros> {
        let committed = self.tail_committed();
        let mut last_done = None;
        loop {
            let stable = self.stable.as_mut()?;
            let (drained, bytes) = stable.drain_committed(PAGE_BYTES, |t| committed.contains(&t));
            if drained.is_empty() {
                break;
            }
            debug_assert!(bytes <= PAGE_BYTES);
            last_done = Some(self.submit_page(drained));
        }
        if let Some(done) = last_done {
            self.now = self.now.max(done);
        }
        let tail = self.stable.as_ref().map_or(&[][..], StableMemory::buffered);
        let in_tail: HashSet<TxnId> = tail.iter().map(|(_, r)| r.txn()).collect();
        self.commit_durable_at.retain(|t, _| in_tail.contains(t));
        last_done
    }

    /// The committed transactions with records still in the stable tail:
    /// what a drain may write out. It is bounded by the tail, not by the
    /// history of commits.
    fn tail_committed(&self) -> HashSet<TxnId> {
        let tail = self.stable.as_ref().map_or(&[][..], StableMemory::buffered);
        tail.iter()
            .map(|(_, r)| r.txn())
            .filter(|t| self.commit_durable_at.contains_key(t))
            .collect()
    }

    /// §5.3: sweeps up to `max_pages` dirty data pages to the disk
    /// snapshot (fuzzy — pages may hold uncommitted data). Returns how
    /// many pages were written.
    ///
    /// Write-ahead rule: the log records covering a page's changes must be
    /// durable before the page itself reaches disk — otherwise recovery
    /// could find uncommitted data in the snapshot with no old values to
    /// undo it. The sweep therefore forces the log first and waits for it.
    pub fn checkpoint_sweep(&mut self, max_pages: usize) -> usize {
        if self.stable.is_none() {
            self.flush_and_wait();
        }
        let mut pages: Vec<u64> = self.dirty_first_update.keys().copied().collect();
        pages.sort_unstable();
        pages.truncate(max_pages);
        let as_of = Lsn(self.queue.next_lsn() - 1);
        for page in &pages {
            let contents: HashMap<u64, i64> = self
                .db
                .iter()
                .filter(|(k, _)| page_of(**k) == *page)
                .map(|(k, v)| (*k, *v))
                .collect();
            self.snapshot.write_page(*page, contents, as_of);
            self.dirty_first_update.remove(page);
        }
        pages.len()
    }

    /// Log pages written so far across all devices.
    pub fn log_pages_written(&self) -> usize {
        self.devices.iter().map(|d| d.pages_written()).sum()
    }

    /// Crashes at the current virtual time: volatile state (the in-memory
    /// image, the log queue, the lock table) is lost; the disk
    /// snapshot, durable log pages, and stable memory survive.
    pub fn crash(self) -> CrashImage {
        let mut durable: Vec<(Lsn, LogRecord)> = self
            .devices
            .iter()
            .flat_map(|d| d.durable_records(self.now))
            .collect();
        durable.sort_by_key(|(lsn, _)| *lsn);
        CrashImage {
            policy: self.policy,
            snapshot: self.snapshot,
            durable_log: durable,
            dirty_pages: self.stable.is_some().then_some(self.dirty_first_update),
            stable: self.stable,
        }
    }

    /// Restart recovery: reload the snapshot, merge the durable log
    /// fragments with the stable-memory tail, redo committed transactions
    /// and undo losers whose updates leaked into the fuzzy snapshot.
    pub fn recover(image: CrashImage) -> (RecoveryManager, RecoveryReport) {
        let mut records = image.durable_log;
        if let Some(stable) = &image.stable {
            records.extend(stable.buffered().iter().cloned());
        }
        records.sort_by_key(|(lsn, _)| *lsn);
        records.dedup_by_key(|(lsn, _)| *lsn);

        let winners: HashSet<TxnId> = records
            .iter()
            .filter_map(|(_, r)| match r {
                LogRecord::Commit { txn } => Some(*txn),
                _ => None,
            })
            .collect();
        let mut seen: HashSet<TxnId> = HashSet::new();
        for (_, r) in &records {
            seen.insert(r.txn());
        }
        let losers: HashSet<TxnId> = seen.difference(&winners).copied().collect();

        // §5.5: the dirty-page table bounds where redo must start. With
        // stable memory present, an *empty* table means every committed
        // update is already reflected in the snapshot — no redo at all;
        // without stable memory the table did not survive, so redo scans
        // from the beginning.
        let redo_start = match &image.dirty_pages {
            Some(table) => table.values().min().copied().unwrap_or(Lsn(u64::MAX)),
            None => Lsn(0),
        };
        let mut skipped = 0usize;

        let mut db = image.snapshot.materialize();
        // Redo committed updates newer than their page's snapshot.
        for (lsn, rec) in &records {
            if let LogRecord::Update { txn, key, new, .. } = rec {
                if !winners.contains(txn) {
                    continue;
                }
                if *lsn < redo_start {
                    skipped += 1;
                    continue;
                }
                if *lsn > image.snapshot.page_lsn(page_of(*key)) {
                    db.insert(*key, *new);
                }
            }
        }
        // Undo loser updates the fuzzy snapshot captured, newest first.
        // An *aborted* transaction was already undone in memory when its
        // abort record was logged, so a page checkpointed after the abort
        // holds the undone state — re-applying old values there would
        // clobber later committed writes. Its dirty data can only hide in
        // snapshots taken before the abort.
        let abort_lsns: std::collections::HashMap<TxnId, Lsn> = records
            .iter()
            .filter_map(|(lsn, r)| match r {
                LogRecord::Abort { txn } => Some((*txn, *lsn)),
                _ => None,
            })
            .collect();
        for (lsn, rec) in records.iter().rev() {
            if let LogRecord::Update { txn, key, old, .. } = rec {
                if winners.contains(txn) {
                    continue;
                }
                let page_lsn = image.snapshot.page_lsn(page_of(*key));
                let undone_before_snapshot = abort_lsns
                    .get(txn)
                    .map(|abort| *abort <= page_lsn)
                    .unwrap_or(false);
                if *lsn <= page_lsn && !undone_before_snapshot {
                    match old {
                        Some(v) => {
                            db.insert(*key, *v);
                        }
                        None => {
                            db.remove(key);
                        }
                    }
                }
            }
        }

        let max_lsn = records.last().map(|(l, _)| l.0).unwrap_or(0);
        let max_txn = seen.iter().map(|t| t.0).max().unwrap_or(0);
        let mut committed: Vec<TxnId> = winners.iter().copied().collect();
        committed.sort();
        let mut lost: Vec<TxnId> = losers.iter().copied().collect();
        lost.sort();
        let report = RecoveryReport {
            committed,
            losers: lost,
            records_scanned: records.len(),
            records_skipped_by_dirty_table: skipped,
        };

        let mut mgr = match &image.stable {
            Some(stable) => RecoveryManager::with_stable_memory(stable.capacity_bytes()),
            None => RecoveryManager::new(image.policy),
        };
        mgr.db = db;
        mgr.snapshot = image.snapshot;
        mgr.queue = LogQueue::starting_at(max_lsn + 1);
        mgr.durable = DurableTable::starting_at(max_lsn + 1);
        mgr.next_txn = max_txn + 1;
        // Recovered stable memory is drained of history; the dirty-page
        // table restarts empty (everything just got reconciled).
        (mgr, report)
    }
}

impl Auditable for RecoveryManager {
    /// Verifies the log-manager bookkeeping behind the §5.2 safety
    /// argument: the commit core's queue/durable accounting
    /// ([`commit::audit`]); stable memory never queues volatilely; no
    /// device's latest page completes after the page submitted last, so
    /// none completes before the page submitted ahead of it and
    /// durability is an LSN prefix; and undo lists exist exactly for live
    /// transactions.
    fn audit(&self) -> std::result::Result<(), AuditViolation> {
        const C: &str = "RecoveryManager";
        commit::audit(C, &self.queue, &self.durable)?;
        if self.stable.is_some() {
            AuditViolation::ensure(self.queue.is_empty(), C, "stable-mode-queue", || {
                "stable-memory mode must not queue log pages volatilely".into()
            })?;
        }
        for (i, d) in self.devices.iter().enumerate() {
            AuditViolation::ensure(
                d.idle_at() <= self.last_page_done,
                C,
                "durable-in-lsn-order",
                || {
                    format!(
                        "device {i} completes at {} µs, after the last page submitted ({} µs)",
                        d.idle_at(),
                        self.last_page_done
                    )
                },
            )?;
        }
        for txn in self.undo.keys() {
            AuditViolation::ensure(self.locks.is_active(*txn), C, "undo-liveness", || {
                format!("undo list for txn {} which the lock manager dropped", txn.0)
            })?;
            AuditViolation::ensure(
                !self.commit_durable_at.contains_key(txn),
                C,
                "undo-liveness",
                || format!("committed txn {} still has an undo list", txn.0),
            )?;
        }
        let next_lsn = self.queue.next_lsn();
        for (page, lsn) in &self.dirty_first_update {
            AuditViolation::ensure(lsn.0 < next_lsn, C, "dirty-page-table", || {
                format!(
                    "dirty page {page} first-update LSN {} not below allocator {next_lsn}",
                    lsn.0
                )
            })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed_then_crashed(mut m: RecoveryManager) -> (RecoveryManager, RecoveryReport) {
        let t1 = m.begin();
        m.write(&t1, 1, 100).unwrap();
        m.write(&t1, 2, 200).unwrap();
        m.commit(t1).unwrap();
        m.flush();
        let t2 = m.begin();
        m.write(&t2, 3, 300).unwrap();
        // t2 never commits, but its update records do reach the log.
        m.flush();
        m.now = Micros::MAX / 2; // let every submitted write complete
        RecoveryManager::recover(m.crash())
    }

    #[test]
    fn committed_survive_uncommitted_roll_back_sync() {
        let (m, report) = committed_then_crashed(RecoveryManager::new(CommitPolicy::Synchronous));
        assert_eq!(m.read(1), Some(100));
        assert_eq!(m.read(2), Some(200));
        assert_eq!(m.read(3), None, "uncommitted write must vanish");
        assert_eq!(report.committed, vec![TxnId(1)]);
        assert_eq!(report.losers, vec![TxnId(2)]);
    }

    #[test]
    fn committed_survive_group_commit() {
        let (m, report) = committed_then_crashed(RecoveryManager::new(CommitPolicy::Group));
        assert_eq!(m.read(1), Some(100));
        assert_eq!(m.read(3), None);
        assert_eq!(report.committed, vec![TxnId(1)]);
    }

    #[test]
    fn committed_survive_partitioned() {
        let (m, _) = committed_then_crashed(RecoveryManager::new(CommitPolicy::Partitioned {
            devices: 4,
        }));
        assert_eq!(m.read(1), Some(100));
        assert_eq!(m.read(3), None);
    }

    #[test]
    fn committed_survive_stable_memory() {
        let (m, _) = committed_then_crashed(RecoveryManager::with_stable_memory(1 << 20));
        assert_eq!(m.read(1), Some(100));
        assert_eq!(m.read(2), Some(200));
        assert_eq!(m.read(3), None);
    }

    #[test]
    fn unflushed_group_commit_is_lost() {
        let mut m = RecoveryManager::new(CommitPolicy::Group);
        let t1 = m.begin();
        m.write(&t1, 1, 100).unwrap();
        m.commit(t1).unwrap();
        // No flush: the commit record sits in the volatile queue.
        let (m2, report) = RecoveryManager::recover(m.crash());
        assert_eq!(m2.read(1), None, "un-flushed commit must not survive");
        assert!(report.committed.is_empty());
    }

    #[test]
    fn stable_memory_commit_survives_without_any_disk_write() {
        let mut m = RecoveryManager::with_stable_memory(1 << 20);
        let t1 = m.begin();
        m.write(&t1, 7, 70).unwrap();
        let t = m.commit(t1).unwrap();
        assert_eq!(t, m.now(), "commit is immediate in stable memory");
        assert_eq!(m.log_pages_written(), 0);
        let (m2, report) = RecoveryManager::recover(m.crash());
        assert_eq!(m2.read(7), Some(70));
        assert_eq!(report.committed, vec![TxnId(1)]);
    }

    #[test]
    fn sync_commit_takes_a_page_write() {
        let mut m = RecoveryManager::new(CommitPolicy::Synchronous);
        let t1 = m.begin();
        m.write(&t1, 1, 1).unwrap();
        let done = m.commit(t1).unwrap();
        assert_eq!(done, 10_000, "one 10 ms page write");
        assert_eq!(m.now(), done, "the committer waited for its write");
        assert_eq!(m.log_pages_written(), 1);
    }

    #[test]
    fn group_commit_amortizes_the_write() {
        let mut m = RecoveryManager::new(CommitPolicy::Group);
        let mut txns = Vec::new();
        for i in 0..9 {
            let t = m.begin();
            m.write_logging(&t, i, i as i64, TYPICAL_UPDATE_PADDING)
                .unwrap();
            // ~9 typical transactions (400 B each ≈ 3600 B) share one
            // page: each commit waits in the queue for a fuller one.
            assert_eq!(m.commit(t).unwrap(), Micros::MAX);
            txns.push(t.0);
        }
        assert_eq!(m.now(), 0, "a group committer does not wait");
        let done = m.flush().unwrap();
        assert_eq!(done, 10_000, "one page write commits the group");
        for t in &txns {
            assert_eq!(m.commit_durable_at.get(t), Some(&done));
        }
        assert_eq!(m.log_pages_written(), 1, "one page write, not nine");
        assert_eq!(m.flush(), None, "nothing left to write");
    }

    /// The durable times are kept while something reads them, not for
    /// the history of commits: over 2,000 commits, with a flush now and
    /// then, the map never holds more than a page batch's commits, nor in
    /// stable memory more than the tail's.
    #[test]
    fn durable_times_are_forgotten_once_read() {
        let managers = [
            RecoveryManager::new(CommitPolicy::Synchronous),
            RecoveryManager::new(CommitPolicy::Group),
            RecoveryManager::new(CommitPolicy::Partitioned { devices: 4 }),
            RecoveryManager::with_stable_memory(16 * 1024),
        ];
        for mut m in managers {
            let mut most = 0;
            for i in 0..2_000u64 {
                m.typical(i % 100, i as i64).unwrap();
                if i % 97 == 0 {
                    m.flush();
                }
                most = most.max(m.commit_durable_at.len());
            }
            assert!(most <= 41, "{:?}: {most} durable times kept", m.policy);
        }
    }

    #[test]
    fn abort_undoes_in_memory_state() {
        let mut m = RecoveryManager::new(CommitPolicy::Group);
        let t0 = m.begin();
        m.write(&t0, 5, 50).unwrap();
        m.commit(t0).unwrap();
        m.flush();
        let t1 = m.begin();
        m.write(&t1, 5, 99).unwrap();
        m.write(&t1, 6, 60).unwrap();
        assert_eq!(m.read(5), Some(99));
        m.abort(t1).unwrap();
        assert_eq!(m.read(5), Some(50), "old value restored");
        assert_eq!(m.read(6), None);
        // The lock is free again.
        let t2 = m.begin();
        m.write(&t2, 5, 51).unwrap();
    }

    #[test]
    fn dependent_transaction_reads_dirty_data_and_orders_after() {
        // T1 pre-commits (group commit, record queued); T2 reads T1's
        // dirty write and commits. Nothing makes T2 wait: its commit record
        // follows T1's in the log, and pages complete in LSN order, so T2
        // is simply durable no earlier than T1.
        let mut m = RecoveryManager::new(CommitPolicy::Partitioned { devices: 2 });
        let t1 = m.begin();
        m.write(&t1, 1, 10).unwrap();
        m.commit(t1).unwrap();
        m.flush(); // T1's group goes to device 0
        let t1_durable = *m.commit_durable_at.get(&TxnId(1)).unwrap();
        let t2 = m.begin();
        assert_eq!(m.read(1), Some(10), "dirty read of pre-committed data");
        m.write(&t2, 1, 20).unwrap();
        m.commit(t2).unwrap();
        m.flush(); // T2's group goes to device 1, idle, and is not held back
        let t2_durable = *m.commit_durable_at.get(&TxnId(2)).unwrap();
        assert!(
            t2_durable >= t1_durable,
            "dependent commit {t2_durable} before dependency {t1_durable}"
        );
    }

    #[test]
    fn checkpoint_bounds_recovery_and_fuzzy_pages_are_undone() {
        let mut m = RecoveryManager::with_stable_memory(1 << 20);
        // Committed base state.
        let t1 = m.begin();
        for k in 0..10 {
            m.write(&t1, k, 1_000 + k as i64).unwrap();
        }
        m.commit(t1).unwrap();
        // An in-flight transaction dirties key 3...
        let t2 = m.begin();
        m.write(&t2, 3, -3).unwrap();
        // ...and a fuzzy checkpoint captures the dirty value.
        let swept = m.checkpoint_sweep(100);
        assert!(swept >= 1);
        // Crash with T2 unresolved.
        let (m2, report) = RecoveryManager::recover(m.crash());
        assert_eq!(
            m2.read(3),
            Some(1_003),
            "fuzzy snapshot's uncommitted value must be undone"
        );
        assert!(report.losers.contains(&TxnId(2)));
        for k in 0..10u64 {
            if k != 3 {
                assert_eq!(m2.read(k), Some(1_000 + k as i64));
            }
        }
    }

    #[test]
    fn dirty_page_table_skips_old_log_during_redo() {
        let mut m = RecoveryManager::with_stable_memory(1 << 20);
        // Phase 1: lots of committed history, then checkpoint everything.
        for round in 0..20 {
            let t = m.begin();
            m.write(&t, round % 5, round as i64).unwrap();
            m.commit(t).unwrap();
        }
        m.checkpoint_sweep(100);
        // Phase 2: one more committed write after the checkpoint.
        let t = m.begin();
        m.write(&t, 100, 42).unwrap();
        m.commit(t).unwrap();
        let (m2, report) = RecoveryManager::recover(m.crash());
        assert_eq!(m2.read(100), Some(42));
        assert_eq!(m2.read(4), Some(19), "pre-checkpoint state intact");
        assert!(
            report.records_skipped_by_dirty_table > 0,
            "§5.5 optimization should skip pre-checkpoint records: {report:?}"
        );
    }

    #[test]
    fn dirty_page_table_keeps_first_updates_and_survives_only_in_stable_memory() {
        let mut m = RecoveryManager::with_stable_memory(1 << 20);
        let t = m.begin();
        m.write(&t, 700, 1).unwrap(); // page 10
        let first = m.dirty_first_update[&10];
        m.write(&t, 701, 1).unwrap(); // page 10 again: not its first update
        m.write(&t, 3, 1).unwrap(); // page 0
        m.commit(t).unwrap();
        assert_eq!(m.dirty_first_update[&10], first);
        assert!(m.dirty_first_update[&0] > first);
        // Checkpointing page 0 (the lowest) leaves page 10's entry alone.
        m.checkpoint_sweep(1);
        assert_eq!(m.dirty_first_update.keys().collect::<Vec<_>>(), [&10]);
        // After its checkpoint, a page's next update re-enters the table.
        let t = m.begin();
        m.write(&t, 4, 2).unwrap();
        m.commit(t).unwrap();
        let table = m.dirty_first_update.clone();
        assert_eq!(table.len(), 2);
        assert_eq!(m.crash().dirty_pages, Some(table));
        // Without stable memory the table is volatile.
        let mut m = RecoveryManager::new(CommitPolicy::Group);
        let t = m.begin();
        m.write(&t, 1, 1).unwrap();
        m.commit(t).unwrap();
        assert_eq!(m.crash().dirty_pages, None);
    }

    #[test]
    fn drain_consults_only_the_committed_tail() {
        let mut m = RecoveryManager::with_stable_memory(1 << 20);
        for k in 0..5 {
            let t = m.begin();
            m.write(&t, k, 1).unwrap();
            m.commit(t).unwrap();
        }
        let open = m.begin();
        m.write(&open, 9, 1).unwrap();
        assert_eq!(m.tail_committed().len(), 5);
        m.flush();
        // Drained transactions leave the set; the open one never joins it.
        assert!(m.tail_committed().is_empty());
        assert!(m.log_pages_written() >= 1);
        m.commit(open).unwrap();
        assert_eq!(m.tail_committed(), HashSet::from([TxnId(6)]));
        m.flush();
        assert!(m.tail_committed().is_empty());
    }

    #[test]
    fn stable_drain_writes_compressed_pages() {
        let mut m = RecoveryManager::with_stable_memory(4_000);
        // ~20 typical transactions = 8 000 bytes of raw log; the region
        // holds 4 000, so draining must kick in, writing compressed pages.
        for i in 0..20u64 {
            let t = m.begin();
            m.write_logging(&t, i, i as i64, TYPICAL_UPDATE_PADDING)
                .unwrap();
            m.commit(t).unwrap();
        }
        m.flush();
        assert!(m.log_pages_written() >= 1);
        // Everything still recovers.
        m.now = Micros::MAX / 2;
        let (m2, report) = RecoveryManager::recover(m.crash());
        assert_eq!(report.committed.len(), 20);
        for i in 0..20u64 {
            assert_eq!(m2.read(i), Some(i as i64));
        }
    }

    #[test]
    fn write_conflicts_surface_as_lock_errors() {
        let mut m = RecoveryManager::new(CommitPolicy::Group);
        let t1 = m.begin();
        let t2 = m.begin();
        m.write(&t1, 9, 1).unwrap();
        let err = m.write(&t2, 9, 2).unwrap_err();
        assert!(matches!(err, Error::LockConflict { .. }));
        // After t1 pre-commits, t2 may proceed.
        m.commit(t1).unwrap();
        m.write(&t2, 9, 2).unwrap();
    }

    #[test]
    fn operations_on_dead_transactions_fail() {
        // A handle is `Copy`: after `commit`, even before the commit is
        // durable, a stale copy may not write, commit again or abort.
        for (i, mut m) in [
            RecoveryManager::new(CommitPolicy::Synchronous),
            RecoveryManager::new(CommitPolicy::Group),
            RecoveryManager::new(CommitPolicy::Partitioned { devices: 2 }),
            RecoveryManager::with_stable_memory(1 << 20),
        ]
        .into_iter()
        .enumerate()
        {
            let t = m.begin();
            m.write(&t, 1, 1).unwrap();
            m.commit(t).unwrap();
            let dead = |r: Result<()>| matches!(r, Err(Error::InvalidTransaction(1)));
            assert!(dead(m.write(&t, 1, 2)), "manager {i}");
            assert!(dead(m.commit(t).map(drop)), "manager {i}");
            assert!(dead(m.abort(t)), "manager {i}");
            assert_eq!(m.read(1), Some(1), "manager {i}");
        }
    }

    #[test]
    fn recovery_of_empty_database() {
        let m = RecoveryManager::new(CommitPolicy::Synchronous);
        let (m2, report) = RecoveryManager::recover(m.crash());
        assert!(m2.is_empty());
        assert!(report.committed.is_empty());
        assert_eq!(report.records_scanned, 0);
    }

    #[test]
    fn new_manager_continues_transaction_ids() {
        let mut m = RecoveryManager::new(CommitPolicy::Synchronous);
        let t1 = m.begin();
        m.write(&t1, 1, 1).unwrap();
        m.commit(t1).unwrap();
        let (mut m2, _) = RecoveryManager::recover(m.crash());
        let t2 = m2.begin();
        assert!(t2.0 .0 > t1.0 .0, "txn ids must not be reused");
    }

    #[test]
    fn transfers_preserve_total_balance_across_crash() {
        let mut m = RecoveryManager::new(CommitPolicy::Group);
        // Seed accounts.
        let seed = m.begin();
        for acct in 0..10u64 {
            m.write(&seed, acct, 1_000).unwrap();
        }
        m.commit(seed).unwrap();
        m.flush_and_wait();
        // Random-ish committed transfers.
        for i in 0..50u64 {
            m.transfer(i % 10, (i + 3) % 10, 10).unwrap();
        }
        m.flush_and_wait();
        // One in-flight transfer that must not survive.
        let t = m.begin();
        m.write(&t, 0, -999_999).unwrap();
        let (recovered, report) = RecoveryManager::recover(m.crash());
        let total: i64 = (0..10).map(|a| recovered.read(a).unwrap()).sum();
        assert_eq!(total, 10_000, "money is conserved");
        assert_ne!(recovered.read(0), Some(-999_999));
        assert_eq!(report.committed.len(), 51);
    }

    #[test]
    fn transfer_is_typical_sized() {
        // Two padded updates plus begin and commit per transfer: 5
        // transfers to a log page, not 10 single-update transactions.
        let mut m = RecoveryManager::new(CommitPolicy::Group);
        for i in 0..25 {
            m.transfer(i, i + 100, 1).unwrap();
        }
        m.flush_and_wait();
        assert_eq!(m.log_pages_written(), 5);
    }

    #[test]
    fn typical_logs_the_typical_transaction() {
        let mut m = RecoveryManager::new(CommitPolicy::Group);
        let load = m.begin();
        m.write(&load, 7, 100).unwrap();
        m.commit(load).unwrap();
        m.flush_and_wait();
        m.typical(7, 200).unwrap();
        assert_eq!(m.read(7), Some(200));
        m.flush_and_wait();
        let logged: Vec<LogRecord> = m
            .crash()
            .durable_log
            .into_iter()
            .filter_map(|(_, r)| (r.txn() == TxnId(2)).then_some(r))
            .collect();
        assert_eq!(
            logged,
            crate::log::typical_transaction(TxnId(2), 7, 100, 200)
        );
    }

    #[test]
    fn self_transfer_is_a_logged_no_op() {
        let mut m = RecoveryManager::new(CommitPolicy::Synchronous);
        m.transfer(1, 2, 70).unwrap();
        let pages = m.log_pages_written();
        m.transfer(2, 2, 30).unwrap();
        assert_eq!(m.read(2), Some(70));
        assert_eq!(m.log_pages_written(), pages + 1);
    }

    #[test]
    fn abort_rolls_back() {
        let mut m = RecoveryManager::new(CommitPolicy::Synchronous);
        let t0 = m.begin();
        m.write(&t0, 1, 500).unwrap();
        m.commit(t0).unwrap();
        let t = m.begin();
        m.write(&t, 1, 999).unwrap();
        assert_eq!(m.read(1), Some(999));
        m.abort(t).unwrap();
        assert_eq!(m.read(1), Some(500));
    }

    #[test]
    fn checkpoint_then_recover() {
        let mut m = RecoveryManager::with_stable_memory(1 << 20);
        for i in 0..20u64 {
            m.transfer(i, i + 1, 5).unwrap();
        }
        let swept = m.checkpoint_sweep(1_000);
        assert!(swept > 0);
        let (recovered, report) = RecoveryManager::recover(m.crash());
        assert_eq!(report.committed.len(), 20);
        assert_eq!(recovered.read(0), Some(-5));
    }
}
