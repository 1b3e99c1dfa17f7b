//! The log queue and its writers (§5.2 on OS threads).
//!
//! Sessions append to one shared log queue; one *writer* thread per log
//! device drains it. A writer with nothing to write takes the oldest page
//! already cut, or cuts every page [`cut_decision`] releases and takes the
//! first of them ([`next_page`]). It then sleeps the device's modeled
//! page-write latency and appends-and-syncs its page through
//! [`WalDevice`]. Which device holds a page means nothing after a crash:
//! recovery merges a generation's device files by LSN. The §5.2
//! invariants live here:
//!
//! * **Pre-commit** — committers release locks at precommit (in
//!   [`crate::engine`]) and only *wait* here, so a log page in flight
//!   never blocks lock traffic.
//! * **Commit-time logging (§5.4)** — a transaction reaches the queue
//!   once, at pre-commit, as one contiguous LSN run: its redo records,
//!   then its commit record. Aborts and open transactions never do.
//! * **One ordering rule, the LSN** — the paper orders a partitioned
//!   log's page writes so that a dependent's commit is never durable
//!   before its dependency's. Here that follows from LSN order alone. A
//!   committer appends while still holding every shard lock its
//!   transaction touched, and dependencies only arise through shared keys
//!   — shared shards — so a dependency's commit LSN is below its
//!   dependent's. Durability is an LSN prefix (next point), so pages may
//!   reach their devices in any order.
//! * **Durable watermark** — a transaction is *reported* durable only
//!   once every page up to and including its own is on disk, matching
//!   restart recovery's contiguous-LSN-prefix rule: nothing is promised
//!   that a crash could take back.
//!
//! **Who releases a partial page** (the one decision is
//! [`cut_decision`], asked only by a free writer): a full page leaves at
//! once. A partial page leaves when somebody is blocked on one of its
//! records — *demand*, raised by `wait_durable`, `commit_durable`, a
//! synchronous commit and `flush` — **and the group window is open**: the
//! previous partial page left at least [`GROUP_WINDOW`] ago. A commit
//! that finds the log quiet therefore pays one page write and no timer;
//! clients in a closed loop get one group per window (or per page write,
//! if the device is the slower), formed *while* the previous group is
//! written and their next statements run. The window is what keeps
//! the commit rate steady: paced by the device alone it follows every
//! wobble of the disk's sync time (EXPERIMENTS.md §S1, "Why a window").
//! While every device writes, the queue keeps accumulating whatever the
//! window says. Commits nobody waits on leave with the next group, or
//! once the oldest of them has been queued for `flush_interval` (an
//! absolute deadline; other sessions' records do not postpone it).
//! `flush` reopens the window: an explicit flush waits for a device and
//! nothing else.
//!
//! **Who wakes whom.** A writer with nothing to write sleeps on
//! `queue_cv` — until the window opens or the deadline passes, when one
//! of them is pending — and is notified only by a change that can alter
//! its decision or its timer: an append into an empty queue (arming the
//! deadline), or one that fills a page or carries demand; a waiter
//! raising demand; another writer leaving cut pages for it; and the stop
//! flags. Waiters sleep on `durable_cv`, notified by the writers. Every
//! wait sits in a predicate loop.
//!
//! Lock order (a thread may only acquire downward): shard state locks in
//! ascending shard index → one txn-table slot → `queue` → `durable` (see
//! [`crate::shard`] for the shard half of the discipline). The writers
//! take `durable` and the shard locks one group at a time, never nested
//! across groups, and come back to `queue` only after all of those are
//! dropped. A waiter raises demand under `queue` and releases it before
//! taking `durable`. A writer registers a cut page's commits in `durable`
//! before it releases `queue`, so a commit is at every instant either
//! queued or registered.

use crate::metrics::{us_since, SessionMetrics};
use crate::policy::{CommitPolicy, EngineOptions, GROUP_WINDOW};
use crate::shard::{shard_of, Shard, TxnTable};
use mmdb_obs::TraceStage;
use mmdb_recovery::wal::WalDevice;
use mmdb_recovery::{LogRecord, Lsn, Record};
use mmdb_types::{AuditViolation, Auditable, Error, Result, TxnId};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// A commit record waiting to become durable: the transaction and the
/// identity its trace events carry (commit LSN + shard mask).
#[derive(Debug, Clone)]
pub(crate) struct PendingCommit {
    /// The committing transaction.
    pub txn: TxnId,
    /// LSN of the commit record itself.
    pub lsn: Lsn,
    /// Lock-table shards the transaction touched.
    pub mask: u64,
    /// When the record entered the queue: the start of the group wait and
    /// of the `flush_interval` deadline.
    pub queued_at: Instant,
}

/// One record in the shared log queue.
#[derive(Debug)]
pub(crate) struct QueuedRecord {
    pub lsn: Lsn,
    pub record: LogRecord,
    pub commit: Option<PendingCommit>,
}

/// The shared log queue sessions append to and the writers drain.
#[derive(Debug, Default)]
pub(crate) struct LogQueue {
    pub records: VecDeque<QueuedRecord>,
    /// Paper-accounted bytes queued (decides when a page is full).
    pub bytes: usize,
    pub next_lsn: u64,
    /// Highest LSN somebody is blocked on. It is *demand* only while that
    /// record is still queued ([`LogQueue::has_demand`]); dispatching the
    /// record answers it, so nothing ever resets this.
    pub demand: u64,
    /// Earliest instant the next awaited partial page may leave: one
    /// [`GROUP_WINDOW`] after the last partial page left. `None`: at once
    /// (nothing cut yet, or [`Shared::raise_demand`] reopened it for a
    /// flush). Set by the writer that cuts the page.
    pub window_opens: Option<Instant>,
    /// Sequence number of the next page cut, dense across all devices:
    /// the durable watermark counts pages by it.
    pub next_seqno: u64,
    /// Pages cut but not yet taken by a writer, oldest first.
    pub ready: VecDeque<Page>,
    /// Graceful shutdown: drain everything, then stop.
    pub shutdown: bool,
    /// Simulated crash, or fail-stop after a log device exhausted its
    /// retries: drop everything volatile on the floor.
    pub crashed: bool,
}

impl LogQueue {
    /// True while a record somebody is blocked on is still queued.
    pub fn has_demand(&self) -> bool {
        self.records.front().is_some_and(|r| r.lsn.0 <= self.demand)
    }

    /// When the oldest queued commit record was appended — what arms the
    /// `flush_interval` deadline. Looks no further than the first
    /// transaction's run.
    pub fn oldest_commit(&self) -> Option<Instant> {
        self.records
            .iter()
            .find_map(|r| r.commit.as_ref().map(|c| c.queued_at))
    }

    /// Queues one record under the next LSN.
    fn push(&mut self, record: LogRecord, commit: Option<PendingCommit>) {
        self.bytes += record.byte_size();
        self.records.push_back(QueuedRecord {
            lsn: Lsn(self.next_lsn),
            record,
            commit,
        });
        self.next_lsn += 1;
    }
}

/// A cut page: with a writer, or waiting in [`LogQueue::ready`] for one.
#[derive(Debug)]
pub(crate) struct Page {
    /// Dense page sequence number (0, 1, 2, …) across all devices.
    pub seqno: u64,
    pub records: Vec<(Lsn, LogRecord)>,
    pub commits: Vec<PendingCommit>,
}

/// Durability bookkeeping shared by writers and waiting committers.
///
/// Every field here is bounded by the number of *in-flight* pages and
/// commits, not by engine lifetime: durability itself is one LSN
/// (`durable_lsn`), and the per-page entries are drained the moment the
/// watermark passes them.
#[derive(Debug, Default)]
pub(crate) struct DurableTable {
    /// Every record with LSN ≤ `durable_lsn` is on disk, and recovery's
    /// contiguous-prefix rule keeps it. A commit is durable exactly when
    /// its ticket's LSN is at or below this — O(1) state instead of a
    /// forever-growing set of transaction ids.
    pub durable_lsn: u64,
    /// Pages written out of order, ahead of the watermark: seqno → last
    /// LSN on the page. Drained as the watermark advances.
    pub written: BTreeMap<u64, u64>,
    /// Every page with seqno < watermark is on disk.
    pub watermark: u64,
    /// Dispatched commits per page, waiting for the watermark.
    pub waiting: BTreeMap<u64, Vec<PendingCommit>>,
    /// Commits appended but not yet durable (`flush` waits for zero).
    pub outstanding: usize,
    pub crashed: bool,
    /// A log device failed; the engine is dead.
    pub failure: Option<Error>,
}

/// Everything the engine, its sessions and the writers share. Lock order: shards (ascending index) → one txn-table slot →
/// `queue` → `durable`.
#[derive(Debug)]
pub(crate) struct Shared {
    pub options: EngineOptions,
    /// The volatile image, lock table, and undo lists, split by key hash
    /// (§5.2 sharded lock manager). Index with [`Shared::shard_of`].
    pub shards: Vec<Shard>,
    /// Per-transaction shard masks and lifecycle phases.
    pub txns: TxnTable,
    /// Transaction id allocator — atomic, so `begin` takes no global
    /// lock (§5.2: nothing global sits on the transaction hot path).
    pub next_txn: AtomicU64,
    /// Set once the engine has shut down, crashed or failed: `begin`,
    /// which takes no lock that could tell it, reads this instead.
    pub stopped: AtomicBool,
    pub queue: Mutex<LogQueue>,
    /// Signalled when a writer's decision may have changed (see the
    /// module docs) or a stop flag was set.
    pub queue_cv: Condvar,
    pub durable: Mutex<DurableTable>,
    /// Signalled on every durability transition (page written, crash).
    pub durable_cv: Condvar,
    /// Metric handles and the commit-pipeline trace ring. Recording is
    /// all relaxed atomics, so it is safe anywhere in the lock order.
    pub metrics: SessionMetrics,
}

impl Shared {
    /// Fresh shared state around an initial image (§5 restart or cold
    /// start), with transaction and LSN counters continuing from the
    /// given values. The image is distributed over the configured number
    /// of shards by key hash.
    pub fn new(
        options: EngineOptions,
        db: HashMap<u64, Record>,
        next_txn: u64,
        next_lsn: u64,
    ) -> Self {
        let n = options.shard_count();
        // Partition the image before any mutex exists: constructing each
        // shard around its slice avoids taking (and possibly swallowing
        // a poisoned) state lock during startup.
        let mut images: Vec<HashMap<u64, Record>> = (0..n).map(|_| HashMap::new()).collect();
        for (key, value) in db {
            if let Some(image) = images.get_mut(shard_of(key, n)) {
                image.insert(key, value);
            }
        }
        let shards: Vec<Shard> = images.into_iter().map(Shard::with_db).collect();
        let metrics = SessionMetrics::new(n);
        metrics.note_appended_lsn(next_lsn.max(1).saturating_sub(1));
        Shared {
            options,
            shards,
            txns: TxnTable::new(),
            next_txn: AtomicU64::new(next_txn.max(1)),
            stopped: AtomicBool::new(false),
            queue: Mutex::new(LogQueue {
                next_lsn: next_lsn.max(1),
                ..LogQueue::default()
            }),
            queue_cv: Condvar::new(),
            durable: Mutex::new(DurableTable::default()),
            durable_cv: Condvar::new(),
            metrics,
        }
    }

    /// The shard index owning `key`.
    pub fn shard_of(&self, key: u64) -> usize {
        shard_of(key, self.shards.len())
    }

    /// The shard owning `key` (the hash is in range by construction).
    pub fn shard(&self, key: u64) -> Result<&Shard> {
        self.shards
            .get(self.shard_of(key))
            .ok_or_else(|| Error::Poisoned("shard table".into()))
    }

    /// A key's current (possibly not-yet-durable) record, unlocked.
    pub fn get(&self, key: u64) -> Result<Option<Record>> {
        Ok(self.shard(key)?.guard()?.db.get(&key).cloned())
    }

    /// Allocates the next transaction id (no lock taken).
    pub fn alloc_txn(&self) -> TxnId {
        // ordering: ids only need to be unique; every structure they
        // index is guarded by its own lock.
        TxnId(self.next_txn.fetch_add(1, Ordering::Relaxed))
    }

    /// What a stopped engine refuses work with: the device failure, if
    /// that is what stopped it — callers can tell "operator stopped us"
    /// from "the log device died under us" (§5.2 fail-stop).
    fn stop_reason(&self) -> Error {
        match self.durable_guard() {
            Ok(d) => d.failure.clone().unwrap_or(Error::Shutdown),
            Err(e) => e,
        }
    }

    /// Refuses new transactions on a stopped engine, so a client loop
    /// ends at its next `begin` rather than at a commit that can never
    /// be logged.
    pub fn refuse_if_stopped(&self) -> Result<()> {
        if self.stopped.load(Ordering::Acquire) {
            return Err(self.stop_reason());
        }
        Ok(())
    }

    /// Wakes lock waiters on every shard in `mask` (call after releasing
    /// the shard guards).
    pub fn notify_shards(&self, mask: u64) {
        for (i, shard) in self.shards.iter().enumerate() {
            if mask & (1 << i) != 0 {
                shard.lock_cv.notify_all();
            }
        }
    }

    /// Locks every shard in `mask` in ascending index order — the
    /// multi-shard discipline that makes lock-order cycles impossible —
    /// and returns the guards with their shard indexes.
    pub fn lock_mask(
        &self,
        mask: u64,
    ) -> Result<Vec<(usize, MutexGuard<'_, crate::shard::ShardState>)>> {
        let mut guards = Vec::new();
        for (i, shard) in self.shards.iter().enumerate() {
            if mask & (1 << i) != 0 {
                guards.push((i, shard.guard()?));
            }
        }
        Ok(guards)
    }

    /// Locks the log queue (below the shard and txn-table locks).
    pub fn queue_guard(&self) -> Result<MutexGuard<'_, LogQueue>> {
        self.queue
            .lock()
            .map_err(|_| Error::Poisoned("log queue".into()))
    }

    /// Locks the durability table (bottom of the lock order).
    pub fn durable_guard(&self) -> Result<MutexGuard<'_, DurableTable>> {
        self.durable
            .lock()
            .map_err(|_| Error::Poisoned("durable table".into()))
    }

    /// What a free writer would do with the queue as it stands at `now`,
    /// and the instant time alone would change that (the window opening
    /// under a waiter, or the deadline) — the state a mutation of the
    /// queue must change to be worth a wake-up.
    fn cut_view(&self, q: &LogQueue, now: Instant) -> (Cut, Option<Instant>) {
        let sync = matches!(self.options.policy, CommitPolicy::Synchronous);
        let window = q.has_demand().then(|| q.window_opens.unwrap_or(now));
        let oldest = q.oldest_commit();
        let deadline = oldest.and_then(|t| t.checked_add(self.options.flush_interval));
        let cut = cut_decision(
            window.is_some_and(|t| t <= now),
            deadline.is_some_and(|t| t <= now),
            // Under the synchronous policy a commit record ends its page,
            // so a queued commit is a full page.
            q.bytes >= self.options.page_bytes || (sync && oldest.is_some()),
        );
        let timer = [window, deadline]
            .into_iter()
            .flatten()
            .filter(|t| *t > now)
            .min();
        (cut, timer)
    }

    /// Releases the queue after a mutation and wakes the writers only if
    /// the mutation changed their view (taken at `now`) since `before`.
    fn release_queue(
        &self,
        q: MutexGuard<'_, LogQueue>,
        before: (Cut, Option<Instant>),
        now: Instant,
    ) {
        let wake = self.cut_view(&q, now) != before;
        drop(q);
        if wake {
            self.queue_cv.notify_all();
        }
    }

    /// Appends a pre-committing transaction's whole log — redo records,
    /// then the commit record — as one contiguous LSN run, returning the
    /// commit record's LSN. The caller MUST hold *every* shard lock the
    /// transaction touched: a key's next writer cannot pre-commit before
    /// this one has, so same-key redo records queue in the order their
    /// values were applied, and — dependencies only arise through shared
    /// keys, hence shared shards — commit records queue in precommit
    /// order, every dependency's commit LSN below its dependent's.
    /// `demand` says the caller is about to block on the commit record
    /// (see [`Shared::raise_demand`]).
    pub fn append(&self, txn: TxnId, redo: Vec<LogRecord>, mask: u64, demand: bool) -> Result<Lsn> {
        let mut q = self.queue_guard()?;
        if q.shutdown || q.crashed {
            return Err(self.stop_reason());
        }
        let now = Instant::now();
        let before = self.cut_view(&q, now);
        for record in redo {
            q.push(record, None);
        }
        let lsn = Lsn(q.next_lsn);
        self.metrics.trace(TraceStage::Queued, txn, lsn.0, mask);
        q.push(
            LogRecord::Commit { txn },
            Some(PendingCommit {
                txn,
                lsn,
                mask,
                queued_at: now,
            }),
        );
        self.metrics.note_appended_lsn(lsn.0);
        if demand {
            q.demand = q.demand.max(lsn.0);
        }
        // Nested queue → durable follows the lock order.
        self.durable_guard()?.outstanding += 1;
        self.release_queue(q, before, now);
        Ok(lsn)
    }

    /// Announces that somebody is about to block until every record up to
    /// `lsn` is durable, so the writers stop holding those still queued
    /// for a fuller page. Takes `queue` and releases it: call it *before*
    /// taking `durable`. A record already cut needs no announcing — its
    /// page is on its way — and wakes nobody. `lsn` is
    /// clamped to what has been appended, so `u64::MAX` means "everything
    /// so far". `flush` says the caller is [`crate::Engine::flush`], which
    /// also reopens the group window.
    pub fn raise_demand(&self, lsn: u64, flush: bool) -> Result<()> {
        let mut q = self.queue_guard()?;
        let now = Instant::now();
        let before = self.cut_view(&q, now);
        q.demand = q.demand.max(lsn.min(q.next_lsn.saturating_sub(1)));
        if flush {
            q.window_opens = None;
        }
        self.release_queue(q, before, now);
        Ok(())
    }

    /// True once a crash (simulated or device failure) was declared.
    /// A poisoned durable table is itself a crash: some thread died
    /// mid-update, so the engine escalates to fail-stop rather than
    /// guessing at the table's state.
    pub fn is_crashed(&self) -> bool {
        match self.durable.lock() {
            Ok(d) => d.crashed,
            Err(poisoned) => {
                // Release the recovered guard before fail_stop re-locks
                // the tables in order (holding it would self-deadlock).
                drop(poisoned);
                self.fail_stop(Error::LogDeviceFailed(
                    "durable table poisoned mid-update".into(),
                ));
                true
            }
        }
    }

    /// Enters the fail-stop degraded state after device `device`
    /// exhausted its retry budget on `err` (§5.2 failure semantics):
    /// every in-flight commit's waiter and every future append gets a
    /// distinct [`Error::LogDeviceFailed`] instead of a hang, the
    /// degraded gauge rises, and the trace ring records the transition
    /// (shard-mask field carries the failed device's bit).
    pub fn degrade(&self, device: usize, err: &Error) {
        self.metrics.trace(
            TraceStage::Degraded,
            TxnId(0),
            0,
            1u64.checked_shl(device as u32).unwrap_or(0),
        );
        self.fail_stop(Error::LogDeviceFailed(format!("device {device}: {err}")));
    }

    /// Escalates a poisoned lock on a commit-critical path to the same
    /// fail-stop state as a dead log device: the panicking thread may
    /// have left `what` half-updated, so no further commit may trust it.
    pub fn poison_fail_stop(&self, what: &str) {
        self.metrics.trace(TraceStage::Degraded, TxnId(0), 0, 0);
        self.fail_stop(Error::LogDeviceFailed(format!(
            "{what} mutex poisoned mid-update"
        )));
    }

    /// Marks the engine failed and wakes every waiter. Poisoning here
    /// must not stop the degradation itself — a half-degraded engine
    /// would strand committers in their condvar loops — so the state
    /// flags are written through `PoisonError::into_inner`.
    fn fail_stop(&self, failure: Error) {
        self.metrics.degraded.add(1);
        // The failure first: whoever then sees a stop flag finds it.
        {
            let mut d = self.durable.lock().unwrap_or_else(|p| p.into_inner());
            d.crashed = true;
            if d.failure.is_none() {
                d.failure = Some(failure);
            }
        }
        // The writers stand down.
        self.queue.lock().unwrap_or_else(|p| p.into_inner()).crashed = true;
        self.stopped.store(true, Ordering::Release);
        self.queue_cv.notify_all();
        self.durable_cv.notify_all();
        for shard in &self.shards {
            shard.lock_cv.notify_all();
        }
    }

    /// Cross-structure invariant check, used by [`crate::Engine::audit`].
    ///
    /// Stop-the-world within the lock order: every shard lock is taken
    /// in ascending index (freezing lock traffic), then the txn-table
    /// slots, the queue, and the durable table. Shard invariants: every
    /// key lives on the shard its hash names (no key owned by two shards
    /// — ownership is a function of the hash), undo entries sit only on
    /// the owning shard and only for transactions whose txn-table mask
    /// names it, each shard's [`mmdb_recovery::LockManager`]
    /// passes its own audit, and a quiesced engine (no live
    /// transactions) holds no locks anywhere.
    pub fn audit_now(&self) -> std::result::Result<(), AuditViolation> {
        const C: &str = "SessionShared";
        let n = self.shards.len();
        let mut guards = Vec::with_capacity(n);
        for shard in &self.shards {
            guards.push(shard.state.lock().map_err(|_| {
                AuditViolation::new(C, "poison", "shard mutex poisoned".to_string())
            })?);
        }
        // Slot locks are leaves: taking them under the shard locks
        // follows the order, and with every shard frozen the snapshot is
        // consistent with the shard states.
        let live = self
            .txns
            .snapshot()
            .map_err(|_| AuditViolation::new(C, "poison", "txn table poisoned".to_string()))?;
        let meta: HashMap<TxnId, crate::shard::TxnMeta> = live.into_iter().collect();
        for (i, state) in guards.iter().enumerate() {
            for key in state.db.keys() {
                AuditViolation::ensure(shard_of(*key, n) == i, C, "key-owned-once", || {
                    format!(
                        "key {key} stored on shard {i} but hashes to shard {}",
                        shard_of(*key, n)
                    )
                })?;
            }
            for (txn, list) in &state.undo {
                AuditViolation::ensure(
                    meta.get(txn).is_some_and(|m| m.mask & (1 << i) != 0),
                    C,
                    "undo-owning-shard",
                    || format!("undo for {txn:?} on shard {i} missing from its shard mask"),
                )?;
                for entry in &list.entries {
                    let key = entry.key;
                    AuditViolation::ensure(shard_of(key, n) == i, C, "undo-owned-key", || {
                        format!(
                            "undo entry for key {key} on shard {i} but it hashes to shard {}",
                            shard_of(key, n)
                        )
                    })?;
                }
            }
            if meta.is_empty() {
                // Table removal happens only after pre-commit or abort
                // released the transaction's locks, so an empty table means
                // every commit/abort fully released its locks: quiesced ⇒
                // empty lock tables.
                AuditViolation::ensure(state.locks.lock_count() == 0, C, "quiesced-empty", || {
                    format!(
                        "no live transactions but shard {i} still holds {} locks",
                        state.locks.lock_count()
                    )
                })?;
            }
            state.locks.audit()?;
        }
        drop(guards);
        let q = self
            .queue
            .lock()
            .map_err(|_| AuditViolation::new(C, "poison", "queue mutex poisoned".to_string()))?;
        let mut expect = q.next_lsn;
        for r in q.records.iter().rev() {
            expect = expect.saturating_sub(1);
            AuditViolation::ensure(r.lsn.0 == expect, C, "lsn-dense", || {
                format!("queued LSN {} where {expect} expected", r.lsn.0)
            })?;
        }
        let bytes: usize = q.records.iter().map(|r| r.record.byte_size()).sum();
        AuditViolation::ensure(bytes == q.bytes, C, "byte-accounting", || {
            format!("queue says {} bytes, records sum to {bytes}", q.bytes)
        })?;
        let queued_commits = q.records.iter().filter(|r| r.commit.is_some()).count();
        // The queue stays locked while the durable table is read (queue →
        // durable, the lock order): a writer moves a commit from one to
        // the other under both, so the accounting below sees each once.
        let d = self
            .durable
            .lock()
            .map_err(|_| AuditViolation::new(C, "poison", "durable mutex poisoned".to_string()))?;
        for seqno in d.written.keys() {
            AuditViolation::ensure(*seqno >= d.watermark, C, "watermark", || {
                format!(
                    "page {seqno} marked written below watermark {}",
                    d.watermark
                )
            })?;
        }
        let dispatched: usize = d.waiting.values().map(Vec::len).sum();
        AuditViolation::ensure(
            d.outstanding == queued_commits + dispatched,
            C,
            "outstanding-accounting",
            || {
                format!(
                    "outstanding {} != queued {queued_commits} + dispatched {dispatched}",
                    d.outstanding
                )
            },
        )?;
        drop(d);
        drop(q);
        // Every deadlock-victim abort rode the ordinary abort path, and
        // its per-shard counter is bumped strictly after the abort
        // counter — so the family sum can never exceed total aborts.
        let deadlocks: u64 = self.metrics.deadlock_aborts.iter().map(|c| c.get()).sum();
        let aborts = self.metrics.aborts.get();
        AuditViolation::ensure(deadlocks <= aborts, C, "deadlock-abort-accounting", || {
            format!("{deadlocks} deadlock-victim aborts but only {aborts} aborts total")
        })
    }
}

/// What a free writer does with the queue now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Cut {
    /// Keep accumulating.
    Hold,
    /// Cut the full pages; the partial tail keeps accumulating.
    FullPages,
    /// Cut everything queued, the partial tail included.
    All,
}

/// The one place that decides when a page is cut. A partial page leaves
/// when it is wanted — somebody is blocked on one of its records and the
/// group window is open (`demand`), or its oldest commit record has waited
/// `flush_interval` (`deadline_passed`). Only a writer with nothing to
/// write asks, so the device that will write the page is free: while
/// every device is busy the group keeps growing. A full page leaves
/// regardless.
pub(crate) fn cut_decision(demand: bool, deadline_passed: bool, page_full: bool) -> Cut {
    if demand || deadline_passed {
        Cut::All
    } else if page_full {
        Cut::FullPages
    } else {
        Cut::Hold
    }
}

/// Cuts as many pages as the queue currently justifies. Full pages are
/// always cut — a page is full once it holds `page_bytes`, which a single
/// record larger than a page does on its own — and a trailing partial
/// page is cut only when `flush_partial` ([`Cut::All`], or shutdown).
/// Under the synchronous policy every commit record ends its page, making
/// each commit pay its own page write — the paper's 100 tps baseline.
pub(crate) fn cut_pages(
    q: &mut LogQueue,
    page_bytes: usize,
    sync_cut: bool,
    flush_partial: bool,
) -> Vec<Page> {
    let mut pages = Vec::new();
    loop {
        let mut taken = 0usize;
        let mut bytes = 0usize;
        let mut cut = false;
        for rec in q.records.iter() {
            let size = rec.record.byte_size();
            if taken > 0 && bytes + size > page_bytes {
                cut = true;
                break;
            }
            taken += 1;
            bytes += size;
            if bytes >= page_bytes || (sync_cut && rec.commit.is_some()) {
                cut = true;
                break;
            }
        }
        if taken == 0 || (!cut && !flush_partial) {
            break;
        }
        let mut records = Vec::with_capacity(taken);
        let mut commits = Vec::new();
        for _ in 0..taken {
            let Some(mut r) = q.records.pop_front() else {
                break;
            };
            q.bytes = q.bytes.saturating_sub(r.record.byte_size());
            if let Some(c) = r.commit.take() {
                commits.push(c);
            }
            records.push((r.lsn, r.record));
        }
        pages.push(Page {
            seqno: q.next_seqno,
            records,
            commits,
        });
        q.next_seqno += 1;
    }
    pages
}

/// Blocks until the calling writer, which is free, has a page to write:
/// the oldest page already cut, else the first of every page
/// [`cut_decision`] releases, cut here as one group — the rest wait in
/// [`LogQueue::ready`] for whichever writer is free next. `None` means
/// stand down: shutdown with the queue drained, crash, or a poisoned lock
/// (a thread panicked holding a table — the engine fails before the
/// writer leaves, or waiters would hang on a live condvar).
fn next_page(shared: &Shared) -> Option<Page> {
    let sync_cut = matches!(shared.options.policy, CommitPolicy::Synchronous);
    let Ok(mut q) = shared.queue.lock() else {
        shared.poison_fail_stop("log queue");
        return None;
    };
    loop {
        if q.crashed {
            return None;
        }
        if let Some(page) = q.ready.pop_front() {
            return Some(page);
        }
        let now = Instant::now();
        // Only `timer` can change the decision without another thread
        // changing the queue (and notifying); with none pending, the wait
        // is for an append or a waiter, and whoever brings it wakes us.
        let (cut, timer) = shared.cut_view(&q, now);
        if cut == Cut::All {
            // This group leaves now; the next awaited one no sooner than a
            // group window from here.
            q.window_opens = now.checked_add(GROUP_WINDOW);
        }
        let flush_partial = q.shutdown || cut == Cut::All;
        let pages = if flush_partial || cut == Cut::FullPages {
            cut_pages(&mut q, shared.options.page_bytes, sync_cut, flush_partial)
        } else {
            Vec::new()
        };
        if !pages.is_empty() {
            // Register each page's commits before the queue is released
            // (queue → durable, the lock order): waiters are found here,
            // and a commit is at every instant either queued or registered
            // — the audit's accounting.
            let Ok(mut d) = shared.durable.lock() else {
                drop(q); // `fail_stop` takes the queue itself
                shared.poison_fail_stop("durable table");
                return None;
            };
            if d.crashed {
                return None;
            }
            for page in pages.iter().filter(|p| !p.commits.is_empty()) {
                shared.metrics.batch_txns.record(page.commits.len() as u64);
                for c in &page.commits {
                    shared.metrics.group_wait_us.record(us_since(c.queued_at));
                }
                d.waiting.insert(page.seqno, page.commits.clone());
            }
            drop(d);
            let spare = pages.len() > 1;
            q.ready.extend(pages);
            if spare {
                shared.queue_cv.notify_all(); // pages left for other writers
            }
            continue;
        }
        if q.shutdown && q.records.is_empty() {
            return None;
        }
        let woken = match timer {
            Some(t) => shared
                .queue_cv
                .wait_timeout(q, t.saturating_duration_since(now))
                .map(|(guard, _)| guard)
                .ok(),
            None => shared.queue_cv.wait(q).ok(),
        };
        let Some(guard) = woken else {
            shared.poison_fail_stop("log queue");
            return None;
        };
        q = guard;
    }
}

/// One log-writer thread: takes or cuts its next page ([`next_page`]),
/// sleeps the device's modeled latency, writes and syncs the page,
/// advances durability, and comes back for the next group. A crash flag
/// set during the modeled write loses the page — exactly the §5.2 failure
/// the recovery test exercises. A failed append is retried within the
/// configured budget (the device rewinds to the last good frame before
/// each retry); exhausting it degrades the whole engine fail-stop
/// rather than leaving committers hung on a page that will never land.
/// A writer that stops because the engine crashed under its backoff
/// stands down instead: its device did not fail.
pub(crate) fn run_writer(shared: Arc<Shared>, mut device: WalDevice, index: usize) {
    while let Some(page) = next_page(&shared) {
        // The fsync histogram covers the page write: modeled device
        // latency plus the real append-and-sync, retries included.
        let write_started = Instant::now();
        let latency = device.write_latency();
        if !latency.is_zero() {
            std::thread::sleep(latency);
        }
        if shared.is_crashed() {
            continue; // crash mid-write: the page is lost
        }
        let bytes_before = device.bytes_written();
        if let Err(e) = append_with_retry(&shared, &mut device, &page) {
            if !shared.is_crashed() {
                shared.degrade(index, &e);
            }
            return;
        }
        shared
            .metrics
            .log_bytes
            .add(device.bytes_written().saturating_sub(bytes_before));
        shared.metrics.fsync_us.record(us_since(write_started));
        for c in &page.commits {
            shared
                .metrics
                .trace(TraceStage::Flushed, c.txn, c.lsn.0, c.mask);
        }
        if !complete_page(&shared, page) {
            return;
        }
    }
}

/// Appends one page, retrying transient failures within the configured
/// budget with doubling backoff. Every failed attempt bumps the I/O
/// error counter; every retry bumps the retry counter. The device
/// rewound itself to the last good frame on each failure, so a retry
/// rewrites the full page at a clean boundary. Returns the last error
/// once the budget is spent (the caller degrades the engine), or as soon
/// as a crash is declared while backing off (the caller stands down: no
/// point hammering a device whose engine is already down).
fn append_with_retry(shared: &Shared, device: &mut WalDevice, page: &Page) -> Result<()> {
    let mut backoff = shared.options.io_retry_backoff;
    let mut attempts = 0u32;
    loop {
        match device.append_page(&page.records) {
            Ok(()) => return Ok(()),
            Err(e) => {
                shared.metrics.io_errors.inc();
                if attempts >= shared.options.io_retries {
                    return Err(e);
                }
                attempts += 1;
                shared.metrics.io_retries.inc();
                if crashed_during(shared, backoff) {
                    return Err(e);
                }
                backoff = backoff.saturating_mul(2);
            }
        }
    }
}

/// Waits out a retry backoff, cut short by a crash (a crash or fail-stop
/// notifies `durable_cv`), so stopping the engine never waits for a
/// backoff to end. True if the engine crashed.
fn crashed_during(shared: &Shared, backoff: Duration) -> bool {
    let deadline = Instant::now().checked_add(backoff);
    let Ok(mut d) = shared.durable.lock() else {
        shared.poison_fail_stop("durable table");
        return true;
    };
    loop {
        if d.crashed {
            return true;
        }
        let left = deadline.map_or(Duration::MAX, |t| {
            t.saturating_duration_since(Instant::now())
        });
        if left.is_zero() {
            return false;
        }
        let Ok((guard, _)) = shared.durable_cv.wait_timeout(d, left) else {
            shared.poison_fail_stop("durable table");
            return true;
        };
        d = guard;
    }
}

/// Marks a page written, advances the durable watermark (and with it
/// `durable_lsn`), reports every commit the watermark now covers, and
/// retires them: their undo lists and txn-table entries go.
fn complete_page(shared: &Shared, page: Page) -> bool {
    let newly = {
        let Ok(mut guard) = shared.durable.lock() else {
            shared.poison_fail_stop("durable table");
            return false;
        };
        let d = &mut *guard;
        let last_lsn = page.records.last().map(|(l, _)| l.0).unwrap_or(0);
        d.written.insert(page.seqno, last_lsn);
        // Counted under this lock, so a waiter the watermark releases
        // below also sees its page counted.
        shared.metrics.pages_written.inc();
        let mut newly: Vec<PendingCommit> = Vec::new();
        while let Some(lsn) = d.written.remove(&d.watermark) {
            // Pages are cut in LSN order, so retiring the next seqno
            // extends the durable LSN prefix to that page's last record.
            d.durable_lsn = d.durable_lsn.max(lsn);
            if let Some(cs) = d.waiting.remove(&d.watermark) {
                newly.extend(cs);
            }
            d.watermark += 1;
        }
        d.outstanding = d.outstanding.saturating_sub(newly.len());
        shared.metrics.update_durable_lag(d.durable_lsn);
        shared.durable_cv.notify_all();
        newly
    };
    if newly.is_empty() {
        return true;
    }
    // Drop each commit's undo lists on every shard its transaction touched
    // (ascending order via `lock_mask`), then retire its txn-table entry.
    // Its locks went at pre-commit; the mask may overestimate, which costs
    // a no-op visit.
    for c in &newly {
        shared
            .metrics
            .trace(TraceStage::Durable, c.txn, c.lsn.0, c.mask);
        let meta = match shared.txns.get(c.txn) {
            Ok(Some(meta)) => meta,
            Ok(None) => continue, // already finalized, or tearing down
            Err(_) => {
                shared.poison_fail_stop("txn table");
                return false;
            }
        };
        shared
            .metrics
            .commit_latency_us
            .record(us_since(meta.begun_at));
        let Ok(mut guards) = shared.lock_mask(meta.mask) else {
            shared.poison_fail_stop("shard state");
            return false;
        };
        for (_, state) in guards.iter_mut() {
            // The commit record is on disk: the pre-images kept for this
            // transaction can never be needed again. Dropping them here —
            // not at pre-commit — keeps the sweeper's invariant that a
            // shard with an empty undo map holds only durable data.
            state.undo.remove(&c.txn);
        }
        drop(guards);
        if shared.txns.remove(c.txn).is_err() {
            shared.poison_fail_stop("txn table");
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(lsn: u64, record: LogRecord) -> QueuedRecord {
        let commit = match &record {
            LogRecord::Commit { txn } => Some(PendingCommit {
                txn: *txn,
                lsn: Lsn(lsn),
                mask: 0,
                queued_at: Instant::now(),
            }),
            _ => None,
        };
        QueuedRecord {
            lsn: Lsn(lsn),
            record,
            commit,
        }
    }

    fn queue_of(records: Vec<QueuedRecord>) -> LogQueue {
        let bytes = records.iter().map(|r| r.record.byte_size()).sum();
        let next_lsn = records.last().map(|r| r.lsn.0 + 1).unwrap_or(1);
        LogQueue {
            records: records.into(),
            bytes,
            next_lsn,
            ..LogQueue::default()
        }
    }

    fn typical(txn: u64, first_lsn: u64) -> Vec<QueuedRecord> {
        mmdb_recovery::log::typical_transaction(TxnId(txn), txn, 0, 1)
            .into_iter()
            .enumerate()
            .map(|(i, r)| rec(first_lsn + i as u64, r))
            .collect()
    }

    #[test]
    fn full_pages_cut_partial_held_back() {
        // 11 typical transactions = 4400 bytes: one full 4096-byte page
        // (10 txns) cut, the 11th held until a flush is forced.
        let mut q = queue_of((0..11).flat_map(|t| typical(t + 1, 1 + t * 3)).collect());
        let pages = cut_pages(&mut q, 4096, false, false);
        assert_eq!(pages.len(), 1);
        assert_eq!(pages[0].commits.len(), 10, "ten commits share the page");
        // The 11th transaction's 20-byte begin record still fits in the
        // page (4020 ≤ 4096); its update and commit stay queued.
        assert_eq!(q.records.len(), 2);
        let more = cut_pages(&mut q, 4096, false, true);
        assert_eq!(more.len(), 1);
        assert_eq!(more[0].seqno, 1);
        assert!(q.records.is_empty());
        assert_eq!(q.bytes, 0);
    }

    #[test]
    fn a_record_larger_than_a_page_is_a_full_page_on_its_own() {
        // A writer is woken whenever `bytes >= page_bytes`; if the cut did
        // not agree that such a page is full it would find nothing to
        // take until the transaction's next record arrived.
        let big = LogRecord::Put {
            txn: TxnId(1),
            key: 1,
            new: Record::from(vec![0u8; 3 * 4096]),
        };
        let mut q = queue_of(vec![
            rec(1, LogRecord::Begin { txn: TxnId(1) }),
            rec(2, big),
            rec(3, LogRecord::Commit { txn: TxnId(1) }),
        ]);
        let pages = cut_pages(&mut q, 4096, false, false);
        assert_eq!(pages.len(), 2, "begin alone, then the big record alone");
        assert_eq!(pages[1].records.len(), 1);
        assert_eq!(q.records.len(), 1, "the commit waits for its group");
        assert!(q.bytes < 4096);
    }

    #[test]
    fn sync_cut_ends_every_page_at_a_commit() {
        let mut q = queue_of((0..3).flat_map(|t| typical(t + 1, 1 + t * 3)).collect());
        let pages = cut_pages(&mut q, 4096, true, true);
        assert_eq!(pages.len(), 3, "one page per commit under sync policy");
        for p in &pages {
            assert_eq!(p.commits.len(), 1);
            assert!(matches!(
                p.records.last(),
                Some((_, LogRecord::Commit { .. }))
            ));
        }
    }

    #[test]
    fn cut_decision_over_every_input() {
        use Cut::{All, FullPages, Hold};
        const T: bool = true;
        const F: bool = false;
        // (demand, deadline passed, page full) → decision.
        let table = [
            // Nobody waits, no deadline: only a full page leaves.
            ((F, F, F), Hold),
            ((F, F, T), FullPages),
            // Wanted: everything leaves, the partial tail included.
            ((T, F, F), All),
            ((F, T, F), All),
            ((T, T, F), All),
            ((T, F, T), All),
            ((F, T, T), All),
            ((T, T, T), All),
        ];
        let mut seen = std::collections::BTreeSet::new();
        for ((demand, deadline_passed, page_full), want) in table {
            assert!(seen.insert((demand, deadline_passed, page_full)));
            assert_eq!(
                cut_decision(demand, deadline_passed, page_full),
                want,
                "demand {demand}, deadline {deadline_passed}, full {page_full}"
            );
        }
        assert_eq!(seen.len(), 8, "every combination is listed once");
    }

    #[test]
    fn a_waiter_is_served_when_the_group_window_opens() {
        let interval = Duration::from_secs(10);
        let options =
            EngineOptions::new(CommitPolicy::Group, "unused").with_flush_interval(interval);
        let shared = Shared::new(options, HashMap::new(), 1, 1);
        let put = |k: u64| {
            vec![LogRecord::Put {
                txn: TxnId(k),
                key: k,
                new: Record::from(vec![0u8; 8]),
            }]
        };
        // An awaited commit on a quiet log leaves at once, as a group of one.
        shared.append(TxnId(1), put(1), 0, true).unwrap();
        let first = next_page(&shared).unwrap();
        assert_eq!(first.commits.len(), 1);
        // The next commit queues just after that cut. Nobody waits on it
        // yet: only its deadline is pending.
        let lsn = shared.append(TxnId(2), put(2), 0, false).unwrap();
        let (queued_at, opens) = {
            let q = shared.queue_guard().unwrap();
            (q.oldest_commit().unwrap(), q.window_opens.unwrap())
        };
        assert!(opens <= queued_at + GROUP_WINDOW);
        let deadline = queued_at + interval;
        let just_before = opens - Duration::from_micros(1);
        {
            let q = shared.queue_guard().unwrap();
            assert_eq!(shared.cut_view(&q, just_before).0, Cut::Hold);
            assert_eq!(shared.cut_view(&q, deadline).0, Cut::All);
        }
        // Its waiter arrives: the page leaves when the window opens, long
        // before the deadline.
        shared.raise_demand(lsn.0, false).unwrap();
        {
            let q = shared.queue_guard().unwrap();
            assert_eq!(shared.cut_view(&q, just_before), (Cut::Hold, Some(opens)));
            assert_eq!(shared.cut_view(&q, opens), (Cut::All, Some(deadline)));
        }
        // A flush does not wait it out.
        shared.raise_demand(u64::MAX, true).unwrap();
        let q = shared.queue_guard().unwrap();
        assert_eq!(shared.cut_view(&q, just_before).0, Cut::All);
    }

    #[test]
    fn demand_lasts_while_its_record_is_queued() {
        let mut q = queue_of(typical(1, 1));
        assert!(!q.has_demand(), "nobody waits yet");
        q.demand = 3;
        assert!(q.has_demand());
        cut_pages(&mut q, 4096, false, true);
        assert!(!q.has_demand(), "dispatching the record answers it");
        q.records.extend(typical(2, 4));
        assert!(!q.has_demand(), "a later transaction inherits nothing");
    }

    #[test]
    fn the_deadline_follows_the_oldest_queued_commit() {
        let mut q = queue_of((0..2).flat_map(|t| typical(t + 1, 1 + t * 3)).collect());
        let second = q.records[5].commit.as_ref().unwrap().queued_at;
        assert!(q.oldest_commit().is_some_and(|t| t <= second));
        // A 500-byte page takes the first 400-byte transaction (and the
        // second's begin record); the second commit stays queued.
        let pages = cut_pages(&mut q, 500, false, false);
        assert_eq!(pages.len(), 1);
        assert_eq!(pages[0].commits.len(), 1);
        assert_eq!(
            q.oldest_commit(),
            Some(second),
            "moved to the second commit"
        );
        cut_pages(&mut q, 500, false, true);
        assert_eq!(q.oldest_commit(), None, "nothing queued, nothing armed");
    }

    #[test]
    fn lsn_order_is_preserved_across_pages() {
        let mut q = queue_of((0..25).flat_map(|t| typical(t + 1, 1 + t * 3)).collect());
        let pages = cut_pages(&mut q, 4096, false, true);
        let flat: Vec<u64> = pages
            .iter()
            .flat_map(|p| p.records.iter().map(|(l, _)| l.0))
            .collect();
        let mut sorted = flat.clone();
        sorted.sort_unstable();
        assert_eq!(flat, sorted);
        assert_eq!(flat.len(), 75);
    }
}
