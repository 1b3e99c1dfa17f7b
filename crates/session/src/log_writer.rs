//! The log queue and its writers (§5.2 on OS threads).
//!
//! Sessions append to one shared log queue; one *writer* thread per log
//! device drains it. The rules — the queue, when a page is cut, the
//! durable watermark — are the pure §5.2 commit core,
//! [`mmdb_recovery::commit`], which the virtual-time `RecoveryManager`
//! runs too; this module is the threads around it. A free writer asks the
//! core for its next page ([`LogQueue::next_page`]) on the engine's clock
//! (µs since its epoch), sleeps the device's modeled page-write latency,
//! appends-and-syncs the page through [`WalDevice`] and completes it in
//! the durable half, which reports the commits now durable. Which device
//! holds a page means nothing after a crash: recovery merges a
//! generation's device files by LSN. What the engine adds to the core:
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
//!   dependent's. Durability is an LSN prefix, so pages may reach their
//!   devices in any order.
//! * **The core's parameters** — *demand* is raised by `wait_durable`,
//!   `commit_durable`, a synchronous commit and `flush`; an awaited
//!   partial page leaves once a writer is free and [`GROUP_WINDOW`] has
//!   passed since the previous one — the window keeps the commit rate
//!   steady, where the device's pace alone would follow every wobble of
//!   the disk's sync time (EXPERIMENTS.md §S1, "Why a window"); `flush`
//!   reopens the window; a commit nobody waits on leaves with the next
//!   group or once it has been queued `flush_interval`.
//!
//! **Who wakes whom.** A writer with nothing to write sleeps on
//! `queue_cv` — until the core's timer, when one is pending — and is
//! notified only by a change that can alter the core's answer or its
//! timer ([`LogQueue::view`]): an append into an empty queue (arming the
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
//! taking `durable`. A writer registers the page it takes in `durable`
//! before it releases `queue`, so a commit is at every instant either
//! queued or registered.

use crate::metrics::{us_since, SessionMetrics};
use crate::policy::{EngineOptions, GROUP_WINDOW, IO_RETRIES};
use crate::shard::{shard_of, Shard, TxnTable};
use mmdb_obs::TraceStage;
use mmdb_recovery::commit::{self, CutParams, DurableTable, LogQueue, Page};
use mmdb_recovery::wal::WalDevice;
use mmdb_recovery::{LogRecord, Lsn, Record};
use mmdb_types::{AuditViolation, Auditable, Error, Result, TxnId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Durability as writers and waiting committers share it: the commit
/// core's durable half, plus how the engine stopped.
#[derive(Debug)]
pub(crate) struct Durability {
    pub table: DurableTable,
    pub crashed: bool,
    /// A log device failed; the engine is dead.
    pub failure: Option<Error>,
}

/// `d` in whole µs, rounded up, so a timer never fires before its instant
/// and a writer it wakes never finds it still pending.
fn micros_ceil(d: Duration) -> u64 {
    u64::try_from(d.as_nanos().div_ceil(1_000)).unwrap_or(u64::MAX)
}

/// Everything the engine, its sessions and the writers share. Lock order:
/// shards (ascending index) → one txn-table slot → `queue` → `durable`.
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
    /// The commit core's parameters under [`Shared::options`].
    cut: CutParams,
    pub durable: Mutex<Durability>,
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
        let cut = CutParams {
            window: micros_ceil(GROUP_WINDOW),
            deadline: Some(micros_ceil(options.flush_interval)),
            ..CutParams::new(options.policy, options.page_bytes)
        };
        Shared {
            options,
            shards,
            txns: TxnTable::new(),
            next_txn: AtomicU64::new(next_txn.max(1)),
            stopped: AtomicBool::new(false),
            queue: Mutex::new(LogQueue::starting_at(next_lsn)),
            queue_cv: Condvar::new(),
            cut,
            durable: Mutex::new(Durability {
                table: DurableTable::starting_at(next_lsn),
                crashed: false,
                failure: None,
            }),
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
    pub fn durable_guard(&self) -> Result<MutexGuard<'_, Durability>> {
        self.durable
            .lock()
            .map_err(|_| Error::Poisoned("durable table".into()))
    }

    /// Releases the queue after a mutation and wakes the writers only if
    /// the mutation changed what a free writer would do, or its timer
    /// ([`LogQueue::view`] at `now`), since `before`.
    fn release_queue(
        &self,
        q: MutexGuard<'_, LogQueue>,
        before: (commit::Cut, Option<u64>),
        now: u64,
    ) {
        let wake = q.view(now, &self.cut) != before;
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
        let now = self.metrics.now_us();
        let before = q.view(now, &self.cut);
        for record in redo {
            q.append(record);
        }
        let lsn = q.append_commit(txn, mask, now);
        self.metrics.trace(TraceStage::Queued, txn, lsn.0, mask);
        self.metrics.note_appended_lsn(lsn.0);
        if demand {
            q.raise_demand(lsn.0, false);
        }
        self.release_queue(q, before, now);
        Ok(lsn)
    }

    /// Announces that somebody is about to block until every record up to
    /// `lsn` is durable, so the writers stop holding those still queued
    /// for a fuller page, and returns `lsn` clamped to what has been
    /// appended — `u64::MAX` means "everything so far". Takes `queue` and
    /// releases it: call it *before* taking `durable`. A record already
    /// cut needs no announcing — its page is on its way — and wakes
    /// nobody. `flush` says the caller is [`crate::Engine::flush`], which
    /// also reopens the group window.
    pub fn raise_demand(&self, lsn: u64, flush: bool) -> Result<u64> {
        let mut q = self.queue_guard()?;
        let now = self.metrics.now_us();
        let before = q.view(now, &self.cut);
        let upto = q.raise_demand(lsn, flush);
        self.release_queue(q, before, now);
        Ok(upto)
    }

    /// Blocks until every record up to `lsn` is durable (its page and
    /// every earlier page on disk), or the engine stops.
    pub fn await_durable(&self, lsn: u64) -> Result<()> {
        let mut d = self.durable_guard()?;
        loop {
            if d.table.durable_lsn() >= lsn {
                return Ok(());
            }
            if let Some(e) = &d.failure {
                return Err(e.clone());
            }
            if d.crashed {
                return Err(Error::Shutdown);
            }
            d = self
                .durable_cv
                .wait(d)
                .map_err(|_| Error::Poisoned("durable table".into()))?;
        }
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
        // The queue stays locked while the durable table is read (queue →
        // durable, the lock order): a writer moves a page from one to the
        // other under both, so the accounting sees each commit once.
        let d = self
            .durable
            .lock()
            .map_err(|_| AuditViolation::new(C, "poison", "durable mutex poisoned".to_string()))?;
        commit::audit(C, &q, &d.table)?;
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

/// Blocks until the calling writer, which is free, has a page to write —
/// the commit core's [`LogQueue::next_page`], asked again whenever the
/// queue changes or the core's timer passes — and registers it in the
/// durable half before the queue is released. `None` means stand down:
/// shutdown with the queue drained, crash, or a poisoned lock (a thread
/// panicked holding a table — the engine fails before the writer leaves,
/// or waiters would hang on a live condvar).
fn next_page(shared: &Shared) -> Option<Page> {
    let Ok(mut q) = shared.queue.lock() else {
        shared.poison_fail_stop("log queue");
        return None;
    };
    loop {
        if q.crashed {
            return None;
        }
        let now = shared.metrics.now_us();
        // Only `timer` can change the answer without another thread
        // changing the queue (and notifying); with none pending, the wait
        // is for an append or a waiter, and whoever brings it wakes us.
        let (page, timer) = q.next_page(now, &shared.cut);
        if let Some(page) = page {
            // Registered before the queue is released (queue → durable,
            // the lock order): a commit is at every instant either queued
            // or registered — the audit's accounting.
            let Ok(mut d) = shared.durable.lock() else {
                drop(q); // `fail_stop` takes the queue itself
                shared.poison_fail_stop("durable table");
                return None;
            };
            if d.crashed {
                return None;
            }
            if !page.commits.is_empty() {
                shared.metrics.batch_txns.record(page.commits.len() as u64);
                for c in &page.commits {
                    let waited = now.saturating_sub(c.queued_at);
                    shared.metrics.group_wait_us.record(waited);
                }
            }
            d.table.register(&page);
            drop(d);
            if q.pages_waiting() > 0 {
                shared.queue_cv.notify_all(); // pages left for other writers
            }
            return Some(page);
        }
        if q.shutdown && q.is_empty() {
            return None;
        }
        let woken = match timer {
            Some(t) => shared
                .queue_cv
                .wait_timeout(q, Duration::from_micros(t.saturating_sub(now)))
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

/// Appends one page, retrying transient failures up to [`IO_RETRIES`]
/// times with doubling backoff. Every failed attempt bumps the I/O
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
                if attempts >= IO_RETRIES {
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

/// Marks a page written in the durable half, which advances the
/// watermark and reports every commit it now covers, and retires them:
/// their undo lists and txn-table entries go.
fn complete_page(shared: &Shared, page: Page) -> bool {
    let newly = {
        let Ok(mut d) = shared.durable.lock() else {
            shared.poison_fail_stop("durable table");
            return false;
        };
        // Counted under this lock, so a waiter the watermark releases
        // below also sees its page counted.
        shared.metrics.pages_written.inc();
        let newly = d.table.complete(page.seqno);
        shared.metrics.update_durable_lag(d.table.durable_lsn());
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
