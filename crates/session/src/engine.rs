//! The engine front-end and its session handles (§5.2 made concurrent).
//!
//! An [`Engine`] owns the shared volatile state — the memory-resident
//! store of `u64` keys to byte [`Record`]s, §5.2
//! [`mmdb_recovery::LockManager`] partitions, and undo lists, split by
//! key hash over the [`crate::shard`] shards — plus
//! the log queue and one writer thread per log device. [`Session`] is the
//! per-client handle: any number may be created and moved to OS threads;
//! all of them funnel commits through the queue, which the writers batch
//! into pages per the configured [`CommitPolicy`].
//!
//! The commit path is the paper's pre-commit protocol: `commit` claims
//! the transaction in the [`crate::shard::TxnTable`], locks every shard
//! the transaction touched (ascending), runs `release` on each shard's
//! lock manager — handing the transaction's locks to its waiters — and
//! queues the transaction's log *while still holding those shard locks*,
//! which is what keeps commit records in precommit order in the queue: a
//! waiter that takes a released lock gets a higher commit LSN, so it is
//! never durable first. That is the only time a transaction reaches the
//! log (§5.4): until then its undo list is its log — begin, put and
//! abort never touch the queue — and what is queued is redo-only: one
//! [`LogRecord::Put`] per key written, then the commit record. Durability
//! arrives later, when the record's page (and every earlier page) is on
//! disk; [`Session::wait_durable`] blocks for it and a synchronous-policy
//! commit does so before returning. Blocking is also what releases the
//! record: a waiter announces itself on the queue, and the record's page
//! is cut as soon as a log device is free and the group window is open
//! (see [`crate::log_writer`]).
//!
//! The store's value is a byte record: [`Session::get`],
//! [`Session::get_for_update`] and [`Session::put`] move whole records —
//! one key, one lock, one [`LogRecord::Put`] per key a committing
//! transaction wrote, whatever the length. [`Session::read`],
//! [`Session::read_shared`], [`Session::read_for_update`],
//! [`Session::write`] and [`Session::transfer`] are the same operations
//! seen through an 8-byte little-endian `i64` view, for the §5 banking
//! workloads.

use crate::checkpoint::{self, CheckpointState, CheckpointStats, SweepHalt};
use crate::log_writer::{self, Shared};
use crate::metrics::us_since;
use crate::policy::{CommitPolicy, EngineOptions};
use crate::shard::{rollback_shard, ShardState, TxnMeta, TxnPhase};
use mmdb_obs::{Registry, StatsSnapshot, TraceEvent, TraceStage};
use mmdb_recovery::wal::WalDevice;
use mmdb_recovery::{detect_deadlocks_in, LogRecord, Lsn, Record, MAX_RECORD_BYTES};
use mmdb_types::{AuditViolation, Auditable, Error, Result, TxnId};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A transaction handle issued by [`Session::begin`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Txn(TxnId);

impl Txn {
    /// The underlying transaction id.
    pub fn id(&self) -> TxnId {
        self.0
    }
}

/// Proof of commit: the transaction and its commit record's LSN. Under
/// grouped policies the transaction may not be durable yet — it is
/// *pre-committed*, holding no locks (§5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitTicket {
    /// The committed transaction.
    pub txn: TxnId,
    /// LSN of its commit record.
    pub lsn: Lsn,
}

/// The multi-threaded engine front-end: shared state and one log-writer
/// thread per device (§5.2).
#[derive(Debug)]
pub struct Engine {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
    /// §5.3 sweeper state (dirty-shard cache, generation numbering),
    /// shared with the background checkpointer thread when one runs.
    checkpoint: Arc<Mutex<CheckpointState>>,
    finished: bool,
}

impl Engine {
    /// Starts an engine with an empty store in a fresh log directory.
    /// Fails if the directory already holds log files — recovering from
    /// them is [`Engine::recover`]'s job, and silently appending a second
    /// LSN sequence would corrupt both.
    pub fn start(options: EngineOptions) -> Result<Engine> {
        std::fs::create_dir_all(&options.log_dir)
            .map_err(|e| Error::Io(format!("create {}: {e}", options.log_dir.display())))?;
        if !log_files(&options.log_dir)?.is_empty() {
            return Err(Error::Io(format!(
                "{} already holds log files; use Engine::recover",
                options.log_dir.display()
            )));
        }
        Engine::start_with(options, HashMap::new(), 1, 1, 0)
    }

    /// Starts the threads around an initial image — shared by [`start`]
    /// (empty image, generation 0) and [`recover`] (replayed image, a
    /// generation above every one on disk). Opens a fresh live log file
    /// per device for `live_generation`; the first commit gets LSN
    /// `next_lsn`.
    ///
    /// [`start`]: Engine::start
    /// [`recover`]: Engine::recover
    pub(crate) fn start_with(
        options: EngineOptions,
        db: HashMap<u64, Record>,
        next_txn: u64,
        next_lsn: u64,
        live_generation: u64,
    ) -> Result<Engine> {
        let devices = (0..options.policy.devices())
            .map(|i| open_device(&options, live_generation, i))
            .collect::<Result<Vec<_>>>()?;
        let shared = Arc::new(Shared::new(options, db, next_txn, next_lsn));
        let mut threads = Vec::new();
        for (i, device) in devices.into_iter().enumerate() {
            let shared_w = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("mmdb-log-writer-{i}"))
                .spawn(move || log_writer::run_writer(shared_w, device, i))
                .map_err(|e| Error::Io(format!("spawn writer {i}: {e}")))?;
            threads.push(handle);
        }
        let checkpoint = Arc::new(Mutex::new(CheckpointState::new(
            shared.shards.len(),
            live_generation,
        )));
        if let Some(interval) = shared.options.checkpoint_interval {
            let shared_c = Arc::clone(&shared);
            let ck = Arc::clone(&checkpoint);
            let handle = std::thread::Builder::new()
                .name("mmdb-checkpointer".into())
                .spawn(move || checkpoint::run_checkpointer(shared_c, ck, interval))
                .map_err(|e| Error::Io(format!("spawn checkpointer: {e}")))?;
            threads.push(handle);
        }
        Ok(Engine {
            shared,
            threads,
            checkpoint,
            finished: false,
        })
    }

    /// Runs one §5.3 fuzzy checkpoint sweep right now, regardless of the
    /// configured interval: copies dirty shards action-consistently
    /// (backing out in-flight writes via their undo records), writes a
    /// checkpoint image to a fresh log generation, and deletes every
    /// generation but it and the live log once it is durably complete.
    /// Commit traffic proceeds throughout; recovery afterwards replays
    /// only the live-log suffix past the returned replay floor.
    /// [`Engine::recover`] ends with one of these.
    pub fn checkpoint_now(&self) -> Result<CheckpointStats> {
        self.checkpoint_halted(SweepHalt::None)
    }

    /// [`Engine::checkpoint_now`] with a torture-controlled crash point
    /// (see [`SweepHalt`]); the torture harness uses it to leave torn
    /// images and untruncated generation pairs behind.
    pub(crate) fn checkpoint_halted(&self, halt: SweepHalt) -> Result<CheckpointStats> {
        let mut ck = self
            .checkpoint
            .lock()
            .map_err(|_| Error::Poisoned("checkpoint state".into()))?;
        checkpoint::sweep(&self.shared, &mut ck, halt)
    }

    /// A new session handle for this engine (cheap; make one per client
    /// thread).
    pub fn session(&self) -> Session {
        Session {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Reads a key's current (possibly not-yet-durable) value through
    /// the 8-byte view.
    pub fn read(&self, key: u64) -> Result<Option<i64>> {
        word_of(key, self.shared.get(key)?)
    }

    /// True once the ticket's commit record — and every log record
    /// before it — is on disk.
    pub fn is_durable(&self, ticket: &CommitTicket) -> Result<bool> {
        Ok(self.shared.durable_guard()?.durable_lsn >= ticket.lsn.0)
    }

    /// Flushes everything appended so far — the partial page included,
    /// as soon as a log device is free, whatever the group window says —
    /// and blocks until every commit issued so far is durable.
    pub fn flush(&self) -> Result<()> {
        // A failed or crashed engine is reported by the wait below.
        self.shared.raise_demand(u64::MAX, true)?;
        let mut d = self.shared.durable_guard()?;
        loop {
            if let Some(e) = &d.failure {
                return Err(e.clone());
            }
            if d.crashed {
                return Err(Error::Shutdown);
            }
            if d.outstanding == 0 {
                return Ok(());
            }
            d = self
                .shared
                .durable_cv
                .wait(d)
                .map_err(|_| Error::Poisoned("durable table".into()))?;
        }
    }

    /// Log pages durably written so far, across all devices.
    pub fn pages_written(&self) -> Result<usize> {
        Ok(self.shared.metrics.pages_written.get() as usize)
    }

    /// A point-in-time [`StatsSnapshot`] of every engine metric:
    /// counters, gauges, and latency histograms (percentiles via
    /// [`mmdb_obs::HistogramSnapshot`]).
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.metrics.registry.snapshot()
    }

    /// The engine's metrics as a Prometheus-style text exposition.
    pub fn render_metrics(&self) -> String {
        self.shared.metrics.registry.render_text()
    }

    /// The commit-pipeline trace events currently held by the ring
    /// (begin → precommit → queued → flushed → durable), oldest first.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.shared.metrics.trace_events()
    }

    /// The engine's metric [`Registry`] — callers may register their
    /// own metrics into the same exposition (recovery does).
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.shared.metrics.registry)
    }

    /// Stops the engine gracefully: drains and writes every queued
    /// record, joins the threads, and surfaces any device failure.
    pub fn shutdown(mut self) -> Result<()> {
        self.stop(false)
    }

    /// Simulates a crash (§5.2's failure model): every volatile
    /// structure — the store, the log queue, pages in flight — is
    /// dropped on the floor. Only pages whose write completed survive,
    /// in the log files. Returns without flushing anything.
    pub fn crash(mut self) -> Result<()> {
        self.stop(true)
    }

    fn stop(&mut self, crash: bool) -> Result<()> {
        if self.finished {
            return Ok(());
        }
        self.finished = true;
        // The stop flags must land even if a writer panicked holding a
        // table — otherwise the join below waits on threads that will
        // never see the shutdown — so poisoning is recovered, not
        // swallowed: the flags are whole-word writes that cannot be
        // half-updated.
        {
            let mut q = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
            if crash {
                q.crashed = true;
            } else {
                q.shutdown = true;
            }
        }
        if crash {
            let mut d = self
                .shared
                .durable
                .lock()
                .unwrap_or_else(|p| p.into_inner());
            d.crashed = true;
        }
        self.shared.stopped.store(true, Ordering::Release);
        self.shared.queue_cv.notify_all();
        self.shared.durable_cv.notify_all();
        for shard in &self.shared.shards {
            shard.lock_cv.notify_all();
        }
        for t in std::mem::take(&mut self.threads) {
            let _ = t.join();
        }
        let d = self
            .shared
            .durable
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        if let Some(e) = &d.failure {
            return Err(e.clone());
        }
        Ok(())
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        let _ = self.stop(false);
    }
}

impl Auditable for Engine {
    /// Cross-checks the engine's shared bookkeeping: every key and undo
    /// entry lives on the shard its hash names, undo lists belong to
    /// transactions the owning shard's lock manager knows (and to live
    /// txn-table entries that touched that shard), each shard's lock
    /// manager passes its own audit, a quiesced engine holds no locks,
    /// queued LSNs are dense, queue byte accounting matches, written
    /// pages sit at or above the watermark, and outstanding-commit
    /// accounting balances.
    fn audit(&self) -> std::result::Result<(), AuditViolation> {
        self.shared.audit_now()
    }
}

/// A per-client handle onto a shared [`Engine`] — the paper's "terminal"
/// issuing transactions (§5). Cloneable and `Send`; one per OS thread.
#[derive(Debug, Clone)]
pub struct Session {
    shared: Arc<Shared>,
}

impl Session {
    /// Begins a transaction: allocates its id from the atomic counter and
    /// registers it in the transaction table. No shard lock is taken and
    /// nothing is logged (§5.2: nothing global sits on the transaction
    /// hot path). Per-shard lock-manager registration happens lazily, on
    /// the first lock the transaction takes there. A stopped engine refuses.
    pub fn begin(&self) -> Result<Txn> {
        self.shared.refuse_if_stopped()?;
        let id = self.shared.alloc_txn();
        self.shared.txns.register(id)?;
        self.shared.metrics.begins.inc();
        self.shared.metrics.trace(TraceStage::Begin, id, 0, 0);
        Ok(Txn(id))
    }

    /// Reads a key's current record without locking — the latest image,
    /// which may belong to an uncommitted writer. Use
    /// [`get_for_update`](Session::get_for_update) for an isolated read.
    pub fn get(&self, key: u64) -> Result<Option<Record>> {
        self.shared.get(key)
    }

    /// Reads a key's record under an exclusive lock (read-modify-write
    /// without upgrade deadlocks). If the previous holder is
    /// pre-committed, the lock is granted instead of blocking: `txn` can
    /// only commit behind that holder in LSN order, so it is never durable
    /// before it (§5.2's commit dependency, kept by the LSN prefix).
    pub fn get_for_update(&self, txn: &Txn, key: u64) -> Result<Option<Record>> {
        Ok(self.lock_key(txn.0, key, true)?.db.get(&key).cloned())
    }

    /// Writes `key := value` under an exclusive lock: the shard swaps its
    /// pointer and keeps the old record as the undo pre-image. Nothing is
    /// logged — the value reaches the log at pre-commit, if the
    /// transaction gets there, and only its last value per key (§5.4).
    pub fn put(&self, txn: &Txn, key: u64, value: Record) -> Result<()> {
        if value.len() > MAX_RECORD_BYTES {
            return Err(Error::TupleTooLarge(value.len()));
        }
        // `lock_key` validated the transaction as active under this
        // shard's lock, so the write cannot race an abort's rollback.
        self.lock_key(txn.0, key, true)?.write(txn.0, key, value);
        Ok(())
    }

    /// [`get`](Session::get) through the 8-byte view.
    pub fn read(&self, key: u64) -> Result<Option<i64>> {
        word_of(key, self.get(key)?)
    }

    /// Reads a key under a shared lock, through the 8-byte view.
    pub fn read_shared(&self, txn: &Txn, key: u64) -> Result<Option<i64>> {
        let record = self.lock_key(txn.0, key, false)?.db.get(&key).cloned();
        word_of(key, record)
    }

    /// [`get_for_update`](Session::get_for_update) through the 8-byte
    /// view.
    pub fn read_for_update(&self, txn: &Txn, key: u64) -> Result<Option<i64>> {
        word_of(key, self.get_for_update(txn, key)?)
    }

    /// [`put`](Session::put) of `value` as an 8-byte little-endian
    /// record.
    pub fn write(&self, txn: &Txn, key: u64, value: i64) -> Result<()> {
        self.put(txn, key, Arc::new(value.to_le_bytes()))
    }

    /// Commits `txn` with the paper's pre-commit protocol: locks are
    /// released to waiters *before* the commit record is durable. A
    /// waiter's own commit record queues behind this one, so it is never
    /// durable first. Under [`CommitPolicy::Synchronous`]
    /// this also waits for durability; grouped policies return
    /// immediately with a ticket for [`wait_durable`]. A ticket nobody
    /// waits on becomes durable with the next group, or within
    /// [`EngineOptions::flush_interval`] plus a page write.
    ///
    /// [`wait_durable`]: Session::wait_durable
    pub fn commit(&self, txn: Txn) -> Result<CommitTicket> {
        let sync = matches!(self.shared.options.policy, CommitPolicy::Synchronous);
        self.commit_with(txn, sync)
    }

    /// Commits and waits for durability regardless of policy.
    pub fn commit_durable(&self, txn: Txn) -> Result<CommitTicket> {
        self.commit_with(txn, true)
    }

    /// Moves an active transaction into `next` (Precommitted or Aborting)
    /// and returns its meta. The claim only succeeds against the mask it
    /// read, so lock traffic racing in through a stale Copy of the handle
    /// either lands before the claim (retried with the grown mask) or
    /// fails its own validation after it.
    fn claim(&self, id: TxnId, next: TxnPhase) -> Result<TxnMeta> {
        loop {
            match self.shared.txns.get(id)? {
                Some(meta) if meta.phase == TxnPhase::Active => {
                    if self.shared.txns.claim(id, meta.mask, next)? {
                        return Ok(meta);
                    }
                }
                _ => return Err(Error::InvalidTransaction(id.0)),
            }
        }
    }

    /// Pre-commits `txn` and logs it — the one place user data enters the
    /// log: one redo [`LogRecord::Put`] per distinct key it wrote (the
    /// shard's current record, shared) and the commit record, in a single
    /// append. With `wait`, the commit record is queued as one somebody
    /// is blocked on and this blocks until it is durable.
    fn commit_with(&self, txn: Txn, wait: bool) -> Result<CommitTicket> {
        let id = txn.0;
        let meta = self.claim(id, TxnPhase::Precommitted)?;
        let mask = meta.mask;
        // Lock every touched shard (ascending) and pre-commit on each:
        // locks are released to waiters. The log is appended while the
        // guards are still held, which queues commit records in precommit
        // order — a waiter's commit LSN above this one's — and same-key
        // redo records in value order (see `Shared::append`).
        let mut guards = self.shared.lock_mask(mask)?;
        let mut redo: Vec<LogRecord> = Vec::new();
        let held_us = meta.locked_at.map(us_since);
        for (i, state) in guards.iter_mut() {
            // The mask may overestimate (a failed acquire still sets the
            // bit); `release` is false on shards that never registered the
            // transaction. Pre-commit is the release point (§5.2): the hold
            // histogram measures first-acquisition → here.
            if state.locks.release(id) {
                if let (Some(us), Some(h)) = (held_us, self.shared.metrics.lock_hold_us.get(*i)) {
                    h.record(us);
                }
            }
            redo.extend(
                state
                    .redo_image(id)
                    .into_iter()
                    .map(|(key, new)| LogRecord::Put { txn: id, key, new }),
            );
        }
        self.shared
            .metrics
            .trace(TraceStage::Precommit, id, 0, mask);
        let run = redo.len() as u64;
        let lsn = self.shared.append(id, redo, mask, wait)?;
        // Undo entries survive pre-commit, stamped with the run: they are
        // dropped only once the commit record is durable (the writer's
        // finalize, which needs these guards); until then the stamp tells
        // the checkpoint sweeper whether the writes are durable and where
        // replay must start if they are not.
        let logged = Some((lsn.0.saturating_sub(run), lsn.0));
        for (_, state) in guards.iter_mut() {
            if let Some(list) = state.undo.get_mut(&id) {
                list.logged = logged;
            }
        }
        self.shared.metrics.commits.inc();
        drop(guards);
        // Pre-commit released this transaction's locks: wake waiters.
        self.shared.notify_shards(mask);
        let ticket = CommitTicket { txn: id, lsn };
        if wait {
            self.await_durable(&ticket)?;
        }
        Ok(ticket)
    }

    /// Blocks until the ticket's transaction is durable (its page and
    /// every earlier page on disk). The wait is announced on the queue
    /// first, so a record still queued leaves with the next group — at
    /// once if the previous one left a [`crate::GROUP_WINDOW`] ago and a
    /// log device is free — instead of waiting out
    /// [`EngineOptions::flush_interval`] from its own arrival.
    pub fn wait_durable(&self, ticket: &CommitTicket) -> Result<()> {
        // `queue` is taken and released before `durable`: the lock order.
        self.shared.raise_demand(ticket.lsn.0, false)?;
        self.await_durable(ticket)
    }

    /// The wait itself, for a ticket whose demand is already raised.
    fn await_durable(&self, ticket: &CommitTicket) -> Result<()> {
        let mut d = self.shared.durable_guard()?;
        loop {
            if d.durable_lsn >= ticket.lsn.0 {
                return Ok(());
            }
            if let Some(e) = &d.failure {
                return Err(e.clone());
            }
            if d.crashed {
                return Err(Error::Shutdown);
            }
            d = self
                .shared
                .durable_cv
                .wait(d)
                .map_err(|_| Error::Poisoned("durable table".into()))?;
        }
    }

    /// True once the ticket's transaction is durable.
    pub fn is_durable(&self, ticket: &CommitTicket) -> Result<bool> {
        Ok(self.shared.durable_guard()?.durable_lsn >= ticket.lsn.0)
    }

    /// Aborts `txn`: undoes its writes from the undo list (reverse
    /// order) and releases its locks. The log never hears of it. Fails
    /// with [`Error::InvalidTransaction`] if `txn` is not active — in
    /// particular, aborting a stale copy of an already-committed handle
    /// must not roll back the pre-committed transaction's writes, whose
    /// undo lists survive until its commit is durable.
    pub fn abort(&self, txn: Txn) -> Result<()> {
        self.abort_by_id(txn.0)
    }

    /// The abort path shared by [`Session::abort`] and deadlock-victim
    /// cleanup: claim the transaction (Active → Aborting), lock every
    /// touched shard in ascending order, roll each back in reverse write
    /// order, and retire the txn-table entry.
    fn abort_by_id(&self, txn: TxnId) -> Result<()> {
        let mask = self.claim(txn, TxnPhase::Aborting)?.mask;
        for (_, state) in self.shared.lock_mask(mask)?.iter_mut() {
            rollback_shard(state, txn);
        }
        let _ = self.shared.txns.remove(txn);
        self.shared.metrics.aborts.inc();
        self.shared.notify_shards(mask);
        Ok(())
    }

    /// The §5.1 banking transaction: moves `amount` from one account to
    /// another under exclusive locks and commits (two 8-byte puts and a
    /// commit record). Returns the commit ticket; on lock failure the
    /// transaction is rolled back and the error surfaced.
    pub fn transfer(&self, from: u64, to: u64, amount: i64) -> Result<CommitTicket> {
        let txn = self.begin()?;
        let result = (|| {
            let src = self.read_for_update(&txn, from)?.unwrap_or(0);
            self.write(&txn, from, src - amount)?;
            let dst = self.read_for_update(&txn, to)?.unwrap_or(0);
            self.write(&txn, to, dst + amount)?;
            self.commit(txn)
        })();
        if result.is_err() {
            let _ = self.abort(txn);
        }
        result
    }

    /// A point-in-time copy of every key and record in the store (the
    /// records shared, not copied), merged across shards (each shard
    /// locked one at a time, so the copy is per-shard consistent, not
    /// globally so). The SQL front
    /// end uses this after [`Engine::recover`] to rebuild its volatile
    /// catalog from the durable image (§5.2: post-crash state is
    /// exactly the committed log replayed into memory).
    pub fn snapshot_kv(&self) -> Result<Vec<(u64, Record)>> {
        let mut out = Vec::new();
        for shard in &self.shared.shards {
            out.extend(shard.guard()?.db.iter().map(|(k, v)| (*k, Arc::clone(v))));
        }
        Ok(out)
    }

    /// Acquires a lock on `key` for `txn` on the owning shard, waiting
    /// (bounded) on conflicts and aborting `txn` if global deadlock
    /// detection picks it as the victim. Returns the shard guard so
    /// callers read/write the store under the same critical section.
    fn lock_key(
        &self,
        txn: TxnId,
        key: u64,
        exclusive: bool,
    ) -> Result<MutexGuard<'_, ShardState>> {
        let si = self.shared.shard_of(key);
        // Mark the shard touched *before* acquiring: a concurrent claim
        // (commit or abort through a stale Copy of the handle) either
        // sees the bit and visits this shard, or flips the phase first
        // and the validation below rejects this operation.
        self.shared.txns.touch(txn, si)?;
        let shard = self.shared.shard(key)?;
        let deadline = Instant::now() + self.shared.options.lock_wait_timeout;
        // Wait timing starts at the first conflict, so uncontended
        // acquisitions don't flood the histogram's zero bucket.
        let mut wait_started: Option<Instant> = None;
        let mut state = shard.guard()?;
        loop {
            // Re-validate under the shard lock on every iteration: an
            // abort that claimed the transaction rolls this shard back
            // under this same lock, so post-claim lock traffic must not
            // slip in behind the rollback.
            match self.shared.txns.get(txn)? {
                Some(m) if m.phase == TxnPhase::Active => {}
                _ => return Err(Error::InvalidTransaction(txn.0)),
            }
            state.locks.begin(txn);
            let attempt = if exclusive {
                state.locks.acquire(txn, key)
            } else {
                state.locks.acquire_shared(txn, key)
            };
            match attempt {
                Ok(()) => {
                    if let (Some(started), Some(h)) =
                        (wait_started, self.shared.metrics.lock_wait_us.get(si))
                    {
                        h.record(us_since(started));
                    }
                    return Ok(state);
                }
                Err(Error::LockConflict { .. }) => {
                    wait_started.get_or_insert_with(Instant::now);
                    // Deadlock detection is global: a cycle can span
                    // shards, so the edges of every shard are merged
                    // (shards locked one at a time — this one's guard is
                    // dropped first, respecting the ascending order).
                    drop(state);
                    if self.global_victims()?.contains(&txn) {
                        // The victim's abort rides the ordinary abort
                        // path (bumping the abort counter first), then
                        // the per-shard deadlock counter attributes it
                        // to the shard it was waiting on.
                        if self.abort_by_id(txn).is_ok() {
                            if let Some(c) = self.shared.metrics.deadlock_aborts.get(si) {
                                c.inc();
                            }
                        }
                        return Err(Error::TransactionAborted(txn.0));
                    }
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(Error::LockConflict {
                            txn: txn.0,
                            object: format!("key {key}"),
                        });
                    }
                    // Cap each wait so parked transactions re-run
                    // deadlock detection even if no one wakes them.
                    let wait = (deadline - now).min(Duration::from_millis(10));
                    let (guard, _) = shard
                        .lock_cv
                        .wait_timeout(shard.guard()?, wait)
                        .map_err(|_| Error::Poisoned("shard state".into()))?;
                    state = guard;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Merges every shard's waits-for edges (shards locked one at a
    /// time, ascending) and runs cycle detection over the union — a
    /// cross-shard §5.2 deadlock is invisible to any single partition.
    /// The merge is not one consistent snapshot, so a reported victim
    /// can be phantom; aborting one costs a retry, never correctness.
    fn global_victims(&self) -> Result<Vec<TxnId>> {
        let mut edges = Vec::new();
        for shard in &self.shared.shards {
            edges.extend(shard.guard()?.locks.waits_for_edges());
        }
        Ok(detect_deadlocks_in(&edges))
    }
}

/// The 8-byte view of a record: a little-endian `i64`. A record of any
/// other length under `key` was written through [`Session::put`] by
/// someone else; reading it as a number would be a silent lie.
fn word_of(key: u64, record: Option<Record>) -> Result<Option<i64>> {
    record
        .map(|r| {
            <[u8; 8]>::try_from(r.as_ref())
                .map(i64::from_le_bytes)
                .map_err(|_| {
                    Error::Internal(format!(
                        "key {key} holds a {}-byte record, not an 8-byte value",
                        r.len()
                    ))
                })
        })
        .transpose()
}

/// The `*.log` device files under `dir`, sorted by name.
pub(crate) fn log_files(dir: &Path) -> Result<Vec<std::path::PathBuf>> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| Error::Io(format!("read {}: {e}", dir.display())))?;
    let mut paths: Vec<std::path::PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "log"))
        .collect();
    paths.sort();
    Ok(paths)
}

/// Device file name for log generation `generation`, device `index`.
/// Generation 0 (a fresh start's live log) uses the plain
/// `wal-d{i}.log`; every later generation — the live log of a restarted
/// engine, or a §5.3 checkpoint image — is `wal-gen{g}-d{i}.log`, so no
/// writer ever opens (and truncates) a file it may still need.
pub(crate) fn device_file_name(generation: u64, index: usize) -> String {
    if generation == 0 {
        format!("wal-d{index}.log")
    } else {
        format!("wal-gen{generation}-d{index}.log")
    }
}

/// Creates (truncating) device `index` of log generation `generation`:
/// a live log device, or — as device 0 — a checkpoint image. A device
/// with a configured [`mmdb_recovery::FaultPlan`] writes through a
/// fault-injecting backend (testing and the torture harness), so the
/// plan applies to every file opened under its index, image included;
/// each file counts its operations from zero.
pub(crate) fn open_device(
    options: &EngineOptions,
    generation: u64,
    index: usize,
) -> Result<WalDevice> {
    let path = options.log_dir.join(device_file_name(generation, index));
    let plan = options.fault_plan(index);
    let latency = options.page_write_latency;
    if plan.is_empty() {
        return WalDevice::create(&path, options.page_bytes, latency);
    }
    let backend = mmdb_recovery::FaultyBackend::create(&path, plan)?;
    Ok(WalDevice::with_backend(
        Box::new(backend),
        &path,
        options.page_bytes,
        latency,
    ))
}

#[cfg(test)]
mod tests {
    //! §5.4 on the live engine: what reaches the log, and when.

    use super::*;
    use mmdb_recovery::wal::read_log_file;
    use std::sync::{Arc, Barrier};

    fn options(name: &str) -> EngineOptions {
        let dir =
            std::env::temp_dir().join(format!("mmdb-session-engine-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        EngineOptions::new(CommitPolicy::Group, dir)
    }

    fn commit_durable(s: &Session, writes: &[(u64, i64)]) -> CommitTicket {
        let t = s.begin().unwrap();
        for (key, value) in writes {
            s.write(&t, *key, *value).unwrap();
        }
        s.commit_durable(t).unwrap()
    }

    /// Runs `f` on its own thread and fails, instead of hanging the test
    /// run, if it has not finished within `limit`.
    fn within<T: Send + 'static>(limit: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
        let worker = std::thread::spawn(f);
        let started = Instant::now();
        while !worker.is_finished() {
            assert!(started.elapsed() < limit, "still running after {limit:?}");
            std::thread::sleep(Duration::from_millis(1));
        }
        worker.join().unwrap()
    }

    /// The threads an engine owns are its log writers and, when asked
    /// for, the checkpointer — nothing stands between a session and the
    /// writer of its page.
    #[test]
    fn an_engine_owns_one_thread_per_log_device_plus_the_checkpointer() {
        for policy in [
            CommitPolicy::Synchronous,
            CommitPolicy::Group,
            CommitPolicy::Partitioned { devices: 3 },
        ] {
            for sweeper in [false, true] {
                let mut opts = options("threads");
                opts.policy = policy;
                if sweeper {
                    opts = opts.with_checkpoint_interval(Duration::from_secs(30));
                }
                let engine = Engine::start(opts.clone()).unwrap();
                assert_eq!(
                    engine.threads.len(),
                    policy.devices() + usize::from(sweeper),
                    "{policy:?}, checkpointer {sweeper}"
                );
                engine.shutdown().unwrap();
                std::fs::remove_dir_all(&opts.log_dir).ok();
            }
        }
    }

    /// A transaction longer than a page leaves as one group: the writer
    /// that cuts its first page cuts its tail too, rather than closing
    /// the group window on it.
    #[test]
    fn a_three_page_transaction_is_one_group_not_three_windows() {
        let mut opts = options("three-pages").with_flush_interval(Duration::from_secs(30));
        opts.page_bytes = 58; // two 8-byte puts
        let engine = Engine::start(opts.clone()).unwrap();
        let s = engine.session();
        within(Duration::from_secs(10), move || {
            commit_durable(&s, &[(1, 1), (2, 2), (3, 3), (4, 4), (5, 5)])
        });
        assert_eq!(engine.pages_written().unwrap(), 3);
        engine.shutdown().unwrap();
        std::fs::remove_dir_all(&opts.log_dir).ok();
    }

    /// Whichever writer is free takes the next page, so how back-to-back
    /// commits split between two devices is up to timing; together the
    /// two device files hold every one of them.
    #[test]
    fn two_device_files_together_hold_every_back_to_back_commit() {
        let mut opts = options("two-files");
        opts.policy = CommitPolicy::Partitioned { devices: 2 };
        let engine = Engine::start(opts.clone()).unwrap();
        let s = engine.session();
        within(Duration::from_secs(10), move || {
            for i in 0..20 {
                commit_durable(&s, &[(i, 1)]);
            }
        });
        assert_eq!(engine.pages_written().unwrap(), 20);
        let commits: usize = ["wal-d0.log", "wal-d1.log"]
            .iter()
            .map(|device| {
                read_log_file(&opts.log_dir.join(device))
                    .unwrap()
                    .iter()
                    .filter(|(_, rec)| matches!(rec, LogRecord::Commit { .. }))
                    .count()
            })
            .sum();
        assert_eq!(commits, 20);
        engine.shutdown().unwrap();
        std::fs::remove_dir_all(&opts.log_dir).ok();
    }

    /// Shutdown drains pages parked for a writer, not only the queue: the
    /// writer that cuts the remainder parks every other page for a device
    /// that must not have left yet.
    #[test]
    fn shutdown_writes_pages_parked_for_the_other_device() {
        let mut opts = options("parked")
            .with_flush_interval(Duration::from_secs(30))
            .with_page_write_latency(Duration::from_millis(20));
        opts.policy = CommitPolicy::Partitioned { devices: 2 };
        // One transaction (two puts and a commit record, 78 bytes) per
        // page; the fifth is a partial page nobody waits on.
        opts.page_bytes = 100;
        let engine = Engine::start(opts.clone()).unwrap();
        let s = engine.session();
        let mut txns = Vec::new();
        for i in 0..5u64 {
            let t = s.begin().unwrap();
            s.write(&t, 2 * i, 1).unwrap();
            s.write(&t, 2 * i + 1, 1).unwrap();
            txns.push(s.commit(t).unwrap().txn);
        }
        within(Duration::from_secs(10), move || engine.shutdown().unwrap());
        let (engine, info) = Engine::recover(opts.clone()).unwrap();
        assert_eq!(info.committed, txns);
        assert_eq!(info.records_replayed, 10);
        engine.shutdown().unwrap();
        std::fs::remove_dir_all(&opts.log_dir).ok();
    }

    #[test]
    fn abort_and_a_deadlock_victim_leave_the_log_byte_identical() {
        let opts = options("abort-bytes");
        let log = opts.log_dir.join("wal-d0.log");
        let engine = Engine::start(opts.clone()).unwrap();
        let s = engine.session();
        commit_durable(&s, &[(1, 10), (2, 20)]);
        let bytes_before = std::fs::read(&log).unwrap();
        let records_before = read_log_file(&log).unwrap().len();

        let t = s.begin().unwrap();
        s.write(&t, 1, 11).unwrap();
        s.write(&t, 3, 30).unwrap();
        s.abort(t).unwrap();

        // Two transactions take keys 1 and 2 in opposite orders: the
        // detector aborts one, the other gets its lock and rolls back.
        let barrier = Arc::new(Barrier::new(2));
        let clients: Vec<_> = [(1u64, 2u64), (2, 1)]
            .into_iter()
            .map(|(first, second)| {
                let s = engine.session();
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let t = s.begin().unwrap();
                    s.write(&t, first, -1).unwrap();
                    barrier.wait();
                    match s.write(&t, second, -2) {
                        Ok(()) => {
                            s.abort(t).unwrap();
                            false
                        }
                        Err(Error::TransactionAborted(_)) => true,
                        Err(e) => panic!("unexpected {e}"),
                    }
                })
            })
            .collect();
        let victims = clients
            .into_iter()
            .map(|c| c.join().unwrap())
            .filter(|victim| *victim)
            .count();
        assert_eq!(victims, 1, "exactly one deadlock victim");
        assert_eq!(engine.read(1).unwrap(), Some(10));
        assert_eq!(engine.read(2).unwrap(), Some(20));
        assert_eq!(std::fs::read(&log).unwrap(), bytes_before);

        // Nor is anything of theirs waiting in the queue: the next
        // commit's page holds that commit alone.
        commit_durable(&s, &[(4, 40)]);
        let records = read_log_file(&log).unwrap();
        assert!(
            matches!(
                &records[records_before..],
                [
                    (_, LogRecord::Put { key: 4, .. }),
                    (_, LogRecord::Commit { .. })
                ]
            ),
            "{:?}",
            &records[records_before..]
        );
        engine.audit().unwrap();
        engine.shutdown().unwrap();
        std::fs::remove_dir_all(&opts.log_dir).ok();
    }

    #[test]
    fn a_key_written_three_times_logs_one_put_with_the_last_value() {
        let opts = options("thrice");
        let log = opts.log_dir.join("wal-d0.log");
        let engine = Engine::start(opts.clone()).unwrap();
        let ticket = commit_durable(&engine.session(), &[(7, 1), (8, 80), (7, 2), (7, 3)]);
        let records = read_log_file(&log).unwrap();
        let mut puts: Vec<(u64, i64)> = records
            .iter()
            .filter_map(|(_, rec)| match rec {
                LogRecord::Put { key, new, .. } => {
                    Some((*key, word_of(*key, Some(Record::clone(new))).unwrap()?))
                }
                _ => None,
            })
            .collect();
        puts.sort_unstable();
        assert_eq!(puts, [(7, 3), (8, 80)]);
        assert_eq!(records.len(), 3, "two puts and the commit, one LSN run");
        assert_eq!(
            records.last().map(|(lsn, _)| *lsn),
            Some(ticket.lsn),
            "the commit record closes the run"
        );
        engine.crash().unwrap();
        let (engine, info) = Engine::recover(opts.clone()).unwrap();
        assert_eq!(info.records_replayed, 2);
        assert_eq!(engine.read(7).unwrap(), Some(3));
        assert_eq!(engine.read(8).unwrap(), Some(80));
        engine.shutdown().unwrap();
        std::fs::remove_dir_all(&opts.log_dir).ok();
    }

    /// `begin` takes no lock that knows the engine stopped; a client loop
    /// must still end there, not spin on commits that cannot be logged.
    #[test]
    fn a_stopped_engine_takes_no_new_transactions() {
        for crash in [true, false] {
            let opts = options("stopped");
            let engine = Engine::start(opts.clone()).unwrap();
            let s = engine.session();
            let open = s.begin().unwrap();
            s.write(&open, 1, 1).unwrap();
            if crash {
                engine.crash().unwrap();
            } else {
                engine.shutdown().unwrap();
            }
            assert!(matches!(s.begin(), Err(Error::Shutdown)));
            assert!(matches!(s.commit(open), Err(Error::Shutdown)));
            std::fs::remove_dir_all(&opts.log_dir).ok();
        }
    }

    /// A transaction's redo records can be on disk without its commit
    /// record: here a page boundary falls between them, and the page with
    /// the commit failed its write and is inside the writer's retry
    /// backoff when the engine dies. Redo-only recovery has nothing to
    /// undo — it just never applies a put whose transaction did not
    /// commit in the prefix.
    #[test]
    fn puts_on_disk_without_their_commit_record_are_a_loser() {
        let mut opts = options("cut-commit");
        // Two 8-byte puts (29 accounted bytes each) fill a page; the
        // commit record starts the next one. The first transaction takes
        // writes 0 and 1, the second's puts write 2; its commit record's
        // write 3 fails once, and the retry waits out a long backoff.
        opts.page_bytes = 58;
        let opts = opts
            .with_fault_plans(vec![mmdb_recovery::FaultPlan::none().fail_write(3, 1)])
            .with_io_retry_backoff(Duration::from_secs(30))
            .with_flush_interval(Duration::from_millis(1));
        let engine = Engine::start(opts.clone()).unwrap();
        let s = engine.session();
        let first = commit_durable(&s, &[(1, 10), (2, 20)]);
        assert_eq!(engine.pages_written().unwrap(), 2);

        let t = s.begin().unwrap();
        s.write(&t, 1, 11).unwrap();
        s.write(&t, 2, 21).unwrap();
        let second = s.commit(t).unwrap();
        let waited = Instant::now();
        while engine.pages_written().unwrap() < 3 {
            assert!(waited.elapsed() < Duration::from_secs(5), "puts page");
            std::thread::sleep(Duration::from_micros(200));
        }
        assert!(!engine.is_durable(&second).unwrap());
        engine.crash().unwrap();

        let on_disk = mmdb_recovery::wal::read_log_dir(&opts.log_dir).unwrap();
        assert_eq!(
            on_disk
                .iter()
                .filter(|(_, rec)| rec.txn() == second.txn)
                .count(),
            2,
            "both of its puts are on disk, its commit record is not"
        );
        let (engine, info) = Engine::recover(opts.clone()).unwrap();
        assert_eq!(info.committed, vec![first.txn]);
        assert_eq!(info.losers, vec![second.txn]);
        assert_eq!(info.records_replayed, 2);
        assert_eq!(engine.read(1).unwrap(), Some(10));
        assert_eq!(engine.read(2).unwrap(), Some(20));
        engine.shutdown().unwrap();
        std::fs::remove_dir_all(&opts.log_dir).ok();
    }
}
