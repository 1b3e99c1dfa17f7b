//! The engine front-end and its session handles (§5.2 made concurrent).
//!
//! An [`Engine`] owns the shared volatile state — the memory-resident
//! store of `u64` keys to byte [`Record`]s, §5.2
//! [`mmdb_recovery::LockManager`] partitions, and undo lists, split by
//! key hash over the [`crate::shard`] shards — plus
//! the log queue, the group-commit daemon, and one writer thread per log
//! device. [`Session`] is the per-client handle: any number may be
//! created and moved to OS threads; all of them funnel commits through
//! the daemon, which batches them per the configured [`CommitPolicy`].
//!
//! The commit path is the paper's pre-commit protocol: `commit` claims
//! the transaction in the [`crate::shard::TxnTable`], locks every shard
//! the transaction touched (ascending), runs `precommit` on each shard's
//! lock manager — releasing the transaction's locks to its waiters and
//! recording the resulting commit dependencies — and queues the commit
//! record *while still holding those shard locks*, which is what keeps
//! commit records in precommit order in the queue. Durability arrives
//! later, when the record's page (and every earlier page) is on disk;
//! [`Session::wait_durable`] blocks for it and a synchronous-policy
//! commit does so before returning. Blocking is also what releases the
//! record: a waiter announces itself to the daemon, which then cuts the
//! record's page as soon as a log device is free and the group window is
//! open (see [`crate::daemon`]).
//!
//! The store's value is a byte record: [`Session::get`],
//! [`Session::get_for_update`] and [`Session::put`] move whole records —
//! one key, one lock, one [`LogRecord::Put`] per write, whatever the
//! length. [`Session::read`], [`Session::read_shared`],
//! [`Session::read_for_update`], [`Session::write`] and
//! [`Session::transfer`] are the same operations seen through an 8-byte
//! little-endian `i64` view, for the §5 banking workloads.

use crate::checkpoint::{self, CheckpointState, CheckpointStats, SweepHalt};
use crate::daemon::{self, CommitInfo, Page, Shared};
use crate::metrics::us_since;
use crate::policy::{CommitPolicy, EngineOptions};
use crate::shard::{rollback_shard, ShardState, TxnPhase, UndoEntry};
use mmdb_obs::{Registry, StatsSnapshot, TraceEvent, TraceStage};
use mmdb_recovery::wal::WalDevice;
use mmdb_recovery::{detect_deadlocks_in, LogRecord, Lsn, Record, MAX_RECORD_BYTES};
use mmdb_types::{AuditViolation, Auditable, Error, Result, TxnId};
use std::collections::HashMap;
use std::path::Path;
use std::sync::mpsc;
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

/// The multi-threaded engine front-end: shared state, the group-commit
/// daemon, and one log-writer thread per device (§5.2).
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
        let devices = open_devices(&options, 0)?;
        Engine::start_with(options, HashMap::new(), 1, 1, devices, 0)
    }

    /// Starts the threads around an initial image — shared by [`start`]
    /// (empty image) and [`recover`] (replayed image). The caller opens
    /// the devices: `recover` writes its compaction snapshot to them
    /// first and hands over the *same* handles, so nothing here may
    /// reopen (and truncate) the files.
    ///
    /// [`start`]: Engine::start
    /// [`recover`]: Engine::recover
    pub(crate) fn start_with(
        options: EngineOptions,
        db: HashMap<u64, Record>,
        next_txn: u64,
        next_lsn: u64,
        devices: Vec<WalDevice>,
        live_generation: u64,
    ) -> Result<Engine> {
        let shared = Arc::new(Shared::new(options, db, next_txn, next_lsn));
        let mut threads = Vec::new();
        let mut senders: Vec<mpsc::Sender<Page>> = Vec::new();
        for (i, device) in devices.into_iter().enumerate() {
            let (tx, rx) = mpsc::channel();
            senders.push(tx);
            let shared_w = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("mmdb-log-writer-{i}"))
                .spawn(move || daemon::run_writer(shared_w, rx, device, i))
                .map_err(|e| Error::Io(format!("spawn writer {i}: {e}")))?;
            threads.push(handle);
        }
        let shared_d = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("mmdb-commit-daemon".into())
            .spawn(move || daemon::run_daemon(shared_d, senders))
            .map_err(|e| Error::Io(format!("spawn daemon: {e}")))?;
        threads.push(handle);
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
    /// marker-carrying snapshot to a fresh log generation, and truncates
    /// superseded generations once it is durably complete. Commit
    /// traffic proceeds throughout; recovery afterwards replays only the
    /// live-log suffix past the returned replay floor.
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
        Ok(self.shared.durable_guard()?.pages_written)
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
        // The stop flags must land even if a daemon panicked holding a
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
    /// Begins a transaction: allocates its id from the atomic counter,
    /// registers it in the transaction table, and queues its begin
    /// record — no shard lock is taken (§5.2: nothing global sits on the
    /// transaction hot path). Per-shard lock-manager registration
    /// happens lazily, on the first lock the transaction takes there.
    pub fn begin(&self) -> Result<Txn> {
        let id = self.shared.alloc_txn();
        self.shared.txns.register(id)?;
        match self
            .shared
            .append(vec![(LogRecord::Begin { txn: id }, None)], false)
        {
            Ok(lsn) => {
                self.shared.metrics.begins.inc();
                self.shared.metrics.trace(TraceStage::Begin, id, lsn.0, 0);
                Ok(Txn(id))
            }
            Err(e) => {
                let _ = self.shared.txns.remove(id);
                Err(e)
            }
        }
    }

    /// Reads a key's current record without locking — the latest image,
    /// which may belong to an uncommitted writer. Use
    /// [`get_for_update`](Session::get_for_update) for an isolated read.
    pub fn get(&self, key: u64) -> Result<Option<Record>> {
        self.shared.get(key)
    }

    /// Reads a key's record under an exclusive lock (read-modify-write
    /// without upgrade deadlocks). If the previous holder is
    /// pre-committed, the lock is granted and `txn` picks up a §5.2
    /// commit dependency on it instead of blocking.
    pub fn get_for_update(&self, txn: &Txn, key: u64) -> Result<Option<Record>> {
        Ok(self.lock_key(txn.0, key, true)?.db.get(&key).cloned())
    }

    /// Writes `key := value` under an exclusive lock and logs one
    /// [`LogRecord::Put`] carrying the old and new records. The store,
    /// the undo entry and the queued log record share the two
    /// allocations; nothing is copied.
    pub fn put(&self, txn: &Txn, key: u64, value: Record) -> Result<()> {
        if value.len() > MAX_RECORD_BYTES {
            return Err(Error::TupleTooLarge(value.len()));
        }
        // `lock_key` validated the transaction as active under this
        // shard's lock, so the write cannot race an abort's rollback.
        let mut state = self.lock_key(txn.0, key, true)?;
        let old = state.db.get(&key).cloned();
        // Appended while the owning shard is locked: updates of the same
        // key reach the queue in the order their values were applied. The
        // append happens *before* the shard mutates so a failed append
        // (shutdown/poison) leaves nothing to roll back, and the record's
        // LSN can stamp the undo entry — the checkpoint sweeper uses that
        // stamp both to back out entries in reverse application order and
        // as the replay floor for the log suffix.
        let lsn = self.shared.append(
            vec![(
                LogRecord::Put {
                    txn: txn.0,
                    key,
                    old: old.clone(),
                    new: Arc::clone(&value),
                },
                None,
            )],
            false,
        )?;
        state.undo.entry(txn.0).or_default().push(UndoEntry {
            key,
            old,
            lsn: lsn.0,
        });
        state.db.insert(key, value);
        state.dirty = true;
        drop(state);
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
    /// released (to waiters, who pick up commit dependencies) *before*
    /// the commit record is durable. Under [`CommitPolicy::Synchronous`]
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

    /// Pre-commits `txn`; with `wait`, queues the commit record as one
    /// somebody is blocked on and blocks until it is durable.
    fn commit_with(&self, txn: Txn, wait: bool) -> Result<CommitTicket> {
        let id = txn.0;
        // Claim the transaction (Active → Precommitted). The claim only
        // succeeds against the mask we read, so lock traffic racing in
        // through a stale Copy of the handle either lands before the
        // claim (we retry with the grown mask) or fails its own
        // validation after it.
        let meta = loop {
            let Some(meta) = self.shared.txns.get(id)? else {
                return Err(Error::InvalidTransaction(id.0));
            };
            if meta.phase != TxnPhase::Active {
                return Err(Error::InvalidTransaction(id.0));
            }
            if self
                .shared
                .txns
                .claim(id, meta.mask, TxnPhase::Precommitted)?
            {
                break meta;
            }
        };
        let mask = meta.mask;
        // Lock every touched shard (ascending) and pre-commit on each:
        // locks are released to waiters, who inherit §5.2 commit
        // dependencies. The commit record is appended while the guards
        // are still held — dependencies arise only through shared keys,
        // hence shared shards, so this queues commit records in
        // precommit order (see `Shared::append`).
        let mut guards = self.shared.lock_mask(mask)?;
        let mut deps: Vec<TxnId> = Vec::new();
        let held_us = meta.locked_at.map(us_since);
        for (i, state) in guards.iter_mut() {
            // The mask may overestimate (a failed acquire still sets the
            // bit); skip shards that never registered the transaction.
            if state.locks.is_active(id) {
                deps.extend(state.locks.precommit(id)?);
                // Pre-commit is the release point (§5.2): the hold
                // histogram measures first-acquisition → here.
                if let (Some(us), Some(h)) = (held_us, self.shared.metrics.lock_hold_us.get(*i)) {
                    h.record(us);
                }
            }
            // Undo entries survive pre-commit: they are dropped only once
            // the commit record is durable (daemon finalize), so the
            // checkpoint sweeper can treat an empty undo map as "every
            // value in this shard is durably committed".
        }
        deps.sort_unstable_by_key(|t| t.0);
        deps.dedup();
        self.shared
            .metrics
            .trace(TraceStage::Precommit, id, 0, mask);
        let lsn = self.shared.append(
            vec![(
                LogRecord::Commit { txn: id },
                Some(CommitInfo { deps, mask }),
            )],
            wait,
        )?;
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
    /// every earlier page on disk). The wait is announced to the daemon
    /// first, so a record still queued leaves with the next group — at
    /// once if the previous one left an [`EngineOptions::flush_interval`]
    /// ago and a log device is free — instead of waiting out the interval
    /// from its own arrival.
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
    /// order), releases its locks, and queues an abort record. Fails
    /// with [`Error::InvalidTransaction`] if `txn` is not active — in
    /// particular, aborting a stale copy of an already-committed handle
    /// must not reach the lock manager, where it would strip the
    /// pre-committed transaction out of the §5.2 dependency tracking.
    pub fn abort(&self, txn: Txn) -> Result<()> {
        self.abort_by_id(txn.0)
    }

    /// The abort path shared by [`Session::abort`] and deadlock-victim
    /// cleanup: claim the transaction (Active → Aborting), lock every
    /// touched shard in ascending order, roll each back in reverse write
    /// order, queue the abort record (under the guards, so it follows
    /// every update the transaction logged), and retire the txn-table
    /// entry.
    fn abort_by_id(&self, txn: TxnId) -> Result<()> {
        let mask = loop {
            let Some(meta) = self.shared.txns.get(txn)? else {
                return Err(Error::InvalidTransaction(txn.0));
            };
            if meta.phase != TxnPhase::Active {
                return Err(Error::InvalidTransaction(txn.0));
            }
            if self.shared.txns.claim(txn, meta.mask, TxnPhase::Aborting)? {
                break meta.mask;
            }
        };
        let mut guards = self.shared.lock_mask(mask)?;
        for (_, state) in guards.iter_mut() {
            rollback_shard(state, txn);
        }
        let _ = self
            .shared
            .append(vec![(LogRecord::Abort { txn }, None)], false);
        drop(guards);
        let _ = self.shared.txns.remove(txn);
        self.shared.metrics.aborts.inc();
        self.shared.notify_shards(mask);
        Ok(())
    }

    /// The §5.1 banking transaction: moves `amount` from one account to
    /// another under exclusive locks and commits — begin, two 8-byte
    /// puts, commit. Returns the commit ticket; on lock failure the
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
    ///
    /// [`Engine::recover`]: crate::recover::recover
    pub fn snapshot_kv(&self) -> Result<Vec<(u64, Record)>> {
        let mut out = Vec::new();
        for shard in &self.shared.shards {
            out.extend(shard.guard()?.db.iter().map(|(k, v)| (*k, Arc::clone(v))));
        }
        Ok(out)
    }

    /// A point-in-time [`StatsSnapshot`] of the engine's metrics (the
    /// same registry [`Engine::stats`] reads).
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.metrics.registry.snapshot()
    }

    /// The engine's metrics as a Prometheus-style text exposition.
    pub fn render_metrics(&self) -> String {
        self.shared.metrics.registry.render_text()
    }

    /// The commit-pipeline trace events currently held by the ring.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.shared.metrics.trace_events()
    }

    /// The engine's metric [`Registry`].
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.shared.metrics.registry)
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
/// Generation 0 (a fresh start) uses the plain `wal-d{i}.log`; recovery
/// compacts into successive generations (`wal-gen{g}-d{i}.log`) so the
/// snapshot never overwrites the files it is recovering from.
pub(crate) fn device_file_name(generation: u64, index: usize) -> String {
    if generation == 0 {
        format!("wal-d{index}.log")
    } else {
        format!("wal-gen{generation}-d{index}.log")
    }
}

/// Creates one fresh [`WalDevice`] per configured device for the given
/// log generation, honoring per-device latency overrides. A device with
/// a configured [`mmdb_recovery::FaultPlan`] writes through a
/// fault-injecting backend (testing and the torture harness); the plan
/// applies to whichever generation is opened next, which is how the
/// harness faults the compaction write *inside* [`Engine::recover`].
pub(crate) fn open_devices(options: &EngineOptions, generation: u64) -> Result<Vec<WalDevice>> {
    let mut devices = Vec::new();
    for i in 0..options.policy.devices() {
        let path = options.log_dir.join(device_file_name(generation, i));
        let plan = options.fault_plan(i);
        let device = if plan.is_empty() {
            WalDevice::create(&path, options.page_bytes, options.device_latency(i))?
        } else {
            let backend = mmdb_recovery::FaultyBackend::create(&path, plan)?;
            WalDevice::with_backend(
                Box::new(backend),
                &path,
                options.page_bytes,
                options.device_latency(i),
            )
        };
        devices.push(device);
    }
    Ok(devices)
}
