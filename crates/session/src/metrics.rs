//! Observability wiring for the session engine (§5.2 instrumented).
//!
//! One [`SessionMetrics`] lives in [`crate::log_writer::Shared`] and owns
//! every handle the engine records through: per-shard lock wait/hold
//! histograms and deadlock-abort counters (the §5.2 lock manager),
//! group-commit batch-size, group-wait and fsync-latency histograms plus the
//! durable-watermark lag gauge (the §5.2 log queue and its writers), and the
//! commit-pipeline [`TraceRing`] (begin → precommit → queued → flushed
//! → durable). Every recording is a handful of relaxed atomics, cheap
//! enough to stay enabled inside shard critical sections and the log
//! writers' fsync loop.
//!
//! Timestamps are microseconds since the engine's `epoch` (its start
//! instant), so trace events across threads order on one clock.

use mmdb_obs::{Counter, Gauge, Histogram, Registry, TraceEvent, TraceRing, TraceStage};
use mmdb_types::TxnId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Every metric handle the session engine records through, plus the
/// registry that renders them. Created once per engine in
/// [`crate::log_writer::Shared::new`].
#[derive(Debug)]
pub(crate) struct SessionMetrics {
    /// The engine's registry ([`crate::Engine::registry`] exposes it).
    pub registry: Arc<Registry>,
    /// The instant `at_us` trace timestamps count from.
    pub epoch: Instant,
    /// Commit-pipeline trace events (fixed capacity, overwrite-oldest).
    pub trace: TraceRing,
    /// Transactions begun.
    pub begins: Arc<Counter>,
    /// Transactions committed (pre-committed; durability may lag).
    pub commits: Arc<Counter>,
    /// Transactions aborted, voluntary and deadlock-victim alike.
    pub aborts: Arc<Counter>,
    /// Log pages durably written (what [`crate::Engine::pages_written`]
    /// reports).
    pub pages_written: Arc<Counter>,
    /// Bytes the log writers put on their devices, frame headers included.
    pub log_bytes: Arc<Counter>,
    /// Deadlock-victim aborts, one counter per shard (indexed by the
    /// shard the victim was waiting on when it lost).
    pub deadlock_aborts: Vec<Arc<Counter>>,
    /// Lock wait time per shard: conflict-to-grant, µs.
    pub lock_wait_us: Vec<Arc<Histogram>>,
    /// Lock hold time per shard: first acquisition to precommit
    /// release, µs (§5.2: pre-commit is what keeps this short).
    pub lock_hold_us: Vec<Arc<Histogram>>,
    /// Begin-to-durable latency per committed transaction, µs.
    pub commit_latency_us: Arc<Histogram>,
    /// Commit records per written log page that carried any — the §5.2
    /// group-commit batching the paper's 1000-tps claim rests on.
    pub batch_txns: Arc<Histogram>,
    /// Commit record queued → its page cut by a writer, µs: the part of
    /// a commit that is not the device.
    pub group_wait_us: Arc<Histogram>,
    /// Wall time of one page write: modeled device latency + real
    /// append-and-sync, retries and their backoff included, µs.
    pub fsync_us: Arc<Histogram>,
    /// Log-device write/sync failures observed by the writer threads
    /// (each failed attempt counts, whether or not a retry saved it).
    pub io_errors: Arc<Counter>,
    /// Retries the writer threads issued after transient I/O errors
    /// (bounded by [`crate::IO_RETRIES`] per page).
    pub io_retries: Arc<Counter>,
    /// Log devices that exhausted their retries and forced the engine
    /// into its fail-stop degraded state (0 on a healthy engine).
    pub degraded: Arc<Gauge>,
    /// Durability lag: highest assigned LSN minus the durable
    /// watermark (§5.2 pre-commit hides exactly this window).
    pub durable_lag: Arc<Gauge>,
    /// Completed §5.3 checkpoint sweeps.
    pub checkpoints: Arc<Counter>,
    /// Wall time of one checkpoint sweep (capture to truncation), µs.
    pub checkpoint_duration_us: Arc<Histogram>,
    /// Log bytes in the newest checkpoint generation.
    pub checkpoint_bytes: Arc<Gauge>,
    /// Recovery lag: live-log LSNs past the newest checkpoint's replay
    /// floor — the §5.3 bound on what a crash right now would replay.
    pub checkpoint_lag: Arc<Gauge>,
    /// Shards freshly re-copied by the last sweep (the rest were clean
    /// and served from the sweeper's settled-image cache).
    pub checkpoint_rewritten: Arc<Gauge>,
    /// Highest LSN handed out by the queue, for the lag gauge.
    pub appended_lsn: AtomicU64,
}

/// Slots in the commit-pipeline trace ring (overwrite-oldest; recording
/// is lock-free regardless of size).
const TRACE_CAPACITY: usize = 1024;

impl SessionMetrics {
    /// Registers the full metric inventory for an engine with `shards`
    /// lock-table shards and a [`TRACE_CAPACITY`]-slot trace ring.
    pub fn new(shards: usize) -> Self {
        let registry = Arc::new(Registry::new());
        let trace = TraceRing::new(TRACE_CAPACITY);
        let begins = registry.counter("mmdb_session_begins_total", "Transactions begun");
        let commits = registry.counter(
            "mmdb_session_commits_total",
            "Transactions committed (pre-commit; durability may lag)",
        );
        let aborts = registry.counter(
            "mmdb_session_aborts_total",
            "Transactions aborted (voluntary and deadlock victims)",
        );
        let pages_written = registry.counter(
            "mmdb_session_pages_written_total",
            "Log pages durably written across all devices",
        );
        let log_bytes = registry.counter(
            "mmdb_session_log_bytes_total",
            "Bytes written to the log devices, page-frame headers included",
        );
        let mut deadlock_aborts = Vec::with_capacity(shards);
        let mut lock_wait_us = Vec::with_capacity(shards);
        let mut lock_hold_us = Vec::with_capacity(shards);
        for i in 0..shards {
            deadlock_aborts.push(registry.counter_labeled(
                "mmdb_session_deadlock_aborts_total",
                "Deadlock-victim aborts by the shard the victim waited on",
                Some(("shard", i.to_string())),
            ));
            lock_wait_us.push(registry.histogram_labeled(
                "mmdb_session_lock_wait_us",
                "Lock wait time per shard (conflict to grant)",
                Some(("shard", i.to_string())),
            ));
            lock_hold_us.push(registry.histogram_labeled(
                "mmdb_session_lock_hold_us",
                "Lock hold time per shard (first acquisition to precommit release)",
                Some(("shard", i.to_string())),
            ));
        }
        let commit_latency_us = registry.histogram(
            "mmdb_session_commit_latency_us",
            "Begin-to-durable latency per committed transaction",
        );
        let batch_txns = registry.histogram(
            "mmdb_session_commit_batch_txns",
            "Commit records per written log page that carried any",
        );
        let group_wait_us = registry.histogram(
            "mmdb_session_group_wait_us",
            "Commit record queued to its page cut by its log writer",
        );
        let fsync_us = registry.histogram(
            "mmdb_session_fsync_us",
            "Page write wall time (modeled latency + append-and-sync)",
        );
        let io_errors = registry.counter(
            "mmdb_session_io_errors_total",
            "Log-device write/sync failures observed by the writer threads",
        );
        let io_retries = registry.counter(
            "mmdb_session_io_retries_total",
            "Writer-thread retries after transient log-device errors",
        );
        let degraded = registry.gauge(
            "mmdb_session_degraded_count",
            "Log devices that failed permanently (fail-stop degraded state)",
        );
        let durable_lag = registry.gauge(
            "mmdb_session_durable_lag_lsn",
            "Highest assigned LSN minus the durable watermark",
        );
        let checkpoints = registry.counter(
            "mmdb_session_checkpoints_total",
            "Completed online checkpoint sweeps",
        );
        let checkpoint_duration_us = registry.histogram(
            "mmdb_session_checkpoint_duration_us",
            "Wall time of one checkpoint sweep (capture to truncation)",
        );
        let checkpoint_bytes = registry.gauge(
            "mmdb_session_checkpoint_bytes",
            "Log bytes in the newest checkpoint generation",
        );
        let checkpoint_lag = registry.gauge(
            "mmdb_session_checkpoint_lag_lsn",
            "Live-log LSNs past the newest checkpoint's replay floor",
        );
        let checkpoint_rewritten = registry.gauge(
            "mmdb_session_checkpoint_rewritten_count",
            "Shards freshly re-copied by the last checkpoint sweep",
        );
        SessionMetrics {
            registry,
            epoch: Instant::now(),
            trace,
            begins,
            commits,
            aborts,
            pages_written,
            log_bytes,
            deadlock_aborts,
            lock_wait_us,
            lock_hold_us,
            commit_latency_us,
            batch_txns,
            group_wait_us,
            fsync_us,
            io_errors,
            io_retries,
            degraded,
            durable_lag,
            checkpoints,
            checkpoint_duration_us,
            checkpoint_bytes,
            checkpoint_lag,
            checkpoint_rewritten,
            appended_lsn: AtomicU64::new(0),
        }
    }

    /// Microseconds since the engine's epoch (saturating).
    pub fn now_us(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Records one commit-pipeline trace event at the current instant.
    pub fn trace(&self, stage: TraceStage, txn: TxnId, lsn: u64, shard_mask: u64) {
        self.trace
            .record(stage, txn.0, lsn, shard_mask, self.now_us());
    }

    /// The current trace contents, oldest first.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.trace.snapshot()
    }

    /// Raises the highest-assigned-LSN watermark used by the lag gauge.
    pub fn note_appended_lsn(&self, lsn: u64) {
        // ordering: monotonic watermark feeding a gauge; LSN assignment
        // itself is serialized by the queue lock, not this atomic.
        self.appended_lsn.fetch_max(lsn, Ordering::Relaxed);
    }

    /// Recomputes the durable-lag gauge against a new durable LSN.
    pub fn update_durable_lag(&self, durable_lsn: u64) {
        // ordering: a slightly stale watermark only skews the lag gauge
        // by an in-flight append; nothing branches on it.
        let appended = self.appended_lsn.load(Ordering::Relaxed);
        let lag = appended.saturating_sub(durable_lsn);
        self.durable_lag.set(i64::try_from(lag).unwrap_or(i64::MAX));
    }
}

/// Microseconds elapsed since `start` (saturating), for histogram
/// recording at call sites that hold their own `Instant`.
pub(crate) fn us_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inventory_registers_per_shard_families() {
        let m = SessionMetrics::new(4);
        assert_eq!(m.deadlock_aborts.len(), 4);
        assert_eq!(m.lock_wait_us.len(), 4);
        assert_eq!(m.lock_hold_us.len(), 4);
        let names = m.registry.metric_names();
        assert!(names.iter().any(|n| n == "mmdb_session_commits_total"));
        assert!(names
            .iter()
            .any(|n| n == "mmdb_session_lock_wait_us{shard=\"3\"}"));
        assert!(m.registry.hygiene_violations().is_empty());
    }

    #[test]
    fn durable_lag_tracks_appended_minus_durable() {
        let m = SessionMetrics::new(1);
        m.note_appended_lsn(10);
        m.note_appended_lsn(7); // fetch_max: never regresses
        m.update_durable_lag(4);
        assert_eq!(m.durable_lag.get(), 6);
        m.update_durable_lag(10);
        assert_eq!(m.durable_lag.get(), 0);
        m.update_durable_lag(12); // durable beyond appended saturates at 0
        assert_eq!(m.durable_lag.get(), 0);
    }

    #[test]
    fn trace_carries_the_pipeline_stages() {
        let m = SessionMetrics::new(1);
        m.trace(TraceStage::Begin, TxnId(5), 0, 0);
        m.trace(TraceStage::Durable, TxnId(5), 9, 0b11);
        let events = m.trace_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].stage, TraceStage::Begin);
        assert_eq!(events[1].lsn, 9);
        assert_eq!(events[1].shard_mask, 0b11);
    }
}
