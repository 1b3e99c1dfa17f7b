//! Engine options (§5.2 of the paper).
//!
//! The §5.2 commit policies — synchronous, group commit, partitioned log
//! — are one [`CommitPolicy`] (defined in `mmdb-types`, re-exported here)
//! and one commit core, `mmdb_recovery::commit`, which the virtual-time
//! `RecoveryManager` and this engine's wall-clock log writers both run.
//! [`EngineOptions`] carries the engine's knobs, and with them the
//! core's wall-clock parameters: the page size, [`GROUP_WINDOW`] and
//! [`EngineOptions::flush_interval`].

use crate::shard::MAX_SHARDS;
pub use mmdb_recovery::CommitPolicy;
use mmdb_recovery::FaultPlan;
use std::path::PathBuf;
use std::time::Duration;

/// The group window: a partial page somebody waits on leaves no sooner
/// than this after the previous one. A constant, not the device's pace,
/// which would make the commit rate follow every wobble of the disk's
/// sync time (EXPERIMENTS.md §S1, "Why a window").
pub const GROUP_WINDOW: Duration = Duration::from_micros(500);

/// How many times a writer thread retries a failed page append before
/// declaring the device dead and degrading the engine (§5.2 fail-stop).
pub const IO_RETRIES: u32 = 3;

/// Configuration for a wall-clock [`crate::Engine`].
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// The commit policy (§5.2).
    pub policy: CommitPolicy,
    /// Log page capacity in paper-accounted bytes (the paper's 4096).
    pub page_bytes: usize,
    /// Modeled time for one log-page write: the writer sleeps this long
    /// before each real write. Zero by default — the device's own fsync
    /// is the only cost; a non-zero value models a slow device (the
    /// paper's 10 ms disk, scaled down, keeps the §5.2 ratios).
    pub page_write_latency: Duration,
    /// Directory the log device files live in.
    pub log_dir: PathBuf,
    /// The deadline for commits nobody waits on (§5.2's answer to "what
    /// if the page never fills?"). A partial page nobody is blocked on (a
    /// [`crate::Session::commit`] ticket only polled with `is_durable`)
    /// leaves once its oldest queued *commit* record has waited this long
    /// and a device is free — an absolute deadline that other sessions'
    /// records do not postpone. A partial page somebody *is* blocked on
    /// does not wait for it: it leaves as soon as a device is free and
    /// the [`GROUP_WINDOW`] is open.
    pub flush_interval: Duration,
    /// How long a writer waits on a lock before giving up with a
    /// conflict error (deadlock victims abort much sooner).
    pub lock_wait_timeout: Duration,
    /// Number of lock-table shards the volatile state is split over by
    /// key hash (§5.2 scaling: per-shard mutexes replace the global
    /// state lock). Defaults to the machine's available parallelism;
    /// clamped to `1..=64`.
    pub shards: usize,
    /// Deterministic fault plans, one per log device (device `i` takes
    /// entry `i`; missing or empty entries mean the real, un-faulted
    /// backend). Empty by default — production engines never inject.
    pub fault_plans: Vec<FaultPlan>,
    /// Backoff before the first retry; doubles per attempt, and a crash
    /// cuts it short. Defaults to 1 ms — long enough to ride out a
    /// transient EIO, short enough that tests and the torture harness
    /// stay fast.
    pub io_retry_backoff: Duration,
    /// §5.3 online-checkpoint interval: when set, a background sweeper
    /// thread writes a fuzzy checkpoint this often during live traffic,
    /// bounding recovery's replay work by the interval instead of total
    /// history. `None` (the default) disables the sweeper — recovery
    /// replays the whole live generation, as before.
    pub checkpoint_interval: Option<Duration>,
}

impl EngineOptions {
    /// Options for `policy` logging under `log_dir`, with the paper's
    /// 4096-byte pages, no modeled page-write latency, a 1 ms flush
    /// interval, and a 1 s lock wait.
    pub fn new(policy: CommitPolicy, log_dir: impl Into<PathBuf>) -> Self {
        EngineOptions {
            policy,
            page_bytes: 4096,
            page_write_latency: Duration::ZERO,
            log_dir: log_dir.into(),
            flush_interval: Duration::from_millis(1),
            lock_wait_timeout: Duration::from_secs(1),
            shards: default_shards(),
            fault_plans: Vec::new(),
            io_retry_backoff: Duration::from_millis(1),
            checkpoint_interval: None,
        }
    }

    /// Enables the §5.3 background checkpoint sweeper at the given
    /// interval (see [`EngineOptions::checkpoint_interval`]).
    pub fn with_checkpoint_interval(mut self, interval: Duration) -> Self {
        self.checkpoint_interval = Some(interval);
        self
    }

    /// Installs deterministic per-device fault plans (testing and the
    /// torture harness only; see [`EngineOptions::fault_plans`]).
    pub fn with_fault_plans(mut self, plans: Vec<FaultPlan>) -> Self {
        self.fault_plans = plans;
        self
    }

    /// Sets the initial retry backoff (doubles per attempt).
    pub fn with_io_retry_backoff(mut self, backoff: Duration) -> Self {
        self.io_retry_backoff = backoff;
        self
    }

    /// The fault plan for device `index` (empty when none configured).
    pub fn fault_plan(&self, index: usize) -> FaultPlan {
        self.fault_plans.get(index).cloned().unwrap_or_default()
    }

    /// Sets the modeled page-write latency.
    pub fn with_page_write_latency(mut self, latency: Duration) -> Self {
        self.page_write_latency = latency;
        self
    }

    /// Sets the deadline for commits nobody waits on (see
    /// [`EngineOptions::flush_interval`]).
    pub fn with_flush_interval(mut self, interval: Duration) -> Self {
        self.flush_interval = interval;
        self
    }

    /// Sets the lock-wait timeout.
    pub fn with_lock_wait_timeout(mut self, timeout: Duration) -> Self {
        self.lock_wait_timeout = timeout;
        self
    }

    /// Sets the lock-table shard count (clamped to `1..=64`).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// The effective shard count: the configured value clamped to the
    /// `1..=64` range the shard bit mask supports.
    pub fn shard_count(&self) -> usize {
        self.shards.clamp(1, MAX_SHARDS)
    }
}

/// Default shard count: the machine's available parallelism — the §5.2
/// lock table should scale with the cores driving it — clamped to the
/// supported range.
fn default_shards() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, MAX_SHARDS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_count_is_clamped() {
        let opts = EngineOptions::new(CommitPolicy::Group, "/tmp/x").with_shards(0);
        assert_eq!(opts.shard_count(), 1);
        let opts = EngineOptions::new(CommitPolicy::Group, "/tmp/x").with_shards(1000);
        assert_eq!(opts.shard_count(), MAX_SHARDS);
        let opts = EngineOptions::new(CommitPolicy::Group, "/tmp/x").with_shards(8);
        assert_eq!(opts.shard_count(), 8);
    }
}
