//! §5 — throughput limits of commit policies for memory-resident databases.
//!
//! The paper's arithmetic: a "typical" transaction writes 400 bytes of log
//! (40 bytes begin/end + 360 bytes old/new values, after Gray's banking
//! example); one 4096-byte log page takes 10 ms to write without a seek.
//!
//! * **Synchronous commit**: one log write per transaction —
//!   `1 s / 10 ms = 100` transactions per second.
//! * **Group commit**: all transactions whose commit records share a log
//!   page commit with a single write — `floor(4096/400) = 10` per group,
//!   so ~1000 tps.
//! * **Partitioned log** over `k` devices: up to `k` concurrent page
//!   writes, so `k × 1000` tps: the LSN orders a dependent's commit after
//!   its dependency's, so no dependency stalls a device.
//! * **Stable memory**: commits are immediate; steady-state throughput is
//!   still bounded by the drain rate to disk, but stripping old values of
//!   committed transactions (§5.4) roughly halves the bytes drained.

use mmdb_types::cast::{f64_from_u64, f64_from_usize};
use mmdb_types::CommitPolicy;

/// The §5 throughput model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputModel {
    /// Log page size in bytes (4096 in the paper).
    pub page_bytes: u64,
    /// Time to write one log page, milliseconds (10 in the paper).
    pub page_write_ms: f64,
    /// Full log bytes per transaction (400 in the paper).
    pub txn_log_bytes: u64,
    /// Of which old-value bytes removable by §5.4 compression (180).
    pub old_value_bytes: u64,
}

impl Default for ThroughputModel {
    fn default() -> Self {
        ThroughputModel {
            page_bytes: 4096,
            page_write_ms: 10.0,
            txn_log_bytes: 400,
            // The paper: ~360 bytes of old/new values, half of which are
            // old values needed only for undo.
            old_value_bytes: 180,
        }
    }
}

impl ThroughputModel {
    /// Transactions whose commit records fit one log page.
    pub fn group_size(&self) -> u64 {
        (self.page_bytes / self.txn_log_bytes).max(1)
    }

    /// Log-page writes per second on one device.
    pub fn page_writes_per_second(&self) -> f64 {
        1000.0 / self.page_write_ms
    }

    /// Committed transactions per second under `policy`: one page write
    /// per transaction synchronously, one per full group otherwise, on
    /// every device at once.
    pub fn throughput(&self, policy: CommitPolicy) -> f64 {
        match policy {
            CommitPolicy::Synchronous => self.page_writes_per_second(),
            CommitPolicy::Group | CommitPolicy::Partitioned { .. } => {
                self.page_writes_per_second()
                    * f64_from_u64(self.group_size())
                    * f64_from_usize(policy.devices())
            }
        }
    }

    /// Committed transactions per second with the log tail in stable
    /// memory (§5.4), drained to `devices` log devices: commits are
    /// immediate, so the drain bounds the rate. Only `txn_log_bytes -
    /// old_value_bytes` per transaction reach disk, written a full page at
    /// a time across `devices` with no ordering bookkeeping.
    pub fn stable_memory_throughput(&self, devices: usize) -> f64 {
        let disk_bytes = f64_from_u64(self.txn_log_bytes - self.old_value_bytes);
        let txns_per_page = f64_from_u64(self.page_bytes) / disk_bytes;
        self.page_writes_per_second() * txns_per_page * f64_from_usize(devices)
    }

    /// §5.4 compression ratio: disk-log bytes after stripping old values of
    /// committed transactions, as a fraction of the full log.
    pub fn compression_ratio(&self) -> f64 {
        f64_from_u64(self.txn_log_bytes - self.old_value_bytes) / f64_from_u64(self.txn_log_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_headline_numbers() {
        let m = ThroughputModel::default();
        // "the system could commit at most 100 transactions per second"
        assert_eq!(m.throughput(CommitPolicy::Synchronous), 100.0);
        // "up to ten transactions per commit group ... 1000 transactions
        // per second"
        assert_eq!(m.group_size(), 10);
        assert_eq!(m.throughput(CommitPolicy::Group), 1000.0);
    }

    #[test]
    fn partitioned_log_scales_with_devices() {
        let m = ThroughputModel::default();
        let t1 = m.throughput(CommitPolicy::Partitioned { devices: 1 });
        let t4 = m.throughput(CommitPolicy::Partitioned { devices: 4 });
        assert!((t4 / t1 - 4.0).abs() < 1e-9);
        // One device is plain group commit.
        assert_eq!(t1, m.throughput(CommitPolicy::Group));
    }

    #[test]
    fn stable_memory_beats_group_commit_via_compression() {
        let m = ThroughputModel::default();
        let group = m.throughput(CommitPolicy::Group);
        let stable = m.stable_memory_throughput(1);
        assert!(
            stable > group * 1.5,
            "stable {stable} should beat group {group} by the compression factor"
        );
    }

    #[test]
    fn compression_roughly_halves_the_log() {
        let m = ThroughputModel::default();
        let r = m.compression_ratio();
        assert!(
            (0.5..0.6).contains(&r),
            "§5.4 says about half the log stores old values; ratio = {r}"
        );
    }

    #[test]
    fn degenerate_huge_transactions_still_commit() {
        let m = ThroughputModel {
            txn_log_bytes: 10_000,
            old_value_bytes: 4_000,
            ..ThroughputModel::default()
        };
        assert_eq!(m.group_size(), 1, "oversized txns get singleton groups");
        assert_eq!(m.throughput(CommitPolicy::Group), 100.0);
    }

    #[test]
    fn policy_ordering_matches_section5() {
        // sync < partitioned(1) <= group < stable(1) < stable(2)
        let m = ThroughputModel::default();
        let sync = m.throughput(CommitPolicy::Synchronous);
        let group = m.throughput(CommitPolicy::Group);
        let part1 = m.throughput(CommitPolicy::Partitioned { devices: 1 });
        let stable1 = m.stable_memory_throughput(1);
        let stable2 = m.stable_memory_throughput(2);
        assert!(sync < part1);
        assert!(part1 <= group);
        assert!(group < stable1);
        assert!(stable1 < stable2);
    }
}
