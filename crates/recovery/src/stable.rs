//! Battery-backed stable memory (§5.4, §5.5).
//!
//! A small region of main memory survives power failure. The paper uses it
//! for two things:
//!
//! * an **in-memory log tail** — "a reliable disk output queue for log
//!   data": transactions commit the moment their commit record enters the
//!   region; pages drain to disk asynchronously, and §5.4's compression
//!   strips old values of committed transactions before they reach disk;
//! * the **dirty-page table** of §5.5 — for each updated page, the log
//!   record id of the first update since its last checkpoint, whose
//!   minimum tells recovery where to start reading the log. The recovery
//!   manager keeps the one table; its crash image keeps it only when the
//!   manager has a stable region.

use crate::log::{LogRecord, Lsn};

/// The stable region.
#[derive(Debug, Default)]
pub struct StableMemory {
    log_tail: Vec<(Lsn, LogRecord)>,
    bytes_used: usize,
    capacity_bytes: usize,
}

impl StableMemory {
    /// A region of `capacity_bytes` for the log tail (the paper assumes
    /// stable memory is "too expensive to be used for all of real
    /// memory").
    pub fn new(capacity_bytes: usize) -> Self {
        StableMemory {
            log_tail: Vec::new(),
            bytes_used: 0,
            capacity_bytes,
        }
    }

    /// The region's capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Bytes of log currently buffered.
    pub fn bytes_used(&self) -> usize {
        self.bytes_used
    }

    /// Whether a record of `size` bytes fits.
    pub fn fits(&self, size: usize) -> bool {
        self.bytes_used + size <= self.capacity_bytes
    }

    /// Appends a log record; returns false (and drops nothing) when the
    /// region is full — the caller must drain first.
    pub fn append(&mut self, lsn: Lsn, record: LogRecord) -> bool {
        let size = record.byte_size();
        if !self.fits(size) {
            return false;
        }
        self.bytes_used += size;
        self.log_tail.push((lsn, record));
        true
    }

    /// Records buffered, oldest first (crash recovery reads these — the
    /// region survives).
    pub fn buffered(&self) -> &[(Lsn, LogRecord)] {
        &self.log_tail
    }

    /// Drains up to `max_bytes` of **compressed** log for writing to disk
    /// (§5.4: only new values of committed transactions are written; the
    /// caller passes a committed-set predicate). Old-value-only records of
    /// transactions still in doubt stay buffered. Returns the drained
    /// records and their compressed byte volume.
    pub fn drain_committed(
        &mut self,
        max_bytes: usize,
        is_committed: impl Fn(mmdb_types::TxnId) -> bool,
    ) -> (Vec<(Lsn, LogRecord)>, usize) {
        let mut drained = Vec::new();
        let mut bytes = 0usize;
        let mut keep = Vec::new();
        for (lsn, rec) in std::mem::take(&mut self.log_tail) {
            let committed = is_committed(rec.txn());
            if committed && bytes + rec.compressed_size() <= max_bytes {
                bytes += rec.compressed_size();
                self.bytes_used = self.bytes_used.saturating_sub(rec.byte_size());
                drained.push((lsn, rec));
            } else {
                keep.push((lsn, rec));
            }
        }
        self.log_tail = keep;
        (drained, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_types::TxnId;

    fn upd(txn: u64, key: u64) -> LogRecord {
        LogRecord::Update {
            txn: TxnId(txn),
            key,
            old: Some(0),
            new: 1,
            padding: 100,
        }
    }

    #[test]
    fn append_until_full() {
        let mut s = StableMemory::new(300);
        assert!(s.append(Lsn(1), upd(1, 1))); // 140 bytes
        assert!(s.append(Lsn(2), upd(1, 2)));
        assert!(!s.append(Lsn(3), upd(1, 3)), "281+140 > 300");
        assert_eq!(s.buffered().len(), 2);
    }

    #[test]
    fn drain_strips_old_values_of_committed_only() {
        let mut s = StableMemory::new(10_000);
        s.append(Lsn(1), upd(1, 1));
        s.append(Lsn(2), upd(2, 2));
        // Only txn 1 is committed.
        let (drained, bytes) = s.drain_committed(usize::MAX, |t| t == TxnId(1));
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].0, Lsn(1));
        assert_eq!(bytes, upd(1, 1).compressed_size());
        assert!(bytes < upd(1, 1).byte_size(), "compression happened");
        // The uncommitted record stays.
        assert_eq!(s.buffered().len(), 1);
        assert_eq!(s.buffered()[0].0, Lsn(2));
    }

    #[test]
    fn drain_respects_byte_budget() {
        let mut s = StableMemory::new(10_000);
        for i in 0..10 {
            s.append(Lsn(i), upd(1, i));
        }
        let one = upd(1, 0).compressed_size();
        let (drained, bytes) = s.drain_committed(one * 3, |_| true);
        assert_eq!(drained.len(), 3);
        assert_eq!(bytes, one * 3);
        assert_eq!(s.buffered().len(), 7);
    }

    #[test]
    fn freed_space_is_reusable() {
        let mut s = StableMemory::new(300);
        s.append(Lsn(1), upd(1, 1));
        s.append(Lsn(2), upd(1, 2));
        assert!(!s.fits(140));
        s.drain_committed(usize::MAX, |_| true);
        assert!(s.fits(140));
        assert!(s.append(Lsn(3), upd(2, 3)));
    }
}
