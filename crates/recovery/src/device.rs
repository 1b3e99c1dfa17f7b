//! Simulated log devices (§5.2).
//!
//! A device writes one 4096-byte log page in 10 ms of *virtual* time (the
//! paper's figure for a seek-free page write) and is busy until the write
//! completes. Pages are durable — they survive a crash — once their
//! completion time has passed.

use crate::log::{LogRecord, Lsn};

/// Virtual time in microseconds.
pub type Micros = u64;

/// One page worth of log records queued or written on a device.
#[derive(Debug, Clone)]
pub struct LogPage {
    /// LSN-tagged records in the page, in append order.
    pub records: Vec<(Lsn, LogRecord)>,
    /// Monotone page sequence number on its device.
    pub seqno: u64,
    /// Virtual time the write completes (durability point).
    pub durable_at: Micros,
}

/// Bytes in one log page (§5.2: 4096).
pub const PAGE_BYTES: usize = 4096;

/// Virtual time one page write takes (§5.2: 10 ms, no seek).
pub const PAGE_WRITE_US: Micros = 10_000;

/// A simulated sequential log device.
#[derive(Debug, Default)]
pub struct LogDevice {
    pages: Vec<LogPage>,
    idle_at: Micros,
    next_seqno: u64,
}

impl LogDevice {
    /// A device with the paper's parameters: [`PAGE_BYTES`]-byte pages,
    /// [`PAGE_WRITE_US`] per page write.
    pub fn paper() -> Self {
        LogDevice::default()
    }

    /// Submits a page of records at virtual time `now`; returns the time
    /// the page becomes durable. Writes queue behind the device's current
    /// work (a single arm writes one page at a time).
    pub fn write_page(&mut self, records: Vec<(Lsn, LogRecord)>, now: Micros) -> Micros {
        let start = now.max(self.idle_at);
        let done = start + PAGE_WRITE_US;
        self.idle_at = done;
        self.pages.push(LogPage {
            records,
            seqno: self.next_seqno,
            durable_at: done,
        });
        self.next_seqno += 1;
        done
    }

    /// Completion time of the device's latest page (0 before any).
    pub fn idle_at(&self) -> Micros {
        self.idle_at
    }

    /// Pages durable at time `now` (what a crash at `now` preserves), in
    /// sequence order.
    pub fn durable_pages(&self, now: Micros) -> impl Iterator<Item = &LogPage> {
        self.pages.iter().filter(move |p| p.durable_at <= now)
    }

    /// All durable records at `now`, flattened in order.
    pub fn durable_records(&self, now: Micros) -> Vec<(Lsn, LogRecord)> {
        self.durable_pages(now)
            .flat_map(|p| p.records.iter().cloned())
            .collect()
    }

    /// Total pages ever submitted.
    pub fn pages_written(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_types::TxnId;

    fn rec(i: u64) -> (Lsn, LogRecord) {
        (Lsn(i), LogRecord::Commit { txn: TxnId(i) })
    }

    #[test]
    fn writes_serialize_on_the_device() {
        let mut d = LogDevice::paper();
        let t1 = d.write_page(vec![rec(1)], 0);
        assert_eq!(t1, 10_000);
        // Submitted while busy: queues behind the first write.
        let t2 = d.write_page(vec![rec(2)], 1_000);
        assert_eq!(t2, 20_000);
        // Submitted after idle: starts immediately.
        let t3 = d.write_page(vec![rec(3)], 50_000);
        assert_eq!(t3, 60_000);
    }

    #[test]
    fn durability_follows_completion_time() {
        let mut d = LogDevice::paper();
        d.write_page(vec![rec(1)], 0); // durable at 10 000
        d.write_page(vec![rec(2)], 0); // durable at 20 000
        assert_eq!(d.durable_records(9_999).len(), 0);
        assert_eq!(d.durable_records(10_000).len(), 1);
        assert_eq!(d.durable_records(20_000).len(), 2);
        // A crash between the two writes loses exactly the second page.
        let survived = d.durable_records(15_000);
        assert_eq!(survived, vec![rec(1)]);
    }

    #[test]
    fn sequence_numbers_are_monotone() {
        let mut d = LogDevice::paper();
        for i in 0..5 {
            d.write_page(vec![rec(i)], 0);
        }
        let seqnos: Vec<u64> = d.durable_pages(u64::MAX).map(|p| p.seqno).collect();
        assert_eq!(seqnos, vec![0, 1, 2, 3, 4]);
        assert_eq!(d.pages_written(), 5);
    }

    #[test]
    fn paper_rate_is_100_pages_per_second() {
        let mut d = LogDevice::paper();
        let mut now = 0;
        for i in 0..100 {
            now = d.write_page(vec![rec(i)], now);
        }
        assert_eq!(now, 1_000_000, "100 page writes take one virtual second");
    }
}
