//! Spill files: page-granular temporary tuple storage.
//!
//! Operators that overflow memory write tuples here in logical pages of
//! `tuples_per_page`. Every page written and read charges the meter —
//! sequential or random per the caller's access pattern — which is the
//! whole of the paper's I/O cost accounting (the tuples themselves stay in
//! process memory; see DESIGN.md on the simulated-disk substitution). A
//! file holds whatever its operator's input holds: owned tuples for the
//! 1984 experiments, references when the rows are lent (see
//! [`crate::Row`]), so spilling a lent row moves a pointer.

use mmdb_storage::CostMeter;
use mmdb_types::Tuple;
use std::sync::Arc;

/// How a spill transfer is priced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpillIo {
    /// `IOseq`.
    Sequential,
    /// `IOrand`.
    Random,
}

/// A temporary file of tuple pages with priced I/O.
#[derive(Debug)]
pub struct SpillFile<T = Tuple> {
    pages: Vec<Vec<T>>,
    open_page: Vec<T>,
    tuples_per_page: usize,
    meter: Arc<CostMeter>,
    tuples: usize,
}

impl<T> SpillFile<T> {
    /// A fresh spill file.
    pub fn new(meter: Arc<CostMeter>, tuples_per_page: usize) -> Self {
        assert!(tuples_per_page > 0);
        SpillFile {
            pages: Vec::new(),
            open_page: Vec::with_capacity(tuples_per_page),
            tuples_per_page,
            meter,
            tuples: 0,
        }
    }

    /// Tuples appended so far.
    pub fn tuple_count(&self) -> usize {
        self.tuples
    }

    /// Whether nothing was appended.
    pub fn is_empty(&self) -> bool {
        self.tuples == 0
    }

    /// Pages this file occupies (counting a partial open page).
    pub fn page_count(&self) -> usize {
        self.pages.len() + usize::from(!self.open_page.is_empty())
    }

    /// Tuples per logical page.
    pub fn tuples_per_page(&self) -> usize {
        self.tuples_per_page
    }

    /// Appends a tuple to the open output buffer; when the buffer fills it
    /// is written out with one I/O of `io`. (The buffer page itself is part
    /// of the operator's memory grant; callers account for that.)
    pub fn append(&mut self, tuple: T, io: SpillIo) {
        self.open_page.push(tuple);
        self.tuples += 1;
        if self.open_page.len() >= self.tuples_per_page {
            self.flush(io);
        }
    }

    /// Writes the open buffer out if non-empty (end-of-scan flush, §3.6
    /// step 1: "flush all output buffers to disk").
    pub fn flush(&mut self, io: SpillIo) {
        if self.open_page.is_empty() {
            return;
        }
        match io {
            SpillIo::Sequential => self.meter.charge_seq_ios(1),
            SpillIo::Random => self.meter.charge_rand_ios(1),
        }
        let page = std::mem::replace(
            &mut self.open_page,
            Vec::with_capacity(self.tuples_per_page),
        );
        self.pages.push(page);
    }

    /// Reads the whole file back page by page, charging one I/O of `io`
    /// per page, and consumes it.
    pub fn drain_pages(mut self, io: SpillIo) -> DrainPages<T> {
        self.flush(io);
        DrainPages {
            pages: self.pages.into_iter(),
            meter: self.meter,
            io,
        }
    }

    /// Reads one specific page (for merge-style interleaved access),
    /// charging one I/O of `io`. Panics if out of range.
    pub fn read_page(&self, idx: usize, io: SpillIo) -> &[T] {
        match io {
            SpillIo::Sequential => self.meter.charge_seq_ios(1),
            SpillIo::Random => self.meter.charge_rand_ios(1),
        }
        &self.pages[idx]
    }

    /// Number of closed (written) pages addressable by [`Self::read_page`].
    pub fn closed_pages(&self) -> usize {
        self.pages.len()
    }

    /// The meter this file charges.
    pub fn meter(&self) -> &Arc<CostMeter> {
        &self.meter
    }
}

/// Page iterator returned by [`SpillFile::drain_pages`].
#[derive(Debug)]
pub struct DrainPages<T = Tuple> {
    pages: std::vec::IntoIter<Vec<T>>,
    meter: Arc<CostMeter>,
    io: SpillIo,
}

impl<T> Iterator for DrainPages<T> {
    type Item = Vec<T>;

    fn next(&mut self) -> Option<Self::Item> {
        let page = self.pages.next()?;
        match self.io {
            SpillIo::Sequential => self.meter.charge_seq_ios(1),
            SpillIo::Random => self.meter.charge_rand_ios(1),
        }
        Some(page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_types::Value;

    fn t(i: i64) -> Tuple {
        Tuple::new(vec![Value::Int(i)])
    }

    #[test]
    fn pages_fill_and_charge_on_write() {
        let meter = Arc::new(CostMeter::new());
        let mut f = SpillFile::new(Arc::clone(&meter), 4);
        for i in 0..9 {
            f.append(t(i), SpillIo::Sequential);
        }
        // Two full pages written; one open page pending.
        assert_eq!(meter.snapshot().seq_ios, 2);
        assert_eq!(f.page_count(), 3);
        assert_eq!(f.tuple_count(), 9);
        f.flush(SpillIo::Sequential);
        assert_eq!(meter.snapshot().seq_ios, 3);
    }

    #[test]
    fn drain_charges_one_io_per_page() {
        let meter = Arc::new(CostMeter::new());
        let mut f = SpillFile::new(Arc::clone(&meter), 4);
        for i in 0..10 {
            f.append(t(i), SpillIo::Sequential);
        }
        let before = meter.snapshot();
        let pages: Vec<_> = f.drain_pages(SpillIo::Sequential).collect();
        let delta = meter.snapshot().delta_since(&before);
        // Final partial page flushed (1 write) + 3 reads.
        assert_eq!(pages.len(), 3);
        assert_eq!(delta.seq_ios, 4);
        let total: usize = pages.iter().map(|p| p.len()).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn random_io_charges_random_counter() {
        let meter = Arc::new(CostMeter::new());
        let mut f = SpillFile::new(Arc::clone(&meter), 2);
        for i in 0..4 {
            f.append(t(i), SpillIo::Random);
        }
        assert_eq!(meter.snapshot().rand_ios, 2);
        assert_eq!(meter.snapshot().seq_ios, 0);
    }

    #[test]
    fn read_page_by_index() {
        let meter = Arc::new(CostMeter::new());
        let mut f = SpillFile::new(Arc::clone(&meter), 2);
        for i in 0..6 {
            f.append(t(i), SpillIo::Sequential);
        }
        assert_eq!(f.closed_pages(), 3);
        let p1 = f.read_page(1, SpillIo::Random);
        assert_eq!(p1, &[t(2), t(3)]);
        assert_eq!(meter.snapshot().rand_ios, 1);
    }

    #[test]
    fn empty_file_drains_nothing() {
        let meter = Arc::new(CostMeter::new());
        let f: SpillFile = SpillFile::new(Arc::clone(&meter), 4);
        assert!(f.is_empty());
        assert_eq!(f.drain_pages(SpillIo::Sequential).count(), 0);
        assert_eq!(meter.snapshot().total_ios(), 0);
    }
}
