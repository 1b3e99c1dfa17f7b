#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Access methods for memory-resident relations (§2 of the paper).
//!
//! * [`avl::AvlTree`] — an arena-based AVL tree, the paper's candidate
//!   structure for memory-resident keyed relations.
//! * [`bptree::BPlusTree`] — a page-based B+-tree with configurable fanout
//!   and Yao-style occupancy tracking, the incumbent structure.
//! * [`residency::PagedResidency`] — a residency simulator that converts
//!   traced page visits into fault counts under Random (the §2 model's
//!   `faults = C · (1 − |M|/S)` assumption), LRU or Clock replacement.
//!
//! Every structure offers *traced* operations that report the comparisons
//! performed and the logical pages touched, feeding the paper's cost
//! objective `cost = Z · |page reads| + |comparisons|`.

pub mod avl;
pub mod bptree;
pub mod paged_binary;
pub mod residency;

pub use avl::AvlTree;
pub use bptree::BPlusTree;
pub use paged_binary::PagedBinaryTree;
pub use residency::{PagedResidency, ReplacementPolicy};

/// The record of one traced index operation: which logical pages were
/// inspected, in order, and how many key comparisons were spent.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AccessTrace {
    /// Logical page of each node inspected, in visit order.
    pub pages_visited: Vec<u64>,
    /// Key comparisons performed.
    pub comparisons: u64,
}

impl AccessTrace {
    /// Records a visit to `page` (consecutive duplicate visits collapse —
    /// staying within one page costs no new page read).
    pub fn visit(&mut self, page: u64) {
        if self.pages_visited.last() != Some(&page) {
            self.pages_visited.push(page);
        }
    }

    /// Records `n` comparisons.
    pub fn compare(&mut self, n: u64) {
        self.comparisons += n;
    }

    /// Number of page reads this operation would issue against a cold
    /// structure.
    pub fn page_reads(&self) -> u64 {
        self.pages_visited.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_collapses_consecutive_pages() {
        let mut t = AccessTrace::default();
        t.visit(3);
        t.visit(3);
        t.visit(4);
        t.visit(3);
        assert_eq!(t.pages_visited, vec![3, 4, 3]);
        assert_eq!(t.page_reads(), 3);
    }

    #[test]
    fn trace_accumulates_comparisons() {
        let mut t = AccessTrace::default();
        t.compare(2);
        t.compare(5);
        assert_eq!(t.comparisons, 7);
    }
}
