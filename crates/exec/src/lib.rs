#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Executable query-processing algorithms (§3 of the paper).
//!
//! Everything here *really executes*: the four join algorithms produce
//! actual result tuples (verifiable against the nested-loops reference)
//! over [`MemRelation`]s while charging every primitive operation —
//! `comp`, `hash`, `move`, `swap`, `IOseq`, `IOrand` — to a shared
//! [`CostMeter`]. Converting the meter to seconds with the Table 2 prices
//! regenerates Figure 1 from a running system rather than from formulas.
//! [`plan`] runs a §4 physical plan with these operators: it is the one
//! executor of plans, shared by the SQL `SELECT` and the experiments.
//! The cores it reaches are generic over their [`Meter`]; the SQL
//! `SELECT` runs them with `()`, which charges nothing.
//!
//! Conventions, following §3.2 of the paper:
//!
//! * the initial scan of the input relations and the write of the join
//!   result are **not** charged (identical for every algorithm);
//! * CPU and I/O never overlap — the meter simply sums;
//! * `R` is the smaller relation; hash/sort structures for `X` pages of
//!   tuples occupy `X·F` pages of memory (the universal fudge factor).

pub mod aggregate;
pub mod context;
pub mod join;
pub mod mem;
pub mod meter;
pub mod partition;
pub mod plan;
pub mod project;
pub mod select;
pub mod sort;
pub mod spill;
pub mod workload;

pub use context::ExecContext;
pub use join::JoinSpec;
pub use mem::MemRelation;
pub use meter::{CostMeter, CostSnapshot, Meter};
pub use spill::SpillFile;

use mmdb_types::Tuple;
use std::borrow::Borrow;

/// A row the join and sort cores read: an owned [`Tuple`] (the 1984
/// experiments' relations), a `&Tuple` lent from where it lives (the SQL
/// layer's row cache), or a `Cow` of either (a join's intermediate
/// result). Cloning one is what spilling it moves: a tuple copy for an
/// owned row, a pointer for a lent one.
pub trait Row: Borrow<Tuple> + Clone + Ord {}

impl<T: Borrow<Tuple> + Clone + Ord> Row for T {}

/// One operator input: its rows and the logical page fanout the §3 cost
/// model groups them by.
#[derive(Debug)]
pub struct Rows<'a, T> {
    /// The rows, in input order.
    pub tuples: &'a [T],
    /// Rows per logical page (at least 1).
    pub tuples_per_page: usize,
}

impl<'a, T> Rows<'a, T> {
    /// `tuples` grouped `tuples_per_page` to a page.
    pub fn new(tuples: &'a [T], tuples_per_page: usize) -> Self {
        Rows {
            tuples,
            tuples_per_page: tuples_per_page.max(1),
        }
    }

    /// `|R|`: pages, the last one possibly partial.
    pub fn page_count(&self) -> usize {
        self.tuples.len().div_ceil(self.tuples_per_page)
    }
}

impl<'a> From<&'a MemRelation> for Rows<'a, Tuple> {
    fn from(rel: &'a MemRelation) -> Self {
        Rows::new(rel.tuples(), rel.tuples_per_page())
    }
}
