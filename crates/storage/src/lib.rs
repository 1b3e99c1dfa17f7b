#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! The §3 relation substrate for the mmdb workspace.
//!
//! The paper's experiments run against 1984 disk hardware; this crate
//! substitutes a virtual cost clock: relations live in process memory and
//! every primitive operation, page transfers included, is charged against
//! a [`CostMeter`] using the Table 2 operation times, so experiments
//! measure the paper's cost model rather than the host machine's SSD.
//!
//! Components:
//!
//! * [`CostMeter`] — thread-safe counters for the six primitive operations
//!   (`comp`, `hash`, `move`, `swap`, `IOseq`, `IOrand`) convertible to
//!   simulated seconds.
//! * [`MemRelation`] — a fully memory-resident relation with a paged view,
//!   the substrate the §3 join algorithms execute against.
//!
//! Which pages a bounded memory holds under Random, LRU or Clock
//! replacement is `mmdb_index::PagedResidency`'s job.

pub mod mem;
pub mod meter;

pub use mem::MemRelation;
pub use meter::{CostMeter, CostSnapshot};
