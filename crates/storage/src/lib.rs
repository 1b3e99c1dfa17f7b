#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Paged storage substrate for the mmdb workspace.
//!
//! The paper's experiments run against 1984 disk hardware; this crate
//! substitutes a **simulated disk**: pages live in process memory and every
//! transfer is charged against a virtual [`CostMeter`] using the Table 2
//! operation times, so experiments measure the paper's cost model rather
//! than the host machine's SSD.
//!
//! Components:
//!
//! * [`CostMeter`] — thread-safe counters for the six primitive operations
//!   (`comp`, `hash`, `move`, `swap`, `IOseq`, `IOrand`) convertible to
//!   simulated seconds.
//! * [`SimDisk`] — the page store, charging sequential or random I/O.
//! * [`BufferPool`] — bounded page cache with Random (the §2 assumption),
//!   LRU and Clock replacement.
//! * [`MemRelation`] — a fully memory-resident relation with a paged view,
//!   the substrate the §3 join algorithms execute against.

pub mod buffer;
pub mod disk;
pub mod mem;
pub mod meter;

pub use buffer::{BufferPool, ReplacementPolicy};
pub use disk::{IoKind, SimDisk};
pub use mem::MemRelation;
pub use meter::{CostMeter, CostSnapshot};
