#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Recovery for memory-resident databases (§5 of the paper).
//!
//! The §5 setting: the whole database fits in volatile main memory, so the
//! recovery subsystem only ever writes *log* pages during normal
//! processing — and the log write becomes the throughput bottleneck. This
//! crate builds the full §5 machinery:
//!
//! * [`log`] — log records and their byte-accounted encoding: the
//!   session engine's variable-length `Put`, and the paper-accounted
//!   `Update`, padded so a one-update "typical" transaction writes 400
//!   bytes: 40 of begin/commit, 360 of old/new values, per Gray's banking
//!   example.
//! * [`device`] — simulated log devices: one 4096-byte page write costs
//!   10 ms of virtual time; pages are durable once their write completes.
//! * [`lock`] — a lock manager whose lock table carries holders and
//!   waiters; a transaction leaves it at pre-commit, and the LSN alone
//!   orders a dependent's commit after its dependency's.
//! * [`commit`] — the §5.2 commit core, pure: the log queue, when a page
//!   is cut, and the durable watermark, with time a parameter. The
//!   manager below runs it in virtual time and `mmdb-session`'s log
//!   writers on the wall clock.
//! * [`manager`] — the recovery manager: an in-memory KV database with
//!   write-ahead logging under a [`CommitPolicy`] (synchronous, group
//!   commit, partitioned log with pages submitted round-robin in LSN
//!   order) or stable memory, crash, and restart-recovery. Its `typical`
//!   transaction logs those 400 bytes (a `transfer` logs 760); run back
//!   to back, they execute §5.2's 100 / ~1000 / ~k×1000 tps.
//! * [`stable`] — battery-backed stable memory: the in-memory log tail,
//!   §5.4 log compression (only new values of committed transactions go
//!   to disk) and the §5.5 dirty-page table bounding recovery.
//! * [`checkpoint`] — the §5.3 background sweeper that trickles dirty
//!   pages to the disk snapshot without quiescing.

/// §5 log storage backends: real files plus deterministic fault
/// injection (torn writes, bit flips, failed syncs) for torture tests.
pub mod backend;
/// §5.3 fuzzy checkpointing against the live database.
pub mod checkpoint;
/// §5.2 the commit core: log queue, page cuts, durable watermark.
pub mod commit;
/// §5.2 simulated log devices (one 4096-byte page per 10 ms).
pub mod device;
/// §5.2 lock manager that releases at pre-commit.
pub mod lock;
/// §5.1 log records and log sequence numbers.
pub mod log;
/// §5.2 the recovery manager: WAL, commit policies, restart.
pub mod manager;
/// §5.4 stable memory absorbing commits ahead of the disk log.
pub mod stable;
/// §5.2 wall-clock log devices: page-framed append-only files with
/// per-page fsync, for the real-thread session layer.
pub mod wal;

pub use backend::{Fault, FaultKind, FaultPlan, FaultyBackend, FileBackend, LogBackend};
pub use device::LogDevice;
pub use lock::{detect_deadlocks_in, LockManager, LockMode};
pub use log::{LogRecord, Lsn, Record, MAX_RECORD_BYTES};
pub use manager::{RecoveryManager, TxnHandle};
pub use mmdb_types::CommitPolicy;
pub use stable::StableMemory;
pub use wal::{LogFileReport, WalDevice};
