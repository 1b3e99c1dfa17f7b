#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! `mmdb-session` — a real multi-threaded session layer with wall-clock
//! group commit (§5.2 of *Implementation Techniques for Main Memory
//! Database Systems*, DeWitt et al., SIGMOD 1984).
//!
//! The workspace's [`mmdb_recovery`] crate proves the §5.2 arithmetic in
//! *virtual* time: its recovery manager, executing typical transactions,
//! shows synchronous commit stuck at ~100 tps and group commit reaching
//! ~1000. This crate is the
//! same design on *real* OS threads and a wall clock:
//!
//! * An [`Engine`] owns the shared volatile store, the §5.2 lock manager
//!   (with pre-commit), a log queue, and one background **log writer**
//!   per device that batches commit records from every session into
//!   page-sized log writes.
//! * [`Session`] handles are cheap, cloneable, and `Send` — one per
//!   client OS thread, the paper's "terminals".
//! * Commit is **pre-commit** (§5.2): locks are released before the
//!   commit record is durable, and dependents run immediately. A
//!   dependent's commit record always gets a higher LSN than its
//!   dependency's, and no transaction is reported durable until its
//!   entire LSN prefix is on disk — so LSN order alone keeps a dependent
//!   from being durable first, whichever device writes which page.
//! * [`CommitPolicy`] mirrors the recovery manager's policies: synchronous
//!   (one page write per commit), group commit, and a partitioned log
//!   over `k` devices.
//! * [`Engine::crash`] drops every volatile structure, and
//!   [`Engine::recover`] rebuilds the store from the surviving log
//!   pages under the contiguous-LSN-prefix rule ([`RecoveryInfo`] says
//!   what survived).
//!
//! # Quickstart
//!
//! ```
//! use mmdb_session::{CommitPolicy, Engine, EngineOptions};
//! use std::time::Duration;
//!
//! let dir = std::env::temp_dir().join(format!("mmdb-doc-{}", std::process::id()));
//! std::fs::remove_dir_all(&dir).ok();
//! let options = EngineOptions::new(CommitPolicy::Group, &dir)
//!     .with_page_write_latency(Duration::from_micros(100));
//! let engine = Engine::start(options).unwrap();
//!
//! // Sessions are Send: move them to client threads.
//! let session = engine.session();
//! let handle = std::thread::spawn(move || {
//!     let ticket = session.transfer(1, 2, 50).unwrap();
//!     session.wait_durable(&ticket).unwrap();
//! });
//! handle.join().unwrap();
//!
//! assert_eq!(engine.read(1).unwrap(), Some(-50));
//! assert_eq!(engine.read(2).unwrap(), Some(50));
//! engine.shutdown().unwrap();
//! std::fs::remove_dir_all(&dir).ok();
//! ```

/// §5.3 online fuzzy checkpointing: the background sweeper, dirty-shard
/// table, and generation truncation that bound recovery by the
/// checkpoint interval.
mod checkpoint;
/// §5.2 the engine front-end, sessions, and the pre-commit protocol.
mod engine;
/// §5.2 the log queue, its log-writer threads, and shared state.
mod log_writer;
/// Metric handles and the commit-pipeline trace (obs wiring).
mod metrics;
/// §5.2 commit policies and engine options.
mod policy;
/// §5.2 restart recovery under the contiguous-LSN-prefix rule.
mod recover;
/// §5.2 lock-table shards, the transaction table, and the lock-ordering
/// discipline that keeps multi-shard operations cycle-free.
mod shard;
/// §5 the seeded torture runner: one skeleton for every entry point
/// (where faults enter), and the one recovery oracle it checks.
pub mod torture;

pub use checkpoint::CheckpointStats;
pub use engine::{CommitTicket, Engine, Session, Txn};
pub use mmdb_recovery::{Record, MAX_RECORD_BYTES};
pub use policy::{CommitPolicy, EngineOptions, GROUP_WINDOW, IO_RETRIES};
pub use recover::RecoveryInfo;
pub use torture::TortureReport;

// Re-export the observability surface engine callers consume through
// [`Engine::stats`] / [`Engine::trace_events`], so depending on
// `mmdb-obs` directly is optional.
pub use mmdb_obs::{HistogramSnapshot, Registry, StatsSnapshot, TraceEvent, TraceStage};

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_types::{Auditable, Error};
    use std::path::PathBuf;
    use std::time::Duration;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mmdb-session-lib-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn fast(policy: CommitPolicy, name: &str) -> EngineOptions {
        EngineOptions::new(policy, tmp_dir(name))
            .with_page_write_latency(Duration::from_micros(200))
            .with_flush_interval(Duration::from_micros(500))
    }

    #[test]
    fn single_session_commit_and_read_back() {
        let opts = fast(CommitPolicy::Group, "single");
        let dir = opts.log_dir.clone();
        let engine = Engine::start(opts).unwrap();
        let s = engine.session();
        let t = s.begin().unwrap();
        s.write(&t, 7, 42).unwrap();
        let ticket = s.commit(t).unwrap();
        s.wait_durable(&ticket).unwrap();
        assert!(engine.is_durable(&ticket).unwrap());
        assert_eq!(engine.read(7).unwrap(), Some(42));
        engine.audit().unwrap();
        engine.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn abort_undoes_writes_in_reverse() {
        let opts = fast(CommitPolicy::Group, "abort");
        let dir = opts.log_dir.clone();
        let engine = Engine::start(opts).unwrap();
        let s = engine.session();
        let t0 = s.begin().unwrap();
        s.write(&t0, 1, 10).unwrap();
        s.commit_durable(t0).unwrap();
        let t = s.begin().unwrap();
        s.write(&t, 1, 99).unwrap();
        s.write(&t, 2, 99).unwrap();
        s.write(&t, 1, 100).unwrap();
        assert_eq!(s.read(1).unwrap(), Some(100), "dirty value visible");
        s.abort(t).unwrap();
        assert_eq!(s.read(1).unwrap(), Some(10), "pre-image restored");
        assert_eq!(s.read(2).unwrap(), None, "insert undone");
        engine.audit().unwrap();
        engine.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn byte_records_are_one_key_one_log_record_at_any_length() {
        let opts = fast(CommitPolicy::Group, "records");
        let dir = opts.log_dir.clone();
        let engine = Engine::start(opts.clone()).unwrap();
        let s = engine.session();
        // Three pages' worth of bytes under one key.
        let big = Record::from(vec![0xAB; opts.page_bytes * 3]);
        let t = s.begin().unwrap();
        s.put(&t, 1, Record::clone(&big)).unwrap();
        s.put(&t, 2, Record::from(&b"short"[..])).unwrap();
        s.put(&t, 3, Record::from(&[][..])).unwrap();
        s.commit_durable(t).unwrap();
        assert_eq!(s.snapshot_kv().unwrap().len(), 3);
        // Abort swaps the pre-image back in.
        let t = s.begin().unwrap();
        assert_eq!(
            s.get_for_update(&t, 2).unwrap().as_deref(),
            Some(&b"short"[..])
        );
        s.put(&t, 2, Record::from(&b"longer than before"[..]))
            .unwrap();
        s.abort(t).unwrap();
        assert_eq!(s.get(2).unwrap().as_deref(), Some(&b"short"[..]));
        // The 8-byte view refuses a record that is not 8 bytes.
        assert!(matches!(s.read(2), Err(Error::Internal(_))));
        let t = s.begin().unwrap();
        let too_big = Record::from(vec![0u8; MAX_RECORD_BYTES + 1]);
        assert!(matches!(
            s.put(&t, 4, too_big),
            Err(Error::TupleTooLarge(_))
        ));
        s.abort(t).unwrap();
        engine.audit().unwrap();
        engine.crash().unwrap();
        let (engine, info) = Engine::recover(opts).unwrap();
        assert_eq!(info.records_replayed, 3);
        let s = engine.session();
        assert_eq!(s.get(1).unwrap(), Some(big));
        assert_eq!(s.get(3).unwrap().map(|r| r.len()), Some(0));
        assert_eq!(s.get(4).unwrap(), None);
        engine.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn abort_of_stale_txn_copy_after_commit_is_rejected() {
        let opts = fast(CommitPolicy::Group, "stale-abort");
        let dir = opts.log_dir.clone();
        let engine = Engine::start(opts).unwrap();
        let s = engine.session();
        let t = s.begin().unwrap();
        s.write(&t, 1, 1).unwrap();
        let ticket = s.commit(t).unwrap();
        // `Txn` is Copy: a stale copy of the committed handle must not
        // roll back the pre-committed writes, whose undo lists survive
        // until the commit is durable.
        assert!(matches!(s.abort(t), Err(Error::InvalidTransaction(_))));
        s.wait_durable(&ticket).unwrap();
        assert!(engine.is_durable(&ticket).unwrap());
        assert_eq!(engine.read(1).unwrap(), Some(1), "commit unaffected");
        engine.audit().unwrap();
        engine.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn many_threads_transfer_and_conserve_money() {
        let opts = fast(CommitPolicy::Group, "threads");
        let dir = opts.log_dir.clone();
        let engine = Engine::start(opts).unwrap();
        // Seed 8 accounts with 1000 each.
        let s = engine.session();
        let t = s.begin().unwrap();
        for k in 0..8 {
            s.write(&t, k, 1_000).unwrap();
        }
        s.commit_durable(t).unwrap();
        let mut handles = Vec::new();
        for c in 0..4u64 {
            let s = engine.session();
            handles.push(std::thread::spawn(move || {
                let mut committed = 0;
                for i in 0..25u64 {
                    let from = (c * 25 + i) % 8;
                    let to = (from + 1 + c) % 8;
                    if from == to {
                        continue;
                    }
                    match s.transfer(from, to, 1) {
                        Ok(_) => committed += 1,
                        Err(Error::TransactionAborted(_)) | Err(Error::LockConflict { .. }) => {}
                        Err(e) => panic!("unexpected transfer error: {e}"),
                    }
                }
                committed
            }));
        }
        let committed: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(committed > 0, "some transfers must get through");
        engine.flush().unwrap();
        let total: i64 = (0..8).map(|k| engine.read(k).unwrap().unwrap_or(0)).sum();
        assert_eq!(total, 8_000, "transfers conserve total balance");
        engine.audit().unwrap();
        engine.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_commit_batches_many_commits_per_page() {
        let opts = fast(CommitPolicy::Group, "batching");
        let dir = opts.log_dir.clone();
        let engine = Engine::start(opts).unwrap();
        let mut handles = Vec::new();
        for c in 0..8u64 {
            let s = engine.session();
            handles.push(std::thread::spawn(move || {
                for i in 0..5u64 {
                    let ticket = s.transfer(100 + c, 200 + c, i as i64).unwrap();
                    s.wait_durable(&ticket).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let pages = engine.pages_written().unwrap();
        assert!(
            pages < 40,
            "40 typical transactions shared pages (got {pages})"
        );
        engine.audit().unwrap();
        engine.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shutdown_then_recover_restores_committed_state() {
        let opts = fast(CommitPolicy::Partitioned { devices: 2 }, "restart");
        let dir = opts.log_dir.clone();
        let engine = Engine::start(opts.clone()).unwrap();
        let s = engine.session();
        for k in 0..5 {
            let t = s.begin().unwrap();
            s.write(&t, k, (k as i64) * 3).unwrap();
            s.commit_durable(t).unwrap();
        }
        engine.shutdown().unwrap();
        let (engine, info) = Engine::recover(opts).unwrap();
        assert_eq!(info.committed.len(), 5);
        assert!(info.losers.is_empty());
        for k in 0..5 {
            assert_eq!(engine.read(k).unwrap(), Some((k as i64) * 3));
        }
        // The recovered engine keeps working.
        let s = engine.session();
        let t = s.begin().unwrap();
        s.write(&t, 99, 1).unwrap();
        s.commit_durable(t).unwrap();
        engine.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fresh_start_refuses_a_dirty_log_dir() {
        let opts = fast(CommitPolicy::Group, "dirty");
        let dir = opts.log_dir.clone();
        let engine = Engine::start(opts.clone()).unwrap();
        let s = engine.session();
        let t = s.begin().unwrap();
        s.write(&t, 1, 1).unwrap();
        s.commit_durable(t).unwrap();
        engine.shutdown().unwrap();
        assert!(matches!(Engine::start(opts), Err(Error::Io(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sync_policy_waits_for_durability_inside_commit() {
        let opts = fast(CommitPolicy::Synchronous, "sync");
        let dir = opts.log_dir.clone();
        let engine = Engine::start(opts).unwrap();
        let s = engine.session();
        let t = s.begin().unwrap();
        s.write(&t, 5, 5).unwrap();
        let ticket = s.commit(t).unwrap();
        assert!(
            engine.is_durable(&ticket).unwrap(),
            "synchronous commit returns only after durability"
        );
        engine.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
