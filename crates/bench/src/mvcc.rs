//! Multiversion concurrency control (§6).
//!
//! The paper closes: "While locking is generally accepted to \[be\] the
//! algorithm of choice for disk resident databases, a versioning
//! mechanism \[REED83\] may provide superior performance for memory
//! resident systems." This module implements that suggestion: a
//! memory-resident multiversion store where **read-only transactions take
//! a timestamp snapshot and never block, never abort, and never see a
//! torn state**, while writers use exclusive per-key locks among
//! themselves and install new versions atomically at commit.
//!
//! The versioning-vs-locking experiment
//! (`cargo run -p mmdb-bench --bin versioning`) quantifies the §6 hunch:
//! under a mixed workload the locking system aborts/blocks every reader
//! that collides with a writer, while the MVCC system completes every
//! reader with zero conflicts at the cost of retaining old versions until
//! garbage collection.

use mmdb_types::{AuditViolation, Auditable, Error, Result};
use std::collections::HashMap;

/// A read-only transaction: a registered snapshot timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadTxn {
    snapshot: u64,
    id: u64,
}

impl ReadTxn {
    /// The snapshot timestamp this reader observes.
    pub fn snapshot(&self) -> u64 {
        self.snapshot
    }
}

/// An update transaction: buffered writes installed at commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteTxn {
    id: u64,
}

#[derive(Debug, Default)]
struct WriterState {
    writes: Vec<(u64, i64)>,
    locked: Vec<u64>,
}

/// A memory-resident multiversion key–value store.
#[derive(Debug, Default)]
pub struct VersionedStore {
    /// Per key: versions as `(commit_ts, value)`, ascending by timestamp.
    versions: HashMap<u64, Vec<(u64, i64)>>,
    commit_clock: u64,
    next_txn: u64,
    write_locks: HashMap<u64, u64>,
    writers: HashMap<u64, WriterState>,
    /// Active readers (id → snapshot timestamp), for GC horizons.
    readers: HashMap<u64, u64>,
    conflicts: u64,
}

impl VersionedStore {
    /// An empty store.
    pub fn new() -> Self {
        VersionedStore::default()
    }

    /// Current commit timestamp (the latest committed version horizon).
    pub fn now(&self) -> u64 {
        self.commit_clock
    }

    /// Write-write conflicts observed so far (readers never conflict).
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Total stored versions across all keys.
    pub fn version_count(&self) -> usize {
        self.versions.values().map(Vec::len).sum()
    }

    /// Begins a read-only transaction at the current commit horizon.
    pub fn begin_read(&mut self) -> ReadTxn {
        self.next_txn += 1;
        let snapshot = self.commit_clock;
        self.readers.insert(self.next_txn, snapshot);
        ReadTxn {
            snapshot,
            id: self.next_txn,
        }
    }

    /// Ends a read-only transaction, releasing its snapshot pin. Ending
    /// one that has already ended does nothing: the pin is the reader's
    /// own, never another reader's of the same snapshot.
    pub fn end_read(&mut self, txn: ReadTxn) {
        self.readers.remove(&txn.id);
    }

    /// Reads a key as of the reader's snapshot: the newest version with
    /// `commit_ts ≤ snapshot`. Never blocks.
    pub fn read(&self, txn: &ReadTxn, key: u64) -> Option<i64> {
        self.read_at(key, txn.snapshot)
    }

    fn read_at(&self, key: u64, snapshot: u64) -> Option<i64> {
        let versions = self.versions.get(&key)?;
        let idx = versions.partition_point(|(ts, _)| *ts <= snapshot);
        if idx == 0 {
            None
        } else {
            Some(versions[idx - 1].1)
        }
    }

    /// Reads the latest committed value (no snapshot).
    pub fn read_latest(&self, key: u64) -> Option<i64> {
        self.read_at(key, u64::MAX)
    }

    /// Begins an update transaction.
    pub fn begin_write(&mut self) -> WriteTxn {
        self.next_txn += 1;
        self.writers.insert(self.next_txn, WriterState::default());
        WriteTxn { id: self.next_txn }
    }

    /// Buffers a write, taking the key's write lock. Writers conflict
    /// only with writers.
    pub fn write(&mut self, txn: &WriteTxn, key: u64, value: i64) -> Result<()> {
        if !self.writers.contains_key(&txn.id) {
            return Err(Error::InvalidTransaction(txn.id));
        }
        match self.write_locks.get(&key) {
            Some(owner) if *owner != txn.id => {
                self.conflicts += 1;
                return Err(Error::LockConflict {
                    txn: txn.id,
                    object: format!("key {key}"),
                });
            }
            Some(_) => {}
            None => {
                self.write_locks.insert(key, txn.id);
                self.writers
                    .get_mut(&txn.id)
                    .expect("checked above")
                    .locked
                    .push(key);
            }
        }
        self.writers
            .get_mut(&txn.id)
            .expect("checked above")
            .writes
            .push((key, value));
        Ok(())
    }

    /// Reads through a writer's own uncommitted writes, then the latest
    /// committed version.
    pub fn read_own(&self, txn: &WriteTxn, key: u64) -> Option<i64> {
        if let Some(state) = self.writers.get(&txn.id) {
            if let Some((_, v)) = state.writes.iter().rev().find(|(k, _)| *k == key) {
                return Some(*v);
            }
        }
        self.read_latest(key)
    }

    /// Commits: all buffered writes become visible atomically at a fresh
    /// timestamp. Returns that timestamp.
    pub fn commit(&mut self, txn: WriteTxn) -> Result<u64> {
        let state = self
            .writers
            .remove(&txn.id)
            .ok_or(Error::InvalidTransaction(txn.id))?;
        self.commit_clock += 1;
        let ts = self.commit_clock;
        // Last write per key wins within the transaction.
        let mut finals: HashMap<u64, i64> = HashMap::new();
        for (k, v) in state.writes {
            finals.insert(k, v);
        }
        for (k, v) in finals {
            self.versions.entry(k).or_default().push((ts, v));
        }
        for k in state.locked {
            self.write_locks.remove(&k);
        }
        #[cfg(debug_assertions)]
        self.audit()?;
        Ok(ts)
    }

    /// Aborts: buffered writes vanish, locks release. Readers never saw
    /// anything.
    pub fn abort(&mut self, txn: WriteTxn) -> Result<()> {
        let state = self
            .writers
            .remove(&txn.id)
            .ok_or(Error::InvalidTransaction(txn.id))?;
        for k in state.locked {
            self.write_locks.remove(&k);
        }
        Ok(())
    }

    /// The oldest snapshot any active reader holds (the GC horizon).
    pub fn gc_horizon(&self) -> u64 {
        let oldest = self.readers.values().min().copied();
        oldest.unwrap_or(self.commit_clock)
    }

    /// Garbage-collects versions no active reader can see: for each key,
    /// keeps the newest version at-or-below the horizon plus everything
    /// above it. Returns how many versions were dropped.
    pub fn gc(&mut self) -> usize {
        let horizon = self.gc_horizon();
        let mut dropped = 0;
        for versions in self.versions.values_mut() {
            let idx = versions.partition_point(|(ts, _)| *ts <= horizon);
            if idx > 1 {
                dropped += idx - 1;
                versions.drain(..idx - 1);
            }
        }
        dropped
    }
}

impl Auditable for VersionedStore {
    /// Verifies version-chain and lock bookkeeping: per-key version chains
    /// strictly ascend by commit timestamp and never exceed the commit
    /// clock, write locks and writer descriptors mirror each other
    /// exactly, and reader pins reference reachable snapshots. These are
    /// the conditions under which §6's "readers never block, never abort,
    /// never see a torn state" claim is actually safe.
    fn audit(&self) -> std::result::Result<(), AuditViolation> {
        const C: &str = "VersionedStore";
        for (key, versions) in &self.versions {
            AuditViolation::ensure(!versions.is_empty(), C, "version-chain", || {
                format!("key {key} has an empty version chain")
            })?;
            for w in versions.windows(2) {
                AuditViolation::ensure(w[0].0 < w[1].0, C, "version-order", || {
                    format!(
                        "key {key} versions out of order: ts {} then ts {}",
                        w[0].0, w[1].0
                    )
                })?;
            }
            let newest = versions.last().expect("non-empty checked above").0;
            AuditViolation::ensure(newest <= self.commit_clock, C, "version-horizon", || {
                format!(
                    "key {key} has version ts {newest} beyond commit clock {}",
                    self.commit_clock
                )
            })?;
        }
        for (key, owner) in &self.write_locks {
            let holds = self
                .writers
                .get(owner)
                .map(|s| s.locked.contains(key))
                .unwrap_or(false);
            AuditViolation::ensure(holds, C, "lock-ownership", || {
                format!("key {key} locked by txn {owner}, which does not record holding it")
            })?;
        }
        for (id, state) in &self.writers {
            AuditViolation::ensure(*id <= self.next_txn, C, "txn-ids", || {
                format!("writer {id} beyond allocator {}", self.next_txn)
            })?;
            for key in &state.locked {
                AuditViolation::ensure(
                    self.write_locks.get(key) == Some(id),
                    C,
                    "lock-ownership",
                    || format!("txn {id} records lock on key {key} it does not own"),
                )?;
            }
        }
        for (id, snapshot) in &self.readers {
            AuditViolation::ensure(*snapshot <= self.commit_clock, C, "reader-snapshot", || {
                format!(
                    "reader {id} snapshot {snapshot} beyond commit clock {}",
                    self.commit_clock
                )
            })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readers_see_a_frozen_snapshot() {
        let mut store = VersionedStore::new();
        let w = store.begin_write();
        store.write(&w, 1, 100).unwrap();
        store.write(&w, 2, 200).unwrap();
        store.commit(w).unwrap();

        let reader = store.begin_read();
        assert_eq!(store.read(&reader, 1), Some(100));

        // A writer commits *after* the reader's snapshot...
        let w2 = store.begin_write();
        store.write(&w2, 1, 111).unwrap();
        store.commit(w2).unwrap();

        // ...and the reader still sees the old world, while new readers
        // see the new one.
        assert_eq!(store.read(&reader, 1), Some(100));
        let fresh = store.begin_read();
        assert_eq!(store.read(&fresh, 1), Some(111));
        store.end_read(reader);
        store.end_read(fresh);
    }

    #[test]
    fn readers_never_conflict_with_writers() {
        let mut store = VersionedStore::new();
        let w0 = store.begin_write();
        store.write(&w0, 5, 50).unwrap();
        store.commit(w0).unwrap();
        let reader = store.begin_read();
        let w = store.begin_write();
        store.write(&w, 5, 51).unwrap(); // no conflict with the reader
        assert_eq!(store.read(&reader, 5), Some(50), "uncommitted invisible");
        store.commit(w).unwrap();
        assert_eq!(store.conflicts(), 0);
        store.end_read(reader);
    }

    #[test]
    fn writers_conflict_with_writers() {
        let mut store = VersionedStore::new();
        let w1 = store.begin_write();
        let w2 = store.begin_write();
        store.write(&w1, 9, 1).unwrap();
        assert!(matches!(
            store.write(&w2, 9, 2),
            Err(Error::LockConflict { .. })
        ));
        assert_eq!(store.conflicts(), 1);
        store.commit(w1).unwrap();
        // Lock released: w2 can proceed now.
        store.write(&w2, 9, 2).unwrap();
        store.commit(w2).unwrap();
        assert_eq!(store.read_latest(9), Some(2));
    }

    #[test]
    fn commit_is_atomic_across_keys() {
        let mut store = VersionedStore::new();
        let seed = store.begin_write();
        store.write(&seed, 1, 1_000).unwrap();
        store.write(&seed, 2, 1_000).unwrap();
        store.commit(seed).unwrap();

        let reader_before = store.begin_read();
        let transfer = store.begin_write();
        store.write(&transfer, 1, 900).unwrap();
        store.write(&transfer, 2, 1_100).unwrap();
        store.commit(transfer).unwrap();
        let reader_after = store.begin_read();

        // Both readers see a consistent total; neither sees half a
        // transfer.
        let total_b =
            store.read(&reader_before, 1).unwrap() + store.read(&reader_before, 2).unwrap();
        let total_a = store.read(&reader_after, 1).unwrap() + store.read(&reader_after, 2).unwrap();
        assert_eq!(total_b, 2_000);
        assert_eq!(total_a, 2_000);
        store.end_read(reader_before);
        store.end_read(reader_after);
    }

    #[test]
    fn abort_discards_everything() {
        let mut store = VersionedStore::new();
        let w = store.begin_write();
        store.write(&w, 3, 33).unwrap();
        assert_eq!(store.read_own(&w, 3), Some(33));
        store.abort(w).unwrap();
        assert_eq!(store.read_latest(3), None);
        // Lock released.
        let w2 = store.begin_write();
        store.write(&w2, 3, 34).unwrap();
        store.commit(w2).unwrap();
    }

    #[test]
    fn read_own_writes() {
        let mut store = VersionedStore::new();
        let w = store.begin_write();
        store.write(&w, 7, 1).unwrap();
        store.write(&w, 7, 2).unwrap();
        assert_eq!(store.read_own(&w, 7), Some(2), "last own write wins");
        store.commit(w).unwrap();
        assert_eq!(store.read_latest(7), Some(2));
        assert_eq!(
            store.versions.get(&7).unwrap().len(),
            1,
            "one version per key per commit"
        );
    }

    #[test]
    fn gc_respects_active_readers() {
        let mut store = VersionedStore::new();
        for i in 0..5 {
            let w = store.begin_write();
            store.write(&w, 1, i).unwrap();
            store.commit(w).unwrap();
        }
        assert_eq!(store.version_count(), 5);
        let reader = store.begin_read(); // pins ts = 5
        let w = store.begin_write();
        store.write(&w, 1, 99).unwrap();
        store.commit(w).unwrap(); // ts = 6
                                  // GC horizon is the reader's snapshot (5): versions 1..4 die, the
                                  // version visible at 5 and the one at 6 survive.
        let dropped = store.gc();
        assert_eq!(dropped, 4);
        assert_eq!(store.read(&reader, 1), Some(4));
        assert_eq!(store.read_latest(1), Some(99));
        store.end_read(reader);
        // With no readers, everything but the latest can go.
        let dropped2 = store.gc();
        assert_eq!(dropped2, 1);
        assert_eq!(store.version_count(), 1);
    }

    #[test]
    fn dead_transactions_rejected() {
        let mut store = VersionedStore::new();
        let w = store.begin_write();
        store.commit(w).unwrap();
        assert!(store.write(&w, 1, 1).is_err());
        assert!(store.commit(w).is_err());
        assert!(store.abort(w).is_err());
    }
}
