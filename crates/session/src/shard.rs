//! Lock-table shards and the transaction table (§5.2 made scalable).
//!
//! PR 2's engine funnelled every begin/read/write/precommit/abort through
//! one `Mutex<CoreState>`, so the §5.2 design — pre-commit exists
//! precisely so lock traffic never waits on the log — could not show the
//! concurrency it buys: a single mutex *is* a log-shaped choke point,
//! just a volatile one. This module splits that state by key hash into N
//! [`Shard`]s, each owning its slice of the store — `u64` keys to
//! immutable byte [`Record`]s, so replacing a value swaps one pointer
//! and the old allocation lives on as the undo pre-image — its
//! [`LockManager`] partition, and the undo entries for its own keys,
//! guarded by a per-shard `Mutex` + `Condvar`. Transaction ids come from
//! an atomic counter and per-transaction bookkeeping lives in the
//! [`TxnTable`], sharded by transaction id, so no global lock sits on the
//! transaction hot path.
//!
//! **Lock-ordering discipline** (a thread may only acquire downward;
//! engine-wide order, continued by `queue` → `durable` in
//! [`crate::log_writer`]):
//!
//! 1. shard state locks, in ascending shard index,
//! 2. one transaction-table slot lock (slots are leaves: a thread never
//!    holds two, and may take one while holding shard locks),
//! 3. the log queue lock,
//! 4. the durability table lock.
//!
//! Multi-shard operations — precommit lock release, abort rollback,
//! commit finalization, audit — lock the shards they touch in ascending
//! index order, which makes lock-order cycles impossible. Single-key
//! operations lock exactly one shard and never see the others.

use mmdb_recovery::{LockManager, Record};
use mmdb_types::{Error, Result, TxnId};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// Hard ceiling on the shard count: shard membership is tracked as a bit
/// mask in a `u64` (§5.2 scaling needs tens of shards, not thousands).
pub(crate) const MAX_SHARDS: usize = 64;

/// Number of transaction-table slots; a power of two so the modulo is a
/// mask. Slots only serialize id-adjacent transactions briefly, so a
/// small fixed count suffices (§5.2's hot path holds a slot lock for a
/// few map operations at most).
const TXN_SLOTS: usize = 16;

/// The shard a key lives on: Fibonacci hashing spreads the dense integer
/// keys the §5 workloads use evenly across shards.
pub(crate) fn shard_of(key: u64, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    ((key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % shards as u64) as usize
}

/// One §5.2 undo entry: the pre-image a rollback restores, stamped with
/// the shard's write sequence. Descending sequence exactly reverses
/// application order within the shard, even across pre-commit dependency
/// chains where one in-flight transaction overwrote another's value —
/// the order the §5.3 sweeper backs in-flight writes out of its copy in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct UndoEntry {
    /// Updated key (owned by this shard).
    pub key: u64,
    /// Pre-image (`None` for an insert) — the allocation the store held
    /// before the write. Never logged (§5.4).
    pub old: Option<Record>,
    /// This write's position in the shard's write sequence.
    pub seq: u64,
}

/// One transaction's undo entries on one shard, in write order — its
/// only log until pre-commit derives the redo records from it and stamps
/// where they went: `logged` is the (first, commit) LSNs of the
/// transaction's one contiguous run, `None` while it is active.
#[derive(Debug, Default)]
pub(crate) struct UndoList {
    pub entries: Vec<UndoEntry>,
    pub logged: Option<(u64, u64)>,
}

/// One shard's slice of the volatile engine state: its keys' current
/// values, its partition of the §5.2 lock table, and the undo entries
/// for its own keys (in write order, per transaction). Every key in
/// `db`, `locks`, and `undo` hashes to this shard — the audit checks it.
#[derive(Debug, Default)]
pub(crate) struct ShardState {
    /// This shard's slice of the §5 memory-resident store.
    pub db: HashMap<u64, Record>,
    /// This shard's partition of the §5.2 lock table.
    pub locks: LockManager,
    /// Per-transaction undo entries for keys owned by this shard.
    pub undo: HashMap<TxnId, UndoList>,
    /// Writes applied to this shard so far ([`UndoEntry::seq`]).
    pub writes: u64,
    /// §5.3 dirty flag: set (under the shard guard) by every write and
    /// rollback, cleared by the checkpoint sweeper when it caches a
    /// settled image of this shard — so successive sweeps only re-copy
    /// shards that actually mutated.
    pub dirty: bool,
}

impl ShardState {
    /// Applies `key := value` for `txn`, which holds the key's exclusive
    /// lock, keeping the replaced record as the undo pre-image.
    pub fn write(&mut self, txn: TxnId, key: u64, value: Record) {
        self.writes += 1;
        let old = self.db.insert(key, value);
        self.undo.entry(txn).or_default().entries.push(UndoEntry {
            key,
            old,
            seq: self.writes,
        });
        self.dirty = true;
    }

    /// The distinct keys `txn` wrote on this shard, each with the record
    /// it holds now (shared, not copied): the transaction's redo image.
    pub fn redo_image(&self, txn: TxnId) -> BTreeMap<u64, Record> {
        self.undo
            .get(&txn)
            .into_iter()
            .flat_map(|list| &list.entries)
            .filter_map(|e| Some((e.key, Record::clone(self.db.get(&e.key)?))))
            .collect()
    }
}

/// A shard: its state under a mutex, plus the condvar lock waiters park
/// on. Signalled whenever locks are released on this shard (precommit,
/// abort).
#[derive(Debug, Default)]
pub(crate) struct Shard {
    pub state: Mutex<ShardState>,
    pub lock_cv: Condvar,
}

impl Shard {
    /// A shard born around its slice of the restart image, so startup
    /// never has to take (or recover) a state lock.
    pub fn with_db(db: HashMap<u64, Record>) -> Self {
        Shard {
            state: Mutex::new(ShardState {
                db,
                ..ShardState::default()
            }),
            lock_cv: Condvar::new(),
        }
    }

    /// Locks this shard's state, mapping poison to an error.
    pub fn guard(&self) -> Result<MutexGuard<'_, ShardState>> {
        self.state
            .lock()
            .map_err(|_| Error::Poisoned("shard state".into()))
    }
}

/// Where a transaction is in its §5.2 lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TxnPhase {
    /// Begun, may acquire locks and write.
    Active,
    /// An abort is rolling it back; no new work may attach to it.
    Aborting,
    /// Pre-committed (§5.2): locks released, commit record queued; the
    /// entry survives until the commit is durable and its undo lists go.
    Precommitted,
}

/// Per-transaction bookkeeping: which shards it touched (bit `i` set =
/// shard `i`) and its lifecycle phase. The mask may overestimate — a
/// failed acquire still sets the bit — which only costs a no-op visit at
/// precommit, abort or durable time. The two instants feed the engine's
/// latency histograms: `begun_at` → commit latency (begin to durable),
/// `locked_at` → lock hold time (first acquisition to precommit).
#[derive(Debug, Clone, Copy)]
pub(crate) struct TxnMeta {
    pub mask: u64,
    pub phase: TxnPhase,
    /// When the transaction registered (its begin).
    pub begun_at: Instant,
    /// When it first touched any shard's lock table, if it has.
    pub locked_at: Option<Instant>,
}

/// The transaction table: `TxnMeta` per live transaction, sharded by
/// transaction id so concurrent begins/commits on different transactions
/// do not serialize. Slot locks are leaves of the lock order: a thread
/// never holds two slots, and may take one while holding shard locks.
#[derive(Debug)]
pub(crate) struct TxnTable {
    slots: Vec<Mutex<HashMap<TxnId, TxnMeta>>>,
}

impl TxnTable {
    /// An empty table.
    pub fn new() -> Self {
        TxnTable {
            slots: (0..TXN_SLOTS).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    fn slot(&self, txn: TxnId) -> Result<MutexGuard<'_, HashMap<TxnId, TxnMeta>>> {
        self.slots
            .get(txn.0 as usize % TXN_SLOTS)
            .ok_or_else(|| Error::Poisoned("txn table slot".into()))?
            .lock()
            .map_err(|_| Error::Poisoned("txn table slot".into()))
    }

    /// Registers a freshly begun transaction, stamping its begin time.
    pub fn register(&self, txn: TxnId) -> Result<()> {
        self.slot(txn)?.insert(
            txn,
            TxnMeta {
                mask: 0,
                phase: TxnPhase::Active,
                begun_at: Instant::now(),
                locked_at: None,
            },
        );
        Ok(())
    }

    /// Removes a transaction (abort cleanup or commit finalization).
    pub fn remove(&self, txn: TxnId) -> Result<()> {
        self.slot(txn)?.remove(&txn);
        Ok(())
    }

    /// The transaction's current meta, if it is live.
    pub fn get(&self, txn: TxnId) -> Result<Option<TxnMeta>> {
        Ok(self.slot(txn)?.get(&txn).copied())
    }

    /// Marks shard `shard` as touched by an *active* `txn`. Fails with
    /// [`Error::InvalidTransaction`] when the transaction is unknown or
    /// no longer active — the check and the mask update are atomic under
    /// the slot lock, so no work can attach to a transaction that a
    /// concurrent commit or abort has already claimed.
    pub fn touch(&self, txn: TxnId, shard: usize) -> Result<()> {
        let mut slot = self.slot(txn)?;
        match slot.get_mut(&txn) {
            Some(meta) if meta.phase == TxnPhase::Active => {
                meta.mask |= 1 << shard;
                if meta.locked_at.is_none() {
                    meta.locked_at = Some(Instant::now());
                }
                Ok(())
            }
            _ => Err(Error::InvalidTransaction(txn.0)),
        }
    }

    /// Atomically moves an active `txn` into `next` (Precommitted or
    /// Aborting) *iff* its shard mask still equals `expected_mask`,
    /// returning `true` on success. A `false` return with the
    /// transaction still active means a concurrent operation touched a
    /// new shard between the caller's mask read and its shard locking —
    /// re-read and retry. An inactive transaction is an error.
    pub fn claim(&self, txn: TxnId, expected_mask: u64, next: TxnPhase) -> Result<bool> {
        let mut slot = self.slot(txn)?;
        match slot.get_mut(&txn) {
            Some(meta) if meta.phase == TxnPhase::Active => {
                if meta.mask == expected_mask {
                    meta.phase = next;
                    Ok(true)
                } else {
                    Ok(false)
                }
            }
            _ => Err(Error::InvalidTransaction(txn.0)),
        }
    }

    /// Every live transaction's id and meta, for the stop-the-world
    /// audit (slots are locked one at a time; callers must hold no slot).
    pub fn snapshot(&self) -> Result<Vec<(TxnId, TxnMeta)>> {
        let mut out = Vec::new();
        for slot in &self.slots {
            let slot = slot
                .lock()
                .map_err(|_| Error::Poisoned("txn table slot".into()))?;
            out.extend(slot.iter().map(|(t, m)| (*t, *m)));
        }
        Ok(out)
    }
}

/// Undoes `txn`'s writes on one shard in reverse write order and releases
/// its locks there. The caller holds the shard lock and notifies its
/// `lock_cv` afterwards (§5.2 abort, restricted to one shard's keys).
pub(crate) fn rollback_shard(state: &mut ShardState, txn: TxnId) {
    if let Some(list) = state.undo.remove(&txn) {
        state.dirty = !list.entries.is_empty() || state.dirty;
        for entry in list.entries.into_iter().rev() {
            match entry.old {
                Some(v) => state.db.insert(entry.key, v),
                None => state.db.remove(&entry.key),
            };
        }
    }
    state.locks.release(txn);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for shards in [1usize, 2, 3, 8, 16, 64] {
            for key in 0u64..500 {
                let s = shard_of(key, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(key, shards), "deterministic");
            }
        }
    }

    #[test]
    fn shard_of_spreads_dense_keys() {
        let shards = 8;
        let mut counts = vec![0usize; shards];
        for key in 0u64..800 {
            counts[shard_of(key, shards)] += 1;
        }
        for (i, c) in counts.iter().enumerate() {
            assert!(
                (50..=150).contains(c),
                "shard {i} got {c} of 800 dense keys — hash is lumpy"
            );
        }
    }

    #[test]
    fn txn_table_lifecycle() {
        let table = TxnTable::new();
        let t = TxnId(7);
        table.register(t).unwrap();
        table.touch(t, 3).unwrap();
        table.touch(t, 5).unwrap();
        let meta = table.get(t).unwrap().unwrap();
        assert_eq!(meta.mask, (1 << 3) | (1 << 5));
        assert_eq!(meta.phase, TxnPhase::Active);
        // A stale mask is rejected; the fresh one claims the transaction.
        assert!(!table.claim(t, 1 << 3, TxnPhase::Precommitted).unwrap());
        assert!(table.claim(t, meta.mask, TxnPhase::Precommitted).unwrap());
        // Once claimed, no new work may attach and a second claim fails.
        assert!(matches!(
            table.touch(t, 0),
            Err(Error::InvalidTransaction(7))
        ));
        assert!(matches!(
            table.claim(t, meta.mask, TxnPhase::Aborting),
            Err(Error::InvalidTransaction(7))
        ));
        table.remove(t).unwrap();
        assert!(table.get(t).unwrap().is_none());
    }

    #[test]
    fn rollback_restores_pre_images_in_reverse() {
        let mut state = ShardState::default();
        let txn = TxnId(1);
        state.locks.begin(txn);
        let rec = |byte: u8| Record::from(&[byte][..]);
        state.write(txn, 1, rec(10));
        state.write(txn, 2, rec(99));
        state.write(txn, 1, rec(100));
        let seqs: Vec<u64> = state.undo[&txn].entries.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [1, 2, 3], "the shard's write sequence");
        rollback_shard(&mut state, txn);
        assert_eq!(state.db.get(&1), None, "first write's pre-image wins");
        assert_eq!(state.db.get(&2), None);
        assert!(state.undo.is_empty());
    }

    #[test]
    fn redo_image_is_one_record_per_key_with_the_last_value() {
        let mut state = ShardState::default();
        let (txn, other) = (TxnId(1), TxnId(2));
        let rec = |byte: u8| Record::from(&[byte][..]);
        state.write(other, 7, rec(70));
        for v in [1, 2, 3] {
            state.write(txn, 5, rec(v));
        }
        state.write(txn, 4, rec(40));
        let image = state.redo_image(txn);
        assert_eq!(image, BTreeMap::from([(4, rec(40)), (5, rec(3))]));
        assert!(Arc::ptr_eq(&image[&5], &state.db[&5]));
        assert!(state.redo_image(TxnId(9)).is_empty());
    }
}
