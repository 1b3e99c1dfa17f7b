//! The lock manager of §5.2's pre-commit protocol.
//!
//! Each lock carries two sets: transactions **holding** it and
//! transactions **waiting** for it. [`LockManager::release`] runs at
//! pre-commit, so others may read the committer's dirty data, and after an
//! abort's undo; either way the transaction is forgotten. There are no
//! pre-committed sets or dependency lists: a dependent's commit record
//! follows its dependency's, and durability is an LSN prefix.

use mmdb_types::{AuditViolation, Auditable, Error, Result, TxnId};
use std::collections::{HashMap, HashSet};

/// A lockable object (a key of the memory-resident database).
pub type LockId = u64;

/// Lock modes: standard two-phase locking compatibility (S–S compatible,
/// anything involving X conflicts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Shared — readers.
    Shared,
    /// Exclusive — writers.
    Exclusive,
}

#[derive(Debug, Default)]
struct Lock {
    holders: HashMap<TxnId, LockMode>,
    waiters: Vec<TxnId>,
}

/// The §5.2 lock manager, with standard shared/exclusive modes. (The §5
/// workload is updates, so `acquire` defaults to exclusive; readers use
/// [`LockManager::acquire_shared`].)
#[derive(Debug, Default)]
pub struct LockManager {
    locks: HashMap<LockId, Lock>,
    /// Registered transactions and the locks each holds.
    txns: HashMap<TxnId, HashSet<LockId>>,
}

impl LockManager {
    /// A fresh manager.
    pub fn new() -> Self {
        LockManager::default()
    }

    /// Registers a transaction.
    pub fn begin(&mut self, txn: TxnId) {
        self.txns.entry(txn).or_default();
    }

    /// Whether the transaction is registered.
    pub fn is_active(&self, txn: TxnId) -> bool {
        self.txns.contains_key(&txn)
    }

    /// Tries to acquire an **exclusive** lock. On conflict the transaction
    /// is enqueued as a waiter and `Err(LockConflict)` is returned (the §5
    /// single-site model has no blocking threads — callers retry or
    /// abort).
    pub fn acquire(&mut self, txn: TxnId, object: LockId) -> Result<()> {
        self.acquire_mode(txn, object, LockMode::Exclusive)
    }

    /// Tries to acquire a **shared** lock: compatible with other shared
    /// holders, conflicts with an exclusive holder.
    pub fn acquire_shared(&mut self, txn: TxnId, object: LockId) -> Result<()> {
        self.acquire_mode(txn, object, LockMode::Shared)
    }

    fn acquire_mode(&mut self, txn: TxnId, object: LockId, mode: LockMode) -> Result<()> {
        let Some(held) = self.txns.get_mut(&txn) else {
            return Err(Error::InvalidTransaction(txn.0));
        };
        let lock = self.locks.entry(object).or_default();
        match lock.holders.get(&txn) {
            Some(LockMode::Exclusive) => return Ok(()), // re-entrant, any mode
            Some(LockMode::Shared) if mode == LockMode::Shared => return Ok(()),
            _ => {}
        }
        let others_conflict = lock
            .holders
            .iter()
            .any(|(h, m)| *h != txn && (mode == LockMode::Exclusive || *m == LockMode::Exclusive));
        if others_conflict {
            if !lock.waiters.contains(&txn) {
                lock.waiters.push(txn);
            }
            return Err(Error::LockConflict {
                txn: txn.0,
                object: format!("key {object}"),
            });
        }
        // Grant (possibly upgrading our own Shared to Exclusive).
        lock.holders.insert(txn, mode);
        lock.waiters.retain(|w| *w != txn);
        held.insert(object);
        Ok(())
    }

    /// Releases everything `txn` holds, drops its waiter entries and
    /// forgets it; returns whether it was registered. Runs at pre-commit
    /// (§5.2: locks go before the commit record is durable) and after an
    /// abort's undo.
    pub fn release(&mut self, txn: TxnId) -> bool {
        let Some(held) = self.txns.remove(&txn) else {
            return false;
        };
        for obj in held {
            if let Some(lock) = self.locks.get_mut(&obj) {
                lock.holders.remove(&txn);
            }
        }
        // A released transaction never retries an acquire: drop any stale
        // waiter entries it left behind.
        for lock in self.locks.values_mut() {
            lock.waiters.retain(|w| *w != txn);
        }
        self.locks
            .retain(|_, l| !(l.holders.is_empty() && l.waiters.is_empty()));
        true
    }

    /// Current waiters on an object, in arrival order (test/diagnostic).
    pub fn waiters(&self, object: LockId) -> Vec<TxnId> {
        self.locks
            .get(&object)
            .map(|l| l.waiters.clone())
            .unwrap_or_default()
    }

    /// The current waits-for edges (waiter → every holder of the lock it
    /// waits on). A sharded lock table (§5.2 scaled out) runs deadlock
    /// detection globally: each partition contributes its edges and the
    /// union goes through [`detect_deadlocks_in`] — a cycle spanning
    /// partitions is invisible to any single one of them.
    pub fn waits_for_edges(&self) -> Vec<(TxnId, TxnId)> {
        let mut edges = Vec::new();
        for lock in self.locks.values() {
            for w in &lock.waiters {
                for h in lock.holders.keys() {
                    if w != h {
                        edges.push((*w, *h));
                    }
                }
            }
        }
        edges
    }

    /// Detects a deadlock in the waits-for graph (waiter → every holder of
    /// the lock it waits on). Returns one transaction per cycle found —
    /// the victim a §5-style system would abort. Pre-committed
    /// transactions never appear: [`Self::release`] forgot them.
    pub fn detect_deadlocks(&self) -> Vec<TxnId> {
        detect_deadlocks_in(&self.waits_for_edges())
    }

    /// Live locks (test/diagnostic).
    pub fn lock_count(&self) -> usize {
        self.locks.len()
    }
}

/// Cycle detection over an explicit waits-for edge list — the §5-style
/// deadlock detector, factored out so a sharded lock table can merge the
/// edges of every partition ([`LockManager::waits_for_edges`]) and find
/// cross-partition cycles. Returns one victim per cycle (the youngest
/// participant). Edges may be a point-in-time merge of independently
/// snapshotted partitions, so a reported cycle can be *phantom* (already
/// broken by the time the caller acts); aborting a phantom victim costs
/// a retry, never correctness.
pub fn detect_deadlocks_in(edge_list: &[(TxnId, TxnId)]) -> Vec<TxnId> {
    let mut edges: HashMap<TxnId, Vec<TxnId>> = HashMap::new();
    for (w, h) in edge_list {
        if w != h {
            edges.entry(*w).or_default().push(*h);
        }
    }
    // Iterative DFS cycle detection with three-color marking.
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Grey,
        Black,
    }
    let mut color: HashMap<TxnId, Color> = HashMap::new();
    let mut victims = Vec::new();
    let mut nodes: Vec<TxnId> = edges.keys().copied().collect();
    nodes.sort();
    for start in nodes {
        if *color.get(&start).unwrap_or(&Color::White) != Color::White {
            continue;
        }
        // Stack of (node, next child index).
        let mut stack: Vec<(TxnId, usize)> = vec![(start, 0)];
        color.insert(start, Color::Grey);
        while let Some(&mut (node, ref mut idx)) = stack.last_mut() {
            let children = edges.get(&node).map(|v| v.as_slice()).unwrap_or(&[]);
            if *idx < children.len() {
                let child = children[*idx];
                *idx += 1;
                match color.get(&child).copied().unwrap_or(Color::White) {
                    Color::White => {
                        color.insert(child, Color::Grey);
                        stack.push((child, 0));
                    }
                    Color::Grey => {
                        // Cycle: the youngest participant is the victim.
                        let cycle_start = stack.iter().position(|(n, _)| *n == child).unwrap_or(0);
                        let victim = stack[cycle_start..]
                            .iter()
                            .map(|(n, _)| *n)
                            .max()
                            .expect("cycle non-empty");
                        if !victims.contains(&victim) {
                            victims.push(victim);
                        }
                    }
                    Color::Black => {}
                }
            } else {
                color.insert(node, Color::Black);
                stack.pop();
            }
        }
    }
    victims
}

impl Auditable for LockManager {
    /// Verifies the §5.2 lock-table invariants: every holder and waiter is
    /// registered (so a released transaction holds and waits on nothing);
    /// no transaction both holds and waits on the same lock; exclusive
    /// holders are sole holders; and each transaction's held set mirrors
    /// the per-lock holder sets exactly.
    fn audit(&self) -> std::result::Result<(), AuditViolation> {
        const C: &str = "LockManager";
        for (obj, lock) in &self.locks {
            AuditViolation::ensure(
                !(lock.holders.is_empty() && lock.waiters.is_empty()),
                C,
                "lock-gc",
                || format!("lock {obj} survived gc with no holders or waiters"),
            )?;
            for txn in lock.holders.keys().chain(lock.waiters.iter()) {
                AuditViolation::ensure(self.txns.contains_key(txn), C, "registered", || {
                    format!("lock {obj} references unregistered txn {}", txn.0)
                })?;
            }
            for txn in &lock.waiters {
                // A shared holder may wait on its own lock (a blocked
                // shared-to-exclusive upgrade); an exclusive holder has
                // nothing left to wait for.
                AuditViolation::ensure(
                    lock.holders.get(txn) != Some(&LockMode::Exclusive),
                    C,
                    "holder-not-waiter",
                    || {
                        format!(
                            "txn {} holds lock {obj} exclusively yet still waits on it",
                            txn.0
                        )
                    },
                )?;
            }
            let exclusive = lock
                .holders
                .iter()
                .filter(|(_, m)| **m == LockMode::Exclusive)
                .count();
            AuditViolation::ensure(
                exclusive == 0 || lock.holders.len() == 1,
                C,
                "mode-compatibility",
                || {
                    format!(
                        "lock {obj} has an exclusive holder among {} holders",
                        lock.holders.len()
                    )
                },
            )?;
            for txn in lock.holders.keys() {
                let recorded = self.txns.get(txn).is_some_and(|held| held.contains(obj));
                AuditViolation::ensure(recorded, C, "held-bookkeeping", || {
                    format!("txn {} holds lock {obj} but its held set omits it", txn.0)
                })?;
            }
        }
        for (txn, held) in &self.txns {
            for obj in held {
                let holds = self
                    .locks
                    .get(obj)
                    .is_some_and(|l| l.holders.contains_key(txn));
                AuditViolation::ensure(holds, C, "held-bookkeeping", || {
                    format!("txn {} held set claims lock {obj} it does not hold", txn.0)
                })?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exclusive_conflict_and_waiting() {
        let mut lm = LockManager::new();
        lm.begin(TxnId(1));
        lm.begin(TxnId(2));
        lm.acquire(TxnId(1), 10).unwrap();
        // Re-entrant acquire is fine.
        lm.acquire(TxnId(1), 10).unwrap();
        let err = lm.acquire(TxnId(2), 10).unwrap_err();
        assert!(matches!(err, Error::LockConflict { .. }));
        assert_eq!(lm.waiters(10), vec![TxnId(2)]);
    }

    #[test]
    fn release_frees_the_locks_and_forgets_the_txn() {
        let mut lm = LockManager::new();
        lm.begin(TxnId(1));
        lm.begin(TxnId(2));
        lm.acquire(TxnId(1), 10).unwrap();
        assert!(lm.acquire(TxnId(2), 11).is_ok());
        assert!(lm.acquire(TxnId(2), 10).is_err());
        // Pre-commit: T1 leaves, so T2 takes the lock — reading T1's
        // uncommitted data — and nothing records the dependency; T2's
        // commit record simply follows T1's in the log.
        assert!(lm.release(TxnId(1)));
        assert!(!lm.is_active(TxnId(1)));
        assert!(!lm.release(TxnId(1)), "a released txn is forgotten");
        lm.acquire(TxnId(2), 10).unwrap();
        assert!(lm.waiters(10).is_empty());
        assert!(matches!(
            lm.acquire(TxnId(1), 12),
            Err(Error::InvalidTransaction(1))
        ));
    }

    #[test]
    fn release_drops_stale_waiter_entries() {
        let mut lm = LockManager::new();
        lm.begin(TxnId(1));
        lm.begin(TxnId(2));
        lm.acquire(TxnId(1), 5).unwrap();
        assert!(lm.acquire(TxnId(2), 5).is_err());
        assert_eq!(lm.waiters(5), vec![TxnId(2)]);
        lm.release(TxnId(2));
        assert!(lm.waiters(5).is_empty());
        assert!(lm.audit().is_ok());
    }

    #[test]
    fn unknown_transaction_rejected() {
        let mut lm = LockManager::new();
        assert!(matches!(
            lm.acquire(TxnId(99), 1),
            Err(Error::InvalidTransaction(99))
        ));
        assert!(!lm.release(TxnId(99)));
    }

    #[test]
    fn shared_locks_are_compatible_with_each_other() {
        let mut lm = LockManager::new();
        for i in 1..=3 {
            lm.begin(TxnId(i));
        }
        lm.acquire_shared(TxnId(1), 5).unwrap();
        lm.acquire_shared(TxnId(2), 5).unwrap();
        // A writer conflicts with the readers...
        assert!(lm.acquire(TxnId(3), 5).is_err());
        // ...and a reader conflicts with a writer elsewhere.
        lm.acquire(TxnId(3), 6).unwrap();
        assert!(lm.acquire_shared(TxnId(1), 6).is_err());
        // Re-entrant shared acquisition is a no-op.
        lm.acquire_shared(TxnId(1), 5).unwrap();
    }

    #[test]
    fn shared_to_exclusive_upgrade() {
        let mut lm = LockManager::new();
        lm.begin(TxnId(1));
        lm.begin(TxnId(2));
        lm.acquire_shared(TxnId(1), 9).unwrap();
        // Sole shared holder may upgrade.
        lm.acquire(TxnId(1), 9).unwrap();
        assert!(lm.acquire_shared(TxnId(2), 9).is_err(), "now exclusive");
        // With two shared holders, neither may upgrade.
        let mut lm2 = LockManager::new();
        lm2.begin(TxnId(1));
        lm2.begin(TxnId(2));
        lm2.acquire_shared(TxnId(1), 9).unwrap();
        lm2.acquire_shared(TxnId(2), 9).unwrap();
        assert!(lm2.acquire(TxnId(1), 9).is_err());
    }

    #[test]
    fn shared_readers_of_precommitted_data_are_granted() {
        // §5.2's very scenario: a reader of a pre-committed writer's dirty
        // data is granted at once; the LSN orders its commit after the
        // writer's.
        let mut lm = LockManager::new();
        lm.begin(TxnId(1));
        lm.begin(TxnId(2));
        lm.acquire(TxnId(1), 7).unwrap();
        lm.release(TxnId(1));
        lm.acquire_shared(TxnId(2), 7).unwrap();
        assert!(lm.detect_deadlocks().is_empty());
    }

    #[test]
    fn detects_two_party_deadlock() {
        let mut lm = LockManager::new();
        lm.begin(TxnId(1));
        lm.begin(TxnId(2));
        lm.acquire(TxnId(1), 10).unwrap();
        lm.acquire(TxnId(2), 20).unwrap();
        // Cross-wait.
        assert!(lm.acquire(TxnId(1), 20).is_err());
        assert!(lm.acquire(TxnId(2), 10).is_err());
        let victims = lm.detect_deadlocks();
        assert_eq!(victims, vec![TxnId(2)], "youngest participant dies");
        // Aborting the victim clears the cycle.
        lm.release(TxnId(2));
        assert!(lm.detect_deadlocks().is_empty());
        lm.acquire(TxnId(1), 20).unwrap();
    }

    #[test]
    fn detects_three_party_cycle_but_not_chains() {
        let mut lm = LockManager::new();
        for i in 1..=4 {
            lm.begin(TxnId(i));
        }
        lm.acquire(TxnId(1), 1).unwrap();
        lm.acquire(TxnId(2), 2).unwrap();
        lm.acquire(TxnId(3), 3).unwrap();
        // A plain waiting chain 4→1, 1→2, 2→3 is no deadlock.
        assert!(lm.acquire(TxnId(4), 1).is_err());
        assert!(lm.acquire(TxnId(1), 2).is_err());
        assert!(lm.acquire(TxnId(2), 3).is_err());
        assert!(lm.detect_deadlocks().is_empty(), "chains are fine");
        // Closing the loop (3 → 1's lock) creates a 3-cycle.
        assert!(lm.acquire(TxnId(3), 1).is_err());
        let victims = lm.detect_deadlocks();
        assert_eq!(victims.len(), 1);
        assert!(victims[0].0 >= 1 && victims[0].0 <= 3);
    }

    #[test]
    fn audit_rejects_an_unregistered_waiter() {
        let mut lm = LockManager::new();
        lm.begin(TxnId(1));
        lm.begin(TxnId(2));
        lm.acquire(TxnId(1), 5).unwrap();
        assert!(lm.acquire(TxnId(2), 5).is_err());
        assert!(lm.audit().is_ok());
        // Forget T2 without its waiter sweep.
        lm.txns.remove(&TxnId(2));
        let err = lm.audit().unwrap_err();
        assert_eq!(err.invariant, "registered", "{err:?}");
    }

    #[test]
    fn gc_removes_dead_locks() {
        let mut lm = LockManager::new();
        lm.begin(TxnId(1));
        lm.acquire(TxnId(1), 1).unwrap();
        lm.acquire(TxnId(1), 2).unwrap();
        assert_eq!(lm.lock_count(), 2);
        lm.release(TxnId(1));
        assert_eq!(lm.lock_count(), 0);
    }
}
