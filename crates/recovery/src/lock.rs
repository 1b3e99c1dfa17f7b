//! The lock manager, extended for pre-committed transactions (§5.2).
//!
//! Each lock carries the paper's three sets: transactions **holding** the
//! lock, transactions **waiting** for it, and **pre-committed**
//! transactions that released it but whose commit records are not yet on
//! disk. When a transaction is granted a lock it becomes *dependent* on
//! the pre-committed transactions that formerly held it; the dependency
//! list lives in the transaction's descriptor, and the log manager must
//! not write a dependent's commit record before its dependencies'.

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
    precommitted: HashSet<TxnId>,
}

/// Descriptor of an active transaction in the lock manager.
#[derive(Debug, Default, Clone)]
pub struct TxnDescriptor {
    /// Locks currently held.
    pub held: HashSet<LockId>,
    /// Pre-committed transactions this one depends on (§5.2: "when a
    /// transaction is granted a lock, it becomes dependent on the
    /// pre-committed transactions that formerly held the lock").
    pub dependencies: HashSet<TxnId>,
}

/// The §5.2 lock manager, with standard shared/exclusive modes. (The §5
/// workload is updates, so `acquire` defaults to exclusive; readers use
/// [`LockManager::acquire_shared`].)
#[derive(Debug, Default)]
pub struct LockManager {
    locks: HashMap<LockId, Lock>,
    txns: HashMap<TxnId, TxnDescriptor>,
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

    /// The transaction's descriptor.
    pub fn descriptor(&self, txn: TxnId) -> Option<&TxnDescriptor> {
        self.txns.get(&txn)
    }

    /// Tries to acquire an **exclusive** lock. On success the transaction
    /// inherits dependencies on every pre-committed former holder. On
    /// conflict the transaction is enqueued as a waiter and
    /// `Err(LockConflict)` is returned (the §5 single-site model has no
    /// blocking threads — callers retry or abort).
    pub fn acquire(&mut self, txn: TxnId, object: LockId) -> Result<()> {
        self.acquire_mode(txn, object, LockMode::Exclusive)
    }

    /// Tries to acquire a **shared** lock: compatible with other shared
    /// holders, conflicts with an exclusive holder. Reading the dirty data
    /// of a pre-committed writer creates the §5.2 dependency.
    pub fn acquire_shared(&mut self, txn: TxnId, object: LockId) -> Result<()> {
        self.acquire_mode(txn, object, LockMode::Shared)
    }

    fn acquire_mode(&mut self, txn: TxnId, object: LockId, mode: LockMode) -> Result<()> {
        if !self.txns.contains_key(&txn) {
            return Err(Error::InvalidTransaction(txn.0));
        }
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
        // Inherit dependencies on pre-committed former holders.
        let deps: Vec<TxnId> = lock.precommitted.iter().copied().collect();
        let desc = self.txns.get_mut(&txn).expect("registered above");
        desc.held.insert(object);
        for d in deps {
            if d != txn {
                desc.dependencies.insert(d);
            }
        }
        Ok(())
    }

    /// Moves a transaction to the pre-committed state: it leaves every
    /// holder set for the pre-committed set of its locks, so others can
    /// read its dirty data, and its dependency list is returned for the
    /// log manager's commit-group ordering.
    pub fn precommit(&mut self, txn: TxnId) -> Result<HashSet<TxnId>> {
        let desc = self
            .txns
            .get(&txn)
            .ok_or(Error::InvalidTransaction(txn.0))?
            .clone();
        for obj in &desc.held {
            let lock = self.locks.get_mut(obj).expect("held lock exists");
            lock.holders.remove(&txn);
            lock.precommitted.insert(txn);
        }
        // A pre-committed transaction has finished its work and will never
        // retry an acquire: drop any stale waiter entries it left behind
        // (§5.2 — pre-committed transactions hold no locks and never wait).
        for lock in self.locks.values_mut() {
            lock.waiters.retain(|w| *w != txn);
        }
        let deps = desc.dependencies.clone();
        let d = self.txns.get_mut(&txn).expect("exists");
        d.held.clear();
        self.gc();
        Ok(deps)
    }

    /// Finalizes a commit: the transaction's commit record is durable, so
    /// it leaves every pre-committed set and every dependency list
    /// (§5.2: "the committed transactions in its dependency list are
    /// removed").
    pub fn finalize_commit(&mut self, txn: TxnId) {
        for lock in self.locks.values_mut() {
            lock.precommitted.remove(&txn);
        }
        for desc in self.txns.values_mut() {
            desc.dependencies.remove(&txn);
        }
        self.txns.remove(&txn);
        self.gc();
    }

    /// Releases everything on abort (a pre-committed transaction never
    /// aborts — §5.2 — so this only sees plain active transactions).
    pub fn abort(&mut self, txn: TxnId) {
        if let Some(desc) = self.txns.remove(&txn) {
            for obj in desc.held {
                if let Some(lock) = self.locks.get_mut(&obj) {
                    lock.holders.remove(&txn);
                }
            }
        }
        for lock in self.locks.values_mut() {
            lock.waiters.retain(|w| *w != txn);
            lock.precommitted.remove(&txn);
        }
        for desc in self.txns.values_mut() {
            desc.dependencies.remove(&txn);
        }
        self.gc();
    }

    fn gc(&mut self) {
        self.locks.retain(|_, l| {
            !(l.holders.is_empty() && l.waiters.is_empty() && l.precommitted.is_empty())
        });
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
    /// transactions never appear: they hold no locks and never wait.
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
    /// Verifies the §5.2 lock-table invariants: every holder, waiter, and
    /// pre-committed transaction is registered; no transaction both holds
    /// and waits on the same lock; exclusive holders are sole holders;
    /// descriptor `held` sets mirror the per-lock holder sets exactly;
    /// pre-committed transactions hold nothing; and the dependency graph
    /// over pre-committed transactions is acyclic — the property that
    /// makes the commit-ordering lattice well-founded, so a dependent's
    /// commit record can always be ordered after its dependencies'.
    fn audit(&self) -> std::result::Result<(), AuditViolation> {
        const C: &str = "LockManager";
        let mut precommitted_anywhere: HashSet<TxnId> = HashSet::new();
        for (obj, lock) in &self.locks {
            AuditViolation::ensure(
                !(lock.holders.is_empty()
                    && lock.waiters.is_empty()
                    && lock.precommitted.is_empty()),
                C,
                "lock-gc",
                || format!("lock {obj} survived gc with no holders, waiters or pre-commits"),
            )?;
            for txn in lock
                .holders
                .keys()
                .chain(lock.waiters.iter())
                .chain(lock.precommitted.iter())
            {
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
                let recorded = self
                    .txns
                    .get(txn)
                    .map(|d| d.held.contains(obj))
                    .unwrap_or(false);
                AuditViolation::ensure(recorded, C, "held-bookkeeping", || {
                    format!("txn {} holds lock {obj} but its descriptor omits it", txn.0)
                })?;
            }
            for txn in &lock.precommitted {
                let empty_held = self
                    .txns
                    .get(txn)
                    .map(|d| d.held.is_empty())
                    .unwrap_or(true);
                AuditViolation::ensure(empty_held, C, "precommit-released", || {
                    format!("pre-committed txn {} still records held locks", txn.0)
                })?;
            }
            precommitted_anywhere.extend(lock.precommitted.iter().copied());
        }
        for (obj, lock) in &self.locks {
            for w in &lock.waiters {
                AuditViolation::ensure(
                    !precommitted_anywhere.contains(w),
                    C,
                    "precommitted-never-waits",
                    || format!("pre-committed txn {} still waits on lock {obj}", w.0),
                )?;
            }
        }
        for (txn, desc) in &self.txns {
            for obj in &desc.held {
                let holds = self
                    .locks
                    .get(obj)
                    .map(|l| l.holders.contains_key(txn))
                    .unwrap_or(false);
                AuditViolation::ensure(holds, C, "held-bookkeeping", || {
                    format!(
                        "txn {} descriptor claims lock {obj} it does not hold",
                        txn.0
                    )
                })?;
            }
            for dep in &desc.dependencies {
                AuditViolation::ensure(dep != txn, C, "no-self-dependency", || {
                    format!("txn {} depends on itself", txn.0)
                })?;
                AuditViolation::ensure(
                    precommitted_anywhere.contains(dep),
                    C,
                    "dependency-target",
                    || {
                        format!(
                            "txn {} depends on txn {}, which is not pre-committed anywhere",
                            txn.0, dep.0
                        )
                    },
                )?;
            }
        }
        // Dependency-graph acyclicity: a dependency cycle is a deadlock
        // cycle over (txn → dependency) edges.
        let edges: Vec<(TxnId, TxnId)> = self
            .txns
            .iter()
            .flat_map(|(txn, d)| d.dependencies.iter().map(move |dep| (*txn, *dep)))
            .collect();
        if let Some(victim) = detect_deadlocks_in(&edges).first() {
            return Err(AuditViolation::new(
                C,
                "dependency-acyclic",
                format!("dependency cycle through txn {}", victim.0),
            ));
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
    fn precommit_releases_and_creates_dependency() {
        let mut lm = LockManager::new();
        lm.begin(TxnId(1));
        lm.begin(TxnId(2));
        lm.acquire(TxnId(1), 10).unwrap();
        let deps1 = lm.precommit(TxnId(1)).unwrap();
        assert!(deps1.is_empty());
        // T2 can now take the lock — reading uncommitted data — but
        // becomes dependent on T1.
        lm.acquire(TxnId(2), 10).unwrap();
        let deps2 = lm.precommit(TxnId(2)).unwrap();
        assert_eq!(deps2, HashSet::from([TxnId(1)]));
    }

    #[test]
    fn finalize_clears_dependencies() {
        let mut lm = LockManager::new();
        lm.begin(TxnId(1));
        lm.begin(TxnId(2));
        lm.acquire(TxnId(1), 5).unwrap();
        lm.precommit(TxnId(1)).unwrap();
        lm.acquire(TxnId(2), 5).unwrap();
        // T1's commit record reaches disk.
        lm.finalize_commit(TxnId(1));
        let deps2 = lm.precommit(TxnId(2)).unwrap();
        assert!(
            deps2.is_empty(),
            "committed transactions leave dependency lists"
        );
    }

    #[test]
    fn dependency_chain_through_several_holders() {
        let mut lm = LockManager::new();
        for i in 1..=3 {
            lm.begin(TxnId(i));
        }
        lm.acquire(TxnId(1), 7).unwrap();
        lm.precommit(TxnId(1)).unwrap();
        lm.acquire(TxnId(2), 7).unwrap();
        lm.precommit(TxnId(2)).unwrap();
        lm.acquire(TxnId(3), 7).unwrap();
        let deps = lm.precommit(TxnId(3)).unwrap();
        assert_eq!(deps, HashSet::from([TxnId(1), TxnId(2)]));
    }

    #[test]
    fn abort_releases_everything() {
        let mut lm = LockManager::new();
        lm.begin(TxnId(1));
        lm.begin(TxnId(2));
        lm.acquire(TxnId(1), 9).unwrap();
        assert!(lm.acquire(TxnId(2), 9).is_err());
        lm.abort(TxnId(1));
        assert!(!lm.is_active(TxnId(1)));
        // The lock is free now.
        lm.acquire(TxnId(2), 9).unwrap();
        assert_eq!(lm.descriptor(TxnId(2)).unwrap().dependencies.len(), 0);
    }

    #[test]
    fn unknown_transaction_rejected() {
        let mut lm = LockManager::new();
        assert!(matches!(
            lm.acquire(TxnId(99), 1),
            Err(Error::InvalidTransaction(99))
        ));
        assert!(lm.precommit(TxnId(99)).is_err());
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
    fn shared_readers_of_precommitted_data_become_dependent() {
        // §5.2's very scenario: a reader of a pre-committed writer's dirty
        // data must not commit before the writer does.
        let mut lm = LockManager::new();
        lm.begin(TxnId(1));
        lm.begin(TxnId(2));
        lm.acquire(TxnId(1), 7).unwrap();
        lm.precommit(TxnId(1)).unwrap();
        lm.acquire_shared(TxnId(2), 7).unwrap();
        let deps = lm.precommit(TxnId(2)).unwrap();
        assert_eq!(deps, HashSet::from([TxnId(1)]));
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
        lm.abort(TxnId(2));
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
    fn no_deadlock_with_precommitted_holders() {
        let mut lm = LockManager::new();
        lm.begin(TxnId(1));
        lm.begin(TxnId(2));
        lm.acquire(TxnId(1), 5).unwrap();
        lm.precommit(TxnId(1)).unwrap();
        lm.acquire(TxnId(2), 5).unwrap(); // granted, with dependency
        assert!(lm.detect_deadlocks().is_empty());
    }

    #[test]
    fn audit_rejects_a_dependency_cycle() {
        let mut lm = LockManager::new();
        lm.begin(TxnId(1));
        lm.begin(TxnId(2));
        lm.acquire(TxnId(1), 5).unwrap();
        lm.precommit(TxnId(1)).unwrap();
        lm.acquire(TxnId(2), 5).unwrap(); // 2 depends on 1
        lm.precommit(TxnId(2)).unwrap();
        assert!(lm.audit().is_ok());
        // Plant the reverse edge: 1 depends on 2.
        lm.txns
            .get_mut(&TxnId(1))
            .unwrap()
            .dependencies
            .insert(TxnId(2));
        let err = lm.audit().unwrap_err();
        assert_eq!(err.invariant, "dependency-acyclic", "{err:?}");
    }

    #[test]
    fn gc_removes_dead_locks() {
        let mut lm = LockManager::new();
        lm.begin(TxnId(1));
        lm.acquire(TxnId(1), 1).unwrap();
        lm.acquire(TxnId(1), 2).unwrap();
        assert_eq!(lm.lock_count(), 2);
        lm.precommit(TxnId(1)).unwrap();
        lm.finalize_commit(TxnId(1));
        assert_eq!(lm.lock_count(), 0);
    }
}
