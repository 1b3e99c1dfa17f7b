//! A residency simulator: which logical pages a bounded memory holds.
//!
//! §2 derives `faults = C · (1 − |M|/S)` assuming `|M|` of a structure's
//! `S` pages are resident under random replacement. [`PagedResidency`]
//! replays traced page visits against exactly that policy and counts
//! faults, letting the T1 experiment verify the model against the real
//! AVL/B+-tree implementations without materialising page buffers. The
//! same simulator runs LRU and Clock victims for §6's "buffer management
//! strategies" (experiment B1), which asks only which pages stay
//! resident, not what they hold.

use mmdb_types::cast::f64_from_u64;
use mmdb_types::{AuditViolation, Auditable, WorkloadRng};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Page replacement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplacementPolicy {
    /// Uniformly random victim — the §2 model's assumption.
    Random {
        /// Seed for the victim-selection stream.
        seed: u64,
    },
    /// Least-recently-used victim.
    Lru,
    /// Clock (second chance).
    Clock,
}

/// The resident set, kept in the shape its policy's victim choice needs.
#[derive(Debug)]
enum Resident {
    /// Resident pages (swap-removed on eviction) and each page's slot.
    Random {
        rng: WorkloadRng,
        pages: Vec<u64>,
        slot: HashMap<u64, usize>,
    },
    /// Each page's last-use stamp, and the pages by stamp, oldest first.
    Lru {
        stamp: HashMap<u64, u64>,
        order: BTreeMap<u64, u64>,
        clock: u64,
    },
    /// The ring in admission order, each page's reference bit, and the
    /// hand, the ring position the next sweep starts from.
    Clock {
        ring: Vec<u64>,
        referenced: HashMap<u64, bool>,
        hand: usize,
    },
}

impl Resident {
    fn len(&self) -> usize {
        match self {
            Resident::Random { slot, .. } => slot.len(),
            Resident::Lru { stamp, .. } => stamp.len(),
            Resident::Clock { referenced, .. } => referenced.len(),
        }
    }

    /// Records a use of `page`; returns whether it was resident.
    fn touch(&mut self, page: u64) -> bool {
        match self {
            Resident::Random { slot, .. } => slot.contains_key(&page),
            Resident::Lru {
                stamp,
                order,
                clock,
            } => match stamp.get_mut(&page) {
                Some(s) => {
                    order.remove(s);
                    *clock += 1;
                    *s = *clock;
                    order.insert(*clock, page);
                    true
                }
                None => false,
            },
            Resident::Clock { referenced, .. } => match referenced.get_mut(&page) {
                Some(bit) => {
                    *bit = true;
                    true
                }
                None => false,
            },
        }
    }

    /// Drops one victim. Only called on a non-empty set.
    fn evict(&mut self) {
        match self {
            Resident::Random { rng, pages, slot } => {
                let at = rng.index(pages.len());
                let victim = pages.swap_remove(at);
                slot.remove(&victim);
                if let Some(&moved) = pages.get(at) {
                    slot.insert(moved, at);
                }
            }
            Resident::Lru { stamp, order, .. } => {
                if let Some((_, victim)) = order.pop_first() {
                    stamp.remove(&victim);
                }
            }
            Resident::Clock {
                ring,
                referenced,
                hand,
            } => {
                // Sweep from the hand, clearing reference bits, to the first
                // page without one; it leaves the ring and the new page
                // joins at the tail (see `admit`).
                loop {
                    let bit = referenced
                        .get_mut(&ring[*hand])
                        .expect("every ring page has a reference bit");
                    if !*bit {
                        break;
                    }
                    *bit = false;
                    *hand = (*hand + 1) % ring.len();
                }
                let victim = ring.remove(*hand);
                referenced.remove(&victim);
                if *hand == ring.len() {
                    *hand = 0;
                }
            }
        }
    }

    fn admit(&mut self, page: u64) {
        match self {
            Resident::Random { pages, slot, .. } => {
                slot.insert(page, pages.len());
                pages.push(page);
            }
            Resident::Lru {
                stamp,
                order,
                clock,
            } => {
                *clock += 1;
                stamp.insert(page, *clock);
                order.insert(*clock, page);
            }
            Resident::Clock {
                ring, referenced, ..
            } => {
                ring.push(page);
                referenced.insert(page, true);
            }
        }
    }
}

/// Tracks which logical pages are resident under a replacement policy.
#[derive(Debug)]
pub struct PagedResidency {
    capacity: usize,
    resident: Resident,
    faults: u64,
    hits: u64,
}

impl PagedResidency {
    /// A residency set of `capacity` pages (`|M|`) choosing victims by
    /// `policy`.
    pub fn new(capacity: usize, policy: ReplacementPolicy) -> Self {
        let capacity = capacity.max(1);
        let resident = match policy {
            ReplacementPolicy::Random { seed } => Resident::Random {
                rng: WorkloadRng::seeded(seed),
                pages: Vec::with_capacity(capacity),
                slot: HashMap::with_capacity(capacity),
            },
            ReplacementPolicy::Lru => Resident::Lru {
                stamp: HashMap::with_capacity(capacity),
                order: BTreeMap::new(),
                clock: 0,
            },
            ReplacementPolicy::Clock => Resident::Clock {
                ring: Vec::with_capacity(capacity),
                referenced: HashMap::with_capacity(capacity),
                hand: 0,
            },
        };
        PagedResidency {
            capacity,
            resident,
            faults: 0,
            hits: 0,
        }
    }

    /// Capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Pages currently resident.
    pub fn resident_count(&self) -> usize {
        self.resident.len()
    }

    /// Records an access to `page`; returns whether it faulted.
    pub fn access(&mut self, page: u64) -> bool {
        if self.resident.touch(page) {
            self.hits += 1;
            return false;
        }
        self.faults += 1;
        if self.resident.len() >= self.capacity {
            self.resident.evict();
        }
        self.resident.admit(page);
        true
    }

    /// Replays a page-visit sequence; returns the number of faults.
    pub fn replay(&mut self, pages: &[u64]) -> u64 {
        pages.iter().filter(|&&p| self.access(p)).count() as u64
    }

    /// Faults so far.
    pub fn faults(&self) -> u64 {
        self.faults
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Faults per access in `[0, 1]`; zero before any access.
    pub fn fault_rate(&self) -> f64 {
        match self.faults + self.hits {
            0 => 0.0,
            total => f64_from_u64(self.faults) / f64_from_u64(total),
        }
    }

    /// Zeroes the counters (residency is kept — use after warm-up).
    pub fn reset_counters(&mut self) {
        self.faults = 0;
        self.hits = 0;
    }

    /// Pre-populates residency with pages `0..n` (up to capacity), so a
    /// measurement can start from a warm steady state.
    pub fn warm_with(&mut self, n: u64) {
        for p in 0..n.min(self.capacity as u64) {
            self.access(p);
        }
        self.reset_counters();
    }
}

impl Auditable for PagedResidency {
    /// Verifies that at most `|M|` pages are resident and that the
    /// policy's victim bookkeeping (random slot vector, LRU stamp order,
    /// clock ring) describes exactly one resident set. The §2 fault count
    /// only means something if the simulator's idea of "resident" is
    /// self-consistent.
    fn audit(&self) -> Result<(), AuditViolation> {
        const C: &str = "PagedResidency";
        let n = self.resident.len();
        AuditViolation::ensure(n <= self.capacity, C, "capacity", || {
            format!("{n} pages resident, capacity {}", self.capacity)
        })?;
        match &self.resident {
            Resident::Random { pages, slot, .. } => {
                AuditViolation::ensure(pages.len() == n, C, "random-bookkeeping", || {
                    format!("slot vector holds {} pages, {n} resident", pages.len())
                })?;
                for (at, page) in pages.iter().enumerate() {
                    AuditViolation::ensure(
                        slot.get(page) == Some(&at),
                        C,
                        "random-bookkeeping",
                        || {
                            format!(
                                "page {page} at slot {at} but slot map says {:?}",
                                slot.get(page)
                            )
                        },
                    )?;
                }
            }
            Resident::Lru {
                stamp,
                order,
                clock,
            } => {
                AuditViolation::ensure(order.len() == n, C, "lru-bookkeeping", || {
                    format!("LRU order tracks {} pages, {n} resident", order.len())
                })?;
                for (s, page) in order {
                    AuditViolation::ensure(
                        stamp.get(page) == Some(s),
                        C,
                        "lru-bookkeeping",
                        || {
                            format!(
                                "LRU entry ({s}, page {page}) but its stamp is {:?}",
                                stamp.get(page)
                            )
                        },
                    )?;
                    AuditViolation::ensure(s <= clock, C, "stamp-order", || {
                        format!("page {page} stamp {s} exceeds counter {clock}")
                    })?;
                }
            }
            Resident::Clock {
                ring,
                referenced,
                hand,
            } => {
                AuditViolation::ensure(ring.len() == n, C, "clock-bookkeeping", || {
                    format!("clock ring holds {} pages, {n} resident", ring.len())
                })?;
                let mut seen = HashSet::new();
                for page in ring {
                    AuditViolation::ensure(seen.insert(page), C, "clock-bookkeeping", || {
                        format!("page {page} appears twice in the clock ring")
                    })?;
                    AuditViolation::ensure(
                        referenced.contains_key(page),
                        C,
                        "clock-bookkeeping",
                        || format!("clock ring lists non-resident page {page}"),
                    )?;
                }
                AuditViolation::ensure(
                    *hand < ring.len() || ring.is_empty() && *hand == 0,
                    C,
                    "clock-hand",
                    || format!("hand {hand} outside ring of {}", ring.len()),
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const POLICIES: [ReplacementPolicy; 3] = [
        ReplacementPolicy::Random { seed: 42 },
        ReplacementPolicy::Lru,
        ReplacementPolicy::Clock,
    ];

    fn random(seed: u64) -> ReplacementPolicy {
        ReplacementPolicy::Random { seed }
    }

    #[test]
    fn cold_accesses_fault_once() {
        let mut r = PagedResidency::new(10, random(1));
        assert!(r.access(5));
        assert!(!r.access(5));
        assert_eq!(r.faults(), 1);
        assert_eq!(r.hits(), 1);
        assert_eq!(r.fault_rate(), 0.5);
    }

    #[test]
    fn capacity_is_respected() {
        for policy in POLICIES {
            let mut r = PagedResidency::new(3, policy);
            for p in 0..10 {
                r.access(p);
                r.audit().unwrap();
            }
            assert_eq!(r.resident_count(), 3, "{policy:?}");
        }
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut r = PagedResidency::new(2, ReplacementPolicy::Lru);
        r.access(0);
        r.access(1);
        r.access(0); // refresh 0
        r.access(2); // evicts 1
        assert!(!r.access(0));
        assert!(!r.access(2));
        assert!(r.access(1));
    }

    #[test]
    fn clock_gives_second_chance() {
        let mut r = PagedResidency::new(2, ReplacementPolicy::Clock);
        r.access(0);
        r.access(1);
        // Both referenced; the sweep clears 0 then 1, returns to 0, evicts it.
        r.access(2);
        assert!(!r.access(1));
        assert!(r.access(0));
    }

    #[test]
    fn steady_state_fault_rate_matches_model() {
        // Uniform access to S pages with |M| resident: fault probability
        // converges to 1 − |M|/S under random replacement, and no policy
        // can do better when every page is equally likely.
        let (s, m) = (200u64, 60usize);
        for policy in POLICIES {
            let mut r = PagedResidency::new(m, policy);
            let mut rng = WorkloadRng::seeded(7);
            for _ in 0..5_000 {
                r.access(rng.below(s));
            }
            r.reset_counters();
            for _ in 0..50_000 {
                r.access(rng.below(s));
            }
            let rate = r.fault_rate();
            let model = 1.0 - m as f64 / s as f64;
            assert!(
                (rate - model).abs() < 0.03,
                "{policy:?}: measured {rate}, model {model}"
            );
        }
    }

    #[test]
    fn replay_counts_faults() {
        let mut r = PagedResidency::new(2, random(3));
        let faults = r.replay(&[1, 2, 1, 2, 1]);
        assert_eq!(faults, 2);
    }

    #[test]
    fn warm_with_fills_and_resets() {
        let mut r = PagedResidency::new(5, random(9));
        r.warm_with(10);
        assert_eq!(r.resident_count(), 5);
        assert_eq!(r.faults(), 0);
        assert_eq!(r.hits(), 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |policy| {
            let mut r = PagedResidency::new(4, policy);
            let mut rng = WorkloadRng::seeded(100);
            for _ in 0..1000 {
                r.access(rng.below(20));
            }
            r.faults()
        };
        for policy in POLICIES {
            assert_eq!(run(policy), run(policy), "{policy:?}");
        }
        assert_eq!(run(random(5)), run(random(5)));
    }
}
