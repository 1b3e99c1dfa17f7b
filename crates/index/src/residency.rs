//! A random-replacement residency simulator.
//!
//! §2 derives `faults = C · (1 − |M|/S)` assuming `|M|` of a structure's
//! `S` pages are resident under random replacement. [`PagedResidency`]
//! replays traced page visits against exactly that policy and counts
//! faults, letting the T1 experiment verify the model against the real
//! AVL/B+-tree implementations without materialising page buffers.

use mmdb_types::WorkloadRng;
use std::collections::HashMap;

/// Tracks which logical pages are resident under random replacement.
#[derive(Debug)]
pub struct PagedResidency {
    capacity: usize,
    resident: Vec<u64>,
    pos: HashMap<u64, usize>,
    rng: WorkloadRng,
    faults: u64,
    hits: u64,
}

impl PagedResidency {
    /// A residency set of `capacity` pages (`|M|`), with a seeded victim
    /// stream.
    pub fn new(capacity: usize, seed: u64) -> Self {
        PagedResidency {
            capacity: capacity.max(1),
            resident: Vec::with_capacity(capacity.max(1)),
            pos: HashMap::with_capacity(capacity.max(1)),
            rng: WorkloadRng::seeded(seed),
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
        if self.pos.contains_key(&page) {
            self.hits += 1;
            return false;
        }
        self.faults += 1;
        if self.resident.len() >= self.capacity {
            let victim_idx = self.rng.index(self.resident.len());
            let victim = self.resident[victim_idx];
            self.pos.remove(&victim);
            let last = self.resident.pop().expect("non-empty");
            if victim_idx < self.resident.len() {
                self.resident[victim_idx] = last;
                self.pos.insert(last, victim_idx);
            }
        }
        self.pos.insert(page, self.resident.len());
        self.resident.push(page);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_accesses_fault_once() {
        let mut r = PagedResidency::new(10, 1);
        assert!(r.access(5));
        assert!(!r.access(5));
        assert_eq!(r.faults(), 1);
        assert_eq!(r.hits(), 1);
    }

    #[test]
    fn capacity_is_respected() {
        let mut r = PagedResidency::new(3, 1);
        for p in 0..10 {
            r.access(p);
        }
        assert_eq!(r.resident_count(), 3);
    }

    #[test]
    fn steady_state_fault_rate_matches_model() {
        // Uniform access to S pages with |M| resident: fault probability
        // converges to 1 − |M|/S under random replacement.
        let (s, m) = (200u64, 60usize);
        let mut r = PagedResidency::new(m, 42);
        let mut rng = WorkloadRng::seeded(7);
        for _ in 0..5_000 {
            r.access(rng.below(s));
        }
        r.reset_counters();
        let n = 50_000;
        for _ in 0..n {
            r.access(rng.below(s));
        }
        let rate = r.faults() as f64 / n as f64;
        let model = 1.0 - m as f64 / s as f64;
        assert!(
            (rate - model).abs() < 0.03,
            "measured {rate}, model {model}"
        );
    }

    #[test]
    fn replay_counts_faults() {
        let mut r = PagedResidency::new(2, 3);
        let faults = r.replay(&[1, 2, 1, 2, 1]);
        assert_eq!(faults, 2);
    }

    #[test]
    fn warm_with_fills_and_resets() {
        let mut r = PagedResidency::new(5, 9);
        r.warm_with(10);
        assert_eq!(r.resident_count(), 5);
        assert_eq!(r.faults(), 0);
        assert_eq!(r.hits(), 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut r = PagedResidency::new(4, seed);
            let mut rng = WorkloadRng::seeded(100);
            for _ in 0..1000 {
                r.access(rng.below(20));
            }
            r.faults()
        };
        assert_eq!(run(5), run(5));
    }
}
