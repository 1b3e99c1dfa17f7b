//! The virtual cost clock.
//!
//! Every primitive operation the paper prices (Table 2) is charged to a
//! [`Meter`] as the operators execute. A [`CostMeter`] counts them, and
//! experiments convert the counters to simulated seconds with the
//! parameter block of their choice; its counters are atomic so one meter
//! can be shared (`Arc<CostMeter>`) across operators and threads. `()` is
//! the meter of a run nobody prices: its charges compile to nothing.

use mmdb_types::SystemParams;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What an operator charges its primitive operations to. Each method
/// defaults to doing nothing, which is all `()` does; `Arc<CostMeter>`
/// counts every charge.
pub trait Meter: Clone {
    /// Charges `n` key comparisons.
    #[inline]
    fn charge_comparisons(&self, _n: u64) {}

    /// Charges `n` key hashes.
    #[inline]
    fn charge_hashes(&self, _n: u64) {}

    /// Charges `n` tuple moves.
    #[inline]
    fn charge_moves(&self, _n: u64) {}

    /// Charges `n` tuple swaps.
    #[inline]
    fn charge_swaps(&self, _n: u64) {}

    /// Charges `n` sequential I/O operations.
    #[inline]
    fn charge_seq_ios(&self, _n: u64) {}

    /// Charges `n` random I/O operations.
    #[inline]
    fn charge_rand_ios(&self, _n: u64) {}
}

impl Meter for () {}

impl Meter for Arc<CostMeter> {
    #[inline]
    fn charge_comparisons(&self, n: u64) {
        // ordering: model-cost tallies are independent monotone counters
        // read only by `snapshot`; no cross-counter consistency needed.
        self.comparisons.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    fn charge_hashes(&self, n: u64) {
        // ordering: independent cost tally (see `charge_comparisons`).
        self.hashes.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    fn charge_moves(&self, n: u64) {
        // ordering: independent cost tally (see `charge_comparisons`).
        self.moves.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    fn charge_swaps(&self, n: u64) {
        // ordering: independent cost tally (see `charge_comparisons`).
        self.swaps.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    fn charge_seq_ios(&self, n: u64) {
        // ordering: independent cost tally (see `charge_comparisons`).
        self.seq_ios.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    fn charge_rand_ios(&self, n: u64) {
        // ordering: independent cost tally (see `charge_comparisons`).
        self.rand_ios.fetch_add(n, Ordering::Relaxed);
    }
}

/// Thread-safe counters for the six primitive operations of Table 2,
/// charged through the [`Meter`] impl of an `Arc<CostMeter>`.
#[derive(Debug, Default)]
pub struct CostMeter {
    comparisons: AtomicU64,
    hashes: AtomicU64,
    moves: AtomicU64,
    swaps: AtomicU64,
    seq_ios: AtomicU64,
    rand_ios: AtomicU64,
}

/// A point-in-time copy of a [`CostMeter`]'s counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CostSnapshot {
    /// Key comparisons (`comp`).
    pub comparisons: u64,
    /// Key hashes (`hash`).
    pub hashes: u64,
    /// Tuple moves (`move`).
    pub moves: u64,
    /// Tuple swaps (`swap`).
    pub swaps: u64,
    /// Sequential I/O operations (`IOseq`).
    pub seq_ios: u64,
    /// Random I/O operations (`IOrand`).
    pub rand_ios: u64,
}

impl CostSnapshot {
    /// Simulated elapsed seconds under the given parameters. The paper
    /// assumes no CPU/I/O overlap (§3.2), so contributions sum.
    pub fn seconds(&self, p: &SystemParams) -> f64 {
        self.comparisons as f64 * p.comp()
            + self.hashes as f64 * p.hash()
            + self.moves as f64 * p.mv()
            + self.swaps as f64 * p.swap()
            + self.seq_ios as f64 * p.io_seq()
            + self.rand_ios as f64 * p.io_rand()
    }

    /// Total I/O operations of either kind.
    pub fn total_ios(&self) -> u64 {
        self.seq_ios + self.rand_ios
    }

    /// CPU-only seconds (everything but the I/O terms).
    pub fn cpu_seconds(&self, p: &SystemParams) -> f64 {
        self.comparisons as f64 * p.comp()
            + self.hashes as f64 * p.hash()
            + self.moves as f64 * p.mv()
            + self.swaps as f64 * p.swap()
    }

    /// Counter-wise difference `self - earlier`; saturates at zero.
    pub fn delta_since(&self, earlier: &CostSnapshot) -> CostSnapshot {
        CostSnapshot {
            comparisons: self.comparisons.saturating_sub(earlier.comparisons),
            hashes: self.hashes.saturating_sub(earlier.hashes),
            moves: self.moves.saturating_sub(earlier.moves),
            swaps: self.swaps.saturating_sub(earlier.swaps),
            seq_ios: self.seq_ios.saturating_sub(earlier.seq_ios),
            rand_ios: self.rand_ios.saturating_sub(earlier.rand_ios),
        }
    }
}

impl CostMeter {
    /// A fresh meter with zeroed counters.
    pub fn new() -> Self {
        CostMeter::default()
    }

    /// Copies out the counters.
    pub fn snapshot(&self) -> CostSnapshot {
        CostSnapshot {
            // ordering: the copy is advisory — charges racing a snapshot
            // land in the next one; fields need not be mutually atomic.
            comparisons: self.comparisons.load(Ordering::Relaxed),
            hashes: self.hashes.load(Ordering::Relaxed),
            moves: self.moves.load(Ordering::Relaxed),
            swaps: self.swaps.load(Ordering::Relaxed),
            seq_ios: self.seq_ios.load(Ordering::Relaxed),
            rand_ios: self.rand_ios.load(Ordering::Relaxed),
        }
    }

    /// Simulated elapsed seconds under `p` for the current counters.
    pub fn seconds(&self, p: &SystemParams) -> f64 {
        self.snapshot().seconds(p)
    }

    /// Bridges this meter's six Table 2 counters into an
    /// [`mmdb_obs::Registry`] as live callback metrics, so virtual-clock
    /// benches and the wall-clock session engine share one snapshot and
    /// exposition format. The registry reads the meter's atomics at
    /// snapshot/render time — nothing is copied (the exposition is a
    /// window onto the meter, not a log).
    pub fn register_into(self: &Arc<CostMeter>, registry: &mmdb_obs::Registry) {
        type Row = (&'static str, &'static str, fn(&CostSnapshot) -> u64);
        let pairs: [Row; 6] = [
            (
                "mmdb_cost_comparisons_total",
                "Key comparisons charged (Table 2 `comp`)",
                |s| s.comparisons,
            ),
            (
                "mmdb_cost_hashes_total",
                "Key hashes charged (Table 2 `hash`)",
                |s| s.hashes,
            ),
            (
                "mmdb_cost_moves_total",
                "Tuple moves charged (Table 2 `move`)",
                |s| s.moves,
            ),
            (
                "mmdb_cost_swaps_total",
                "Tuple swaps charged (Table 2 `swap`)",
                |s| s.swaps,
            ),
            (
                "mmdb_cost_seq_ios_total",
                "Sequential I/O operations charged (Table 2 `IOseq`)",
                |s| s.seq_ios,
            ),
            (
                "mmdb_cost_rand_ios_total",
                "Random I/O operations charged (Table 2 `IOrand`)",
                |s| s.rand_ios,
            ),
        ];
        for (name, help, field) in pairs {
            let meter = Arc::clone(self);
            registry.counter_fn(name, help, move || field(&meter.snapshot()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate() {
        let m = Arc::new(CostMeter::new());
        m.charge_comparisons(3);
        m.charge_comparisons(2);
        m.charge_seq_ios(7);
        let s = m.snapshot();
        assert_eq!(s.comparisons, 5);
        assert_eq!(s.seq_ios, 7);
        assert_eq!(s.total_ios(), 7);
    }

    #[test]
    fn seconds_match_table2_arithmetic() {
        let m = Arc::new(CostMeter::new());
        m.charge_comparisons(1_000_000); // 3 s at 3 µs each
        m.charge_rand_ios(40); // 1 s at 25 ms each
        let p = SystemParams::table2();
        let secs = m.seconds(&p);
        assert!((secs - 4.0).abs() < 1e-9, "got {secs}");
        assert!((m.snapshot().cpu_seconds(&p) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn delta_since() {
        let m = Arc::new(CostMeter::new());
        m.charge_hashes(4);
        let before = m.snapshot();
        m.charge_hashes(6);
        m.charge_swaps(2);
        let d = m.snapshot().delta_since(&before);
        assert_eq!(d.hashes, 6);
        assert_eq!(d.swaps, 2);
        assert_eq!(d.comparisons, 0);
    }

    #[test]
    fn registers_live_callbacks_into_obs() {
        let m = Arc::new(CostMeter::new());
        let registry = mmdb_obs::Registry::new();
        m.register_into(&registry);
        m.charge_comparisons(5);
        m.charge_rand_ios(2);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("mmdb_cost_comparisons_total"), Some(5));
        assert_eq!(snap.counter("mmdb_cost_rand_ios_total"), Some(2));
        assert_eq!(snap.counter("mmdb_cost_swaps_total"), Some(0));
        // Live view: later charges show in later snapshots.
        m.charge_comparisons(1);
        assert_eq!(
            registry.snapshot().counter("mmdb_cost_comparisons_total"),
            Some(6)
        );
        assert!(registry.hygiene_violations().is_empty());
        assert!(registry
            .render_text()
            .contains("# TYPE mmdb_cost_seq_ios_total counter"));
    }

    #[test]
    fn shared_across_threads() {
        let m = Arc::new(CostMeter::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        m.charge_comparisons(1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.snapshot().comparisons, 4000);
    }
}
