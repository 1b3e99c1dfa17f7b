//! Experiment B1 (§6 future work) — buffer management strategies.
//!
//! §6 lists "buffer management strategies (how to efficiently manage very
//! large buffer pools)" as future research. This ablation replays uniform
//! and skewed page references through `PagedResidency` and measures the
//! fault rates of its three replacement policies — Random (the §2 model's
//! assumption), LRU, and Clock — at several pool sizes.

use mmdb_bench::{pct, print_table};
use mmdb_index::{PagedResidency, ReplacementPolicy};
use mmdb_types::{WorkloadRng, Zipf};

const PAGES: usize = 400;
const ACCESSES: usize = 40_000;

fn run(policy: ReplacementPolicy, capacity: usize, zipf: Option<&Zipf>) -> f64 {
    let mut pool = PagedResidency::new(capacity, policy);
    let mut rng = WorkloadRng::seeded(77);
    let mut next_page = || match zipf {
        Some(z) => rng.zipf_index(z) as u64,
        None => rng.index(PAGES) as u64,
    };
    // Warm up.
    for _ in 0..ACCESSES / 4 {
        pool.access(next_page());
    }
    pool.reset_counters();
    for _ in 0..ACCESSES {
        pool.access(next_page());
    }
    pool.fault_rate()
}

fn main() {
    println!("Experiment B1 — §6: buffer replacement policy ablation");
    println!("{PAGES}-page database, {ACCESSES} references per measurement\n");

    let skewed = Zipf::new(PAGES, 0.9);
    for (wl, zipf) in [("uniform", None), ("Zipf(0.9) skewed", Some(&skewed))] {
        let mut rows = Vec::new();
        for frac in [0.125, 0.25, 0.5, 0.75] {
            let capacity = ((PAGES as f64 * frac) as usize).max(1);
            let random = run(ReplacementPolicy::Random { seed: 3 }, capacity, zipf);
            let lru = run(ReplacementPolicy::Lru, capacity, zipf);
            let clock = run(ReplacementPolicy::Clock, capacity, zipf);
            let model = 1.0 - frac;
            rows.push(vec![
                pct(frac),
                pct(model),
                pct(random),
                pct(lru),
                pct(clock),
            ]);
        }
        print_table(
            &format!("Fault rates, {wl} references"),
            &["|M|/S", "model 1-H", "random", "LRU", "clock"],
            &rows,
        );
    }
    println!(
        "\nuniform references: all policies track the §2 model's 1 − |M|/S\n\
         (no policy can beat random when every page is equally likely).\n\
         skewed references: LRU and Clock exploit locality and beat both the\n\
         model and random replacement — the gap §6 flags as future work."
    );
}
