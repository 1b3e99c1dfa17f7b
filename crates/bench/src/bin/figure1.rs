//! Experiment F1 — regenerates **Figure 1**: execution time of the four
//! join algorithms versus `|M| / (|R|·F)` under the Table 2 parameters.
//!
//! Two reproductions:
//! 1. **Analytic** — the §3 cost formulas at the paper's full scale
//!    (`|R| = |S| = 10 000` pages).
//! 2. **Empirical** — the algorithms actually execute (at a configurable
//!    scale factor, default 1/50th) against the cost-metered substrate;
//!    the meter converts to simulated seconds. Absolute numbers scale
//!    with the factor; the *shape* — who wins where, the 0.5
//!    discontinuity, simple hash's blow-up — must match the paper.

use mmdb_analytic::join::figure1;
use mmdb_bench::{figure1_ratios, print_table, secs};
use mmdb_exec::join::{run_join, JoinSpec};
use mmdb_exec::{workload, ExecContext};
use mmdb_types::{JoinAlgorithm, RelationShape, SystemParams};

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.02);
    let params = SystemParams::table2();
    let shape = RelationShape::table2();
    let ratios = figure1_ratios();

    println!("Experiment F1 — Figure 1 of DeWitt et al. 1984");
    println!("Table 2: comp 3µs, hash 9µs, move 20µs, swap 60µs, IOseq 10ms, IOrand 25ms, F 1.2");
    println!("|R| = |S| = 10 000 pages × 40 tuples/page (analytic at full scale)");

    // --- Analytic curves ------------------------------------------------
    let pts = figure1(params, shape, &ratios);
    let rows: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            let mut row = vec![format!("{:.3}", p.ratio)];
            for a in JoinAlgorithm::ALL {
                row.push(secs(p.of(a)));
            }
            row
        })
        .collect();
    print_table(
        "Figure 1 (analytic): execution time in seconds vs |M|/(|R|*F)",
        &[
            "ratio",
            "sort-merge",
            "simple-hash",
            "grace-hash",
            "hybrid-hash",
        ],
        &rows,
    );

    // --- Empirical curves -----------------------------------------------
    println!(
        "\nexecuting the real algorithms at scale {scale} (|R| = |S| = {} pages)...",
        (shape.r_pages as f64 * scale) as u64
    );
    let (r, s) = workload::table2_relations(shape, scale, 42).expect("workload generation");
    let spec = JoinSpec::new(0, 0);
    let mut emp_rows: Vec<Vec<String>> = Vec::new();
    let mut winners_match = 0usize;
    let mut total_points = 0usize;
    for &ratio in &ratios {
        let mem_pages = ((ratio * r.page_count() as f64 * params.fudge).round() as usize).max(2);
        let mut row = vec![format!("{ratio:.3}")];
        let mut emp_secs = Vec::new();
        for algo in JoinAlgorithm::ALL {
            let ctx = ExecContext::new(mem_pages, params.fudge);
            let out = run_join(algo, &r, &s, spec, &ctx).expect("join runs");
            assert!(out.tuple_count() > 0, "workload must produce matches");
            let t = ctx.meter.seconds(&params);
            emp_secs.push(t);
            row.push(secs(t));
        }
        // Does the empirical winner match the analytic winner?
        let analytic_pt = pts.iter().find(|p| p.ratio == ratio).expect("same grid");
        let emp_winner = (0..4)
            .min_by(|&a, &b| emp_secs[a].total_cmp(&emp_secs[b]))
            .unwrap();
        let ana_winner = (0..4)
            .min_by(|&a, &b| analytic_pt.seconds[a].total_cmp(&analytic_pt.seconds[b]))
            .unwrap();
        total_points += 1;
        if emp_winner == ana_winner {
            winners_match += 1;
        }
        row.push(JoinAlgorithm::ALL[emp_winner].name().to_string());
        emp_rows.push(row);
    }
    print_table(
        &format!("Figure 1 (measured at scale {scale}): simulated seconds vs ratio"),
        &[
            "ratio",
            "sort-merge",
            "simple-hash",
            "grace-hash",
            "hybrid-hash",
            "winner",
        ],
        &emp_rows,
    );
    println!(
        "\nwinner agreement between measured execution and the paper's model: {winners_match}/{total_points} sample points"
    );
    println!(
        "two-pass floor sqrt(|S|*F): ratio {:.4} at full scale",
        mmdb_analytic::join::min_memory_pages(&shape, params.fudge)
            / (shape.r_pages as f64 * params.fudge)
    );
}
