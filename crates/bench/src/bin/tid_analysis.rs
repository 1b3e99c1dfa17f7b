//! Experiment D1 (§3.2) — TID-key pairs versus whole tuples in the sort
//! and hash structures.
//!
//! "Every time a pair of joined tuples is output, the original tuples
//! must be retrieved ... the cost of the random accesses to retrieve the
//! tuples can exceed the savings of using TIDs if the join produces a
//! large number of tuples." This harness maps out the crossover.

use mmdb_analytic::join::{tid, JoinScenario};
use mmdb_bench::{print_table, secs};
use mmdb_types::{JoinAlgorithm, RelationShape, SystemParams};

fn main() {
    println!("Experiment D1 — §3.2 TID-key pairs vs whole tuples");
    let params = SystemParams::table2();
    let shape = RelationShape::table2();
    let sc = JoinScenario::at_ratio(params, shape, 0.2);
    let algo = JoinAlgorithm::HybridHash;

    println!(
        "hybrid-hash join at ratio 0.2: whole tuples {}, TID-pair join {} (before fetches)\n",
        secs(sc.cost(algo)),
        secs(tid::tid_join_cost(&sc, algo)),
    );

    let mut rows = Vec::new();
    for result_k in [1u64, 10, 50, 100, 500, 2_000, 10_000] {
        let result = result_k as f64 * 1_000.0;
        let mut row = vec![format!("{result_k}k")];
        for resident in [0.0, 0.5, 0.9] {
            let tid_total = tid::total_cost(&sc, algo, result, resident);
            let whole = sc.cost(algo);
            row.push(format!(
                "{} ({})",
                secs(tid_total),
                if tid_total <= whole { "TID" } else { "tuple" }
            ));
        }
        rows.push(row);
    }
    print_table(
        &format!(
            "Total TID-variant cost by result size (whole-tuple baseline: {})",
            secs(sc.cost(algo))
        ),
        &["result", "0% resident", "50% resident", "90% resident"],
        &rows,
    );

    let mut xrows = Vec::new();
    for ratio in [0.05, 0.2, 0.5, 1.0] {
        let sc = JoinScenario::at_ratio(params, shape, ratio);
        let mut row = vec![format!("{ratio}")];
        for resident in [0.0, 0.5, 0.9] {
            let x = tid::crossover_result_size(&sc, algo, resident);
            row.push(if x.is_finite() {
                format!("{:.0}k", x / 1_000.0)
            } else {
                "∞ (TID always)".into()
            });
        }
        xrows.push(row);
    }
    print_table(
        "Crossover result cardinality (TID wins below, whole tuples above)",
        &["mem ratio", "0% resident", "50% resident", "90% resident"],
        &xrows,
    );
    println!(
        "\n§3.2 reproduced: with memory-resident base relations the fetches are\n\
         free and TID-key pairs always win — exactly why the paper can \"avoid\n\
         making a choice\" and fold the decision into the move/swap parameters."
    );
}
