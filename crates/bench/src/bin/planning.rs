//! Experiment P1 — §4: with large memories, access planning collapses to
//! selectivity ordering plus a single (hash) algorithm choice.
//!
//! A three-relation chain query is planned under varying selectivities
//! and memory grants; the harness prints the chosen join orders, methods,
//! and estimated costs, and then runs the plans with `mmdb_exec::plan` —
//! the executor the SQL `SELECT` uses — to confirm the estimates' ordering.

use mmdb_bench::{plan_and_run, print_table, secs};
use mmdb_exec::MemRelation;
use mmdb_planner::{JoinEdge, QuerySpec, TableRef};
use mmdb_types::{DataType, JoinAlgorithm, Predicate, Schema, Tuple, Value, WorkloadRng};

/// `orders`, `customers` and `parts`, 40 tuples to a page.
fn build_tables() -> [MemRelation; 3] {
    let mut rng = WorkloadRng::seeded(17);
    let mut rows = |n: i64, draws: &[(i64, i64)]| -> Vec<Tuple> {
        (0..n)
            .map(|id| {
                let drawn = draws.iter().map(|&(lo, hi)| Value::Int(rng.int_in(lo, hi)));
                Tuple::new(std::iter::once(Value::Int(id)).chain(drawn).collect())
            })
            .collect()
    };
    let orders = rows(20_000, &[(0, 2_000), (0, 500)]);
    let customers = rows(2_000, &[(0, 20)]);
    let parts = rows(500, &[(0, 10)]);
    let relation = |columns: &[&str], tuples| {
        let columns: Vec<(&str, DataType)> = columns.iter().map(|c| (*c, DataType::Int)).collect();
        MemRelation::from_tuples(Schema::of(&columns), 40, tuples).unwrap()
    };
    [
        relation(&["order_id", "cust_id", "part_id"], orders),
        relation(&["cust_id", "region"], customers),
        relation(&["part_id", "color"], parts),
    ]
}

fn chain(cust_pred: Predicate, part_pred: Predicate) -> QuerySpec {
    QuerySpec {
        tables: vec![
            TableRef::plain("orders"),
            TableRef::filtered("customers", cust_pred),
            TableRef::filtered("parts", part_pred),
        ],
        joins: vec![
            JoinEdge {
                left_table: 0,
                left_column: 1,
                right_table: 1,
                right_column: 0,
            },
            JoinEdge {
                left_table: 0,
                left_column: 2,
                right_table: 2,
                right_column: 0,
            },
        ],
    }
}

fn main() {
    println!("Experiment P1 — §4 access planning");
    let [orders, customers, parts] = build_tables();
    let tables = [
        ("orders", &orders),
        ("customers", &customers),
        ("parts", &parts),
    ];

    let scenarios: Vec<(&str, QuerySpec)> = vec![
        ("no filters", chain(Predicate::True, Predicate::True)),
        (
            "selective customer (region = 3)",
            chain(Predicate::eq(1, 3i64), Predicate::True),
        ),
        (
            "selective part (color = 1)",
            chain(Predicate::True, Predicate::eq(1, 1i64)),
        ),
        (
            "both filters",
            chain(Predicate::eq(1, 3i64), Predicate::eq(1, 1i64)),
        ),
    ];

    let mut rows = Vec::new();
    for (label, spec) in &scenarios {
        let outcome = plan_and_run(spec, &tables, 12_000).unwrap();
        let plan = &outcome.planned.plan;
        let methods: Vec<&str> = plan.methods().iter().map(|m| m.name()).collect();
        rows.push(vec![
            label.to_string(),
            plan.tables().join(" ⋈ "),
            methods.join(", "),
            format!("{:.0}", outcome.planned.estimated_rows),
            outcome.rows.tuple_count().to_string(),
            secs(outcome.simulated_seconds()),
        ]);
        // §4: hash-based plans everywhere with ample memory.
        assert!(plan
            .methods()
            .iter()
            .all(|m| *m == JoinAlgorithm::HybridHash));
    }
    print_table(
        "Chosen plans (|M| = 12 000 pages)",
        &[
            "scenario",
            "join order",
            "methods",
            "est rows",
            "actual rows",
            "sim secs",
        ],
        &rows,
    );

    println!(
        "\n§4 reproduced: every plan uses the hybrid-hash join (\"there is only\n\
         one algorithm to choose from\"), and filtered relations move to the\n\
         front of the join order (most selective operations first)."
    );

    // --- Plan-space collapse --------------------------------------------
    use mmdb_planner::enumerate::{classical_plan_space, collapsed_plan_space};
    let mut rows = Vec::new();
    for n in [2u64, 3, 5, 8] {
        rows.push(vec![
            n.to_string(),
            classical_plan_space(n, 4, 3).to_string(),
            collapsed_plan_space(n).to_string(),
        ]);
    }
    print_table(
        "Plan-space collapse: plans priced (classical: orders × 4 algos × 3 interesting orders)",
        &["tables", "classical optimizer", "§4 collapsed planner"],
        &rows,
    );
    println!(
        "\nhashing's insensitivity to input order removes the interesting-order\n\
         dimension and the order-dependent algorithm choice; what remains is\n\
         selectivity ordering — 4·(n−1) prices instead of a combinatorial search."
    );
}
