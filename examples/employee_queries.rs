//! The paper's §2 motivating queries, run against real AVL and B+-tree
//! indexes with the cost objective `Z·|page reads| + |comparisons|`
//! measured rather than modelled.
//!
//! ```text
//! cargo run --release --example employee_queries
//! ```

use mmdb_index::{AccessTrace, AvlTree, BPlusTree, PagedResidency, ReplacementPolicy};
use mmdb_types::WorkloadRng;

fn main() {
    let n: i64 = 100_000;
    println!("building AVL and B+-tree indexes over {n} employees...");
    let mut rng = WorkloadRng::seeded(2024);
    let mut ids: Vec<i64> = (0..n).collect();
    rng.shuffle(&mut ids);

    let mut avl: AvlTree<i64, i64> = AvlTree::with_page_fanout(37);
    for &id in &ids {
        avl.insert(id, id);
    }
    let bt: BPlusTree<i64, i64> = BPlusTree::bulk_load(235, 28, 0.69, (0..n).map(|k| (k, k)));

    println!(
        "AVL: {} logical pages, height {}; B+-tree: {} pages, height {}, occupancy {:.0}%",
        avl.pages(),
        avl.height(),
        bt.pages(),
        bt.height(),
        bt.occupancy() * 100.0
    );

    // Case 1 — random key access:
    //   retrieve (emp.salary) where emp.name = "Jones"
    println!("\n-- case 1: random key lookups (500 probes) --");
    let (z, y) = (20.0, 0.9);
    for h in [0.5, 0.9, 1.0] {
        let m = ((h * avl.pages() as f64) as usize).max(1);
        let do_probe = |probe: &mut dyn FnMut(i64, &mut AccessTrace), total_pages: u64| {
            let mut res = PagedResidency::new(m, ReplacementPolicy::Random { seed: 1 });
            res.warm_with(total_pages);
            let mut rng = WorkloadRng::seeded(7);
            for _ in 0..1_000 {
                let mut tr = AccessTrace::default();
                probe(rng.int_in(0, n), &mut tr);
                res.replay(&tr.pages_visited);
            }
            res.reset_counters();
            let mut comps = 0u64;
            for _ in 0..500 {
                let mut tr = AccessTrace::default();
                probe(rng.int_in(0, n), &mut tr);
                res.replay(&tr.pages_visited);
                comps += tr.comparisons;
            }
            (res.faults() as f64 / 500.0, comps as f64 / 500.0)
        };
        let (af, ac) = do_probe(
            &mut |k, tr| {
                avl.get_traced(&k, tr);
            },
            avl.pages(),
        );
        let (bf, bc) = do_probe(
            &mut |k, tr| {
                bt.get_traced(&k, tr);
            },
            bt.pages(),
        );
        println!(
            "  |M| = {:>3.0}% of AVL: AVL cost {:>6.1} ({af:.2} faults, {ac:.1} comps) | B+ cost {:>6.1} ({bf:.2} faults, {bc:.1} comps)",
            h * 100.0,
            z * af + y * ac,
            z * bf + bc,
        );
    }

    // Case 2 — sequential access:
    //   retrieve (emp.salary, emp.name) where emp.name = "J*"
    println!("\n-- case 2: position then read 1000 records sequentially --");
    for h in [0.5, 0.9, 1.0] {
        let m = ((h * avl.pages() as f64) as usize).max(1);
        let scan_cost = |scan: &mut dyn FnMut(i64, &mut AccessTrace), total: u64, yv: f64| {
            let mut res = PagedResidency::new(m, ReplacementPolicy::Random { seed: 3 });
            res.warm_with(total);
            let mut rng = WorkloadRng::seeded(8);
            let mut faults = 0u64;
            let mut comps = 0u64;
            for _ in 0..20 {
                let mut tr = AccessTrace::default();
                scan(rng.int_in(0, n - 1_000), &mut tr);
                faults += res.replay(&tr.pages_visited);
                comps += tr.comparisons;
            }
            (z * faults as f64 + yv * comps as f64) / 20.0
        };
        let ac = scan_cost(
            &mut |from, tr| {
                avl.scan_from_traced(&from, 1_000, tr);
            },
            avl.pages(),
            y,
        );
        let bc = scan_cost(
            &mut |from, tr| {
                bt.scan_from_traced(&from, 1_000, tr);
            },
            bt.pages(),
            1.0,
        );
        println!(
            "  |M| = {:>3.0}% of AVL: AVL scan cost {ac:>8.0} | B+ scan cost {bc:>8.0}  -> {}",
            h * 100.0,
            if ac < bc { "AVL" } else { "B+-tree" }
        );
    }
    println!(
        "\n§2's verdict holds: \"B+-Trees will continue to remain the dominant\n\
         access method\" — the AVL tree only competes when essentially all of\n\
         it is memory-resident."
    );
}
