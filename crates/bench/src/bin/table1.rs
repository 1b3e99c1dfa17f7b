//! Experiment T1 — regenerates **Table 1**: the minimum memory fraction
//! `H = |M|/S` at which an AVL tree beats a B+-tree for random key
//! lookups, over a grid of `(Z, Y)`.
//!
//! Two independent reproductions:
//! 1. **Analytic** — the paper's §2 formulas, solved for the break-even H.
//! 2. **Empirical** — real AVL and B+-tree structures are built (at a
//!    scaled-down `||R||`), random lookups are traced, and the traces are
//!    replayed against a random-replacement residency simulator; the
//!    measured costs locate the crossover.

use mmdb_analytic::access::{random_break_even_fraction, table1};
use mmdb_bench::{pct, print_table};
use mmdb_index::{
    AccessTrace, AvlTree, BPlusTree, PagedBinaryTree, PagedResidency, ReplacementPolicy,
};
use mmdb_types::{AccessGeometry, WorkloadRng};

/// A traced probe callback: key in, trace out.
type Probe<'a> = Box<dyn FnMut(i64, &mut AccessTrace) + 'a>;

/// Measures average lookup cost `Z·faults + (Y·)comparisons` at residency
/// fraction `h` for both structures; returns `(avl_cost, btree_cost)`.
fn measured_costs(
    avl: &AvlTree<i64, i64>,
    bt: &BPlusTree<i64, i64>,
    n: i64,
    h: f64,
    z: f64,
    y: f64,
    probes: usize,
) -> (f64, f64) {
    let avl_pages = avl.pages() as usize;
    let m = ((h * avl_pages as f64).round() as usize).max(1);
    let mut rng = WorkloadRng::seeded(99);

    let mut run = |total_pages: u64, mut probe: Probe| -> (f64, f64) {
        let mut residency = PagedResidency::new(m, ReplacementPolicy::Random { seed: 7 });
        // Reach the steady state the §2 model assumes: |M| of the
        // structure's pages resident. Fill the set, then churn it with
        // real probe traffic so the resident pages are probe-shaped.
        residency.warm_with(total_pages);
        for _ in 0..probes * 4 {
            let mut tr = AccessTrace::default();
            probe(rng.int_in(0, n), &mut tr);
            residency.replay(&tr.pages_visited);
        }
        residency.reset_counters();
        let mut comps = 0u64;
        for _ in 0..probes {
            let mut tr = AccessTrace::default();
            probe(rng.int_in(0, n), &mut tr);
            residency.replay(&tr.pages_visited);
            comps += tr.comparisons;
        }
        (
            residency.faults() as f64 / probes as f64,
            comps as f64 / probes as f64,
        )
    };

    let (avl_faults, avl_comps) = run(
        avl.pages(),
        Box::new(|k, tr| {
            avl.get_traced(&k, tr);
        }),
    );
    let (bt_faults, bt_comps) = run(
        bt.pages(),
        Box::new(|k, tr| {
            bt.get_traced(&k, tr);
        }),
    );
    (z * avl_faults + y * avl_comps, z * bt_faults + bt_comps)
}

fn main() {
    let g = AccessGeometry::standard();
    println!("Experiment T1 — Table 1 of DeWitt et al. 1984");
    println!(
        "geometry: ||R|| = {}, K = {}, T = {}, Pg = {}, P = {}",
        g.tuples, g.key_width, g.tuple_width, g.page_size, g.pointer_width
    );
    println!(
        "AVL: S = {} pages, C = {:.2} comparisons; B+-tree: S' = {} pages, height = {}, fanout = {}",
        g.avl_pages(),
        g.avl_comparisons(),
        g.btree_pages(),
        g.btree_height(),
        g.btree_fanout()
    );

    // --- Analytic Table 1 ---------------------------------------------
    let zs = [1.0, 2.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0];
    let ys = [0.5, 0.75, 0.9, 1.0];
    let rows_data = table1(&g, &zs, &ys);
    let mut rows: Vec<Vec<String>> = Vec::new();
    for &z in &zs {
        let mut row = vec![format!("{z}")];
        for &y in &ys {
            let r = rows_data
                .iter()
                .find(|r| r.z == z && r.y == y)
                .expect("grid complete");
            row.push(pct(r.min_fraction));
        }
        rows.push(row);
    }
    let headers: Vec<String> = std::iter::once("Z".to_string())
        .chain(ys.iter().map(|y| format!("Y={y}")))
        .collect();
    print_table(
        "Table 1 (analytic): minimum H = |M|/S for the AVL tree to win",
        &headers,
        &rows,
    );
    println!(
        "paper's conclusion: AVL competitive only when 80-90%+ of the\n\
         structure is memory-resident at realistic Z (10-30)."
    );

    // --- Empirical verification ----------------------------------------
    let n: i64 = 200_000;
    let mut rng = WorkloadRng::seeded(1);
    let mut keys: Vec<i64> = (0..n).collect();
    rng.shuffle(&mut keys);
    let mut avl: AvlTree<i64, i64> = AvlTree::with_page_fanout(37);
    for &k in &keys {
        avl.insert(k, k);
    }
    let bt: BPlusTree<i64, i64> = BPlusTree::bulk_load(235, 28, 0.69, (0..n).map(|k| (k, k)));
    println!(
        "\nempirical structures: ||R|| = {n}; AVL {} pages, height {}; B+-tree {} pages, height {}",
        avl.pages(),
        avl.height(),
        bt.pages(),
        bt.height()
    );

    let probes = 400;
    let (z, y) = (20.0, 0.9);
    let mut emp_rows = Vec::new();
    let mut measured_crossover = None;
    for h10 in (50..=100).step_by(5) {
        let h = h10 as f64 / 100.0;
        let (avl_cost, bt_cost) = measured_costs(&avl, &bt, n, h, z, y, probes);
        if measured_crossover.is_none() && avl_cost <= bt_cost {
            measured_crossover = Some(h);
        }
        emp_rows.push(vec![
            pct(h),
            format!("{avl_cost:.1}"),
            format!("{bt_cost:.1}"),
            if avl_cost <= bt_cost {
                "AVL"
            } else {
                "B+-tree"
            }
            .to_string(),
        ]);
    }
    print_table(
        &format!("Empirical lookup cost at Z = {z}, Y = {y} (measured faults & comparisons)"),
        &["H", "AVL cost", "B+ cost", "winner"],
        &emp_rows,
    );
    // The analytic break-even for the *measured* geometry.
    let g_small = AccessGeometry {
        tuples: n as u64,
        ..AccessGeometry::standard()
    };
    let analytic = random_break_even_fraction(&g_small, z, y);
    println!(
        "analytic break-even at this geometry: H = {}; measured crossover: {}",
        pct(analytic),
        measured_crossover
            .map(pct)
            .unwrap_or_else(|| "> 100% (B+-tree always wins here)".into()),
    );

    // --- The footnoted third structure: the paged binary tree ----------
    // §2's footnote: clustered pages improve on one-page-per-node, but the
    // tree "is not balanced and the worst case access time may be
    // significantly poorer than in the case of a B-tree."
    let mut pbt: PagedBinaryTree<i64, i64> = PagedBinaryTree::new();
    for &k in &keys {
        pbt.insert(k, k);
    }
    let mut pages = 0u64;
    let mut comps = 0u64;
    let mut rng2 = WorkloadRng::seeded(12);
    let probes2 = 400;
    for _ in 0..probes2 {
        let mut tr = AccessTrace::default();
        pbt.get_traced(&rng2.int_in(0, n), &mut tr);
        pages += tr.page_reads();
        comps += tr.comparisons;
    }
    println!(
        "\npaged binary tree (§2 footnote, CESA82/MUNT70): {} pages, height {},\n\
         avg {:.1} comparisons and {:.1} page touches per random lookup\n\
         (AVL touches ≈ one page per comparison; the B+-tree only height+1 = {}).",
        pbt.pages(),
        pbt.height(),
        comps as f64 / probes2 as f64,
        pages as f64 / probes2 as f64,
        bt.height() + 1,
    );
}
