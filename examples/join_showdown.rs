//! The four §3 join algorithms, executed head-to-head on the same inputs
//! at three memory grants, with their Table 2 simulated costs and a
//! cross-check that every algorithm produces the identical result.
//!
//! ```text
//! cargo run --release --example join_showdown
//! ```

use mmdb_exec::join::{run_join, JoinSpec};
use mmdb_exec::{workload, ExecContext};
use mmdb_types::{JoinAlgorithm, RelationShape, SystemParams};

fn main() {
    let params = SystemParams::table2();
    let shape = RelationShape::table2();
    // 1/20th of the paper's scale: |R| = |S| = 500 pages, 20 000 tuples.
    let (r, s) = workload::table2_relations(shape, 0.05, 99).unwrap();
    let spec = JoinSpec::new(0, 0);
    println!(
        "joining R ({} tuples, {} pages) with S ({} tuples, {} pages)\n",
        r.tuple_count(),
        r.page_count(),
        s.tuple_count(),
        s.page_count()
    );

    let r_f = (r.page_count() as f64 * params.fudge) as usize;
    for (label, mem) in [
        ("starved   (5% of |R|F)", r_f / 20),
        ("moderate (40% of |R|F)", r_f * 2 / 5),
        ("ample   (100% of |R|F)", r_f),
    ] {
        println!("memory: {label} = {mem} pages");
        let mut reference: Option<usize> = None;
        for algo in JoinAlgorithm::ALL {
            let ctx = ExecContext::new(mem.max(2), params.fudge);
            let out = run_join(algo, &r, &s, spec, &ctx).unwrap();
            let snap = ctx.meter.snapshot();
            match reference {
                None => reference = Some(out.tuple_count()),
                Some(n) => assert_eq!(n, out.tuple_count(), "algorithms must agree"),
            }
            println!(
                "  {:<12} {:>8.1} simulated s   ({:>7} seq I/O, {:>7} rand I/O, {:>9} comps, {} rows)",
                algo.name(),
                snap.seconds(&params),
                snap.seq_ios,
                snap.rand_ios,
                snap.comparisons,
                out.tuple_count(),
            );
        }
        println!();
    }
    println!(
        "the paper's Figure 1 in miniature: simple hash collapses when memory\n\
         is starved, GRACE ignores extra memory, hybrid hash adapts and wins."
    );
}
