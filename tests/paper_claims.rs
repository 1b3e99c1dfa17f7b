//! The paper's headline claims, each asserted against this
//! implementation. If one of these fails, the reproduction has drifted
//! from the paper.

use mmdb_analytic::access::random_break_even_fraction;
use mmdb_analytic::join::JoinScenario;
use mmdb_analytic::recovery::ThroughputModel;
use mmdb_bench::execute_typical;
use mmdb_recovery::{CommitPolicy, RecoveryManager};
use mmdb_types::{AccessGeometry, JoinAlgorithm, RelationShape, SystemParams};

/// §2 / §6: "B+-trees are the preferred storage mechanism unless more
/// than 80-90% of the database fits in main memory."
#[test]
fn claim_avl_needs_80_to_90_percent_residency() {
    let g = AccessGeometry::standard();
    for z in [10.0, 20.0, 30.0] {
        for y in [0.75, 0.9, 1.0] {
            let h = random_break_even_fraction(&g, z, y);
            assert!(
                h >= 0.80,
                "Z={z}, Y={y}: break-even {h} below the paper's band"
            );
        }
    }
}

/// §3 / §6: "once the size of main memory exceeds the square root of the
/// size of the relations being processed ... the fastest algorithms for
/// the join ... are based on hashing."
#[test]
fn claim_hashing_wins_above_sqrt_memory() {
    let params = SystemParams::table2();
    for s_pages in [10_000u64, 50_000, 200_000] {
        let shape = RelationShape {
            r_pages: s_pages,
            s_pages,
            r_tuples_per_page: 40,
            s_tuples_per_page: 40,
        };
        let floor = (s_pages as f64 * params.fudge).sqrt();
        for mult in [1.0, 2.0, 10.0, 100.0] {
            let sc = JoinScenario {
                params,
                shape,
                mem_pages: floor * mult,
            };
            let best_hash = sc
                .cost(JoinAlgorithm::HybridHash)
                .min(sc.cost(JoinAlgorithm::GraceHash))
                .min(sc.cost(JoinAlgorithm::SimpleHash));
            assert!(
                best_hash < sc.cost(JoinAlgorithm::SortMerge),
                "|S|={s_pages}, |M|={floor}·{mult}"
            );
        }
    }
}

/// §3.1: "the Hybrid algorithm is preferable to all others over a large
/// range of parameter values."
#[test]
fn claim_hybrid_preferable_over_a_large_range() {
    let params = SystemParams::table2();
    let shape = RelationShape::table2();
    let mut hybrid_best = 0;
    let mut total = 0;
    for step in 1..=40 {
        let ratio = step as f64 / 40.0;
        let sc = JoinScenario::at_ratio(params, shape, ratio);
        let h = sc.cost(JoinAlgorithm::HybridHash);
        total += 1;
        // Best within 1 %: above ratio 0.5 hybrid and simple hash agree to
        // rounding (hybrid's in-memory fraction covers what simple hash's
        // single extra pass covers), and the paper itself notes the only
        // meaningful exception region (§3.8).
        if JoinAlgorithm::ALL
            .iter()
            .all(|a| h <= sc.cost(*a) * 1.01 + 1e-9)
        {
            hybrid_best += 1;
        }
    }
    assert!(
        hybrid_best * 100 >= total * 80,
        "hybrid best at only {hybrid_best}/{total} sample points"
    );
}

/// §3.8's footnoted wrinkle: simple hash appears to beat hybrid only in a
/// small region below ratio 0.5, an artifact of the IOrand accounting.
#[test]
fn claim_simple_hash_wrinkle_is_small_and_localized() {
    let params = SystemParams::table2();
    let shape = RelationShape::table2();
    for step in 1..=40 {
        let ratio = step as f64 / 40.0;
        let sc = JoinScenario::at_ratio(params, shape, ratio);
        let simple = sc.cost(JoinAlgorithm::SimpleHash);
        let hybrid = sc.cost(JoinAlgorithm::HybridHash);
        // A *meaningful* simple-hash advantage (> 1 %) may only appear in
        // the documented accounting region below 0.5; elsewhere the two
        // agree to rounding ("in practice hybrid hash will probably always
        // outperform simple hash", §3.8).
        if simple < hybrid * 0.99 {
            // Ratio 0.5 itself still has two output buffers — the paper's
            // single-buffer regime needs strictly |M| > |R|·F/2.
            assert!(
                (0.25..=0.5).contains(&ratio),
                "wrinkle outside the documented region at ratio {ratio}: simple {simple} vs hybrid {hybrid}"
            );
        }
    }
}

/// §5.2: 100 transactions per second with one synchronous log write per
/// transaction; ~1000 with ten-transaction group commit.
#[test]
fn claim_recovery_throughput_numbers() {
    let model = ThroughputModel::default();
    assert_eq!(model.throughput(CommitPolicy::Synchronous), 100.0);
    assert_eq!(model.throughput(CommitPolicy::Group), 1000.0);
    // And the recovery manager, executing typical transactions against
    // 10 ms log pages in virtual time, agrees with the arithmetic.
    let sync_db = RecoveryManager::new(CommitPolicy::Synchronous);
    let (sync, _) = execute_typical(sync_db, 1_000).unwrap();
    let (group, _) = execute_typical(RecoveryManager::new(CommitPolicy::Group), 10_000).unwrap();
    assert!((sync - 100.0).abs() < 2.0, "sync {sync}");
    assert!((group - 1_000.0).abs() < 25.0, "group {group}");
}

/// §5.4: "approximately half of the size of the log stores the old values
/// of modified data."
#[test]
fn claim_log_compression_halves_volume() {
    use mmdb_recovery::log::typical_transaction;
    use mmdb_types::TxnId;
    let recs = typical_transaction(TxnId(1), 0, 0, 1);
    let full: usize = recs.iter().map(|r| r.byte_size()).sum();
    let compressed: usize = recs.iter().map(|r| r.compressed_size()).sum();
    assert_eq!(full, 400);
    let ratio = compressed as f64 / full as f64;
    assert!((0.5..0.6).contains(&ratio), "ratio {ratio}");
}

/// §4: planning collapses — the chosen join method is hash-based whenever
/// memory is large, regardless of input sizes.
#[test]
fn claim_planner_always_picks_hashing_with_large_memory() {
    use mmdb_planner::{optimize, optimizer::PlanEnv, JoinEdge, QuerySpec, TableRef, TableStats};
    for (l, r) in [(1_000u64, 1_000u64), (10_000, 400_000), (400_000, 400_000)] {
        let spec = QuerySpec {
            tables: vec![TableRef::plain("a"), TableRef::plain("b")],
            joins: vec![JoinEdge {
                left_table: 0,
                left_column: 0,
                right_table: 1,
                right_column: 0,
            }],
        };
        let stats = vec![
            TableStats::uniform("a", l, 40, 2),
            TableStats::uniform("b", r, 40, 2),
        ];
        let planned = optimize(&spec, &stats, &PlanEnv::default()).unwrap();
        for m in planned.plan.methods() {
            assert!(
                matches!(m, JoinAlgorithm::HybridHash | JoinAlgorithm::SimpleHash),
                "non-hash method {m:?} for sizes ({l}, {r})"
            );
        }
    }
}
