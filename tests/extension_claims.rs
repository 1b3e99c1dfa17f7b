//! Assertions for the extension experiments (DESIGN.md §7): each extension
//! must actually demonstrate the paper passage it was built for.

use mmdb_analytic::join::{tid, JoinAlgorithm, JoinScenario};
use mmdb_bench::mvcc::VersionedStore;
use mmdb_exec::join::hybrid::hybrid_hash_join_with_stats;
use mmdb_exec::join::JoinSpec;
use mmdb_exec::{ExecContext, MemRelation};
use mmdb_index::{PagedResidency, ReplacementPolicy};
use mmdb_planner::enumerate::{classical_plan_space, collapsed_plan_space};
use mmdb_types::{DataType, RelationShape, Schema, SystemParams, WorkloadRng};

/// §3.3: recursive hybrid hash handles skewed partitions and respects the
/// memory grant for splittable keys.
#[test]
fn recursive_hybrid_handles_skew() {
    let mut rng = WorkloadRng::seeded(91);
    let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
    let r =
        MemRelation::from_tuples(schema.clone(), 40, rng.zipf_tuples(5_000, 3_000, 1.1)).unwrap();
    let s = MemRelation::from_tuples(schema, 40, rng.zipf_tuples(5_000, 3_000, 1.1)).unwrap();
    let ctx = ExecContext::new(6, 1.2);
    let (out, stats) = hybrid_hash_join_with_stats(&r, &s, JoinSpec::new(0, 0), &ctx).unwrap();
    assert!(out.tuple_count() > 0);
    assert!(
        stats.recursive_partitionings > 0,
        "skew should trigger §3.3 recursion: {stats:?}"
    );
}

/// §3.2: the TID trade-off has the shape the paper describes.
#[test]
fn tid_crossover_shrinks_with_memory_and_grows_with_residency() {
    let params = SystemParams::table2();
    let shape = RelationShape::table2();
    let algo = JoinAlgorithm::HybridHash;
    let sc_small = JoinScenario::at_ratio(params, shape, 0.05);
    let sc_big = JoinScenario::at_ratio(params, shape, 0.9);
    // More memory shrinks the whole-tuple join's disadvantage, so the TID
    // win region shrinks with the memory ratio.
    let x_small = tid::crossover_result_size(&sc_small, algo, 0.0);
    let x_big = tid::crossover_result_size(&sc_big, algo, 0.0);
    assert!(x_small > x_big, "{x_small} vs {x_big}");
    // Residency extends the TID win region.
    let x_resident = tid::crossover_result_size(&sc_small, algo, 0.9);
    assert!(x_resident > x_small * 5.0);
}

/// §6 versioning: a snapshot reader is linearizable against an entire
/// stream of concurrent committed writes.
#[test]
fn mvcc_snapshot_isolation_under_write_storm() {
    let mut store = VersionedStore::new();
    let seed = store.begin_write();
    for k in 0..32u64 {
        store.write(&seed, k, 100).unwrap();
    }
    store.commit(seed).unwrap();
    let mut readers = Vec::new();
    for round in 0..200u64 {
        // Open a reader every 10 rounds; verify all open readers later.
        if round % 10 == 0 {
            readers.push((store.begin_read(), round));
        }
        let w = store.begin_write();
        // Zero-sum double update.
        let a = round % 32;
        let b = (round + 1) % 32;
        let va = store.read_own(&w, a).unwrap();
        let vb = store.read_own(&w, b).unwrap();
        store.write(&w, a, va - 1).unwrap();
        store.write(&w, b, vb + 1).unwrap();
        store.commit(w).unwrap();
    }
    assert_eq!(store.conflicts(), 0);
    for (r, _) in &readers {
        let total: i64 = (0..32).map(|k| store.read(r, k).unwrap()).sum();
        assert_eq!(total, 3_200, "snapshot at ts {} is torn", r.snapshot());
    }
    for (r, _) in readers {
        store.end_read(r);
    }
    assert!(store.gc() > 0, "history must be collectable");
}

/// A reader is ended by its own id: ending it twice releases nothing of
/// a second reader holding the same snapshot, whose versions GC keeps.
#[test]
fn ending_a_reader_twice_leaves_a_second_reader_of_its_snapshot_pinned() {
    let mut store = VersionedStore::new();
    let w = store.begin_write();
    store.write(&w, 1, 10).unwrap();
    store.commit(w).unwrap();
    let (a, b) = (store.begin_read(), store.begin_read());
    for value in [20, 30] {
        let w = store.begin_write();
        store.write(&w, 1, value).unwrap();
        store.commit(w).unwrap();
    }
    store.end_read(a);
    store.end_read(a);
    assert_eq!(store.gc(), 0, "b still pins its snapshot");
    assert_eq!(store.read(&b, 1), Some(10));
    store.end_read(b);
    assert_eq!(store.gc(), 2);
}

/// §6 buffer management: on skewed references LRU beats the random policy
/// the §2 model assumes; on uniform references they tie.
#[test]
fn lru_beats_random_only_under_skew() {
    let run = |policy: ReplacementPolicy, zipf: Option<f64>| {
        let mut pool = PagedResidency::new(60, policy);
        let mut rng = WorkloadRng::seeded(5);
        let mut next_page = || match zipf {
            Some(s) => rng.zipf_index(200, s) as u64,
            None => rng.index(200) as u64,
        };
        for _ in 0..4_000 {
            pool.access(next_page());
        }
        pool.reset_counters();
        for _ in 0..12_000 {
            pool.access(next_page());
        }
        pool.fault_rate()
    };
    let uniform_random = run(ReplacementPolicy::Random { seed: 2 }, None);
    let uniform_lru = run(ReplacementPolicy::Lru, None);
    assert!(
        (uniform_random - uniform_lru).abs() < 0.04,
        "uniform: {uniform_random} vs {uniform_lru}"
    );
    let skew_random = run(ReplacementPolicy::Random { seed: 2 }, Some(1.0));
    let skew_lru = run(ReplacementPolicy::Lru, Some(1.0));
    assert!(
        skew_lru < skew_random - 0.02,
        "skewed: LRU {skew_lru} should beat random {skew_random}"
    );
}

/// §4 plan-space collapse: the counting functions behave.
#[test]
fn plan_space_collapse_is_combinatorial() {
    assert!(classical_plan_space(8, 4, 3) > 1_000_000_000_000u64);
    assert_eq!(collapsed_plan_space(8), 28);
    // Collapse factor grows monotonically with query size.
    let mut prev = 0.0;
    for n in 2..=7 {
        let factor = classical_plan_space(n, 4, 3) as f64 / collapsed_plan_space(n) as f64;
        assert!(factor > prev);
        prev = factor;
    }
}
