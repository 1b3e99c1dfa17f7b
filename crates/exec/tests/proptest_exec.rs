//! Property-based testing of the §3 executors: every join algorithm must
//! equal the nested-loops oracle for arbitrary inputs and memory grants;
//! sorting must equal `sort()`; partitioning must be compatible (§3.3).

use mmdb_exec::join::{run_join, Algo, JoinSpec};
use mmdb_exec::sort::external_sort;
use mmdb_exec::ExecContext;
use mmdb_exec::MemRelation;
use mmdb_types::{DataType, Schema, Tuple, Value};
use proptest::prelude::*;

fn relation(keys: Vec<i16>, per_page: usize) -> MemRelation {
    let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
    let tuples = keys
        .into_iter()
        .enumerate()
        .map(|(i, k)| Tuple::new(vec![Value::Int(k as i64), Value::Int(i as i64)]))
        .collect();
    MemRelation::from_tuples(schema, per_page, tuples).unwrap()
}

fn canonical(rel: &MemRelation) -> Vec<Tuple> {
    let mut v = rel.tuples().to_vec();
    v.sort();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_join_matches_nested_loops(
        r_keys in prop::collection::vec(-20i16..20, 0..120),
        s_keys in prop::collection::vec(-20i16..20, 0..120),
        mem_pages in 2usize..40,
        algo_pick in 0u8..4,
    ) {
        let r = relation(r_keys, 8);
        let s = relation(s_keys, 8);
        let spec = JoinSpec::new(0, 0);
        let oracle_ctx = ExecContext::new(usize::MAX / 2, 1.2);
        let want = canonical(&run_join(Algo::NestedLoops, &r, &s, spec, &oracle_ctx).unwrap());
        let algo = Algo::PAPER[algo_pick as usize];
        let ctx = ExecContext::new(mem_pages, 1.2);
        let got = canonical(&run_join(algo, &r, &s, spec, &ctx).unwrap());
        prop_assert_eq!(got, want, "{} at {} pages", algo.name(), mem_pages);
    }

    #[test]
    fn external_sort_equals_std_sort(
        keys in prop::collection::vec(any::<i16>(), 0..500),
        mem_pages in 1usize..20,
        per_page in 1usize..20,
    ) {
        let rel = relation(keys.clone(), per_page);
        let ctx = ExecContext::new(mem_pages, 1.2);
        let sorted = external_sort(&rel, 0, &ctx);
        let got: Vec<i64> = sorted.iter().map(|t| t.get(0).as_int().unwrap()).collect();
        let mut want: Vec<i64> = keys.iter().map(|k| *k as i64).collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
        // No tuple lost or duplicated (payload multiset preserved).
        let mut payloads: Vec<i64> = sorted.iter().map(|t| t.get(1).as_int().unwrap()).collect();
        payloads.sort_unstable();
        prop_assert_eq!(payloads, (0..keys.len() as i64).collect::<Vec<_>>());
    }

    #[test]
    fn partitioning_is_compatible(
        keys in prop::collection::vec(any::<i32>(), 1..300),
        parts in 1usize..17,
    ) {
        use mmdb_exec::partition::{hash_key, uniform_class};
        // §3.3: a partition compatible with h assigns equal keys to equal
        // classes — so R_i ⋈ S_j is empty for i ≠ j.
        for k in keys {
            let v = Value::Int(k as i64);
            let c1 = uniform_class(hash_key(&v), parts);
            let c2 = uniform_class(hash_key(&Value::Int(k as i64)), parts);
            prop_assert_eq!(c1, c2);
            prop_assert!(c1 < parts);
        }
    }

    #[test]
    fn join_cardinality_equals_key_histogram_product(
        r_keys in prop::collection::vec(0i16..10, 0..80),
        s_keys in prop::collection::vec(0i16..10, 0..80),
    ) {
        let r = relation(r_keys.clone(), 8);
        let s = relation(s_keys.clone(), 8);
        let ctx = ExecContext::new(50, 1.2);
        let out = run_join(Algo::HybridHash, &r, &s, JoinSpec::new(0, 0), &ctx).unwrap();
        let mut expected = 0usize;
        for k in 0..10i16 {
            let nr = r_keys.iter().filter(|x| **x == k).count();
            let ns = s_keys.iter().filter(|x| **x == k).count();
            expected += nr * ns;
        }
        prop_assert_eq!(out.tuple_count(), expected);
    }

    #[test]
    fn aggregation_count_sums_to_input(
        keys in prop::collection::vec(0i16..12, 1..300),
        mem_pages in 1usize..30,
    ) {
        use mmdb_exec::aggregate::{hybrid_hash_aggregate, AggFunc};
        let rel = relation(keys.clone(), 8);
        let ctx = ExecContext::new(mem_pages, 1.2);
        let out = hybrid_hash_aggregate(&rel, 0, &[AggFunc::Count], &ctx).unwrap();
        let total: i64 = out.tuples().iter().map(|t| t.get(1).as_int().unwrap()).sum();
        prop_assert_eq!(total as usize, keys.len());
        // One output row per distinct key.
        let distinct: std::collections::HashSet<i16> = keys.into_iter().collect();
        prop_assert_eq!(out.tuple_count(), distinct.len());
    }

    #[test]
    fn projection_distinct_equals_hashset(
        keys in prop::collection::vec(-5i16..5, 0..300),
        mem_pages in 1usize..30,
    ) {
        use mmdb_exec::project::hybrid_hash_project;
        let rel = relation(keys.clone(), 8);
        let ctx = ExecContext::new(mem_pages, 1.2);
        let out = hybrid_hash_project(&rel, &[0], &ctx).unwrap();
        let got: std::collections::HashSet<i64> = out
            .tuples()
            .iter()
            .map(|t| t.get(0).as_int().unwrap())
            .collect();
        let want: std::collections::HashSet<i64> =
            keys.into_iter().map(|k| k as i64).collect();
        prop_assert_eq!(out.tuple_count(), want.len(), "duplicates must be gone");
        prop_assert_eq!(got, want);
    }
}
