//! Property-based testing of the §3 executors: every join algorithm must
//! equal the nested-loops oracle for arbitrary inputs and memory grants;
//! sorting must equal `sort()`; partitioning must be compatible (§3.3);
//! every §3.9 grouping strategy must equal a direct count of the groups.

use mmdb_exec::aggregate::{group, AggFunc, Strategy};
use mmdb_exec::join::{nested_loops_join, run_join, JoinSpec};
use mmdb_exec::sort::external_sort;
use mmdb_exec::ExecContext;
use mmdb_exec::MemRelation;
use mmdb_types::{DataType, JoinAlgorithm, Schema, Tuple, Value};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

const STRATEGIES: [Strategy; 3] = [Strategy::Hash, Strategy::HybridHash, Strategy::Sort];

fn relation(keys: Vec<i16>, per_page: usize) -> MemRelation {
    let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
    let tuples = keys
        .into_iter()
        .enumerate()
        .map(|(i, k)| Tuple::new(vec![Value::Int(k as i64), Value::Int(i as i64)]))
        .collect();
    MemRelation::from_tuples(schema, per_page, tuples).unwrap()
}

/// Rows `(a, b, i)`: two key columns drawn in pairs, then the row's index.
fn grouped(keys: &[(i16, i16)]) -> MemRelation {
    let schema = Schema::of(&[
        ("a", DataType::Int),
        ("b", DataType::Int),
        ("i", DataType::Int),
    ]);
    let tuples = keys
        .iter()
        .enumerate()
        .map(|(i, &(a, b))| {
            Tuple::new(vec![
                Value::Int(a.into()),
                Value::Int(b.into()),
                Value::Int(i as i64),
            ])
        })
        .collect();
    MemRelation::from_tuples(schema, 8, tuples).unwrap()
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
        let want = canonical(&nested_loops_join(&r, &s, spec, &oracle_ctx).unwrap());
        let algo = JoinAlgorithm::ALL[algo_pick as usize];
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
        let out = run_join(JoinAlgorithm::HybridHash, &r, &s, JoinSpec::new(0, 0), &ctx).unwrap();
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
        keys in prop::collection::vec((0i16..12, 0i16..3), 1..300),
        mem_pages in 1usize..30,
        strategy_pick in 0usize..3,
        width in 1usize..3,
    ) {
        let rel = grouped(&keys);
        let strategy = STRATEGIES[strategy_pick];
        let cols = &[0, 1][..width];
        let aggs = [AggFunc::Count, AggFunc::Sum(2), AggFunc::Min(2), AggFunc::Max(2)];
        let ctx = ExecContext::new(mem_pages, 1.2);
        let out = group(&rel, cols, &aggs, strategy, &ctx).unwrap();
        let total: i64 = out.tuples().iter().map(|t| t.get(width).as_int().unwrap()).sum();
        prop_assert_eq!(total as usize, keys.len());
        // One output row per key, carrying that key's aggregates.
        let mut groups: BTreeMap<Vec<i64>, (i64, i64, i64, i64)> = BTreeMap::new();
        for (i, &(a, b)) in keys.iter().enumerate() {
            let i = i as i64;
            let g = groups.entry([a.into(), b.into()][..width].to_vec()).or_insert((0, 0, i, i));
            *g = (g.0 + 1, g.1 + i, g.2.min(i), g.3.max(i));
        }
        let want: Vec<Tuple> = groups
            .into_iter()
            .map(|(key, (count, sum, min, max))| {
                let mut values: Vec<Value> = key.into_iter().map(Value::Int).collect();
                values.extend([Value::Int(count), Value::Float(sum as f64), Value::Int(min), Value::Int(max)]);
                Tuple::new(values)
            })
            .collect();
        prop_assert_eq!(canonical(&out), want, "{:?} on {:?} at {} pages", strategy, cols, mem_pages);
    }

    #[test]
    fn projection_distinct_equals_hashset(
        keys in prop::collection::vec((-5i16..5, 0i16..3), 0..300),
        mem_pages in 1usize..30,
        strategy_pick in 0usize..3,
        width in 1usize..3,
    ) {
        let rel = grouped(&keys);
        let strategy = STRATEGIES[strategy_pick];
        let cols = &[0, 1][..width];
        let ctx = ExecContext::new(mem_pages, 1.2);
        let out = group(&rel, cols, &[], strategy, &ctx).unwrap();
        let want: BTreeSet<Tuple> = keys
            .iter()
            .map(|&(a, b)| Tuple::new([Value::Int(a.into()), Value::Int(b.into())][..width].to_vec()))
            .collect();
        prop_assert_eq!(out.tuple_count(), want.len(), "duplicates must be gone");
        prop_assert_eq!(canonical(&out), want.into_iter().collect::<Vec<_>>(), "{:?} on {:?} at {} pages", strategy, cols, mem_pages);
    }
}
