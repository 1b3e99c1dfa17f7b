//! Property-based testing of the access methods against a `BTreeMap`
//! oracle: arbitrary interleavings of inserts, deletes and lookups must
//! preserve contents, ordering, and structural invariants.

use mmdb_index::{AvlTree, BPlusTree};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Insert(i16, i32),
    Remove(i16),
    Lookup(i16),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (any::<i16>(), any::<i32>()).prop_map(|(k, v)| Op::Insert(k, v)),
            any::<i16>().prop_map(Op::Remove),
            any::<i16>().prop_map(Op::Lookup),
        ],
        1..400,
    )
}

proptest! {
    #[test]
    fn avl_matches_btreemap(ops in ops()) {
        let mut tree = AvlTree::new();
        let mut oracle = std::collections::BTreeMap::new();
        for op in ops {
            match op {
                Op::Insert(k, v) => prop_assert_eq!(tree.insert(k, v), oracle.insert(k, v)),
                Op::Remove(k) => prop_assert_eq!(tree.remove(&k), oracle.remove(&k)),
                Op::Lookup(k) => prop_assert_eq!(tree.get(&k), oracle.get(&k)),
            }
        }
        tree.check_invariants().map_err(TestCaseError::fail)?;
        prop_assert_eq!(tree.len(), oracle.len());
        let got: Vec<(i16, i32)> = tree.iter().map(|(k, v)| (*k, *v)).collect();
        let want: Vec<(i16, i32)> = oracle.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn bptree_matches_btreemap(ops in ops()) {
        let mut tree = BPlusTree::new(5, 4); // small nodes stress splits/merges
        let mut oracle = std::collections::BTreeMap::new();
        for op in ops {
            match op {
                Op::Insert(k, v) => prop_assert_eq!(tree.insert(k, v), oracle.insert(k, v)),
                Op::Remove(k) => prop_assert_eq!(tree.remove(&k), oracle.remove(&k)),
                Op::Lookup(k) => prop_assert_eq!(tree.get(&k), oracle.get(&k)),
            }
        }
        tree.check_invariants().map_err(TestCaseError::fail)?;
        let got: Vec<(i16, i32)> = tree.iter().map(|(k, v)| (*k, *v)).collect();
        let want: Vec<(i16, i32)> = oracle.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn bulk_load_equals_incremental_build(
        mut keys in prop::collection::btree_set(any::<i32>(), 1..500),
        fill in 0.3f64..1.0,
    ) {
        let pairs: Vec<(i32, i32)> = keys.iter().map(|&k| (k, k.wrapping_mul(3))).collect();
        let bulk = BPlusTree::bulk_load(8, 8, fill, pairs.clone());
        bulk.check_invariants().map_err(TestCaseError::fail)?;
        let mut incr = BPlusTree::new(8, 8);
        for (k, v) in &pairs {
            incr.insert(*k, *v);
        }
        let a: Vec<_> = bulk.iter().map(|(k, v)| (*k, *v)).collect();
        let b: Vec<_> = incr.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(a, b);
        // Scan-from agrees with the oracle's range.
        let probe = *keys.iter().next().unwrap();
        keys.retain(|k| *k >= probe);
        let mut trace = mmdb_index::AccessTrace::default();
        let run: Vec<i32> = bulk
            .scan_from_traced(&probe, 10, &mut trace)
            .into_iter()
            .map(|(k, _)| *k)
            .collect();
        let want: Vec<i32> = keys.into_iter().take(10).collect();
        prop_assert_eq!(run, want);
    }

    #[test]
    fn scan_from_traced_equals_iter_suffix(
        keys in prop::collection::btree_set(any::<i16>(), 1..300),
        from in any::<i16>(),
        limit in 0usize..50,
    ) {
        let mut avl = AvlTree::new();
        let mut bp = BPlusTree::new(6, 6);
        for &k in &keys {
            avl.insert(k, ());
            bp.insert(k, ());
        }
        let want: Vec<i16> = keys.range(from..).take(limit).copied().collect();
        let mut t1 = mmdb_index::AccessTrace::default();
        let got_avl: Vec<i16> = avl
            .scan_from_traced(&from, limit, &mut t1)
            .into_iter()
            .map(|(k, _)| *k)
            .collect();
        let mut t2 = mmdb_index::AccessTrace::default();
        let got_bp: Vec<i16> = bp
            .scan_from_traced(&from, limit, &mut t2)
            .into_iter()
            .map(|(k, _)| *k)
            .collect();
        prop_assert_eq!(&got_avl, &want);
        prop_assert_eq!(&got_bp, &want);
    }
}
