//! Larger combined-load scenarios: the engine under sustained mixed DML +
//! query traffic, and the transactional store under long crash/recover
//! cycles. These are the "does it hold up" tests a downstream adopter
//! would run first.

use mmdb::{Database, IndexKind};
use mmdb_planner::{JoinEdge, QuerySpec, TableRef};
use mmdb_recovery::{CommitMode, RecoveryManager};
use mmdb_types::{CmpOp, DataType, Predicate, Schema, Tuple, Value, WorkloadRng};

#[test]
fn sustained_dml_with_index_maintenance() {
    let mut db = Database::new();
    db.create_table(
        "t",
        Schema::of(&[("id", DataType::Int), ("grp", DataType::Int)]),
    )
    .unwrap();
    db.create_index("t", 0, IndexKind::BPlusTree).unwrap();
    db.create_index("t", 1, IndexKind::Hash).unwrap();
    let mut rng = WorkloadRng::seeded(60);
    let mut live: std::collections::BTreeMap<i64, i64> = Default::default();
    let mut next_id = 0i64;
    for round in 0..2_000 {
        match rng.index(10) {
            0..=5 => {
                let grp = rng.int_in(0, 16);
                db.insert("t", Tuple::new(vec![Value::Int(next_id), Value::Int(grp)]))
                    .unwrap();
                live.insert(next_id, grp);
                next_id += 1;
            }
            6..=7 => {
                if next_id > 0 {
                    let victim = rng.int_in(0, next_id);
                    let removed = db
                        .table_mut("t")
                        .unwrap()
                        .delete_where(&Predicate::eq(0, victim));
                    assert_eq!(removed, usize::from(live.remove(&victim).is_some()));
                }
            }
            _ => {
                if next_id > 0 {
                    let probe = rng.int_in(0, next_id);
                    let got = db.lookup_eq("t", 0, &Value::Int(probe)).unwrap();
                    match live.get(&probe) {
                        Some(grp) => {
                            assert_eq!(got.len(), 1, "round {round}");
                            assert_eq!(got[0].get(1), &Value::Int(*grp));
                        }
                        None => assert!(got.is_empty(), "round {round}"),
                    }
                }
            }
        }
    }
    // Final cross-checks: group index, range scan, and full count agree
    // with the oracle.
    assert_eq!(db.table("t").unwrap().len(), live.len());
    for grp in 0..16i64 {
        let via_index = db.lookup_eq("t", 1, &Value::Int(grp)).unwrap().len();
        let oracle = live.values().filter(|g| **g == grp).count();
        assert_eq!(via_index, oracle, "group {grp}");
    }
    let lo = next_id / 4;
    let hi = next_id / 2;
    let ranged = db
        .range_scan("t", 0, &Value::Int(lo), &Value::Int(hi))
        .unwrap();
    assert_eq!(
        ranged.len(),
        live.range(lo..=hi).count(),
        "range [{lo}, {hi}]"
    );
}

#[test]
fn repeated_crash_recover_cycles_accumulate_correctly() {
    let mut store = RecoveryManager::new(CommitMode::GroupCommit);
    let seed = store.begin();
    for a in 0..20u64 {
        store.write(&seed, a, 0).unwrap();
    }
    store.commit(seed).unwrap();
    store.flush_and_wait();
    let mut expected: Vec<i64> = vec![0; 20];
    for cycle in 0..6 {
        // Commit a batch, leave one transaction in flight, crash, recover.
        for i in 0..30u64 {
            let key = (cycle * 7 + i) % 20;
            let t = store.begin();
            store.write(&t, key, expected[key as usize] + 1).unwrap();
            store.commit(t).unwrap();
            expected[key as usize] += 1;
        }
        store.flush_and_wait();
        let doomed = store.begin();
        store.write(&doomed, 0, -1).unwrap();
        let (recovered, report) = RecoveryManager::recover(store.crash());
        store = recovered;
        assert!(report.losers.len() <= 1, "cycle {cycle}: {report:?}");
        for (k, v) in expected.iter().enumerate() {
            assert_eq!(store.read(k as u64), Some(*v), "cycle {cycle}, key {k}");
        }
    }
}

#[test]
fn query_results_survive_table_mutation_between_queries() {
    let mut db = Database::new();
    db.create_table(
        "orders",
        Schema::of(&[("id", DataType::Int), ("cust", DataType::Int)]),
    )
    .unwrap();
    db.create_table(
        "cust",
        Schema::of(&[("id", DataType::Int), ("tier", DataType::Int)]),
    )
    .unwrap();
    let mut rng = WorkloadRng::seeded(61);
    for c in 0..50i64 {
        db.insert("cust", Tuple::new(vec![Value::Int(c), Value::Int(c % 3)]))
            .unwrap();
    }
    let spec = QuerySpec {
        tables: vec![
            TableRef::plain("orders"),
            TableRef::filtered("cust", Predicate::cmp(1, CmpOp::Eq, 1i64)),
        ],
        joins: vec![JoinEdge {
            left_table: 0,
            left_column: 1,
            right_table: 1,
            right_column: 0,
        }],
    };
    let mut last = 0usize;
    for wave in 0..5 {
        for i in 0..200i64 {
            db.insert(
                "orders",
                Tuple::new(vec![
                    Value::Int(wave * 200 + i),
                    Value::Int(rng.int_in(0, 50)),
                ]),
            )
            .unwrap();
        }
        let outcome = db.query(&spec).unwrap();
        let oracle = db
            .table("orders")
            .unwrap()
            .scan()
            .filter(|t| t.get(1).as_int().unwrap() % 3 == 1)
            .count();
        assert_eq!(outcome.rows.tuple_count(), oracle, "wave {wave}");
        assert!(outcome.rows.tuple_count() >= last);
        last = outcome.rows.tuple_count();
    }
}
