//! Larger combined-load scenarios: the SQL database under sustained mixed
//! DML + query traffic, and the transactional store under long
//! crash/recover cycles. These are the "does it hold up" tests a downstream adopter
//! would run first.

use mmdb_recovery::{CommitPolicy, RecoveryManager};
use mmdb_sql::{SqlDb, SqlSession};
use mmdb_suite::scratch_engine;
use mmdb_types::WorkloadRng;

fn ints(sql: &mut SqlSession, query: &str) -> Vec<i64> {
    let rows = sql.execute(query).unwrap().rows;
    rows.iter().map(|row| row[0].as_int().unwrap()).collect()
}

#[test]
fn sustained_dml_with_index_maintenance() {
    let (engine, dir) = scratch_engine("stress-dml");
    let db = SqlDb::open(&engine).unwrap();
    let mut sql = db.session();
    sql.execute("CREATE TABLE t (id INT, grp INT)").unwrap();
    // An equality probe builds the `grp` index now, so every insert and
    // delete below must maintain it; the `id` index is built the same way
    // by the first probe or delete.
    assert!(ints(&mut sql, "SELECT id FROM t WHERE grp = 0").is_empty());
    let mut rng = WorkloadRng::seeded(60);
    let mut live: std::collections::BTreeMap<i64, i64> = Default::default();
    let mut next_id = 0i64;
    for round in 0..2_000 {
        match rng.index(10) {
            0..=5 => {
                let grp = rng.int_in(0, 16);
                sql.execute(&format!("INSERT INTO t VALUES ({next_id}, {grp})"))
                    .unwrap();
                live.insert(next_id, grp);
                next_id += 1;
            }
            6..=7 => {
                if next_id > 0 {
                    let victim = rng.int_in(0, next_id);
                    let removed = sql.execute(&format!("DELETE FROM t WHERE id = {victim}"));
                    let removed = removed.unwrap().affected;
                    assert_eq!(removed, u64::from(live.remove(&victim).is_some()));
                }
            }
            _ => {
                if next_id > 0 {
                    let probe = rng.int_in(0, next_id);
                    let got = ints(&mut sql, &format!("SELECT grp FROM t WHERE id = {probe}"));
                    let want: Vec<i64> = live.get(&probe).copied().into_iter().collect();
                    assert_eq!(got, want, "round {round}");
                }
            }
        }
    }
    // Final cross-checks: the id and group indexes, a range walk, and the
    // full count agree with the oracle.
    assert_eq!(ints(&mut sql, "SELECT id FROM t").len(), live.len());
    for grp in 0..16i64 {
        let via_index = ints(&mut sql, &format!("SELECT id FROM t WHERE grp = {grp}"));
        let oracle = live.values().filter(|g| **g == grp).count();
        assert_eq!(via_index.len(), oracle, "group {grp}");
    }
    let (lo, hi) = (next_id / 4, next_id / 2);
    let query = format!("SELECT id FROM t WHERE id >= {lo} AND id <= {hi}");
    let mut ranged = ints(&mut sql, &query);
    ranged.sort_unstable();
    let oracle: Vec<i64> = live.range(lo..=hi).map(|(id, _)| *id).collect();
    assert_eq!(ranged, oracle, "range [{lo}, {hi}]");
    engine.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repeated_crash_recover_cycles_accumulate_correctly() {
    let mut store = RecoveryManager::new(CommitPolicy::Group);
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
    let (engine, dir) = scratch_engine("stress-join");
    let db = SqlDb::open(&engine).unwrap();
    let mut sql = db.session();
    sql.execute("CREATE TABLE orders (id INT, cust INT)")
        .unwrap();
    sql.execute("CREATE TABLE cust (id INT, tier INT)").unwrap();
    let custs: Vec<String> = (0..50).map(|c| format!("({c}, {})", c % 3)).collect();
    sql.execute(&format!("INSERT INTO cust VALUES {}", custs.join(", ")))
        .unwrap();
    let query = "SELECT orders.id FROM orders JOIN cust ON orders.cust = cust.id \
                 WHERE cust.tier = 1";
    let mut rng = WorkloadRng::seeded(61);
    let mut oracle: Vec<i64> = Vec::new();
    for wave in 0..5 {
        let orders: Vec<(i64, i64)> = (0..200)
            .map(|i| (wave * 200 + i, rng.int_in(0, 50)))
            .collect();
        let values: Vec<String> = orders
            .iter()
            .map(|(id, c)| format!("({id}, {c})"))
            .collect();
        sql.execute(&format!("INSERT INTO orders VALUES {}", values.join(", ")))
            .unwrap();
        oracle.extend(orders.iter().filter(|(_, c)| c % 3 == 1).map(|(id, _)| id));
        let mut got = ints(&mut sql, query);
        got.sort_unstable();
        assert_eq!(got, oracle, "wave {wave}");
    }
    engine.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
