//! The §2 access paths of the SQL layer, checked two ways.
//!
//! *By count, never by clock*: the `mmdb_sql_*` counters say whether a
//! statement probed an index or visited cached rows, so "a keyed
//! statement costs the same at 1,000 and at 10,000 rows" is an equality
//! of counts, and "an index exists only because a statement probed its
//! column" is `mmdb_sql_index_builds_total` read after loads, restarts
//! and probes.
//!
//! *Differentially*: random statement sequences from two interleaved
//! sessions — inserts, key-changing updates, deletes, commits and
//! rollbacks over duplicate, `NULL`, and `FLOAT`-vs-`INT`-literal keys —
//! where every `WHERE col = lit [AND …]` statement must return or affect
//! exactly what a reference filter over `SELECT *` (an unkeyed scan, no
//! index involved) says, before and after the column's index exists,
//! with `SqlDb::audit` (cache = engine, index = column of the cache)
//! after every step.

use mmdb_session::{CommitPolicy, Engine, EngineOptions};
use mmdb_sql::{ErrorClass, SqlDb, SqlSession};
use mmdb_types::{Auditable, Value};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mmdb-sql-index-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn options(dir: &PathBuf) -> EngineOptions {
    // A short window keeps hundreds of autocommit statements quick; a
    // short lock wait keeps the sessions' write-write conflicts quick.
    EngineOptions::new(CommitPolicy::Group, dir)
        .with_flush_interval(Duration::from_micros(50))
        .with_lock_wait_timeout(Duration::from_millis(5))
}

/// `[probes, builds, rows scanned]` as the engine's registry reads now.
fn counts(engine: &Engine) -> [u64; 3] {
    let stats = engine.stats();
    [
        "mmdb_sql_index_probes_total",
        "mmdb_sql_index_builds_total",
        "mmdb_sql_rows_scanned_total",
    ]
    .map(|name| stats.counter(name).expect(name))
}

/// Runs `sql` and returns what it added to `[probes, builds, scanned]`.
fn added_by(engine: &Engine, s: &mut SqlSession, sql: &str) -> [u64; 3] {
    let before = counts(engine);
    s.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    let after = counts(engine);
    [0, 1, 2].map(|i| after[i] - before[i])
}

#[test]
fn keyed_statements_probe_once_and_scan_nothing_at_1k_and_10k_rows() {
    for rows in [1_000u64, 10_000] {
        let dir = tmp_dir(&format!("counts-{rows}"));
        let engine = Engine::start(options(&dir)).unwrap();
        let db = SqlDb::open(&engine).unwrap();
        let mut s = db.session();
        s.execute("CREATE TABLE acct (id INT, bal INT, branch INT, note TEXT)")
            .unwrap();
        let ids: Vec<u64> = (0..rows).collect();
        for chunk in ids.chunks(64) {
            let values: Vec<String> = chunk
                .iter()
                .map(|id| format!("({id}, 100, {}, 'n{id}')", id % 10))
                .collect();
            s.execute(&format!("INSERT INTO acct VALUES {}", values.join(", ")))
                .unwrap();
        }
        // A load is INSERT-only: it builds, probes and scans nothing.
        assert_eq!(counts(&engine), [0, 0, 0], "{rows} rows loaded");

        // The first equality on `id` finds no index: it scans every row,
        // and exactly one build follows before it returns.
        let first = added_by(&engine, &mut s, "SELECT bal FROM acct WHERE id = 7");
        assert_eq!(first, [0, 1, rows], "first probe of id at {rows} rows");

        // From then on a keyed statement of any kind is one probe, no
        // build, no row scanned — the same counts at either size.
        for sql in [
            "SELECT bal FROM acct WHERE id = 7",
            "SELECT bal FROM acct WHERE id = 999 AND bal >= 0",
            "UPDATE acct SET bal = bal - 1 WHERE id = 7",
            "UPDATE acct SET id = 500000 WHERE id = 8",
            "DELETE FROM acct WHERE id = 9",
            "DELETE FROM acct WHERE id = 500000",
        ] {
            assert_eq!(added_by(&engine, &mut s, sql), [1, 0, 0], "{sql} at {rows}");
        }

        // A second column gets its own index the same way — here an
        // UPDATE is the first to probe it — and only once.
        let two_gone = rows - 2;
        let first = added_by(&engine, &mut s, "UPDATE acct SET bal = 0 WHERE branch = 3");
        assert_eq!(first, [0, 1, two_gone], "first probe of branch");
        for _ in 0..2 {
            let again = added_by(&engine, &mut s, "SELECT id FROM acct WHERE branch = 3");
            assert_eq!(again, [1, 0, 0]);
        }
        // No equality conjunct, no probe and no build: a scan.
        let ranged = added_by(&engine, &mut s, "SELECT id FROM acct WHERE bal > 100");
        assert_eq!(ranged, [0, 0, two_gone]);

        let r = s.execute("SELECT id FROM acct WHERE branch = 3").unwrap();
        assert_eq!(r.rows.len() as u64, rows / 10);
        db.audit().unwrap();
        drop(s);
        engine.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn an_insert_only_history_and_a_restart_build_no_index() {
    // The `ingest_recover` shape: 16-row INSERTs, a crash, a restart.
    let dir = tmp_dir("ingest");
    let engine = Engine::start(options(&dir)).unwrap();
    let db = SqlDb::open(&engine).unwrap();
    let mut s = db.session();
    s.execute("CREATE TABLE events (id INT, src INT, val INT, payload TEXT)")
        .unwrap();
    let insert = |s: &mut SqlSession, batch: u64| {
        let values: Vec<String> = (0..16)
            .map(|i| format!("({}, {i}, 1, 'p')", batch * 16 + i))
            .collect();
        s.execute(&format!("INSERT INTO events VALUES {}", values.join(", ")))
            .unwrap();
    };
    for batch in 0..40 {
        insert(&mut s, batch);
    }
    assert_eq!(counts(&engine), [0, 0, 0]);
    drop(s);
    engine.crash().unwrap();

    let (engine, _info) = Engine::recover(options(&dir)).unwrap();
    let db = SqlDb::open(&engine).unwrap();
    assert_eq!(counts(&engine), [0, 0, 0], "open after recovery");
    let mut s = db.session();
    insert(&mut s, 40);
    assert_eq!(counts(&engine), [0, 0, 0], "inserts after recovery");
    // The rows are all there — and asking by key is what makes an index.
    let keyed = added_by(&engine, &mut s, "SELECT val FROM events WHERE id = 655");
    assert_eq!(keyed, [0, 1, 41 * 16]);
    db.audit().unwrap();
    drop(s);
    engine.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_select_that_fails_to_bind_builds_no_index() {
    let dir = tmp_dir("failed-bind");
    let engine = Engine::start(options(&dir)).unwrap();
    let db = SqlDb::open(&engine).unwrap();
    let mut s = db.session();
    s.execute("CREATE TABLE t (a INT, b INT)").unwrap();
    s.execute("INSERT INTO t VALUES (1, 1)").unwrap();
    s.execute("INSERT INTO t VALUES (2, 1)").unwrap();
    // `b = 1` would ask for an index on `b`, but the projection names a
    // column `t` does not have: the statement fails while binding, before
    // any table is reached.
    for sql in [
        "SELECT nope FROM t WHERE b = 1",
        "SELECT a FROM t, u WHERE b = 1",
        "SELECT a FROM t WHERE b = 1 AND t.a = t.b",
    ] {
        let before = counts(&engine);
        assert!(s.execute(sql).is_err(), "{sql} must not bind");
        assert_eq!(counts(&engine), before, "{sql}");
    }
    // The same predicate in a statement that binds builds the index once.
    assert_eq!(
        added_by(&engine, &mut s, "SELECT a FROM t WHERE b = 1"),
        [0, 1, 2]
    );
    db.audit().unwrap();
    drop(s);
    engine.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Differential property test
// ---------------------------------------------------------------------

/// A literal as the test writes it into SQL.
#[derive(Debug, Clone, PartialEq)]
enum Lit {
    Null,
    Int(i64),
    Float(f64),
    Str(&'static str),
}

impl Lit {
    fn sql(&self) -> String {
        match self {
            Lit::Null => "NULL".to_string(),
            Lit::Int(i) => i.to_string(),
            Lit::Float(x) => format!("{x:?}"),
            Lit::Str(s) => format!("'{s}'"),
        }
    }
}

/// `cell = literal`, spelled out independently of the engine: `NULL`
/// equals only `NULL`, `INT` and `FLOAT` compare numerically whichever
/// side is which, strings compare as strings, and values of different
/// kinds are never equal.
fn ref_eq(cell: &Value, lit: &Lit) -> bool {
    match (cell, lit) {
        (Value::Null, Lit::Null) => true,
        (Value::Int(a), Lit::Int(b)) => a == b,
        (Value::Int(a), Lit::Float(b)) => *a as f64 == *b,
        (Value::Float(a), Lit::Int(b)) => *a == *b as f64,
        (Value::Float(a), Lit::Float(b)) => a == b,
        (Value::Str(a), Lit::Str(b)) => a == b,
        _ => false,
    }
}

/// Table `t (k INT, f FLOAT, s TEXT, n INT)`; `n` is never `NULL`.
const COLUMNS: [&str; 4] = ["k", "f", "s", "n"];

/// `WHERE <column> = <lit> [AND n >= <min_n>]`.
#[derive(Debug, Clone)]
struct Where {
    column: usize,
    lit: Lit,
    min_n: Option<i64>,
}

impl Where {
    fn sql(&self) -> String {
        let mut sql = format!("{} = {}", COLUMNS[self.column], self.lit.sql());
        if let Some(min) = self.min_n {
            sql.push_str(&format!(" AND n >= {min}"));
        }
        sql
    }

    fn keeps(&self, row: &[Value]) -> bool {
        ref_eq(&row[self.column], &self.lit)
            && self
                .min_n
                .map_or(true, |min| matches!(row[3], Value::Int(n) if n >= min))
    }
}

/// `SET <column> = <value>`, or `SET n = n + 1` when `value` is `None`.
#[derive(Debug, Clone)]
struct Set {
    column: usize,
    value: Option<Lit>,
}

impl Set {
    fn sql(&self) -> String {
        match &self.value {
            Some(lit) => format!("{} = {}", COLUMNS[self.column], lit.sql()),
            None => "n = n + 1".to_string(),
        }
    }

    fn apply(&self, row: &mut [Value]) {
        row[self.column] = match (&self.value, &row[self.column]) {
            (None, Value::Int(n)) => Value::Int(n + 1),
            (None, other) => other.clone(),
            (Some(Lit::Null), _) => Value::Null,
            // An INT literal assigned to the FLOAT column widens.
            (Some(Lit::Int(i)), _) if self.column == 1 => Value::Float(*i as f64),
            (Some(Lit::Int(i)), _) => Value::Int(*i),
            (Some(Lit::Float(x)), _) => Value::Float(*x),
            (Some(Lit::Str(s)), _) => Value::Str((*s).to_string()),
        };
    }
}

#[derive(Debug, Clone)]
enum Op {
    Begin,
    Commit,
    Rollback,
    Insert([Lit; 4]),
    Select(Where),
    Update(Set, Where),
    Delete(Where),
}

fn int_key() -> BoxedStrategy<Lit> {
    prop_oneof![(0i64..4).prop_map(Lit::Int), Just(Lit::Null)].boxed()
}

fn float_key() -> BoxedStrategy<Lit> {
    prop_oneof![
        Just(Lit::Float(0.5)),
        Just(Lit::Float(1.0)),
        Just(Lit::Float(2.0)),
        Just(Lit::Null)
    ]
    .boxed()
}

fn str_key() -> BoxedStrategy<Lit> {
    prop_oneof![Just(Lit::Str("a")), Just(Lit::Str("b")), Just(Lit::Null)].boxed()
}

fn where_clause() -> BoxedStrategy<Where> {
    let keyed = prop_oneof![
        // `k`, the INT column: INT, FLOAT (whole and not), NULL and TEXT
        // literals.
        (
            Just(0usize),
            prop_oneof![
                int_key(),
                Just(Lit::Float(1.0)),
                Just(Lit::Float(1.5)),
                Just(Lit::Str("a"))
            ]
        ),
        // `f`, the FLOAT column: FLOAT, INT and NULL literals.
        (
            Just(1usize),
            prop_oneof![float_key(), (0i64..3).prop_map(Lit::Int)]
        ),
        (Just(2usize), str_key()),
    ];
    (keyed, prop_oneof![Just(None), (0i64..3).prop_map(Some)])
        .prop_map(|((column, lit), min_n)| Where { column, lit, min_n })
        .boxed()
}

fn set_clause() -> BoxedStrategy<Set> {
    prop_oneof![
        Just(Set {
            column: 3,
            value: None
        }),
        int_key().prop_map(|lit| Set {
            column: 0,
            value: Some(lit)
        }),
        prop_oneof![float_key(), (0i64..3).prop_map(Lit::Int)].prop_map(|lit| Set {
            column: 1,
            value: Some(lit)
        }),
        str_key().prop_map(|lit| Set {
            column: 2,
            value: Some(lit)
        }),
    ]
    .boxed()
}

fn insert_op() -> BoxedStrategy<Op> {
    (int_key(), float_key(), str_key(), 0i64..3)
        .prop_map(|(k, f, s, n)| Op::Insert([k, f, s, Lit::Int(n)]))
        .boxed()
}

fn op() -> BoxedStrategy<Op> {
    prop_oneof![
        Just(Op::Begin),
        Just(Op::Commit),
        Just(Op::Rollback),
        insert_op(),
        insert_op(),
        insert_op(),
        where_clause().prop_map(Op::Select),
        where_clause().prop_map(Op::Select),
        (set_clause(), where_clause()).prop_map(|(set, w)| Op::Update(set, w)),
        (set_clause(), where_clause()).prop_map(|(set, w)| Op::Update(set, w)),
        where_clause().prop_map(Op::Delete),
    ]
    .boxed()
}

/// `SELECT * FROM t`: an unkeyed scan in rid order — the reference's
/// only window on the table.
fn select_all(s: &mut SqlSession) -> Vec<Vec<Value>> {
    s.execute("SELECT * FROM t").expect("SELECT *").rows
}

/// Runs `sql`, an `UPDATE` or `DELETE` the reference expects to touch
/// `affected` rows and leave the table as `expected`. A write-write
/// conflict with the other session's open transaction is the one
/// accepted failure (and rolls this session's transaction back).
fn check_mutation(
    s: &mut SqlSession,
    sql: &str,
    affected: usize,
    expected: Vec<Vec<Value>>,
) -> Result<(), TestCaseError> {
    match s.execute(sql) {
        Ok(r) => {
            prop_assert_eq!(r.affected as usize, affected, "{}", sql);
            prop_assert_eq!(select_all(s), expected, "{}", sql);
        }
        Err(e) => {
            prop_assert_eq!(e.class(), ErrorClass::Retryable, "{}: {}", sql, e);
            prop_assert!(
                !s.in_transaction(),
                "{} failed and left a transaction open",
                sql
            );
        }
    }
    Ok(())
}

static CASE: AtomicUsize = AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn keyed_statements_agree_with_a_reference_filter(
        script in collection::vec((0usize..2, op()), 10..50),
    ) {
        // ordering: a test-local sequence number, nothing is published.
        let dir = tmp_dir(&format!("props-{}", CASE.fetch_add(1, Ordering::Relaxed)));
        let engine = Engine::start(options(&dir)).unwrap();
        let db = SqlDb::open(&engine).unwrap();
        let mut sessions = [db.session(), db.session()];
        sessions[0]
            .execute("CREATE TABLE t (k INT, f FLOAT, s TEXT, n INT)")
            .unwrap();
        let mut probed: BTreeSet<usize> = BTreeSet::new();

        for (who, step) in &script {
            let s = &mut sessions[*who];
            match step {
                Op::Begin if !s.in_transaction() => {
                    s.execute("BEGIN").unwrap();
                }
                Op::Commit if s.in_transaction() => {
                    s.execute("COMMIT").unwrap();
                }
                Op::Rollback if s.in_transaction() => {
                    s.execute("ROLLBACK").unwrap();
                }
                Op::Begin | Op::Commit | Op::Rollback => {}
                Op::Insert(row) => {
                    let values: Vec<String> = row.iter().map(Lit::sql).collect();
                    let sql = format!("INSERT INTO t VALUES ({})", values.join(", "));
                    prop_assert_eq!(s.execute(&sql).unwrap().affected, 1);
                }
                Op::Select(w) => {
                    probed.insert(w.column);
                    let expected: Vec<Vec<Value>> =
                        select_all(s).into_iter().filter(|row| w.keeps(row)).collect();
                    let sql = format!("SELECT * FROM t WHERE {}", w.sql());
                    // Twice: the first may be the scan that builds the
                    // column's index, the second is certainly a probe.
                    for _ in 0..2 {
                        let got = s.execute(&sql).unwrap().rows;
                        prop_assert_eq!(&got, &expected, "{}", &sql);
                    }
                }
                Op::Update(set, w) => {
                    probed.insert(w.column);
                    let mut expected = select_all(s);
                    let mut affected = 0;
                    for row in expected.iter_mut().filter(|row| w.keeps(row)) {
                        set.apply(row);
                        affected += 1;
                    }
                    let sql = format!("UPDATE t SET {} WHERE {}", set.sql(), w.sql());
                    check_mutation(s, &sql, affected, expected)?;
                }
                Op::Delete(w) => {
                    probed.insert(w.column);
                    let before = select_all(s);
                    let expected: Vec<Vec<Value>> =
                        before.iter().filter(|row| !w.keeps(row)).cloned().collect();
                    let affected = before.len() - expected.len();
                    let sql = format!("DELETE FROM t WHERE {}", w.sql());
                    check_mutation(s, &sql, affected, expected)?;
                }
            }
            if let Err(v) = db.audit() {
                return Err(TestCaseError::fail(format!("after {step:?}: {v:?}")));
            }
        }

        // An index exists for exactly the columns some statement probed
        // by equality — never for `n`, which none did.
        let stats = engine.stats();
        prop_assert_eq!(
            stats.counter("mmdb_sql_index_builds_total"),
            Some(probed.len() as u64)
        );
        drop(sessions);
        db.audit().unwrap();
        engine.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
