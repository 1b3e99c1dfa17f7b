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
//! where every `WHERE` with an equality, a one-sided range or a
//! two-sided range on a column must return or affect exactly what a
//! reference filter over `SELECT *` (an unkeyed scan, no index involved)
//! says, before and after the column's index exists, with
//! `SqlDb::audit` (cache = engine, index = column of the cache) after
//! every step. The reference spells out the `Value` order itself, so a
//! walk that drops the `NULL` rows below `c < v` fails it.

use mmdb_session::{CommitPolicy, Engine, EngineOptions};
use mmdb_sql::catalog::CANDIDATE_COST_RATIO;
use mmdb_sql::{ErrorClass, SqlDb, SqlSession};
use mmdb_types::{Auditable, Value};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{self, AtomicUsize};
use std::time::Duration;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mmdb-sql-index-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn options(dir: &PathBuf) -> EngineOptions {
    // A short lock wait keeps the sessions' write-write conflicts quick.
    EngineOptions::new(CommitPolicy::Group, dir).with_lock_wait_timeout(Duration::from_millis(5))
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
        // A selective range — it keeps fewer than `rows / k` rows — builds
        // its column's index once, the way an equality does, and from then
        // on walks it: one probe, no build, no row scanned, at either size.
        let first = added_by(&engine, &mut s, "SELECT id FROM acct WHERE bal > 100");
        assert_eq!(first, [0, 1, two_gone], "first range on bal at {rows}");
        for sql in [
            "SELECT id FROM acct WHERE bal > 100",
            "SELECT id, note FROM acct WHERE bal <= 0",
            "SELECT id FROM acct WHERE bal < 1 AND bal >= 0 AND branch = 3",
            "UPDATE acct SET note = 'z' WHERE bal < 1",
            "SELECT note FROM acct WHERE id > 5 AND id < 12",
            "DELETE FROM acct WHERE bal > 100",
        ] {
            assert_eq!(added_by(&engine, &mut s, sql), [1, 0, 0], "{sql} at {rows}");
        }
        // A range that keeps nearly every row stays a scan, and builds
        // nothing — on an indexed column, whose walk gives up past
        // `rows / k` candidates, and on an un-indexed one.
        for sql in [
            "SELECT id FROM acct WHERE id >= 0",
            "SELECT id FROM acct WHERE bal >= 0 AND bal < 1000",
            "SELECT id FROM acct WHERE note > 'a'",
            "SELECT id FROM acct WHERE note > 'a' AND bal >= 0",
        ] {
            assert_eq!(
                added_by(&engine, &mut s, sql),
                [0, 0, two_gone],
                "{sql} at {rows}"
            );
        }

        let r = s.execute("SELECT id FROM acct WHERE branch = 3").unwrap();
        assert_eq!(r.rows.len() as u64, rows / 10);
        let r = s.execute("SELECT id FROM acct WHERE note = 'z'").unwrap();
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

#[test]
fn a_select_that_fails_to_plan_builds_no_index() {
    let dir = tmp_dir("failed-plan");
    let engine = Engine::start(options(&dir)).unwrap();
    let db = SqlDb::open(&engine).unwrap();
    let mut s = db.session();
    s.execute("CREATE TABLE emp (id INT, dept INT)").unwrap();
    s.execute("CREATE TABLE dept (id INT, title TEXT)").unwrap();
    s.execute("INSERT INTO emp VALUES (3, 1), (4, 1)").unwrap();
    s.execute("INSERT INTO dept VALUES (1, 'eng')").unwrap();
    // Every column binds, so both tables are reached and `emp.id = 3`
    // asks for an index on `emp.id`; then no join edge connects the two
    // tables and the plan fails. A failed statement builds nothing.
    let sql = "SELECT * FROM emp, dept WHERE emp.id = 3";
    let before = counts(&engine);
    assert!(s.execute(sql).is_err(), "{sql} must not plan");
    assert_eq!(counts(&engine)[1], before[1], "{sql} built an index");
    // Joined, the same predicate builds the index once.
    let joined = "SELECT dept.title FROM emp, dept WHERE emp.id = 3 AND emp.dept = dept.id";
    assert_eq!(added_by(&engine, &mut s, joined)[1], 1);
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

/// Where `cell` sits against `literal` in the documented `Value` order,
/// spelled out independently of the engine: `NULL` below every number
/// (and equal only to `NULL`), `INT` and `FLOAT` compared numerically
/// whichever side is which, `TEXT` above every number and compared as
/// text.
fn ref_cmp(cell: &Value, lit: &Lit) -> Ordering {
    match (cell, lit) {
        (Value::Int(a), Lit::Int(b)) => a.cmp(b),
        (Value::Int(a), Lit::Float(b)) => (*a as f64).partial_cmp(b).unwrap(),
        (Value::Float(a), Lit::Int(b)) => a.partial_cmp(&(*b as f64)).unwrap(),
        (Value::Float(a), Lit::Float(b)) => a.partial_cmp(b).unwrap(),
        (Value::Str(a), Lit::Str(b)) => a.as_str().cmp(b),
        _ => {
            // NULL, then numbers, then TEXT.
            let cell_rank = match cell {
                Value::Null => 0,
                Value::Int(_) | Value::Float(_) => 1,
                Value::Str(_) => 2,
            };
            let lit_rank = match lit {
                Lit::Null => 0,
                Lit::Int(_) | Lit::Float(_) => 1,
                Lit::Str(_) => 2,
            };
            cell_rank.cmp(&lit_rank)
        }
    }
}

/// Table `t (k INT, f FLOAT, s TEXT, n INT)`; `n` is never `NULL`.
const COLUMNS: [&str; 4] = ["k", "f", "s", "n"];

/// The sixteen `TEXT` values a row of `t` may hold in `s`.
const TEXTS: [&str; 16] = [
    "a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l", "m", "n", "o", "p",
];

/// A comparison a `WHERE` conjunct makes.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Cmp {
    Eq,
    Lt,
    Le,
    Gt,
    Ge,
}

impl Cmp {
    fn sql(self) -> &'static str {
        match self {
            Cmp::Eq => "=",
            Cmp::Lt => "<",
            Cmp::Le => "<=",
            Cmp::Gt => ">",
            Cmp::Ge => ">=",
        }
    }

    /// Whether a cell ordered `ord` against the literal passes.
    fn holds(self, ord: Ordering) -> bool {
        match self {
            Cmp::Eq => ord == Ordering::Equal,
            Cmp::Lt => ord == Ordering::Less,
            Cmp::Le => ord != Ordering::Greater,
            Cmp::Gt => ord == Ordering::Greater,
            Cmp::Ge => ord != Ordering::Less,
        }
    }
}

/// `WHERE <column> <cmp> <lit> [AND <column> <cmp> <lit>] [AND n >= <min_n>]`:
/// an equality, a one-sided range or a two-sided range on one of `k`, `f`,
/// `s`, and maybe a range on `n` beside it.
#[derive(Debug, Clone)]
struct Where {
    column: usize,
    ends: Vec<(Cmp, Lit)>,
    min_n: Option<i64>,
}

impl Where {
    /// The conjuncts as `(column, cmp, literal)`, in the order the SQL
    /// names them.
    fn conjuncts(&self) -> Vec<(usize, Cmp, Lit)> {
        let mut all: Vec<(usize, Cmp, Lit)> = self
            .ends
            .iter()
            .map(|(cmp, lit)| (self.column, *cmp, lit.clone()))
            .collect();
        all.extend(self.min_n.map(|min| (3, Cmp::Ge, Lit::Int(min))));
        all
    }

    fn sql(&self) -> String {
        let conjuncts: Vec<String> = self
            .conjuncts()
            .iter()
            .map(|(column, cmp, lit)| format!("{} {} {}", COLUMNS[*column], cmp.sql(), lit.sql()))
            .collect();
        conjuncts.join(" AND ")
    }

    fn keeps(&self, row: &[Value]) -> bool {
        self.conjuncts()
            .iter()
            .all(|(column, cmp, lit)| cmp.holds(ref_cmp(&row[*column], lit)))
    }

    /// The column whose index the statement has built, given the rows it
    /// reaches and the columns `indexed` so far — `Catalog::reach`'s rule
    /// restated: an equality on an indexed column probes; else an indexed
    /// column whose range conjuncts name at most `rows / k` rows is walked;
    /// else the statement scans, and asks for the first equality column,
    /// or — only when it kept fewer than `rows / k` rows — for the first
    /// range column without an index.
    fn builds(&self, rows: &[Vec<Value>], indexed: &BTreeSet<usize>) -> Option<usize> {
        let conjuncts = self.conjuncts();
        let limit = rows.len() / CANDIDATE_COST_RATIO;
        let is_eq = |cmp: &Cmp| *cmp == Cmp::Eq;
        if conjuncts
            .iter()
            .any(|(column, cmp, _)| is_eq(cmp) && indexed.contains(column))
        {
            return None;
        }
        for column in indexed {
            let range: Vec<&(usize, Cmp, Lit)> = conjuncts
                .iter()
                .filter(|(c, cmp, _)| c == column && !is_eq(cmp))
                .collect();
            let named = rows
                .iter()
                .filter(|row| {
                    range
                        .iter()
                        .all(|(c, cmp, lit)| cmp.holds(ref_cmp(&row[*c], lit)))
                })
                .count();
            if !range.is_empty() && named <= limit {
                return None;
            }
        }
        if let Some((column, ..)) = conjuncts.iter().find(|(_, cmp, _)| is_eq(cmp)) {
            return Some(*column);
        }
        let kept = rows.iter().filter(|row| self.keeps(row)).count();
        conjuncts
            .iter()
            .map(|(column, ..)| *column)
            .find(|column| kept < limit && !indexed.contains(column))
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

/// `strategy`'s value, or `NULL` one time in sixteen: rare enough that
/// a range below every number (`k < 0`) is narrow enough to walk.
fn sometimes_null(strategy: BoxedStrategy<Lit>) -> BoxedStrategy<Lit> {
    (0u8..16, strategy)
        .prop_map(|(draw, lit)| if draw == 0 { Lit::Null } else { lit })
        .boxed()
}

/// A value of `column` as a row of `t` holds it, from sixteen per column.
fn cell(column: usize) -> BoxedStrategy<Lit> {
    match column {
        0 => sometimes_null((0i64..16).prop_map(Lit::Int).boxed()),
        1 => sometimes_null((0i64..16).prop_map(|x| Lit::Float(x as f64 / 2.0)).boxed()),
        _ => sometimes_null(text()),
    }
}

fn text() -> BoxedStrategy<Lit> {
    (0usize..16).prop_map(|i| Lit::Str(TEXTS[i])).boxed()
}

/// A literal a `WHERE` clause compares `column` with: the column's own
/// kind (one step past each end too), or `NULL`, or another kind.
fn literal(column: usize) -> BoxedStrategy<Lit> {
    match column {
        // `k`, the INT column: INT, FLOAT (whole and not), NULL and TEXT.
        0 => prop_oneof![
            (-1i64..17).prop_map(Lit::Int),
            (-1i64..17).prop_map(Lit::Int),
            (-1i64..17).prop_map(|x| Lit::Float(x as f64 + 0.5)),
            Just(Lit::Float(3.0)),
            Just(Lit::Null),
            text()
        ]
        .boxed(),
        // `f`, the FLOAT column: FLOAT, INT and NULL.
        1 => prop_oneof![
            (-1i64..17).prop_map(|x| Lit::Float(x as f64 / 2.0)),
            (-1i64..17).prop_map(|x| Lit::Float(x as f64 / 2.0)),
            (0i64..8).prop_map(Lit::Int),
            Just(Lit::Null)
        ]
        .boxed(),
        // `s`, the TEXT column: TEXT, NULL and INT.
        _ => prop_oneof![
            text(),
            text(),
            Just(Lit::Null),
            (0i64..3).prop_map(Lit::Int)
        ]
        .boxed(),
    }
}

fn any_cmp() -> BoxedStrategy<Cmp> {
    prop_oneof![
        Just(Cmp::Eq),
        Just(Cmp::Lt),
        Just(Cmp::Le),
        Just(Cmp::Gt),
        Just(Cmp::Ge)
    ]
    .boxed()
}

/// An equality, a one-sided range (twice as often) or a two-sided range
/// on `column`, maybe beside `n >= min`.
fn where_on(column: usize) -> BoxedStrategy<Where> {
    let lower = prop_oneof![Just(Cmp::Gt), Just(Cmp::Ge)];
    let upper = prop_oneof![Just(Cmp::Lt), Just(Cmp::Le)];
    let ends = prop_oneof![
        (any_cmp(), literal(column)).prop_map(|end| vec![end]),
        (any_cmp(), literal(column)).prop_map(|end| vec![end]),
        ((lower, literal(column)), (upper, literal(column))).prop_map(|(lo, hi)| vec![lo, hi]),
    ];
    (ends, prop_oneof![Just(None), (0i64..3).prop_map(Some)])
        .prop_map(move |(ends, min_n)| Where {
            column,
            ends,
            min_n,
        })
        .boxed()
}

fn where_clause() -> BoxedStrategy<Where> {
    prop_oneof![where_on(0), where_on(1), where_on(2)].boxed()
}

fn set_clause() -> BoxedStrategy<Set> {
    let set = |column: usize| {
        cell(column).prop_map(move |lit| Set {
            column,
            value: Some(lit),
        })
    };
    prop_oneof![
        Just(Set {
            column: 3,
            value: None
        }),
        set(0),
        set(1),
        set(2),
        (0i64..8).prop_map(|i| Set {
            column: 1,
            value: Some(Lit::Int(i))
        }),
    ]
    .boxed()
}

fn row() -> BoxedStrategy<[Lit; 4]> {
    (cell(0), cell(1), cell(2), 0i64..3)
        .prop_map(|(k, f, s, n)| [k, f, s, Lit::Int(n)])
        .boxed()
}

fn op() -> BoxedStrategy<Op> {
    prop_oneof![
        Just(Op::Begin),
        Just(Op::Commit),
        Just(Op::Rollback),
        row().prop_map(Op::Insert),
        row().prop_map(Op::Insert),
        where_clause().prop_map(Op::Select),
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
        initial in collection::vec(row(), 40..120),
        script in collection::vec((0usize..2, op()), 10..50),
    ) {
        // ordering: a test-local sequence number, nothing is published.
        let dir = tmp_dir(&format!("props-{}", CASE.fetch_add(1, atomic::Ordering::Relaxed)));
        let engine = Engine::start(options(&dir)).unwrap();
        let db = SqlDb::open(&engine).unwrap();
        let mut sessions = [db.session(), db.session()];
        sessions[0]
            .execute("CREATE TABLE t (k INT, f FLOAT, s TEXT, n INT)")
            .unwrap();
        // Enough rows that `rows / k` admits some walks.
        let values: Vec<String> = initial
            .iter()
            .map(|row| format!("({})", row.iter().map(Lit::sql).collect::<Vec<_>>().join(", ")))
            .collect();
        sessions[0]
            .execute(&format!("INSERT INTO t VALUES {}", values.join(", ")))
            .unwrap();
        let mut indexed: BTreeSet<usize> = BTreeSet::new();
        let mut build = |w: &Where, rows: &[Vec<Value>]| {
            if let Some(column) = w.builds(rows, &indexed) {
                indexed.insert(column);
            }
        };

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
                    let rows = select_all(s);
                    let expected: Vec<Vec<Value>> =
                        rows.iter().filter(|row| w.keeps(row)).cloned().collect();
                    let sql = format!("SELECT * FROM t WHERE {}", w.sql());
                    // Twice: the first may be the scan that builds an
                    // index, the second may probe it.
                    for _ in 0..2 {
                        build(w, &rows);
                        let got = s.execute(&sql).unwrap().rows;
                        prop_assert_eq!(&got, &expected, "{}", &sql);
                    }
                }
                Op::Update(set, w) => {
                    let mut expected = select_all(s);
                    build(w, &expected);
                    let mut affected = 0;
                    for row in expected.iter_mut().filter(|row| w.keeps(row)) {
                        set.apply(row);
                        affected += 1;
                    }
                    let sql = format!("UPDATE t SET {} WHERE {}", set.sql(), w.sql());
                    check_mutation(s, &sql, affected, expected)?;
                }
                Op::Delete(w) => {
                    let before = select_all(s);
                    build(w, &before);
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

        // An index exists for exactly the columns the rule says some
        // statement asked for: by equality, or by a selective range.
        let stats = engine.stats();
        prop_assert_eq!(
            stats.counter("mmdb_sql_index_builds_total"),
            Some(indexed.len() as u64)
        );
        drop(sessions);
        db.audit().unwrap();
        engine.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
