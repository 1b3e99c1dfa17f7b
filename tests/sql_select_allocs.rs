//! What a `SELECT` allocates, counted, not timed.
//!
//! `analytic_join`'s shape in process: 1,000 `customers (id, region,
//! name)` and 10,000 `orders (id, cust, amount, note)`, joined on
//! `orders.cust = customers.id` under `orders.amount > t`, ≈ 750 rows a
//! query, through `SqlDb` / `SqlSession`; and `point_read`'s shape, a
//! keyed `SELECT bal FROM acct WHERE id = k`; each collected, and each
//! encoded for the wire as the server does. A counting global allocator
//! delegates to `System` and counts the calling thread only, so the
//! engine's log writer threads are not counted.
//!
//! Measured on the join (`alloc` and `realloc` calls per returned row,
//! the same in debug and release builds):
//!
//! - 12.48 while `compute_stats` hashed every column of both inputs, the
//!   whole cached row was copied out of the catalog, and projection
//!   cloned each result value;
//! - 8.40 with statistics of join columns only, only the named columns
//!   copied, and result values moved out of the join output;
//! - 6.86 with the hash table holding positions in its borrowed build
//!   side instead of a clone of each build tuple in a `Vec` per bucket
//!   (and `amount > t` walked in its B+-tree, which allocates per query,
//!   not per row);
//! - 2.19 with the join run over rows lent from the catalog's cache and
//!   each result row built from its matched pair: no survivor is copied
//!   out, no output tuple is concatenated, and each returned value is
//!   cloned once;
//! - 2.21 both before and after the plan ran unmetered: the one
//!   `Arc<CostMeter>` a `SELECT` stopped allocating is about 0.001 per
//!   returned row.
//!
//! The join's budget sits above the last: copying the survivors out of
//! the cache again, or concatenating each matched pair before projecting
//! it, fails this test. A point `SELECT` made 49 allocations, parse to
//! result, while it copied its row out of the cache and projected the
//! schema; 43 over the lent row; and makes 42 since its plan runs
//! unmetered, with no `Arc<CostMeter>` of its own. Its budget sits
//! between the first and the last.
//!
//! The server does not collect an answer: the plan's sink encodes each
//! row into the connection's reply buffer (`SqlSession::run_into` with
//! `proto::OkEncoder`), so parse to encoded reply the join makes 0.19
//! allocations per returned row (≈ 143 a query, whatever it returns)
//! and a point `SELECT` 40, where collecting then encoding made 2.21
//! and 42. Since the encoder writes each column name from the bytes the
//! statement and the bound schemas lend (`query::ColumnName`), with no
//! `String` formatted per name nor a `Vec` of them, a point `SELECT`
//! makes 38 on the wire path; and since a one-join plan is given no
//! distinct counts (it has no join order to choose), the join hashes
//! none of its keys and makes 0.18 a returned row there. Their budgets
//! sit just above: a result row or a column name built on the wire path
//! again fails them.

use mmdb_server::proto::{self, OkEncoder};
use mmdb_session::{CommitPolicy, Engine, EngineOptions};
use mmdb_sql::{parse, SqlDb, SqlSession};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

/// Allocations per returned row the join may make.
const BUDGET_PER_ROW: f64 = 3.0;

/// Allocations a point `SELECT` may make, parse to result.
const POINT_BUDGET: f64 = 46.0;

/// Allocations per returned row the join may make, parse to encoded reply.
const WIRE_BUDGET_PER_ROW: f64 = 0.25;

/// Allocations a point `SELECT` may make, parse to encoded reply.
const WIRE_POINT_BUDGET: f64 = 39.0;

/// Joins timed per measurement.
const RUNS: usize = 10;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread being torn down still allocates, uncounted.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds `GlobalAlloc`'s contract. The count is a const-initialised
// thread-local `Cell<u64>` with no destructor, so touching it neither
// allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc`'s contract, which is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, hence from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A fixed 64-bit LCG, so the tables and the answer are the same on
/// every run.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, bound: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 33) % bound
    }

    fn text(&mut self, len: usize) -> String {
        (0..len)
            .map(|_| char::from(b'a' + self.below(26) as u8))
            .collect()
    }
}

/// A fresh engine in its own directory under `tag`.
fn engine(tag: &str) -> (Engine, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("mmdb-sql-allocs-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let engine = Engine::start(
        EngineOptions::new(CommitPolicy::Group, &dir)
            .with_flush_interval(Duration::from_micros(50)),
    )
    .unwrap();
    (engine, dir)
}

/// `analytic_join`'s tables in a fresh engine: a session, the join's SQL
/// and how many rows it returns.
fn join_fixture(tag: &str) -> (Engine, std::path::PathBuf, SqlSession, String, usize) {
    const CUSTOMERS: u64 = 1_000;
    const ORDERS: u64 = 10_000;
    const AMOUNTS: u64 = 10_000;
    const THRESHOLD: u64 = 9_250;

    let (engine, dir) = engine(tag);
    let mut s = SqlDb::open(&engine).unwrap().session();
    s.execute("CREATE TABLE orders (id INT, cust INT, amount INT, note TEXT)")
        .unwrap();
    s.execute("CREATE TABLE customers (id INT, region INT, name TEXT)")
        .unwrap();

    let mut rng = Lcg(1);
    let customers: Vec<String> = (0..CUSTOMERS)
        .map(|id| format!("({id}, {}, '{}')", id % 10, rng.text(16)))
        .collect();
    let mut expected = 0;
    let orders: Vec<String> = (0..ORDERS)
        .map(|id| {
            let (cust, amount) = (rng.below(CUSTOMERS), rng.below(AMOUNTS));
            expected += usize::from(amount > THRESHOLD);
            format!("({id}, {cust}, {amount}, '{}')", rng.text(32))
        })
        .collect();
    for (table, rows) in [("customers", customers), ("orders", orders)] {
        for chunk in rows.chunks(100) {
            s.execute(&format!("INSERT INTO {table} VALUES {}", chunk.join(", ")))
                .unwrap();
        }
    }

    let sql = format!(
        "SELECT orders.id, customers.name FROM orders, customers \
         WHERE orders.cust = customers.id AND orders.amount > {THRESHOLD}"
    );
    assert_eq!(s.execute(&sql).unwrap().rows.len(), expected, "warm-up");
    (engine, dir, s, sql, expected)
}

/// `point_read`'s table in a fresh engine, its index built, and the
/// point `SELECT`s to run.
fn point_fixture(tag: &str) -> (Engine, std::path::PathBuf, SqlSession, Vec<String>) {
    const ROWS: u64 = 1_000;
    const RUNS: u64 = 200;

    let (engine, dir) = engine(tag);
    let mut s = SqlDb::open(&engine).unwrap().session();
    s.execute("CREATE TABLE acct (id INT, bal INT, note TEXT)")
        .unwrap();
    let rows: Vec<String> = (0..ROWS)
        .map(|id| format!("({id}, {}, 'note-{id}')", 100 + id))
        .collect();
    for chunk in rows.chunks(100) {
        s.execute(&format!("INSERT INTO acct VALUES {}", chunk.join(", ")))
            .unwrap();
    }
    // The first keyed statement builds `acct.id`'s index.
    assert_eq!(
        s.execute("SELECT bal FROM acct WHERE id = 0")
            .unwrap()
            .rows
            .len(),
        1
    );
    let statements = (0..RUNS)
        .map(|k| format!("SELECT bal FROM acct WHERE id = {}", (k * 7) % ROWS))
        .collect();
    (engine, dir, s, statements)
}

/// Parses and runs `sql` as the server does: its answer encoded into
/// the reused `reply`.
fn serve(s: &mut SqlSession, sql: &str, reply: &mut Vec<u8>) {
    reply.clear();
    let stmt = parse(sql).unwrap();
    s.run_into(&stmt, &mut OkEncoder::new(reply)).unwrap();
}

/// The rows of the answer `reply` holds.
fn rows_in(reply: &[u8]) -> usize {
    proto::decode_response(reply).unwrap().unwrap().rows.len()
}

fn finish(engine: Engine, dir: std::path::PathBuf, s: SqlSession) {
    drop(s);
    engine.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_join_allocates_within_budget_per_returned_row() {
    let (engine, dir, mut s, sql, expected) = join_fixture("join");
    let before = allocs();
    let mut rows = 0;
    for _ in 0..RUNS {
        rows += s.execute(&sql).unwrap().rows.len();
    }
    let per_row = (allocs() - before) as f64 / rows as f64;
    assert_eq!(rows, RUNS * expected);
    println!("{expected} rows per join, {per_row:.2} allocations per returned row");
    assert!(
        per_row < BUDGET_PER_ROW,
        "{per_row:.2} allocations per returned row; the budget is {BUDGET_PER_ROW}"
    );
    finish(engine, dir, s);
}

#[test]
fn a_join_encoded_for_the_wire_allocates_within_budget_per_returned_row() {
    let (engine, dir, mut s, sql, expected) = join_fixture("wire-join");
    let mut reply = Vec::new();
    serve(&mut s, &sql, &mut reply);
    let before = allocs();
    for _ in 0..RUNS {
        serve(&mut s, &sql, &mut reply);
    }
    let per_row = (allocs() - before) as f64 / (RUNS * expected) as f64;
    assert_eq!(rows_in(&reply), expected);
    println!(
        "{expected} rows per join, {per_row:.2} allocations per returned row on the wire path"
    );
    assert!(
        per_row < WIRE_BUDGET_PER_ROW,
        "{per_row:.2} allocations per returned row; the budget is {WIRE_BUDGET_PER_ROW}"
    );
    finish(engine, dir, s);
}

#[test]
fn a_point_select_allocates_within_budget() {
    let (engine, dir, mut s, statements) = point_fixture("point");
    let before = allocs();
    for sql in &statements {
        assert_eq!(s.execute(sql).unwrap().rows.len(), 1);
    }
    let per_statement = (allocs() - before) as f64 / statements.len() as f64;
    println!("{per_statement:.2} allocations per point SELECT");
    assert!(
        per_statement <= POINT_BUDGET,
        "{per_statement:.2} allocations per point SELECT; the budget is {POINT_BUDGET}"
    );
    finish(engine, dir, s);
}

#[test]
fn a_point_select_encoded_for_the_wire_allocates_within_budget() {
    let (engine, dir, mut s, statements) = point_fixture("wire-point");
    let mut reply = Vec::new();
    let before = allocs();
    for sql in &statements {
        serve(&mut s, sql, &mut reply);
    }
    let per_statement = (allocs() - before) as f64 / statements.len() as f64;
    assert_eq!(rows_in(&reply), 1);
    println!("{per_statement:.2} allocations per point SELECT on the wire path");
    assert!(
        per_statement <= WIRE_POINT_BUDGET,
        "{per_statement:.2} allocations per point SELECT; the budget is {WIRE_POINT_BUDGET}"
    );
    finish(engine, dir, s);
}
