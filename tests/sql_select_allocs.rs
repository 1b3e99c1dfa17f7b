//! What a `SELECT` allocates, counted, not timed.
//!
//! `analytic_join`'s shape in process: 1,000 `customers (id, region,
//! name)` and 10,000 `orders (id, cust, amount, note)`, joined on
//! `orders.cust = customers.id` under `orders.amount > t`, ≈ 750 rows a
//! query, through `SqlDb` / `SqlSession`; and `point_read`'s shape, a
//! keyed `SELECT bal FROM acct WHERE id = k`. A counting global allocator
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

use mmdb_session::{CommitPolicy, Engine, EngineOptions};
use mmdb_sql::SqlDb;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

/// Allocations per returned row the join may make.
const BUDGET_PER_ROW: f64 = 3.0;

/// Allocations a point `SELECT` may make, parse to result.
const POINT_BUDGET: f64 = 46.0;

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

#[test]
fn a_join_allocates_within_budget_per_returned_row() {
    const CUSTOMERS: u64 = 1_000;
    const ORDERS: u64 = 10_000;
    const AMOUNTS: u64 = 10_000;
    const THRESHOLD: u64 = 9_250;
    const RUNS: usize = 10;

    let (engine, dir) = engine("join");
    let db = SqlDb::open(&engine).unwrap();
    let mut s = db.session();
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

    drop(s);
    engine.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_point_select_allocates_within_budget() {
    const ROWS: u64 = 1_000;
    const RUNS: u64 = 200;

    let (engine, dir) = engine("point");
    let db = SqlDb::open(&engine).unwrap();
    let mut s = db.session();
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
    let statements: Vec<String> = (0..RUNS)
        .map(|k| format!("SELECT bal FROM acct WHERE id = {}", (k * 7) % ROWS))
        .collect();
    let before = allocs();
    for sql in &statements {
        assert_eq!(s.execute(sql).unwrap().rows.len(), 1);
    }
    let per_statement = (allocs() - before) as f64 / RUNS as f64;
    println!("{per_statement:.2} allocations per point SELECT");
    assert!(
        per_statement <= POINT_BUDGET,
        "{per_statement:.2} allocations per point SELECT; the budget is {POINT_BUDGET}"
    );

    drop(s);
    engine.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
