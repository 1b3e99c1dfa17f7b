//! The seeded generator: every table, every statement and the model the
//! oracle checks against are built here, before any clock starts. The
//! server only ever sees the SQL text.

/// SplitMix64: small, seedable, and the same on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is below 2⁻⁴⁰ at our sizes).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// `len` lowercase letters: safe inside a SQL string literal.
    pub fn text(&mut self, len: usize) -> String {
        (0..len)
            .map(|_| (b'a' + self.below(26) as u8) as char)
            .collect()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OltpTransfer,
    PointRead,
    AnalyticJoin,
    MixedScanTransfer,
    IngestRecover,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::OltpTransfer,
        Workload::PointRead,
        Workload::AnalyticJoin,
        Workload::MixedScanTransfer,
        Workload::IngestRecover,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OltpTransfer => "oltp_transfer",
            Workload::PointRead => "point_read",
            Workload::AnalyticJoin => "analytic_join",
            Workload::MixedScanTransfer => "mixed_scan_transfer",
            Workload::IngestRecover => "ingest_recover",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// True when the measured window writes no log at all.
    pub fn read_only(self) -> bool {
        matches!(self, Workload::PointRead | Workload::AnalyticJoin)
    }
}

/// What a reply must look like for the operation to count as correct.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// A transfer: both updates touch exactly one row.
    Transfer { from: u32, to: u32 },
    /// One row holding this integer.
    Int(i64),
    /// This many rows.
    Rows(usize),
    /// This many rows inserted; `first_id` names them for the oracle.
    Inserted { first_id: i64, rows: u64 },
}

/// One closed-loop operation: its statements in order, one round trip
/// each, and one latency sample for the lot.
#[derive(Debug, Clone)]
pub struct Op {
    pub sql: Vec<String>,
    pub expect: Expect,
}

/// One `INSERT` of a dataset load, with what it carries.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadStatement {
    pub sql: String,
    pub rows: u64,
    /// Bytes of column data: 8 per INT, the text length per TEXT.
    pub user_bytes: u64,
}

/// Everything one run needs, derived from the seed alone.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: Workload,
    /// `CREATE TABLE` statements.
    pub schema: Vec<String>,
    /// Dataset load: multi-row `INSERT`s, run during set-up.
    pub load: Vec<LoadStatement>,
    /// Primary operations per connection. Time-based workloads cycle
    /// through their list; `ingest_recover` sends its list exactly once.
    pub primary: Vec<Vec<Op>>,
    /// `mixed_scan_transfer` only: the scanning connection's operations.
    pub scans: Vec<Op>,
    /// Loaded `acct.bal` by id, for the transfer and point-read oracles.
    pub balances: Vec<i64>,
    /// Bytes of column data the primary operations insert, per row.
    pub insert_row_bytes: u64,
}

/// Rows per `INSERT` statement of a dataset load.
pub const ROWS_PER_LOAD_INSERT: usize = 64;

/// Rows per `INSERT` statement of `ingest_recover`: a transaction six
/// times the log volume of a transfer, and small enough that a run sends
/// well over a thousand of them.
pub const ROWS_PER_INGEST_INSERT: usize = 16;

/// Distinct operations generated per connection for time-based workloads.
const OPS_PER_CONN: usize = 4096;

/// Table sizes. `smoke` is a tenth of everything: quick, and never
/// compared against a full run.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub oltp_rows: usize,
    pub point_rows: usize,
    pub orders_rows: usize,
    pub customers_rows: usize,
    pub mixed_rows: usize,
    pub ingest_statements_per_conn: usize,
    /// Statements loaded in set-up so the timed ingest starts warm.
    pub ingest_preload_statements: usize,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            oltp_rows: 1_000,
            point_rows: 10_000,
            orders_rows: 10_000,
            customers_rows: 1_000,
            mixed_rows: 5_000,
            ingest_statements_per_conn: 3_600,
            ingest_preload_statements: 100,
        }
    }

    pub fn smoke() -> Sizes {
        Sizes {
            oltp_rows: 100,
            point_rows: 1_000,
            orders_rows: 1_000,
            customers_rows: 100,
            mixed_rows: 500,
            ingest_statements_per_conn: 360,
            ingest_preload_statements: 10,
        }
    }
}

const ACCT_NOTE_BYTES: usize = 76;
const ORDERS_NOTE_BYTES: usize = 32;
const CUSTOMER_NAME_BYTES: usize = 16;
const EVENT_PAYLOAD_BYTES: usize = 64;
/// `orders.amount` is uniform below this.
const AMOUNT_SPACE: u64 = 10_000;

/// Rows per `acct.branch` value, so a branch scan returns about this many.
const ROWS_PER_BRANCH: usize = 100;

fn branches(rows: usize) -> usize {
    (rows / ROWS_PER_BRANCH).max(1)
}

/// Joins rows into `INSERT INTO <table> VALUES (...), (...)` statements.
fn insert_statements(table: &str, rows: &[String], row_bytes: usize) -> Vec<LoadStatement> {
    rows.chunks(ROWS_PER_LOAD_INSERT)
        .map(|chunk| LoadStatement {
            sql: format!("INSERT INTO {table} VALUES {}", chunk.join(", ")),
            rows: chunk.len() as u64,
            user_bytes: (chunk.len() * row_bytes) as u64,
        })
        .collect()
}

struct Acct {
    load: Vec<LoadStatement>,
    balances: Vec<i64>,
}

fn acct_table(rng: &mut Rng, rows: usize) -> Acct {
    let nb = branches(rows);
    let mut balances = Vec::with_capacity(rows);
    let mut tuples = Vec::with_capacity(rows);
    for id in 0..rows {
        let bal = 1_000 + rng.below(9_000) as i64;
        balances.push(bal);
        let note = rng.text(ACCT_NOTE_BYTES);
        tuples.push(format!("({id}, {bal}, {}, '{note}')", id % nb));
    }
    Acct {
        load: insert_statements("acct", &tuples, 3 * 8 + ACCT_NOTE_BYTES),
        balances,
    }
}

const ACCT_SCHEMA: &str = "CREATE TABLE acct (id INT, bal INT, branch INT, note TEXT)";

/// A transfer of 1 from `from` to `to`. The lower id is always updated
/// first, so two transfers can never wait on each other in a cycle and
/// no operation is ever a deadlock victim.
fn transfer_op(from: u32, to: u32) -> Op {
    let debit = format!("UPDATE acct SET bal = bal - 1 WHERE id = {from}");
    let credit = format!("UPDATE acct SET bal = bal + 1 WHERE id = {to}");
    let (first, second) = if from < to {
        (debit, credit)
    } else {
        (credit, debit)
    };
    Op {
        sql: vec!["BEGIN".to_string(), first, second, "COMMIT".to_string()],
        expect: Expect::Transfer { from, to },
    }
}

fn transfer_ops(rng: &mut Rng, rows: usize, count: usize) -> Vec<Op> {
    (0..count)
        .map(|_| {
            let from = rng.below(rows as u64) as u32;
            // Uniform over the other rows − 1 accounts.
            let to = (from + 1 + rng.below(rows as u64 - 1) as u32) % rows as u32;
            transfer_op(from, to)
        })
        .collect()
}

impl Plan {
    pub fn loaded_rows(&self) -> u64 {
        self.load.iter().map(|l| l.rows).sum()
    }

    pub fn loaded_user_bytes(&self) -> u64 {
        self.load.iter().map(|l| l.user_bytes).sum()
    }

    /// Builds the plan for `workload` from `seed` for `conns` connections.
    pub fn build(workload: Workload, seed: u64, conns: usize, sizes: &Sizes) -> Plan {
        // Each workload draws from its own stream, so adding a workload
        // never changes the inputs of another.
        let mut rng = Rng::new(seed ^ (workload as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
        let mut plan = Plan {
            workload,
            schema: Vec::new(),
            load: Vec::new(),
            primary: Vec::new(),
            scans: Vec::new(),
            balances: Vec::new(),
            insert_row_bytes: 0,
        };
        match workload {
            Workload::OltpTransfer | Workload::MixedScanTransfer | Workload::PointRead => {
                let rows = match workload {
                    Workload::OltpTransfer => sizes.oltp_rows,
                    Workload::MixedScanTransfer => sizes.mixed_rows,
                    _ => sizes.point_rows,
                };
                let acct = acct_table(&mut rng, rows);
                plan.schema.push(ACCT_SCHEMA.to_string());
                plan.load = acct.load;
                plan.balances = acct.balances;
                let writers = if workload == Workload::MixedScanTransfer {
                    conns - 1
                } else {
                    conns
                };
                for _ in 0..writers {
                    plan.primary.push(if workload == Workload::PointRead {
                        (0..OPS_PER_CONN)
                            .map(|_| {
                                let k = rng.below(rows as u64) as usize;
                                Op {
                                    sql: vec![format!("SELECT bal FROM acct WHERE id = {k}")],
                                    expect: Expect::Int(plan.balances[k]),
                                }
                            })
                            .collect()
                    } else {
                        transfer_ops(&mut rng, rows, OPS_PER_CONN)
                    });
                }
                if workload == Workload::MixedScanTransfer {
                    let nb = branches(rows);
                    plan.scans = (0..OPS_PER_CONN)
                        .map(|_| {
                            let j = rng.below(nb as u64) as usize;
                            Op {
                                sql: vec![format!("SELECT id FROM acct WHERE branch = {j}")],
                                expect: Expect::Rows((0..rows).filter(|id| id % nb == j).count()),
                            }
                        })
                        .collect();
                }
            }
            Workload::AnalyticJoin => {
                let customers: Vec<String> = (0..sizes.customers_rows)
                    .map(|id| {
                        let name = rng.text(CUSTOMER_NAME_BYTES);
                        format!("({id}, {}, '{name}')", id % 10)
                    })
                    .collect();
                let mut cust_of = Vec::with_capacity(sizes.orders_rows);
                let mut amount_of = Vec::with_capacity(sizes.orders_rows);
                let orders: Vec<String> = (0..sizes.orders_rows)
                    .map(|id| {
                        let cust = rng.below(sizes.customers_rows as u64);
                        let amount = rng.below(AMOUNT_SPACE);
                        cust_of.push(cust);
                        amount_of.push(amount);
                        let note = rng.text(ORDERS_NOTE_BYTES);
                        format!("({id}, {cust}, {amount}, '{note}')")
                    })
                    .collect();
                plan.schema
                    .push("CREATE TABLE orders (id INT, cust INT, amount INT, note TEXT)".into());
                plan.schema
                    .push("CREATE TABLE customers (id INT, region INT, name TEXT)".into());
                plan.load = insert_statements("customers", &customers, 2 * 8 + CUSTOMER_NAME_BYTES);
                plan.load.extend(insert_statements(
                    "orders",
                    &orders,
                    3 * 8 + ORDERS_NOTE_BYTES,
                ));
                // The reference answer is a nested loop of the generator's
                // own: how many customers each order joins with, added up
                // per amount, then from the top down, so that
                // `rows_above[t]` is the result size of `amount > t`.
                let space = AMOUNT_SPACE as usize;
                let mut rows_at = vec![0usize; space + 1];
                for (&c, &amount) in cust_of.iter().zip(&amount_of) {
                    rows_at[amount as usize] += (0..sizes.customers_rows as u64)
                        .filter(|&id| id == c)
                        .count();
                }
                let mut rows_above = vec![0usize; space + 1];
                for t in (0..space).rev() {
                    rows_above[t] = rows_above[t + 1] + rows_at[t + 1];
                }
                for _ in 0..conns {
                    plan.primary.push(
                        (0..OPS_PER_CONN)
                            .map(|_| {
                                // amount > t keeps 5–10 % of the orders.
                                let t = AMOUNT_SPACE * 90 / 100 + rng.below(AMOUNT_SPACE * 5 / 100);
                                let rows = rows_above[t as usize];
                                Op {
                                    sql: vec![format!(
                                        "SELECT orders.id, customers.name FROM orders, customers \
                                         WHERE orders.cust = customers.id AND orders.amount > {t}"
                                    )],
                                    expect: Expect::Rows(rows),
                                }
                            })
                            .collect(),
                    );
                }
            }
            Workload::IngestRecover => {
                plan.schema
                    .push("CREATE TABLE events (id INT, src INT, val INT, payload TEXT)".into());
                const ROW_BYTES: usize = 3 * 8 + EVENT_PAYLOAD_BYTES;
                plan.insert_row_bytes = ROW_BYTES as u64;
                let mut next_id = 0i64;
                let mut statement = |rng: &mut Rng, src: usize| -> (LoadStatement, Expect) {
                    let first_id = next_id;
                    let rows: Vec<String> = (0..ROWS_PER_INGEST_INSERT)
                        .map(|_| {
                            let id = next_id;
                            next_id += 1;
                            let val = rng.below(1_000_000);
                            let payload = rng.text(EVENT_PAYLOAD_BYTES);
                            format!("({id}, {src}, {val}, '{payload}')")
                        })
                        .collect();
                    let insert = insert_statements("events", &rows, ROW_BYTES)
                        .pop()
                        .expect("one statement per 16 rows");
                    let expect = Expect::Inserted {
                        first_id,
                        rows: insert.rows,
                    };
                    (insert, expect)
                };
                // Preload rows carry src = conns, one past any connection.
                for _ in 0..sizes.ingest_preload_statements {
                    plan.load.push(statement(&mut rng, conns).0);
                }
                for c in 0..conns {
                    plan.primary.push(
                        (0..sizes.ingest_statements_per_conn)
                            .map(|_| {
                                let (insert, expect) = statement(&mut rng, c);
                                Op {
                                    sql: vec![insert.sql],
                                    expect,
                                }
                            })
                            .collect(),
                    );
                }
            }
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan_other_seed_other_plan() {
        let s = Sizes::smoke();
        for w in Workload::ALL {
            let a = Plan::build(w, 7, 2, &s);
            let b = Plan::build(w, 7, 2, &s);
            let c = Plan::build(w, 8, 2, &s);
            assert_eq!(a.load, b.load);
            assert_eq!(a.primary[0][0].sql, b.primary[0][0].sql);
            assert_ne!(a.load, c.load, "{}", w.name());
        }
    }

    #[test]
    fn transfers_touch_the_lower_id_first_and_never_one_account() {
        let mut rng = Rng::new(1);
        for op in transfer_ops(&mut rng, 10, 500) {
            let Expect::Transfer { from, to } = op.expect else {
                panic!("not a transfer")
            };
            assert_ne!(from, to);
            let lo = from.min(to);
            assert!(op.sql[1].ends_with(&format!("id = {lo}")), "{:?}", op.sql);
            assert_eq!(op.sql.len(), 4);
        }
    }

    #[test]
    fn join_thresholds_keep_five_to_ten_percent() {
        let s = Sizes::full();
        let p = Plan::build(Workload::AnalyticJoin, 42, 1, &s);
        for op in p.primary[0].iter().take(200) {
            let Expect::Rows(n) = op.expect else {
                panic!("not a row count")
            };
            assert!((400..=1_100).contains(&n), "{n} rows");
        }
    }

    #[test]
    fn ingest_ids_are_unique_and_sized() {
        let s = Sizes::smoke();
        let p = Plan::build(Workload::IngestRecover, 42, 2, &s);
        assert_eq!(p.primary.len(), 2);
        assert_eq!(p.primary[0].len(), s.ingest_statements_per_conn);
        let mut firsts: Vec<i64> = p
            .primary
            .iter()
            .flatten()
            .map(|op| match op.expect {
                Expect::Inserted { first_id, rows } => {
                    assert_eq!(rows, 16);
                    first_id
                }
                _ => panic!("not an insert"),
            })
            .collect();
        firsts.sort_unstable();
        firsts.dedup();
        assert_eq!(firsts.len(), 2 * s.ingest_statements_per_conn);
        assert_eq!(firsts[0], (s.ingest_preload_statements * 16) as i64);
    }

    #[test]
    fn mixed_plan_has_writers_and_one_scanner() {
        let p = Plan::build(Workload::MixedScanTransfer, 42, 2, &Sizes::smoke());
        assert_eq!(p.primary.len(), 1);
        assert!(!p.scans.is_empty());
        assert!(matches!(p.scans[0].expect, Expect::Rows(n) if n > 0));
    }
}
