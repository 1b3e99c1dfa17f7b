//! The volatile catalog: table schemas, a decoded cache of rows, and
//! the §2 indexes over that cache.
//!
//! The rows themselves live in the session engine's store, one byte
//! record per row (see [`crate::codec`] for the key layout); this
//! module holds what statements bind and read against — each table's
//! schema, a cache of its rows, decoded, and a B+-tree per column that
//! some statement has used by equality or by a selective range. The
//! cache is filled from a store snapshot when the database opens and
//! afterwards only by [`crate::session`]'s refill, which copies the
//! engine's current record for a key into it; nothing else puts a row
//! here. **The cache and its indexes change only in refill**:
//! `Catalog::refill_rows` is the one function that writes a cached row,
//! and it moves the row's entry in every index of the table in the same
//! critical section, so an index is at every instant a projection of the
//! cache — `{(row[column], rid)}`, nothing more authoritative than that.
//!
//! Indexes are volatile and created by use, not by syntax: a statement
//! that finds an equality conjunct on an un-indexed column answers by
//! filtered scan and then has `Catalog::build_index` bulk-load that
//! column's tree from the cached rows. So does a statement whose scan
//! saw a `<`, `<=`, `>` or `>=` conjunct on an un-indexed column and
//! kept fewer than `rows / k` rows, where `k` is
//! [`CANDIDATE_COST_RATIO`]: what fetching one row an index names costs
//! against visiting one row in a scan, measured on this cache. A range
//! that keeps more would never walk its index, so it builds none. A
//! table that is only ever inserted into has none;
//! [`crate::SqlDb::open`] builds none. `Catalog::reach` is the one
//! probe-walk-or-scan rule `SELECT`, `UPDATE` and `DELETE` share.
//!
//! Lock discipline: the catalog sits behind one `RwLock` accessed only
//! through the short closure helpers on [`SharedCatalog`]
//! (`with_catalog_read` / `with_catalog_write`). The catalog lock is
//! the *outermost* class in the engine's documented lock order. The
//! only engine calls made while it is held are unlocked store reads —
//! the refill's `Session::get`, the audit's `snapshot_kv` — which take
//! a shard lock for the length of a map lookup (`catalog` → `shard`,
//! downward) and never touch the lock manager; anything that can wait
//! on a row lock (`get_for_update`, `put`, commit, abort) stays outside
//! the closures, or a writer queued behind the catalog lock could
//! stall the very transaction it is waiting on. Index probes run under
//! the read lock, builds and maintenance under the write lock; the
//! indexes add no lock of their own. A `SELECT` holds the read lock for
//! its whole run over rows lent from the cache, a hold bounded by its
//! output and plan, not by a copy of its inputs.

use mmdb_index::BPlusTree;
use mmdb_obs::{Counter, Histogram, Registry};
use mmdb_types::error::{Error, Result};
use mmdb_types::expr::{CmpOp, Predicate};
use mmdb_types::ids::TxnId;
use mmdb_types::schema::Schema;
use mmdb_types::tuple::Tuple;
use mmdb_types::value::Value;
use mmdb_types::AuditViolation;
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::{Arc, RwLock};

/// One table's volatile state.
#[derive(Debug, Clone)]
pub struct TableEntry {
    /// Stable id used in store keys.
    pub id: u32,
    /// The table's schema.
    pub schema: Schema,
    /// Cached rows by row id: each the decoded engine record for its
    /// key, per the refill rule in [`crate::session`].
    pub rows: BTreeMap<u32, Tuple>,
    /// Next row id to allocate.
    pub next_rid: u32,
    /// When `Some`, the table was created by this still-open
    /// transaction: only that transaction may see or touch it until
    /// commit publishes it (abort removes it). Keeping uncommitted DDL
    /// private stops another session from durably committing rows into
    /// a table whose catalog entry may never commit — which would
    /// orphan those rows in the log.
    pub pending_owner: Option<TxnId>,
}

impl TableEntry {
    /// True when `viewer` may see this table: committed tables are
    /// visible to everyone, a pending table only to its creator.
    pub fn visible_to(&self, viewer: Option<TxnId>) -> bool {
        match self.pending_owner {
            None => true,
            Some(owner) => viewer == Some(owner),
        }
    }
}

/// One column's §2 index over a table's cached rows: the pairs
/// `(row[column], rid)` in a B+-tree. Duplicate and `NULL` keys are just
/// more pairs, and the order is the `Value::cmp` that `Predicate::eval`
/// compares with, so a probe and a filtered scan agree by construction.
type ColumnIndex = BPlusTree<IndexKey, ()>;

/// A [`ColumnIndex`] key: a column value and the rid of the row holding
/// it. `(v, 0)` sorts before every key of `v` and `(v, u32::MAX)` after.
type IndexKey = (Value, u32);

/// Node geometry of a [`ColumnIndex`], and the fill it is bulk-loaded
/// at — Yao's steady-state occupancy, which leaves every leaf room for
/// the inserts that follow.
const INDEX_FANOUT: usize = 64;
const INDEX_FILL: f64 = 0.69;

/// `k`: what fetching one candidate an index walk names costs (its rid
/// from the leaf chain, the rids sorted back into rid order, a lookup of
/// the cached row, `pred`), in units of what visiting one cached row in
/// a scan costs (the next row of the cache, `pred`). Measured 5–8 on
/// 10,000 cached rows for ranges keeping 10–20 % of them, where a walk
/// and a scan cost the same at 13–17 % kept (EXPERIMENTS.md J1b; the
/// `candidate_cost_ratio` test below re-measures it). It makes both
/// range decisions in `Catalog::reach`: a walk that names more than
/// `rows / k` candidates costs more than the scan it would replace, so
/// the scan runs instead; and a scan asks for a range column's index
/// only if it kept fewer than `rows / k` rows, since a range wider than
/// that would not walk it.
pub const CANDIDATE_COST_RATIO: usize = 6;

/// The `mmdb_sql_*` metrics. A default set counts into the void; the
/// one [`SqlMetrics::register`] returns is on an engine's exposition.
#[derive(Debug, Default)]
pub(crate) struct SqlMetrics {
    index_probes: Arc<Counter>,
    index_builds: Arc<Counter>,
    rows_scanned: Arc<Counter>,
    pub(crate) select_lock_hold_us: Arc<Histogram>,
}

impl SqlMetrics {
    fn register(registry: &Registry) -> SqlMetrics {
        SqlMetrics {
            index_probes: registry.counter(
                "mmdb_sql_index_probes_total",
                "Table accesses answered by an index probe or range walk",
            ),
            index_builds: registry.counter(
                "mmdb_sql_index_builds_total",
                "Column indexes built, each on the first equality or selective range use of its column",
            ),
            rows_scanned: registry.counter(
                "mmdb_sql_rows_scanned_total",
                "Cached rows visited by table accesses that used no index",
            ),
            select_lock_hold_us: registry.histogram(
                "mmdb_sql_select_lock_hold_us",
                "Microseconds a SELECT held the catalog read lock: reach, plan, join and project",
            ),
        }
    }
}

/// What one table access kept.
pub(crate) struct Reached<T> {
    /// One item per row the predicate accepted, in rid order.
    pub(crate) kept: Vec<T>,
    /// The column whose index the access asks for, when it was a scan:
    /// the first equality conjunct's column, else — if the scan kept
    /// fewer than `rows / k` rows ([`CANDIDATE_COST_RATIO`]) — the first
    /// un-indexed range conjunct's. The caller asks for
    /// [`Catalog::build_index`] once the read lock is released.
    pub(crate) wants_index: Option<usize>,
}

/// Collects the `column op value` conjuncts of a conjunction that a
/// column index can answer: `=`, `<`, `<=`, `>` and `>=` (not `<>`).
fn indexable_conjuncts<'p>(pred: &'p Predicate, out: &mut Vec<(usize, CmpOp, &'p Value)>) {
    match pred {
        Predicate::Compare { column, op, value } if *op != CmpOp::Ne => {
            out.push((*column, *op, value));
        }
        Predicate::And(a, b) => {
            indexable_conjuncts(a, out);
            indexable_conjuncts(b, out);
        }
        _ => {}
    }
}

/// The one `[lo, hi]` of `column`'s index keys that its `<`, `<=`, `>`
/// and `>=` conjuncts admit together: the tightest bound at each end, an
/// end no conjunct names left open. An open low end starts at `NULL`,
/// which `Value::cmp` orders below every number, so `c < 5` walks the
/// `NULL` rows `Predicate::eval` keeps.
fn key_range(
    conjuncts: &[(usize, CmpOp, &Value)],
    column: usize,
) -> (Bound<IndexKey>, Bound<IndexKey>) {
    fn key(bound: &Bound<IndexKey>) -> Option<&IndexKey> {
        match bound {
            Bound::Included(key) | Bound::Excluded(key) => Some(key),
            Bound::Unbounded => None,
        }
    }
    let (mut lo, mut hi) = (Bound::Unbounded, Bound::Unbounded);
    for &(_, op, value) in conjuncts.iter().filter(|(c, ..)| *c == column) {
        let v = || value.clone();
        match op {
            CmpOp::Gt | CmpOp::Ge => {
                let new = match op {
                    CmpOp::Gt => Bound::Excluded((v(), u32::MAX)),
                    _ => Bound::Included((v(), 0)),
                };
                if key(&lo).map_or(true, |at| key(&new) > Some(at)) {
                    lo = new;
                }
            }
            CmpOp::Lt | CmpOp::Le => {
                let new = match op {
                    CmpOp::Lt => Bound::Excluded((v(), 0)),
                    _ => Bound::Included((v(), u32::MAX)),
                };
                if key(&hi).map_or(true, |at| key(&new) < Some(at)) {
                    hi = new;
                }
            }
            CmpOp::Eq | CmpOp::Ne => {}
        }
    }
    (lo, hi)
}

/// The rids `index` holds between `lo` and `hi`, in rid order — or
/// `None` as soon as there are more than `limit` of them.
fn candidates(
    index: &ColumnIndex,
    lo: Bound<&IndexKey>,
    hi: Bound<&IndexKey>,
    limit: usize,
) -> Option<Vec<u32>> {
    let mut rids = Vec::new();
    for ((_, rid), ()) in index.range_bounds(lo, hi) {
        if rids.len() == limit {
            return None;
        }
        rids.push(*rid);
    }
    rids.sort_unstable();
    Some(rids)
}

/// The catalog proper: tables by (case-insensitive) name, and their
/// indexes by `(table id, column)`.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: BTreeMap<String, TableEntry>,
    next_table_id: u32,
    indexes: BTreeMap<(u32, usize), ColumnIndex>,
    pub(crate) metrics: SqlMetrics,
}

impl Catalog {
    /// An empty catalog whose `mmdb_sql_*` counters are on `registry`.
    pub(crate) fn registered(registry: &Registry) -> Catalog {
        Catalog {
            metrics: SqlMetrics::register(registry),
            ..Catalog::default()
        }
    }

    /// How a table is reached (§2): decided here, under the catalog read
    /// lock, for `SELECT`, `UPDATE` and `DELETE` alike. `pred` is the
    /// conjunction of the table's own `column op literal` conditions. If
    /// one of them is an equality on an indexed column, that index is
    /// probed. Failing that, the range conjuncts of each indexed column in
    /// turn are walked as one `[lo, hi]`, and the first walk naming at most
    /// `rows / k` candidates ([`CANDIDATE_COST_RATIO`]) is used. Either way
    /// `pred` is evaluated on the rows the index names only; otherwise
    /// every cached row is evaluated. `keep` sees exactly the rows `pred`
    /// accepts. `entry` must be one of this catalog's tables.
    pub(crate) fn reach<'e, T>(
        &self,
        entry: &'e TableEntry,
        pred: &Predicate,
        mut keep: impl FnMut(u32, &'e Tuple) -> T,
    ) -> Reached<T> {
        let mut conjuncts = Vec::new();
        indexable_conjuncts(pred, &mut conjuncts);
        let index_of = |column: usize| self.indexes.get(&(entry.id, column));
        let limit = entry.rows.len() / CANDIDATE_COST_RATIO;
        let equality = conjuncts.iter().find_map(|&(column, op, value)| {
            let index = index_of(column).filter(|_| op == CmpOp::Eq)?;
            let (lo, hi) = ((value.clone(), 0), (value.clone(), u32::MAX));
            candidates(
                index,
                Bound::Included(&lo),
                Bound::Included(&hi),
                usize::MAX,
            )
        });
        let probed = equality.or_else(|| {
            conjuncts
                .iter()
                .enumerate()
                .filter(|&(i, (column, ..))| !conjuncts.iter().take(i).any(|(c, ..)| c == column))
                .find_map(|(_, &(column, ..))| {
                    let index = index_of(column)?;
                    let (lo, hi) = key_range(&conjuncts, column);
                    candidates(index, lo.as_ref(), hi.as_ref(), limit)
                })
        });
        if let Some(rids) = probed {
            self.metrics.index_probes.inc();
            let kept = rids
                .into_iter()
                .filter_map(|rid| {
                    let row = entry.rows.get(&rid).filter(|row| pred.eval(row))?;
                    Some(keep(rid, row))
                })
                .collect();
            return Reached {
                kept,
                wants_index: None,
            };
        }
        self.metrics.rows_scanned.add(entry.rows.len() as u64);
        let kept: Vec<T> = entry
            .rows
            .iter()
            .filter(|(_, row)| pred.eval(row))
            .map(|(rid, row)| keep(*rid, row))
            .collect();
        let equality_column = conjuncts.iter().find(|(_, op, _)| *op == CmpOp::Eq);
        let wants_index = match equality_column {
            Some(&(column, ..)) => Some(column),
            None if kept.len() < limit => conjuncts
                .iter()
                .map(|&(column, ..)| column)
                .find(|&column| index_of(column).is_none()),
            None => None,
        };
        Reached { kept, wants_index }
    }

    /// Builds the index of `table`'s `column` from the cached rows, unless
    /// it exists (two statements may have wanted it at once) or the table
    /// is gone. Call under the catalog write lock.
    pub(crate) fn build_index(&mut self, table: &str, column: usize) {
        let Some(entry) = self.tables.get(&table.to_ascii_lowercase()) else {
            return;
        };
        if column >= entry.schema.arity() || self.indexes.contains_key(&(entry.id, column)) {
            return;
        }
        let mut keys: Vec<IndexKey> = entry
            .rows
            .iter()
            .map(|(rid, row)| (row.get(column).clone(), *rid))
            .collect();
        keys.sort_unstable();
        let index = BPlusTree::bulk_load(
            INDEX_FANOUT,
            INDEX_FANOUT,
            INDEX_FILL,
            keys.into_iter().map(|key| (key, ())),
        );
        self.indexes.insert((entry.id, column), index);
        self.metrics.index_builds.inc();
    }

    /// The one place a cached row changes — and so the one place an
    /// index changes. Sets each of `table`'s cached rows `rids` to what
    /// `current` returns for it (`None`: no row), moving the row's entry
    /// in every index of the table in the same step: old key out, new key
    /// in, nothing when the key did not change. A table that is gone has
    /// no cache left to fill. Call under the catalog write lock; see the
    /// refill rule in [`crate::session`].
    pub(crate) fn refill_rows(
        &mut self,
        table: &str,
        rids: &[u32],
        mut current: impl FnMut(&TableEntry, u32) -> Result<Option<Tuple>>,
    ) -> Result<()> {
        let Some(entry) = self.tables.get_mut(&table.to_ascii_lowercase()) else {
            return Ok(());
        };
        for &rid in rids {
            let new = current(entry, rid)?;
            let old = entry.rows.get(&rid);
            let of_table = (entry.id, 0)..=(entry.id, usize::MAX);
            for ((_, column), index) in self.indexes.range_mut(of_table) {
                let was = old.map(|row| row.get(*column));
                let now = new.as_ref().map(|row| row.get(*column));
                if was == now {
                    continue;
                }
                if let Some(key) = was {
                    index.remove(&(key.clone(), rid));
                }
                if let Some(key) = now {
                    index.insert((key.clone(), rid), ());
                }
            }
            match new {
                Some(row) => entry.rows.insert(rid, row),
                None => entry.rows.remove(&rid),
            };
        }
        Ok(())
    }

    /// The index half of `SqlDb`'s audit: every index belongs to a table,
    /// is a well-formed B+-tree, and holds exactly `{(row[column], rid)}`
    /// of that table's cached rows.
    pub(crate) fn audit_indexes(&self) -> std::result::Result<(), AuditViolation> {
        const C: &str = "SqlDb";
        for ((table_id, column), index) in &self.indexes {
            let of = || format!("index on table {table_id} column {column}");
            index
                .check_invariants()
                .map_err(|e| AuditViolation::new(C, "index-structure", format!("{}: {e}", of())))?;
            let Some(entry) = self.tables.values().find(|e| e.id == *table_id) else {
                return Err(AuditViolation::new(C, "index-has-table", of()));
            };
            let mut cached: Vec<(&Value, u32)> = entry
                .rows
                .iter()
                .map(|(rid, row)| (row.get(*column), *rid))
                .collect();
            cached.sort_unstable();
            let indexed = index.iter().map(|((key, rid), ())| (key, *rid));
            AuditViolation::ensure(indexed.eq(cached), C, "index-equals-cache", || {
                format!(
                    "{}: its {} entries are not (row[{column}], rid) of the {} cached rows",
                    of(),
                    index.len(),
                    entry.rows.len()
                )
            })?;
        }
        Ok(())
    }

    /// Looks up a table as seen by `viewer`; a table another
    /// transaction created but has not committed yet reads as missing,
    /// and the error names the relation either way.
    pub fn table(&self, name: &str, viewer: Option<TxnId>) -> Result<&TableEntry> {
        self.tables
            .get(&name.to_ascii_lowercase())
            .filter(|e| e.visible_to(viewer))
            .ok_or_else(|| Error::RelationNotFound(name.to_string()))
    }

    /// Mutable lookup with the same visibility rule as
    /// [`table`](Self::table).
    pub fn table_mut(&mut self, name: &str, viewer: Option<TxnId>) -> Result<&mut TableEntry> {
        self.tables
            .get_mut(&name.to_ascii_lowercase())
            .filter(|e| e.visible_to(viewer))
            .ok_or_else(|| Error::RelationNotFound(name.to_string()))
    }

    /// Clears a pending marker: the creating transaction committed, so
    /// `name` is now visible to every session. No-op for unknown names.
    pub fn publish(&mut self, name: &str) {
        if let Some(entry) = self.tables.get_mut(&name.to_ascii_lowercase()) {
            entry.pending_owner = None;
        }
    }

    /// True when `name` exists — pending entries included, so a second
    /// `CREATE TABLE` of the same name conflicts instead of colliding
    /// on a table id (if the creator aborts, a retry succeeds).
    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(&name.to_ascii_lowercase())
    }

    /// Allocates the next table id (bounded by the key layout).
    pub fn alloc_table_id(&mut self) -> Result<u32> {
        if self.next_table_id > crate::codec::MAX_TABLE_ID {
            return Err(Error::OutOfMemory {
                needed: self.next_table_id as usize + 1,
                available: crate::codec::MAX_TABLE_ID as usize + 1,
            });
        }
        let id = self.next_table_id;
        self.next_table_id += 1;
        Ok(id)
    }

    /// Installs a table entry under `name` (lowercased).
    pub fn install(&mut self, name: &str, entry: TableEntry) {
        self.next_table_id = self.next_table_id.max(entry.id.saturating_add(1));
        self.tables.insert(name.to_ascii_lowercase(), entry);
    }

    /// Removes a table and its indexes (rollback of a `CREATE TABLE`).
    pub fn remove(&mut self, name: &str) {
        if let Some(entry) = self.tables.remove(&name.to_ascii_lowercase()) {
            self.indexes
                .retain(|(table_id, _), _| *table_id != entry.id);
        }
    }

    /// Iterates tables as `(name, entry)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &TableEntry)> {
        self.tables.iter()
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True when no tables exist.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

/// The catalog behind its lock, shared by every session of one
/// database.
#[derive(Debug, Clone, Default)]
pub struct SharedCatalog {
    inner: Arc<RwLock<Catalog>>,
}

impl SharedCatalog {
    /// Puts `catalog` behind its lock.
    pub(crate) fn new(catalog: Catalog) -> SharedCatalog {
        SharedCatalog {
            inner: Arc::new(RwLock::new(catalog)),
        }
    }

    /// Runs `f` with shared (read) access to the catalog. The guard
    /// lives only for the closure — the catalog lock is the outermost
    /// lock class, so nothing inside `f` may wait on an engine row lock.
    pub fn with_catalog_read<T>(&self, f: impl FnOnce(&Catalog) -> Result<T>) -> Result<T> {
        let guard = self
            .inner
            .read()
            .map_err(|_| Error::Poisoned("sql catalog".to_string()))?;
        f(&guard)
    }

    /// Runs `f` with exclusive (write) access to the catalog. Same
    /// scoping rule as [`with_catalog_read`](Self::with_catalog_read).
    pub fn with_catalog_write<T>(&self, f: impl FnOnce(&mut Catalog) -> Result<T>) -> Result<T> {
        let mut guard = self
            .inner
            .write()
            .map_err(|_| Error::Poisoned("sql catalog".to_string()))?;
        f(&mut guard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_types::schema::DataType;

    fn entry(id: u32) -> TableEntry {
        TableEntry {
            id,
            schema: Schema::of(&[("id", DataType::Int)]),
            rows: BTreeMap::new(),
            next_rid: 0,
            pending_owner: None,
        }
    }

    #[test]
    fn names_are_case_insensitive() {
        let mut c = Catalog::default();
        c.install("Emp", entry(0));
        assert!(c.contains("EMP"));
        assert!(c.table("emp", None).is_ok());
        c.remove("eMp");
        assert!(c.table("emp", None).is_err());
    }

    #[test]
    fn pending_tables_are_private_until_published() {
        let mut c = Catalog::default();
        let mut e = entry(0);
        e.pending_owner = Some(TxnId(7));
        c.install("t", e);
        // Only the owning transaction sees it; the name still conflicts.
        assert!(c.table("t", None).is_err());
        assert!(c.table("t", Some(TxnId(8))).is_err());
        assert!(c.table("t", Some(TxnId(7))).is_ok());
        assert!(c.table_mut("t", None).is_err());
        assert!(c.table_mut("t", Some(TxnId(7))).is_ok());
        assert!(c.contains("t"));
        c.publish("t");
        assert!(c.table("t", None).is_ok());
        assert!(c.table("t", Some(TxnId(8))).is_ok());
    }

    #[test]
    fn table_ids_allocate_past_installed() {
        let mut c = Catalog::default();
        c.install("a", entry(5));
        assert_eq!(c.alloc_table_id().unwrap(), 6);
        assert_eq!(c.len(), 1);
        assert!(!c.is_empty());
    }

    #[test]
    fn shared_catalog_closures() {
        let shared = SharedCatalog::default();
        shared
            .with_catalog_write(|c| {
                c.install("t", entry(0));
                Ok(())
            })
            .unwrap();
        let n = shared.with_catalog_read(|c| Ok(c.len())).unwrap();
        assert_eq!(n, 1);
    }

    /// Re-measures `k` ([`CANDIDATE_COST_RATIO`]) on this machine: 10,000
    /// cached `analytic_join`-shaped orders, ranges `amount > t` keeping
    /// 2–20 % of them, each reached by scan and then by walk, 400 times.
    /// Prints the median nanoseconds of each and the ratio of a candidate
    /// to a scanned row; the two paths cost the same where the kept share
    /// is `1 / k`. Run with `cargo test --release -p mmdb-sql --lib
    /// candidate_cost_ratio -- --ignored --nocapture`.
    #[test]
    #[ignore = "a wall-clock measurement, not a check"]
    fn candidate_cost_ratio() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut amount = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            ((state >> 33) % 1_000_000) as i64
        };
        let rows: BTreeMap<u32, Tuple> = (0..10_000u32)
            .map(|id| {
                let row = vec![
                    Value::Int(i64::from(id)),
                    Value::Int(i64::from(id % 1_000)),
                    Value::Int(amount()),
                    Value::Str(format!("{id:032}")),
                ];
                (id, Tuple::new(row))
            })
            .collect();
        let mut c = Catalog::default();
        c.install(
            "orders",
            TableEntry {
                schema: Schema::of(&[
                    ("id", DataType::Int),
                    ("cust", DataType::Int),
                    ("amount", DataType::Int),
                    ("note", DataType::Str),
                ]),
                rows,
                ..entry(0)
            },
        );
        c.build_index("orders", 2);
        let orders = c.table("orders", None).unwrap();
        let index = c.indexes.get(&(0, 2)).unwrap();
        let median_ns = |reach: &dyn Fn() -> Vec<u32>| {
            let mut ns: Vec<u128> = (0..400)
                .map(|_| {
                    let start = std::time::Instant::now();
                    std::hint::black_box(reach());
                    start.elapsed().as_nanos()
                })
                .collect();
            ns.sort_unstable();
            ns[ns.len() / 2] as f64
        };
        for percent in [2, 5, 10, 12, 15, 17, 20] {
            let threshold = Value::Int(1_000_000 - 10_000 * percent);
            let pred = Predicate::cmp(2, CmpOp::Gt, threshold.clone());
            // `reach`'s two paths, minus the limit that picks between them.
            let scan = || -> Vec<u32> {
                let kept = orders.rows.iter().filter(|(_, row)| pred.eval(row));
                kept.map(|(rid, _)| *rid).collect()
            };
            let walk = || -> Vec<u32> {
                let (lo, hi) = key_range(&[(2, CmpOp::Gt, &threshold)], 2);
                let rids = candidates(index, lo.as_ref(), hi.as_ref(), usize::MAX).unwrap();
                let kept = rids
                    .into_iter()
                    .filter(|rid| orders.rows.get(rid).is_some_and(|row| pred.eval(row)));
                kept.collect()
            };
            assert_eq!(scan(), walk());
            let kept = scan().len() as f64;
            let (scan_ns, walk_ns) = (median_ns(&scan), median_ns(&walk));
            println!(
                "{percent:>2} %: {kept} kept, scan {scan_ns:.0} ns, walk {walk_ns:.0} ns, k = {:.2}",
                (walk_ns / kept) / (scan_ns / 10_000.0)
            );
        }
    }
}
