//! Statement execution against the session engine.
//!
//! [`SqlDb`] pairs one engine [`Session`] handle with the shared
//! volatile [`Catalog`]; [`SqlSession`] adds
//! per-connection transaction state. Durability rides the engine's
//! ordinary write path: a schema is one byte record, a row is one byte
//! record (see [`crate::codec`]), so `INSERT` is one engine `put` per
//! row, `UPDATE` is one exclusive `get_for_update` plus one `put`, and
//! `DELETE` puts the empty record — one key, one lock, one log record —
//! and SQL state gets WAL framing, group commit, and crash/recover
//! without any code of its own.
//!
//! # The row cache, its indexes, and their one rule
//!
//! The engine's records are the rows. The catalog's decoded
//! `TableEntry::rows` are a *cache* of them, kept so `SELECT` can read
//! without decoding, and the catalog's column indexes are §2 B+-trees
//! over that cache, built the first time a statement probes a column by
//! equality (see [`crate::catalog`]). All of it is maintained by exactly
//! one rule: **the cache and its indexes change only in refill — a
//! cached row is only ever (re)filled from the engine's current record
//! for its key, under the catalog write lock, after the engine write or
//! abort that changed the record has returned, and the row's entry in
//! every index of its table moves in that same critical section**
//! (`SqlDb::refill`). Nothing else writes a row into the cache — not
//! the tuple a statement just encoded, not a saved pre-image — and
//! nothing else touches an index once it is built.
//!
//! Every engine change to a key is followed by a refill of that key by
//! the thread that made it, refills of one key are serialized by the
//! catalog lock, and each reads the record under that lock; so whichever
//! refill runs last sees the last change, and at quiescence every cached
//! row equals its engine record and every index holds exactly its
//! column of the cached rows (`impl Auditable for SqlDb` checks exactly
//! that). Rollback needs no undo log of its own: abort the
//! engine transaction — which restores every pre-image under the row
//! locks — then refill the rows the transaction touched. A deadlock
//! victim, whose engine transaction was rolled back *inside* the engine
//! before its session heard about it, is the same case: by the time its
//! session refills, a successor may already have rewritten the row, and
//! the refill picks up the successor's record because that is what the
//! engine holds.
//!
//! An index is therefore never more than a projection of the cache: a
//! probe reads exactly as read-uncommitted as a scan does, and
//! `UPDATE`/`DELETE` still recheck each candidate against the engine's
//! record under its row lock (`lock_row`).
//!
//! # Visibility
//!
//! Cached rows are visible as soon as their statement returns, *before*
//! commit — row reads are read-uncommitted, matching the engine's own
//! unlocked `get`. DDL is stricter: a table created inside an open
//! transaction stays private to that transaction (the entry carries a
//! `pending_owner` tag filtered out of every other session's lookups)
//! until commit publishes it. Otherwise another session could durably
//! commit rows into a table whose catalog entry never commits, leaving
//! orphan row keys in the log. Write-write conflicts are real
//! conflicts: every `INSERT`/`UPDATE`/`DELETE` takes its row's exclusive
//! lock through the engine's per-shard lock manager, so two
//! transactions mutating the same row serialize (or deadlock, and the
//! victim aborts). Any failed statement aborts the whole transaction.
//!
//! Statements outside an explicit `BEGIN` autocommit: they run in a
//! fresh transaction committed durably (`commit_durable`) before the
//! result returns.

use crate::ast::{Condition, Literal, SetExpr, Statement};
use crate::catalog::{Catalog, SharedCatalog, TableEntry};
use crate::codec::{self, SqlKey};
use crate::parser::{parse, ParseError};
use crate::query::{self, QueryResult};
use mmdb_session::{Engine, Session, Txn};
use mmdb_types::error::{Error, Result};
use mmdb_types::expr::Predicate;
use mmdb_types::ids::TxnId;
use mmdb_types::schema::{Column, DataType, Schema};
use mmdb_types::tuple::Tuple;
use mmdb_types::{AuditViolation, Auditable};
use std::collections::{BTreeMap, BTreeSet};

/// Any error a SQL statement can produce.
#[derive(Debug)]
pub enum SqlError {
    /// The text did not parse.
    Parse(ParseError),
    /// Front-end semantic error (transaction state, unsupported shape).
    Sql(String),
    /// Engine, planner, or executor error.
    Exec(Error),
    /// A statement failed inside an explicit transaction, which the
    /// session then aborted. Wraps the original failure; classification
    /// follows the inner error.
    TxnAborted(Box<SqlError>),
}

/// How a failed statement should be treated by the caller: worth
/// retrying from the top (a fresh attempt may succeed — deadlock
/// victims, capacity refusals, shutdown races) or fatal as written
/// (parse errors, unknown tables, constraint-shaped failures).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// Transient: the same statement may succeed if resubmitted.
    Retryable,
    /// Deterministic: resubmitting the same statement will fail again.
    Fatal,
}

impl SqlError {
    /// Classifies this error as [`ErrorClass::Retryable`] or
    /// [`ErrorClass::Fatal`]. The server forwards this in-band so
    /// clients can auto-retry safely.
    pub fn class(&self) -> ErrorClass {
        match self {
            SqlError::Parse(_) | SqlError::Sql(_) => ErrorClass::Fatal,
            SqlError::TxnAborted(inner) => inner.class(),
            SqlError::Exec(e) => match e {
                Error::LockConflict { .. } | Error::TransactionAborted(_) | Error::Shutdown => {
                    ErrorClass::Retryable
                }
                _ => ErrorClass::Fatal,
            },
        }
    }
}

impl std::fmt::Display for SqlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SqlError::Parse(e) => write!(f, "{e}"),
            SqlError::Sql(msg) => write!(f, "{msg}"),
            SqlError::Exec(e) => write!(f, "{e}"),
            SqlError::TxnAborted(inner) => write!(f, "{inner}; transaction aborted"),
        }
    }
}

impl std::error::Error for SqlError {}

impl From<ParseError> for SqlError {
    fn from(e: ParseError) -> Self {
        SqlError::Parse(e)
    }
}

impl From<Error> for SqlError {
    fn from(e: Error) -> Self {
        SqlError::Exec(e)
    }
}

/// A SQL database bound to one engine: the shared catalog plus a
/// session handle. Cheap to clone — make one [`SqlSession`] per
/// connection via [`SqlDb::session`].
#[derive(Clone)]
pub struct SqlDb {
    session: Session,
    catalog: SharedCatalog,
}

impl SqlDb {
    /// Opens the SQL layer over an engine, filling the volatile catalog
    /// and its row cache from the store's SQL-owned records, entry by
    /// entry. After [`Engine::recover`] this is exactly the committed
    /// image: the log replayed into memory (§5.2), decoded back into
    /// schemas and rows. No index is built here: each appears when a
    /// statement first probes its column.
    pub fn open(engine: &Engine) -> Result<SqlDb> {
        let session = engine.session();
        let snapshot = session.snapshot_kv()?;
        let mut tables: BTreeMap<u32, (String, TableEntry)> = BTreeMap::new();
        let mut rows = Vec::new();
        for (key, record) in &snapshot {
            match codec::parse_key(*key) {
                Some(SqlKey::Catalog { table_id }) => {
                    let (name, schema) = codec::decode_schema(record)?;
                    let entry = TableEntry {
                        id: table_id,
                        schema,
                        rows: BTreeMap::new(),
                        next_rid: 0,
                        pending_owner: None,
                    };
                    tables.insert(table_id, (name, entry));
                }
                Some(SqlKey::Row { table_id, rid }) => rows.push((table_id, rid, record)),
                None if codec::is_sql_key(*key) => {
                    return Err(Error::CorruptLog(format!(
                        "SQL-owned key {key:#x} fits neither the catalog nor the row layout"
                    )));
                }
                None => {}
            }
        }
        // Rows second: decoding one needs its table's arity.
        for (table_id, rid, record) in rows {
            // An orphan row (no catalog entry) is quarantined — skipped —
            // rather than failing the whole open and leaving the database
            // permanently unopenable.
            let Some((_, entry)) = tables.get_mut(&table_id) else {
                continue;
            };
            // Deleted rows (the empty record) still advance the rid
            // watermark.
            entry.next_rid = entry.next_rid.max(rid.saturating_add(1));
            if !record.is_empty() {
                let tuple = codec::decode_row(record, entry.schema.arity())?;
                entry.rows.insert(rid, tuple);
            }
        }
        let mut catalog = Catalog::registered(&engine.registry());
        for (name, entry) in tables.into_values() {
            catalog.install(&name, entry);
        }
        Ok(SqlDb {
            session,
            catalog: SharedCatalog::new(catalog),
        })
    }

    /// A new statement session (one per connection or client thread).
    pub fn session(&self) -> SqlSession {
        SqlSession {
            db: self.clone(),
            txn: None,
            touched: Vec::new(),
            created: Vec::new(),
        }
    }

    /// Committed table names currently in the catalog, sorted; tables
    /// pending inside an open transaction are not listed.
    pub fn table_names(&self) -> Result<Vec<String>> {
        self.catalog.with_catalog_read(|c| {
            Ok(c.iter()
                .filter(|(_, e)| e.visible_to(None))
                .map(|(n, _)| n.clone())
                .collect())
        })
    }

    /// The one rule of the cache and its indexes (see the module docs):
    /// sets each of `table`'s cached rows `rids` to what the engine holds
    /// for its key right now — decoded if there is a non-empty record,
    /// absent otherwise — and moves its index entries to match. Call it
    /// only after the engine write or abort that changed those records
    /// has returned. The engine read takes a shard lock under the catalog
    /// lock (downward in the lock order) and never waits on a row lock. A
    /// table that is gone — created and rolled back by the caller — has no
    /// cache left to fill.
    fn refill(&self, table: &str, rids: &[u32]) -> Result<()> {
        if rids.is_empty() {
            return Ok(());
        }
        self.catalog.with_catalog_write(|cat| {
            cat.refill_rows(table, rids, |entry, rid| {
                match self.session.get(codec::row_key(entry.id, rid)?)? {
                    Some(record) if !record.is_empty() => {
                        codec::decode_row(&record, entry.schema.arity()).map(Some)
                    }
                    _ => Ok(None),
                }
            })
        })
    }

    /// Builds the index a table access asked for (`Reached::wants_index`),
    /// before the statement that probed the column returns.
    fn build_index(&self, table: &str, column: usize) -> Result<()> {
        self.catalog.with_catalog_write(|cat| {
            cat.build_index(table, column);
            Ok(())
        })
    }

    /// The audit proper, with refills shut out by the catalog lock.
    fn audit_cache(&self, cat: &Catalog) -> std::result::Result<(), AuditViolation> {
        const C: &str = "SqlDb";
        let snapshot = self
            .session
            .snapshot_kv()
            .map_err(|e| AuditViolation::new(C, "engine-read", e.to_string()))?;
        let by_id: BTreeMap<u32, &TableEntry> = cat.iter().map(|(_, e)| (e.id, e)).collect();
        let mut live: BTreeSet<(u32, u32)> = BTreeSet::new();
        for (key, record) in &snapshot {
            match codec::parse_key(*key) {
                Some(SqlKey::Row { table_id, rid }) if !record.is_empty() => {
                    let Some(entry) = by_id.get(&table_id) else {
                        continue; // quarantined orphan, as in `open`
                    };
                    let decoded = codec::decode_row(record, entry.schema.arity())
                        .map_err(|e| AuditViolation::new(C, "row-decodes", e.to_string()))?;
                    AuditViolation::ensure(
                        entry.rows.get(&rid) == Some(&decoded),
                        C,
                        "cache-equals-engine",
                        || {
                            format!(
                                "table {table_id} row {rid}: cache holds {:?}, engine {decoded:?}",
                                entry.rows.get(&rid)
                            )
                        },
                    )?;
                    live.insert((table_id, rid));
                }
                Some(_) => {}
                None => AuditViolation::ensure(!codec::is_sql_key(*key), C, "key-layout", || {
                    format!("SQL-owned key {key:#x} fits neither layout")
                })?,
            }
        }
        for entry in by_id.values() {
            for rid in entry.rows.keys() {
                AuditViolation::ensure(
                    live.contains(&(entry.id, *rid)),
                    C,
                    "cache-backed",
                    || {
                        format!(
                            "table {} caches row {rid} but the engine has no record for it",
                            entry.id
                        )
                    },
                )?;
            }
        }
        cat.audit_indexes()
    }
}

impl Auditable for SqlDb {
    /// At quiescence (no statement running): every cached row equals
    /// `decode_row` of the engine's record for its key, every non-empty
    /// engine row record of a catalogued table is cached, no SQL-owned
    /// key lies outside the catalog and row layouts, and every column
    /// index is a well-formed B+-tree holding exactly `{(row[column],
    /// rid)}` of its table's cached rows.
    fn audit(&self) -> std::result::Result<(), AuditViolation> {
        self.catalog
            .with_catalog_read(|cat| Ok(self.audit_cache(cat)))
            .map_err(|e| AuditViolation::new("SqlDb", "poison", e.to_string()))?
    }
}

/// Per-connection statement execution state: an optional open
/// transaction and what rolling it back would have to revisit.
pub struct SqlSession {
    db: SqlDb,
    txn: Option<Txn>,
    /// Rows the open transaction wrote, per statement: `(table, rids)`.
    /// Rollback refills exactly these.
    touched: Vec<(String, Vec<u32>)>,
    /// Tables the open transaction created: published on commit,
    /// removed on rollback.
    created: Vec<String>,
}

impl SqlSession {
    /// Parses and runs one statement.
    pub fn execute(&mut self, sql: &str) -> std::result::Result<QueryResult, SqlError> {
        let stmt = parse(sql)?;
        self.run(&stmt)
    }

    /// True while an explicit transaction is open.
    pub fn in_transaction(&self) -> bool {
        self.txn.is_some()
    }

    /// Runs one parsed statement.
    pub fn run(&mut self, stmt: &Statement) -> std::result::Result<QueryResult, SqlError> {
        match stmt {
            Statement::Begin => {
                if self.txn.is_some() {
                    return Err(SqlError::Sql("a transaction is already open".to_string()));
                }
                self.txn = Some(self.db.session.begin()?);
                Ok(QueryResult::ack())
            }
            Statement::Commit => {
                let txn = self
                    .txn
                    .take()
                    .ok_or_else(|| SqlError::Sql("COMMIT outside a transaction".to_string()))?;
                self.commit(txn)?;
                Ok(QueryResult::ack())
            }
            Statement::Abort => {
                let txn = self
                    .txn
                    .take()
                    .ok_or_else(|| SqlError::Sql("ABORT outside a transaction".to_string()))?;
                self.rollback(txn);
                Ok(QueryResult::ack())
            }
            Statement::Select(sel) => {
                // The read lock is held for the whole run, bounded by its
                // output, not by a copy of its inputs (rows are lent). The
                // indexes it wanted are built after, only if it succeeded.
                let viewer = self.txn.as_ref().map(Txn::id);
                let (result, wanted) = self
                    .db
                    .catalog
                    .with_catalog_read(|c| query::run_select(sel, c, viewer))?;
                for (table, column) in wanted {
                    self.db.build_index(&table, column)?;
                }
                Ok(result)
            }
            mutation => self.run_mutation(mutation),
        }
    }

    /// Runs a DDL/DML statement, autocommitting when no transaction is
    /// open. Any failure aborts the whole transaction — the error
    /// message tells the client so.
    fn run_mutation(&mut self, stmt: &Statement) -> std::result::Result<QueryResult, SqlError> {
        // An autocommit transaction lives only in this call: `self.txn`
        // stays `None`, so every exit below either commits it or rolls
        // it back.
        let auto = self.txn.is_none();
        let txn = match self.txn {
            Some(txn) => txn,
            None => self.db.session.begin()?,
        };
        let mut rids = Vec::new();
        let (table, outcome) = match stmt {
            Statement::CreateTable { name, columns } => (
                name.as_str(),
                create_table(&self.db, &txn, &mut self.created, name, columns),
            ),
            Statement::Insert {
                table,
                columns,
                rows,
            } => (
                table.as_str(),
                insert(&self.db, &txn, &mut rids, table, columns, rows),
            ),
            Statement::Update {
                table,
                sets,
                conditions,
            } => (
                table.as_str(),
                update(&self.db, &txn, &mut rids, table, sets, conditions),
            ),
            Statement::Delete { table, conditions } => (
                table.as_str(),
                delete(&self.db, &txn, &mut rids, table, conditions),
            ),
            _ => (
                "",
                Err(Error::Internal("not a mutation statement".to_string())),
            ),
        };
        // The statement's engine writes have returned: refill what it
        // wrote. On failure the rollback below refills instead, after
        // the abort.
        let outcome = outcome.and_then(|result| {
            self.db.refill(table, &rids)?;
            Ok(result)
        });
        if !rids.is_empty() {
            self.touched.push((table.to_string(), rids));
        }
        match outcome {
            Ok(result) if auto => self.commit(txn).map(|()| result),
            Ok(result) => Ok(result),
            Err(e) => {
                self.txn = None;
                self.rollback(txn);
                let e = SqlError::Exec(e);
                Err(if auto {
                    e
                } else {
                    SqlError::TxnAborted(Box::new(e))
                })
            }
        }
    }

    /// Commits durably, then publishes the tables the transaction
    /// created — making them visible to every other session. The cache
    /// already shows the transaction's rows. A failed commit rolls back.
    fn commit(&mut self, txn: Txn) -> std::result::Result<(), SqlError> {
        if let Err(e) = self.db.session.commit_durable(txn) {
            self.rollback(txn);
            return Err(SqlError::Exec(e));
        }
        self.touched.clear();
        self.settle_created(Catalog::publish);
        Ok(())
    }

    /// Hands every table the transaction created to `settle` — publish
    /// on commit, remove on rollback — under one catalog write lock.
    fn settle_created(&mut self, settle: fn(&mut Catalog, &str)) {
        let created = std::mem::take(&mut self.created);
        if !created.is_empty() {
            let _ = self.db.catalog.with_catalog_write(|cat| {
                created.iter().for_each(|name| settle(cat, name));
                Ok(())
            });
        }
    }

    /// Rollback: abort the engine transaction, then refill the rows it
    /// touched and drop the tables it created. The engine may have
    /// aborted `txn` already (a deadlock victim is rolled back inside
    /// the engine); either way its records are restored once `abort`
    /// returns, and the refill reads whatever the engine holds *now* —
    /// a successor's write included.
    fn rollback(&mut self, txn: Txn) {
        let _ = self.db.session.abort(txn);
        self.settle_created(Catalog::remove);
        for (table, rids) in std::mem::take(&mut self.touched) {
            let _ = self.db.refill(&table, &rids);
        }
    }
}

impl Drop for SqlSession {
    /// A dropped session with an open transaction aborts it — a
    /// disconnecting client must not leave row locks behind.
    fn drop(&mut self) {
        if let Some(txn) = self.txn.take() {
            self.rollback(txn);
        }
    }
}

// ---------------------------------------------------------------------
// Mutation statements
// ---------------------------------------------------------------------

fn create_table(
    db: &SqlDb,
    txn: &Txn,
    created: &mut Vec<String>,
    name: &str,
    columns: &[(String, DataType)],
) -> Result<QueryResult> {
    if columns.is_empty() {
        // Also what keeps "the empty record" free to mean "deleted".
        return Err(Error::Planning(format!(
            "table '{name}' needs at least one column"
        )));
    }
    let schema = Schema::new(
        columns
            .iter()
            .map(|(n, ty)| Column::new(n.clone(), *ty))
            .collect(),
    )?;
    // Install in the catalog first, tagged as pending: only this
    // transaction sees the table until commit publishes it, so no other
    // session can durably commit rows into a table whose catalog entry
    // might never commit. The name itself is claimed immediately —
    // concurrent CREATEs of the same name race on the catalog lock
    // instead of silently colliding on a table id.
    let (table_id, blob) = db.catalog.with_catalog_write(|cat| {
        if cat.contains(name) {
            return Err(Error::Planning(format!("table '{name}' already exists")));
        }
        let id = cat.alloc_table_id()?;
        let blob = codec::encode_schema(name, &schema)?;
        cat.install(
            name,
            TableEntry {
                id,
                schema: schema.clone(),
                rows: BTreeMap::new(),
                next_rid: 0,
                pending_owner: Some(txn.id()),
            },
        );
        Ok((id, blob))
    })?;
    created.push(name.to_string());
    db.session
        .put(txn, codec::catalog_key(table_id)?, blob.into())?;
    Ok(QueryResult::ack())
}

fn insert(
    db: &SqlDb,
    txn: &Txn,
    rids: &mut Vec<u32>,
    table: &str,
    columns: &Option<Vec<String>>,
    rows: &[Vec<Literal>],
) -> Result<QueryResult> {
    // Bind and encode every row and reserve rids under one catalog lock.
    let (table_id, bound) = db.catalog.with_catalog_write(|cat| {
        let entry = cat.table_mut(table, Some(txn.id()))?;
        let mut bound = Vec::with_capacity(rows.len());
        for row in rows {
            let tuple = query::bind_insert_row(&entry.schema, columns, row)?;
            let blob = codec::encode_row(&tuple)?;
            if entry.next_rid == codec::MAX_RID {
                return Err(Error::OutOfMemory {
                    needed: entry.next_rid as usize,
                    available: codec::MAX_RID as usize,
                });
            }
            bound.push((entry.next_rid, blob));
            entry.next_rid += 1;
        }
        Ok((entry.id, bound))
    })?;
    let count = bound.len() as u64;
    for (rid, blob) in bound {
        rids.push(rid);
        db.session
            .put(txn, codec::row_key(table_id, rid)?, blob.into())?;
    }
    Ok(QueryResult::affected(count))
}

/// The rows an `UPDATE`/`DELETE` may touch — candidates from an unlocked
/// read of the cache — plus what it needs to touch them.
struct MutationScan {
    table_id: u32,
    schema: Schema,
    /// The bound `WHERE` clause: what chose the candidates, and what each
    /// is rechecked against once its row lock is held.
    pred: Predicate,
    candidates: Vec<u32>,
}

/// Binds the `WHERE` clause and reaches the table by the same
/// probe-walk-or-scan rule as `SELECT` (`Catalog::reach`).
fn scan_matching(
    db: &SqlDb,
    viewer: Option<TxnId>,
    table: &str,
    conditions: &[Condition],
) -> Result<MutationScan> {
    let (scan, wants_index) = db.catalog.with_catalog_read(|cat| {
        let entry = cat.table(table, viewer)?;
        let pred = query::bind_table_predicate(table, &entry.schema, conditions)?;
        let reached = cat.reach(entry, &pred, |rid, _| rid);
        let scan = MutationScan {
            table_id: entry.id,
            schema: entry.schema.clone(),
            pred,
            candidates: reached.kept,
        };
        Ok((scan, reached.wants_index))
    })?;
    if let Some(column) = wants_index {
        db.build_index(table, column)?;
    }
    Ok(scan)
}

/// Takes one row's exclusive lock through the engine and decodes its
/// current record *from the engine* under that lock. Returns `None`
/// when the row is gone (never committed, or deleted — the empty
/// record) by the time the lock is granted; the statement skips it,
/// exactly as if the scan had never seen it.
///
/// The engine, not the cache, is the authority here: an engine-side
/// abort (deadlock victim) rolls the store back and releases the
/// victim's locks atomically under the shard lock, while the victim's
/// *cached* rows linger until its session refills them. A
/// read-modify-write built on the cache in that window silently drops
/// the concurrent committed update.
fn lock_row(db: &SqlDb, txn: &Txn, key: u64, arity: usize) -> Result<Option<Tuple>> {
    match db.session.get_for_update(txn, key)? {
        Some(record) if !record.is_empty() => codec::decode_row(&record, arity).map(Some),
        _ => Ok(None),
    }
}

fn update(
    db: &SqlDb,
    txn: &Txn,
    rids: &mut Vec<u32>,
    table: &str,
    sets: &[(String, SetExpr)],
    conditions: &[Condition],
) -> Result<QueryResult> {
    let scan = scan_matching(db, Some(txn.id()), table, conditions)?;
    let bound_sets = query::bind_sets(&scan.schema, sets)?;
    for rid in scan.candidates {
        // The scan ran unlocked; lock the row, then recheck against its
        // current value (it may have changed or stopped matching).
        let key = codec::row_key(scan.table_id, rid)?;
        let current = match lock_row(db, txn, key, scan.schema.arity())? {
            Some(t) if scan.pred.eval(&t) => t,
            _ => continue,
        };
        let new = query::apply_sets(&scan.schema, &current, &bound_sets)?;
        rids.push(rid);
        db.session.put(txn, key, codec::encode_row(&new)?.into())?;
    }
    Ok(QueryResult::affected(rids.len() as u64))
}

fn delete(
    db: &SqlDb,
    txn: &Txn,
    rids: &mut Vec<u32>,
    table: &str,
    conditions: &[Condition],
) -> Result<QueryResult> {
    let scan = scan_matching(db, Some(txn.id()), table, conditions)?;
    for rid in scan.candidates {
        let key = codec::row_key(scan.table_id, rid)?;
        match lock_row(db, txn, key, scan.schema.arity())? {
            Some(t) if scan.pred.eval(&t) => {}
            _ => continue,
        }
        // Deletion is the empty record: the key stays, so recovery keeps
        // the rid watermark and the rid is never reissued.
        rids.push(rid);
        db.session.put(txn, key, Vec::new().into())?;
    }
    Ok(QueryResult::affected(rids.len() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_session::EngineOptions;
    use mmdb_types::value::Value;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mmdb-sql-session-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn engine(dir: &std::path::Path) -> Engine {
        let opts = EngineOptions::new(mmdb_session::CommitPolicy::Group, dir);
        Engine::start(opts).unwrap()
    }

    #[test]
    fn autocommit_crud_roundtrip() {
        let dir = temp_dir("crud");
        let eng = engine(&dir);
        let db = SqlDb::open(&eng).unwrap();
        let mut s = db.session();
        s.execute("CREATE TABLE acct (id INT, owner TEXT, bal INT)")
            .unwrap();
        let r = s
            .execute("INSERT INTO acct VALUES (1, 'ann', 100), (2, 'bob', 50)")
            .unwrap();
        assert_eq!(r.affected, 2);
        let r = s
            .execute("UPDATE acct SET bal = bal + 10 WHERE id = 2")
            .unwrap();
        assert_eq!(r.affected, 1);
        let r = s
            .execute("SELECT owner, bal FROM acct WHERE bal >= 60")
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        let r = s.execute("DELETE FROM acct WHERE id = 1").unwrap();
        assert_eq!(r.affected, 1);
        let r = s.execute("SELECT * FROM acct").unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][1], Value::Str("bob".to_string()));
        db.audit().unwrap();
        eng.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn abort_rolls_back_catalog_and_rows() {
        let dir = temp_dir("abort");
        let eng = engine(&dir);
        let db = SqlDb::open(&eng).unwrap();
        let mut s = db.session();
        s.execute("CREATE TABLE t (id INT)").unwrap();
        s.execute("INSERT INTO t VALUES (1)").unwrap();
        s.execute("BEGIN").unwrap();
        s.execute("INSERT INTO t VALUES (2)").unwrap();
        s.execute("UPDATE t SET id = 9 WHERE id = 1").unwrap();
        s.execute("CREATE TABLE u (x INT)").unwrap();
        s.execute("ABORT").unwrap();
        let r = s.execute("SELECT id FROM t").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(1)]]);
        assert!(s.execute("SELECT * FROM u").is_err());
        db.audit().unwrap();
        eng.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_statement_aborts_open_transaction() {
        let dir = temp_dir("stmt-abort");
        let eng = engine(&dir);
        let db = SqlDb::open(&eng).unwrap();
        let mut s = db.session();
        s.execute("CREATE TABLE t (id INT)").unwrap();
        s.execute("BEGIN").unwrap();
        s.execute("INSERT INTO t VALUES (1)").unwrap();
        assert!(s.execute("INSERT INTO nope VALUES (1)").is_err());
        assert!(!s.in_transaction());
        let r = s.execute("SELECT * FROM t").unwrap();
        assert!(r.rows.is_empty());
        db.audit().unwrap();
        eng.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dropped_session_rolls_back_its_open_transaction() {
        let dir = temp_dir("drop");
        let eng = engine(&dir);
        let db = SqlDb::open(&eng).unwrap();
        let mut s = db.session();
        s.execute("CREATE TABLE t (id INT)").unwrap();
        s.execute("INSERT INTO t VALUES (1), (2)").unwrap();
        {
            let mut gone = db.session();
            gone.execute("BEGIN").unwrap();
            gone.execute("INSERT INTO t VALUES (3)").unwrap();
            gone.execute("DELETE FROM t WHERE id = 1").unwrap();
            gone.execute("UPDATE t SET id = 20 WHERE id = 2").unwrap();
            gone.execute("CREATE TABLE u (x INT)").unwrap();
        }
        let r = s.execute("SELECT id FROM t").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
        assert_eq!(db.table_names().unwrap(), vec!["t".to_string()]);
        db.audit().unwrap();
        // The dropped session's row locks are gone.
        s.execute("UPDATE t SET id = 9 WHERE id = 2").unwrap();
        eng.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deadlock_victim_rolls_back_and_the_survivor_commits() {
        let dir = temp_dir("deadlock");
        let eng = engine(&dir);
        let db = SqlDb::open(&eng).unwrap();
        let mut s = db.session();
        s.execute("CREATE TABLE t (id INT, n INT)").unwrap();
        s.execute("INSERT INTO t VALUES (1, 0), (2, 0)").unwrap();
        // Each session locks its first row, meets the other at the
        // barrier, then asks for the other's row. The crossing statements
        // block in the engine until deadlock detection aborts one.
        let barrier = std::sync::Barrier::new(2);
        let cross = |first: i64, second: i64, add: i64| {
            let mut s = db.session();
            let barrier = &barrier;
            move || {
                s.execute("BEGIN").unwrap();
                s.execute(&format!("UPDATE t SET n = n + {add} WHERE id = {first}"))
                    .unwrap();
                barrier.wait();
                match s.execute(&format!("UPDATE t SET n = n + {add} WHERE id = {second}")) {
                    Ok(_) => {
                        s.execute("COMMIT").unwrap();
                        Some(add)
                    }
                    Err(e) => {
                        assert_eq!(e.class(), ErrorClass::Retryable, "{e}");
                        assert!(!s.in_transaction());
                        None
                    }
                }
            }
        };
        let (a, b) = std::thread::scope(|scope| {
            let a = scope.spawn(cross(1, 2, 10));
            let b = scope.spawn(cross(2, 1, 100));
            (a.join().unwrap(), b.join().unwrap())
        });
        let survivor = match (a, b) {
            (Some(add), None) | (None, Some(add)) => add,
            other => panic!("exactly one of the two must commit, got {other:?}"),
        };
        let r = s.execute("SELECT n FROM t").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(survivor)]; 2]);
        db.audit().unwrap();
        eng.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn victim_rollback_keeps_a_successors_equal_value() {
        // T1 updates the row and is aborted inside the engine — what
        // deadlock-victim selection does, before the victim's session
        // hears of it. T2 then commits the very tuple T1 had written.
        // Only then does T1's session roll back: the row is T2's.
        let dir = temp_dir("equal-value");
        let eng = engine(&dir);
        let db = SqlDb::open(&eng).unwrap();
        let mut t1 = db.session();
        let mut t2 = db.session();
        t1.execute("CREATE TABLE t (id INT, n INT)").unwrap();
        t1.execute("INSERT INTO t VALUES (1, 0)").unwrap();
        t1.execute("BEGIN").unwrap();
        t1.execute("UPDATE t SET n = 5 WHERE id = 1").unwrap();
        let victim = t1.txn.expect("T1 is open");
        db.session.abort(victim).unwrap();
        t2.execute("UPDATE t SET n = 5 WHERE id = 1").unwrap();
        assert!(t1.execute("UPDATE t SET n = n + 1 WHERE id = 1").is_err());
        assert!(!t1.in_transaction());
        let r = t2.execute("SELECT n FROM t WHERE id = 1").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(5)]], "T2's committed value");
        db.audit().unwrap();
        eng.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn audit_catches_a_cache_that_disagrees_with_the_engine() {
        let dir = temp_dir("audit");
        let eng = engine(&dir);
        let db = SqlDb::open(&eng).unwrap();
        let mut s = db.session();
        s.execute("CREATE TABLE t (id INT)").unwrap();
        s.execute("INSERT INTO t VALUES (1)").unwrap();
        db.audit().unwrap();
        let set_cached = |rid: u32, tuple: Option<Tuple>| {
            db.catalog
                .with_catalog_write(|cat| {
                    let rows = &mut cat.table_mut("t", None)?.rows;
                    match tuple {
                        Some(t) => rows.insert(rid, t),
                        None => rows.remove(&rid),
                    };
                    Ok(())
                })
                .unwrap();
        };
        let row = |v: i64| Some(Tuple::new(vec![Value::Int(v)]));
        set_cached(0, row(2));
        assert_eq!(db.audit().unwrap_err().invariant, "cache-equals-engine");
        set_cached(0, None);
        assert_eq!(db.audit().unwrap_err().invariant, "cache-equals-engine");
        set_cached(0, row(1));
        set_cached(7, row(1));
        assert_eq!(db.audit().unwrap_err().invariant, "cache-backed");
        set_cached(7, None);
        // A SQL-owned key with a bit neither layout uses.
        let raw = eng.session();
        let t = raw.begin().unwrap();
        raw.write(&t, codec::SQL_BIT | 1 << 40, 0).unwrap();
        raw.commit_durable(t).unwrap();
        assert_eq!(db.audit().unwrap_err().invariant, "key-layout");
        assert!(SqlDb::open(&eng).is_err(), "open refuses it too");
        eng.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn catalog_survives_crash_and_recover() {
        let dir = temp_dir("recover");
        let eng = engine(&dir);
        {
            let db = SqlDb::open(&eng).unwrap();
            let mut s = db.session();
            s.execute("CREATE TABLE kv (k INT, v TEXT)").unwrap();
            s.execute("INSERT INTO kv VALUES (1, 'one'), (2, 'two'), (3, 'three')")
                .unwrap();
            s.execute("DELETE FROM kv WHERE k = 2").unwrap();
            s.execute("UPDATE kv SET v = 'THREE' WHERE k = 3").unwrap();
            // An uncommitted transaction must not survive.
            s.execute("BEGIN").unwrap();
            s.execute("INSERT INTO kv VALUES (4, 'four')").unwrap();
        }
        eng.crash().unwrap();
        let opts = EngineOptions::new(mmdb_session::CommitPolicy::Group, &dir);
        let (eng, _info) = Engine::recover(opts).unwrap();
        let db = SqlDb::open(&eng).unwrap();
        let mut s = db.session();
        let r = s.execute("SELECT k, v FROM kv WHERE k >= 1").unwrap();
        let mut rows = r.rows.clone();
        rows.sort();
        assert_eq!(
            rows,
            vec![
                vec![Value::Int(1), Value::Str("one".to_string())],
                vec![Value::Int(3), Value::Str("THREE".to_string())],
            ]
        );
        // New inserts allocate past the recovered watermark.
        s.execute("INSERT INTO kv VALUES (5, 'five')").unwrap();
        let r = s.execute("SELECT k FROM kv").unwrap();
        assert_eq!(r.rows.len(), 3);
        db.audit().unwrap();
        eng.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn uncommitted_create_table_is_private_to_its_transaction() {
        let dir = temp_dir("ddl-private");
        let eng = engine(&dir);
        let db = SqlDb::open(&eng).unwrap();
        let mut a = db.session();
        let mut b = db.session();
        a.execute("BEGIN").unwrap();
        a.execute("CREATE TABLE t (id INT)").unwrap();
        a.execute("INSERT INTO t VALUES (1)").unwrap();
        // The creator sees its own pending table...
        let r = a.execute("SELECT id FROM t").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(1)]]);
        // ...but no other session can read it, write into it (and
        // durably commit orphan rows), or list it; the name itself is
        // already claimed.
        assert!(b.execute("SELECT * FROM t").is_err());
        assert!(b.execute("INSERT INTO t VALUES (2)").is_err());
        assert!(b.execute("CREATE TABLE t (x INT)").is_err());
        assert_eq!(db.table_names().unwrap(), Vec::<String>::new());
        a.execute("COMMIT").unwrap();
        // Commit publishes: now everyone sees it.
        assert_eq!(db.table_names().unwrap(), vec!["t".to_string()]);
        let r = b.execute("SELECT id FROM t").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(1)]]);
        b.execute("INSERT INTO t VALUES (2)").unwrap();
        eng.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn aborted_create_table_frees_the_name() {
        let dir = temp_dir("ddl-abort");
        let eng = engine(&dir);
        let db = SqlDb::open(&eng).unwrap();
        let mut a = db.session();
        let mut b = db.session();
        a.execute("BEGIN").unwrap();
        a.execute("CREATE TABLE t (id INT)").unwrap();
        a.execute("INSERT INTO t VALUES (1)").unwrap();
        a.execute("ABORT").unwrap();
        // Nothing leaked, and the name is free for anyone again.
        assert!(a.execute("SELECT * FROM t").is_err());
        b.execute("CREATE TABLE t (x INT)").unwrap();
        let r = b.execute("SELECT * FROM t").unwrap();
        assert!(r.rows.is_empty());
        db.audit().unwrap();
        eng.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A three-table join: the lower join's pairs are owned rows that the
    /// top join reads beside rows lent from the cache. Checked against a
    /// nested loop over the inserted values.
    #[test]
    fn a_three_table_join_matches_nested_loops() {
        let dir = temp_dir("three-way");
        let eng = engine(&dir);
        let db = SqlDb::open(&eng).unwrap();
        let mut s = db.session();
        s.execute("CREATE TABLE a (id INT, x TEXT)").unwrap();
        s.execute("CREATE TABLE b (id INT, a_id INT, y INT)")
            .unwrap();
        s.execute("CREATE TABLE c (b_id INT, z INT)").unwrap();
        let a: Vec<(i64, String)> = (0..12).map(|i| (i, format!("a{i}"))).collect();
        let b: Vec<(i64, i64, i64)> = (0..30).map(|i| (i, (i * 7) % 15, i % 4)).collect();
        let c: Vec<(i64, i64)> = (0..60).map(|i| ((i * 11) % 35, i % 5)).collect();
        let values = |rows: Vec<String>| rows.join(", ");
        s.execute(&format!(
            "INSERT INTO a VALUES {}",
            values(a.iter().map(|(id, x)| format!("({id}, '{x}')")).collect())
        ))
        .unwrap();
        s.execute(&format!(
            "INSERT INTO b VALUES {}",
            values(
                b.iter()
                    .map(|(id, a_id, y)| format!("({id}, {a_id}, {y})"))
                    .collect()
            )
        ))
        .unwrap();
        s.execute(&format!(
            "INSERT INTO c VALUES {}",
            values(c.iter().map(|(b_id, z)| format!("({b_id}, {z})")).collect())
        ))
        .unwrap();

        let r = s
            .execute(
                "SELECT a.x, c.z, b.y, a.x FROM a, b, c \
                 WHERE a.id = b.a_id AND b.id = c.b_id AND c.z > 1",
            )
            .unwrap();
        assert_eq!(r.columns, vec!["a.x", "c.z", "b.y", "a.x"]);
        let mut want = Vec::new();
        for (a_id, x) in &a {
            for (b_id, b_a, y) in &b {
                for (c_b, z) in &c {
                    if a_id == b_a && b_id == c_b && *z > 1 {
                        let x = Value::Str(x.clone());
                        want.push(vec![x.clone(), Value::Int(*z), Value::Int(*y), x]);
                    }
                }
            }
        }
        let mut got = r.rows;
        got.sort();
        want.sort();
        assert!(!want.is_empty());
        assert_eq!(got, want);
        eng.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_write_conflicts_serialize() {
        let dir = temp_dir("conflict");
        let eng = engine(&dir);
        let db = SqlDb::open(&eng).unwrap();
        let mut a = db.session();
        let mut b = db.session();
        a.execute("CREATE TABLE t (id INT, n INT)").unwrap();
        a.execute("INSERT INTO t VALUES (1, 0)").unwrap();
        a.execute("BEGIN").unwrap();
        a.execute("UPDATE t SET n = n + 1 WHERE id = 1").unwrap();
        // B cannot touch the same row while A holds its lock.
        assert!(b.execute("UPDATE t SET n = n + 5 WHERE id = 1").is_err());
        a.execute("COMMIT").unwrap();
        let r = b.execute("SELECT n FROM t WHERE id = 1").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(1)]]);
        db.audit().unwrap();
        eng.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
