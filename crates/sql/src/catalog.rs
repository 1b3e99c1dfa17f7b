//! The volatile catalog: table schemas, plus a decoded cache of rows.
//!
//! The rows themselves live in the session engine's store, one byte
//! record per row (see [`crate::codec`] for the key layout); this
//! module holds what statements bind and scan against — each table's
//! schema and a cache of its rows, decoded. The cache is filled from a
//! store snapshot when the database opens and afterwards only by
//! [`crate::session`]'s refill, which copies the engine's current
//! record for a key into it; nothing else puts a row here.
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
//! stall the very transaction it is waiting on.

use mmdb_types::error::{Error, Result};
use mmdb_types::ids::TxnId;
use mmdb_types::schema::Schema;
use mmdb_types::tuple::Tuple;
use std::collections::BTreeMap;
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

/// The catalog proper: tables by (case-insensitive) name.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: BTreeMap<String, TableEntry>,
    next_table_id: u32,
}

impl Catalog {
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

    /// Mutable lookup ignoring visibility. Only for the refill path,
    /// which copies engine state and so needs no permission to see it.
    pub fn table_mut_any(&mut self, name: &str) -> Result<&mut TableEntry> {
        self.tables
            .get_mut(&name.to_ascii_lowercase())
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

    /// Removes a table (rollback of a `CREATE TABLE`).
    pub fn remove(&mut self, name: &str) {
        self.tables.remove(&name.to_ascii_lowercase());
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
        assert!(c.table_mut_any("t").is_ok());
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
}
