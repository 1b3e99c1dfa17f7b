#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! `mmdb` — a main-memory relational database engine reproducing
//! *Implementation Techniques for Main Memory Database Systems*
//! (DeWitt, Katz, Olken, Shapiro, Stonebraker, Wood — SIGMOD 1984).
//!
//! The engine assembles the workspace's substrates into the system the
//! paper describes:
//!
//! * **Tables and indexes** ([`table`]) — memory-resident relations with
//!   AVL-tree, B+-tree, or hash indexes (§2's access methods), all
//!   incrementally maintained.
//! * **Query processing** ([`db`]) — selections, projections, aggregates
//!   and the four §3 join algorithms, executed through the cost-metered
//!   substrate so every query reports its simulated §3 cost.
//! * **Access planning** ([`db::Database::plan`]) — §4's collapsed
//!   optimizer: selectivity-ordered join trees with per-join algorithm
//!   choice under `W·CPU + IO`.
//! * **Versioning** ([`mvcc`]) — §6's suggested alternative to locking
//!   for memory-resident systems: snapshot readers that never block,
//!   never abort, and never see a torn state.
//!
//! §5 (transactions, logging, recovery) is not here: `mmdb-recovery`
//! holds it in virtual time, `mmdb-session` on real threads.
//!
//! # Quickstart
//!
//! ```
//! use mmdb::{Database, IndexKind};
//! use mmdb_types::{DataType, Predicate, Schema, Tuple, Value};
//!
//! let mut db = Database::new();
//! db.create_table(
//!     "emp",
//!     Schema::of(&[("id", DataType::Int), ("name", DataType::Str)]),
//! )
//! .unwrap();
//! db.insert("emp", Tuple::new(vec![Value::Int(1), "Jones".into()]))
//!     .unwrap();
//! db.create_index("emp", 0, IndexKind::BPlusTree).unwrap();
//!
//! let rows = db.lookup_eq("emp", 0, &Value::Int(1)).unwrap();
//! assert_eq!(rows[0].get(1), &Value::Str("Jones".into()));
//! ```

/// §6 the integrated engine: catalog, planner, and executor glue.
pub mod db;
/// §4.3 multi-version concurrency control for read-only queries.
pub mod mvcc;
/// §2 memory-resident tables with a choice of index structure.
pub mod table;

pub use db::{Database, EngineConfig, QueryOutcome};
pub use mvcc::VersionedStore;
pub use table::{IndexKind, Table};
