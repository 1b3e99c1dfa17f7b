#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! A minimal SQL front end over the §5.2 session engine.
//!
//! The crate turns the key/value store of `mmdb-session` into a small
//! relational server substrate:
//!
//! * [`lexer`] + [`parser`] — a hand-rolled tokenizer and
//!   recursive-descent parser (no dependencies) for `CREATE TABLE`,
//!   `INSERT`, `SELECT` (with `WHERE` conjunctions and equi-joins),
//!   `UPDATE`, `DELETE`, and `BEGIN`/`COMMIT`/`ABORT`.
//! * [`codec`] — encodes a table schema or a row into one byte record
//!   under one engine key, so the catalog and all rows ride the same
//!   WAL, group commit, and crash/recover machinery as raw key/value
//!   transactions.
//! * [`catalog`] — the volatile catalog: schemas, a decoded cache of
//!   the engine's row records filled from a store snapshot after
//!   recovery, and a §2 B+-tree (`mmdb-index`) over each column a
//!   statement has used by equality or by a selective range; one rule
//!   decides, per table and before a row is copied, between index probe,
//!   range walk and filtered scan.
//! * [`query`] — the binder/planner bridge: resolves names, splits
//!   `WHERE` conjunctions into per-table predicates — applied as the
//!   tables are reached — and join edges, feeds the survivors to the §4
//!   selectivity planner, and executes the chosen physical plan with
//!   the §3 `mmdb-exec` operators.
//! * [`session`] — [`SqlDb`]/[`SqlSession`]: per-connection statement
//!   execution with explicit transactions, engine row locks for
//!   write/write conflicts, and the one refill rule of the row cache
//!   and its indexes, under which `ABORT` (or a deadlock victim) is
//!   "abort the engine transaction, then refill the rows it touched".
//!
//! Error surface: parse errors are [`ParseError`] (with a byte
//! offset); everything downstream is [`SqlError`].

pub mod ast;
pub mod catalog;
pub mod codec;
pub mod lexer;
pub mod parser;
pub mod query;
pub mod session;

pub use ast::{Statement, StatementKind};
pub use parser::{parse, ParseError};
pub use query::QueryResult;
pub use session::{ErrorClass, SqlDb, SqlError, SqlSession};
