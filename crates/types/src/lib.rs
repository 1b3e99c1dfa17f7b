#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Core types shared by every crate in the `mmdb` workspace.
//!
//! This crate defines the relational data model (values, tuples, schemas),
//! identifier newtypes, the error type, the parameter blocks used by the
//! cost models of DeWitt et al. (SIGMOD 1984), and deterministic workload
//! generation helpers.
//!
//! The paper models a relation `R` by five characteristics (its §2 notation
//! is preserved throughout the workspace):
//!
//! * `||R||` — number of tuples (here [`AccessGeometry::tuples`]),
//! * `K`     — key width in bytes,
//! * `T`     — tuple width in bytes,
//! * `Pg`    — page size in bytes,
//! * `P`     — pointer width in bytes.

pub mod audit;
pub mod cast;
pub mod error;
pub mod expr;
pub mod ids;
pub mod params;
pub mod reader;
pub mod rng;
pub mod schema;
pub mod tuple;
pub mod value;

pub use audit::{AuditViolation, Auditable};
pub use error::{Error, Result};
pub use expr::{CmpOp, Predicate};
pub use ids::TxnId;
pub use params::{
    AccessGeometry, CommitPolicy, CostWeights, JoinAlgorithm, RelationShape, SystemParams,
};
pub use reader::Reader;
pub use rng::{WorkloadRng, Zipf};
pub use schema::{Column, DataType, Schema};
pub use tuple::Tuple;
pub use value::Value;
