#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! What is left of the §3 relation substrate: [`MemRelation`] and the
//! Table 2 cost meter live in `mmdb-exec`, with the operators that charge
//! it. This crate only re-exports what the benchmark crate imports from
//! here, so switching that import to `mmdb_exec` lets the crate go.

pub use mmdb_exec::MemRelation;
