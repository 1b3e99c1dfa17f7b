#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! The closed-form cost models of DeWitt et al., SIGMOD 1984.
//!
//! Three families of models, one per paper section:
//!
//! * [`access`] — §2: AVL vs B+-tree random and sequential access under the
//!   objective `cost = Z · |page reads| + |comparisons|` (Table 1).
//! * [`join`] — §3: analytic costs of the sort-merge, simple-hash,
//!   GRACE-hash and hybrid-hash join algorithms (Figure 1, Table 3).
//! * [`recovery`] — §5: transaction-throughput limits of commit policies.
//!
//! These are *models*, pure arithmetic: they never execute anything. The
//! `mmdb-exec` crate implements the same algorithms for real; the benchmark
//! harnesses overlay both to show the executable system reproduces the
//! analytic shapes.

pub mod access;
pub mod join;
pub mod recovery;

pub use access::{
    avl_random_cost, avl_sequential_cost, btree_random_cost, btree_sequential_cost,
    random_break_even_fraction, sequential_break_even_fraction, table1, Table1Row,
};
pub use join::{
    figure1, grace_hash_cost, hybrid_hash_cost, min_memory_pages, simple_hash_cost,
    sort_merge_cost, Figure1Point, JoinScenario,
};
pub use recovery::ThroughputModel;
