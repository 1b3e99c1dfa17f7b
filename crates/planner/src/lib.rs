#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Access planning and query optimization for main-memory databases (§4).
//!
//! Selinger-style planning minimizes `W·|CPU| + |I/O|`. The paper's §4
//! observation: once a large memory makes hash-based algorithms fastest —
//! and their performance does not depend on input tuple order — the plan
//! space collapses. No "interesting orders" bookkeeping survives;
//! optimization reduces to
//!
//! 1. pushing selections to the bottom of the tree,
//! 2. ordering joins so the most selective operations execute first, and
//! 3. picking the (single) best algorithm per operator via the §3 cost
//!    models.
//!
//! This crate implements exactly that, delegating per-algorithm costs to
//! `mmdb-analytic`.

pub mod cost;
pub mod enumerate;
pub mod logical;
pub mod optimizer;
pub mod physical;
pub mod stats;

pub use cost::{plan_cost, PlanCost};
pub use logical::{JoinEdge, QuerySpec, TableRef};
pub use optimizer::{optimize, PlannedQuery};
pub use physical::{AccessPath, JoinMethod, PhysicalPlan};
pub use stats::{ColumnStats, Selectivity, TableStats, TUPLES_PER_PAGE};
