//! The repo benchmark. `e2e` measures what a client of the SQL server
//! sees; `layers` (a binary of its own, under `src/layers/`) times each
//! crate's public calls and replays every workload with spans. See
//! `README.md` for the metric tables and the rules.

pub mod cli;
pub mod compare;
pub mod e2e;
pub mod env;
pub mod gen;
pub mod json;
pub mod report;
pub mod span;
pub mod stats;
