//! Shared helpers for the mmdb-suite integration tests and examples.
//!
//! The substantive code lives in the workspace crates; this library only
//! exists so the root package can host `tests/` and `examples/`, and holds
//! what more than one of them needs to stand up a SQL database in process.

use mmdb_session::{CommitPolicy, Engine, EngineOptions};
use mmdb_sql::{SqlError, SqlSession};
use mmdb_types::Tuple;
use std::path::PathBuf;

/// A group-commit engine logging under a fresh directory of the system
/// temp dir, named for `name` and this process; the caller removes it.
pub fn scratch_engine(name: &str) -> (Engine, PathBuf) {
    let dir = std::env::temp_dir().join(format!("mmdb-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let options = EngineOptions::new(CommitPolicy::Group, &dir);
    let engine = Engine::start(options).expect("engine starts on a fresh directory");
    (engine, dir)
}

/// Inserts `rows` into `table`, a hundred to a statement, each value
/// written as the SQL literal its `Display` gives.
pub fn insert_rows(sql: &mut SqlSession, table: &str, rows: &[Tuple]) -> Result<(), SqlError> {
    for chunk in rows.chunks(100) {
        let values: Vec<String> = chunk
            .iter()
            .map(|t| {
                let values: Vec<String> = t.values().iter().map(ToString::to_string).collect();
                format!("({})", values.join(", "))
            })
            .collect();
        sql.execute(&format!("INSERT INTO {table} VALUES {}", values.join(", ")))?;
    }
    Ok(())
}
