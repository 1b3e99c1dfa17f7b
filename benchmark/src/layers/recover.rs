//! Restart and checkpoint (`mmdb-session`): `recover_ms` split into its
//! parts, and the §5.3 bounded restart beside the full replay — both on
//! a copy of the log the end-to-end run crashed with.

use crate::probe::Reading;
use mmdb_benchmark::e2e::engine_options;
use mmdb_session::Engine;
use mmdb_sql::SqlDb;
use std::path::Path;
use std::time::Instant;

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// `crashed_log` is consumed: recovery compacts it in place.
pub fn probe(crashed_log: &Path, user_bytes: u64) -> Result<Vec<Reading>, String> {
    let started = Instant::now();
    let (engine, info) = Engine::recover(engine_options(crashed_log)).map_err(|e| e.to_string())?;
    let recover_ms = ms(started);
    // The engine times its own log scan; the rest of `Engine::recover`
    // is writing the compacted image, one synced page at a time.
    let replay_ms = engine
        .stats()
        .gauge("mmdb_session_recovery_replay_us")
        .ok_or("the engine did not report its replay time")? as f64
        / 1e3;
    let opening = Instant::now();
    let db = SqlDb::open(&engine).map_err(|e| e.to_string())?;
    let sql_open_ms = ms(opening);
    drop(db);

    let sweeping = Instant::now();
    let checkpoint = engine.checkpoint_now().map_err(|e| e.to_string())?;
    let sweep_ms = ms(sweeping);
    engine.crash().map_err(|e| e.to_string())?;

    let restarting = Instant::now();
    let (engine, _) = Engine::recover(engine_options(crashed_log)).map_err(|e| e.to_string())?;
    let db = SqlDb::open(&engine).map_err(|e| e.to_string())?;
    let checkpoint_recover_ms = ms(restarting);
    drop(db);
    engine.shutdown().map_err(|e| e.to_string())?;

    Ok(vec![
        (
            "recover.replay_mb_s",
            info.log_bytes_replayed as f64 / 1e6 / (replay_ms / 1e3).max(1e-9),
            "MB/s",
        ),
        ("recover.replay_ms", replay_ms, "ms"),
        (
            "recover.snapshot_write_ms",
            (recover_ms - replay_ms).max(0.0),
            "ms",
        ),
        ("recover.sql_open_ms", sql_open_ms, "ms"),
        ("checkpoint.sweep_ms", sweep_ms, "ms"),
        (
            "checkpoint.bytes_per_user_byte",
            checkpoint.log_bytes_written as f64 / user_bytes.max(1) as f64,
            "ratio",
        ),
        ("checkpoint.recover_ms", checkpoint_recover_ms, "ms"),
    ])
}
