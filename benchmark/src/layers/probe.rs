//! Timing helpers shared by the per-layer probes, and the scratch
//! databases they run against.

use mmdb_benchmark::e2e::engine_options;
use mmdb_benchmark::gen::Plan;
use mmdb_benchmark::stats::{median, percentile};
use mmdb_session::Engine;
use mmdb_sql::SqlDb;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One probe reading: name, value, unit.
pub type Reading = (&'static str, f64, &'static str);

/// Batches a nanosecond-scale call so the clock is read rarely: the
/// result is the median, over eleven batches, of the mean time per call.
pub fn per_call_ns(calls_per_batch: usize, mut f: impl FnMut()) -> f64 {
    // One batch unmeasured: caches fill, lazy set-up finishes.
    for _ in 0..calls_per_batch {
        f();
    }
    let batches: Vec<f64> = (0..11)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls_per_batch {
                f();
            }
            t.elapsed().as_nanos() as f64 / calls_per_batch as f64
        })
        .collect();
    median(&batches)
}

/// Times each call on its own; returns `(p50, p99)` in nanoseconds.
pub fn per_call_percentiles_ns(calls: usize, mut f: impl FnMut()) -> (f64, f64) {
    let mut ns = Vec::with_capacity(calls);
    for _ in 0..calls {
        let t = Instant::now();
        f();
        ns.push(t.elapsed().as_nanos() as u64);
    }
    let p50 = percentile(&mut ns, 0.50).unwrap_or(0) as f64;
    let p99 = percentile(&mut ns, 0.99).unwrap_or(0) as f64;
    (p50, p99)
}

/// Median wall time of `runs` calls of a millisecond-scale operation, in
/// nanoseconds. The result of each call goes through `black_box`.
pub fn median_run_ns<T>(runs: usize, mut f: impl FnMut() -> T) -> f64 {
    black_box(f());
    let times: Vec<f64> = (0..runs)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&times)
}

/// An engine with the SQL layer opened over it and a plan's dataset
/// loaded — in process, no server, no socket.
pub struct LoadedDb {
    pub engine: Engine,
    pub db: SqlDb,
    dir: PathBuf,
}

impl LoadedDb {
    pub fn open(plan: &Plan, dir: &Path) -> Result<LoadedDb, String> {
        let engine = Engine::start(engine_options(dir)).map_err(|e| e.to_string())?;
        let db = SqlDb::open(&engine).map_err(|e| e.to_string())?;
        let mut session = db.session();
        for sql in plan.schema.iter().chain(plan.load.iter().map(|l| &l.sql)) {
            session.execute(sql).map_err(|e| format!("loading: {e}"))?;
        }
        Ok(LoadedDb {
            engine,
            db,
            dir: dir.to_path_buf(),
        })
    }

    /// Shuts the engine down and removes its log directory.
    pub fn close(self) -> Result<(), String> {
        let LoadedDb { engine, db, dir } = self;
        drop(db);
        engine.shutdown().map_err(|e| e.to_string())?;
        std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())
    }
}
