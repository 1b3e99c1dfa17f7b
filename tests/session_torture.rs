//! Crash-torture integration tests (§5): a fixed seed sweep of the
//! fault-injection harness, plus directed tests of the fail-stop
//! contract — a dead log device must error every waiter promptly,
//! never hang one.
//!
//! The broad CI gate (`cargo torture --seeds 500`) drives the
//! same harness through the standalone runner with a watchdog; this
//! file keeps a representative sweep in plain `cargo test`.

use mmdb_recovery::{Fault, FaultPlan};
use mmdb_session::torture;
use mmdb_session::{CommitPolicy, Engine, EngineOptions};
use mmdb_types::Error;
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mmdb-torture-it-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Options with a log device that fails permanently from the first
/// write, and a fast retry budget so degradation is quick.
fn dead_device_options(name: &str, policy: CommitPolicy) -> EngineOptions {
    EngineOptions::new(policy, tmp_dir(name))
        .with_page_write_latency(Duration::ZERO)
        .with_flush_interval(Duration::from_micros(200))
        .with_fault_plans(vec![FaultPlan::none().fail_write(0, Fault::PERMANENT)])
        .with_io_retries(2)
        .with_io_retry_backoff(Duration::from_micros(100))
}

/// Runs `f` on a thread and panics if it has not finished within
/// `limit` — the no-hang assertion the §5.2 fail-stop design owes us.
fn within<T: Send + 'static>(
    limit: Duration,
    what: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    let out = rx
        .recv_timeout(limit)
        .unwrap_or_else(|_| panic!("{what} hung past {limit:?} on a failed log device"));
    let _ = handle.join();
    out
}

/// A fixed sweep of torture seeds: every scenario kind appears (the
/// harness covers all eight within 200 seeds; this range hits a mix),
/// every run recovers to the serial-oracle state, and recovery never
/// errors on corrupt or torn pages.
#[test]
fn seed_sweep_recovers_to_oracle_state() {
    let base = tmp_dir("sweep");
    let reports =
        torture::sweep(0, 24, &base, torture::run_seed).expect("torture sweep found a violation");
    assert_eq!(reports.len(), 24);
    // The sweep must actually exercise injected faults, not only clean
    // crashes.
    let scenarios: std::collections::BTreeSet<&str> =
        reports.iter().map(|r| r.scenario.as_str()).collect();
    assert!(
        scenarios.len() >= 4,
        "24 seeds should hit at least 4 distinct scenarios, got {scenarios:?}"
    );
    std::fs::remove_dir_all(&base).ok();
}

/// A committer waiting on a permanently failed device gets
/// [`Error::LogDeviceFailed`] promptly — the writer retries its bounded
/// budget, degrades, and errors every in-flight waiter (§5.2
/// fail-stop), rather than leaving them parked on the durability CV.
#[test]
fn waiting_committer_errors_promptly_when_device_dies() {
    let opts = dead_device_options("wait-durable", CommitPolicy::Group);
    let dir = opts.log_dir.clone();
    let engine = Engine::start(opts).unwrap();
    let session = engine.session();
    let err = within(Duration::from_secs(10), "wait_durable", move || {
        let txn = session.begin()?;
        session.write(&txn, 1, 10)?;
        let ticket = session.commit(txn)?;
        session.wait_durable(&ticket)
    })
    .expect_err("durability wait on a dead device must error");
    assert!(
        matches!(err, Error::LogDeviceFailed(_) | Error::Shutdown),
        "expected a device failure, got {err}"
    );
    // Future commits fail fast with the distinct degraded error.
    let session = engine.session();
    let late = within(Duration::from_secs(10), "post-degrade commit", move || {
        let txn = session.begin()?;
        session.write(&txn, 2, 20)?;
        session.commit(txn).map(|_| ())
    });
    assert!(
        matches!(late, Err(Error::LogDeviceFailed(_))),
        "post-degrade commit must fail fast with the device error, got {late:?}"
    );
    // The retries and the degradation are visible in the metrics.
    let stats = engine.stats();
    let counter = |name: &str| {
        stats
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    assert!(
        counter("mmdb_session_io_errors_total") >= 3,
        "every attempt counts an error"
    );
    assert!(
        counter("mmdb_session_io_retries_total") >= 2,
        "both retries count"
    );
    let degraded = stats
        .gauges
        .iter()
        .find(|(n, _)| n == "mmdb_session_degraded_count")
        .map(|(_, v)| *v)
        .unwrap_or(0);
    assert_eq!(degraded, 1, "exactly one device degraded the engine");
    engine.crash().ok();
    std::fs::remove_dir_all(&dir).ok();
}

/// A crash while a writer waits out its retry backoff is a crash, not a
/// dead log device: the writer stands down without degrading the engine,
/// so `crash` reports nothing and the degraded gauge stays at 0.
#[test]
fn a_crash_during_a_retry_backoff_is_not_a_device_failure() {
    let opts = EngineOptions::new(CommitPolicy::Group, tmp_dir("crash-in-backoff"))
        .with_fault_plans(vec![FaultPlan::none().fail_write(0, 1)])
        .with_io_retry_backoff(Duration::from_millis(500));
    let dir = opts.log_dir.clone();
    let engine = Engine::start(opts).unwrap();
    let registry = engine.registry();
    let session = engine.session();
    let txn = session.begin().unwrap();
    session.write(&txn, 1, 10).unwrap();
    session.commit(txn).unwrap();
    let started = Instant::now();
    while registry.snapshot().counter("mmdb_session_io_errors_total") != Some(1) {
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "no write failed"
        );
        std::thread::sleep(Duration::from_micros(200));
    }
    let crashed = engine.crash();
    assert!(crashed.is_ok(), "crash reported {crashed:?}");
    assert_eq!(
        registry.snapshot().gauge("mmdb_session_degraded_count"),
        Some(0)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// [`Engine::flush`] on a degraded engine returns the device error
/// instead of blocking until every outstanding commit drains (§5.2
/// fail-stop: the drain will never happen).
#[test]
fn flush_returns_device_error_instead_of_blocking() {
    let opts = dead_device_options("flush", CommitPolicy::Synchronous);
    let dir = opts.log_dir.clone();
    let engine = Engine::start(opts).unwrap();
    let session = engine.session();
    // Synchronous commit rides the append through retries to the
    // degraded state on its own.
    let _ = within(Duration::from_secs(10), "sync commit", move || {
        let txn = session.begin()?;
        session.write(&txn, 1, 10)?;
        session.commit(txn).map(|_| ())
    });
    let (flushed, engine) = within(Duration::from_secs(10), "flush", move || {
        let result = engine.flush();
        (result, engine)
    });
    assert!(
        matches!(flushed, Err(Error::LogDeviceFailed(_))),
        "flush on a degraded engine must return the device error, got {flushed:?}"
    );
    engine.crash().ok();
    std::fs::remove_dir_all(&dir).ok();
}
