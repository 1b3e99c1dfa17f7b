//! Crash-torture integration tests (§5): a fixed seed sweep of the
//! torture runner, the pinned draws of every entry point, plus directed
//! tests of the fail-stop contract — a dead log device must error every
//! waiter promptly, never hang one.
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
/// write, and a short retry backoff so degradation is quick.
fn dead_device_options(name: &str, policy: CommitPolicy) -> EngineOptions {
    EngineOptions::new(policy, tmp_dir(name))
        .with_page_write_latency(Duration::ZERO)
        .with_flush_interval(Duration::from_micros(200))
        .with_fault_plans(vec![FaultPlan::none().fail_write(0, Fault::PERMANENT)])
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
        reports.iter().map(|r| r.scenario.name()).collect();
    assert!(
        scenarios.len() >= 4,
        "24 seeds should hit at least 4 distinct scenarios, got {scenarios:?}"
    );
    std::fs::remove_dir_all(&base).ok();
}

/// What a draw decides, in one line: the scenario, the engine shape, the
/// fault plans, the client counts and where the seed's stream stands
/// after the draw (`next`, the value the mid-run act would draw first).
fn drawn(d: &torture::Draw) -> String {
    let plan = |p: Option<&FaultPlan>| -> String {
        let faults = p.map(|p| p.faults.as_slice()).unwrap_or_default();
        let faults: Vec<String> = faults
            .iter()
            .map(|f| format!("{:?}@{}x{}", f.kind, f.at, f.times))
            .collect();
        faults.join(",")
    };
    let o = &d.options;
    format!(
        "{} {} clients={} txns={} page={}us shards={} interval={:?} device=[{}] restart=[{}] next={}",
        d.scenario.name(),
        o.policy.name(),
        d.clients,
        d.txns_per_client,
        o.page_write_latency.as_micros(),
        o.shards,
        o.checkpoint_interval,
        plan(o.fault_plans.first()),
        plan(d.restart_plan.as_ref()),
        d.rng.clone().below(1 << 32)
    )
}

/// Seeds 0..16 of every entry point draw exactly what they drew before
/// the three drivers became one runner: a changed RNG stream or draw
/// order changes a seed's run, so a failing seed from an older build
/// would no longer reproduce.
#[test]
fn every_entry_points_draws_are_pinned() {
    let crash = [
        "fault-during-recovery group clients=2 txns=11 page=7us shards=4 interval=None device=[] restart=[FailWrite@0x1] next=1055226000",
        "bit-flip partitioned clients=4 txns=9 page=291us shards=2 interval=None device=[BitFlip { offset: 390 }@10x1] restart=[] next=1226250462",
        "bit-flip partitioned clients=4 txns=11 page=178us shards=4 interval=None device=[BitFlip { offset: 177 }@7x1] restart=[] next=1075083452",
        "clean-crash partitioned clients=3 txns=5 page=183us shards=1 interval=None device=[] restart=[] next=3817016609",
        "torn-write partitioned clients=4 txns=8 page=257us shards=2 interval=None device=[TornWrite { keep: 37 }@9x1] restart=[] next=780763914",
        "torn-write partitioned clients=4 txns=9 page=69us shards=1 interval=None device=[TornWrite { keep: 24 }@4x1] restart=[] next=1831594554",
        "transient-sync-fail group clients=2 txns=6 page=16us shards=1 interval=None device=[FailSync@13x2] restart=[] next=506280696",
        "torn-write sync clients=3 txns=7 page=270us shards=3 interval=None device=[TornWrite { keep: 15 }@10x1] restart=[] next=576635002",
        "bit-flip group clients=4 txns=7 page=206us shards=3 interval=None device=[BitFlip { offset: 191 }@1x1] restart=[] next=344092500",
        "transient-sync-fail partitioned clients=3 txns=13 page=79us shards=4 interval=None device=[FailSync@6x1] restart=[] next=940750658",
        "clean-crash partitioned clients=4 txns=11 page=39us shards=4 interval=None device=[] restart=[] next=3369952892",
        "permanent-write-fail sync clients=3 txns=5 page=191us shards=3 interval=None device=[FailWrite@3x4294967295] restart=[] next=3349997377",
        "bit-flip partitioned clients=2 txns=11 page=70us shards=4 interval=None device=[BitFlip { offset: 150 }@20x1] restart=[] next=1361641948",
        "stall-write sync clients=3 txns=6 page=189us shards=2 interval=None device=[Stall { delay: 8ms }@19x1] restart=[] next=3017319478",
        "torn-write sync clients=2 txns=11 page=4us shards=3 interval=None device=[TornWrite { keep: 21 }@21x1] restart=[] next=4165636899",
        "bit-flip partitioned clients=4 txns=11 page=168us shards=1 interval=None device=[BitFlip { offset: 466 }@4x1] restart=[] next=1490052457",
    ];
    let checkpoint = [
        "ckpt-before-truncate sync clients=4 txns=8 page=60us shards=3 interval=None device=[] restart=[] next=1657741985",
        "ckpt-before-truncate group clients=4 txns=15 page=76us shards=3 interval=None device=[] restart=[] next=1041170887",
        "ckpt-background group clients=2 txns=17 page=42us shards=4 interval=Some(3ms) device=[] restart=[] next=3704243764",
        "ckpt-before-truncate partitioned clients=3 txns=9 page=107us shards=2 interval=None device=[] restart=[] next=1113037502",
        "ckpt-background sync clients=2 txns=15 page=13us shards=4 interval=Some(2ms) device=[] restart=[] next=2704099808",
        "ckpt-before-truncate sync clients=2 txns=16 page=203us shards=4 interval=None device=[] restart=[] next=1358798404",
        "ckpt-mid-image partitioned clients=3 txns=7 page=266us shards=3 interval=None device=[] restart=[] next=4193862865",
        "ckpt-mid-image partitioned clients=2 txns=6 page=174us shards=3 interval=None device=[] restart=[] next=710374098",
        "ckpt-background group clients=3 txns=11 page=110us shards=2 interval=Some(9ms) device=[] restart=[] next=754925051",
        "ckpt-background group clients=2 txns=10 page=46us shards=3 interval=Some(4ms) device=[] restart=[] next=2996380147",
        "ckpt-mid-image group clients=3 txns=14 page=213us shards=4 interval=None device=[] restart=[] next=857721642",
        "ckpt-mid-image group clients=4 txns=16 page=57us shards=4 interval=None device=[] restart=[] next=392245613",
        "ckpt-mid-image sync clients=3 txns=11 page=172us shards=3 interval=None device=[] restart=[] next=3894510051",
        "ckpt-before-truncate group clients=3 txns=16 page=4us shards=1 interval=None device=[] restart=[] next=2834545795",
        "ckpt-before-truncate sync clients=3 txns=9 page=130us shards=4 interval=None device=[] restart=[] next=2079714255",
        "ckpt-mid-image group clients=3 txns=7 page=14us shards=4 interval=None device=[] restart=[] next=1561817930",
    ];
    let sustained = [
        "ckpt-background sync clients=3 txns=18446744073709551615 page=42us shards=1 interval=Some(93ms) device=[] restart=[] next=4163072048",
        "ckpt-background group clients=3 txns=18446744073709551615 page=137us shards=2 interval=Some(90ms) device=[] restart=[] next=3539047490",
        "ckpt-background sync clients=4 txns=18446744073709551615 page=148us shards=1 interval=Some(42ms) device=[] restart=[] next=135895352",
    ];
    let wire = [
        "server-dup-wire group clients=3 txns=6 page=227us shards=3 interval=None device=[] restart=[] next=1117621334",
        "server-overload sync clients=2 txns=6 page=83us shards=3 interval=None device=[] restart=[] next=685363364",
        "server-stall-wire partitioned clients=3 txns=6 page=8us shards=1 interval=None device=[] restart=[] next=511516689",
        "server-delay-wire sync clients=3 txns=7 page=4us shards=4 interval=None device=[] restart=[] next=3927973711",
        "server-clean-wire partitioned clients=2 txns=3 page=253us shards=1 interval=None device=[] restart=[] next=2731578673",
        "server-mid-run-crash group clients=2 txns=6 page=222us shards=1 interval=None device=[] restart=[] next=1400230148",
        "server-stall-wire partitioned clients=3 txns=4 page=278us shards=3 interval=None device=[] restart=[] next=582826901",
        "server-stall-wire sync clients=2 txns=6 page=256us shards=4 interval=None device=[] restart=[] next=687410082",
        "server-clean-wire partitioned clients=3 txns=5 page=172us shards=3 interval=None device=[] restart=[] next=2486426007",
        "server-delay-wire partitioned clients=2 txns=7 page=250us shards=3 interval=None device=[] restart=[] next=2132532877",
        "server-drop-wire group clients=2 txns=5 page=63us shards=4 interval=None device=[] restart=[] next=1325412448",
        "server-clean-wire sync clients=3 txns=7 page=3us shards=4 interval=None device=[] restart=[] next=1952258826",
        "server-stall-wire sync clients=3 txns=3 page=233us shards=3 interval=None device=[] restart=[] next=3624761595",
        "server-drop-wire sync clients=2 txns=6 page=15us shards=4 interval=None device=[] restart=[] next=3274018499",
        "server-drop-wire group clients=2 txns=5 page=262us shards=3 interval=None device=[] restart=[] next=3946857207",
        "server-dup-wire group clients=3 txns=6 page=104us shards=1 interval=None device=[] restart=[] next=2065242849",
    ];
    // Seeds 0..16 draw the restart entry point once; these draw it too.
    let restart = [
        (23, "fault-during-recovery group clients=2 txns=9 page=5us shards=4 interval=None device=[] restart=[TornWrite { keep: 56 }@0x1] next=1334224207"),
        (32, "fault-during-recovery group clients=3 txns=8 page=85us shards=3 interval=None device=[] restart=[FailSync@0x1] next=2717244400"),
        (36, "fault-during-recovery group clients=3 txns=12 page=88us shards=2 interval=None device=[] restart=[TornWrite { keep: 53 }@0x1] next=1870672247"),
        (38, "fault-during-recovery sync clients=2 txns=11 page=23us shards=1 interval=None device=[] restart=[FailSync@0x1] next=1964898231"),
    ];
    let dir = std::path::Path::new("pinned");
    for (seed, expected) in restart {
        assert_eq!(drawn(&torture::draw_crash(seed, dir)), expected);
    }
    for seed in 0..16u64 {
        let i = seed as usize;
        assert_eq!(drawn(&torture::draw_crash(seed, dir)), crash[i]);
        assert_eq!(
            drawn(&torture::draw_checkpoint(seed, dir, None)),
            checkpoint[i]
        );
        assert_eq!(drawn(&mmdb_server::torture::draw_wire(seed, dir)), wire[i]);
    }
    for (seed, expected) in (0..3u64).zip(sustained) {
        let sustain = Some(Duration::from_secs(60));
        assert_eq!(
            drawn(&torture::draw_checkpoint(seed, dir, sustain)),
            expected
        );
    }
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
