//! End-to-end tests of the wall-clock session layer (§5.2): group-commit
//! crash semantics, a pre-committed transaction's dependents never
//! durable or recovered before it on a partitioned log, who releases a
//! partial page (a waiter, a free device and an open group window; the
//! flush interval as a deadline only for commits nobody waits on), and a
//! property test checking concurrent sessions against a single-threaded
//! serial oracle.

use mmdb_recovery::wal::{read_log_dir, WalDevice};
use mmdb_recovery::{FaultPlan, LogRecord, Lsn};
use mmdb_session::{CommitPolicy, Engine, EngineOptions, HistogramSnapshot, GROUP_WINDOW};
use mmdb_types::{Auditable, Error, TxnId};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mmdb-session-e2e-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Crash while the group-commit daemon is parked with a non-empty batch:
/// recovery restores exactly the durably-committed prefix, and the
/// commits the daemon never flushed are gone — they were never reported
/// durable, so no promise is broken.
#[test]
fn crash_with_parked_daemon_recovers_durable_prefix_only() {
    let dir = tmp_dir("parked");
    // A huge flush interval parks the daemon unless a flush forces a
    // page out; commits queue behind it exactly as §5.2 describes.
    let opts = EngineOptions::new(CommitPolicy::Group, &dir)
        .with_page_write_latency(Duration::from_micros(200))
        .with_flush_interval(Duration::from_secs(30));
    let engine = Engine::start(opts.clone()).unwrap();
    let s = engine.session();

    let t1 = s.begin().unwrap();
    s.write(&t1, 1, 10).unwrap();
    let ticket1 = s.commit(t1).unwrap();
    let t2 = s.begin().unwrap();
    s.write(&t2, 2, 20).unwrap();
    let ticket2 = s.commit(t2).unwrap();
    engine.flush().unwrap();
    assert!(engine.is_durable(&ticket1).unwrap());
    assert!(engine.is_durable(&ticket2).unwrap());

    // These commit records sit in the parked daemon's queue: the
    // sessions are pre-committed (locks gone) but not durable.
    let t3 = s.begin().unwrap();
    s.write(&t3, 1, 111).unwrap();
    s.write(&t3, 3, 30).unwrap();
    let ticket3 = s.commit(t3).unwrap();
    let t4 = s.begin().unwrap();
    s.write(&t4, 4, 40).unwrap();
    assert!(!engine.is_durable(&ticket3).unwrap());
    assert_eq!(
        engine.read(1).unwrap(),
        Some(111),
        "volatile image moved on"
    );

    engine.crash().unwrap();
    let (engine, info) = Engine::recover(opts).unwrap();
    assert_eq!(
        info.committed,
        vec![ticket1.txn, ticket2.txn],
        "exactly the durable prefix survives"
    );
    // t3 and t4 died in the parked daemon's queue: their records never
    // reached any device, so recovery does not even see them.
    assert!(!info.committed.contains(&ticket3.txn));
    assert!(!info.committed.contains(&t4.id()));
    assert_eq!(engine.read(1).unwrap(), Some(10), "t3's update rolled away");
    assert_eq!(engine.read(2).unwrap(), Some(20));
    assert_eq!(engine.read(3).unwrap(), None);
    assert_eq!(engine.read(4).unwrap(), None);
    engine.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// A counter of the engine's registry.
fn counter(engine: &Engine, name: &str) -> u64 {
    engine.stats().counter(name).unwrap_or(0)
}

/// Commits whose page a writer has cut so far: the group-wait histogram
/// records each commit at the cut.
fn dispatched(engine: &Engine) -> u64 {
    engine
        .stats()
        .histogram("mmdb_session_group_wait_us")
        .map_or(0, |h| h.count)
}

/// A pre-committed transaction A, writing keys 7 and 8, and a dependent
/// B that takes A's released lock on key 7 (pre-commit!). B is appended
/// only once A's commit record has been cut, so B's page is its own.
fn a_and_dependent_b(engine: &Engine) -> (mmdb_session::CommitTicket, mmdb_session::CommitTicket) {
    let s = engine.session();
    let a = s.begin().unwrap();
    s.write(&a, 7, 1).unwrap();
    s.write(&a, 8, 1).unwrap();
    let ticket_a = s.commit(a).unwrap();
    eventually(Duration::from_secs(5), "A's page cut", || {
        dispatched(engine) == 1
    });
    let b = s.begin().unwrap();
    s.write(&b, 7, 2).unwrap();
    let ticket_b = s.commit(b).unwrap();
    (ticket_a, ticket_b)
}

/// §5.2's dependency rule under a crash. A's two puts fill a page and its
/// commit record starts the next, so A's log is two pages, one on each
/// device (each is busy for a 50 ms page write when the other is cut).
/// Device 0's first write fails, so one of A's pages is inside the retry
/// backoff whichever device took which. B's page goes to device 1, the
/// only free one, and reaches the disk ahead of A's — yet B is never
/// durable before A, and a crash loses both.
#[test]
fn dependent_commit_is_never_written_before_its_dependency() {
    let dir = tmp_dir("dep-order");
    let mut opts = EngineOptions::new(CommitPolicy::Partitioned { devices: 2 }, &dir)
        .with_fault_plans(vec![FaultPlan::none().fail_write(0, 1)])
        .with_io_retry_backoff(Duration::from_secs(30))
        .with_page_write_latency(Duration::from_millis(50));
    opts.page_bytes = 58; // two 8-byte puts
    let engine = Engine::start(opts.clone()).unwrap();
    let (ticket_a, ticket_b) = a_and_dependent_b(&engine);
    eventually(
        Duration::from_secs(5),
        "A's other page and B's written",
        || engine.pages_written().unwrap() == 2,
    );
    assert_eq!(counter(&engine, "mmdb_session_io_errors_total"), 1);

    assert!(
        !engine.is_durable(&ticket_a).unwrap(),
        "A's page is still inside its retry backoff"
    );
    assert!(
        !engine.is_durable(&ticket_b).unwrap(),
        "B durable before A would break the dependency order"
    );

    // Crash inside the backoff: A's page is lost, B's is on disk.
    engine.crash().unwrap();
    assert!(
        read_log_dir(&dir)
            .unwrap()
            .iter()
            .any(|(_, r)| matches!(r, LogRecord::Commit { txn } if *txn == ticket_b.txn)),
        "B's commit record reached a device ahead of A's"
    );
    let (engine, info) = Engine::recover(opts.with_fault_plans(Vec::new())).unwrap();
    assert!(
        !info.committed.contains(&ticket_b.txn),
        "dependent B must not be recovered when dependency A is lost"
    );
    assert!(!info.committed.contains(&ticket_a.txn));
    assert_eq!(engine.read(7).unwrap(), None);
    assert_eq!(engine.read(8).unwrap(), None);
    engine.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// LSN order is the only write order: while one device sits in a retry
/// backoff, the other writes the next page at once instead of holding it
/// back. Device 0 fails its first write; each device is still busy with
/// one page when the other is cut, so device 0 takes one of A and B and
/// device 1 the other. Whichever of them is late, B is never durable —
/// nor recovered — without A.
#[test]
fn a_free_device_writes_a_dependents_page_while_its_dependencys_page_retries() {
    let dir = tmp_dir("free-device");
    let opts = EngineOptions::new(CommitPolicy::Partitioned { devices: 2 }, &dir)
        .with_fault_plans(vec![FaultPlan::none().fail_write(0, 1)])
        .with_io_retry_backoff(Duration::from_secs(2))
        .with_page_write_latency(Duration::from_millis(100));
    let engine = Engine::start(opts.clone()).unwrap();
    let (ticket_a, ticket_b) = a_and_dependent_b(&engine);
    // Durability is monotonic: B read durable first means A is checked
    // no earlier than B became durable.
    let b_never_without_a = || {
        let b = engine.is_durable(&ticket_b).unwrap();
        assert!(
            !b || engine.is_durable(&ticket_a).unwrap(),
            "B durable while A is not"
        );
    };
    eventually(Duration::from_millis(300), "a page written", || {
        b_never_without_a();
        engine.pages_written().unwrap() >= 1
    });
    eventually(Duration::from_secs(1), "device 0 failed once", || {
        b_never_without_a();
        counter(&engine, "mmdb_session_io_errors_total") == 1
    });
    b_never_without_a();
    assert_eq!(engine.pages_written().unwrap(), 1, "one page is retrying");
    let a_durable = engine.is_durable(&ticket_a).unwrap();
    assert!(!engine.is_durable(&ticket_b).unwrap());

    // Crash inside the backoff. When A is the page retrying, B's page is
    // on disk already — and still not recovered: the LSN prefix stops at
    // A's missing records.
    engine.crash().unwrap();
    let on_disk = read_log_dir(&dir).unwrap();
    let b_on_disk = on_disk
        .iter()
        .any(|(_, r)| matches!(r, LogRecord::Commit { txn } if *txn == ticket_b.txn));
    assert_eq!(
        b_on_disk, !a_durable,
        "the free device wrote the other page"
    );
    let (engine, info) = Engine::recover(opts.with_fault_plans(Vec::new())).unwrap();
    assert!(
        !info.committed.contains(&ticket_b.txn),
        "B recovered though its page or A's never finished"
    );
    assert_eq!(info.committed.contains(&ticket_a.txn), a_durable);
    assert_eq!(engine.read(7).unwrap(), a_durable.then_some(1));
    assert_eq!(engine.read(8).unwrap(), a_durable.then_some(1));
    engine.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// The same dependency chain without a crash: when the dependent is
/// reported durable, its dependency must already be durable. Device 0
/// fails its first write and retries after a backoff, so whichever of
/// the two pages it takes lands late.
#[test]
fn dependency_becomes_durable_no_later_than_dependent() {
    let dir = tmp_dir("dep-wait");
    let opts = EngineOptions::new(CommitPolicy::Partitioned { devices: 2 }, &dir)
        .with_fault_plans(vec![FaultPlan::none().fail_write(0, 1)])
        .with_io_retry_backoff(Duration::from_millis(60))
        .with_page_write_latency(Duration::from_millis(20))
        .with_flush_interval(Duration::from_millis(5));
    let engine = Engine::start(opts.clone()).unwrap();
    let (ticket_a, ticket_b) = a_and_dependent_b(&engine);
    engine.session().wait_durable(&ticket_b).unwrap();
    assert!(
        engine.is_durable(&ticket_a).unwrap(),
        "B durable implies A durable"
    );
    engine.shutdown().unwrap();
    // Both survive a restart.
    let (engine, info) = Engine::recover(opts.with_fault_plans(Vec::new())).unwrap();
    assert!(info.committed.contains(&ticket_a.txn));
    assert!(info.committed.contains(&ticket_b.txn));
    assert_eq!(engine.read(7).unwrap(), Some(2));
    engine.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Polls `done` until it holds, failing after `limit`.
fn eventually(limit: Duration, what: &str, mut done: impl FnMut() -> bool) {
    let started = Instant::now();
    while !done() {
        assert!(started.elapsed() < limit, "{what}: not within {limit:?}");
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// A fresh engine with the flush interval at 30 s: nothing but a waiter
/// can release a partial page in the lifetime of a test.
fn engine_with_a_30s_interval(name: &str) -> (Engine, PathBuf) {
    let dir = tmp_dir(name);
    let opts =
        EngineOptions::new(CommitPolicy::Group, &dir).with_flush_interval(Duration::from_secs(30));
    (Engine::start(opts).unwrap(), dir)
}

/// A commit somebody is blocked on, arriving at a quiet log, leaves as
/// soon as the device is free: with the flush interval at 30 s and nobody
/// else to join the group, every way of waiting returns at device speed.
#[test]
fn a_waited_commit_on_a_quiet_log_never_waits_out_the_flush_interval() {
    let prompt = Duration::from_secs(1);

    let (engine, dir) = engine_with_a_30s_interval("waiter-commit-durable");
    let s = engine.session();
    let started = Instant::now();
    let t = s.begin().unwrap();
    s.write(&t, 1, 100).unwrap();
    s.commit_durable(t).unwrap();
    assert!(
        started.elapsed() < prompt,
        "commit_durable waited for the timer"
    );
    engine.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();

    let (engine, dir) = engine_with_a_30s_interval("waiter-wait-durable");
    let s = engine.session();
    let started = Instant::now();
    let t = s.begin().unwrap();
    s.write(&t, 2, 0).unwrap();
    let ticket = s.commit(t).unwrap();
    s.wait_durable(&ticket).unwrap();
    assert!(
        started.elapsed() < prompt,
        "commit + wait_durable waited for the timer"
    );
    engine.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();

    let (engine, dir) = engine_with_a_30s_interval("waiter-transfer");
    let s = engine.session();
    let started = Instant::now();
    let ticket = s.transfer(1, 2, 5).unwrap();
    s.wait_durable(&ticket).unwrap();
    assert!(
        started.elapsed() < prompt,
        "transfer + wait_durable waited for the timer"
    );
    engine.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs 50 back-to-back `commit_durable`s from one client, checks that
/// each cost one page, and returns the engine's own
/// `mmdb_session_group_wait_us` — commit queued to page handed to a
/// writer, so a stall of the shared disk lengthens the write, never what
/// is measured here — and the time the 50 took.
fn lone_client_group_wait(
    name: &str,
    page_write: Duration,
    interval: Duration,
) -> (HistogramSnapshot, Duration) {
    const COMMITS: u64 = 50;
    let dir = tmp_dir(name);
    let opts = EngineOptions::new(CommitPolicy::Group, &dir)
        .with_page_write_latency(page_write)
        .with_flush_interval(interval);
    let engine = Engine::start(opts).unwrap();
    let s = engine.session();
    let started = Instant::now();
    for k in 0..COMMITS {
        let t = s.begin().unwrap();
        s.write(&t, k, 1).unwrap();
        s.commit_durable(t).unwrap();
    }
    let elapsed = started.elapsed();
    assert_eq!(engine.pages_written().unwrap() as u64, COMMITS);
    let wait = engine
        .stats()
        .histogram("mmdb_session_group_wait_us")
        .unwrap()
        .clone();
    assert_eq!(wait.count, COMMITS);
    engine.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
    (wait, elapsed)
}

/// The group window: awaited partial pages leave one [`GROUP_WINDOW`]
/// apart when the device is faster — the commit rate of a closed loop is
/// set by the window, not by how long the disk took this time — and the
/// window is not the flush interval, which only bounds commits nobody
/// waits on.
#[test]
fn awaited_groups_leave_one_group_window_apart() {
    let interval = Duration::from_millis(5);
    let (wait, elapsed) = lone_client_group_wait("group-window", Duration::ZERO, interval);
    // The first finds the window open; each of the rest waits for it.
    assert!(
        elapsed >= GROUP_WINDOW * 49,
        "50 awaited commits left in {elapsed:?}: closer than {GROUP_WINDOW:?} apart"
    );
    // The exact mean, not a percentile: those read power-of-two bucket
    // bounds, too coarse to tell one window from two.
    let limit = GROUP_WINDOW.as_micros() as f64 * 2.0;
    assert!(
        wait.mean() <= limit,
        "mean group wait {:.0} us > {limit} us: awaited pages waited out the flush interval",
        wait.mean()
    );
}

/// `flush` waits for a device and nothing else: neither the group window
/// an awaited commit has just closed nor the 30 s deadline of the commit
/// nobody waits on that queued behind it.
#[test]
fn flush_does_not_wait_for_the_group_window() {
    let (engine, dir) = engine_with_a_30s_interval("flush-reopens");
    let s = engine.session();
    let t = s.begin().unwrap();
    s.write(&t, 1, 1).unwrap();
    s.commit_durable(t).unwrap();
    let t = s.begin().unwrap();
    s.write(&t, 2, 2).unwrap();
    let ticket = s.commit(t).unwrap();
    let started = Instant::now();
    engine.flush().unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "flush waited for the deadline"
    );
    assert!(s.is_durable(&ticket).unwrap());
    engine.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// §5.2's group commit exists to share a page write, not to add a wait
/// on top of it: the window runs *while* the page is written, so with a
/// page write longer than [`GROUP_WINDOW`] a lone client's commit finds
/// the window open again by the time it arrives.
#[test]
fn group_commit_adds_no_wait_to_a_lone_clients_page_write() {
    let interval = Duration::from_millis(1);
    let (wait, _) = lone_client_group_wait("lone-group", interval, interval);
    let p50 = wait.p50();
    let limit = interval.as_micros() as u64 * 3 / 2;
    assert!(
        p50 <= limit,
        "median group wait {p50} us > {limit} us: the window ran after the write, not during it"
    );
}

/// A device slower than the window sets the pace, and must still group:
/// while one page is being written, the commits that arrive share the
/// next one. One page per commit is the failure this guards against.
#[test]
fn commits_that_arrive_during_a_page_write_share_the_next_page() {
    const CLIENTS: u64 = 8;
    const EACH: u64 = 40;
    let dir = tmp_dir("device-paced");
    let opts = EngineOptions::new(CommitPolicy::Group, &dir)
        .with_page_write_latency(Duration::from_millis(5));
    let engine = Engine::start(opts).unwrap();
    let barrier = Arc::new(Barrier::new(CLIENTS as usize));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let s = engine.session();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                for i in 0..EACH {
                    let t = s.begin().unwrap();
                    s.write(&t, c * EACH + i, 1).unwrap();
                    s.commit_durable(t).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let commits = (CLIENTS * EACH) as usize;
    let pages = engine.pages_written().unwrap();
    assert!(
        pages <= commits / 3,
        "{pages} pages for {commits} commits: the device is not pacing the groups"
    );
    let registry = engine.registry();
    engine.shutdown().unwrap();
    let stats = registry.snapshot();
    let batch = stats.histogram("mmdb_session_commit_batch_txns").unwrap();
    assert_eq!(batch.sum, commits as u64);
    assert!(
        batch.sum >= 3 * batch.count,
        "{} commits over {} commit-carrying pages",
        batch.sum,
        batch.count
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `Partitioned { devices: 2 }`: a partial page leaves while *a* device
/// is free, so two may be in flight at once — never three.
#[test]
fn two_devices_carry_two_partial_pages_at_once_never_three() {
    let dir = tmp_dir("two-in-flight");
    let opts = EngineOptions::new(CommitPolicy::Partitioned { devices: 2 }, &dir)
        .with_page_write_latency(Duration::from_millis(300));
    let engine = Engine::start(opts).unwrap();
    // The group-wait histogram records a commit the moment its page is
    // handed to a writer: its count is the commits dispatched so far.
    let dispatched = || {
        engine
            .stats()
            .histogram("mmdb_session_group_wait_us")
            .map_or(0, |h| h.count)
    };
    let commit = |key: u64| {
        let s = engine.session();
        std::thread::spawn(move || {
            let t = s.begin().unwrap();
            s.write(&t, key, 1).unwrap();
            s.commit_durable(t).unwrap();
        })
    };
    let limit = Duration::from_secs(5);
    let mut handles = vec![commit(1)];
    eventually(limit, "first page dispatched", || dispatched() == 1);
    handles.push(commit(2));
    eventually(limit, "second page dispatched", || dispatched() == 2);
    let both_in_flight = engine.pages_written().unwrap() == 0;
    handles.push(commit(3));
    handles.push(commit(4));
    eventually(limit, "all four committed", || {
        engine.stats().counter("mmdb_session_commits_total") == Some(4)
    });
    std::thread::sleep(Duration::from_millis(20));
    let dispatched_now = dispatched();
    // Only meaningful if this thread was not descheduled for a whole
    // 300 ms page write somewhere above.
    let still_both = engine.pages_written().unwrap() == 0;
    for h in handles {
        h.join().unwrap();
    }
    if both_in_flight && still_both {
        assert_eq!(
            dispatched_now, 2,
            "a third partial page was cut while both devices were busy"
        );
        assert_eq!(
            engine.pages_written().unwrap(),
            3,
            "the two commits that found both devices busy share one page"
        );
    }
    engine.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// The flush interval is an absolute deadline on the oldest queued
/// commit: a trickle of other sessions' un-awaited commits (arriving
/// faster than the interval, into a page that will not fill) must not
/// postpone it, as a timer restarted by every append would.
#[test]
fn a_trickle_of_commits_does_not_postpone_an_unawaited_commit() {
    let dir = tmp_dir("trickle");
    let mut opts =
        EngineOptions::new(CommitPolicy::Group, &dir).with_flush_interval(Duration::from_millis(2));
    opts.page_bytes = 1 << 20;
    let engine = Engine::start(opts).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let s = engine.session();
    let t = s.begin().unwrap();
    s.write(&t, 2, 20).unwrap();
    let ticket = s.commit(t).unwrap();
    let started = Instant::now();
    let trickle = {
        let s = engine.session();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut v = 0;
            while !stop.load(Ordering::SeqCst) {
                v += 1;
                let t = s.begin().unwrap();
                s.write(&t, 1, v).unwrap();
                s.commit(t).unwrap();
                std::thread::sleep(Duration::from_micros(100));
            }
        })
    };
    while !s.is_durable(&ticket).unwrap() && started.elapsed() < Duration::from_secs(2) {
        std::thread::sleep(Duration::from_micros(200));
    }
    let took = started.elapsed();
    stop.store(true, Ordering::SeqCst);
    trickle.join().unwrap();
    assert!(
        took < Duration::from_millis(500),
        "an un-awaited commit took {took:?} to become durable behind a trickle of commits"
    );
    engine.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Regression: the recovered state must survive the engine restart that
/// follows recovery. An earlier version wrote the recovered image into
/// the new engine's own log files and then reopened (and truncated)
/// them, so the very next restart recovered an empty store; today the
/// image is a checkpoint generation of its own and the new engine's live
/// log a fresh one beside it.
#[test]
fn repeated_recovery_preserves_committed_state() {
    let dir = tmp_dir("recover-twice");
    let opts = EngineOptions::new(CommitPolicy::Group, &dir)
        .with_page_write_latency(Duration::from_micros(200))
        .with_flush_interval(Duration::from_micros(500));
    let engine = Engine::start(opts.clone()).unwrap();
    let s = engine.session();
    let t = s.begin().unwrap();
    s.write(&t, 1, 10).unwrap();
    s.commit_durable(t).unwrap();
    engine.shutdown().unwrap();

    // First recovery checkpoints the recovered state…
    let (engine, info) = Engine::recover(opts.clone()).unwrap();
    assert_eq!(info.committed.len(), 1);
    assert_eq!(engine.read(1).unwrap(), Some(10));
    // …and the recovered engine keeps committing on top of it.
    let s = engine.session();
    let t = s.begin().unwrap();
    s.write(&t, 2, 20).unwrap();
    s.commit_durable(t).unwrap();
    engine.shutdown().unwrap();

    // Crash/recover again: both the snapshotted and the post-recovery
    // commits must still be there (the original bug lost everything).
    let (engine, _) = Engine::recover(opts.clone()).unwrap();
    assert_eq!(engine.read(1).unwrap(), Some(10), "snapshot survived");
    assert_eq!(
        engine.read(2).unwrap(),
        Some(20),
        "post-recovery commit survived"
    );
    engine.crash().unwrap();
    let (engine, _) = Engine::recover(opts).unwrap();
    assert_eq!(engine.read(1).unwrap(), Some(10));
    assert_eq!(engine.read(2).unwrap(), Some(20));
    engine.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// A crash *during* a restart's checkpoint — its image never finished
/// (no transaction-0 commit record) — must fall back to the intact
/// previous generation instead of trusting the torn image.
#[test]
fn torn_snapshot_generation_falls_back_to_previous() {
    let dir = tmp_dir("torn-snapshot");
    let opts = EngineOptions::new(CommitPolicy::Group, &dir)
        .with_page_write_latency(Duration::from_micros(200))
        .with_flush_interval(Duration::from_micros(500));
    let engine = Engine::start(opts.clone()).unwrap();
    let s = engine.session();
    let t = s.begin().unwrap();
    s.write(&t, 1, 10).unwrap();
    s.commit_durable(t).unwrap();
    engine.shutdown().unwrap();

    // Hand-craft what a recovery that died mid-snapshot leaves behind:
    // a generation-1 device file whose synthetic transaction 0 began
    // rewriting the image but never committed.
    let mut dev = WalDevice::create(dir.join("wal-gen1-d0.log"), 4096, Duration::ZERO).unwrap();
    dev.append_page(&[
        (Lsn(1), LogRecord::Begin { txn: TxnId(0) }),
        (
            Lsn(2),
            LogRecord::Put {
                txn: TxnId(0),
                key: 1,
                // A value the real image never held.
                new: std::sync::Arc::new(999i64.to_le_bytes()),
            },
        ),
    ])
    .unwrap();
    drop(dev);

    let (engine, info) = Engine::recover(opts.clone()).unwrap();
    assert_eq!(
        engine.read(1).unwrap(),
        Some(10),
        "recovery used the intact generation, not the torn snapshot"
    );
    assert_eq!(info.committed.len(), 1);
    engine.shutdown().unwrap();
    // The rewritten directory holds exactly one complete generation now.
    let (engine, _) = Engine::recover(opts).unwrap();
    assert_eq!(engine.read(1).unwrap(), Some(10));
    engine.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Cross-shard transfers from 16 threads must always terminate: every
/// conflict either waits its turn or is broken by the merged-edge
/// deadlock detector ([`mmdb_recovery::detect_deadlocks_in`] over the
/// per-shard waits-for graphs), never left to hang. The key pairs are
/// chosen from a small hot set spread over 8 shards so most transfers
/// cross shards and many collide head-on in both lock orders.
#[test]
fn cross_shard_transfers_from_16_threads_never_deadlock() {
    let dir = tmp_dir("deadlock-hammer");
    let opts = EngineOptions::new(CommitPolicy::Group, &dir)
        .with_page_write_latency(Duration::from_micros(100))
        .with_flush_interval(Duration::from_micros(300))
        .with_lock_wait_timeout(Duration::from_secs(5))
        .with_shards(8);
    let engine = Engine::start(opts).unwrap();
    const KEYS: u64 = 12;
    let s = engine.session();
    let t = s.begin().unwrap();
    for k in 0..KEYS {
        s.write(&t, k, 1_000).unwrap();
    }
    s.commit_durable(t).unwrap();

    let mut handles = Vec::new();
    for c in 0..16u64 {
        let s = engine.session();
        handles.push(std::thread::spawn(move || {
            let mut state = 0x9E37_79B9u64.wrapping_mul(c + 1);
            let mut committed = 0u64;
            for _ in 0..40 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let from = (state >> 33) % KEYS;
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let to = (state >> 33) % KEYS;
                if from == to {
                    continue;
                }
                match s.transfer(from, to, 1) {
                    Ok(_) => committed += 1,
                    Err(Error::TransactionAborted(_)) | Err(Error::LockConflict { .. }) => {}
                    Err(e) => panic!("unexpected transfer error: {e}"),
                }
            }
            committed
        }));
    }
    let committed: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(committed > 0, "the hammer must make forward progress");
    engine.flush().unwrap();
    let total: i64 = (0..KEYS)
        .map(|k| engine.read(k).unwrap().unwrap_or(0))
        .sum();
    assert_eq!(total, (KEYS as i64) * 1_000, "transfers conserve money");

    // The obs counters must agree with what the hammer saw: the seed
    // commit plus every successful transfer, and deadlock-victim aborts
    // (summed over the per-shard family) never exceeding total aborts.
    let stats = engine.stats();
    assert_eq!(
        stats.counter("mmdb_session_commits_total"),
        Some(committed + 1),
        "commit counter diverged from the driver's count"
    );
    let aborts = stats.counter("mmdb_session_aborts_total").unwrap();
    let deadlock_aborts = stats.counter_sum("mmdb_session_deadlock_aborts_total");
    assert!(
        deadlock_aborts <= aborts,
        "deadlock victims ({deadlock_aborts}) exceed total aborts ({aborts})"
    );
    engine.audit().unwrap();
    // Latency recording happens in the writers' finalize loop *after*
    // the durable watermark advances, so flush() alone doesn't order a
    // snapshot after the last batch's recordings — shutdown (which
    // joins the writer threads) does. The registry outlives the engine.
    let registry = engine.registry();
    engine.shutdown().unwrap();
    let stats = registry.snapshot();
    let latency = stats
        .histogram("mmdb_session_commit_latency_us")
        .expect("commit latency histogram");
    assert_eq!(
        latency.count,
        committed + 1,
        "every durable commit records exactly one begin-to-durable sample"
    );
    assert_eq!(stats.gauge("mmdb_session_durable_lag_lsn"), Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

/// The log is shard-agnostic: state committed under one shard count must
/// recover bit-for-bit under a different one (the snapshot merges every
/// shard's slice of the image, and recovery redistributes by the *new*
/// hash layout).
#[test]
fn recovery_merges_all_shards_and_survives_a_shard_count_change() {
    let dir = tmp_dir("shard-change");
    let opts5 = EngineOptions::new(CommitPolicy::Group, &dir)
        .with_page_write_latency(Duration::from_micros(200))
        .with_flush_interval(Duration::from_micros(500))
        .with_shards(5);
    let engine = Engine::start(opts5.clone()).unwrap();
    let s = engine.session();
    // 64 keys land on every one of the 5 shards.
    for k in 0..64u64 {
        let t = s.begin().unwrap();
        s.write(&t, k, (k as i64) * 7 - 3).unwrap();
        s.commit_durable(t).unwrap();
    }
    engine.crash().unwrap();

    // Recover under 3 shards: every key must come back regardless of
    // which shard owned it before the crash.
    let opts3 = opts5.clone().with_shards(3);
    let (engine, info) = Engine::recover(opts3).unwrap();
    assert_eq!(info.committed.len(), 64);
    for k in 0..64u64 {
        assert_eq!(engine.read(k).unwrap(), Some((k as i64) * 7 - 3));
    }
    // The re-sharded engine keeps working and still passes its audit.
    let s = engine.session();
    let t = s.begin().unwrap();
    s.write(&t, 999, 1).unwrap();
    s.commit_durable(t).unwrap();
    engine.audit().unwrap();
    engine.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// One client's worth of generated transactions: each is a list of
/// `key := value` writes.
type ClientScript = Vec<Vec<(u64, i64)>>;

fn client_strategy() -> impl Strategy<Value = ClientScript> {
    prop::collection::vec(prop::collection::vec((0u64..6, -100i64..100), 1..4), 1..5)
}

/// Like [`client_strategy`] but over 16 keys, so transactions span
/// several lock-manager shards.
fn sharded_client_strategy() -> impl Strategy<Value = ClientScript> {
    prop::collection::vec(prop::collection::vec((0u64..16, -100i64..100), 1..5), 1..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Concurrent sessions against the serial oracle: whatever the
    /// interleaving, the final store equals the committed transactions'
    /// writes replayed in commit-LSN order (2PL with pre-commit
    /// serializes in precommit order, and commit LSNs are assigned at
    /// precommit under the state lock).
    #[test]
    fn concurrent_sessions_match_serial_oracle(
        scripts in prop::collection::vec(client_strategy(), 2..4),
        case in 0u64..u64::MAX,
    ) {
        let dir = tmp_dir(&format!("oracle-{case}"));
        let opts = EngineOptions::new(CommitPolicy::Group, &dir)
            .with_page_write_latency(Duration::from_micros(100))
            .with_flush_interval(Duration::from_micros(300))
            .with_lock_wait_timeout(Duration::from_millis(500));
        let engine = Engine::start(opts).unwrap();
        let mut handles = Vec::new();
        for script in scripts {
            let s = engine.session();
            handles.push(std::thread::spawn(move || {
                let mut committed: Vec<(u64, Vec<(u64, i64)>)> = Vec::new();
                for writes in script {
                    let txn = match s.begin() {
                        Ok(t) => t,
                        Err(_) => continue,
                    };
                    let mut ok = true;
                    for (key, value) in &writes {
                        match s.write(&txn, *key, *value) {
                            Ok(()) => {}
                            Err(Error::TransactionAborted(_)) => {
                                ok = false;
                                break;
                            }
                            Err(_) => {
                                let _ = s.abort(txn);
                                ok = false;
                                break;
                            }
                        }
                    }
                    if !ok {
                        continue;
                    }
                    if let Ok(ticket) = s.commit(txn) {
                        committed.push((ticket.lsn.0, writes));
                    }
                }
                committed
            }));
        }
        let mut committed: Vec<(u64, Vec<(u64, i64)>)> = Vec::new();
        for h in handles {
            committed.extend(h.join().expect("client thread panicked"));
        }
        engine.flush().unwrap();

        // Serial oracle: replay committed transactions in commit order.
        committed.sort_by_key(|(lsn, _)| *lsn);
        let mut model = std::collections::HashMap::new();
        for (_, writes) in &committed {
            for (key, value) in writes {
                model.insert(*key, *value);
            }
        }
        for key in 0u64..6 {
            prop_assert_eq!(
                engine.read(key).unwrap(),
                model.get(&key).copied(),
                "key {} diverged from the serial oracle", key
            );
        }
        engine.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The sharded engine against the same serial oracle, for *any*
    /// shard count from the degenerate single shard up to 8: sharding
    /// changes which mutex guards a key and in what order a multi-key
    /// transaction locks its shards, but never the committed history.
    /// Keys range over 0..16 so multi-key transactions routinely span
    /// shards and exercise the ascending-index lock discipline.
    #[test]
    fn sharded_sessions_match_serial_oracle_for_any_shard_count(
        scripts in prop::collection::vec(sharded_client_strategy(), 2..4),
        shards in 1usize..9,
        case in 0u64..u64::MAX,
    ) {
        let dir = tmp_dir(&format!("shard-oracle-{case}"));
        let opts = EngineOptions::new(CommitPolicy::Group, &dir)
            .with_page_write_latency(Duration::from_micros(100))
            .with_flush_interval(Duration::from_micros(300))
            .with_lock_wait_timeout(Duration::from_millis(500))
            .with_shards(shards);
        let engine = Engine::start(opts).unwrap();
        let mut handles = Vec::new();
        for script in scripts {
            let s = engine.session();
            handles.push(std::thread::spawn(move || {
                let mut committed: Vec<(u64, Vec<(u64, i64)>)> = Vec::new();
                for writes in script {
                    let txn = match s.begin() {
                        Ok(t) => t,
                        Err(_) => continue,
                    };
                    let mut ok = true;
                    for (key, value) in &writes {
                        match s.write(&txn, *key, *value) {
                            Ok(()) => {}
                            Err(Error::TransactionAborted(_)) => {
                                ok = false;
                                break;
                            }
                            Err(_) => {
                                let _ = s.abort(txn);
                                ok = false;
                                break;
                            }
                        }
                    }
                    if !ok {
                        continue;
                    }
                    if let Ok(ticket) = s.commit(txn) {
                        committed.push((ticket.lsn.0, writes));
                    }
                }
                committed
            }));
        }
        let mut committed: Vec<(u64, Vec<(u64, i64)>)> = Vec::new();
        for h in handles {
            committed.extend(h.join().expect("client thread panicked"));
        }
        engine.flush().unwrap();

        committed.sort_by_key(|(lsn, _)| *lsn);
        let mut model = std::collections::HashMap::new();
        for (_, writes) in &committed {
            for (key, value) in writes {
                model.insert(*key, *value);
            }
        }
        for key in 0u64..16 {
            prop_assert_eq!(
                engine.read(key).unwrap(),
                model.get(&key).copied(),
                "key {} diverged from the serial oracle under {} shard(s)", key, shards
            );
        }
        engine.audit().unwrap();
        engine.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
