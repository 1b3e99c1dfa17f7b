//! `mmdb-session`: the raw transaction API on one thread, and the
//! commit pipeline's own histograms over the measured end-to-end window.

use crate::probe::{per_call_ns, per_call_percentiles_ns, Reading};
use mmdb_benchmark::e2e::{engine_options, WorkloadResult};
use mmdb_benchmark::stats::log2_bucket_quantile;
use mmdb_session::{Engine, HistogramSnapshot, StatsSnapshot};
use std::path::Path;

pub fn probe_api(scratch: &Path) -> Result<Vec<Reading>, String> {
    let dir = scratch.join("session-api");
    let engine = Engine::start(engine_options(&dir)).map_err(|e| e.to_string())?;
    let s = engine.session();

    let begin_abort = per_call_ns(20_000, || {
        let txn = s.begin().expect("begin");
        s.abort(txn).expect("abort");
    });

    // Lock, read, write, undo record, log record — per key, one open
    // transaction, nothing flushed.
    const KEYS: u64 = 2_000;
    let mut batches = Vec::new();
    for batch in 0..11u64 {
        let txn = s.begin().map_err(|e| e.to_string())?;
        let t = std::time::Instant::now();
        for key in 0..KEYS {
            let old = s.read_for_update(&txn, key).expect("read_for_update");
            s.write(&txn, key, old.unwrap_or(0) + 1).expect("write");
        }
        let ns = t.elapsed().as_nanos() as f64 / KEYS as f64;
        s.abort(txn).map_err(|e| e.to_string())?;
        if batch > 0 {
            batches.push(ns);
        }
    }
    let rfu_write = mmdb_benchmark::stats::median(&batches);

    // Pre-commit alone: locks released, commit record queued, ticket
    // back. The wait for durability that follows is off the clock.
    let mut key = 0u64;
    let mut pre_ns = Vec::with_capacity(300);
    for _ in 0..300 {
        key += 1;
        let txn = s.begin().map_err(|e| e.to_string())?;
        s.write(&txn, key, 1).map_err(|e| e.to_string())?;
        let t = std::time::Instant::now();
        let ticket = s.commit(txn).map_err(|e| e.to_string())?;
        pre_ns.push(t.elapsed().as_nanos() as u64);
        s.wait_durable(&ticket).map_err(|e| e.to_string())?;
    }
    let precommit = mmdb_benchmark::stats::percentile(&mut pre_ns, 0.5).unwrap_or(0) as f64;

    let stats_before = engine.stats();
    let (commit_durable, _) = per_call_percentiles_ns(300, || {
        key += 1;
        let txn = s.begin().expect("begin");
        s.write(&txn, key, 1).expect("write");
        s.commit_durable(txn).expect("commit_durable");
    });
    // What a lone commit waits for that is not the device: the daemon's
    // flush timer and its hand-offs. The engine times its own fsyncs.
    let fsync_us = log2_bucket_quantile(
        &histogram_delta(&stats_before, &engine.stats(), "mmdb_session_fsync_us").buckets,
        0.5,
    )
    .unwrap_or(0.0);
    let group_wait_us = (commit_durable / 1e3 - fsync_us).max(0.0);
    let (transfer_durable, _) = per_call_percentiles_ns(300, || {
        key += 2;
        let ticket = s.transfer(key, key + 1, 1).expect("transfer");
        s.wait_durable(&ticket).expect("wait_durable");
    });

    drop(s);
    engine.shutdown().map_err(|e| e.to_string())?;
    std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    Ok(vec![
        ("session.begin_abort_ns", begin_abort, "ns"),
        ("session.rfu_write_ns", rfu_write, "ns"),
        ("session.precommit_us", precommit / 1e3, "us"),
        ("session.commit_durable_us", commit_durable / 1e3, "us"),
        ("session.group_wait_us_p50", group_wait_us, "us"),
        ("session.transfer_durable_us", transfer_durable / 1e3, "us"),
    ])
}

/// What a histogram family recorded between two snapshots.
pub fn histogram_delta(
    before: &StatsSnapshot,
    after: &StatsSnapshot,
    family: &str,
) -> HistogramSnapshot {
    let (b, mut a) = (
        before.histogram_merged(family),
        after.histogram_merged(family),
    );
    for (x, y) in a.buckets.iter_mut().zip(&b.buckets) {
        *x = x.saturating_sub(*y);
    }
    a.count = a.count.saturating_sub(b.count);
    a.sum = a.sum.wrapping_sub(b.sum);
    a
}

/// Mean of what a histogram family recorded between two snapshots; 0
/// when it recorded nothing.
pub fn histogram_mean_delta(before: &StatsSnapshot, after: &StatsSnapshot, family: &str) -> f64 {
    let h = histogram_delta(before, after, family);
    if h.count == 0 {
        0.0
    } else {
        h.sum as f64 / h.count as f64
    }
}

pub fn counter_delta(before: &StatsSnapshot, after: &StatsSnapshot, family: &str) -> u64 {
    after
        .counter_sum(family)
        .saturating_sub(before.counter_sum(family))
}

/// The commit pipeline as the engine's own metrics saw it over the
/// measured window of the end-to-end run. A window that committed
/// nothing reads 0 everywhere — which is itself the evidence that a
/// read-only workload never touched the log.
pub fn probe_window(run: &WorkloadResult) -> Vec<Reading> {
    let (b, a) = (&run.stats_before, &run.stats_after);
    let q = |family: &str, quantile: f64| {
        log2_bucket_quantile(&histogram_delta(b, a, family).buckets, quantile).unwrap_or(0.0)
    };
    let commit_latency = q("mmdb_session_commit_latency_us", 0.5);
    let fsync = q("mmdb_session_fsync_us", 0.5);
    let commits = counter_delta(b, a, "mmdb_session_commits_total");
    let pages = counter_delta(b, a, "mmdb_session_pages_written_total");
    vec![
        // Batches are a handful of transactions: a log₂ bucket cannot
        // tell 2 from 3, the mean can.
        (
            "session.commit_batch_txns_mean",
            histogram_mean_delta(b, a, "mmdb_session_commit_batch_txns"),
            "count",
        ),
        // The engine clocks a commit from `begin` to durable, so on a
        // multi-statement transaction this holds the statements too.
        ("session.commit_latency_us_p50", commit_latency, "us"),
        ("session.fsync_us_p50", fsync, "us"),
        (
            "session.lock_wait_us_p99",
            q("mmdb_session_lock_wait_us", 0.99),
            "us",
        ),
        (
            "session.pages_per_commit",
            if commits == 0 {
                0.0
            } else {
                pages as f64 / commits as f64
            },
            "count",
        ),
        (
            "wal.bytes_per_commit",
            if commits == 0 {
                0.0
            } else {
                run.window_log_bytes as f64 / commits as f64
            },
            "B",
        ),
    ]
}
