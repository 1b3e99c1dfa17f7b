//! Experiment S1 — §5.2's commit policies: model vs wall clock.
//!
//! A closed-loop driver: N client threads each run §5.1 banking
//! transfers (begin, two 8-byte updates logged with old and new value,
//! commit) back to back against one shared [`mmdb_session::Engine`],
//! waiting for durability before issuing the next. The engine's log writers sleep
//! an explicit modeled page write (`--page-write-us`, the paper's 10 ms
//! disk scaled down) before each real write, so the run reproduces the
//! paper's device on real threads.
//!
//! Each policy's measured committed tps is printed next to what the
//! closed-form [`ThroughputModel`] predicts for the same page size, page
//! write, device count and log bytes per transaction — the bytes the
//! run's own log holds, read back and divided by its commits, not a
//! padded constant — with the commit groups in flight capped at the
//! client count, since a closed loop cannot queue more commits than it
//! has clients — and the residual between the two. §5.2's claim is the
//! ratio: group commit beats synchronous by roughly the group size.
//!
//! At `--clients 1` the run also checks that a lone client waits for
//! nothing but the device and the group window: a grouped policy whose
//! mean `mmdb_session_group_wait_us` (commit queued → page cut; the exact
//! mean, since percentiles read power-of-two bucket bounds) exceeds both
//! the modeled page write and [`GROUP_WINDOW`] held the page for
//! something else — the flush interval, say — and the process exits
//! non-zero.
//!
//! This is a model experiment. What the stack costs on a real device is
//! `benchmark/`'s job (SQL over TCP, real fsync, no modeled sleeps).
//!
//! Usage: `concurrent_commit [--policy sync|group|partitioned:K|all]
//! [--clients N] [--duration-ms MS] [--page-write-us US] [--seed S]`.

use mmdb_analytic::recovery::ThroughputModel;
use mmdb_bench::print_table;
use mmdb_recovery::wal::read_log_dir;
use mmdb_session::{CommitPolicy, Engine, EngineOptions, GROUP_WINDOW};
use mmdb_types::WorkloadRng;
use std::time::{Duration, Instant};

struct Config {
    policies: Vec<CommitPolicy>,
    clients: usize,
    duration: Duration,
    page_write: Duration,
    seed: u64,
}

struct Measured {
    committed: u64,
    aborted: u64,
    tps: f64,
    p50_ms: f64,
    p99_ms: f64,
    pages_written: usize,
    /// Mean of the engine's own `mmdb_session_group_wait_us`: commit
    /// queued → its page handed to a writer.
    group_wait_mean_us: f64,
    /// Log bytes (the page accounting the daemon cuts pages by) per
    /// committed transaction, read back from the run's device files.
    log_bytes_per_txn: usize,
}

fn parse_policy(s: &str) -> CommitPolicy {
    match s {
        "sync" => CommitPolicy::Synchronous,
        "group" => CommitPolicy::Group,
        other => match other.strip_prefix("partitioned:") {
            Some(k) => CommitPolicy::Partitioned {
                devices: k.parse().expect("partitioned:K needs an integer K"),
            },
            None => panic!("unknown policy {other:?} (want sync|group|partitioned:K|all)"),
        },
    }
}

fn parse_args() -> Config {
    let mut cfg = Config {
        policies: vec![
            CommitPolicy::Synchronous,
            CommitPolicy::Group,
            CommitPolicy::Partitioned { devices: 2 },
            CommitPolicy::Partitioned { devices: 4 },
        ],
        clients: 8,
        duration: Duration::from_millis(1000),
        page_write: Duration::from_micros(2000),
        seed: 42,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| panic!("{arg} needs a value"));
        match arg.as_str() {
            "--policy" => {
                let v = value();
                if v != "all" {
                    cfg.policies = vec![parse_policy(&v)];
                }
            }
            "--clients" => cfg.clients = value().parse().expect("--clients N"),
            "--duration-ms" => {
                cfg.duration = Duration::from_millis(value().parse().expect("--duration-ms MS"))
            }
            "--page-write-us" => {
                cfg.page_write = Duration::from_micros(value().parse().expect("--page-write-us US"))
            }
            "--seed" => cfg.seed = value().parse().expect("--seed S"),
            other => panic!("unknown argument {other:?}"),
        }
    }
    assert!(cfg.clients > 0, "--clients must be at least 1");
    assert!(
        !cfg.page_write.is_zero(),
        "S1 models a device: --page-write-us must be positive (real-fsync numbers come from benchmark/)"
    );
    cfg
}

fn policy_label(policy: CommitPolicy) -> String {
    match policy {
        CommitPolicy::Partitioned { devices } => format!("partitioned:{devices}"),
        other => other.name().to_string(),
    }
}

fn percentile_ms(sorted_us: &[u64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * p).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)] as f64 / 1000.0
}

/// What the closed form predicts for `policy` on the same device, with
/// transactions of `log_bytes_per_txn` each. A closed loop has at most
/// `clients` commits in flight: they keep `min(devices, clients)` devices
/// busy, each grouping its share of them up to a page's worth.
fn predicted_tps(
    policy: CommitPolicy,
    clients: usize,
    page_write: Duration,
    log_bytes_per_txn: usize,
) -> f64 {
    let model = ThroughputModel {
        page_write_ms: page_write.as_secs_f64() * 1000.0,
        txn_log_bytes: log_bytes_per_txn as u64,
        ..ThroughputModel::default()
    };
    let busy = policy.devices().min(clients);
    let group = match policy {
        CommitPolicy::Synchronous => 1,
        _ => model.group_size().min((clients / busy) as u64),
    };
    model.page_writes_per_second() * (group * busy as u64) as f64
}

fn measure(policy: CommitPolicy, cfg: &Config) -> Measured {
    let dir = std::env::temp_dir().join(format!(
        "mmdb-bench-cc-{}-{}",
        std::process::id(),
        policy_label(policy).replace(':', "-")
    ));
    std::fs::remove_dir_all(&dir).ok();
    let opts = EngineOptions::new(policy, &dir)
        .with_page_write_latency(cfg.page_write)
        .with_lock_wait_timeout(Duration::from_secs(2));
    let engine = Engine::start(opts).expect("engine start");

    // Seed two accounts per client with round sums.
    let accounts = (cfg.clients as u64) * 2;
    let seeder = engine.session();
    let t = seeder.begin().expect("seed begin");
    for k in 0..accounts {
        seeder.write(&t, k, 1_000_000).expect("seed write");
    }
    seeder.commit_durable(t).expect("seed commit");

    let started = Instant::now();
    let deadline = started + cfg.duration;
    let handles: Vec<_> = (0..cfg.clients as u64)
        .map(|c| {
            let session = engine.session();
            // Seeded per client, so a rerun issues the same transaction mix.
            let mut rng = WorkloadRng::seeded(cfg.seed ^ c.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            std::thread::spawn(move || {
                let mut committed = 0u64;
                let mut aborted = 0u64;
                let mut latencies_us: Vec<u64> = Vec::new();
                while Instant::now() < deadline {
                    // Mostly transfer inside the client's own account
                    // pair; roughly every 8th hop crosses into the
                    // neighbor's pair so the lock manager sees real
                    // conflicts and commit dependencies.
                    let from = c * 2;
                    let to = if rng.index(8) == 0 {
                        (c * 2 + 2) % accounts
                    } else {
                        c * 2 + 1
                    };
                    if from == to {
                        continue;
                    }
                    let txn_started = Instant::now();
                    match session.transfer(from, to, 1) {
                        Ok(ticket) => {
                            session.wait_durable(&ticket).expect("wait durable");
                            latencies_us.push(txn_started.elapsed().as_micros() as u64);
                            committed += 1;
                        }
                        Err(_) => aborted += 1,
                    }
                }
                (committed, aborted, latencies_us)
            })
        })
        .collect();
    let mut committed = 0u64;
    let mut aborted = 0u64;
    let mut latencies: Vec<u64> = Vec::new();
    for h in handles {
        let (c, a, l) = h.join().expect("client thread");
        committed += c;
        aborted += a;
        latencies.extend(l);
    }
    let elapsed = started.elapsed().as_secs_f64();
    let pages_written = engine.pages_written().expect("pages written");
    let group_wait_mean_us = engine
        .stats()
        .histogram("mmdb_session_group_wait_us")
        .map_or(0.0, |h| h.mean());
    engine.shutdown().expect("shutdown");
    let log_bytes: usize = read_log_dir(&dir)
        .expect("read the run's log back")
        .iter()
        .map(|(_, record)| record.byte_size())
        .sum();
    std::fs::remove_dir_all(&dir).ok();

    latencies.sort_unstable();
    Measured {
        committed,
        aborted,
        tps: committed as f64 / elapsed,
        p50_ms: percentile_ms(&latencies, 0.50),
        p99_ms: percentile_ms(&latencies, 0.99),
        pages_written,
        group_wait_mean_us,
        log_bytes_per_txn: log_bytes / (committed as usize).max(1),
    }
}

fn main() {
    let cfg = parse_args();
    println!("Experiment S1 — §5.2 commit policies, model vs wall clock");
    println!(
        "closed loop: {} clients, {} ms, {} µs modeled page write, seed {}, {} core(s)",
        cfg.clients,
        cfg.duration.as_millis(),
        cfg.page_write.as_micros(),
        cfg.seed,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );

    let runs: Vec<(CommitPolicy, f64, Measured)> = cfg
        .policies
        .iter()
        .map(|p| {
            let measured = measure(*p, &cfg);
            (
                *p,
                predicted_tps(*p, cfg.clients, cfg.page_write, measured.log_bytes_per_txn),
                measured,
            )
        })
        .collect();

    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|(policy, predicted, m)| {
            vec![
                policy_label(*policy),
                format!("{predicted:.0}"),
                format!("{:.0}", m.tps),
                format!("{:+.0}%", (m.tps - predicted) / predicted * 100.0),
                m.committed.to_string(),
                m.aborted.to_string(),
                format!("{:.2}", m.p50_ms),
                format!("{:.2}", m.p99_ms),
                format!("{:.0}", m.group_wait_mean_us),
                m.pages_written.to_string(),
                m.log_bytes_per_txn.to_string(),
                // The §5.2 group size the throughput claim rests on.
                format!("{:.1}", m.committed as f64 / m.pages_written.max(1) as f64),
            ]
        })
        .collect();
    print_table(
        "committed tps: closed-form prediction vs the wall clock",
        &[
            "policy",
            "model tps",
            "measured tps",
            "residual",
            "committed",
            "aborted",
            "p50 ms",
            "p99 ms",
            "wait mean µs",
            "pages",
            "log B/txn",
            "txns/page",
        ],
        &rows,
    );

    let of = |want: CommitPolicy| runs.iter().find(|(p, _, _)| *p == want);
    if let (Some((_, sync_model, sync)), Some((_, group_model, group))) =
        (of(CommitPolicy::Synchronous), of(CommitPolicy::Group))
    {
        println!(
            "\n  group commit vs synchronous: measured {:.1}x, model {:.1}x (§5.2: ~group-size x)",
            group.tps / sync.tps,
            group_model / sync_model,
        );
    }

    if cfg.clients == 1 {
        let limit = cfg.page_write.max(GROUP_WINDOW).as_micros() as f64;
        let held: Vec<String> = runs
            .iter()
            .filter(|(p, _, m)| *p != CommitPolicy::Synchronous && m.group_wait_mean_us > limit)
            .map(|(p, _, m)| format!("{} ({:.0} µs)", policy_label(*p), m.group_wait_mean_us))
            .collect();
        if !held.is_empty() {
            eprintln!(
                "lone client: mean group wait above {limit} µs (the page write or the group \
                 window, whichever is longer) under {}: a page somebody waits on was held for \
                 something other than the device and the window",
                held.join(", ")
            );
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prediction_counts_only_devices_a_commit_can_reach() {
        let four = CommitPolicy::Partitioned { devices: 4 };
        let write = Duration::from_micros(2000);
        assert_eq!(predicted_tps(four, 1, write, 125), 500.0);
        assert_eq!(predicted_tps(four, 8, write, 125), 4000.0);
    }
}
