//! The torture runner (§5), the binary behind `cargo torture` (an alias
//! in `.cargo/config.toml`). It sweeps one entry point of
//! [`mmdb_session::torture`]'s one runner, fifty seeds per
//! [`mmdb_session::torture::sweep`] call and progress line, every seed
//! judged by [`mmdb_session::torture::check_recovered`]. The flags pick
//! where faults enter:
//!
//! * by default, [`mmdb_session::torture::run_seed`]: the log device, a
//!   plain crash, or the checkpoint image a restart writes;
//! * `--checkpoint`, [`mmdb_session::torture::run_checkpoint_seed`]: the
//!   §5.3 sweep; `--sustain-secs S` first runs one seed of S seconds of
//!   traffic whose recovery must be bounded by the checkpoint interval;
//! * `--server`, [`mmdb_server::torture::run_server_seed`]: the wire.
//!
//! A watchdog thread turns any hang into exit code 124, and a failing
//! seed leaves its log directory, with its `options.txt` and
//! `transfers.txt`, under the artifact dir. A sweep also fails if a
//! scenario whose fault must land ran often enough
//! ([`mmdb_session::torture::Scenario::must_fire_within`]) and landed
//! none — a green gate whose faults stopped landing proves nothing — or
//! if a sweep of 50 seeds or more ran no seed under one of `sync`,
//! `group` and `partitioned`.
//!
//! Usage: `torture [--seeds N] [--first S] [--artifacts DIR]
//! [--watchdog-secs T] [--checkpoint] [--sustain-secs S] [--server]`.

use mmdb_session::torture;
use mmdb_session::torture::Scenario;
use mmdb_session::{CommitPolicy, TortureReport};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

struct Config {
    seeds: u64,
    first: u64,
    artifacts: PathBuf,
    watchdog: Duration,
    checkpoint: bool,
    sustain: Option<Duration>,
    server: bool,
}

fn parse_args() -> Config {
    let mut cfg = Config {
        seeds: 100,
        first: 0,
        artifacts: PathBuf::from("target/torture-artifacts"),
        watchdog: Duration::from_secs(600),
        checkpoint: false,
        sustain: None,
        server: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seeds" => cfg.seeds = value(&mut args, &arg),
            "--first" => cfg.first = value(&mut args, &arg),
            "--artifacts" => cfg.artifacts = value(&mut args, &arg),
            "--watchdog-secs" => cfg.watchdog = Duration::from_secs(value(&mut args, &arg)),
            "--checkpoint" => cfg.checkpoint = true,
            "--server" => cfg.server = true,
            "--sustain-secs" => {
                cfg.checkpoint = true;
                cfg.sustain = Some(Duration::from_secs(value(&mut args, &arg)));
            }
            other => panic!("unknown argument {other}"),
        }
    }
    cfg
}

/// The value after flag `name`, parsed.
fn value<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, name: &str) -> T {
    let parsed = args.next().and_then(|v| v.parse().ok());
    parsed.unwrap_or_else(|| panic!("{name} needs a value"))
}

fn main() {
    let cfg = parse_args();
    // The watchdog is the last line of the no-hang guarantee: if any
    // seed wedges a thread, the whole process dies loudly instead of
    // idling until CI's own timeout obscures which seed hung.
    let deadline = cfg.watchdog;
    std::thread::spawn(move || {
        std::thread::sleep(deadline);
        eprintln!("torture: watchdog fired after {deadline:?} — a seed hung");
        std::process::exit(124);
    });

    let started = Instant::now();
    // The sustained-load acceptance run first: long traffic, one crash,
    // bounded recovery — failure keeps its artifacts like any seed.
    if let Some(sustain) = cfg.sustain {
        println!(
            "torture: sustained checkpoint run ({}s of traffic)...",
            sustain.as_secs()
        );
        let dir = cfg.artifacts.join("sustained");
        for report in passed(torture::sweep(cfg.first, 1, &dir, |seed, dir| {
            torture::run_checkpoint_seed(seed, dir, Some(sustain))
        })) {
            println!(
                "torture: sustained run ok ({} committed, {} recovered)",
                report.committed, report.recovered
            );
        }
    }
    let per_seed: fn(u64, &Path) -> mmdb_types::Result<TortureReport> = if cfg.server {
        mmdb_server::torture::run_server_seed
    } else if cfg.checkpoint {
        |seed, dir| torture::run_checkpoint_seed(seed, dir, None)
    } else {
        torture::run_seed
    };
    let mut reports = Vec::new();
    let mut done = 0;
    while done < cfg.seeds {
        let block = PROGRESS_EVERY.min(cfg.seeds - done);
        reports.extend(passed(torture::sweep(
            cfg.first + done,
            block,
            &cfg.artifacts,
            per_seed,
        )));
        done += block;
        println!(
            "torture: {done}/{} seeds ok ({:.1}s)",
            cfg.seeds,
            started.elapsed().as_secs_f64()
        );
    }

    // Per scenario, by name: seeds run, faults seen to land.
    let mut by_scenario: BTreeMap<&str, (Scenario, u64, u64)> = BTreeMap::new();
    let mut by_policy: BTreeMap<&str, u64> = BTreeMap::new();
    for report in &reports {
        let tally = by_scenario
            .entry(report.scenario.name())
            .or_insert((report.scenario, 0, 0));
        tally.1 += 1;
        tally.2 += report.faults_fired;
        *by_policy.entry(report.policy.name()).or_insert(0) += 1;
    }
    println!(
        "torture: {} seeds passed in {:.1}s ({} degraded runs, {} corrupt pages dropped)",
        cfg.seeds,
        started.elapsed().as_secs_f64(),
        reports.iter().filter(|r| r.degraded).count(),
        reports
            .iter()
            .map(|r| r.corrupt_pages_dropped)
            .sum::<usize>()
    );
    for (name, (scenario, count, faults)) in &by_scenario {
        if *faults > 0 || scenario.must_fire_within().is_some() {
            println!("torture:   scenario {name}: {count} ({faults} faults landed)");
        } else {
            println!("torture:   scenario {name}: {count}");
        }
    }
    for (policy, count) in &by_policy {
        println!("torture:   policy {policy}: {count}");
    }
    for (name, (scenario, count, faults)) in &by_scenario {
        if scenario.must_fire_within().is_some_and(|n| *count >= n) && *faults == 0 {
            eprintln!("torture: FAILED: {name} ran {count} seeds and landed no fault");
            std::process::exit(1);
        }
    }
    if cfg.seeds >= MIN_SEEDS_FOR_EVERY_POLICY {
        for policy in EVERY_POLICY.map(|p| p.name()) {
            if !by_policy.contains_key(policy) {
                eprintln!(
                    "torture: FAILED: {} seeds and none ran policy {policy}",
                    cfg.seeds
                );
                std::process::exit(1);
            }
        }
    }
}

/// The reports of a sweep that passed; a violation (its artifact
/// directory named in the error) ends the process.
fn passed(sweep: mmdb_types::Result<Vec<TortureReport>>) -> Vec<TortureReport> {
    sweep.unwrap_or_else(|e| {
        eprintln!("torture: FAILED: {e}");
        std::process::exit(1)
    })
}

/// Seeds per [`torture::sweep`] call, and so per progress line.
const PROGRESS_EVERY: u64 = 50;

/// Every commit policy a seed may draw. A sweep that skipped one would
/// leave that policy's writers — the multi-writer path above all — out
/// of the gate.
const EVERY_POLICY: [CommitPolicy; 3] = [
    CommitPolicy::Synchronous,
    CommitPolicy::Group,
    CommitPolicy::Partitioned { devices: 2 },
];

/// Seeds a sweep needs before it must have run every policy.
const MIN_SEEDS_FOR_EVERY_POLICY: u64 = 50;
