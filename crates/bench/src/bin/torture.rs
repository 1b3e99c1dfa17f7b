//! The torture runner (§5), the binary behind `cargo torture` (an alias
//! in `.cargo/config.toml`). It runs all three seeded harnesses, each
//! through [`mmdb_session::torture::sweep`] fifty seeds per progress
//! line and each judged by the one recovery oracle,
//! [`mmdb_session::torture::check_recovered`]:
//!
//! * by default, crash torture ([`mmdb_session::torture::run_seed`]): a
//!   fault schedule on the log device, a plain crash, or a fault inside
//!   the checkpoint image a restart writes;
//! * `--checkpoint`, the §5.3 checkpoint scenarios (crash mid-sweep,
//!   crash before generation truncation, background sweeper under load),
//!   checked against a full-log oracle recovery; `--sustain-secs S` first
//!   runs one seed of S seconds of traffic whose recovery must be
//!   bounded by the checkpoint interval;
//! * `--server`, server chaos ([`mmdb_server::torture`]): SQL over TCP
//!   through a fault-injecting transport, overload shedding, and a
//!   mid-run crash→recover→reconnect.
//!
//! A watchdog thread turns any hang into exit code 124, and a failing
//! seed leaves its log directory under the artifact dir. A sweep also
//! fails if a scenario whose fault must land (`fault-during-recovery`,
//! torn-, dup- and delay-wire) ran and landed none — a green gate whose
//! faults stopped landing proves nothing — or if a sweep of 50 seeds or
//! more ran no seed under one of `sync`, `group` and `partitioned`.
//!
//! Usage: `torture [--seeds N] [--first S] [--artifacts DIR]
//! [--watchdog-secs T] [--checkpoint] [--sustain-secs S] [--server]`.

use mmdb_session::torture;
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
    let value = |name: &str, args: &mut dyn Iterator<Item = String>| {
        args.next()
            .unwrap_or_else(|| panic!("{name} needs a value"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seeds" => cfg.seeds = value("--seeds", &mut args).parse().expect("--seeds N"),
            "--first" => cfg.first = value("--first", &mut args).parse().expect("--first S"),
            "--artifacts" => cfg.artifacts = PathBuf::from(value("--artifacts", &mut args)),
            "--watchdog-secs" => {
                cfg.watchdog = Duration::from_secs(
                    value("--watchdog-secs", &mut args)
                        .parse()
                        .expect("--watchdog-secs T"),
                )
            }
            "--checkpoint" => cfg.checkpoint = true,
            "--server" => cfg.server = true,
            "--sustain-secs" => {
                cfg.checkpoint = true;
                cfg.sustain = Some(Duration::from_secs(
                    value("--sustain-secs", &mut args)
                        .parse()
                        .expect("--sustain-secs S"),
                ));
            }
            other => panic!("unknown argument {other}"),
        }
    }
    cfg
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
            torture::run_sustained_checkpoint(seed, dir, sustain)
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
        torture::run_checkpoint_seed
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

    // Per scenario: seeds run, faults seen to land.
    let mut by_scenario: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    let mut by_policy: BTreeMap<&str, u64> = BTreeMap::new();
    for report in &reports {
        let tally = by_scenario.entry(&report.scenario).or_insert((0, 0));
        tally.0 += 1;
        tally.1 += report.faults_fired;
        *by_policy.entry(&report.policy).or_insert(0) += 1;
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
    for (scenario, (count, faults)) in &by_scenario {
        if *faults > 0 || MUST_FIRE.contains(scenario) {
            println!("torture:   scenario {scenario}: {count} ({faults} faults landed)");
        } else {
            println!("torture:   scenario {scenario}: {count}");
        }
    }
    for (policy, count) in &by_policy {
        println!("torture:   policy {policy}: {count}");
    }
    for scenario in MUST_FIRE {
        if let Some((count @ MIN_SEEDS_TO_JUDGE.., 0)) = by_scenario.get(scenario) {
            eprintln!("torture: FAILED: {scenario} ran {count} seeds and landed no fault");
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

/// Scenarios whose whole point is a fault landing where it hurts — a
/// wire fault inside a frame, a disk fault inside a restart's image —
/// each must land at least once across a sweep that ran it.
const MUST_FIRE: [&str; 4] = [
    "server-torn-wire",
    "server-dup-wire",
    "server-delay-wire",
    "fault-during-recovery",
];

/// Half of a server seed's connections dial clean, so a handful of
/// seeds can honestly fire nothing; only judge a scenario that ran this
/// often.
const MIN_SEEDS_TO_JUDGE: u64 = 4;

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
