//! Full-stack seeded chaos torture: SQL over TCP under network faults
//! and engine crashes, checked against the recovered image.
//!
//! The log-layer harness (`mmdb_session::torture`) proves the engine
//! survives device failure; this one extends the same discipline up
//! the wire. One `u64` seed derives a [`ServerChaosScenario`], a
//! per-connection [`NetFaultPlan`] stream, and a concurrent transfer
//! workload driven purely through [`Client`] — parse → plan → engine →
//! WAL and back. The run then drains, crashes the engine, recovers
//! fault-free, and checks through a *clean* connection:
//!
//! * **The recovery oracle holds.** Each transaction inserts one unique
//!   ledger marker, its [`Transfer`] id; the recovered markers and
//!   account balances go through the same
//!   [`mmdb_session::torture::check_recovered`] as the engine-level
//!   harnesses: every acked `COMMIT` recovered, every recovered marker
//!   acked or unknown (its `COMMIT` answer lost in flight — never
//!   retried), and every balance exactly the sum of the recovered
//!   transfers' deltas, summing to zero. SQL clients see no LSNs, so
//!   the prefix rule has nothing to order here.
//! * **No silent duplication.** A retry that re-applied committed work
//!   would show up as a duplicate marker. This is the wire-level proof
//!   that the client's retry taxonomy never resubmits non-idempotent
//!   work.
//! * **The row cache is the engine.** Once drained, before the crash,
//!   the server's [`mmdb_sql::SqlDb`] audit must pass: every cached row
//!   equals the engine's record for its key, whatever mix of aborts,
//!   deadlock victims and dropped connections the seed produced.
//! * **The failure surface is honest.** A connection that dies with a
//!   transaction open must surface as
//!   [`ClientError::ConnectionLost`]` { in_txn: true }` — never as a
//!   shape a naive caller would blindly retry.
//! * **Nobody hangs.** Every deadline is finite; the runner's watchdog
//!   bounds the whole sweep.
//!
//! Run as `cargo torture --server --seeds N`.

use crate::client::{Client, ClientConfig, ClientError, Dialer};
use crate::server::{Server, ServerConfig};
use crate::transport::{ChaosTransport, NetFaultPlan, Transport};
use mmdb_session::torture::{check_recovered, draw_options, violation, Outcome, Transfer};
use mmdb_session::{Engine, EngineOptions, TortureReport};
use mmdb_types::{Auditable, Error, Result, WorkloadRng};
use std::collections::BTreeSet;
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Accounts the workload transfers between (ids `0..KEYS`).
const KEYS: u64 = 6;

/// The network/overload failure a seed injects into its run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerChaosScenario {
    /// No faults: the baseline the chaotic seeds must not regress.
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

impl ServerChaosScenario {
    fn from(rng: &mut WorkloadRng) -> ServerChaosScenario {
        match rng.below(8) {
            0 => ServerChaosScenario::CleanWire,
            1 => ServerChaosScenario::DropWire,
            2 => ServerChaosScenario::TornWire,
            3 => ServerChaosScenario::StallWire,
            4 => ServerChaosScenario::DupWire,
            5 => ServerChaosScenario::DelayWire,
            6 => ServerChaosScenario::Overload,
            _ => ServerChaosScenario::MidRunCrash,
        }
    }

    /// Stable name for reports and artifact directories.
    pub fn name(self) -> &'static str {
        match self {
            ServerChaosScenario::CleanWire => "clean-wire",
            ServerChaosScenario::DropWire => "drop-wire",
            ServerChaosScenario::TornWire => "torn-wire",
            ServerChaosScenario::StallWire => "stall-wire",
            ServerChaosScenario::DupWire => "dup-wire",
            ServerChaosScenario::DelayWire => "delay-wire",
            ServerChaosScenario::Overload => "overload",
            ServerChaosScenario::MidRunCrash => "mid-run-crash",
        }
    }

    /// The fault plan for one freshly dialed connection. Half the
    /// connections dial clean so chaotic seeds still make progress.
    fn draw_plan(self, rng: &mut WorkloadRng) -> NetFaultPlan {
        if rng.below(2) == 0 {
            return NetFaultPlan::none();
        }
        match self {
            ServerChaosScenario::CleanWire
            | ServerChaosScenario::Overload
            | ServerChaosScenario::MidRunCrash => NetFaultPlan::none(),
            ServerChaosScenario::DropWire => NetFaultPlan::none().drop_at(4 + rng.below(60)),
            ServerChaosScenario::TornWire => {
                NetFaultPlan::none().torn_write(1 + rng.below(16), rng.below(6) as usize)
            }
            ServerChaosScenario::StallWire => NetFaultPlan::none()
                .stall_reads(1 + rng.below(4), Duration::from_millis(1 + rng.below(6)))
                .stall_writes(1 + rng.below(4), Duration::from_millis(1 + rng.below(6))),
            ServerChaosScenario::DupWire => NetFaultPlan::none().dup_write(1 + rng.below(16)),
            ServerChaosScenario::DelayWire => NetFaultPlan::none().delay_write(1 + rng.below(16)),
        }
    }
}

/// How one attempt of a transfer transaction ended.
enum Attempt {
    /// COMMIT answered OK.
    Committed,
    /// The commit's fate is unknowable from here: never retried.
    Unknown,
    /// Definitively rolled back: safe to retry the same marker.
    Aborted,
    /// The client surfaced a failure shape its contract forbids.
    Violation(String),
}

/// The currently serving address, shared with every dialer so a
/// mid-run crash can repoint them at the successor server.
fn current_addr(slot: &AtomicU64) -> SocketAddr {
    // ordering: the port is an independent word updated once per
    // server generation; a stale read just means one more refused
    // dial, which the dialer retry loop absorbs.
    SocketAddr::from(([127, 0, 0, 1], slot.load(Ordering::Relaxed) as u16))
}

/// What every dialer of a run shares: where the server is now, and
/// the run's tally of faults its chaos transports fired.
#[derive(Clone)]
struct Wire {
    port: Arc<AtomicU64>,
    faults: Arc<AtomicU64>,
}

fn make_dialer(wire: Wire, scenario: ServerChaosScenario, dial_seed: u64) -> Dialer {
    let mut rng = WorkloadRng::seeded(dial_seed);
    Box::new(move || {
        let addr = current_addr(&wire.port);
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
        let chaos = ChaosTransport::new(stream, scenario.draw_plan(&mut rng));
        Ok(Box::new(chaos.count_into(Arc::clone(&wire.faults))) as Box<dyn Transport>)
    })
}

fn chaos_client_config(seed: u64, client: u64) -> ClientConfig {
    ClientConfig {
        connect_timeout: Duration::from_secs(2),
        read_deadline: Duration::from_secs(2),
        write_timeout: Duration::from_secs(2),
        max_retries: 2,
        backoff_base: Duration::from_millis(2),
        backoff_cap: Duration::from_millis(20),
        retry_seed: seed ^ client.wrapping_mul(0x0DD_BA11),
        registry: None,
    }
}

/// Builds a chaos client, retrying the eager dial while a mid-run
/// crash swaps servers. `None` once the retry budget is exhausted.
fn connect_chaos(
    wire: &Wire,
    scenario: ServerChaosScenario,
    seed: u64,
    client: u64,
    generation: &mut u64,
) -> Option<Client> {
    for _ in 0..100 {
        *generation = generation.wrapping_add(1);
        let dialer = make_dialer(
            wire.clone(),
            scenario,
            seed ^ client.wrapping_mul(0x00C0_FFEE) ^ generation.wrapping_mul(0x1_0000_0001),
        );
        match Client::from_dialer(dialer, chaos_client_config(seed, client)) {
            Ok(c) => return Some(c),
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    None
}

/// Classifies a failure of a statement sent *inside* the transaction
/// (after BEGIN succeeded, before COMMIT). In every tolerated shape
/// the transaction is definitively rolled back: an in-band error means
/// the server aborted it, and a torn connection kills the server
/// session (whose drop aborts it). The forbidden shapes are the ones a
/// naive caller would auto-retry.
fn classify_mid_txn(e: &ClientError) -> Attempt {
    match e {
        ClientError::Server { .. } => Attempt::Aborted,
        ClientError::ConnectionLost { in_txn: true, .. } => Attempt::Aborted,
        ClientError::Timeout(_) => Attempt::Aborted,
        ClientError::Protocol(_) => Attempt::Aborted,
        ClientError::ConnectionLost { in_txn: false, .. } => Attempt::Violation(format!(
            "mid-transaction failure reported as ConnectionLost {{ in_txn: false }}: {e}"
        )),
        ClientError::Io(_) => Attempt::Violation(format!(
            "mid-transaction failure reported as a bare dial error: {e}"
        )),
    }
}

/// Runs one transfer transaction through `client`. Any statement may
/// fail at any moment; the returned [`Attempt`] is the fate.
fn attempt_transfer(client: &mut Client, t: &Transfer) -> Attempt {
    // BEGIN is sent outside any transaction: every failure there means
    // nothing started — plain abort, no special shapes required.
    if client.execute("BEGIN").is_err() {
        return Attempt::Aborted;
    }
    let body = [
        format!(
            "UPDATE acct SET bal = bal - {} WHERE id = {}",
            t.amount, t.from
        ),
        format!(
            "UPDATE acct SET bal = bal + {} WHERE id = {}",
            t.amount, t.to
        ),
        format!("INSERT INTO ledger VALUES ({}, {}, {})", t.id, t.from, t.to),
    ];
    for sql in &body {
        if let Err(e) = client.execute(sql) {
            return classify_mid_txn(&e);
        }
        if !client.in_transaction() {
            // Defensive: the client believes the transaction is gone
            // even though the statement answered OK — treat as aborted
            // rather than committing a half-transfer.
            return Attempt::Aborted;
        }
    }
    match client.execute("COMMIT") {
        Ok(_) => Attempt::Committed,
        // An in-band COMMIT failure is ambiguous at this layer (the
        // engine may have aborted, or only the ack path failed), so
        // the harness refuses to retry: conservative Unknown.
        Err(ClientError::Server { .. }) => Attempt::Unknown,
        // The answer was lost with the connection: Unknown, never
        // retried — this is the oracle's bait for unsafe retry logic.
        Err(ClientError::ConnectionLost { .. })
        | Err(ClientError::Timeout(_))
        | Err(ClientError::Protocol(_)) => Attempt::Unknown,
        Err(e @ ClientError::Io(_)) => classify_mid_txn(&e),
    }
}

/// One client thread's workload: `txns` transfers, each retried at
/// most once and only when the previous attempt definitively aborted.
fn run_chaos_client(
    wire: Wire,
    scenario: ServerChaosScenario,
    seed: u64,
    client_id: u64,
    txns: u64,
) -> std::result::Result<Vec<Transfer>, String> {
    let mut rng = WorkloadRng::seeded((seed ^ client_id.wrapping_mul(0x00C0_FFEE)) | 1);
    let mut generation = 0u64;
    let mut client = connect_chaos(&wire, scenario, seed, client_id, &mut generation);
    let mut transfers = Vec::with_capacity(txns as usize);
    for s in 0..txns {
        let from = rng.below(KEYS);
        let to = (from + 1 + rng.below(KEYS - 1)) % KEYS;
        let mut t = Transfer {
            id: client_id * 10_000 + s,
            from,
            to,
            amount: 1 + rng.below(9) as i64,
            outcome: Outcome::Failed,
            lsn: None,
        };
        // Warm-up autocommit read: exercises the read-shedding path and
        // the client's safe SELECT auto-retry; every outcome tolerated.
        if let Some(c) = client.as_mut() {
            let _ = c.execute(&format!("SELECT bal FROM acct WHERE id = {from}"));
        }
        for _attempt in 0..2 {
            let c = match client.as_mut() {
                Some(c) => c,
                None => {
                    client = connect_chaos(&wire, scenario, seed, client_id, &mut generation);
                    match client.as_mut() {
                        Some(c) => c,
                        None => break,
                    }
                }
            };
            match attempt_transfer(c, &t) {
                Attempt::Violation(msg) => return Err(msg),
                Attempt::Committed => {
                    t.outcome = Outcome::Acked;
                    break;
                }
                Attempt::Unknown => {
                    t.outcome = Outcome::Unknown;
                    break;
                }
                Attempt::Aborted => {
                    // Definitely rolled back: loop retries the same
                    // marker exactly once.
                }
            }
        }
        transfers.push(t);
    }
    Ok(transfers)
}

fn server_config(scenario: ServerChaosScenario) -> ServerConfig {
    let mut cfg = ServerConfig {
        idle_timeout: Duration::from_secs(10),
        ..ServerConfig::default()
    };
    if scenario == ServerChaosScenario::Overload {
        cfg.max_inflight_statements = 1;
        cfg.admission_queue = 1;
        cfg.admission_deadline = Duration::from_millis(25);
    }
    cfg
}

/// Runs SQL on a plain (chaos-free) client, mapping failure into a
/// seed violation — the verification connection must just work.
fn must(client: &mut Client, sql: &str, seed: u64) -> Result<mmdb_sql::QueryResult> {
    client
        .execute(sql)
        .map_err(|e| violation(seed, format!("verification statement {sql:?} failed: {e}")))
}

fn int_at(row: &[mmdb_types::Value], idx: usize) -> Option<i64> {
    row.get(idx).and_then(|v| v.as_int())
}

/// Drains the server — every in-flight request finishes and is
/// answered, every session is dropped — and audits its row cache
/// against the engine at that quiescent point.
fn drain_and_audit(handle: crate::server::ServerHandle, seed: u64) -> Result<()> {
    let db = handle.db().clone();
    handle.shutdown()?;
    db.audit()
        .map_err(|v| violation(seed, format!("after drain: {v}")))
}

/// Phase 1+2: serve traffic under chaos (optionally crashing the
/// engine mid-run), then drain. Returns the engine for the final
/// crash/recover, every client's transfer record, and how many network
/// faults fired.
fn run_workload(
    seed: u64,
    scenario: ServerChaosScenario,
    options: &EngineOptions,
    rng: &mut WorkloadRng,
) -> Result<(Engine, Vec<Transfer>, u64)> {
    let engine = Engine::start(options.clone())?;
    let cfg = server_config(scenario);
    let handle = Server::start(&engine, cfg.clone())?;
    let wire = Wire {
        port: Arc::new(AtomicU64::new(u64::from(handle.addr().port()))),
        faults: Arc::default(),
    };

    // Schema + zeroed accounts through a plain client.
    {
        let mut init = Client::connect(handle.addr())
            .map_err(|e| violation(seed, format!("init connect failed: {e}")))?;
        must(&mut init, "CREATE TABLE acct (id INT, bal INT)", seed)?;
        let rows: Vec<String> = (0..KEYS).map(|id| format!("({id}, 0)")).collect();
        must(
            &mut init,
            &format!("INSERT INTO acct VALUES {}", rows.join(", ")),
            seed,
        )?;
        must(
            &mut init,
            "CREATE TABLE ledger (marker INT, src INT, dst INT)",
            seed,
        )?;
    }

    let clients = 2 + rng.below(2);
    let txns_per_client = 3 + rng.below(5);
    let crash_after = Duration::from_millis(10 + rng.below(60));

    let mut joins = Vec::new();
    for client_id in 0..clients {
        let wire_c = wire.clone();
        let join = std::thread::Builder::new()
            .name(format!("server-chaos-client-{client_id}"))
            .spawn(move || run_chaos_client(wire_c, scenario, seed, client_id, txns_per_client))
            .map_err(|e| Error::Io(format!("spawn chaos client: {e}")))?;
        joins.push(join);
    }

    // Mid-run crash: drain the server, crash the engine, recover, and
    // repoint the dialers at the successor. Clients ride it out via
    // reconnects; their open transactions die honestly.
    let (engine, handle) = if scenario == ServerChaosScenario::MidRunCrash {
        std::thread::sleep(crash_after);
        drain_and_audit(handle, seed)?;
        engine.crash()?;
        let (engine2, _info) = Engine::recover(options.clone())?;
        let handle2 = Server::start(&engine2, cfg)?;
        let port = u64::from(handle2.addr().port());
        // ordering: see current_addr — dialers tolerate staleness.
        wire.port.store(port, Ordering::Relaxed);
        (engine2, handle2)
    } else {
        (engine, handle)
    };

    let mut transfers = Vec::new();
    for join in joins {
        let client_transfers = join
            .join()
            .map_err(|_| violation(seed, "chaos client thread panicked".to_string()))?
            .map_err(|msg| violation(seed, msg))?;
        transfers.extend(client_transfers);
    }

    drain_and_audit(handle, seed)?;
    // ordering: every client thread was joined above, so the tally is
    // final; the counter publishes no other data.
    let faults_fired = wire.faults.load(Ordering::Relaxed);
    Ok((engine, transfers, faults_fired))
}

/// Runs one full seeded server-chaos iteration in `log_dir` (created
/// fresh; kept by the caller on `Err` as the failure artifact). See
/// the module docs for the properties checked.
pub fn run_server_seed(seed: u64, log_dir: &Path) -> Result<TortureReport> {
    std::fs::remove_dir_all(log_dir).ok();
    let mut rng = WorkloadRng::seeded(seed ^ 0x5E12_7EC4_A05C_0D1E);
    let scenario = ServerChaosScenario::from(&mut rng);
    let options = draw_options(&mut rng, log_dir).with_lock_wait_timeout(Duration::from_millis(30));

    let (engine, transfers, faults_fired) = run_workload(seed, scenario, &options, &mut rng)?;

    // Dump the workload's view of every transfer next to the log: on a
    // failing seed the directory is kept, and the oracle's verdict is
    // only interpretable against what each client thought happened.
    let dump: String = transfers.iter().map(|t| format!("{t:?}\n")).collect();
    std::fs::write(log_dir.join("transfers.txt"), dump).ok();

    // Final failure + fault-free recovery.
    engine.crash()?;
    let (engine, _info) = Engine::recover(options.clone())?;

    // Verify through a fresh server and a plain client.
    let handle = Server::start(&engine, ServerConfig::default())?;
    let mut check = Client::connect(handle.addr())
        .map_err(|e| violation(seed, format!("verify connect failed: {e}")))?;

    let mut recovered_markers: BTreeSet<u64> = BTreeSet::new();
    for row in &must(&mut check, "SELECT marker FROM ledger", seed)?.rows {
        let marker = int_at(row, 0)
            .and_then(|m| u64::try_from(m).ok())
            .ok_or_else(|| violation(seed, format!("ledger row {row:?} holds no marker")))?;
        if !recovered_markers.insert(marker) {
            return Err(violation(
                seed,
                format!("duplicate ledger marker {marker}: non-idempotent work was re-applied"),
            ));
        }
    }
    let mut balances: Vec<Option<i64>> = vec![None; KEYS as usize];
    for row in &must(&mut check, "SELECT id, bal FROM acct", seed)?.rows {
        let slot = int_at(row, 0)
            .and_then(|id| usize::try_from(id).ok())
            .and_then(|id| balances.get_mut(id))
            .filter(|slot| slot.is_none());
        match (slot, int_at(row, 1)) {
            (Some(slot), Some(bal)) => *slot = Some(bal),
            _ => return Err(violation(seed, format!("unexpected acct row {row:?}"))),
        }
    }
    let balances: Vec<i64> = balances
        .into_iter()
        .collect::<Option<_>>()
        .ok_or_else(|| violation(seed, "an acct row is missing".to_string()))?;
    let recovered = check_recovered(seed, &transfers, &recovered_markers, &balances, false)?;

    // Liveness probe: the recovered stack still serves writes.
    must(&mut check, "INSERT INTO ledger VALUES (-1, -1, -1)", seed)?;
    let probe = must(
        &mut check,
        "SELECT marker FROM ledger WHERE marker = -1",
        seed,
    )?;
    if probe.rows.len() != 1 {
        return Err(violation(seed, "liveness probe row missing".to_string()));
    }

    handle.shutdown()?;
    engine.shutdown()?;

    Ok(TortureReport {
        faults_fired,
        ..TortureReport::tally(
            seed,
            &format!("server-{}", scenario.name()),
            options.policy.name(),
            &transfers,
            recovered,
        )
    })
}

#[cfg(test)]
mod tests {
    #[test]
    fn a_few_server_seeds_pass_end_to_end() {
        // The broad sweep is the server-chaos CI job; this is the fast
        // in-crate smoke check that the driver and its oracle still run.
        let dir =
            std::env::temp_dir().join(format!("mmdb-server-torture-unit-{}", std::process::id()));
        let reports = mmdb_session::torture::sweep(0, 8, &dir, super::run_server_seed).unwrap();
        assert_eq!(reports.len(), 8);
        std::fs::remove_dir_all(&dir).ok();
    }
}
