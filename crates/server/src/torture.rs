//! The wire entry point of the seeded torture runner: SQL over TCP
//! under network faults and engine crashes, checked against the
//! recovered image.
//!
//! The runner's skeleton, [`mmdb_session::torture::run_entry`], starts
//! the engine, runs the clients, crashes, recovers and checks; this
//! module supplies what differs when faults enter at the wire. One `u64`
//! seed draws a wire [`Scenario`] ([`draw_wire`]), a per-connection
//! [`NetFaultPlan`] stream, and a concurrent transfer workload driven
//! purely through [`Client`] — parse → plan → engine → WAL and back. The
//! run then drains, crashes the engine, recovers fault-free, and checks
//! through a *clean* connection:
//!
//! * **The recovery oracle holds.** Each transaction inserts one unique
//!   ledger marker, its [`Transfer`] id, and the recovered markers and
//!   balances go through [`mmdb_session::torture::check_recovered`]. A
//!   `COMMIT` whose answer was lost in flight is unknown and never
//!   retried; SQL clients see no LSNs, so the prefix rule has nothing to
//!   order here.
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
//! * **The recovered stack serves.** A fresh server on the recovered
//!   engine takes a write and reads it back.
//! * **Nobody hangs.** Every deadline is finite; the runner's watchdog
//!   bounds the whole sweep.
//!
//! Run as `cargo torture --server --seeds N`.

use crate::client::{Client, ClientConfig, ClientError, Dialer};
use crate::server::{Server, ServerConfig};
use crate::transport::{ChaosTransport, NetFaultPlan, Transport};
use mmdb_session::torture::{
    draw_options, run_entry, violation, Draw, Outcome, Scenario, Transfer,
};
use mmdb_session::TortureReport;
use mmdb_types::{Auditable, Result, WorkloadRng};
use std::collections::BTreeSet;
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Accounts the workload transfers between (ids `0..KEYS`).
const KEYS: u64 = 6;

/// The fault plan for one freshly dialed connection of a wire scenario.
/// Half the connections dial clean so chaotic seeds still make progress.
fn net_plan(scenario: Scenario, rng: &mut WorkloadRng) -> NetFaultPlan {
    if rng.below(2) == 0 {
        return NetFaultPlan::none();
    }
    match scenario {
        Scenario::DropWire => NetFaultPlan::none().drop_at(4 + rng.below(60)),
        Scenario::TornWire => {
            NetFaultPlan::none().torn_write(1 + rng.below(16), rng.below(6) as usize)
        }
        Scenario::StallWire => NetFaultPlan::none()
            .stall_reads(1 + rng.below(4), Duration::from_millis(1 + rng.below(6)))
            .stall_writes(1 + rng.below(4), Duration::from_millis(1 + rng.below(6))),
        Scenario::DupWire => NetFaultPlan::none().dup_write(1 + rng.below(16)),
        Scenario::DelayWire => NetFaultPlan::none().delay_write(1 + rng.below(16)),
        _ => NetFaultPlan::none(),
    }
}

/// What every dialer of a run shares: the port the server listens on
/// now (a mid-run crash repoints it at the successor), and the run's
/// tally of faults its chaos transports fired.
#[derive(Clone)]
struct Wire {
    port: Arc<AtomicU64>,
    faults: Arc<AtomicU64>,
}

/// Builds a chaos client, retrying the eager dial while a mid-run
/// crash swaps servers. `None` once the retry budget is exhausted.
fn connect_chaos(
    wire: &Wire,
    scenario: Scenario,
    seed: u64,
    client: u64,
    generation: &mut u64,
) -> Option<Client> {
    let config = ClientConfig {
        connect_timeout: Duration::from_secs(2),
        read_deadline: Duration::from_secs(2),
        write_timeout: Duration::from_secs(2),
        max_retries: 2,
        backoff_base: Duration::from_millis(2),
        backoff_cap: Duration::from_millis(20),
        retry_seed: seed ^ client.wrapping_mul(0x0DD_BA11),
        registry: None,
    };
    for _ in 0..100 {
        *generation = generation.wrapping_add(1);
        let dial_seed =
            seed ^ client.wrapping_mul(0x00C0_FFEE) ^ generation.wrapping_mul(0x1_0000_0001);
        let (wire, mut rng) = (wire.clone(), WorkloadRng::seeded(dial_seed));
        let dialer: Dialer = Box::new(move || {
            // ordering: the port is an independent word updated once per
            // server generation; a stale read just means one more refused
            // dial, which the dialer retry loop absorbs.
            let port = wire.port.load(Ordering::Relaxed) as u16;
            let addr = SocketAddr::from(([127, 0, 0, 1], port));
            let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
            let chaos = ChaosTransport::new(stream, net_plan(scenario, &mut rng));
            Ok(Box::new(chaos.count_into(Arc::clone(&wire.faults))) as Box<dyn Transport>)
        });
        match Client::from_dialer(dialer, config.clone()) {
            Ok(c) => return Some(c),
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    None
}

/// Classifies a failure of a statement sent *inside* the transaction
/// (after BEGIN succeeded, before COMMIT). In every tolerated shape
/// the transaction is definitively rolled back ([`Outcome::Failed`]):
/// an in-band error means the server aborted it, and a torn connection
/// kills the server session (whose drop aborts it). The forbidden
/// shapes, the ones a naive caller would auto-retry, are `Err`.
fn classify_mid_txn(e: &ClientError) -> std::result::Result<Outcome, String> {
    match e {
        ClientError::Server { .. } => Ok(Outcome::Failed),
        ClientError::ConnectionLost { in_txn: true, .. } => Ok(Outcome::Failed),
        ClientError::Timeout(_) => Ok(Outcome::Failed),
        ClientError::Protocol(_) => Ok(Outcome::Failed),
        ClientError::ConnectionLost { in_txn: false, .. } => Err(format!(
            "mid-transaction failure reported as ConnectionLost {{ in_txn: false }}: {e}"
        )),
        ClientError::Io(_) => Err(format!(
            "mid-transaction failure reported as a bare dial error: {e}"
        )),
    }
}

/// Runs one transfer transaction through `client`. Any statement may
/// fail at any moment; the returned [`Outcome`] is the fate (`Failed`:
/// definitively rolled back, safe to retry the same marker), and `Err`
/// a failure shape the client's contract forbids.
fn attempt_transfer(client: &mut Client, t: &Transfer) -> std::result::Result<Outcome, String> {
    // BEGIN is sent outside any transaction: every failure there means
    // nothing started — plain abort, no special shapes required.
    if client.execute("BEGIN").is_err() {
        return Ok(Outcome::Failed);
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
            return Ok(Outcome::Failed);
        }
    }
    match client.execute("COMMIT") {
        Ok(_) => Ok(Outcome::Acked),
        // An in-band COMMIT failure is ambiguous at this layer (the
        // engine may have aborted, or only the ack path failed), so
        // the harness refuses to retry: conservative Unknown.
        Err(ClientError::Server { .. }) => Ok(Outcome::Unknown),
        // The answer was lost with the connection: Unknown, never
        // retried — this is the oracle's bait for unsafe retry logic.
        Err(ClientError::ConnectionLost { .. })
        | Err(ClientError::Timeout(_))
        | Err(ClientError::Protocol(_)) => Ok(Outcome::Unknown),
        Err(e @ ClientError::Io(_)) => classify_mid_txn(&e),
    }
}

/// One client thread's workload: `txns` transfers, each retried at
/// most once and only when the previous attempt definitively aborted.
fn run_chaos_client(
    wire: &Wire,
    scenario: Scenario,
    seed: u64,
    client_id: u64,
    txns: u64,
) -> std::result::Result<Vec<Transfer>, String> {
    let mut rng = WorkloadRng::seeded((seed ^ client_id.wrapping_mul(0x00C0_FFEE)) | 1);
    let mut generation = 0u64;
    let mut client = connect_chaos(wire, scenario, seed, client_id, &mut generation);
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
            if client.is_none() {
                client = connect_chaos(wire, scenario, seed, client_id, &mut generation);
            }
            let Some(c) = client.as_mut() else {
                break;
            };
            t.outcome = attempt_transfer(c, &t)?;
            if t.outcome != Outcome::Failed {
                break;
            }
            // Definitely rolled back: the loop retries the same marker
            // exactly once.
        }
        transfers.push(t);
    }
    Ok(transfers)
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

/// Reads the recovered ledger markers and account balances through a
/// fresh server and a plain client — a marker seen twice is re-applied
/// work — then checks that the recovered stack still serves a write.
fn read_ledger(engine: &mmdb_session::Engine, seed: u64) -> Result<(BTreeSet<u64>, Vec<i64>)> {
    let handle = Server::start(engine, ServerConfig::default())?;
    let mut check = Client::connect(handle.addr())
        .map_err(|e| violation(seed, format!("verify connect failed: {e}")))?;
    let mut markers: BTreeSet<u64> = BTreeSet::new();
    for row in &must(&mut check, "SELECT marker FROM ledger", seed)?.rows {
        let marker = int_at(row, 0)
            .and_then(|m| u64::try_from(m).ok())
            .ok_or_else(|| violation(seed, format!("ledger row {row:?} holds no marker")))?;
        if !markers.insert(marker) {
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
    Ok((markers, balances))
}

/// The wire entry point's draw.
pub fn draw_wire(seed: u64, log_dir: &Path) -> Draw {
    let mut rng = WorkloadRng::seeded(seed ^ 0x5E12_7EC4_A05C_0D1E);
    let scenario = match rng.below(8) {
        0 => Scenario::CleanWire,
        1 => Scenario::DropWire,
        2 => Scenario::TornWire,
        3 => Scenario::StallWire,
        4 => Scenario::DupWire,
        5 => Scenario::DelayWire,
        6 => Scenario::Overload,
        _ => Scenario::MidRunCrash,
    };
    let options = draw_options(&mut rng, log_dir).with_lock_wait_timeout(Duration::from_millis(30));
    Draw {
        seed,
        scenario,
        options,
        restart_plan: None,
        clients: 2 + rng.below(2),
        txns_per_client: 3 + rng.below(5),
        rng,
    }
}

/// The wire entry point: one seeded server-chaos run in `log_dir`. The
/// clients talk SQL to a server on the live engine through chaos
/// transports; under [`Scenario::MidRunCrash`] the engine is crashed
/// and recovered mid-traffic and a successor server takes over. The
/// server is drained and audited once every client is done, before the
/// crash. See the module docs for the properties checked.
pub fn run_server_seed(seed: u64, log_dir: &Path) -> Result<TortureReport> {
    let draw = draw_wire(seed, log_dir);
    let mut cfg = ServerConfig {
        idle_timeout: Duration::from_secs(10),
        ..ServerConfig::default()
    };
    if draw.scenario == Scenario::Overload {
        cfg.max_inflight_statements = 1;
        cfg.admission_queue = 1;
        cfg.admission_deadline = Duration::from_millis(25);
    }
    run_entry(
        draw,
        |engine, run| {
            let handle = Server::start(engine, cfg.clone())?;
            let wire = Wire {
                port: Arc::new(AtomicU64::new(u64::from(handle.addr().port()))),
                faults: Arc::default(),
            };
            // Schema + zeroed accounts through a plain client.
            let mut init = Client::connect(handle.addr())
                .map_err(|e| violation(seed, format!("init connect failed: {e}")))?;
            let accounts: Vec<String> = (0..KEYS).map(|id| format!("({id}, 0)")).collect();
            must(&mut init, "CREATE TABLE acct (id INT, bal INT)", seed)?;
            must(
                &mut init,
                &format!("INSERT INTO acct VALUES {}", accounts.join(", ")),
                seed,
            )?;
            must(
                &mut init,
                "CREATE TABLE ledger (marker INT, src INT, dst INT)",
                seed,
            )?;
            let (dialers, scenario) = (wire.clone(), run.draw.scenario);
            let txns = run.draw.txns_per_client;
            let client = move |id| {
                run_chaos_client(&dialers, scenario, seed, id, txns)
                    .map_err(|msg| violation(seed, msg))
            };
            Ok((client, (handle, wire)))
        },
        |run, engine, (handle, wire)| {
            // Mid-run crash: drain the server, crash the engine, recover,
            // and repoint the dialers at the successor. Clients ride it
            // out via reconnects; their open transactions die honestly.
            let (engine, handle) = if run.draw.scenario == Scenario::MidRunCrash {
                std::thread::sleep(Duration::from_millis(10 + run.draw.rng.below(60)));
                drain_and_audit(handle, seed)?;
                engine.crash()?;
                let (successor, _) = mmdb_session::Engine::recover(run.draw.clean())?;
                let handle = Server::start(&successor, cfg.clone())?;
                let port = u64::from(handle.addr().port());
                // ordering: see connect_chaos — dialers tolerate staleness.
                wire.port.store(port, Ordering::Relaxed);
                (successor, handle)
            } else {
                (engine, handle)
            };
            run.join_clients()?;
            drain_and_audit(handle, seed)?;
            // ordering: every client thread was joined above, so the
            // tally is final; the counter publishes no other data.
            run.faults_fired += wire.faults.load(Ordering::Relaxed);
            Ok((engine, ()))
        },
        |_, ()| Ok(()),
        |_, engine, _, ()| read_ledger(engine, seed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_session::torture::Entry;

    #[test]
    fn every_wire_scenario_is_drawn_at_its_entry() {
        let seen: BTreeSet<&str> = (0..200)
            .map(|s| draw_wire(s, Path::new("drawn")).scenario)
            .inspect(|s| assert_eq!(s.entry(), Entry::Wire, "{s:?}"))
            .map(Scenario::name)
            .collect();
        assert_eq!(seen.len(), 8, "200 seeds drew only {seen:?}");
    }

    #[test]
    fn a_few_server_seeds_pass_end_to_end() {
        // The broad sweep is the server-chaos CI job; this is the fast
        // in-crate smoke check that the entry point and its oracle still run.
        let dir =
            std::env::temp_dir().join(format!("mmdb-server-torture-unit-{}", std::process::id()));
        let reports = mmdb_session::torture::sweep(0, 8, &dir, run_server_seed).unwrap();
        assert_eq!(reports.len(), 8);
        std::fs::remove_dir_all(&dir).ok();
    }
}
