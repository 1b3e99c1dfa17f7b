//! The traced run: one workload replayed on one thread, in process, with
//! no socket, through the server's own per-request pipeline rebuilt from
//! public pieces — a span around every call into a layer:
//!
//! ```text
//! op
//! ├─ server.frame_in    write_frame + read_frame over a buffer
//! ├─ sql.parse          mmdb_sql::parse
//! ├─ server.admit       Admission::admit
//! ├─ sql.run.<kind>     SqlSession::run
//! ├─ server.encode      proto::encode_ok
//! └─ server.frame_out   write_frame + read_frame + decode_response
//! ```
//!
//! Every other operation runs the same calls with the recorder off, so
//! the tracing overhead is measured inside the same replay, under the
//! same device conditions.

use crate::probe::LoadedDb;
use crate::session::{counter_delta, histogram_mean_delta};
use mmdb_benchmark::gen::Op;
use mmdb_benchmark::json::{obj, Json};
use mmdb_benchmark::span::{budget, BudgetLine, Recorder, Span};
use mmdb_benchmark::stats::percentile;
use mmdb_server::admission::{Admission, AdmitClass};
use mmdb_server::proto::{self, FrameRead};
use mmdb_server::ServerConfig;
use mmdb_session::StatsSnapshot;
use mmdb_sql::parse;
use std::io::Cursor;
use std::time::Instant;

pub struct Replay {
    pub spans: Vec<Span>,
    pub budget: Vec<BudgetLine>,
    /// Median wall time of a traced and of an untraced operation, µs.
    pub traced_op_us: f64,
    pub untraced_op_us: f64,
    pub stats_before: StatsSnapshot,
    pub stats_after: StatsSnapshot,
}

impl Replay {
    /// Σ over span names of the p50 self time per operation.
    pub fn explained_us(&self) -> f64 {
        self.budget.iter().map(|l| l.p50_self_us).sum()
    }

    pub fn overhead_share(&self) -> f64 {
        (self.traced_op_us - self.untraced_op_us) / self.untraced_op_us
    }
}

fn run_span(kind: &str) -> &'static str {
    match kind {
        "begin" => "sql.run.begin",
        "commit" => "sql.run.commit",
        "abort" => "sql.run.abort",
        "select" => "sql.run.select",
        "update" => "sql.run.update",
        "insert" => "sql.run.insert",
        "delete" => "sql.run.delete",
        _ => "sql.run.other",
    }
}

/// Replays `ops` in order: even operations traced, odd ones not.
pub fn replay(db: &LoadedDb, ops: &[&Op]) -> Result<Replay, String> {
    let defaults = ServerConfig::default();
    let admission = Admission::new(
        defaults.max_inflight_statements,
        defaults.admission_queue,
        defaults.admission_deadline,
    );
    let mut session = db.db.session();
    let mut traced = Recorder::new(true, ops.len() * 16);
    let mut untraced = Recorder::new(false, 0);
    let mut wire: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut op_ns: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
    let mut problem: Option<String> = None;
    let stats_before = db.engine.stats();
    for (i, op) in ops.iter().enumerate() {
        let rec = if i % 2 == 0 {
            &mut traced
        } else {
            &mut untraced
        };
        let op_id = i as u32;
        let started = Instant::now();
        let root = rec.open("op", None, op_id);
        for sql in &op.sql {
            let request = rec.time("server.frame_in", Some(root), op_id, || {
                wire.clear();
                proto::write_frame(&mut wire, sql.as_bytes()).expect("write to memory");
                match proto::read_frame(&mut Cursor::new(&wire)).expect("read from memory") {
                    FrameRead::Frame(payload) => payload,
                    other => panic!("expected a frame, got {other:?}"),
                }
            });
            let stmt = rec.time("sql.parse", Some(root), op_id, || {
                parse(std::str::from_utf8(&request).expect("utf-8")).expect("parse")
            });
            let kind = stmt.kind();
            let class = if session.in_transaction() {
                AdmitClass::InTxn
            } else if kind == "select" {
                AdmitClass::Read
            } else {
                AdmitClass::Write
            };
            let permit = rec.time("server.admit", Some(root), op_id, || admission.admit(class));
            let outcome = rec.time(run_span(kind), Some(root), op_id, || session.run(&stmt));
            drop(permit);
            let result = match outcome {
                Ok(r) => r,
                Err(e) => {
                    problem.get_or_insert(format!("{sql}: {e}"));
                    break;
                }
            };
            let response = rec.time("server.encode", Some(root), op_id, || {
                proto::encode_ok(&result).expect("encode")
            });
            rec.time("server.frame_out", Some(root), op_id, || {
                wire.clear();
                proto::write_frame(&mut wire, &response).expect("write to memory");
                match proto::read_frame(&mut Cursor::new(&wire)).expect("read from memory") {
                    FrameRead::Frame(payload) => proto::decode_response(&payload)
                        .expect("decode")
                        .expect("an ok response"),
                    other => panic!("expected a frame, got {other:?}"),
                }
            });
        }
        rec.close(root);
        op_ns[i % 2].push(started.elapsed().as_nanos() as u64);
    }
    let stats_after = db.engine.stats();
    if let Some(p) = problem {
        return Err(format!("traced replay: {p}"));
    }
    let [mut traced_ns, mut untraced_ns] = op_ns;
    let spans = traced.into_spans();
    Ok(Replay {
        budget: budget(&spans),
        spans,
        traced_op_us: percentile(&mut traced_ns, 0.5).unwrap_or(0) as f64 / 1e3,
        untraced_op_us: percentile(&mut untraced_ns, 0.5).unwrap_or(1) as f64 / 1e3,
        stats_before,
        stats_after,
    })
}

/// Per-commit means from the engine's own metrics over the replay: how
/// much of `sql.run.*` is spent inside the engine, and on the device.
pub struct CommitSplit {
    pub commits: u64,
    /// The engine clocks a commit from `begin` to durable.
    pub begin_to_durable_us: f64,
    pub fsync_us: f64,
}

pub fn commit_split(r: &Replay) -> CommitSplit {
    let mean = |family: &str| histogram_mean_delta(&r.stats_before, &r.stats_after, family);
    CommitSplit {
        commits: counter_delta(
            &r.stats_before,
            &r.stats_after,
            "mmdb_session_commits_total",
        ),
        begin_to_durable_us: mean("mmdb_session_commit_latency_us"),
        fsync_us: mean("mmdb_session_fsync_us"),
    }
}

/// Prints the budget table and returns `budget.residual_share`.
pub fn print_budget(
    workload: &str,
    r: &Replay,
    measured_p50_us: f64,
    noop_rtt_us: f64,
    round_trips: usize,
) -> f64 {
    let explained = r.explained_us();
    println!(
        "{workload} latency budget (p50 self time per operation, {} traced operations)",
        r.budget.first().map_or(0, |l| l.samples)
    );
    for line in &r.budget {
        println!(
            "{workload}   {:<18} {:>11.2} us {:>6.1}%",
            line.name,
            line.p50_self_us,
            100.0 * line.p50_self_us / explained.max(1e-9)
        );
    }
    let share = |prefix: &str| -> f64 {
        r.budget
            .iter()
            .filter(|l| l.name.starts_with(prefix))
            .map(|l| l.p50_self_us)
            .sum::<f64>()
            / explained.max(1e-9)
    };
    let split = commit_split(r);
    println!("{workload}   {:<18} {explained:>11.2} us", "sum of spans");
    println!(
        "{workload}   shares of the sum: server {:.1}%  sql.parse {:.1}%  sql.run {:.1}%  \
         (planner and exec run only inside sql.run.select)",
        100.0 * share("server."),
        100.0 * share("sql.parse"),
        100.0 * share("sql.run."),
    );
    if split.commits > 0 {
        // Per operation: the traced half of the replay made half the commits.
        let ops = r.budget.first().map_or(1, |l| l.samples).max(1) as f64;
        let in_engine_us = split.commits as f64 / (2.0 * ops) * split.begin_to_durable_us;
        println!(
            "{workload}   inside sql.run, session+wal: begin to durable {:.0} us per commit, of which \
             fsync {:.0} us (means from Engine::stats) = about {:.0}% of the sum",
            split.begin_to_durable_us,
            split.fsync_us,
            100.0 * in_engine_us / explained.max(1e-9),
        );
    }
    println!(
        "{workload}   engine over the replay: {} commits, {} log pages written",
        split.commits,
        counter_delta(
            &r.stats_before,
            &r.stats_after,
            "mmdb_session_pages_written_total"
        ),
    );
    let residual = mmdb_benchmark::span::residual_share(measured_p50_us, explained);
    println!(
        "{workload}   measured lat_p50_us {measured_p50_us:.2}; residual {:.2} us = {:.1}% \
         (real TCP predicts {round_trips} round trips x {noop_rtt_us:.1} us = {:.1} us)",
        measured_p50_us - explained,
        100.0 * residual,
        round_trips as f64 * noop_rtt_us
    );
    println!(
        "{workload}   traced op p50 {:.2} us, untraced {:.2} us: overhead {:.2}%",
        r.traced_op_us,
        r.untraced_op_us,
        100.0 * r.overhead_share()
    );
    residual
}

/// The trace file: every span, the budget, and the engine's counter and
/// histogram deltas over the same interval.
pub fn to_json(workload: &str, seed: u64, r: &Replay) -> Json {
    let spans = r
        .spans
        .iter()
        .map(|s| {
            Json::Arr(vec![
                (s.id as u64).into(),
                s.parent.map_or(Json::Null, |p| (p as u64).into()),
                (s.op as u64).into(),
                s.name.into(),
                s.start_ns.into(),
                s.end_ns.into(),
            ])
        })
        .collect();
    let counters = r
        .stats_after
        .counters
        .iter()
        .filter_map(|(name, after)| {
            let delta = after.saturating_sub(r.stats_before.counter(name).unwrap_or(0));
            (delta > 0).then(|| (name.clone(), delta.into()))
        })
        .collect();
    let histograms = r
        .stats_after
        .histograms
        .iter()
        .filter_map(|(name, after)| {
            let before = r.stats_before.histogram(name);
            let count = after.count.saturating_sub(before.map_or(0, |h| h.count));
            let sum = after.sum.wrapping_sub(before.map_or(0, |h| h.sum));
            (count > 0).then(|| {
                (
                    name.clone(),
                    obj([("count", count.into()), ("sum", sum.into())]),
                )
            })
        })
        .collect();
    obj([
        ("workload", workload.into()),
        ("seed", seed.into()),
        (
            "span_fields",
            Json::Arr(
                ["id", "parent", "op", "name", "start_ns", "end_ns"]
                    .map(Json::from)
                    .to_vec(),
            ),
        ),
        ("spans", Json::Arr(spans)),
        (
            "budget",
            Json::Arr(
                r.budget
                    .iter()
                    .map(|l| {
                        obj([
                            ("span", l.name.into()),
                            ("p50_self_us", l.p50_self_us.into()),
                            ("operations", l.samples.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("traced_op_p50_us", r.traced_op_us.into()),
        ("untraced_op_p50_us", r.untraced_op_us.into()),
        ("engine_counter_deltas", Json::Obj(counters)),
        ("engine_histogram_deltas", Json::Obj(histograms)),
    ])
}
