//! Per-layer probes and the traced run. For each workload: the
//! end-to-end run (for the engine's own counters over the measured
//! window, and the latency the budget must add up to), then every
//! crate's public calls timed from here, then — with `--trace` — the
//! workload replayed in process with a span around every layer call.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml --bin layers -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--log-dir DIR] [--smoke] [--out FILE] [--trace]
//! ```
//!
//! This is the only target that calls inner APIs: one file per crate. A
//! change to one of those APIs breaks this binary, never `e2e`.

mod exec;
mod index;
mod obs;
mod planner;
mod probe;
mod recover;
mod server;
mod session;
mod sql;
mod trace;
mod wal;

use mmdb_benchmark::cli;
use mmdb_benchmark::e2e::{run_workload, RunConfig};
use mmdb_benchmark::env::{default_conns, Device};
use mmdb_benchmark::gen::{Op, Plan, Sizes, Workload};
use mmdb_benchmark::json::{obj, Json};
use mmdb_benchmark::report;
use probe::{LoadedDb, Reading};
use std::path::Path;
use std::process::ExitCode;

/// Every per-layer metric: name, unit, and which direction is better —
/// the list `BENCHMARK.json` repeats. The last two exist only with
/// `--trace`.
pub const PER_LAYER: [(&str, &str, &str); 61] = [
    ("e2e.lat_p95_us", "us", "lower"),
    ("e2e.lat_p99_us", "us", "lower"),
    ("e2e.scan_lat_p95_us", "us", "lower"),
    ("e2e.scan_lat_p99_us", "us", "lower"),
    ("e2e.recover_ms", "ms", "lower"),
    ("server.frame_roundtrip_ns", "ns", "lower"),
    ("server.encode_ack_ns", "ns", "lower"),
    ("server.encode_row_ns", "ns", "lower"),
    ("server.decode_row_ns", "ns", "lower"),
    ("server.admit_ns", "ns", "lower"),
    ("server.noop_rtt_us", "us", "lower"),
    ("sql.parse_update_ns", "ns", "lower"),
    ("sql.parse_join_ns", "ns", "lower"),
    ("sql.parse_insert16_us", "us", "lower"),
    ("sql.run_begin_us", "us", "lower"),
    ("sql.run_update_us", "us", "lower"),
    ("sql.run_commit_us", "us", "lower"),
    ("sql.run_point_select_us", "us", "lower"),
    ("sql.run_join_us", "us", "lower"),
    ("sql.run_insert16_us", "us", "lower"),
    ("sql.plan_exec_join_us", "us", "lower"),
    ("sql.row_encode_ns", "ns", "lower"),
    ("sql.row_decode_ns", "ns", "lower"),
    ("sql.kv_per_row", "count", "lower"),
    ("planner.optimize_us", "us", "lower"),
    ("exec.hybrid_join_ns_per_tuple", "ns", "lower"),
    ("exec.grace_join_ns_per_tuple", "ns", "lower"),
    ("exec.sort_merge_join_ns_per_tuple", "ns", "lower"),
    ("exec.external_sort_ns_per_tuple", "ns", "lower"),
    ("exec.hash_aggregate_ns_per_tuple", "ns", "lower"),
    ("exec.select_ns_per_tuple", "ns", "lower"),
    ("session.begin_abort_ns", "ns", "lower"),
    ("session.rfu_write_ns", "ns", "lower"),
    ("session.precommit_us", "us", "lower"),
    ("session.commit_durable_us", "us", "lower"),
    ("session.group_wait_us_p50", "us", "lower"),
    ("session.transfer_durable_us", "us", "lower"),
    ("session.commit_batch_txns_mean", "count", "higher"),
    ("session.commit_latency_us_p50", "us", "lower"),
    ("session.fsync_us_p50", "us", "lower"),
    ("session.lock_wait_us_p99", "us", "lower"),
    ("session.pages_per_commit", "count", "lower"),
    ("wal.fsync_4k_us_p50", "us", "lower"),
    ("wal.fsync_4k_us_p99", "us", "lower"),
    ("wal.append_page_us_p50", "us", "lower"),
    ("wal.crc32_mb_s", "MB/s", "higher"),
    ("wal.read_log_mb_s", "MB/s", "higher"),
    ("wal.bytes_per_commit", "B", "lower"),
    ("recover.replay_mb_s", "MB/s", "higher"),
    ("recover.replay_ms", "ms", "lower"),
    ("recover.snapshot_write_ms", "ms", "lower"),
    ("recover.sql_open_ms", "ms", "lower"),
    ("checkpoint.sweep_ms", "ms", "lower"),
    ("checkpoint.bytes_per_user_byte", "ratio", "lower"),
    ("checkpoint.recover_ms", "ms", "lower"),
    ("obs.hist_record_ns", "ns", "lower"),
    ("obs.counter_inc_ns", "ns", "lower"),
    ("index.avl_get_ns", "ns", "lower"),
    ("index.bptree_get_ns", "ns", "lower"),
    ("budget.residual_share", "ratio", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
];

/// Operations replayed by the traced run, half of them with spans:
/// enough for a steady median, few enough to end in seconds.
fn replay_ops(workload: Workload, smoke: bool) -> usize {
    let full = match workload {
        Workload::OltpTransfer => 2_000,
        Workload::MixedScanTransfer => 1_000,
        Workload::PointRead => 400,
        Workload::AnalyticJoin | Workload::IngestRecover => 200,
    };
    if smoke {
        full / 10
    } else {
        full
    }
}

fn main() -> ExitCode {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("layers: {e}");
            return ExitCode::from(1);
        }
    };
    let scratch = match cli::make_run_dir(&args, "layers") {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("layers: {e}");
            return ExitCode::from(1);
        }
    };
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| cli::out_dir().join("layers-results.json"));
    let code = if args.workloads.len() > 1 {
        cli::fan_out(&args, &scratch, &out)
    } else {
        match Device::probe(&scratch) {
            Err(why) => {
                eprintln!("layers: refusing to run: {why}");
                2
            }
            Ok(device) => match run(&args, args.workloads[0], &scratch, &device, &out) {
                Ok(true) => 0,
                Ok(false) => 1,
                Err(e) => {
                    eprintln!(
                        "layers: {} failed (seed {}): {e}",
                        args.workloads[0].name(),
                        args.seed
                    );
                    1
                }
            },
        }
    };
    let _ = std::fs::remove_dir_all(&scratch);
    ExitCode::from(code)
}

fn run(
    args: &cli::Args,
    workload: Workload,
    scratch: &Path,
    device: &Device,
    out: &Path,
) -> Result<bool, String> {
    let w = workload.name();
    let sizes = if args.smoke {
        Sizes::smoke()
    } else {
        Sizes::full()
    };
    let conns = default_conns();
    let crashed = scratch.join("crashed");
    let e2e = run_workload(&RunConfig {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        conns,
        scratch: scratch.join(w),
        corrupt_model: false,
        crashed_copy: Some(crashed.clone()),
    })?;
    report::print_workload(&e2e);

    // The end-to-end metrics without a bound ride along here (README:
    // "This machine") as `e2e.<name>`. A workload without a scanning
    // connection has no scan latency: 0.
    let mut readings: Vec<Reading> = PER_LAYER
        .iter()
        .filter_map(|(name, unit, _)| Some((*name, name.strip_prefix("e2e.")?, *unit)))
        .map(|(name, bare, unit)| {
            let value = e2e.ungated.iter().find(|m| m.name == bare);
            (name, value.map_or(0.0, |m| m.value()), unit)
        })
        .collect();
    let server = server::probe(scratch)?;
    let noop_rtt_us = server
        .iter()
        .find(|(name, _, _)| *name == "server.noop_rtt_us")
        .map_or(0.0, |r| r.1);
    readings.extend(server);
    let (sql, join_inputs) = sql::probe(args.seed, &sizes, scratch)?;
    readings.extend(sql);
    readings.extend(planner::probe(&join_inputs)?);
    readings.extend(exec::probe(&join_inputs)?);
    drop(join_inputs);
    readings.extend(session::probe_api(scratch)?);
    readings.extend(session::probe_window(&e2e));
    readings.extend(wal::probe(scratch, &crashed)?);
    readings.extend(recover::probe(&crashed, e2e.user_bytes)?);
    std::fs::remove_dir_all(&crashed).map_err(|e| e.to_string())?;
    readings.extend(obs::probe());
    readings.extend(index::probe(args.seed));

    if args.trace {
        let plan = Plan::build(workload, args.seed, conns.max(2), &sizes);
        let db = LoadedDb::open(&plan, &scratch.join("replay"))?;
        let n = replay_ops(workload, args.smoke);
        // `ingest_recover` never repeats a statement; the others cycle.
        let ops: Vec<&Op> = if workload == Workload::IngestRecover {
            plan.primary[0].iter().take(n).collect()
        } else {
            plan.primary[0].iter().cycle().take(n).collect()
        };
        let replay = trace::replay(&db, &ops)?;
        db.close()?;
        let measured = e2e.metric("lat_p50_us").map_or(f64::NAN, |m| m.value());
        let residual = trace::print_budget(w, &replay, measured, noop_rtt_us, ops[0].sql.len());
        readings.push(("budget.residual_share", residual, "ratio"));
        readings.push(("trace.overhead_share", replay.overhead_share(), "ratio"));
        let path = cli::out_dir().join(format!("trace-{w}.json"));
        report::write_json(&path, &trace::to_json(w, args.seed, &replay))?;
        println!("{w} trace written to {}", path.display());
    }

    // Report in the declared order, and exactly the declared metrics:
    // the two of the traced run are the only ones that may be absent.
    let mut ordered: Vec<Reading> = Vec::with_capacity(PER_LAYER.len());
    for (name, unit, _) in PER_LAYER {
        match readings.iter().find(|r| r.0 == name) {
            Some(r) if r.2 == unit => ordered.push(*r),
            Some(r) => return Err(format!("{name} is measured in {}, declared in {unit}", r.2)),
            None if args.trace => return Err(format!("{name} was not measured")),
            None => {}
        }
    }
    if let Some(stray) = readings
        .iter()
        .find(|r| !PER_LAYER.iter().any(|d| d.0 == r.0))
    {
        return Err(format!("{} is measured but not declared", stray.0));
    }
    let readings = ordered;
    for (name, value, unit) in &readings {
        println!("{w} {name} {value:.4} {unit}");
    }
    let layers = Json::Obj(
        readings
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.to_string(),
                    obj([("value", (*value).into()), ("unit", (*unit).into())]),
                )
            })
            .collect(),
    );
    let doc = report::results_json(
        "layers",
        report::attestation(args, conns, scratch, device),
        vec![(
            w.to_string(),
            obj([("e2e", report::workload_json(&e2e)), ("layers", layers)]),
        )],
    );
    report::write_json(out, &doc)?;
    let metrics: Vec<(String, f64, String)> = readings
        .iter()
        .map(|(name, value, unit)| (name.to_string(), *value, unit.to_string()))
        .collect();
    // Last on stdout: the driver's line, with every per-layer metric.
    println!(
        "{}",
        report::contract_line(
            e2e.correct,
            e2e.ops_attempted.max(1),
            e2e.ops_failed,
            &metrics
        )
    );
    Ok(e2e.correct && e2e.ops_failed == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_benchmark::compare::benchmark_json_path;
    use mmdb_benchmark::json;

    #[test]
    fn benchmark_json_lists_exactly_these_per_layer_metrics() {
        let text = std::fs::read_to_string(benchmark_json_path()).expect("BENCHMARK.json");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let listed: Vec<(String, String, String)> = doc
            .get("per_layer")
            .and_then(Json::as_arr)
            .expect("per_layer")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect();
        let ours: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect();
        assert_eq!(listed, ours);
    }
}
