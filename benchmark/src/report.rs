//! What a run prints and writes: `workload metric value unit` lines for
//! people, a results file for `--compare`, and the one-line result the
//! driver reads.

use crate::cli::Args;
use crate::e2e::{engine_options, Metric, WorkloadResult, ROUNDS, SETUP_REPS};
use crate::env::{self, Device};
use crate::json::{obj, Json};
use mmdb_server::ServerConfig;
use std::path::Path;

/// Every end-to-end metric, in the order `BENCHMARK.json` lists them.
pub const END_TO_END: [&str; 6] = [
    "setup_s",
    "ops_per_s",
    "lat_p50_us",
    "scan_per_s",
    "log_bytes_per_op",
    "mem_bytes_per_user_byte",
];

/// End-to-end metrics that carry no bound, in the order they are stored.
pub const UNGATED: [&str; 5] = [
    "lat_p95_us",
    "lat_p99_us",
    "scan_lat_p95_us",
    "scan_lat_p99_us",
    "recover_ms",
];

/// Prints one metric as `workload metric value unit`, with which round
/// the value is, the rounds' median, minimum and maximum, and the sample
/// counts behind a percentile.
pub fn print_metric(workload: &str, m: &Metric) {
    let mut line = format!(
        "{workload} {} {:.4} {}   [{} of {} rounds: median {:.4} min {:.4} max {:.4}",
        m.name,
        m.value(),
        m.unit,
        m.pick.word(),
        m.rounds.values.len(),
        m.rounds.median(),
        m.rounds.min(),
        m.rounds.max(),
    );
    if let Some(samples) = &m.samples {
        line.push_str(&format!("; samples {samples:?}"));
    }
    line.push(']');
    println!("{line}");
}

/// Prints everything one end-to-end run produced.
pub fn print_workload(r: &WorkloadResult) {
    let w = r.workload.name();
    for m in r.metrics.iter().chain(&r.ungated) {
        print_metric(w, m);
    }
    println!("{w} ops_attempted {} count", r.ops_attempted);
    println!("{w} ops_failed {} count", r.ops_failed);
    println!(
        "{w} oracle {} (seed {}): {}",
        if r.correct { "passed" } else { "FAILED" },
        r.seed,
        r.oracle
    );
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, each metric with its value as measured and its unit.
pub fn contract_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, String)],
) -> String {
    let metrics = Json::Obj(
        metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    obj([("value", (*value).into()), ("unit", unit.as_str().into())]),
                )
            })
            .collect(),
    );
    obj([
        ("correct", correct.into()),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        ("metrics", metrics),
    ])
    .to_line()
}

/// The result line of an end-to-end run: every end-to-end metric, in
/// the declared order, from `metrics` where the workload reports it and
/// from `driver_fill` where it does not.
pub fn e2e_contract_line(r: &WorkloadResult) -> String {
    let metrics: Vec<(String, f64, String)> = END_TO_END
        .iter()
        .filter_map(|name| {
            r.metrics
                .iter()
                .chain(&r.driver_fill)
                .find(|m| m.name == *name)
        })
        .map(|m| (m.name.to_string(), m.value(), m.unit.to_string()))
        .collect();
    contract_line(r.correct, r.ops_attempted.max(1), r.ops_failed, &metrics)
}

/// Where and how the run was made: enough to decide whether two results
/// files may be compared at all.
pub fn attestation(args: &Args, conns: usize, log_dir: &Path, device: &Device) -> Json {
    let engine = engine_options(log_dir);
    let server = ServerConfig::default();
    obj([
        ("git_commit", env::git_commit().into()),
        ("seed", args.seed.into()),
        ("nproc", env::nproc().into()),
        ("connections", conns.into()),
        (
            "load_model",
            "closed loop: each connection sends its next statement after the reply".into(),
        ),
        ("measured_seconds", args.seconds.into()),
        ("rounds", ROUNDS.into()),
        ("setup_repetitions", SETUP_REPS.into()),
        ("smoke", args.smoke.into()),
        (
            "engine",
            obj([
                ("policy", engine.policy.name().into()),
                (
                    "page_write_us",
                    (engine.page_write_latency.as_micros() as u64).into(),
                ),
                (
                    "flush_interval_us",
                    (engine.flush_interval.as_micros() as u64).into(),
                ),
                ("page_bytes", engine.page_bytes.into()),
                ("shards", engine.shard_count().into()),
                (
                    "checkpoint",
                    match engine.checkpoint_interval {
                        None => "off".into(),
                        Some(d) => format!("every {d:?}").into(),
                    },
                ),
            ]),
        ),
        (
            "server",
            obj([
                ("addr", server.addr.as_str().into()),
                ("max_connections", server.max_connections.into()),
                (
                    "max_inflight_statements",
                    server.max_inflight_statements.into(),
                ),
                ("admission_queue", server.admission_queue.into()),
            ]),
        ),
        ("fault_injection", "disabled".into()),
        ("network_faults", "disabled".into()),
        ("log_dir", device.to_json()),
    ])
}

fn metric_json(m: &Metric) -> Json {
    let mut pairs = vec![
        ("value".to_string(), m.value().into()),
        ("unit".to_string(), m.unit.into()),
        ("pick".to_string(), m.pick.word().into()),
        ("median".to_string(), m.rounds.median().into()),
        ("min".to_string(), m.rounds.min().into()),
        ("max".to_string(), m.rounds.max().into()),
        (
            "rounds".to_string(),
            Json::Arr(m.rounds.values.iter().map(|&v| v.into()).collect()),
        ),
    ];
    if let Some(samples) = &m.samples {
        pairs.push((
            "samples".to_string(),
            Json::Arr(samples.iter().map(|&n| n.into()).collect()),
        ));
    }
    Json::Obj(pairs)
}

/// One workload's entry in a results file.
pub fn workload_json(r: &WorkloadResult) -> Json {
    let metrics_json = |list: &[Metric]| {
        Json::Obj(
            list.iter()
                .map(|m| (m.name.to_string(), metric_json(m)))
                .collect(),
        )
    };
    obj([
        ("connections", r.conns.into()),
        ("ops_attempted", r.ops_attempted.into()),
        ("ops_failed", r.ops_failed.into()),
        ("correct", r.correct.into()),
        ("oracle", r.oracle.as_str().into()),
        ("metrics", metrics_json(&r.metrics)),
        ("ungated", metrics_json(&r.ungated)),
        ("driver_fill", metrics_json(&r.driver_fill)),
    ])
}

/// A whole results file. `claim` is always null here: a benchmark run
/// reports, and only a comparison of two of them can claim anything.
pub fn results_json(kind: &str, environment: Json, workloads: Vec<(String, Json)>) -> Json {
    obj([
        ("benchmark", kind.into()),
        ("claim", Json::Null),
        ("environment", environment),
        ("workloads", Json::Obj(workloads)),
    ])
}

/// Writes `doc` to `path`, creating the directory it sits in.
pub fn write_json(path: &Path, doc: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.to_pretty()).map_err(|e| format!("write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let line = contract_line(
            true,
            1000,
            0,
            &[
                ("lat_p50_us".to_string(), 1203.4567, "us".to_string()),
                ("setup_s".to_string(), 0.8127, "s".to_string()),
            ],
        );
        assert!(!line.contains('\n'));
        let doc = parse(&line).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = doc.get("metrics").unwrap().get("lat_p50_us").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(1203.4567));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("us"));
    }

    #[test]
    fn benchmark_json_declares_what_the_code_reports() {
        use crate::gen::Workload;
        let text = std::fs::read_to_string(crate::compare::benchmark_json_path()).unwrap();
        let doc = parse(&text).unwrap();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("end_to_end"), END_TO_END);
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names("workloads"), workloads);
        let strings = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|s| s.as_str().unwrap().to_string())
                .collect()
        };
        assert_eq!(strings("command"), ["bash", "benchmark/run.sh"]);
        assert_eq!(strings("paths"), ["benchmark"]);
    }
}
