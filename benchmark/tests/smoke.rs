//! The whole end-to-end path at smoke size: every workload runs, reports
//! exactly the metrics declared for it, fails no operation and passes
//! its oracle; the oracle fails when the model is corrupted; and a run
//! leaves the directory it was given as it found it.

use mmdb_benchmark::cli::out_dir;
use mmdb_benchmark::e2e::{run_workload, RunConfig};
use mmdb_benchmark::gen::Workload;
use mmdb_benchmark::report::{END_TO_END, UNGATED};

/// README, "End-to-end metrics", column "reported on": where a metric is
/// not reported on all five workloads.
fn reported_on(metric: &str, workload: Workload) -> bool {
    use Workload::*;
    match metric {
        "scan_per_s" | "scan_lat_p95_us" | "scan_lat_p99_us" => workload == MixedScanTransfer,
        "log_bytes_per_op" => !workload.read_only(),
        "mem_bytes_per_user_byte" => workload == IngestRecover,
        _ => true,
    }
}

fn config(workload: Workload, tag: &str, corrupt_model: bool) -> RunConfig {
    RunConfig {
        workload,
        seed: 7,
        seconds: 0.6,
        smoke: true,
        conns: 2,
        scratch: out_dir().join(format!(
            "test-{}-{tag}-{}",
            std::process::id(),
            workload.name()
        )),
        corrupt_model,
        crashed_copy: None,
    }
}

#[test]
fn every_workload_runs_clean_and_reports_the_declared_metrics() {
    for workload in Workload::ALL {
        let cfg = config(workload, "clean", false);
        let result = run_workload(&cfg).expect("the run completes");
        std::fs::remove_dir_all(&cfg.scratch).ok();
        assert!(result.correct, "{}: {}", workload.name(), result.oracle);
        assert_eq!(result.ops_failed, 0, "{}", workload.name());
        assert!(result.ops_attempted > 0);
        let has = |list: &[mmdb_benchmark::e2e::Metric], name: &str| {
            list.iter().filter(|m| m.name == name).count()
        };
        for name in END_TO_END {
            let here = usize::from(reported_on(name, workload));
            assert_eq!(
                has(&result.metrics, name),
                here,
                "{} {name}",
                workload.name()
            );
            // The driver's line carries the rest, so it is always complete.
            assert_eq!(
                has(&result.driver_fill, name),
                1 - here,
                "{} {name}",
                workload.name()
            );
        }
        for name in UNGATED {
            let here = usize::from(reported_on(name, workload));
            assert_eq!(
                has(&result.ungated, name),
                here,
                "{} {name}",
                workload.name()
            );
        }
        let all = result.metrics.len() + result.driver_fill.len();
        assert_eq!(all, END_TO_END.len(), "{}", workload.name());
        for m in result
            .metrics
            .iter()
            .chain(&result.ungated)
            .chain(&result.driver_fill)
        {
            // This process runs all five, so a later workload may find
            // the heap already grown and report no growth at all.
            let may_be_zero = m.name == "mem_bytes_per_user_byte";
            assert!(
                m.value().is_finite() && (m.value() > 0.0 || may_be_zero),
                "{} {} = {}",
                workload.name(),
                m.name,
                m.value()
            );
        }
    }
}

#[test]
fn a_corrupted_model_fails_the_oracle() {
    for workload in [
        Workload::OltpTransfer,
        Workload::AnalyticJoin,
        Workload::IngestRecover,
    ] {
        let cfg = config(workload, "corrupt", true);
        let result = run_workload(&cfg).expect("the run completes");
        std::fs::remove_dir_all(&cfg.scratch).ok();
        assert!(
            !result.correct,
            "{}: the oracle accepted a corrupted model",
            workload.name()
        );
    }
}

/// `--log-dir DIR` names where to put the log, not something to delete:
/// whatever was in DIR is still there afterwards, and nothing else is.
#[test]
fn a_run_leaves_the_directory_it_was_given_alone() {
    let dir = out_dir().join(format!("test-{}-log-dir", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("precious.txt"), "keep me").unwrap();
    for bin in [env!("CARGO_BIN_EXE_e2e"), env!("CARGO_BIN_EXE_layers")] {
        let status = std::process::Command::new(bin)
            .args(["--workload", "oltp_transfer", "--smoke", "--log-dir"])
            .arg(&dir)
            .arg("--out")
            .arg(dir.join("results.json"))
            .stdout(std::process::Stdio::null())
            .status()
            .expect("the binary starts");
        assert!(status.success(), "{bin}: {status}");
        let mut left: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        left.sort();
        assert_eq!(left, ["precious.txt", "results.json"], "{bin}");
        assert_eq!(
            std::fs::read_to_string(dir.join("precious.txt")).unwrap(),
            "keep me"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
