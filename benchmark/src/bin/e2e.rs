//! The end-to-end benchmark: every metric a client of the SQL server
//! sees, per workload, with tracing off.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml --bin e2e -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--log-dir DIR] [--smoke] [--out FILE]
//! cargo run --release --manifest-path benchmark/Cargo.toml --bin e2e -- --compare A.json B.json
//! ```
//!
//! Exit code 0: every workload ran, no operation failed, every oracle
//! held. 1: something failed (the seed is printed). 2: the log directory
//! is memory, not a disk, and the run was refused.

use mmdb_benchmark::e2e::{run_workload, RunConfig};
use mmdb_benchmark::env::{default_conns, Device};
use mmdb_benchmark::report;
use mmdb_benchmark::{cli, compare};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e: {e}");
            return ExitCode::from(1);
        }
    };
    if let Some((a, b)) = &args.compare {
        return match compare::compare_files(a, b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("e2e --compare: {e}");
                ExitCode::from(1)
            }
        };
    }
    let scratch = match cli::make_run_dir(&args, "run") {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("e2e: {e}");
            return ExitCode::from(1);
        }
    };
    let code = if args.workloads.len() > 1 {
        ExitCode::from(cli::fan_out(&args, &scratch, &results_path(&args)))
    } else {
        run(&args, &scratch)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    code
}

fn results_path(args: &cli::Args) -> std::path::PathBuf {
    args.out
        .clone()
        .unwrap_or_else(|| cli::out_dir().join("e2e-results.json"))
}

fn run(args: &cli::Args, scratch: &std::path::Path) -> ExitCode {
    let device = match Device::probe(scratch) {
        Ok(d) => d,
        Err(why) => {
            eprintln!("e2e: refusing to run: {why}");
            return ExitCode::from(2);
        }
    };
    let conns = default_conns();
    let mut entries = Vec::new();
    let mut healthy = true;
    for &workload in &args.workloads {
        let cfg = RunConfig {
            workload,
            seed: args.seed,
            seconds: args.seconds,
            smoke: args.smoke,
            conns,
            scratch: scratch.join(workload.name()),
            corrupt_model: args.corrupt_model,
            crashed_copy: None,
        };
        match run_workload(&cfg) {
            Ok(result) => {
                report::print_workload(&result);
                healthy &= result.correct && result.ops_failed == 0;
                entries.push((workload.name().to_string(), report::workload_json(&result)));
                // Last on stdout when one workload is run: the driver's line.
                println!("{}", report::e2e_contract_line(&result));
            }
            Err(why) => {
                eprintln!(
                    "e2e: {} failed (seed {}): {why}",
                    workload.name(),
                    args.seed
                );
                healthy = false;
            }
        }
    }
    let doc = report::results_json(
        "e2e",
        report::attestation(args, conns, scratch, &device),
        entries,
    );
    if let Err(e) = report::write_json(&results_path(args), &doc) {
        eprintln!("e2e: {e}");
        healthy = false;
    }
    if healthy {
        ExitCode::SUCCESS
    } else {
        eprintln!("e2e: FAILED with seed {}", args.seed);
        ExitCode::from(1)
    }
}
