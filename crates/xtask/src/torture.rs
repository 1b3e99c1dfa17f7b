//! `cargo xtask torture` — the crash-torture CI gate.
//!
//! Builds and runs the `session_torture` binary (crates/bench) in
//! release mode, forwarding the seed range and artifact directory. The
//! binary sweeps seeded fault-injection runs of the wall-clock engine
//! — crash, recover, verify against the serial oracle — and carries
//! its own watchdog, so a hang becomes exit code 124 with the guilty
//! seed printed, and a failing seed leaves its log directory under the
//! artifact dir for CI to upload.

use std::path::Path;
use std::process::ExitCode;

/// Entry point for `cargo xtask torture [--seeds N] [--first S]
/// [--artifacts DIR] [--watchdog-secs T] [--checkpoint]
/// [--sustain-secs S] [--server]` — arguments are forwarded to the
/// runner binary unchanged. `--checkpoint` selects the §5.3
/// checkpoint-torture scenarios (crash mid-sweep, crash before
/// truncation, background sweeper) with their full-log oracle
/// comparison; `--sustain-secs` prepends the sustained-load
/// bounded-recovery run; `--server` selects the full-stack
/// server-chaos scenarios (SQL over TCP under seeded network faults,
/// overload shedding, and a mid-run crash/recover) with their
/// acked-implies-recovered and conservation oracle; the runner also
/// fails that sweep if its torn-, dup- or delay-wire seeds fired no
/// network fault at all.
pub fn torture(root: &Path, args: &[String]) -> ExitCode {
    println!("torture: running session_torture via cargo ...");
    let status = std::process::Command::new(env!("CARGO"))
        .current_dir(root)
        .args([
            "run",
            "--release",
            "-p",
            "mmdb-bench",
            "--bin",
            "session_torture",
            "--",
        ])
        .args(args)
        .status();
    match status {
        Ok(status) if status.success() => {
            println!("torture: OK");
            ExitCode::SUCCESS
        }
        Ok(status) => {
            eprintln!("torture: runner exited with {status}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("torture: failed to spawn cargo: {e}");
            ExitCode::FAILURE
        }
    }
}
