//! Command-line options shared by `e2e` and `layers`.

use crate::gen::Workload;
use crate::json::{self, Json};
use std::path::{Path, PathBuf};

/// Seed used when none is given.
pub const DEFAULT_SEED: u64 = 42;
/// Measured seconds per workload of a full run, as `BENCHMARK.json` sets
/// `run_seconds`: nine rounds of 1.33 s.
pub const DEFAULT_SECONDS: f64 = 12.0;
/// Measured seconds per workload under `--smoke`: nine rounds of 0.2 s,
/// which keeps the whole suite under 15 s.
pub const SMOKE_SECONDS: f64 = 1.8;

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// The workloads to run: the one named, or all five.
    pub workloads: Vec<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    /// The directory a run makes its own `run-<pid>` in, for the log;
    /// default `benchmark/out`. Nothing else in it is touched.
    pub log_dir: Option<PathBuf>,
    /// Where the results file goes.
    pub out: Option<PathBuf>,
    /// `layers` only: also replay the workload with spans.
    pub trace: bool,
    /// `e2e` only: two results files to compare instead of running.
    pub compare: Option<(PathBuf, PathBuf)>,
    /// `e2e` only, test hook: corrupt the model so the oracle must fail.
    pub corrupt_model: bool,
}

pub const USAGE: &str = "options: [--workload NAME] [--seed N] [--seconds S] [--log-dir DIR] \
[--smoke] [--out FILE] [--trace] [--compare A.json B.json] [--corrupt-model]";

pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workloads: Workload::ALL.to_vec(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        smoke: false,
        log_dir: None,
        out: None,
        trace: false,
        compare: None,
        corrupt_model: false,
    };
    let mut seconds = None;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let w = Workload::from_name(&name).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name:?}; one of {}", names.join(", "))
                })?;
                out.workloads = vec![w];
            }
            "--seed" => {
                out.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be above 0 and at most 600".to_string());
                }
                seconds = Some(s);
            }
            "--log-dir" => out.log_dir = Some(value("a directory")?.into()),
            "--out" => out.out = Some(value("a file")?.into()),
            "--smoke" => out.smoke = true,
            "--trace" => out.trace = true,
            "--corrupt-model" => out.corrupt_model = true,
            "--compare" => {
                out.compare = Some((value("two files")?.into(), value("two files")?.into()));
            }
            other => return Err(format!("unknown option {other:?}\n{USAGE}")),
        }
    }
    out.seconds = seconds.unwrap_or(if out.smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    Ok(out)
}

/// `benchmark/out`, beside the sources this binary was built from: the
/// only place a run writes unless told otherwise.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Makes a fresh `<kind>-<pid>` directory inside `args.log_dir` (or
/// [`out_dir`]) for everything the run writes there. The caller removes
/// it when done — it, and never the directory it was given.
pub fn make_run_dir(args: &Args, kind: &str) -> Result<PathBuf, String> {
    let base = args.log_dir.clone().unwrap_or_else(out_dir);
    std::fs::create_dir_all(&base).map_err(|e| format!("create {}: {e}", base.display()))?;
    let pid = std::process::id();
    // A directory of that name left by a killed run is not ours to reuse.
    for n in 0..100 {
        let dir = base.join(if n == 0 {
            format!("{kind}-{pid}")
        } else {
            format!("{kind}-{pid}-{n}")
        });
        match std::fs::create_dir(&dir) {
            Ok(()) => return Ok(dir),
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
            Err(e) => return Err(format!("create {}: {e}", dir.display())),
        }
    }
    Err(format!(
        "{} is full of stale run directories",
        base.display()
    ))
}

/// The whole suite: runs every workload of `args` in a process of its
/// own — a fresh heap and fresh threads each, exactly as the driver runs
/// them one at a time — and merges their results files into `out`.
/// Returns the highest exit code seen (1 if the merge itself failed).
pub fn fan_out(args: &Args, scratch: &Path, out: &Path) -> u8 {
    match run_each_in_own_process(args, scratch)
        .and_then(|(doc, worst)| crate::report::write_json(out, &doc).map(|()| worst))
    {
        Ok(worst) => worst,
        Err(e) => {
            eprintln!("{e}");
            1
        }
    }
}

fn run_each_in_own_process(args: &Args, scratch: &Path) -> Result<(Json, u8), String> {
    std::fs::create_dir_all(scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut environment = Json::Null;
    let mut kind = Json::Null;
    let mut workloads = Vec::new();
    let mut worst = 0u8;
    for w in &args.workloads {
        let out = scratch.join(format!("{}.json", w.name()));
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .arg("--log-dir")
            .arg(scratch.join(w.name()))
            .arg("--out")
            .arg(&out);
        for (on, flag) in [
            (args.smoke, "--smoke"),
            (args.trace, "--trace"),
            (args.corrupt_model, "--corrupt-model"),
        ] {
            if on {
                cmd.arg(flag);
            }
        }
        // `status` waits for the child; its output goes straight to ours.
        let status = cmd
            .status()
            .map_err(|e| format!("starting {}: {e}", exe.display()))?;
        let code = status
            .code()
            .and_then(|c| u8::try_from(c).ok())
            .unwrap_or(1);
        worst = worst.max(code);
        if code == 2 {
            // Refused: the log directory is the same for the rest.
            break;
        }
        let Ok(text) = std::fs::read_to_string(&out) else {
            continue;
        };
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", out.display()))?;
        if let Some(env) = doc.get("environment") {
            environment = env.clone();
        }
        if let Some(k) = doc.get("benchmark") {
            kind = k.clone();
        }
        if let Some(entries) = doc.get("workloads").and_then(Json::as_obj) {
            workloads.extend(entries.iter().cloned());
        }
    }
    let merged = crate::report::results_json(kind.as_str().unwrap_or(""), environment, workloads);
    Ok((merged, worst))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn defaults_and_the_drivers_arguments() {
        let a = args("").unwrap();
        assert_eq!(a.workloads.len(), 5);
        assert_eq!(
            (a.seed, a.seconds, a.smoke),
            (DEFAULT_SEED, DEFAULT_SECONDS, false)
        );
        let a = args("--workload point_read --seed 7 --seconds 9").unwrap();
        assert_eq!(a.workloads, [Workload::PointRead]);
        assert_eq!((a.seed, a.seconds), (7, 9.0));
        assert_eq!(args("--smoke").unwrap().seconds, SMOKE_SECONDS);
        assert_eq!(args("--smoke --seconds 6").unwrap().seconds, 6.0);
    }

    #[test]
    fn a_run_directory_is_always_new_and_inside_the_one_given() {
        let base = out_dir().join(format!("test-cli-{}", std::process::id()));
        let a = args(&format!("--log-dir {}", base.display())).unwrap();
        let first = make_run_dir(&a, "run").unwrap();
        let second = make_run_dir(&a, "run").unwrap();
        assert_ne!(first, second);
        for dir in [&first, &second] {
            assert_eq!(dir.parent(), Some(base.as_path()));
            assert!(dir.is_dir());
        }
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn refuses_what_it_does_not_know() {
        assert!(args("--workload nope").is_err());
        assert!(args("--seed").is_err());
        assert!(args("--seconds 0").is_err());
        assert!(args("--frobnicate").is_err());
        assert!(args("--compare a.json").is_err());
    }
}
