//! `--compare A.json B.json`: the no-regression rule applied to two
//! results files of `e2e`. For every (metric, workload) pair the files
//! report, B may be worse than A by at most the bound `BENCHMARK.json`
//! fixes for that metric; a pair whose own rounds disagree by more than
//! the bound (the distance between their quartiles, as a share of their
//! median) is reported as unresolved, not as unchanged. Metrics without a bound are
//! listed too, marked `ungated`, and never fail the comparison.

use crate::json::{self, Json};
use crate::stats::quartile_spread;
use std::path::{Path, PathBuf};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a`; negative when
/// better. `lower_is_better` says which direction is worse.
pub fn worse_by(a: f64, b: f64, lower_is_better: bool) -> f64 {
    if a == 0.0 {
        return if b == 0.0 { 0.0 } else { f64::INFINITY };
    }
    let change = (b - a) / a.abs();
    if lower_is_better {
        change
    } else {
        -change
    }
}

/// `spread` is the wider of the two files' [`quartile_spread`] of rounds.
pub fn judge(worse_by: f64, spread: f64, bound: f64) -> Verdict {
    if worse_by > bound {
        Verdict::Worse
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// Reads the `end_to_end` list of a `BENCHMARK.json`.
pub fn declared_metrics(doc: &Json) -> Result<Vec<Declared>, String> {
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let better = m
                .get("better")
                .and_then(Json::as_str)
                .ok_or("metric without better")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without a bound")?;
            Ok(Declared {
                name: name.to_string(),
                lower_is_better: better == "lower",
                bound,
            })
        })
        .collect()
}

/// `BENCHMARK.json` sits at the root, one level above this package.
pub fn benchmark_json_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

struct Reading {
    value: f64,
    spread: f64,
}

fn reading(file: &Json, workload: &str, metric: &str) -> Option<Reading> {
    let w = file.get("workloads")?.get(workload)?;
    let m = w
        .get("metrics")
        .and_then(|m| m.get(metric))
        .or_else(|| w.get("ungated")?.get(metric))?;
    let value = m.get("value")?.as_f64()?;
    let rounds: Vec<f64> = m
        .get("rounds")?
        .as_arr()?
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    Some(Reading {
        value,
        spread: quartile_spread(&rounds),
    })
}

/// Prints the comparison table; `Ok(true)` when nothing is worse.
pub fn compare_files(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let declared = declared_metrics(&load(&benchmark_json_path())?)?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    let workloads = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or_else(|| format!("{} has no workloads", a_path.display()))?;
    println!(
        "{:<20} {:<24} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound", "spread"
    );
    let mut counts = [0usize; 3];
    for (workload, _) in workloads {
        for d in &declared {
            let (ra, rb) = match (
                reading(&a, workload, &d.name),
                reading(&b, workload, &d.name),
            ) {
                (Some(ra), Some(rb)) => (ra, rb),
                // Not every metric is reported on every workload.
                (None, None) => continue,
                _ => {
                    return Err(format!(
                        "{workload}.{} is missing from one of the files",
                        d.name
                    ))
                }
            };
            let by = worse_by(ra.value, rb.value, d.lower_is_better);
            let spread = ra.spread.max(rb.spread);
            let verdict = judge(by, spread, d.bound);
            counts[verdict as usize] += 1;
            println!(
                "{:<20} {:<24} {:>14.4} {:>14.4} {:>+8.1}% {:>6.0}% {:>7.1}%  {}",
                workload,
                d.name,
                ra.value,
                rb.value,
                by * 100.0,
                d.bound * 100.0,
                spread * 100.0,
                verdict.word()
            );
        }
        for name in crate::report::UNGATED {
            // Direction: every ungated metric is a time, lower is better.
            if let (Some(ra), Some(rb)) = (reading(&a, workload, name), reading(&b, workload, name))
            {
                println!(
                    "{:<20} {:<24} {:>14.4} {:>14.4} {:>+8.1}% {:>7} {:>7.1}%  ungated",
                    workload,
                    name,
                    ra.value,
                    rb.value,
                    worse_by(ra.value, rb.value, true) * 100.0,
                    "-",
                    ra.spread.max(rb.spread) * 100.0,
                );
            }
        }
    }
    println!(
        "{} ok, {} worse, {} unresolved",
        counts[Verdict::Ok as usize],
        counts[Verdict::Worse as usize],
        counts[Verdict::Unresolved as usize]
    );
    Ok(counts[Verdict::Worse as usize] == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_follows_the_metrics_direction() {
        assert!((worse_by(100.0, 110.0, true) - 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 110.0, false) + 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 80.0, false) - 0.20).abs() < 1e-12);
        assert_eq!(worse_by(0.0, 0.0, true), 0.0);
    }

    #[test]
    fn verdicts() {
        assert_eq!(judge(0.05, 0.02, 0.10), Verdict::Ok);
        assert_eq!(judge(-0.50, 0.02, 0.10), Verdict::Ok);
        assert_eq!(judge(0.11, 0.02, 0.10), Verdict::Worse);
        assert_eq!(judge(0.05, 0.30, 0.10), Verdict::Unresolved);
        assert_eq!(judge(0.11, 0.30, 0.10), Verdict::Worse);
    }

    #[test]
    fn reads_declared_metrics() {
        let doc = json::parse(
            r#"{"end_to_end":[{"name":"ops_per_s","unit":"1/s","better":"higher","bound":0.1}]}"#,
        )
        .unwrap();
        assert_eq!(
            declared_metrics(&doc).unwrap(),
            [Declared {
                name: "ops_per_s".to_string(),
                lower_is_better: false,
                bound: 0.1
            }]
        );
        assert!(declared_metrics(&Json::Null).is_err());
    }
}
