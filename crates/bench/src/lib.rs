//! Shared helpers for the experiment harnesses.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md's experiment index). The helpers here keep their output
//! formats consistent: fixed-width text tables that can be diffed across
//! runs and pasted into EXPERIMENTS.md.

pub mod mvcc;

use mmdb_exec::{CostSnapshot, ExecContext, MemRelation};
use mmdb_planner::optimizer::PlanEnv;
use mmdb_planner::{optimize, PlannedQuery, QuerySpec, TableStats};
use mmdb_recovery::{CommitMode, RecoveryManager};
use mmdb_types::{Error, Result, SystemParams};
use std::fmt::Display;

/// Prints a fixed-width table: header row then data rows.
pub fn print_table<H: Display, C: Display>(title: &str, headers: &[H], rows: &[Vec<C>]) {
    println!("\n== {title} ==");
    let header_strs: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    let row_strs: Vec<Vec<String>> = rows
        .iter()
        .map(|r| r.iter().map(|c| c.to_string()).collect())
        .collect();
    let mut widths: Vec<usize> = header_strs.iter().map(|h| h.len()).collect();
    for r in &row_strs {
        for (i, c) in r.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(c.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>width$}", width = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("  {}", padded.join("  "));
    };
    line(&header_strs);
    let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
    println!("  {}", "-".repeat(total));
    for r in &row_strs {
        line(r);
    }
}

/// Formats seconds with sensible precision.
pub fn secs(x: f64) -> String {
    if x >= 100.0 {
        format!("{x:.0}")
    } else if x >= 1.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.3}")
    }
}

/// Formats a fraction as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// The standard Figure 1 x-axis sample points.
pub fn figure1_ratios() -> Vec<f64> {
    let mut v = vec![0.025];
    let mut r = 0.05f64;
    while r <= 1.001 {
        v.push((r * 1000.0).round() / 1000.0);
        r += 0.05;
    }
    v
}

/// §5.2 by execution: loads `n` keys in one transaction, then runs `n`
/// typical 400-byte transactions under `mode`, one per key, so none
/// depends on another. Returns committed transactions per virtual second
/// and log pages written, both counted from after the load.
pub fn execute_typical(mode: CommitMode, n: u64) -> Result<(f64, usize)> {
    let mut db = RecoveryManager::new(mode);
    let load = db.begin();
    for key in 0..n {
        db.write(&load, key, 0)?;
    }
    db.commit(load)?;
    db.flush_and_wait();
    let (start, pages) = (db.now(), db.log_pages_written());
    for key in 0..n {
        db.typical(key, 1)?;
    }
    db.flush_and_wait();
    let tps = n as f64 * 1e6 / (db.now() - start) as f64;
    Ok((tps, db.log_pages_written() - pages))
}

/// One §4 query planned on exact statistics of memory-resident relations
/// and run by `mmdb_exec::plan`: the plan, its rows, and what running it
/// charged.
#[derive(Debug)]
pub struct PlannedRun {
    /// What the optimizer chose.
    pub planned: PlannedQuery,
    /// The result relation.
    pub rows: MemRelation,
    /// Primitive operations charged by the run.
    pub measured: CostSnapshot,
}

impl PlannedRun {
    /// `measured` in simulated seconds at the Table 2 prices.
    pub fn simulated_seconds(&self) -> f64 {
        self.measured.seconds(&SystemParams::table2())
    }
}

/// Plans `spec` over `tables` (named as `spec` names them) with exact
/// statistics of every column, then runs the plan with `mem_pages` pages
/// per operator — the grant the planner priced.
pub fn plan_and_run(
    spec: &QuerySpec,
    tables: &[(&str, &MemRelation)],
    mem_pages: usize,
) -> Result<PlannedRun> {
    let mut stats = Vec::with_capacity(spec.tables.len());
    for t in &spec.tables {
        let (_, rel) = tables
            .iter()
            .find(|(name, _)| *name == t.table)
            .ok_or_else(|| Error::RelationNotFound(t.table.clone()))?;
        let (fanout, arity) = (rel.tuples_per_page() as u64, rel.schema().arity());
        stats.push(TableStats::exact(&*t.table, fanout, arity, rel.tuples()));
    }
    let env = PlanEnv {
        mem_pages,
        ..PlanEnv::default()
    };
    let planned = optimize(spec, &stats, &env)?;
    let ctx = ExecContext::new(mem_pages, 1.2);
    let rows = mmdb_exec::plan::run(&planned.plan, tables, &ctx)?;
    let measured = ctx.meter.snapshot();
    Ok(PlannedRun {
        planned,
        rows,
        measured,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_cover_the_axis() {
        let r = figure1_ratios();
        assert_eq!(r[0], 0.025);
        assert_eq!(*r.last().unwrap(), 1.0);
        assert!(r.len() >= 20);
    }

    #[test]
    fn formatting() {
        assert_eq!(secs(1234.5), "1234");
        assert_eq!(secs(12.34), "12.3");
        assert_eq!(secs(0.1234), "0.123");
        assert_eq!(pct(0.695), "69.5%");
    }
}
