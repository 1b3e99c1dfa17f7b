//! Workspace automation for the mmdb reproduction.
//!
//! `cargo xtask audit` runs three static-analysis passes over the engine
//! crates (everything except the `shim-proptest` stand-in, the benchmark
//! harness, and this tool) and over the harness's one library file that
//! tests and examples link, `bench/src/mvcc.rs`:
//!
//! * **panic-freedom** — flags `unwrap`/`expect`, panicking macros, and
//!   slice indexing in non-test library code. §5.2 of the paper assumes
//!   a crash mid-commit leaves a recoverable log; library code that
//!   aborts instead of returning `Err` breaks that contract.
//! * **lossy-cast** — flags bare `as` numeric casts in the `analytic`
//!   and `planner` cost-model code; conversions must go through the
//!   checked helpers in `mmdb_types::cast`.
//! * **hygiene** — every engine crate opens with
//!   `#![forbid(unsafe_code)]` + `#![warn(missing_docs)]`, and public
//!   items in `recovery`, `session` and `bench/src/mvcc.rs` carry doc
//!   comments with the workspace's `§5.2`-style paper citations.
//! * **lock-order** — builds the static lock graph of the concurrency
//!   crates (`session`, `recovery`, `obs`) from acquisitions made while
//!   another guard is live, fails on cycles or edges contradicting the
//!   documented global order (shard → txn_slot → queue → durable), and
//!   writes the graph to `target/audit/lock-graph.dot` (see
//!   [`concurrency`]).
//! * **atomic-ordering** — every `Ordering::Relaxed` in non-test engine
//!   code needs an `// ordering:` justification comment, and files with
//!   a seqlock version word must follow the full odd/even protocol
//!   (Release publishes, a Release fence after the claim CAS, Acquire +
//!   fence around validated reads).
//! * **condvar-discipline** — `Condvar` waits sit in predicate re-check
//!   loops, and no `lock()` result is silently discarded with
//!   `if let Ok(..)`/`unwrap_or`/`.ok()` — poisoning must reach the
//!   fail-stop degrade path (recovering via `into_inner()` is the
//!   sanctioned idiom).
//!
//! Findings are suppressed only through `crates/xtask/audit-allowlist.toml`,
//! where every entry needs a one-line justification; stale entries are
//! reported so suppressions cannot outlive the code they excused.
//!
//! `cargo xtask metrics-lint` checks metric-name hygiene at every obs
//! registration call site: snake_case, a unit suffix, and global
//! uniqueness (see [`metricslint`]).
//!
//! The torture gates are not an xtask: `cargo torture` is an alias
//! (`.cargo/config.toml`) for the release-mode `torture` runner
//! in `crates/bench`.

mod allowlist;
mod concurrency;
mod metricslint;
mod passes;
mod scan;

use passes::Finding;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Engine crates covered by the audit and the metrics lint, as
/// `crates/<name>` directories.
const ENGINE_CRATES: [&str; 11] = [
    "types", "storage", "index", "analytic", "exec", "planner", "recovery", "session", "obs",
    "sql", "server",
];

/// Library files outside the engine crates that tests and examples link:
/// they get the panic-freedom and doc-citation passes an engine crate's
/// files get, as `(crate, path under crates/)`.
const LIBRARY_FILES: [(&str, &str); 1] = [("bench", "bench/src/mvcc.rs")];

/// Crates whose cost-model code the lossy-cast pass applies to.
const CAST_CRATES: [&str; 2] = ["analytic", "planner"];

/// Crates whose public items must carry §-cited doc comments.
const CITED_CRATES: [&str; 2] = ["recovery", "session"];

/// Crates the lock-order and condvar-discipline passes cover: the ones
/// holding the engine's `Mutex`/`Condvar` machinery.
const CONCURRENCY_CRATES: [&str; 5] = ["recovery", "session", "obs", "sql", "server"];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("audit") => audit(args.iter().any(|a| a == "--verbose")),
        Some("metrics-lint") => metricslint::metrics_lint(&workspace_root()),
        _ => {
            eprintln!(
                "usage: cargo xtask audit [--verbose]\n       \
                 cargo xtask metrics-lint"
            );
            ExitCode::FAILURE
        }
    }
}

/// Workspace root, resolved relative to this crate's manifest so the
/// audit works from any working directory.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/xtask sits two levels below the workspace root")
        .to_path_buf()
}

fn audit(verbose: bool) -> ExitCode {
    let root = workspace_root();
    let mut findings: Vec<Finding> = Vec::new();
    let mut edges: Vec<concurrency::LockEdge> = Vec::new();
    let lock_cfg = concurrency::engine_lock_config();
    let mut files_scanned = 0usize;

    let crates = root.join("crates");
    let engine_files = ENGINE_CRATES.into_iter().flat_map(|krate| {
        let files = rust_files(&crates.join(krate).join("src"));
        files.into_iter().map(move |file| (krate, file, false))
    });
    let library_files = LIBRARY_FILES.map(|(krate, path)| (krate, crates.join(path), true));
    for (krate, file, library) in engine_files.chain(library_files) {
        let rel = file
            .strip_prefix(&root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let Ok(text) = std::fs::read_to_string(&file) else {
            findings.push(Finding {
                pass: "hygiene",
                path: rel,
                line: 1,
                what: "unreadable file".to_string(),
                snippet: String::new(),
            });
            continue;
        };
        files_scanned += 1;
        let raw: Vec<&str> = text.lines().collect();
        let lines = scan::clean(&text);

        findings.extend(passes::panic_freedom(&rel, &lines, &raw));
        if CAST_CRATES.contains(&krate) {
            findings.extend(passes::lossy_cast(&rel, &lines, &raw));
        }
        if rel.ends_with("/lib.rs") {
            findings.extend(passes::crate_headers(&rel, &raw));
        }
        if library || CITED_CRATES.contains(&krate) {
            findings.extend(passes::doc_citations(&rel, &lines, &raw));
        }
        findings.extend(concurrency::atomic_ordering(&rel, &lines, &raw));
        findings.extend(concurrency::seqlock(&rel, &lines, &raw));
        if CONCURRENCY_CRATES.contains(&krate) {
            let (lock_findings, file_edges) =
                concurrency::lock_order(&rel, &lines, &raw, &lock_cfg);
            findings.extend(lock_findings);
            edges.extend(file_edges);
            findings.extend(concurrency::condvar_discipline(&rel, &lines, &raw));
        }
    }

    findings.extend(concurrency::cycle_findings(&edges));
    let dot = concurrency::render_dot(&concurrency::ENGINE_LOCK_ORDER, &edges);
    let dot_dir = root.join("target/audit");
    let dot_path = dot_dir.join("lock-graph.dot");
    if let Err(e) = std::fs::create_dir_all(&dot_dir).and_then(|()| std::fs::write(&dot_path, &dot))
    {
        eprintln!("warning: could not write {}: {e}", dot_path.display());
    } else if verbose {
        println!(
            "lock-order: {} edge site(s) -> {}",
            edges.len(),
            dot_path.display()
        );
    }

    let allow_path = root.join("crates/xtask/audit-allowlist.toml");
    let allow_text = std::fs::read_to_string(&allow_path).unwrap_or_default();
    let entries = match allowlist::parse(&allow_text) {
        Ok(e) => e,
        Err(errors) => {
            eprintln!("audit-allowlist.toml is malformed:");
            for e in errors {
                eprintln!("  {e}");
            }
            return ExitCode::FAILURE;
        }
    };

    let total = findings.len();
    let (kept, suppressed, stale) = allowlist::apply(&entries, findings);

    if verbose {
        println!(
            "allowlist: {} entr{} suppressing {suppressed} finding(s)",
            entries.len(),
            if entries.len() == 1 { "y" } else { "ies" },
        );
    }
    for at in &stale {
        println!("warning: allowlist entry at line {at} matches nothing — prune it");
    }

    if kept.is_empty() {
        println!(
            "audit clean: {files_scanned} files, {total} finding(s), {suppressed} allowlisted"
        );
        return ExitCode::SUCCESS;
    }

    for pass in [
        "panic-freedom",
        "lossy-cast",
        "hygiene",
        "lock-order",
        "atomic-ordering",
        "condvar-discipline",
    ] {
        let of_pass: Vec<&Finding> = kept.iter().filter(|f| f.pass == pass).collect();
        if of_pass.is_empty() {
            continue;
        }
        println!("\n{pass}: {} finding(s)", of_pass.len());
        for f in of_pass {
            println!("  {}:{} [{}] {}", f.path, f.line, f.what, f.snippet);
        }
    }
    println!(
        "\naudit FAILED: {} unsuppressed finding(s) ({suppressed} allowlisted); \
         fix them or add a justified entry to crates/xtask/audit-allowlist.toml",
        kept.len()
    );
    ExitCode::FAILURE
}

/// All `.rs` files under `dir`, recursively, in sorted order.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            out.extend(rust_files(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out
}
