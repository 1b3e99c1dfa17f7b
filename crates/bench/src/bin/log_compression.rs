//! Experiment R2 — §5.4: buffering the log in stable memory lets the
//! system strip old values of committed transactions before the log
//! reaches disk, roughly halving disk-log volume.
//!
//! A banking workload runs through the real recovery manager once with a
//! plain group-commit log and once with stable memory; the harness
//! compares log pages written and verifies recovery still works from the
//! compressed log.

use mmdb_analytic::recovery::ThroughputModel;
use mmdb_bench::{pct, print_table};
use mmdb_recovery::{CommitPolicy, RecoveryManager};

fn run_workload(mut store: RecoveryManager, transfers: u64) -> (usize, bool) {
    let seed = store.begin();
    for a in 0..100u64 {
        store.write(&seed, a, 1_000).unwrap();
    }
    store.commit(seed).unwrap();
    for i in 0..transfers {
        store.transfer(i % 100, (i + 7) % 100, 1).unwrap();
    }
    store.flush_and_wait();
    let pages = store.log_pages_written();
    // Crash and recover; check balances are conserved.
    let (recovered, report) = RecoveryManager::recover(store.crash());
    let total: i64 = (0..100).map(|a| recovered.read(a).unwrap_or(0)).sum();
    let ok = total == 100_000 && report.committed.len() as u64 == transfers + 1;
    (pages, ok)
}

fn main() {
    println!("Experiment R2 — §5.4 log compression in stable memory");
    let transfers = 2_000u64;

    let (full_pages, full_ok) = run_workload(RecoveryManager::new(CommitPolicy::Group), transfers);
    let (compressed_pages, compressed_ok) =
        run_workload(RecoveryManager::with_stable_memory(64 * 1024), transfers);

    let model = ThroughputModel::default();
    let rows = vec![
        vec![
            "group commit (full log)".to_string(),
            full_pages.to_string(),
            "100%".to_string(),
            full_ok.to_string(),
        ],
        vec![
            "stable memory (new values only)".to_string(),
            compressed_pages.to_string(),
            pct(compressed_pages as f64 / full_pages as f64),
            compressed_ok.to_string(),
        ],
    ];
    print_table(
        &format!("{transfers} banking transfers: disk-log volume"),
        &["policy", "log pages", "relative", "recovery ok"],
        &rows,
    );
    println!(
        "\nmodel predicts a compression ratio of {} (old values are ~half of\n\
         the update volume); measured {}.",
        pct(model.compression_ratio()),
        pct(compressed_pages as f64 / full_pages as f64)
    );
    assert!(
        full_ok && compressed_ok,
        "recovery must succeed in both modes"
    );
    assert!(
        compressed_pages < full_pages,
        "compression must reduce disk-log volume"
    );
}
