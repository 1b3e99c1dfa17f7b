//! The §5 story end-to-end: Gray-style banking transactions against the
//! memory-resident transactional store, under every commit policy, with a
//! crash mid-stream and full recovery — money is conserved, uncommitted
//! work vanishes.
//!
//! ```text
//! cargo run --example banking_recovery
//! ```

use mmdb_recovery::{CommitPolicy, RecoveryManager};

fn run(mut bank: RecoveryManager, label: &str) {
    println!("-- {label} --");

    // Open 50 accounts with $1 000 each.
    let seed = bank.begin();
    for acct in 0..50u64 {
        bank.write(&seed, acct, 1_000).unwrap();
    }
    bank.commit(seed).unwrap();
    bank.flush_and_wait();

    // 500 committed transfers (§5.1's "typical" transaction, 760 logged
    // bytes: 5 to a log page).
    for i in 0..500u64 {
        bank.transfer(i % 50, (i * 7 + 3) % 50, 10).unwrap();
    }
    bank.flush_and_wait();
    let committed_pages = bank.log_pages_written();

    // Two transactions in flight when the lights go out: one aborted
    // cleanly, one simply unfinished.
    let doomed = bank.begin();
    bank.write(&doomed, 0, 1_000_000).unwrap();
    bank.abort(doomed).unwrap();
    let unfinished = bank.begin();
    bank.write(&unfinished, 1, -777).unwrap();

    println!(
        "  before crash: balance(0) = {:?}, balance(1) = {:?} (dirty!), {} log pages, t = {:.0} ms",
        bank.read(0),
        bank.read(1),
        committed_pages,
        bank.now() as f64 / 1000.0
    );

    // Power failure.
    let (recovered, report) = RecoveryManager::recover(bank.crash());
    let total: i64 = (0..50).map(|a| recovered.read(a).unwrap_or(0)).sum();
    println!(
        "  recovered: {} committed txns, {} losers rolled back, {} log records scanned",
        report.committed.len(),
        report.losers.len(),
        report.records_scanned
    );
    println!(
        "  balance(1) = {:?} (dirty write gone), total money = ${total} (conserved: {})\n",
        recovered.read(1),
        total == 50_000
    );
    assert_eq!(total, 50_000);
}

fn main() {
    println!("§5 of DeWitt et al. 1984 — recovery for memory-resident databases\n");
    run(
        RecoveryManager::new(CommitPolicy::Synchronous),
        "synchronous commit (≤100 tps)",
    );
    run(
        RecoveryManager::new(CommitPolicy::Group),
        "group commit (≈500 tps)",
    );
    run(
        RecoveryManager::new(CommitPolicy::Partitioned { devices: 4 }),
        "partitioned log, 4 devices (≈2000 tps)",
    );
    run(
        RecoveryManager::with_stable_memory(256 * 1024),
        "stable memory + §5.4 log compression",
    );
    println!("all four §5 commit policies recover correctly.");
}
