//! §6's closing conjecture in action: a long-running analytical report
//! reads a consistent snapshot of the accounts while transfer traffic
//! keeps committing underneath it — no blocking, no aborts, no torn
//! totals.
//!
//! ```text
//! cargo run --example snapshot_reports
//! ```

use mmdb_bench::mvcc::VersionedStore;

fn main() {
    println!("§6: versioning for memory-resident concurrency control (REED83)\n");
    let mut bank = VersionedStore::new();

    // 100 accounts, $1 000 each.
    let seed = bank.begin_write();
    for acct in 0..100u64 {
        bank.write(&seed, acct, 1_000).unwrap();
    }
    bank.commit(seed).unwrap();

    // The auditor opens a snapshot...
    let audit = bank.begin_read();
    println!(
        "auditor opens a snapshot at commit horizon {}",
        audit.snapshot()
    );

    // ...while 1 000 transfers commit "concurrently".
    for i in 0..1_000u64 {
        let w = bank.begin_write();
        let from = i % 100;
        let to = (i * 13 + 7) % 100;
        if from != to {
            let f = bank.read_own(&w, from).unwrap();
            let t = bank.read_own(&w, to).unwrap();
            bank.write(&w, from, f - 25).unwrap();
            bank.write(&w, to, t + 25).unwrap();
        }
        bank.commit(w).unwrap();
    }
    println!("1 000 transfers committed while the audit was open");

    // The audit still sees the pristine opening state — every account at
    // exactly $1 000 — even though the live state has moved on.
    let audited: i64 = (0..100).map(|a| bank.read(&audit, a).unwrap()).sum();
    let every_account_untouched = (0..100).all(|a| bank.read(&audit, a) == Some(1_000));
    let live: i64 = (0..100).map(|a| bank.read_latest(a).unwrap()).sum();
    println!(
        "audit total: ${audited} (every account still $1 000 in the snapshot: {every_account_untouched})"
    );
    println!("live total:  ${live} (money conserved across all transfers)");
    println!(
        "write-write conflicts during the run: {} (readers never conflict)",
        bank.conflicts()
    );

    // Close the audit; garbage-collect history nobody can see anymore.
    let before = bank.version_count();
    bank.end_read(audit);
    let dropped = bank.gc();
    println!(
        "\nversions held while the audit pinned its snapshot: {before}; dropped by GC after it closed: {dropped}; remaining: {}",
        bank.version_count()
    );
    assert_eq!(audited, 100_000);
    assert_eq!(live, 100_000);
}
