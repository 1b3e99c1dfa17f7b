//! Experiment R1 — §5.2's transaction-throughput limits, reproduced two
//! ways: the closed-form model, and the recovery manager executing
//! "typical" 400-byte banking transactions on 10 ms/page log devices.

use mmdb_analytic::recovery::{CommitPolicy, ThroughputModel};
use mmdb_bench::{execute_typical, print_table};
use mmdb_recovery::CommitMode;

fn main() {
    println!("Experiment R1 — §5.2 transaction throughput");
    println!("typical txn = 400 bytes of log; 4096-byte pages; 10 ms/page write");

    let model = ThroughputModel::default();
    let n = 20_000;

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut push = |name: &str, paper: &str, policy: CommitPolicy, mode: CommitMode, n: u64| {
        let (tps, pages) =
            execute_typical(mode, n).expect("one transaction per key never conflicts");
        rows.push(vec![
            name.to_string(),
            paper.to_string(),
            format!("{:.0}", model.throughput(policy)),
            format!("{tps:.0}"),
            pages.to_string(),
        ]);
    };

    push(
        "synchronous",
        "100",
        CommitPolicy::Synchronous,
        CommitMode::Synchronous,
        2_000,
    );
    push(
        "group commit",
        "1000",
        CommitPolicy::GroupCommit,
        CommitMode::GroupCommit,
        n,
    );
    for k in [2u32, 4, 8] {
        push(
            &format!("partitioned log ({k} devices)"),
            &format!("~{}", k * 1000),
            CommitPolicy::PartitionedLog { devices: k },
            CommitMode::PartitionedLog {
                devices: k as usize,
            },
            n,
        );
    }
    push(
        "stable memory (1 drain device)",
        "drain-bound",
        CommitPolicy::StableMemory { devices: 1 },
        CommitMode::StableMemory {
            capacity_bytes: 1 << 20,
        },
        n,
    );

    print_table(
        "Committed transactions per second",
        &["policy", "paper", "model tps", "executed tps", "log pages"],
        &rows,
    );

    println!(
        "\n§5.2 reproduced: one log write per transaction caps the system at\n\
         ~100 tps; ten-transaction commit groups lift it to ~1000; partitioned\n\
         logs scale further; stable memory with §5.4 compression (only new\n\
         values reach disk) raises the drain-bound ceiling again."
    );
}
