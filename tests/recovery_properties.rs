//! Property-based crash testing of the §5 recovery machinery: whatever
//! the workload, the commit policy, and the crash point, recovery restores
//! exactly the committed prefix.

use mmdb_recovery::{CommitPolicy, RecoveryManager};
use mmdb_types::TxnId;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    /// Transfer between two of 16 accounts and commit.
    Transfer { from: u8, to: u8, amount: i16 },
    /// Start a transaction, write, and abort it.
    AbortedWrite { key: u8, value: i16 },
    /// Force the log out.
    Flush,
    /// Sweep a checkpoint.
    Checkpoint,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..16, 0u8..16, any::<i16>()).prop_map(|(from, to, amount)| Op::Transfer {
            from,
            to,
            amount
        }),
        (0u8..16, any::<i16>()).prop_map(|(key, value)| Op::AbortedWrite { key, value }),
        Just(Op::Flush),
        Just(Op::Checkpoint),
    ]
}

/// The manager `pick` names: synchronous, group, partitioned over three
/// devices, or stable memory — the last of which commit durably on return.
fn manager(pick: u8) -> RecoveryManager {
    match pick {
        0 => RecoveryManager::new(CommitPolicy::Synchronous),
        1 => RecoveryManager::new(CommitPolicy::Group),
        2 => RecoveryManager::new(CommitPolicy::Partitioned { devices: 3 }),
        _ => RecoveryManager::with_stable_memory(1 << 20),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn recovery_restores_exactly_the_committed_state(
        pick in 0u8..4,
        ops in prop::collection::vec(op_strategy(), 1..60),
        final_flush in any::<bool>(),
    ) {
        let mut store = manager(pick);
        // Oracle of committed state only.
        let mut oracle: std::collections::HashMap<u64, i64> =
            (0..16).map(|a| (a, 1_000)).collect();
        let seed = store.begin();
        for a in 0..16u64 {
            store.write(&seed, a, 1_000).unwrap();
        }
        store.commit(seed).unwrap();
        store.flush_and_wait();
        // Commit order: `begin` hands out ids in sequence, and each
        // transaction here ends before the next begins.
        let mut commit_order = vec![seed.0];
        let mut last_id = seed.0;

        for op in &ops {
            match op {
                Op::Transfer { from, to, amount } => {
                    let (from, to, amount) = (*from as u64, *to as u64, *amount as i64);
                    store.transfer(from, to, amount).unwrap();
                    *oracle.get_mut(&from).unwrap() -= amount;
                    *oracle.get_mut(&to).unwrap() += amount;
                    last_id = TxnId(last_id.0 + 1);
                    commit_order.push(last_id);
                }
                Op::AbortedWrite { key, value } => {
                    let t = store.begin();
                    last_id = t.0;
                    store.write(&t, *key as u64, *value as i64).unwrap();
                    store.abort(t).unwrap();
                }
                Op::Flush => store.flush_and_wait(),
                Op::Checkpoint => {
                    store.checkpoint_sweep(usize::MAX);
                }
            }
        }
        if final_flush {
            store.flush_and_wait();
        }

        let (recovered, report) = RecoveryManager::recover(store.crash());

        // Invariant 1: committed-and-durable transactions all appear; no
        // phantom commits.
        prop_assert!(report.committed.len() <= commit_order.len());
        if final_flush || pick == 0 || pick == 3 {
            prop_assert_eq!(report.committed.len(), commit_order.len());
            // Invariant 2: with everything durable, the recovered state
            // equals the committed oracle exactly.
            for a in 0..16u64 {
                prop_assert_eq!(recovered.read(a), Some(oracle[&a]), "account {}", a);
            }
        }

        // Invariant 3: money is conserved in every case where the final
        // flush ran (transfers are zero-sum, aborts are undone).
        if final_flush {
            let total: i64 = (0..16).map(|a| recovered.read(a).unwrap_or(0)).sum();
            prop_assert_eq!(total, 16_000);
        }

        // Invariant 4: the recovered committed set is a prefix of commit
        // order — durability is an LSN prefix, so no transaction survives
        // a crash that an earlier commit did not.
        prop_assert_eq!(
            &report.committed[..],
            &commit_order[..report.committed.len()]
        );
    }

    #[test]
    fn crash_mid_stream_never_resurrects_uncommitted_data(
        pick in 0u8..4,
        committed in 1u64..30,
    ) {
        let mut store = manager(pick);
        let seed = store.begin();
        store.write(&seed, 0, 0).unwrap();
        store.commit(seed).unwrap();
        for i in 0..committed {
            let t = store.begin();
            store.write(&t, 1, i as i64).unwrap();
            store.commit(t).unwrap();
        }
        store.flush_and_wait();
        // The doomed transaction writes a sentinel nothing else writes.
        let doomed = store.begin();
        store.write(&doomed, 2, 424_242).unwrap();
        store.checkpoint_sweep(usize::MAX); // fuzzy: may capture the dirty value
        let (recovered, _) = RecoveryManager::recover(store.crash());
        prop_assert_ne!(recovered.read(2), Some(424_242));
        prop_assert_eq!(recovered.read(1), Some(committed as i64 - 1));
    }
}
