//! Property tests for the §5.3 online fuzzy checkpointer.
//!
//! Two claims get randomized coverage here:
//!
//! 1. **Dirty-shard exactness** — the sweeper's dirty-shard table means
//!    a sweep rewrites precisely the shards mutated since the previous
//!    sweep settled (writes *and* rollbacks mark a shard dirty), and an
//!    idle sweep rewrites nothing. The test mirrors the engine's
//!    documented Fibonacci shard hash to predict the mutated set.
//! 2. **Recovery equivalence** — recovering from the newest complete
//!    checkpoint plus the live generation's suffix yields exactly the
//!    image a full-log replay of the same live generation produces.
//!    The oracle is the torture runner's `FullLogOracle`: only the live
//!    (`wal-d*.log`) files, copied into a fresh directory, where
//!    recovery has no checkpoint to lean on.

use mmdb_session::torture::FullLogOracle;
use mmdb_session::{CommitPolicy, Engine, EngineOptions};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::path::Path;
use std::time::Duration;

/// Key domain for both workloads: small enough to hit every shard and
/// to make whole-image comparison cheap.
const KEYS: u64 = 48;

/// The engine's shard placement (`crates/session/src/shard.rs`,
/// `shard_of`): Fibonacci hashing on the key, modulo the shard count.
/// Mirrored here so the test can predict which shards a workload
/// mutates; `shard_of_is_stable_and_in_range` in the session crate
/// pins the original, so a silent divergence fails loudly there first.
fn expected_shard(key: u64, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    ((key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % shards as u64) as usize
}

fn ckpt_options(dir: &Path, shards: usize) -> EngineOptions {
    EngineOptions::new(CommitPolicy::Group, dir)
        .with_page_write_latency(Duration::from_micros(200))
        .with_flush_interval(Duration::from_micros(500))
        .with_lock_wait_timeout(Duration::from_secs(2))
        .with_shards(shards)
}

/// Sweeps until a pass rewrites nothing, returning the union of shard
/// indices rewritten along the way. Commit finalization (which removes
/// undo entries) can lag `wait_durable` by a daemon scheduling beat, so
/// a single sweep may find a shard dirty-but-unsettled and have to
/// revisit it; the union across passes is still exactly the set of
/// shards dirtied since the last settled sweep.
fn sweep_until_settled(engine: &Engine) -> Result<BTreeSet<usize>, TestCaseError> {
    let mut rewritten = BTreeSet::new();
    for _ in 0..200 {
        let stats = engine
            .checkpoint_now()
            .map_err(|e| TestCaseError::fail(format!("sweep failed: {e}")))?;
        if stats.rewritten.is_empty() {
            return Ok(rewritten);
        }
        rewritten.extend(stats.rewritten.iter().copied());
        std::thread::sleep(Duration::from_millis(2));
    }
    Err(TestCaseError::fail(
        "sweeps never settled: some shard stayed dirty for 200 passes with no traffic",
    ))
}

proptest! {
    /// A sweep after a quiet spell rewrites exactly the shards touched
    /// by the transactions since the previous settled sweep — committed
    /// and aborted alike (rollback restores the pre-image but still
    /// counts as mutation), and nothing else. An extra idle sweep at
    /// each step (implied by `sweep_until_settled`'s exit condition)
    /// confirms the cached images are reused verbatim.
    #[test]
    fn sweep_rewrites_exactly_the_mutated_shards(
        batches in proptest::collection::vec(
            (proptest::collection::vec((0u64..KEYS, -1_000i64..1_000), 1..10), any::<bool>()),
            1..6,
        ),
        shards in 1usize..9,
    ) {
        let dir = std::env::temp_dir().join(
            format!("mmdb-ckpt-dirty-{}-{shards}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let engine = Engine::start(ckpt_options(&dir, shards)).unwrap();
        let s = engine.session();

        // First sweeps cache every shard's (empty) image; from here on
        // only genuine mutation may cause rewrites.
        sweep_until_settled(&engine)?;

        for (writes, commit) in &batches {
            let t = s.begin().unwrap();
            for &(key, value) in writes {
                s.write(&t, key, value).unwrap();
            }
            if *commit {
                let ticket = s.commit(t).unwrap();
                s.wait_durable(&ticket).unwrap();
            } else {
                s.abort(t).unwrap();
            }
            let expected: BTreeSet<usize> = writes
                .iter()
                .map(|&(key, _)| expected_shard(key, shards))
                .collect();
            let rewritten = sweep_until_settled(&engine)?;
            prop_assert_eq!(
                rewritten,
                expected,
                "sweep after a {} txn rewrote the wrong shard set",
                if *commit { "committed" } else { "aborted" },
            );
        }
        engine.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Crash after a random mix of committed/aborted transactions and
    /// interleaved sweeps, then recover twice: once from the directory
    /// as the crash left it (checkpoint generations present), and once
    /// from an oracle copy holding only the live `wal-d*.log` files
    /// (full-log replay, nothing to lean on). The images must agree on
    /// every key, and the checkpointed recovery may replay at most the
    /// newest image plus a suffix of what the oracle saw.
    #[test]
    fn recovery_from_checkpoint_matches_full_log_replay(
        txns in proptest::collection::vec(
            (proptest::collection::vec((0u64..KEYS, -1_000i64..1_000), 1..8), any::<bool>()),
            1..10,
        ),
        sweep_mask in 0u16..u16::MAX,
        shards in 1usize..9,
    ) {
        let dir = std::env::temp_dir().join(
            format!("mmdb-ckpt-replay-{}-{shards}", std::process::id()));
        let oracle_dir = std::env::temp_dir().join(
            format!("mmdb-ckpt-replay-oracle-{}-{shards}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&oracle_dir).ok();

        let engine = Engine::start(ckpt_options(&dir, shards)).unwrap();
        let s = engine.session();
        let mut commits = 0usize;
        let mut last_sweep = None;
        for (i, (writes, commit)) in txns.iter().enumerate() {
            let t = s.begin().unwrap();
            for &(key, value) in writes {
                s.write(&t, key, value).unwrap();
            }
            if *commit {
                let ticket = s.commit(t).unwrap();
                s.wait_durable(&ticket).unwrap();
                commits += 1;
            } else {
                s.abort(t).unwrap();
            }
            if sweep_mask & (1 << (i % 16)) != 0 {
                last_sweep = Some((engine.checkpoint_now().unwrap(), commits));
            }
        }
        engine.crash().unwrap();

        // The oracle sees only the live generation: same log suffix,
        // no checkpoint images, so it must replay the whole history.
        let oracle = FullLogOracle::recover(&ckpt_options(&dir, shards), &oracle_dir, KEYS).unwrap();
        let oracle_info = &oracle.info;
        let (real, real_info) = Engine::recover(ckpt_options(&dir, shards)).unwrap();

        prop_assert!(oracle_info.checkpoint_start.is_none(),
            "oracle dir had only live files yet recovery found a checkpoint");
        if let Some((sweep, commits_before)) = &last_sweep {
            // Every sweep here ran to completion (the crash is after the
            // loop), so recovery must have used the newest one, and what
            // it replays is that sweep's image plus a suffix of the live
            // log the oracle replayed in full.
            prop_assert!(real_info.checkpoint_start.is_some(),
                "completed sweep(s) but recovery fell back to full replay");
            prop_assert!(
                real_info.log_bytes_replayed
                    <= sweep.log_bytes_written + oracle_info.log_bytes_replayed,
                "checkpointed recovery replayed {} log bytes, more than the {}-byte \
                 image plus the oracle's full {}-byte history",
                real_info.log_bytes_replayed, sweep.log_bytes_written,
                oracle_info.log_bytes_replayed);
            // §5.3 bounded recovery: durable commits ahead of the sweep
            // sit in pages wholly below its replay floor, so the live
            // suffix is strictly shorter than the full history. Two
            // commits, not one: the newest one's undo entries can outlive
            // `wait_durable` by a scheduling beat and hold the floor at
            // its own page, but the single log writer finalizes a page's
            // commits before it retires the next page.
            if *commits_before >= 2 {
                prop_assert!(
                    real_info.log_bytes_replayed
                        < sweep.log_bytes_written + oracle_info.log_bytes_replayed,
                    "{} commits preceded the sweep, yet the live suffix replayed \
                     ({} - {} image bytes) is not below the full {}-byte history",
                    commits_before, real_info.log_bytes_replayed,
                    sweep.log_bytes_written, oracle_info.log_bytes_replayed);
            }
        }
        // The images agree on every key, and suffix replay can only
        // surface transactions the full replay also saw as committed.
        let divergence = oracle.diverges(&real, &real_info);
        prop_assert!(divergence.is_none(), "{} (sweeps ran: {})",
            divergence.as_deref().unwrap_or(""), last_sweep.is_some());

        real.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&oracle_dir).ok();
    }
}
