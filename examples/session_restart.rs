//! The §5.2 restart story on the wall-clock engine: commit under group
//! commit, crash, recover, keep committing, restart again — every
//! durably-committed transaction survives every restart. Recovery
//! replays the log, starts the engine on a fresh live log whose LSNs
//! continue the replayed ones, and takes a §5.3 checkpoint of the
//! recovered state; that sweep deletes the old files only once its
//! image is durably complete, and the next restart loads the image and
//! redoes the live log past it.
//!
//! ```text
//! cargo run --release --example session_restart
//! ```

use mmdb_session::{CommitPolicy, Engine, EngineOptions};
use std::time::Duration;

fn options(dir: &std::path::Path) -> EngineOptions {
    EngineOptions::new(CommitPolicy::Group, dir)
        .with_page_write_latency(Duration::from_micros(200))
        .with_flush_interval(Duration::from_micros(500))
}

fn main() {
    let dir = std::env::temp_dir().join(format!("mmdb-session-restart-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    // Generation 0: commit 10 accounts durably, then crash.
    let engine = Engine::start(options(&dir)).unwrap();
    let session = engine.session();
    for account in 0..10u64 {
        let txn = session.begin().unwrap();
        session.write(&txn, account, 100 * account as i64).unwrap();
        session.commit_durable(txn).unwrap();
    }
    // One more commit that is pre-committed but never flushed: the
    // crash must take it, and only it.
    let txn = session.begin().unwrap();
    session.write(&txn, 99, 999).unwrap();
    let _ticket = session.commit(txn).unwrap();
    engine.crash().unwrap();
    println!("crashed with 10 durable commits and 1 in the queue");

    // Recover, verify, commit more on top of the restart's checkpoint.
    let (engine, info) = Engine::recover(options(&dir)).unwrap();
    println!(
        "recover #1: {} committed, {} losers, {} records scanned",
        info.committed.len(),
        info.losers.len(),
        info.records_scanned
    );
    assert_eq!(info.committed.len(), 10);
    assert_eq!(engine.read(99).unwrap(), None, "unflushed commit gone");
    let session = engine.session();
    let txn = session.begin().unwrap();
    session.write(&txn, 10, 1_000).unwrap();
    session.commit_durable(txn).unwrap();
    engine.shutdown().unwrap();

    // Restart again: the checkpoint image and the post-recovery commit
    // in the live log past it must both still be there.
    let (engine, info) = Engine::recover(options(&dir)).unwrap();
    println!(
        "recover #2: {} committed, checkpoint image + post-recovery commit intact",
        info.committed.len()
    );
    for account in 0..10u64 {
        assert_eq!(engine.read(account).unwrap(), Some(100 * account as i64));
    }
    assert_eq!(engine.read(10).unwrap(), Some(1_000));
    engine.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
    println!("all commits survived both restarts");
}
