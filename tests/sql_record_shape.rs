//! Pins the storage shape of a SQL row — one row is one engine key, one
//! lock and one log record, whatever its length — and of a transaction
//! in the log (§5.4): it arrives once, at commit, as the new value of
//! each row it wrote plus a commit record; a rollback never arrives.

use mmdb_recovery::wal::read_log_file;
use mmdb_recovery::LogRecord;
use mmdb_session::{CommitPolicy, Engine, EngineOptions};
use mmdb_sql::ast::Literal;
use mmdb_sql::codec::{self, MAX_ROW_BYTES};
use mmdb_sql::{SqlDb, SqlError, Statement};
use mmdb_types::{Auditable, Error, Tuple, Value};
use std::path::{Path, PathBuf};

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mmdb-sql-shape-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn options(dir: &Path) -> EngineOptions {
    EngineOptions::new(CommitPolicy::Group, dir)
}

#[test]
fn sixteen_row_insert_adds_exactly_sixteen_keys() {
    let dir = tmp_dir("insert16");
    let engine = Engine::start(options(&dir)).unwrap();
    let db = SqlDb::open(&engine).unwrap();
    let mut s = db.session();
    s.execute("CREATE TABLE events (id INT, kind INT, note TEXT)")
        .unwrap();
    let keys = || engine.session().snapshot_kv().unwrap().len();
    let before = keys();
    assert_eq!(before, 1, "the schema is one key");
    let rows: Vec<String> = (0..16)
        .map(|i| format!("({i}, {}, '{}')", i % 3, "x".repeat(10 * i)))
        .collect();
    let r = s
        .execute(&format!("INSERT INTO events VALUES {}", rows.join(", ")))
        .unwrap();
    assert_eq!(r.affected, 16);
    assert_eq!(keys() - before, 16);
    // Rewriting and deleting rows adds no keys either.
    s.execute("UPDATE events SET note = 'rewritten, and longer than it was' WHERE kind = 1")
        .unwrap();
    s.execute("DELETE FROM events WHERE kind = 2").unwrap();
    assert_eq!(keys() - before, 16);
    db.audit().unwrap();
    engine.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// `acct` with ann (100) and bob (50), every statement so far durable.
fn two_accounts(dir: &Path) -> (Engine, SqlDb) {
    let engine = Engine::start(options(dir)).unwrap();
    let db = SqlDb::open(&engine).unwrap();
    let mut s = db.session();
    s.execute("CREATE TABLE acct (id INT, owner TEXT, bal INT)")
        .unwrap();
    s.execute("INSERT INTO acct VALUES (1, 'ann', 100), (2, 'bob', 50)")
        .unwrap();
    (engine, db)
}

fn acct_row(id: i64, owner: &str, bal: i64) -> Vec<u8> {
    let tuple = Tuple::new(vec![Value::Int(id), owner.into(), Value::Int(bal)]);
    codec::encode_row(&tuple).unwrap()
}

#[test]
fn one_row_update_appends_exactly_one_put_record() {
    let dir = tmp_dir("update1");
    let (engine, db) = two_accounts(&dir);
    // Autocommit statements return once durable, so the device file
    // already holds everything logged so far.
    let puts = || -> Vec<LogRecord> {
        read_log_file(&dir.join("wal-d0.log"))
            .unwrap()
            .into_iter()
            .map(|(_, rec)| rec)
            .filter(|rec| matches!(rec, LogRecord::Put { .. }))
            .collect()
    };
    let before = puts().len();
    assert_eq!(before, 3, "one schema, two rows");
    db.session()
        .execute("UPDATE acct SET bal = bal + 10 WHERE id = 2")
        .unwrap();
    let after = puts();
    assert_eq!(after.len() - before, 1);
    match after.last() {
        Some(LogRecord::Put { key, new, .. }) => {
            assert_eq!(*key, codec::row_key(0, 1).unwrap());
            assert_eq!(new.as_ref(), acct_row(2, "bob", 60), "§5.4: the new value");
        }
        other => panic!("expected the update's put, found {other:?}"),
    }
    engine.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// The guard for the benchmark's `log_bytes_per_op`: a transfer-shaped
/// transaction costs one page frame, one redo record per row at
/// 8 (LSN) + 17 (tag, txn, key) + 4 (length) + the encoded row, and a
/// 17-byte commit record. No begin record, no pre-images.
#[test]
fn a_two_update_transaction_grows_the_log_by_two_puts_and_a_commit() {
    let dir = tmp_dir("transfer-shape");
    let (engine, db) = two_accounts(&dir);
    let log = dir.join("wal-d0.log");
    let records_before = read_log_file(&log).unwrap().len();
    let bytes_before = std::fs::metadata(&log).unwrap().len();
    let mut s = db.session();
    for sql in [
        "BEGIN",
        "UPDATE acct SET bal = bal - 10 WHERE id = 1",
        "UPDATE acct SET bal = bal + 10 WHERE id = 2",
        "COMMIT",
    ] {
        s.execute(sql).unwrap();
    }
    let records = read_log_file(&log).unwrap();
    let rows = [acct_row(1, "ann", 90), acct_row(2, "bob", 60)];
    match &records[records_before..] {
        [(
            _,
            LogRecord::Put {
                txn,
                key: k1,
                new: n1,
            },
        ), (
            _,
            LogRecord::Put {
                txn: t2,
                key: k2,
                new: n2,
            },
        ), (_, LogRecord::Commit { txn: t3 })] => {
            assert!(txn == t2 && txn == t3, "one transaction");
            // The two rows may sit on different shards: either order.
            let mut logged = [(*k1, n1.to_vec()), (*k2, n2.to_vec())];
            logged.sort();
            let [ann, bob] = rows.clone();
            assert_eq!(
                logged,
                [
                    (codec::row_key(0, 0).unwrap(), ann),
                    (codec::row_key(0, 1).unwrap(), bob)
                ]
            );
        }
        other => panic!("expected [Put, Put, Commit], found {other:?}"),
    }
    let frame = 16;
    let puts: usize = rows.iter().map(|row| 8 + 17 + 4 + row.len()).sum();
    let commit = 8 + 9;
    assert_eq!(
        std::fs::metadata(&log).unwrap().len() - bytes_before,
        (frame + puts + commit) as u64
    );
    // The engine's own counter says the same as the file.
    let stats = engine.stats();
    assert_eq!(
        stats.counter("mmdb_session_log_bytes_total"),
        Some(std::fs::metadata(&log).unwrap().len())
    );
    engine.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rollback_leaves_the_log_file_byte_identical() {
    let dir = tmp_dir("rollback-bytes");
    let (engine, db) = two_accounts(&dir);
    let log = dir.join("wal-d0.log");
    let bytes_before = std::fs::read(&log).unwrap();
    let records_before = read_log_file(&log).unwrap().len();
    let mut s = db.session();
    for sql in [
        "BEGIN",
        "UPDATE acct SET bal = bal - 10 WHERE id = 1",
        "INSERT INTO acct VALUES (3, 'cat', 1)",
        "ROLLBACK",
    ] {
        s.execute(sql).unwrap();
    }
    assert_eq!(std::fs::read(&log).unwrap(), bytes_before);
    // Had the rollback left anything queued, the next durable commit's
    // page would carry it to the file.
    s.execute("UPDATE acct SET bal = 51 WHERE id = 2").unwrap();
    let records = read_log_file(&log).unwrap();
    let tail = &records[records_before..];
    assert!(
        matches!(
            tail,
            [(_, LogRecord::Put { .. }), (_, LogRecord::Commit { .. })]
        ),
        "only the later update reached the log: {tail:?}"
    );
    db.audit().unwrap();
    engine.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_row_of_max_row_bytes_survives_crash_and_recovery_one_more_byte_is_refused() {
    let dir = tmp_dir("maxrow");
    let opts = options(&dir);
    assert!(
        MAX_ROW_BYTES > 8 * opts.page_bytes,
        "the row spans many pages"
    );
    let engine = Engine::start(opts.clone()).unwrap();
    let db = SqlDb::open(&engine).unwrap();
    let mut s = db.session();
    s.execute("CREATE TABLE blobs (id INT, body TEXT)").unwrap();
    // An INT is 9 encoded bytes, a TEXT is 5 plus its length. Built as
    // a parsed statement: the lexer caps a literal far below a row.
    let insert = |id: i64, body: &str| Statement::Insert {
        table: "blobs".to_string(),
        columns: None,
        rows: vec![vec![Literal::Int(id), Literal::Str(body.to_string())]],
    };
    let body = "b".repeat(MAX_ROW_BYTES - 14);
    s.run(&insert(1, &body)).unwrap();
    match s.run(&insert(2, &format!("{body}b"))) {
        Err(SqlError::Exec(Error::TupleTooLarge(n))) => assert_eq!(n, MAX_ROW_BYTES + 1),
        other => panic!("expected TupleTooLarge, got {other:?}"),
    }
    // Rewriting the row in place logs it whole again, the new value only.
    s.execute("UPDATE blobs SET id = 7 WHERE id = 1").unwrap();
    drop(s);
    engine.crash().unwrap();
    let (engine, info) = Engine::recover(opts).unwrap();
    assert_eq!(info.corrupt_pages_dropped, 0);
    let db = SqlDb::open(&engine).unwrap();
    let r = db.session().execute("SELECT id, body FROM blobs").unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(7), Value::Str(body)]]);
    db.audit().unwrap();
    engine.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
