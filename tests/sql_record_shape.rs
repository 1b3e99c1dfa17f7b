//! Pins the storage shape of a SQL row: one row is one engine key, one
//! lock and one log record, whatever its length.

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

#[test]
fn one_row_update_appends_exactly_one_put_record() {
    let dir = tmp_dir("update1");
    let engine = Engine::start(options(&dir)).unwrap();
    let db = SqlDb::open(&engine).unwrap();
    let mut s = db.session();
    s.execute("CREATE TABLE acct (id INT, owner TEXT, bal INT)")
        .unwrap();
    s.execute("INSERT INTO acct VALUES (1, 'ann', 100), (2, 'bob', 50)")
        .unwrap();
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
    s.execute("UPDATE acct SET bal = bal + 10 WHERE id = 2")
        .unwrap();
    let after = puts();
    assert_eq!(after.len() - before, 1);
    let row = |bal: i64| {
        let tuple = Tuple::new(vec![Value::Int(2), "bob".into(), Value::Int(bal)]);
        codec::encode_row(&tuple).unwrap()
    };
    match after.last() {
        Some(LogRecord::Put { key, old, new, .. }) => {
            assert_eq!(*key, codec::row_key(0, 1).unwrap());
            assert_eq!(old.as_deref(), Some(row(50).as_slice()), "§5.1 old value");
            assert_eq!(new.as_ref(), row(60).as_slice(), "§5.1 new value");
        }
        other => panic!("expected the update's put, found {other:?}"),
    }
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
    // Rewriting the row in place logs it whole again, old and new.
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
