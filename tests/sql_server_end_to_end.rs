//! End-to-end tests of the SQL wire front end: a real TCP server over
//! a real engine, driven only through the client API — CRUD, joins,
//! explicit transactions, concurrent connections, and the full
//! crash → recover → reconnect cycle.

use mmdb_server::{Client, ClientConfig, ClientError, Server, ServerConfig};
use mmdb_session::{CommitPolicy, Engine, EngineOptions};
use mmdb_types::Value;
use std::path::PathBuf;
use std::time::Duration;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mmdb-sql-e2e-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn start(dir: &PathBuf) -> (Engine, mmdb_server::ServerHandle) {
    let engine = Engine::start(EngineOptions::new(CommitPolicy::Group, dir)).unwrap();
    let handle = Server::start(&engine, ServerConfig::default()).unwrap();
    (engine, handle)
}

#[test]
fn crud_and_join_over_tcp() {
    let dir = tmp_dir("crud");
    let (engine, handle) = start(&dir);
    let mut c = Client::connect(handle.addr()).unwrap();

    c.execute("CREATE TABLE emp (id INT, name TEXT, dept INT)")
        .unwrap();
    c.execute("CREATE TABLE dept (id INT, title TEXT)").unwrap();
    let r = c
        .execute("INSERT INTO emp VALUES (1, 'ann', 10), (2, 'bob', 20), (3, 'cat', 10)")
        .unwrap();
    assert_eq!(r.affected, 3);
    c.execute("INSERT INTO dept VALUES (10, 'eng'), (20, 'ops')")
        .unwrap();

    // Filtered select.
    let rows = c.query("SELECT name FROM emp WHERE dept = 10").unwrap();
    assert_eq!(rows.len(), 2);

    // Two-table equi-join with residual predicate.
    let r = c
        .execute(
            "SELECT emp.name, dept.title FROM emp JOIN dept ON emp.dept = dept.id \
             WHERE dept.title = 'eng'",
        )
        .unwrap();
    assert_eq!(r.columns, vec!["emp.name", "dept.title"]);
    let mut names: Vec<String> = r
        .rows
        .iter()
        .filter_map(|row| row.first())
        .filter_map(|v| v.as_str().map(str::to_string))
        .collect();
    names.sort();
    assert_eq!(names, vec!["ann", "cat"]);

    // Update and delete report affected counts.
    let r = c
        .execute("UPDATE emp SET dept = 20 WHERE name = 'cat'")
        .unwrap();
    assert_eq!(r.affected, 1);
    let r = c.execute("DELETE FROM emp WHERE dept = 20").unwrap();
    assert_eq!(r.affected, 2);
    let rows = c.query("SELECT id FROM emp").unwrap();
    assert_eq!(rows, vec![vec![Value::Int(1)]]);

    // Server-side errors arrive as error responses, not hangups — and
    // deterministic failures are marked non-retryable in-band.
    match c.execute("SELECT * FROM nope") {
        Err(ClientError::Server { msg, retryable }) => {
            assert!(msg.contains("nope"), "{msg}");
            assert!(!retryable, "a missing table is not a transient failure");
        }
        other => panic!("expected server error, got {other:?}"),
    }
    match c.execute("SELEKT 1") {
        Err(ClientError::Server { msg, retryable }) => {
            assert!(msg.contains("unknown statement"), "{msg}");
            assert!(!retryable, "a parse error is not a transient failure");
        }
        other => panic!("expected parse error, got {other:?}"),
    }
    // The connection is still usable after errors.
    assert_eq!(c.query("SELECT id FROM emp").unwrap().len(), 1);

    handle.shutdown().unwrap();
    engine.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn explicit_transactions_and_conflicts_over_tcp() {
    let dir = tmp_dir("txn");
    let (engine, handle) = start(&dir);
    let mut a = Client::connect(handle.addr()).unwrap();
    let mut b = Client::connect(handle.addr()).unwrap();

    a.execute("CREATE TABLE acct (id INT, bal INT)").unwrap();
    a.execute("INSERT INTO acct VALUES (1, 100), (2, 50)")
        .unwrap();

    // A transfers inside an explicit transaction; B sees the committed
    // result only after COMMIT returns (group commit made it durable).
    a.execute("BEGIN").unwrap();
    a.execute("UPDATE acct SET bal = bal - 30 WHERE id = 1")
        .unwrap();
    a.execute("UPDATE acct SET bal = bal + 30 WHERE id = 2")
        .unwrap();
    // B conflicts on the locked rows and is told so.
    assert!(b.execute("UPDATE acct SET bal = 0 WHERE id = 1").is_err());
    a.execute("COMMIT").unwrap();
    let rows = b.query("SELECT bal FROM acct WHERE id = 2").unwrap();
    assert_eq!(rows, vec![vec![Value::Int(80)]]);

    // ABORT really rolls back.
    b.execute("BEGIN").unwrap();
    b.execute("DELETE FROM acct WHERE id = 1").unwrap();
    b.execute("ABORT").unwrap();
    assert_eq!(b.query("SELECT id FROM acct").unwrap().len(), 2);

    // A dropped connection with an open transaction releases its locks.
    b.execute("BEGIN").unwrap();
    b.execute("UPDATE acct SET bal = 1 WHERE id = 1").unwrap();
    drop(b);
    for _ in 0..50 {
        if a.execute("UPDATE acct SET bal = bal + 1 WHERE id = 1")
            .is_ok()
        {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    let rows = a.query("SELECT bal FROM acct WHERE id = 1").unwrap();
    assert_eq!(rows, vec![vec![Value::Int(71)]]);

    handle.shutdown().unwrap();
    engine.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn catalog_and_rows_survive_crash_recover_reconnect() {
    let dir = tmp_dir("crash");
    let (engine, handle) = start(&dir);
    {
        let mut c = Client::connect(handle.addr()).unwrap();
        c.execute("CREATE TABLE kv (k INT, v TEXT)").unwrap();
        c.execute("BEGIN").unwrap();
        c.execute("INSERT INTO kv VALUES (1, 'one'), (2, 'two')")
            .unwrap();
        c.execute("COMMIT").unwrap();
        c.execute("UPDATE kv SET v = 'TWO' WHERE k = 2").unwrap();
        // Left uncommitted on purpose: must not survive the crash.
        c.execute("BEGIN").unwrap();
        c.execute("INSERT INTO kv VALUES (3, 'three')").unwrap();
    }
    handle.shutdown().unwrap();
    engine.crash().unwrap();

    let (engine, info) = Engine::recover(EngineOptions::new(CommitPolicy::Group, &dir)).unwrap();
    assert!(!info.committed.is_empty());
    let handle = Server::start(&engine, ServerConfig::default()).unwrap();
    let mut c = Client::connect(handle.addr()).unwrap();
    let mut rows = c.query("SELECT k, v FROM kv").unwrap();
    rows.sort();
    assert_eq!(
        rows,
        vec![
            vec![Value::Int(1), Value::Str("one".to_string())],
            vec![Value::Int(2), Value::Str("TWO".to_string())],
        ]
    );
    // The recovered catalog keeps serving writes.
    c.execute("INSERT INTO kv VALUES (4, 'four')").unwrap();
    assert_eq!(c.query("SELECT k FROM kv").unwrap().len(), 3);

    handle.shutdown().unwrap();
    engine.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hung_server_trips_the_read_deadline_instead_of_blocking_forever() {
    // A listener that accepts (at the TCP level) but never answers: the
    // old client would block in read() indefinitely; the default-on
    // read deadline must surface a timeout in bounded time.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let config = ClientConfig {
        read_deadline: Duration::from_millis(300),
        max_retries: 0,
        ..ClientConfig::default()
    };
    let mut c = Client::connect_with(addr, config).unwrap();
    let started = std::time::Instant::now();
    match c.execute("SELECT a FROM t") {
        Err(ClientError::Timeout(_)) => {}
        other => panic!("expected a read-deadline timeout, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "timeout took {:?} — the deadline is not bounding the read",
        started.elapsed()
    );
    drop(listener);
}

#[test]
fn refused_connection_gets_an_in_band_retryable_error_and_is_counted() {
    let dir = tmp_dir("refuse");
    let engine = Engine::start(EngineOptions::new(CommitPolicy::Group, &dir)).unwrap();
    let config = ServerConfig {
        max_connections: 1,
        ..ServerConfig::default()
    };
    let handle = Server::start(&engine, config).unwrap();

    let mut a = Client::connect(handle.addr()).unwrap();
    a.execute("CREATE TABLE t (a INT)").unwrap();

    // The second connection is over capacity: the server must say so
    // in-band (a retryable error) rather than silently hanging up, and
    // must count the refusal.
    let refused = engine.registry().counter(
        "mmdb_server_refused_total",
        "Connections refused at the connection-count cap",
    );
    let before = refused.get();
    let config = ClientConfig {
        max_retries: 0,
        ..ClientConfig::default()
    };
    let mut b = Client::connect_with(handle.addr(), config).unwrap();
    match b.execute("SELECT a FROM t") {
        Err(ClientError::Server { msg, retryable }) => {
            assert!(msg.contains("capacity"), "{msg}");
            assert!(retryable, "a capacity refusal must invite a retry");
        }
        other => panic!("expected an in-band refusal, got {other:?}"),
    }
    assert!(
        refused.get() > before,
        "mmdb_server_refused_total did not move"
    );

    handle.shutdown().unwrap();
    engine.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_drain_with_an_open_transaction_recovers_clean() {
    let dir = tmp_dir("drain");
    let (engine, handle) = start(&dir);
    let mut c = Client::connect(handle.addr()).unwrap();
    c.execute("CREATE TABLE t (a INT, b INT)").unwrap();
    c.execute("INSERT INTO t VALUES (1, 10), (2, 20)").unwrap();
    // Leave a transaction open across the drain: its work must die with
    // the server, not leak into the recovered image.
    c.execute("BEGIN").unwrap();
    c.execute("UPDATE t SET b = 999 WHERE a = 1").unwrap();

    handle.shutdown().unwrap();
    drop(c);
    engine.crash().unwrap();

    let (engine, _info) = Engine::recover(EngineOptions::new(CommitPolicy::Group, &dir)).unwrap();
    let handle = Server::start(&engine, ServerConfig::default()).unwrap();
    let mut c = Client::connect(handle.addr()).unwrap();
    let mut rows = c.query("SELECT a, b FROM t").unwrap();
    rows.sort();
    assert_eq!(
        rows,
        vec![
            vec![Value::Int(1), Value::Int(10)],
            vec![Value::Int(2), Value::Int(20)],
        ],
        "the drained-but-uncommitted update leaked into recovery"
    );
    // The recovered stack still serves writes.
    c.execute("UPDATE t SET b = 11 WHERE a = 1").unwrap();
    assert_eq!(
        c.query("SELECT b FROM t WHERE a = 1").unwrap(),
        vec![vec![Value::Int(11)]]
    );

    handle.shutdown().unwrap();
    engine.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overload_sheds_reads_in_band_and_queued_writes_on_deadline() {
    let dir = tmp_dir("shed");
    let engine = Engine::start(
        EngineOptions::new(CommitPolicy::Group, &dir)
            .with_lock_wait_timeout(Duration::from_secs(2)),
    )
    .unwrap();
    let config = ServerConfig {
        max_inflight_statements: 1,
        admission_queue: 0,
        admission_deadline: Duration::from_millis(50),
        ..ServerConfig::default()
    };
    let handle = Server::start(&engine, config).unwrap();

    let mut a = Client::connect(handle.addr()).unwrap();
    a.execute("CREATE TABLE t (a INT, b INT)").unwrap();
    a.execute("INSERT INTO t VALUES (1, 10)").unwrap();
    // A holds a row lock inside an open transaction; in-transaction
    // statements bypass admission, so this never counts against the
    // inflight capacity.
    a.execute("BEGIN").unwrap();
    a.execute("UPDATE t SET b = 11 WHERE a = 1").unwrap();

    // B's autocommit write takes the single execution slot and blocks
    // on the row lock inside the engine.
    let addr = handle.addr();
    let blocked = std::thread::spawn(move || {
        let config = ClientConfig {
            max_retries: 0,
            ..ClientConfig::default()
        };
        let mut b = Client::connect_with(addr, config).unwrap();
        b.execute("UPDATE t SET b = 12 WHERE a = 1")
    });
    std::thread::sleep(Duration::from_millis(300));

    let shed = engine.registry().counter(
        "mmdb_server_shed_total",
        "Statements shed by admission control before running",
    );
    let before = shed.get();
    let config = ClientConfig {
        max_retries: 0,
        ..ClientConfig::default()
    };
    // Reads shed immediately at capacity...
    let mut r = Client::connect_with(handle.addr(), config.clone()).unwrap();
    match r.execute("SELECT a FROM t") {
        Err(ClientError::Server { msg, retryable }) => {
            assert!(msg.contains("overloaded"), "{msg}");
            assert!(retryable, "a shed statement must invite a retry");
        }
        other => panic!("expected the read to be shed, got {other:?}"),
    }
    // ...and writes beyond the queue bound are shed too.
    let mut w = Client::connect_with(handle.addr(), config).unwrap();
    match w.execute("UPDATE t SET b = 13 WHERE a = 1") {
        Err(ClientError::Server { msg, retryable }) => {
            assert!(msg.contains("overloaded"), "{msg}");
            assert!(retryable, "a shed statement must invite a retry");
        }
        other => panic!("expected the write to be shed, got {other:?}"),
    }
    assert!(
        shed.get() >= before + 2,
        "mmdb_server_shed_total did not move"
    );

    // Releasing the lock lets the queued write through: shedding
    // refused new work without starving work already admitted.
    a.execute("ABORT").unwrap();
    let result = blocked
        .join()
        .unwrap()
        .expect("the admitted write must finish");
    assert_eq!(result.affected, 1);

    handle.shutdown().unwrap();
    engine.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_connections_commit_disjoint_rows() {
    let dir = tmp_dir("fanout");
    let (engine, handle) = start(&dir);
    let mut c = Client::connect(handle.addr()).unwrap();
    c.execute("CREATE TABLE t (id INT, who INT)").unwrap();

    let addr = handle.addr();
    let threads: Vec<_> = (0..8)
        .map(|who| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                for i in 0..10 {
                    c.execute(&format!("INSERT INTO t VALUES ({}, {who})", who * 100 + i))
                        .unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(c.query("SELECT id FROM t").unwrap().len(), 80);

    handle.shutdown().unwrap();
    engine.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A transport that counts the calls made on a real socket.
struct Counted {
    stream: std::net::TcpStream,
    reads: std::sync::Arc<std::sync::atomic::AtomicU64>,
    writes: std::sync::Arc<std::sync::atomic::AtomicU64>,
}

impl std::io::Read for Counted {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.reads.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        self.stream.read(buf)
    }
}

impl std::io::Write for Counted {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes
            .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        self.stream.write(buf)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        self.stream.flush()
    }
}

impl mmdb_server::Transport for Counted {
    fn set_read_timeout(&mut self, t: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(t)
    }
    fn set_write_timeout(&mut self, t: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_write_timeout(t)
    }
    fn set_nodelay(&mut self, on: bool) -> std::io::Result<()> {
        self.stream.set_nodelay(on)
    }
}

#[test]
fn a_point_select_costs_one_read_and_one_write_on_each_end() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    let dir = tmp_dir("syscalls");
    let (engine, handle) = start(&dir);
    let (reads, writes) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
    let addr = handle.addr();
    let (r, w) = (Arc::clone(&reads), Arc::clone(&writes));
    let dialer = Box::new(move || {
        Ok(Box::new(Counted {
            stream: std::net::TcpStream::connect(addr)?,
            reads: Arc::clone(&r),
            writes: Arc::clone(&w),
        }) as Box<dyn mmdb_server::Transport>)
    });
    let mut c = Client::from_dialer(dialer, ClientConfig::default()).unwrap();
    c.execute("CREATE TABLE t (id INT, v INT)").unwrap();
    let rows: Vec<String> = (0..50).map(|i| format!("({i}, {})", i * 10)).collect();
    c.execute(&format!("INSERT INTO t VALUES {}", rows.join(", ")))
        .unwrap();

    let counts = || {
        let server = engine.stats();
        (
            reads.load(Ordering::SeqCst),
            writes.load(Ordering::SeqCst),
            server.counter("mmdb_server_socket_reads_total").unwrap(),
            server.counter("mmdb_server_socket_writes_total").unwrap(),
        )
    };
    let before = counts();
    for i in 0..1_000i64 {
        let id = i % 50;
        let got = c
            .query(&format!("SELECT v FROM t WHERE id = {id}"))
            .unwrap();
        assert_eq!(got, vec![vec![Value::Int(id * 10)]]);
    }
    let after = counts();
    // Client: one write out and one read back per statement, exactly.
    assert_eq!(after.1 - before.1, 1_000);
    assert_eq!(after.0 - before.0, 1_000);
    // Server: one write per answer, exactly; one read per request, give
    // or take the read it is already blocked in at either snapshot, plus
    // at most a few idle polls while the client was between statements.
    assert_eq!(after.3 - before.3, 1_000);
    let server_reads = after.2 - before.2;
    assert!(
        (999..=1_010).contains(&server_reads),
        "{server_reads} server reads"
    );

    drop(c);
    handle.shutdown().unwrap();
    engine.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn two_requests_sent_in_one_segment_are_both_answered_in_order() {
    use mmdb_server::proto::{self, FrameRead};
    use std::io::Write;

    let dir = tmp_dir("pipelined");
    let (engine, handle) = start(&dir);
    let mut setup = Client::connect(handle.addr()).unwrap();
    setup.execute("CREATE TABLE t (id INT, v INT)").unwrap();
    setup
        .execute("INSERT INTO t VALUES (1, 10), (2, 20)")
        .unwrap();

    // No client API pipelines; the protocol needs no change for a peer
    // that does. Both frames leave in one write.
    let mut wire = Vec::new();
    proto::write_frame(&mut wire, b"SELECT v FROM t WHERE id = 1").unwrap();
    proto::write_frame(&mut wire, b"SELECT v FROM t WHERE id = 2").unwrap();
    let mut raw = std::net::TcpStream::connect(handle.addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    raw.write_all(&wire).unwrap();
    for want in [10, 20] {
        match proto::read_frame(&mut raw).unwrap() {
            FrameRead::Frame(payload) => {
                let result = proto::decode_response(&payload).unwrap().unwrap();
                assert_eq!(result.rows, vec![vec![Value::Int(want)]]);
            }
            other => panic!("expected an answer, got {other:?}"),
        }
    }

    drop(raw);
    drop(setup);
    handle.shutdown().unwrap();
    engine.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
