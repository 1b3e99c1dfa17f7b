//! The TCP server: bounded accept loop, one SQL session per
//! connection, graceful drain on shutdown.
//!
//! Concurrency is thread-per-connection — the same model the engine's
//! own sessions use (§5.2 assumes a process per terminal; OS threads
//! are the modern spelling). The server itself holds *no* locks: the
//! accept thread owns the connection handles, shutdown is one shared
//! atomic flag, and everything else (catalog, store, metrics) is
//! synchronized by the layers that own it. Connections poll their
//! socket with a short read timeout so a shutdown request is noticed
//! within [`POLL_INTERVAL`] even on an idle connection, while a
//! request already in flight always runs to completion and gets its
//! response — that is the drain.

use crate::admission::{Admission, AdmitClass};
use crate::proto::{self, Framed, Recv};
use crate::transport::Transport;
use mmdb_obs::{Counter, Gauge, Histogram, Registry};
use mmdb_session::Engine;
use mmdb_sql::ast::STATEMENT_KINDS;
use mmdb_sql::parser::parse;
use mmdb_sql::{ErrorClass, SqlDb, StatementKind};
use mmdb_types::error::{Error, Result};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often blocked reads wake up to recheck the shutdown flag.
pub const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Tunables for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see
    /// [`ServerHandle::addr`] for the result).
    pub addr: String,
    /// Connections beyond this are refused with an error response.
    pub max_connections: usize,
    /// A connection idle longer than this is closed.
    pub idle_timeout: Duration,
    /// Socket write timeout for a single response write attempt; a
    /// timed-out attempt counts one write stall against
    /// [`ServerConfig::write_stall_budget`].
    pub write_timeout: Duration,
    /// Statements executing concurrently before admission control
    /// starts shedding (in-transaction statements are exempt).
    pub max_inflight_statements: usize,
    /// Autocommit writes allowed to wait for an execution slot; beyond
    /// this they are shed with a retryable error.
    pub admission_queue: usize,
    /// Longest an autocommit write waits for admission before being
    /// shed with a retryable error.
    pub admission_deadline: Duration,
    /// Cumulative time a connection's response writes may spend
    /// stalled before the client is declared slow and disconnected.
    pub write_stall_budget: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_connections: 256,
            idle_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_millis(500),
            max_inflight_statements: 128,
            admission_queue: 256,
            admission_deadline: Duration::from_secs(2),
            write_stall_budget: Duration::from_secs(2),
        }
    }
}

/// Server-side metric handles, all registered on the engine's registry
/// so `render_metrics()` exposes engine and server families together.
struct Metrics {
    active: Arc<Gauge>,
    connections: Arc<Counter>,
    requests: Arc<Counter>,
    parse_errors: Arc<Counter>,
    protocol_errors: Arc<Counter>,
    refused: Arc<Counter>,
    shed: Arc<Counter>,
    retryable_errors: Arc<Counter>,
    write_stalls: Arc<Counter>,
    slow_client_disconnects: Arc<Counter>,
    socket_reads: Arc<Counter>,
    socket_writes: Arc<Counter>,
    inflight: Arc<Gauge>,
    admission_wait: Arc<Histogram>,
    latency: Vec<(StatementKind, Arc<Histogram>)>,
}

impl Metrics {
    fn register(registry: &Registry) -> Metrics {
        let mut latency = Vec::with_capacity(STATEMENT_KINDS.len());
        for kind in STATEMENT_KINDS {
            latency.push((
                kind,
                registry.histogram_labeled(
                    "mmdb_server_request_latency_us",
                    "Wall time from request frame decoded to response encoded",
                    Some(("stmt", kind.to_string())),
                ),
            ));
        }
        Metrics {
            active: registry.gauge(
                "mmdb_server_active_connections_count",
                "Connections currently open",
            ),
            connections: registry.counter(
                "mmdb_server_connections_total",
                "Connections ever accepted (including refused-at-capacity)",
            ),
            requests: registry.counter("mmdb_server_requests_total", "Request frames received"),
            parse_errors: registry.counter(
                "mmdb_server_parse_errors_total",
                "Requests rejected by the SQL parser",
            ),
            protocol_errors: registry.counter(
                "mmdb_server_protocol_errors_total",
                "Connections dropped for framing or transport errors",
            ),
            refused: registry.counter(
                "mmdb_server_refused_total",
                "Connections refused at the connection-count cap",
            ),
            shed: registry.counter(
                "mmdb_server_shed_total",
                "Statements shed by admission control before running",
            ),
            retryable_errors: registry.counter(
                "mmdb_server_retryable_errors_total",
                "Error responses classified retryable (sheds, lock conflicts, shutdown)",
            ),
            write_stalls: registry.counter(
                "mmdb_server_write_stalls_total",
                "Response write attempts that stalled on a slow client",
            ),
            slow_client_disconnects: registry.counter(
                "mmdb_server_slow_client_disconnects_total",
                "Connections dropped for exhausting the write-stall budget",
            ),
            socket_reads: registry.counter(
                "mmdb_server_socket_reads_total",
                "read calls made on connection sockets (idle polls included)",
            ),
            socket_writes: registry.counter(
                "mmdb_server_socket_writes_total",
                "write calls made on connection sockets",
            ),
            inflight: registry.gauge(
                "mmdb_server_inflight_statements_count",
                "Statements currently executing",
            ),
            admission_wait: registry.histogram(
                "mmdb_server_admission_wait_us",
                "Time from statement arrival to admission (or shed)",
            ),
            latency,
        }
    }

    fn latency_for(&self, kind: StatementKind) -> Option<&Arc<Histogram>> {
        self.latency
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, h)| h)
    }
}

/// The SQL-over-TCP server. Construct with [`Server::start`]; the
/// returned [`ServerHandle`] owns the listener thread.
pub struct Server;

impl Server {
    /// Opens the SQL layer over `engine` and starts accepting
    /// connections per `config`.
    pub fn start(engine: &Engine, config: ServerConfig) -> Result<ServerHandle> {
        let db = SqlDb::open(engine)?;
        let metrics = Arc::new(Metrics::register(&engine.registry()));
        let admission = Arc::new(Admission::new(
            config.max_inflight_statements,
            config.admission_queue,
            config.admission_deadline,
        ));
        let listener =
            TcpListener::bind(&config.addr).map_err(|e| Error::Io(format!("bind: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| Error::Io(format!("local_addr: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| Error::Io(format!("set_nonblocking: {e}")))?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let served = db.clone();
        let accept = std::thread::Builder::new()
            .name("mmdb-server-accept".to_string())
            .spawn(move || accept_loop(listener, served, metrics, admission, flag, config))
            .map_err(|e| Error::Io(format!("spawn accept thread: {e}")))?;
        Ok(ServerHandle {
            addr,
            db,
            shutdown,
            accept: Some(accept),
        })
    }
}

/// Handle to a running server: its bound address and the shutdown
/// switch. Dropping the handle also shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    db: SqlDb,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The SQL database every connection of this server runs against —
    /// for auditing its row cache against the engine once drained.
    pub fn db(&self) -> &SqlDb {
        &self.db
    }

    /// Stops accepting, lets in-flight requests finish, joins every
    /// connection thread, and returns once the listener thread exits.
    pub fn shutdown(mut self) -> Result<()> {
        self.stop()
    }

    fn stop(&mut self) -> Result<()> {
        // ordering: the flag is a pure on/off signal; every observer
        // re-polls it, so relaxed visibility latency only delays (never
        // loses) the shutdown.
        self.shutdown.store(true, Ordering::Relaxed);
        match self.accept.take() {
            Some(handle) => handle
                .join()
                .map_err(|_| Error::Internal("server accept thread panicked".to_string())),
            None => Ok(()),
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

fn accept_loop(
    listener: TcpListener,
    db: SqlDb,
    metrics: Arc<Metrics>,
    admission: Arc<Admission>,
    shutdown: Arc<AtomicBool>,
    config: ServerConfig,
) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    loop {
        // ordering: shutdown flag, see ServerHandle::stop.
        if shutdown.load(Ordering::Relaxed) {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                metrics.connections.inc();
                // The accepted socket inherits no non-blocking mode on
                // all platforms we care about, but be explicit.
                if stream.set_nonblocking(false).is_err() {
                    metrics.protocol_errors.inc();
                    continue;
                }
                if metrics.active.get() >= config.max_connections as i64 {
                    refuse(stream, &metrics);
                    continue;
                }
                metrics.active.add(1);
                let session = db.session();
                let m = Arc::clone(&metrics);
                let adm = Arc::clone(&admission);
                let flag = Arc::clone(&shutdown);
                let cfg = config.clone();
                let spawned = std::thread::Builder::new()
                    .name("mmdb-server-conn".to_string())
                    .spawn(move || {
                        serve_connection(stream, session, &m, &adm, &flag, &cfg);
                        m.active.add(-1);
                    });
                match spawned {
                    Ok(handle) => conns.push(handle),
                    Err(_) => metrics.active.add(-1),
                }
                conns.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                conns.retain(|h| !h.is_finished());
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                metrics.protocol_errors.inc();
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
    // Drain: connection threads notice the flag at their next poll and
    // exit after finishing whatever request is in flight.
    for handle in conns {
        let _ = handle.join();
    }
}

/// Tells an over-capacity client why it is being dropped. The refusal
/// is counted either way; a client that cannot even be told (its
/// socket is already broken) additionally counts a protocol error, so
/// refused connections never vanish from the ledger.
fn refuse(mut stream: TcpStream, metrics: &Metrics) {
    metrics.refused.inc();
    metrics.retryable_errors.inc();
    let mut refusal = Vec::new();
    proto::encode_retryable_into(&mut refusal, "server at capacity");
    if stream
        .set_write_timeout(Some(Duration::from_secs(1)))
        .is_err()
        || proto::write_frame(&mut stream, &refusal).is_err()
    {
        metrics.protocol_errors.inc();
    }
}

/// A connection's transport with every `read` and `write` call counted:
/// with `mmdb_server_requests_total` the two counters give system calls
/// per request from a running server.
struct Metered<'a, T> {
    io: T,
    metrics: &'a Metrics,
}

impl<T: Read> Read for Metered<'_, T> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.metrics.socket_reads.inc();
        self.io.read(buf)
    }
}

impl<T: Write> Write for Metered<'_, T> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.metrics.socket_writes.inc();
        self.io.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.io.flush()
    }
}

fn serve_connection<T: Transport>(
    mut stream: T,
    mut session: mmdb_sql::SqlSession,
    metrics: &Metrics,
    admission: &Admission,
    shutdown: &AtomicBool,
    config: &ServerConfig,
) {
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err()
        || stream
            .set_write_timeout(Some(config.write_timeout))
            .is_err()
    {
        metrics.protocol_errors.inc();
        return;
    }
    let _ = stream.set_nodelay(true);
    let mut conn = Framed::new(Metered {
        io: stream,
        metrics,
    });
    let mut idle_since = Instant::now();
    // Slow-client accounting: response writes share one per-connection
    // stall budget; a client that keeps the server blocked in write()
    // for the whole budget is disconnected rather than allowed to pin
    // a server thread (and whatever locks its session holds).
    let mut stall_budget = config.write_stall_budget;
    loop {
        match conn.recv() {
            Ok(Recv::Idle) => {
                // ordering: shutdown flag, see ServerHandle::stop.
                if shutdown.load(Ordering::Relaxed) {
                    break;
                }
                if idle_since.elapsed() >= config.idle_timeout {
                    break;
                }
            }
            Ok(Recv::Eof) => break,
            Ok(Recv::Frame) => {
                idle_since = Instant::now();
                metrics.requests.inc();
                let (request, reply) = conn.exchange();
                handle_request(request, reply, &mut session, metrics, admission);
                match conn.send(stall_budget) {
                    Ok(stalls) => {
                        metrics.write_stalls.add(stalls.stalls);
                        stall_budget = stall_budget.saturating_sub(stalls.stalled);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::TimedOut => {
                        metrics.write_stalls.inc();
                        metrics.slow_client_disconnects.inc();
                        break;
                    }
                    Err(_) => {
                        metrics.protocol_errors.inc();
                        break;
                    }
                }
            }
            Err(_) => {
                metrics.protocol_errors.inc();
                break;
            }
        }
    }
    // SqlSession::drop aborts any transaction the client left open.
}

/// Runs one request and appends its response payload to `reply`.
fn handle_request(
    payload: &[u8],
    reply: &mut Vec<u8>,
    session: &mut mmdb_sql::SqlSession,
    metrics: &Metrics,
    admission: &Admission,
) {
    let sql = match std::str::from_utf8(payload) {
        Ok(s) => s,
        Err(_) => {
            metrics.protocol_errors.inc();
            return proto::encode_err_into(reply, "request is not UTF-8");
        }
    };
    let stmt = match parse(sql) {
        Ok(stmt) => stmt,
        Err(e) => {
            metrics.parse_errors.inc();
            return proto::encode_err_into(reply, &e.to_string());
        }
    };
    let kind = stmt.kind();
    // Shedding policy: in-flight transactions always run (they hold
    // locks), autocommit reads shed first, autocommit writes queue up
    // to the admission deadline. A shed is an in-band retryable error —
    // the statement definitively did not run.
    let class = if session.in_transaction() {
        AdmitClass::InTxn
    } else if kind == "select" {
        AdmitClass::Read
    } else {
        AdmitClass::Write
    };
    let arrived = Instant::now();
    let permit = admission.admit(class);
    metrics
        .admission_wait
        .record(arrived.elapsed().as_micros() as u64);
    let _permit = match permit {
        Ok(p) => p,
        Err(shed) => {
            metrics.shed.inc();
            metrics.retryable_errors.inc();
            return proto::encode_retryable_into(reply, shed.message());
        }
    };
    metrics.inflight.add(1);
    let started = Instant::now();
    // The answer is encoded as the plan emits it; a failure anywhere,
    // the frame cap's included, answers with the error alone.
    let mark = reply.len();
    let mut answer = proto::OkEncoder::new(reply);
    let outcome = session.run_into(&stmt, &mut answer);
    let refused = answer.refused;
    if let Some(hist) = metrics.latency_for(kind) {
        hist.record(started.elapsed().as_micros() as u64);
    }
    metrics.inflight.add(-1);
    let Err(e) = outcome else { return };
    reply.truncate(mark);
    // Only execution fails here: parse errors were answered above.
    match (e.class(), refused) {
        (_, Some(msg)) => proto::encode_err_into(reply, &msg),
        (ErrorClass::Retryable, None) => {
            metrics.retryable_errors.inc();
            proto::encode_retryable_into(reply, &e.to_string());
        }
        (ErrorClass::Fatal, None) => proto::encode_err_into(reply, &e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_session::{CommitPolicy, EngineOptions};

    #[test]
    fn an_oversized_answer_stops_at_the_frame_cap_and_keeps_the_transaction() {
        let dir = std::env::temp_dir().join(format!("mmdb-server-cap-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let engine = Engine::start(EngineOptions::new(CommitPolicy::Group, &dir)).unwrap();
        let db = SqlDb::open(&engine).unwrap();
        let mut session = db.session();
        // 100 × 100 rows on one key: a join of 10,000 rows of two
        // 1,000-character texts, ≈ 20 MB encoded.
        let pad = "x".repeat(1_000);
        let values = vec![format!("(0, '{pad}')"); 100].join(", ");
        for t in ["a", "b"] {
            session
                .execute(&format!("CREATE TABLE {t} (k INT, pad TEXT)"))
                .unwrap();
            session
                .execute(&format!("INSERT INTO {t} VALUES {values}"))
                .unwrap();
        }
        let join = "SELECT a.pad, b.pad FROM a, b WHERE a.k = b.k";
        let row = 2 * (1 + 4 + pad.len());

        // The encoder refuses the row that crosses the cap, so the reply
        // never holds more than the cap plus that row.
        let mut reply = vec![0; proto::PREFIX_BYTES];
        let stmt = parse(join).unwrap();
        let mut answer = proto::OkEncoder::new(&mut reply);
        assert!(session.run_into(&stmt, &mut answer).is_err());
        assert!(answer.refused.is_some());
        assert!(reply.len() <= proto::PREFIX_BYTES + proto::MAX_FRAME_BYTES + row);
        assert!(reply.len() > proto::MAX_FRAME_BYTES);

        // Over the request path the answer is the in-band error alone,
        // and an open transaction survives it.
        let metrics = Metrics::register(&engine.registry());
        let admission = Admission::new(4, 4, Duration::from_secs(1));
        let request = |sql: &str, session: &mut mmdb_sql::SqlSession| {
            let mut reply = vec![0; proto::PREFIX_BYTES];
            handle_request(sql.as_bytes(), &mut reply, session, &metrics, &admission);
            proto::decode_response(&reply[proto::PREFIX_BYTES..]).unwrap()
        };
        request("BEGIN", &mut session).unwrap();
        request("INSERT INTO a VALUES (1, 'kept')", &mut session).unwrap();
        match request(join, &mut session) {
            Err(we) => {
                assert!(we.msg.starts_with("result too large: "), "{}", we.msg);
                assert!(
                    we.msg.ends_with(" byte frame cap; narrow the query"),
                    "{}",
                    we.msg
                );
                assert!(!we.retryable, "an oversized result is not transient");
            }
            Ok(r) => panic!("expected an error response, got {} rows", r.rows.len()),
        }
        assert!(session.in_transaction());
        request("COMMIT", &mut session).unwrap();
        let kept = request("SELECT pad FROM a WHERE k = 1", &mut db.session()).unwrap();
        assert_eq!(kept.rows, vec![vec![mmdb_types::Value::from("kept")]]);

        drop(session);
        engine.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
