//! The client driver: connect with deadlines, send SQL, decode
//! results, and retry — but only when retrying cannot duplicate work.
//!
//! Three failure surfaces are kept distinct because the safe reaction
//! differs for each:
//!
//! * [`ClientError::Server`] — the server answered in-band; it says
//!   whether the statement is worth resubmitting (`retryable`, from
//!   [`mmdb_sql::ErrorClass`]). A retryable server error means the
//!   statement definitively did *not* apply.
//! * [`ClientError::ConnectionLost`] / [`ClientError::Timeout`] — the
//!   answer is unknown: the statement may or may not have committed.
//!   Only idempotent reads auto-retry here. If a transaction was open,
//!   the error is `ConnectionLost { in_txn: true }` and nothing
//!   auto-retries — the caller owns the decision.
//! * [`ClientError::Io`] — dialing failed; no request ever reached a
//!   server, so anything may retry.
//!
//! Retries back off exponentially with seeded jitter (the torture
//! harness seeds it so failing runs replay), and every read carries a
//! deadline: a hung server surfaces as [`ClientError::Timeout`]
//! instead of blocking forever.

use crate::proto::{self, Framed, Recv};
use crate::transport::Transport;
use mmdb_obs::{Counter, Registry};
use mmdb_sql::QueryResult;
use mmdb_types::value::Value;
use mmdb_types::WorkloadRng;
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

/// Anything a client call can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// Dialing failed: no request reached a server, so any statement
    /// is safe to resubmit.
    Io(String),
    /// The server answered with an in-band error response.
    Server {
        /// The server's error message.
        msg: String,
        /// Whether the server classified the failure as transient
        /// (deadlock victim, capacity shed, shutdown race).
        retryable: bool,
    },
    /// The server's bytes did not decode as the protocol; the
    /// connection is dropped because framing may be desynchronized.
    Protocol(String),
    /// The connection died (or was dropped) after a request may have
    /// been sent — the statement's fate is unknown.
    ConnectionLost {
        /// True when an explicit transaction was open on this
        /// connection: its locks and writes are gone with the server
        /// session, and nothing was or will be auto-retried.
        in_txn: bool,
        /// What the transport reported.
        detail: String,
    },
    /// No response arrived within the read deadline; the connection is
    /// dropped and the statement's fate is unknown.
    Timeout(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(m) => write!(f, "io error: {m}"),
            ClientError::Server { msg, retryable } => {
                let class = if *retryable { "retryable" } else { "fatal" };
                write!(f, "server error ({class}): {msg}")
            }
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::ConnectionLost { in_txn, detail } => {
                write!(f, "connection lost (in_txn={in_txn}): {detail}")
            }
            ClientError::Timeout(m) => write!(f, "timeout: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// Tunables for [`Client`] connections and retry behavior.
#[derive(Clone)]
pub struct ClientConfig {
    /// Deadline for establishing a TCP connection.
    pub connect_timeout: Duration,
    /// Deadline for a response to arrive once a request is sent; also
    /// bounds how long an idle `execute` waits on a hung server.
    pub read_deadline: Duration,
    /// Socket write timeout for requests.
    pub write_timeout: Duration,
    /// Auto-retry attempts beyond the first try; 0 surfaces every failure
    /// immediately.
    pub max_retries: u32,
    /// First backoff pause; doubles each attempt.
    pub backoff_base: Duration,
    /// Ceiling on a single backoff pause.
    pub backoff_cap: Duration,
    /// Seed for backoff jitter, so torture runs replay exactly.
    pub retry_seed: u64,
    /// When set, the client registers `mmdb_client_*` counters here.
    pub registry: Option<Arc<Registry>>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(5),
            read_deadline: Duration::from_secs(10),
            write_timeout: Duration::from_secs(5),
            max_retries: 3,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(200),
            retry_seed: 0,
            registry: None,
        }
    }
}

impl std::fmt::Debug for ClientConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientConfig")
            .field("connect_timeout", &self.connect_timeout)
            .field("read_deadline", &self.read_deadline)
            .field("write_timeout", &self.write_timeout)
            .field("max_retries", &self.max_retries)
            .finish_non_exhaustive()
    }
}

/// Client-side retry observability, registered only when the caller
/// hands the config a registry.
struct ClientMetrics {
    retries: Arc<Counter>,
    reconnects: Arc<Counter>,
    lost: Arc<Counter>,
}

impl ClientMetrics {
    fn register(registry: &Registry) -> ClientMetrics {
        ClientMetrics {
            retries: registry.counter(
                "mmdb_client_retries_total",
                "Statements auto-resubmitted after a retryable failure",
            ),
            reconnects: registry.counter(
                "mmdb_client_reconnects_total",
                "Connections re-dialed after the first",
            ),
            lost: registry.counter(
                "mmdb_client_connection_lost_total",
                "Connections dropped mid-use (timeout, EOF, transport error)",
            ),
        }
    }
}

/// How a dialer hands the client a fresh connection.
pub type Dialer = Box<dyn FnMut() -> io::Result<Box<dyn Transport>> + Send>;

/// A blocking connection to a [`crate::Server`]. One request is in
/// flight at a time: [`execute`](Client::execute) writes a frame and
/// waits (bounded by the read deadline) for the response frame,
/// transparently reconnecting and retrying where that cannot
/// duplicate work.
pub struct Client {
    config: ClientConfig,
    dial: Dialer,
    conn: Option<Framed<Box<dyn Transport>>>,
    in_txn: bool,
    ever_connected: bool,
    rng: WorkloadRng,
    metrics: Option<ClientMetrics>,
}

impl Client {
    /// Connects to a server with default deadlines and retry policy.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client, ClientError> {
        Client::connect_with(addr, ClientConfig::default())
    }

    /// Connects to a server with explicit configuration.
    pub fn connect_with<A: ToSocketAddrs>(
        addr: A,
        config: ClientConfig,
    ) -> Result<Client, ClientError> {
        let addrs: Vec<SocketAddr> = addr
            .to_socket_addrs()
            .map_err(|e| ClientError::Io(format!("resolve: {e}")))?
            .collect();
        if addrs.is_empty() {
            return Err(ClientError::Io("address resolved to nothing".to_string()));
        }
        let timeout = config.connect_timeout;
        let dial: Dialer = Box::new(move || {
            let mut last = io::Error::new(io::ErrorKind::AddrNotAvailable, "no address to dial");
            for a in &addrs {
                match TcpStream::connect_timeout(a, timeout) {
                    Ok(s) => return Ok(Box::new(s) as Box<dyn Transport>),
                    Err(e) => last = e,
                }
            }
            Err(last)
        });
        Client::from_dialer(dial, config)
    }

    /// Builds a client over an arbitrary dialer — the chaos-torture
    /// harness injects [`crate::transport::ChaosTransport`] here. The
    /// first connection is established eagerly so a dead server fails
    /// fast.
    pub fn from_dialer(dial: Dialer, config: ClientConfig) -> Result<Client, ClientError> {
        let metrics = config.registry.as_deref().map(ClientMetrics::register);
        let rng = WorkloadRng::seeded(config.retry_seed ^ 0xC11E_27B0_0757_0FF5);
        let mut client = Client {
            config,
            dial,
            conn: None,
            in_txn: false,
            ever_connected: false,
            rng,
            metrics,
        };
        client.ensure_connected()?;
        Ok(client)
    }

    /// True while this client believes an explicit transaction is open
    /// on the connection (tracked from the statements it sends).
    pub fn in_transaction(&self) -> bool {
        self.in_txn
    }

    /// Runs one statement and returns its full result, auto-retrying
    /// only when a retry cannot duplicate applied work (see the module
    /// docs for the taxonomy).
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult, ClientError> {
        let mut attempt = 0u32;
        loop {
            let sent_in_txn = self.in_txn;
            match self.execute_once(sql) {
                Ok(result) => {
                    self.track_success(sql);
                    return Ok(result);
                }
                Err(e) => {
                    self.track_failure(sql, &e);
                    let may =
                        attempt < self.config.max_retries && retry_is_safe(&e, sql, sent_in_txn);
                    if !may {
                        return Err(e);
                    }
                    attempt += 1;
                    if let Some(m) = &self.metrics {
                        m.retries.inc();
                    }
                    self.backoff(attempt);
                }
            }
        }
    }

    /// Runs one statement and returns just its rows.
    pub fn query(&mut self, sql: &str) -> Result<Vec<Vec<Value>>, ClientError> {
        Ok(self.execute(sql)?.rows)
    }

    /// One request/response exchange, no retries. Any transport-level
    /// failure tears the connection down (a later re-`execute` redials)
    /// and reports whether a transaction died with it.
    fn execute_once(&mut self, sql: &str) -> Result<QueryResult, ClientError> {
        self.ensure_connected()?;
        let Some(conn) = self.conn.as_mut() else {
            return Err(ClientError::Io("not connected".to_string()));
        };
        // One request is in flight at a time, so bytes the server sent
        // beyond its last answer belong to no request: the stream is
        // desynchronized, and decoding them as the next answer would
        // pair statements with the wrong results.
        if conn.has_unread() {
            return Err(self.lose_connection("unsolicited bytes after a response".to_string()));
        }
        let (_, request) = conn.exchange();
        request.extend_from_slice(sql.as_bytes());
        // No stall budget: a write timeout is already a dead server.
        if let Err(e) = conn.send(Duration::ZERO) {
            return Err(self.lose_connection(format!("send: {e}")));
        }
        let Some(conn) = self.conn.as_mut() else {
            return Err(ClientError::Io("not connected".to_string()));
        };
        match conn.recv() {
            // The socket read timeout is the read deadline, so a single
            // Idle means the deadline expired with no response started.
            Ok(Recv::Idle) => {
                let was_in_txn = self.in_txn;
                let lost = self.lose_connection(format!(
                    "no response within the read deadline ({:?})",
                    self.config.read_deadline
                ));
                if was_in_txn {
                    Err(lost)
                } else {
                    Err(ClientError::Timeout(format!(
                        "no response within {:?}",
                        self.config.read_deadline
                    )))
                }
            }
            Ok(Recv::Eof) => Err(self.lose_connection("server closed the connection".to_string())),
            Ok(Recv::Frame) => match proto::decode_response(conn.payload()) {
                Ok(Ok(result)) => Ok(result),
                Ok(Err(we)) => Err(ClientError::Server {
                    msg: we.msg,
                    retryable: we.retryable,
                }),
                Err(e) => {
                    // Framing may be desynchronized: drop the
                    // connection, but surface the decode failure.
                    let _ = self.lose_connection(format!("decode: {e}"));
                    Err(ClientError::Protocol(e.to_string()))
                }
            },
            Err(e) => Err(self.lose_connection(format!("receive: {e}"))),
        }
    }

    /// Dials if there is no live connection. Errors map to
    /// [`ClientError::Io`]: nothing was sent, so callers may retry
    /// freely.
    fn ensure_connected(&mut self) -> Result<(), ClientError> {
        if self.conn.is_some() {
            return Ok(());
        }
        let mut transport = (self.dial)().map_err(|e| ClientError::Io(format!("connect: {e}")))?;
        transport
            .set_read_timeout(Some(self.config.read_deadline))
            .and_then(|()| transport.set_write_timeout(Some(self.config.write_timeout)))
            .map_err(|e| ClientError::Io(format!("configure socket: {e}")))?;
        let _ = transport.set_nodelay(true);
        if self.ever_connected {
            if let Some(m) = &self.metrics {
                m.reconnects.inc();
            }
        }
        self.ever_connected = true;
        // A fresh `Framed`: no byte buffered on a lost connection
        // survives into the next one.
        self.conn = Some(Framed::new(transport));
        Ok(())
    }

    /// Tears down the connection and reports what died with it. The
    /// server session (and any open transaction) is gone, so the
    /// client's transaction flag resets — a reconnect starts clean.
    fn lose_connection(&mut self, detail: String) -> ClientError {
        self.conn = None;
        let in_txn = std::mem::take(&mut self.in_txn);
        if let Some(m) = &self.metrics {
            m.lost.inc();
        }
        ClientError::ConnectionLost { in_txn, detail }
    }

    /// Tracks explicit-transaction state from a successful statement.
    /// The server parsed and ran it, so its leading keyword names its
    /// kind; no second parse.
    fn track_success(&mut self, sql: &str) {
        match mmdb_sql::parser::leading_kind(sql) {
            Some("begin") => self.in_txn = true,
            Some("commit" | "abort") => self.in_txn = false,
            _ => {}
        }
    }

    /// Tracks transaction state from a failed statement: a mutation or
    /// COMMIT/ABORT that fails in-band inside an explicit transaction
    /// means the server aborted the whole transaction (the message says
    /// so); SELECT and parse failures leave it open. Transport-level
    /// failures already reset the flag in [`Self::lose_connection`].
    fn track_failure(&mut self, sql: &str, err: &ClientError) {
        if !matches!(err, ClientError::Server { .. }) {
            return;
        }
        if matches!(
            statement_kind(sql),
            Some("insert" | "update" | "delete" | "create_table" | "commit" | "abort")
        ) {
            self.in_txn = false;
        }
    }

    /// Exponential backoff with seeded jitter: pause in
    /// `[cap/2, cap)` of the attempt's doubled base.
    fn backoff(&mut self, attempt: u32) {
        let doubled = self
            .config
            .backoff_base
            .saturating_mul(1u32 << attempt.min(16).saturating_sub(1));
        let cap = doubled.min(self.config.backoff_cap);
        let jitter_us = self.rng.index((cap.as_micros() as usize / 2).max(1)) as u64;
        std::thread::sleep(cap / 2 + Duration::from_micros(jitter_us));
    }
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("connected", &self.conn.is_some())
            .field("in_txn", &self.in_txn)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

/// The statement kind label, when the text parses client-side.
fn statement_kind(sql: &str) -> Option<mmdb_sql::StatementKind> {
    mmdb_sql::parse(sql).ok().map(|s| s.kind())
}

/// Whether auto-retrying `sql` after `err` can be done without risking
/// duplicate applied work.
fn retry_is_safe(err: &ClientError, sql: &str, sent_in_txn: bool) -> bool {
    // Inside an explicit transaction the statement is one step of a
    // larger unit; the client cannot replay the unit, so nothing
    // auto-retries.
    if sent_in_txn {
        return false;
    }
    match err {
        // Dialing failed: the request never existed.
        ClientError::Io(_) => true,
        // The server said the statement did not apply and is transient.
        ClientError::Server { retryable, .. } => *retryable,
        // Fate unknown: only an idempotent read is safe to resend.
        ClientError::ConnectionLost { in_txn: false, .. } | ClientError::Timeout(_) => {
            statement_kind(sql) == Some("select")
        }
        // A transaction died with the connection: the caller decides.
        ClientError::ConnectionLost { in_txn: true, .. } => false,
        ClientError::Protocol(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lost(in_txn: bool) -> ClientError {
        ClientError::ConnectionLost {
            in_txn,
            detail: "test".to_string(),
        }
    }

    #[test]
    fn retry_taxonomy_is_exactly_the_documented_policy() {
        // Dial failures retry anything.
        assert!(retry_is_safe(
            &ClientError::Io("x".into()),
            "INSERT INTO t VALUES (1)",
            false
        ));
        // In-band retryable errors retry anything (statement did not apply).
        let retryable = ClientError::Server {
            msg: "shed".into(),
            retryable: true,
        };
        assert!(retry_is_safe(&retryable, "UPDATE t SET a = 1", false));
        let fatal = ClientError::Server {
            msg: "no such table".into(),
            retryable: false,
        };
        assert!(!retry_is_safe(&fatal, "SELECT * FROM t", false));
        // Unknown fate: only SELECT retries.
        assert!(retry_is_safe(&lost(false), "SELECT * FROM t", false));
        assert!(!retry_is_safe(
            &lost(false),
            "INSERT INTO t VALUES (1)",
            false
        ));
        assert!(retry_is_safe(
            &ClientError::Timeout("t".into()),
            "SELECT a FROM t",
            false
        ));
        assert!(!retry_is_safe(
            &ClientError::Timeout("t".into()),
            "DELETE FROM t",
            false
        ));
        // A dead transaction never auto-retries, and nothing sent
        // inside a transaction does either.
        assert!(!retry_is_safe(&lost(true), "SELECT * FROM t", false));
        assert!(!retry_is_safe(
            &ClientError::Io("x".into()),
            "SELECT * FROM t",
            true
        ));
        assert!(!retry_is_safe(
            &ClientError::Protocol("p".into()),
            "SELECT * FROM t",
            false
        ));
    }

    #[test]
    fn statement_kinds_classify_for_retry() {
        assert_eq!(statement_kind("SELECT a FROM t"), Some("select"));
        assert_eq!(statement_kind("BEGIN"), Some("begin"));
        assert_eq!(statement_kind("definitely not sql"), None);
    }
}
