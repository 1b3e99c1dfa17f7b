//! Golden test of the observability exposition: the session engine's
//! metric inventory is a stable surface. Every family the engine
//! registers must appear in `render_text()` with the right Prometheus
//! type, every sample line must parse, and the registry must be free of
//! hygiene violations — a rename, a dropped metric, or a kind change
//! fails here before any dashboard notices.

use mmdb_exec::{CostMeter, Meter};
use mmdb_session::{CommitPolicy, Engine, EngineOptions};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mmdb-obs-expo-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn fast(policy: CommitPolicy, name: &str) -> EngineOptions {
    EngineOptions::new(policy, tmp_dir(name))
        .with_page_write_latency(Duration::from_micros(200))
        .with_flush_interval(Duration::from_micros(500))
}

/// The engine's metric inventory, `(family, prometheus type)`. This
/// list is the golden surface: adding a metric means adding a row here,
/// and renaming or dropping one fails the test.
const SESSION_FAMILIES: [(&str, &str); 21] = [
    ("mmdb_session_begins_total", "counter"),
    ("mmdb_session_commits_total", "counter"),
    ("mmdb_session_aborts_total", "counter"),
    ("mmdb_session_pages_written_total", "counter"),
    ("mmdb_session_log_bytes_total", "counter"),
    ("mmdb_session_deadlock_aborts_total", "counter"),
    ("mmdb_session_io_errors_total", "counter"),
    ("mmdb_session_io_retries_total", "counter"),
    ("mmdb_session_degraded_count", "gauge"),
    ("mmdb_session_lock_wait_us", "histogram"),
    ("mmdb_session_lock_hold_us", "histogram"),
    ("mmdb_session_commit_latency_us", "histogram"),
    ("mmdb_session_commit_batch_txns", "histogram"),
    ("mmdb_session_group_wait_us", "histogram"),
    ("mmdb_session_fsync_us", "histogram"),
    ("mmdb_session_durable_lag_lsn", "gauge"),
    ("mmdb_session_checkpoints_total", "counter"),
    ("mmdb_session_checkpoint_duration_us", "histogram"),
    ("mmdb_session_checkpoint_bytes", "gauge"),
    ("mmdb_session_checkpoint_lag_lsn", "gauge"),
    ("mmdb_session_checkpoint_rewritten_count", "gauge"),
];

/// Every sample line must be `name[{labels}] value` with a numeric
/// value; returns the parsed `(sample_name, value)` pairs.
fn parse_exposition(text: &str) -> Vec<(String, f64)> {
    let mut samples = Vec::new();
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("unparseable sample line {line:?}"));
        let value: f64 = value
            .parse()
            .unwrap_or_else(|e| panic!("non-numeric value in {line:?}: {e}"));
        assert!(
            name.starts_with("mmdb_"),
            "sample {name:?} escapes the mmdb_ namespace"
        );
        samples.push((name.to_string(), value));
    }
    samples
}

#[test]
fn engine_exposition_is_complete_and_parseable() {
    let opts = fast(CommitPolicy::Group, "golden");
    let dir = opts.log_dir.clone();
    let engine = Engine::start(opts).unwrap();
    let s = engine.session();
    // Enough traffic to populate every family: begins, commits, an
    // abort, lock holds, batches, pages, fsyncs.
    for k in 0..6 {
        let t = s.begin().unwrap();
        s.write(&t, k, k as i64).unwrap();
        s.commit_durable(t).unwrap();
    }
    let t = s.begin().unwrap();
    s.write(&t, 99, 1).unwrap();
    s.abort(t).unwrap();

    // Counters are recorded synchronously on the session threads, so
    // they are exact here; histogram recordings in the writers'
    // finalize loop are only ordered by shutdown (below).
    let stats = engine.stats();
    assert_eq!(stats.counter("mmdb_session_begins_total"), Some(7));
    assert_eq!(stats.counter("mmdb_session_commits_total"), Some(6));
    assert_eq!(stats.counter("mmdb_session_aborts_total"), Some(1));
    assert!(
        engine.registry().hygiene_violations().is_empty(),
        "hygiene violations: {:?}",
        engine.registry().hygiene_violations()
    );
    let metric_names = stats.metric_names();

    // The registry outlives the engine; rendering after shutdown sees
    // every recording the writer threads made.
    let registry = engine.registry();
    engine.shutdown().unwrap();
    let render = registry.render_text();

    // Golden inventory: each family present, right type, HELP+TYPE
    // exactly once.
    for (family, kind) in SESSION_FAMILIES {
        let type_line = format!("# TYPE {family} {kind}");
        assert_eq!(
            render.matches(&type_line).count(),
            1,
            "expected exactly one {type_line:?}"
        );
        assert_eq!(
            render.matches(&format!("# HELP {family} ")).count(),
            1,
            "expected exactly one HELP for {family}"
        );
    }
    // No families beyond the golden list (a new metric must be added
    // to SESSION_FAMILIES deliberately).
    let type_lines = render.lines().filter(|l| l.starts_with("# TYPE ")).count();
    assert_eq!(
        type_lines,
        SESSION_FAMILIES.len(),
        "exposition grew a family the golden list does not know:\n{render}"
    );

    let samples = parse_exposition(&render);
    assert!(!samples.is_empty());
    // Every registered sample name appears in the rendered text.
    for name in metric_names {
        assert!(
            samples
                .iter()
                .any(|(n, _)| n.starts_with(name.split('{').next().unwrap_or(&name))),
            "registered metric {name:?} missing from exposition"
        );
    }
    // Histogram conventions: a cumulative +Inf bucket, _sum and _count
    // per histogram sample, and _count equal to the +Inf bucket. With
    // the writers joined, all 6 durable commits have been recorded.
    let inf = samples
        .iter()
        .find(|(n, _)| n.starts_with("mmdb_session_commit_latency_us_bucket") && n.contains("+Inf"))
        .expect("+Inf bucket");
    let count = samples
        .iter()
        .find(|(n, _)| n == "mmdb_session_commit_latency_us_count")
        .expect("_count sample");
    assert_eq!(inf.1, count.1, "+Inf bucket must equal _count");
    assert_eq!(count.1, 6.0, "one sample per durable commit");
    let waits = samples
        .iter()
        .find(|(n, _)| n == "mmdb_session_group_wait_us_count")
        .expect("group-wait _count sample");
    assert_eq!(waits.1, 6.0, "one sample per commit handed to a writer");
    // Log volume without listing a directory: the counter is the device
    // file's length, and per commit it is a frame header's share plus a
    // 37-byte put and a 17-byte commit record — the abort cost nothing.
    let sample = |name: &str| samples.iter().find(|(n, _)| n == name).expect(name).1;
    let log_bytes = sample("mmdb_session_log_bytes_total");
    let on_disk = std::fs::metadata(dir.join("wal-d0.log")).unwrap().len();
    assert_eq!(log_bytes, on_disk as f64);
    let pages = sample("mmdb_session_pages_written_total");
    assert_eq!(log_bytes, 16.0 * pages + 6.0 * (37.0 + 17.0));

    std::fs::remove_dir_all(&dir).ok();
}

/// The storage cost meter bridges into the same registry and renders
/// alongside the session families — one exposition for the virtual
/// cost clock (Table 2) and the wall-clock engine.
#[test]
fn cost_meter_bridges_into_the_engine_registry() {
    let opts = fast(CommitPolicy::Group, "meter-bridge");
    let dir = opts.log_dir.clone();
    let engine = Engine::start(opts).unwrap();
    let meter = Arc::new(CostMeter::new());
    meter.register_into(&engine.registry());
    meter.charge_comparisons(17);
    meter.charge_seq_ios(3);

    let render = engine.render_metrics();
    assert!(render.contains("# TYPE mmdb_cost_comparisons_total counter"));
    let samples = parse_exposition(&render);
    assert!(samples
        .iter()
        .any(|(n, v)| n == "mmdb_cost_comparisons_total" && *v == 17.0));
    assert!(samples
        .iter()
        .any(|(n, v)| n == "mmdb_cost_seq_ios_total" && *v == 3.0));
    assert!(engine.registry().hygiene_violations().is_empty());

    engine.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// The server's metric inventory, `(family, prometheus type)` — the
/// wire front end registers these on the engine's registry, so one
/// exposition covers both layers. Same golden rules as
/// [`SESSION_FAMILIES`].
const SERVER_FAMILIES: [(&str, &str); 15] = [
    ("mmdb_server_active_connections_count", "gauge"),
    ("mmdb_server_connections_total", "counter"),
    ("mmdb_server_requests_total", "counter"),
    ("mmdb_server_request_latency_us", "histogram"),
    ("mmdb_server_parse_errors_total", "counter"),
    ("mmdb_server_protocol_errors_total", "counter"),
    ("mmdb_server_refused_total", "counter"),
    ("mmdb_server_shed_total", "counter"),
    ("mmdb_server_retryable_errors_total", "counter"),
    ("mmdb_server_write_stalls_total", "counter"),
    ("mmdb_server_slow_client_disconnects_total", "counter"),
    ("mmdb_server_socket_reads_total", "counter"),
    ("mmdb_server_socket_writes_total", "counter"),
    ("mmdb_server_inflight_statements_count", "gauge"),
    ("mmdb_server_admission_wait_us", "histogram"),
];

/// The SQL layer's metric inventory: [`mmdb_sql::SqlDb::open`] — which
/// starting a server does — registers these on the engine's registry.
/// How a table was reached (§2): by index probe, or by visiting cached
/// rows; how many column indexes that has built so far; and how long
/// each `SELECT` held the catalog read lock it runs under.
const SQL_FAMILIES: [(&str, &str); 4] = [
    ("mmdb_sql_index_probes_total", "counter"),
    ("mmdb_sql_index_builds_total", "counter"),
    ("mmdb_sql_rows_scanned_total", "counter"),
    ("mmdb_sql_select_lock_hold_us", "histogram"),
];

/// Starting a server adds exactly the [`SERVER_FAMILIES`] and the
/// [`SQL_FAMILIES`] to the engine's exposition, labeled latency samples
/// parse, and traffic moves the counters the way the protocol says it
/// should.
#[test]
fn server_families_join_the_engine_exposition() {
    use mmdb_server::{Client, Server, ServerConfig};

    let opts = fast(CommitPolicy::Group, "server-golden");
    let dir = opts.log_dir.clone();
    let engine = Engine::start(opts).unwrap();
    let handle = Server::start(&engine, ServerConfig::default()).unwrap();
    let mut c = Client::connect(handle.addr()).unwrap();
    c.execute("CREATE TABLE t (a INT)").unwrap();
    c.execute("INSERT INTO t VALUES (1), (2)").unwrap();
    c.execute("SELECT * FROM t").unwrap();
    assert!(c.execute("NOT SQL AT ALL").is_err());

    let stats = engine.stats();
    // One unkeyed SELECT over two rows: a scan, no index touched.
    assert_eq!(stats.counter("mmdb_sql_rows_scanned_total"), Some(2));
    assert_eq!(stats.counter("mmdb_sql_index_probes_total"), Some(0));
    assert_eq!(stats.counter("mmdb_sql_index_builds_total"), Some(0));
    let hold = stats.histogram("mmdb_sql_select_lock_hold_us");
    assert_eq!(hold.map(|h| h.count), Some(1), "one sample per SELECT");
    assert_eq!(stats.counter("mmdb_server_requests_total"), Some(4));
    assert_eq!(stats.counter("mmdb_server_parse_errors_total"), Some(1));
    // With `requests_total`, system calls per request: every answer
    // left in one write; reads may add idle polls to one per request.
    assert_eq!(stats.counter("mmdb_server_socket_writes_total"), Some(4));
    assert!(stats.counter("mmdb_server_socket_reads_total") >= Some(4));
    assert_eq!(stats.counter("mmdb_server_connections_total"), Some(1));
    assert_eq!(stats.gauge("mmdb_server_active_connections_count"), Some(1));

    let render = engine.render_metrics();
    for (family, kind) in SERVER_FAMILIES.into_iter().chain(SQL_FAMILIES) {
        let type_line = format!("# TYPE {family} {kind}");
        assert_eq!(
            render.matches(&type_line).count(),
            1,
            "expected exactly one {type_line:?}"
        );
        assert_eq!(
            render.matches(&format!("# HELP {family} ")).count(),
            1,
            "expected exactly one HELP for {family}"
        );
    }
    // Every statement kind's latency family is pre-registered, labeled.
    for kind in mmdb_sql::ast::STATEMENT_KINDS {
        assert!(
            render.contains(&format!("stmt=\"{kind}\"")),
            "missing latency series for statement kind {kind}"
        );
    }
    // Exactly session + server + SQL families, nothing unlisted.
    let type_lines = render.lines().filter(|l| l.starts_with("# TYPE ")).count();
    assert_eq!(
        type_lines,
        SESSION_FAMILIES.len() + SERVER_FAMILIES.len() + SQL_FAMILIES.len(),
        "exposition grew a family the golden lists do not know:\n{render}"
    );
    let samples = parse_exposition(&render);
    let latency_count: f64 = samples
        .iter()
        .filter(|(n, _)| n.starts_with("mmdb_server_request_latency_us_count"))
        .map(|(_, v)| v)
        .sum();
    assert_eq!(
        latency_count, 3.0,
        "one latency sample per parsed statement"
    );
    assert!(engine.registry().hygiene_violations().is_empty());

    drop(c);
    handle.shutdown().unwrap();
    engine.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// The client driver's metric inventory — registered only when a
/// [`mmdb_server::ClientConfig`] is handed a registry, so embedded
/// clients (tests, torture workers) can opt in without polluting the
/// server's exposition by default.
const CLIENT_FAMILIES: [(&str, &str); 3] = [
    ("mmdb_client_retries_total", "counter"),
    ("mmdb_client_reconnects_total", "counter"),
    ("mmdb_client_connection_lost_total", "counter"),
];

/// A client given the engine's registry adds exactly the
/// [`CLIENT_FAMILIES`], and a lost connection moves the counter.
#[test]
fn client_families_join_the_exposition_when_opted_in() {
    use mmdb_server::{Client, ClientConfig, Server, ServerConfig};

    let opts = fast(CommitPolicy::Group, "client-golden");
    let dir = opts.log_dir.clone();
    let engine = Engine::start(opts).unwrap();
    let handle = Server::start(&engine, ServerConfig::default()).unwrap();
    let config = ClientConfig {
        max_retries: 0,
        registry: Some(engine.registry()),
        ..ClientConfig::default()
    };
    let mut c = Client::connect_with(handle.addr(), config).unwrap();
    c.execute("CREATE TABLE t (a INT)").unwrap();

    // Tear the server down under the client: the next statement loses
    // the connection, and the opted-in counter must say so.
    handle.shutdown().unwrap();
    assert!(c.execute("SELECT a FROM t").is_err());

    let stats = engine.stats();
    assert!(
        stats
            .counter("mmdb_client_connection_lost_total")
            .unwrap_or(0)
            >= 1,
        "lost connection not counted"
    );

    let render = engine.render_metrics();
    for (family, kind) in CLIENT_FAMILIES {
        let type_line = format!("# TYPE {family} {kind}");
        assert_eq!(
            render.matches(&type_line).count(),
            1,
            "expected exactly one {type_line:?}"
        );
        assert_eq!(
            render.matches(&format!("# HELP {family} ")).count(),
            1,
            "expected exactly one HELP for {family}"
        );
    }
    // Exactly session + server + SQL + client families, nothing unlisted.
    let type_lines = render.lines().filter(|l| l.starts_with("# TYPE ")).count();
    assert_eq!(
        type_lines,
        SESSION_FAMILIES.len() + SERVER_FAMILIES.len() + SQL_FAMILIES.len() + CLIENT_FAMILIES.len(),
        "exposition grew a family the golden lists do not know:\n{render}"
    );
    assert!(engine.registry().hygiene_violations().is_empty());

    engine.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Recovery registers its own gauges on the recovered engine's fresh
/// registry: how many transactions replayed and how long replay took.
#[test]
fn recovered_engine_exposes_recovery_gauges() {
    let opts = fast(CommitPolicy::Group, "recover-gauges");
    let dir = opts.log_dir.clone();
    let engine = Engine::start(opts.clone()).unwrap();
    let s = engine.session();
    for k in 0..3 {
        let t = s.begin().unwrap();
        s.write(&t, k, 1).unwrap();
        s.commit_durable(t).unwrap();
    }
    engine.shutdown().unwrap();

    let (engine, info) = Engine::recover(opts).unwrap();
    assert_eq!(info.committed.len(), 3);
    let stats = engine.stats();
    assert_eq!(stats.gauge("mmdb_session_recovered_txns"), Some(3));
    assert!(
        stats.gauge("mmdb_session_recovery_replay_us").is_some(),
        "replay duration gauge missing"
    );
    let render = engine.render_metrics();
    assert!(render.contains("# TYPE mmdb_session_recovered_txns gauge"));
    engine.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
