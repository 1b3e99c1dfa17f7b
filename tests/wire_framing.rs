//! The framing layer's contract, checked in operation counts and byte
//! streams — never wall clock. One frame costs one `read` and one
//! `write` on each end; a connection's greedy reader yields exactly the
//! frames, idles and errors the never-reads-ahead free `read_frame`
//! yields on the same stream under any segmentation; and a client with
//! one request in flight treats bytes it did not ask for as a lost
//! connection, not as its next answer. An answer encoded as the plan
//! produces it is byte for byte the collected answer encoded.

use mmdb_server::proto::{self, FrameRead, Framed, OkEncoder, Recv, MAX_FRAME_BYTES};
use mmdb_server::{Client, ClientConfig, ClientError, Transport};
use mmdb_session::{CommitPolicy, Engine, EngineOptions};
use mmdb_sql::{parse, QueryResult, SqlDb};
use proptest::prelude::*;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What one scripted `read` call does.
#[derive(Debug, Clone)]
enum Step {
    /// Deliver these bytes (across several reads if the caller's
    /// buffer is smaller) — one TCP segment.
    Segment(Vec<u8>),
    /// Fail with a read timeout.
    Timeout,
}

/// An in-memory transport: reads replay a script and then report EOF,
/// writes land in `tx`, and both kinds of call are counted.
#[derive(Debug, Clone, Default)]
struct Script {
    steps: VecDeque<Step>,
    tx: Vec<u8>,
    reads: u64,
    writes: u64,
}

impl Script {
    fn new(steps: impl IntoIterator<Item = Step>) -> Script {
        Script {
            steps: steps.into_iter().collect(),
            ..Script::default()
        }
    }
}

impl Read for Script {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.reads += 1;
        match self.steps.pop_front() {
            None => Ok(0),
            Some(Step::Timeout) => Err(io::Error::new(io::ErrorKind::WouldBlock, "scripted")),
            Some(Step::Segment(mut seg)) => {
                let n = seg.len().min(buf.len());
                buf[..n].copy_from_slice(&seg[..n]);
                if n < seg.len() {
                    self.steps.push_front(Step::Segment(seg.split_off(n)));
                }
                Ok(n)
            }
        }
    }
}

impl Write for Script {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.writes += 1;
        self.tx.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Transport for Script {
    fn set_read_timeout(&mut self, _: Option<Duration>) -> io::Result<()> {
        Ok(())
    }
    fn set_write_timeout(&mut self, _: Option<Duration>) -> io::Result<()> {
        Ok(())
    }
    fn set_nodelay(&mut self, _: bool) -> io::Result<()> {
        Ok(())
    }
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut wire = Vec::new();
    proto::write_frame(&mut wire, payload).unwrap();
    wire
}

#[test]
fn one_exchange_is_one_read_and_one_write_on_each_end() {
    for len in [0usize, 1, 100, 4096] {
        let (request, reply) = (vec![b'q'; len], vec![b'r'; len]);

        // Server end: the request arrives as one segment.
        let mut server = Framed::new(Script::new([Step::Segment(frame(&request))]));
        assert_eq!(server.recv().unwrap(), Recv::Frame);
        let (got, out) = server.exchange();
        assert_eq!(got, &request[..]);
        out.extend_from_slice(&reply);
        server.send(Duration::ZERO).unwrap();
        let io = server.get_ref();
        assert_eq!((io.reads, io.writes), (1, 1), "server end, {len} bytes");
        assert_eq!(io.tx, frame(&reply));

        // Client end: one write out, one read back.
        let mut client = Framed::new(Script::new([Step::Segment(frame(&reply))]));
        client.exchange().1.extend_from_slice(&request);
        client.send(Duration::ZERO).unwrap();
        assert_eq!(client.recv().unwrap(), Recv::Frame);
        assert_eq!(client.payload(), &reply[..]);
        let io = client.get_ref();
        assert_eq!((io.writes, io.reads), (1, 1), "client end, {len} bytes");
        assert_eq!(io.tx, frame(&request));
    }
}

#[test]
fn two_requests_in_one_segment_are_both_delivered_in_order() {
    let mut segment = frame(b"SELECT 1");
    segment.extend_from_slice(&frame(b"SELECT 2"));
    let mut conn = Framed::new(Script::new([Step::Segment(segment)]));
    assert_eq!(conn.recv().unwrap(), Recv::Frame);
    assert_eq!(conn.payload(), b"SELECT 1");
    assert!(conn.has_unread());
    assert_eq!(conn.recv().unwrap(), Recv::Frame);
    assert_eq!(conn.payload(), b"SELECT 2");
    assert!(!conn.has_unread());
    // Both came out of the one read; only now does the reader go back
    // to the transport, and finds it closed between frames.
    assert_eq!(conn.get_ref().reads, 1);
    assert_eq!(conn.recv().unwrap(), Recv::Eof);
    assert_eq!(conn.get_ref().reads, 2);
}

#[test]
fn a_frame_at_the_cap_passes_and_one_byte_more_is_refused_on_both_sides() {
    let biggest = vec![b'x'; MAX_FRAME_BYTES];
    let mut conn = Framed::new(Script::new([Step::Segment(frame(&biggest))]));
    assert_eq!(conn.recv().unwrap(), Recv::Frame);
    assert_eq!(conn.payload().len(), MAX_FRAME_BYTES);
    conn.exchange().1.extend_from_slice(&biggest);
    conn.send(Duration::ZERO).unwrap();
    assert_eq!(conn.get_ref().tx.len(), 4 + MAX_FRAME_BYTES);
    // One byte more: refused before a byte is written...
    let (_, out) = conn.exchange();
    out.extend_from_slice(&biggest);
    out.push(b'x');
    let e = conn.send(Duration::ZERO).unwrap_err();
    assert_eq!(e.kind(), io::ErrorKind::InvalidInput);
    assert_eq!(conn.get_ref().tx.len(), 4 + MAX_FRAME_BYTES);
    // ...and refused on sight of the prefix when read.
    let claim = (MAX_FRAME_BYTES as u32 + 1).to_le_bytes().to_vec();
    let mut conn = Framed::new(Script::new([Step::Segment(claim)]));
    assert_eq!(conn.recv().unwrap_err().kind(), io::ErrorKind::InvalidData);
}

#[test]
fn a_claimed_length_allocates_nothing_until_bytes_arrive() {
    // A prefix claiming the full 16 MiB, then EOF — or then a stall past
    // a zero mid-frame budget: the errors are the ones a short frame
    // always got, and the buffer was never sized from the claim.
    let claim = (MAX_FRAME_BYTES as u32).to_le_bytes().to_vec();
    let mut conn = Framed::new(Script::new([Step::Segment(claim.clone())]));
    let e = conn.recv().unwrap_err();
    assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);
    assert!(conn.buffer_capacity().0 <= 64 * 1024);
    let mut conn = Framed::new(Script::new([Step::Segment(claim.clone()), Step::Timeout]));
    let e = conn.recv_within(Duration::ZERO).unwrap_err();
    assert_eq!(e.kind(), io::ErrorKind::TimedOut);
    assert!(conn.buffer_capacity().0 <= 64 * 1024);
    // The free function runs the same loop under the same growth rule.
    let e = proto::read_frame(&mut Script::new([Step::Segment(claim)])).unwrap_err();
    assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);
}

#[test]
fn a_large_frame_does_not_stay_resident() {
    const KEPT: usize = 256 * 1024;
    let big = vec![b'x'; KEPT + 1];
    let mut wire = frame(&big);
    wire.extend_from_slice(&frame(b"next"));
    let mut conn = Framed::new(Script::new([Step::Segment(wire)]));
    assert_eq!(conn.recv().unwrap(), Recv::Frame);
    assert_eq!(conn.payload(), &big[..]);
    assert!(conn.buffer_capacity().0 > KEPT);
    // Both buffers give the space back once the frame is done.
    assert_eq!(conn.recv().unwrap(), Recv::Frame);
    assert_eq!(conn.payload(), b"next");
    assert!(conn.buffer_capacity().0 <= KEPT);
    conn.exchange().1.extend_from_slice(&big);
    conn.send(Duration::ZERO).unwrap();
    assert!(conn.buffer_capacity().1 <= KEPT);
}

/// What a reader reported, in a form two readers can be compared by.
#[derive(Debug, PartialEq)]
enum Seen {
    Frame(Vec<u8>),
    Idle,
    Eof,
    Error(io::ErrorKind),
}

/// Drains a script through the connection reader.
fn seen_by_connection(script: Script, mid_frame: Duration) -> Vec<Seen> {
    let mut conn = Framed::new(script);
    let mut seen = Vec::new();
    loop {
        seen.push(match conn.recv_within(mid_frame) {
            Ok(Recv::Frame) => Seen::Frame(conn.payload().to_vec()),
            Ok(Recv::Idle) => Seen::Idle,
            Ok(Recv::Eof) => Seen::Eof,
            Err(e) => Seen::Error(e.kind()),
        });
        if matches!(seen.last(), Some(Seen::Eof | Seen::Error(_))) {
            return seen;
        }
    }
}

/// Drains a script through the free, never-reads-ahead `read_frame`.
fn seen_by_free_function(mut script: Script, mid_frame: Duration) -> Vec<Seen> {
    let mut seen = Vec::new();
    loop {
        seen.push(match proto::read_frame_within(&mut script, mid_frame) {
            Ok(FrameRead::Frame(p)) => Seen::Frame(p),
            Ok(FrameRead::Idle) => Seen::Idle,
            Ok(FrameRead::Eof) => Seen::Eof,
            Err(e) => Seen::Error(e.kind()),
        });
        if matches!(seen.last(), Some(Seen::Eof | Seen::Error(_))) {
            return seen;
        }
    }
}

/// One element of a generated stream: a whole frame, or one of the
/// ways a stream goes bad (after which nothing more is read).
fn stream_element() -> impl Strategy<Value = Vec<u8>> {
    let payload = |len: std::ops::Range<usize>| {
        (len, any::<u8>()).prop_map(|(n, seed)| {
            let body: Vec<u8> = (0..n).map(|i| seed.wrapping_add(i as u8)).collect();
            frame(&body)
        })
    };
    prop_oneof![
        payload(0..1),
        payload(1..2),
        payload(2..300),
        // Larger than the connection buffer starts out.
        payload(8_000..40_000),
        // A prefix claiming the largest legal frame, then too few bytes.
        (0usize..64).prop_map(|n| {
            let mut wire = (MAX_FRAME_BYTES as u32).to_le_bytes().to_vec();
            wire.extend(std::iter::repeat(b'z').take(n));
            wire
        }),
        // One past the cap: refused on sight.
        Just((MAX_FRAME_BYTES as u32 + 1).to_le_bytes().to_vec()),
    ]
}

proptest! {
    #[test]
    fn connection_reader_sees_what_the_free_read_frame_sees(
        elements in prop::collection::vec(stream_element(), 0..6),
        cuts in prop::collection::vec(
            (prop_oneof![1usize..6, 1usize..300, 1usize..20_000], 0usize..3),
            1..40,
        ),
        patient in any::<bool>(),
    ) {
        // Cut the byte stream into segments of the drawn sizes (cycling),
        // with the drawn number of read timeouts after each.
        let stream: Vec<u8> = elements.concat();
        let mut steps = Vec::new();
        let mut rest = &stream[..];
        for (size, timeouts) in cuts.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (segment, tail) = rest.split_at((*size).min(rest.len()));
            steps.push(Step::Segment(segment.to_vec()));
            steps.extend(std::iter::repeat(Step::Timeout).take(*timeouts));
            rest = tail;
        }
        // A patient reader retries every mid-frame timeout; an impatient
        // one (zero budget) fails at the first.
        let mid_frame = if patient { Duration::from_secs(3600) } else { Duration::ZERO };
        let script = Script::new(steps);
        let by_connection = seen_by_connection(script.clone(), mid_frame);
        let by_free_function = seen_by_free_function(script, mid_frame);
        prop_assert_eq!(by_connection, by_free_function);
    }
}

fn ack(affected: u64) -> Vec<u8> {
    let result = QueryResult {
        columns: Vec::new(),
        rows: Vec::new(),
        affected,
    };
    frame(&proto::encode_ok(&result).unwrap())
}

/// A client over scripted connections, handed out one per dial, and the
/// number of dials made so far.
fn scripted_client(connections: Vec<Script>) -> (Client, Arc<AtomicUsize>) {
    let dials = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&dials);
    let mut connections = VecDeque::from(connections);
    let dialer = Box::new(move || {
        counter.fetch_add(1, Ordering::SeqCst);
        match connections.pop_front() {
            Some(script) => Ok(Box::new(script) as Box<dyn Transport>),
            None => Err(io::Error::new(io::ErrorKind::ConnectionRefused, "no more")),
        }
    });
    let config = ClientConfig {
        backoff_base: Duration::from_micros(1),
        backoff_cap: Duration::from_micros(2),
        ..ClientConfig::default()
    };
    (Client::from_dialer(dialer, config).unwrap(), dials)
}

#[test]
fn a_stray_frame_after_a_response_loses_the_connection_and_its_transaction() {
    // The answer to the UPDATE arrives with a frame nobody asked for
    // glued behind it.
    let mut glued = ack(1);
    glued.extend_from_slice(&ack(7));
    let first = Script::new([Step::Segment(ack(0)), Step::Segment(glued)]);
    let (mut client, dials) = scripted_client(vec![first]);
    client.execute("BEGIN").unwrap();
    assert_eq!(client.execute("UPDATE t SET a = 1").unwrap().affected, 1);
    assert!(client.in_transaction());
    // The stray frame must not be taken for COMMIT's answer: the
    // stream is out of step, the transaction's fate unknown.
    match client.execute("COMMIT") {
        Err(ClientError::ConnectionLost { in_txn: true, .. }) => {}
        other => panic!("expected ConnectionLost {{ in_txn: true }}, got {other:?}"),
    }
    assert!(!client.in_transaction());
    assert_eq!(dials.load(Ordering::SeqCst), 1, "nothing was re-dialed");
}

#[test]
fn after_a_stray_frame_a_write_is_not_retried_and_a_read_starts_clean() {
    let mut glued = ack(1);
    glued.extend_from_slice(&ack(7));
    let first = Script::new([Step::Segment(glued)]);
    // The second connection answers one statement.
    let second = Script::new([Step::Segment(ack(42))]);
    let (mut client, dials) = scripted_client(vec![first, second]);
    assert_eq!(
        client.execute("INSERT INTO t VALUES (1)").unwrap().affected,
        1
    );
    // A write meets the stray bytes: lost, and never resubmitted.
    match client.execute("INSERT INTO t VALUES (2)") {
        Err(ClientError::ConnectionLost { in_txn: false, .. }) => {}
        other => panic!("expected ConnectionLost {{ in_txn: false }}, got {other:?}"),
    }
    assert_eq!(dials.load(Ordering::SeqCst), 1);
    // The next statement dials again and starts from an empty buffer:
    // its answer is the new connection's, not the stray frame.
    assert_eq!(client.execute("SELECT a FROM t").unwrap().affected, 42);
    assert_eq!(dials.load(Ordering::SeqCst), 2);
}

#[test]
fn an_answer_encoded_as_it_is_produced_is_the_collected_answer_encoded() {
    let dir = std::env::temp_dir().join(format!("mmdb-wire-sink-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let engine = Engine::start(EngineOptions::new(CommitPolicy::Group, &dir)).unwrap();
    let db = SqlDb::open(&engine).unwrap();
    let mut s = db.session();
    for sql in [
        "CREATE TABLE customers (id INT, region INT, name TEXT)",
        "CREATE TABLE orders (id INT, cust INT, amount FLOAT, note TEXT)",
        "INSERT INTO customers VALUES (1, 3, 'ann'), (2, 4, 'bob'), (3, 3, NULL)",
        "INSERT INTO orders VALUES (10, 1, 2.5, 'x'), (11, 3, -0.5, NULL), \
         (12, 1, 7, ''), (13, 9, 1.25, 'no customer')",
    ] {
        s.execute(sql).unwrap();
    }
    // (statement, rows, affected) of each answer.
    let cases = [
        (
            "SELECT orders.id, customers.name FROM orders, customers \
             WHERE orders.cust = customers.id AND orders.amount > 1",
            2,
            0,
        ),
        ("SELECT name FROM customers WHERE id = 2", 1, 0),
        (
            "SELECT * FROM orders, customers WHERE orders.cust = customers.id",
            3,
            0,
        ),
        ("SELECT note FROM orders WHERE id = 99", 0, 0),
        ("SELECT amount, note, id FROM orders", 4, 0),
        ("SELECT name FROM customers WHERE region = 3", 2, 0),
        ("UPDATE orders SET note = 'y' WHERE cust = 1", 0, 2),
    ];
    for (sql, rows, affected) in cases {
        let stmt = parse(sql).unwrap();
        let collected = s.run(&stmt).unwrap();
        assert_eq!((collected.rows.len(), collected.affected), (rows, affected));
        let mut streamed = vec![7u8; 3];
        s.run_into(&stmt, &mut OkEncoder::new(&mut streamed))
            .unwrap();
        assert_eq!(streamed[..3], [7u8; 3], "{sql}: bytes ahead of the answer");
        assert_eq!(
            streamed[3..],
            proto::encode_ok(&collected).unwrap(),
            "{sql}"
        );
    }
    // A control statement's ack, streamed, then collected.
    let mut streamed = Vec::new();
    s.run_into(&parse("BEGIN").unwrap(), &mut OkEncoder::new(&mut streamed))
        .unwrap();
    let collected = s.execute("COMMIT").unwrap();
    assert_eq!(streamed, proto::encode_ok(&collected).unwrap());

    drop(s);
    engine.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
