//! `mmdb-server`: framing, the response codec, admission, and the floor
//! a statement pays for crossing a real socket and a thread hand-off.

use crate::probe::{per_call_ns, per_call_percentiles_ns, Reading};
use mmdb_benchmark::e2e::Stack;
use mmdb_server::admission::{Admission, AdmitClass};
use mmdb_server::proto::{self, FrameRead};
use mmdb_server::{Client, ServerConfig};
use mmdb_sql::QueryResult;
use mmdb_types::Value;
use std::hint::black_box;
use std::io::Cursor;
use std::path::Path;

/// A result the size of `analytic_join`'s largest: 1,000 rows of
/// (INT, 16-byte TEXT).
fn thousand_rows() -> QueryResult {
    QueryResult {
        columns: vec!["orders.id".to_string(), "customers.name".to_string()],
        rows: (0..1_000)
            .map(|i| vec![Value::Int(i), Value::Str("abcdefghijklmnop".to_string())])
            .collect(),
        affected: 0,
    }
}

pub fn probe(scratch: &Path) -> Result<Vec<Reading>, String> {
    // One request frame out and back in, over memory.
    let payload = b"UPDATE acct SET bal = bal - 1 WHERE id = 123";
    let mut wire = Vec::with_capacity(256);
    let frame_roundtrip = per_call_ns(20_000, || {
        wire.clear();
        proto::write_frame(&mut wire, payload).expect("write to memory");
        match proto::read_frame(&mut Cursor::new(&wire)).expect("read from memory") {
            FrameRead::Frame(p) => {
                black_box(p);
            }
            other => panic!("expected a frame, got {other:?}"),
        }
    });

    let ack = QueryResult::ack();
    let encode_ack = per_call_ns(20_000, || {
        let frame = proto::encode_ok(black_box(&ack)).expect("encode ack");
        black_box(proto::decode_response(&frame).expect("decode ack")).ok();
    });

    let big = thousand_rows();
    let rows = big.rows.len() as f64;
    let encode_row = per_call_ns(200, || {
        black_box(proto::encode_ok(black_box(&big)).expect("encode rows"));
    }) / rows;
    let encoded = proto::encode_ok(&big).map_err(|e| e.to_string())?;
    let decode_row = per_call_ns(200, || {
        black_box(proto::decode_response(black_box(&encoded)).expect("decode rows")).ok();
    }) / rows;

    let defaults = ServerConfig::default();
    let admission = Admission::new(
        defaults.max_inflight_statements,
        defaults.admission_queue,
        defaults.admission_deadline,
    );
    let admit = per_call_ns(50_000, || {
        drop(black_box(admission.admit(AdmitClass::Write)));
    });

    // BEGIN + ABORT touch nothing but the socket, the connection thread
    // and the transaction table: half a pair is one empty round trip.
    let stack = Stack::start(&scratch.join("noop-rtt"))?;
    let mut client = Client::connect(stack.addr()).map_err(|e| e.to_string())?;
    let mut failed = false;
    let (pair_p50, _) = per_call_percentiles_ns(2_000, || {
        failed |= client.execute("BEGIN").is_err() || client.execute("ABORT").is_err();
    });
    drop(client);
    let dir = stack.log_dir().to_path_buf();
    stack.stop()?;
    std::fs::remove_dir_all(dir).map_err(|e| e.to_string())?;
    if failed {
        return Err("BEGIN/ABORT failed over TCP".to_string());
    }

    Ok(vec![
        ("server.frame_roundtrip_ns", frame_roundtrip, "ns"),
        ("server.encode_ack_ns", encode_ack, "ns"),
        ("server.encode_row_ns", encode_row, "ns"),
        ("server.decode_row_ns", decode_row, "ns"),
        ("server.admit_ns", admit, "ns"),
        ("server.noop_rtt_us", pair_p50 / 2.0 / 1e3, "us"),
    ])
}
