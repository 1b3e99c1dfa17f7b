//! `mmdb-obs`: what one histogram sample and one counter increment
//! cost, which bounds the instrumentation on every request path.

use crate::probe::{per_call_ns, Reading};
use mmdb_obs::{Counter, Histogram};
use std::hint::black_box;

pub fn probe() -> Vec<Reading> {
    let hist = Histogram::new();
    let mut v = 1u64;
    let record = per_call_ns(100_000, || {
        v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
        hist.record(black_box(v >> 44));
    });
    black_box(hist.snapshot());
    let counter = Counter::new();
    let inc = per_call_ns(100_000, || black_box(&counter).inc());
    black_box(counter.get());
    vec![
        ("obs.hist_record_ns", record, "ns"),
        ("obs.counter_inc_ns", inc, "ns"),
    ]
}
