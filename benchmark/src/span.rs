//! Spans for the traced run: name, start, end, the span that caused it
//! and the operation it belongs to, kept in memory until the run ends.
//! Recorded from the benchmark's own files, around calls into each
//! layer; nothing inside the program is instrumented.

use crate::stats::percentile;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// The operation (request) this span is part of.
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans, or — when disabled — runs the same closures without
/// reading the clock, which is what the overhead comparison runs.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool, capacity: usize) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::with_capacity(if enabled { capacity } else { 0 }),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<u32>, op: u32) -> u32 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    pub fn close(&mut self, id: u32) {
        if self.enabled {
            let end_ns = self.now_ns();
            self.spans[id as usize].end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        op: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, op);
        let out = f();
        self.close(id);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span, by span id: its duration minus the part of
/// it its direct children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p as usize] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// One line of the latency budget.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetLine {
    pub name: &'static str,
    /// Median over operations of the self time this span name took in
    /// one operation (all its occurrences in the operation added up).
    pub p50_self_us: f64,
    /// Operations the median is over.
    pub samples: usize,
}

/// The budget: for each span name, the p50 over operations of its self
/// time per operation. Lines come back in order of first appearance.
pub fn budget(spans: &[Span]) -> Vec<BudgetLine> {
    let selfs = self_times_ns(spans);
    let ops: BTreeMap<u32, ()> = spans.iter().map(|s| (s.op, ())).collect();
    let mut order: Vec<&'static str> = Vec::new();
    let mut per_op: BTreeMap<(&'static str, u32), u64> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        if !order.contains(&s.name) {
            order.push(s.name);
        }
        *per_op.entry((s.name, s.op)).or_insert(0) += own;
    }
    order
        .into_iter()
        .map(|name| {
            // An operation without this span spent nothing in it.
            let mut totals: Vec<u64> = ops
                .keys()
                .map(|op| per_op.get(&(name, *op)).copied().unwrap_or(0))
                .collect();
            BudgetLine {
                name,
                p50_self_us: percentile(&mut totals, 0.50).unwrap_or(0) as f64 / 1e3,
                samples: totals.len(),
            }
        })
        .collect()
}

/// (measured − explained) ÷ measured: the share of the client-observed
/// latency that no span accounts for.
pub fn residual_share(measured_us: f64, explained_us: f64) -> f64 {
    if measured_us <= 0.0 {
        return f64::NAN;
    }
    (measured_us - explained_us) / measured_us
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, op: u32, name: &'static str, s: u64, e: u64) -> Span {
        Span {
            id,
            parent,
            op,
            name,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span(0, None, 0, "op", 0, 100),
            span(1, Some(0), 0, "parse", 10, 30),
            span(2, Some(0), 0, "run", 30, 90),
            span(3, Some(2), 0, "commit", 40, 80),
        ];
        assert_eq!(self_times_ns(&spans), [20, 20, 20, 40]);
    }

    #[test]
    fn budget_sums_a_name_within_an_operation_and_takes_the_median_over_operations() {
        let mut spans = Vec::new();
        // Three operations, two "frame" spans each, of 1, 2 and 3 µs.
        for op in 0..3u32 {
            let base = u64::from(op) * 100_000;
            let root = spans.len() as u32;
            spans.push(span(root, None, op, "op", base, base + 50_000));
            for k in 0..2u64 {
                let id = spans.len() as u32;
                let start = base + 1_000 + k * 10_000;
                spans.push(span(
                    id,
                    Some(root),
                    op,
                    "frame",
                    start,
                    start + u64::from(op + 1) * 1_000,
                ));
            }
        }
        let lines = budget(&spans);
        assert_eq!(lines[0].name, "op");
        assert_eq!(lines[1].name, "frame");
        assert_eq!(lines[1].samples, 3);
        assert_eq!(lines[1].p50_self_us, 4.0);
        assert_eq!(lines[0].p50_self_us, 46.0);
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false, 10);
        assert_eq!(r.time("x", None, 0, || 7), 7);
        assert!(r.into_spans().is_empty());
        let mut r = Recorder::new(true, 10);
        let root = r.open("op", None, 3);
        r.time("child", Some(root), 3, || ());
        r.close(root);
        let spans = r.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }

    #[test]
    fn residual() {
        assert!((residual_share(2_000.0, 1_500.0) - 0.25).abs() < 1e-12);
        assert!(residual_share(0.0, 1.0).is_nan());
    }
}
