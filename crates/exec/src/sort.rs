//! External sorting: replacement-selection run formation and n-way merge.
//!
//! §3.4's building blocks: runs average twice the memory size (Knuth), all
//! runs merge in one pass because `sqrt(|S|·F) ≤ |M|`. The priority queue
//! charges one comparison and one swap per heap level — the paper's
//! `log2({M}) · (comp + swap)` pricing, measured rather than assumed.

use crate::context::ExecContext;
use crate::spill::{SpillFile, SpillIo};
use crate::{CostMeter, MemRelation, Meter, Row, Rows};
use mmdb_types::{Tuple, Value};
use std::sync::Arc;

/// A binary min-heap that charges its meter one `comp` and one `swap` per
/// level an element moves.
#[derive(Debug)]
pub struct CountingHeap<T: Ord, M = Arc<CostMeter>> {
    data: Vec<T>,
    meter: M,
}

impl<T: Ord, M: Meter> CountingHeap<T, M> {
    /// An empty heap charging to `meter`.
    pub fn new(meter: M) -> Self {
        CountingHeap {
            data: Vec::new(),
            meter,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the heap is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The minimum element, if any.
    pub fn peek(&self) -> Option<&T> {
        self.data.first()
    }

    /// Inserts an element (≈ `log2 n` comparisons and swaps).
    pub fn push(&mut self, item: T) {
        self.data.push(item);
        let mut i = self.data.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 2;
            self.meter.charge_comparisons(1);
            if self.data[i] < self.data[parent] {
                self.meter.charge_swaps(1);
                self.data.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    /// Removes and returns the minimum (≈ `log2 n` comparisons and swaps).
    pub fn pop(&mut self) -> Option<T> {
        if self.data.is_empty() {
            return None;
        }
        let last = self.data.len() - 1;
        self.data.swap(0, last);
        let out = self.data.pop();
        let n = self.data.len();
        let mut i = 0;
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            if l >= n {
                break;
            }
            let smaller = if r < n {
                self.meter.charge_comparisons(1);
                if self.data[r] < self.data[l] {
                    r
                } else {
                    l
                }
            } else {
                l
            };
            self.meter.charge_comparisons(1);
            if self.data[smaller] < self.data[i] {
                self.meter.charge_swaps(1);
                self.data.swap(i, smaller);
                i = smaller;
            } else {
                break;
            }
        }
        out
    }
}

/// Heap entry for replacement selection: ordered by `(run, key)` so the
/// current run drains before the next begins.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct RsEntry<T> {
    run: u32,
    key: Value,
    seq: u64, // tie-break keeps the ordering total without comparing tuples
    tuple: T,
}

/// Forms sorted runs from `rows` (keyed on column `key_col`) by
/// replacement selection, using at most the context's memory for the
/// selection tree. Runs are written sequentially; each averages `2·{M}`
/// tuples on random input (Knuth via §3.4).
pub fn form_runs<T: Row, M: Meter>(
    rows: Rows<'_, T>,
    key_col: usize,
    ctx: &ExecContext<M>,
) -> Vec<SpillFile<T, M>> {
    let tpp = rows.tuples_per_page;
    let capacity = ctx.mem_tuple_capacity(tpp);
    let mut input = rows.tuples.iter();
    let mut heap: CountingHeap<RsEntry<T>, M> = CountingHeap::new(ctx.meter.clone());
    let mut seq = 0u64;
    let mut push = |heap: &mut CountingHeap<RsEntry<T>, M>, run: u32, tuple: &T| {
        let key = tuple.borrow().get(key_col).clone();
        let entry = RsEntry {
            run,
            key,
            seq,
            tuple: tuple.clone(),
        };
        seq += 1;
        heap.push(entry);
    };

    for t in input.by_ref().take(capacity) {
        push(&mut heap, 0, t);
    }

    let mut runs: Vec<SpillFile<T, M>> = Vec::new();
    let mut current_run = 0u32;
    let mut current = SpillFile::new(ctx.meter.clone(), tpp);
    while let Some(entry) = heap.pop() {
        if entry.run != current_run {
            current.flush(SpillIo::Sequential);
            runs.push(current);
            current = SpillFile::new(ctx.meter.clone(), tpp);
            current_run = entry.run;
        }
        if let Some(t) = input.next() {
            ctx.meter.charge_comparisons(1);
            let next_run = if *t.borrow().get(key_col) >= entry.key {
                entry.run
            } else {
                entry.run + 1
            };
            push(&mut heap, next_run, t);
        }
        current.append(entry.tuple, SpillIo::Sequential);
    }
    current.flush(SpillIo::Sequential);
    if !current.is_empty() {
        runs.push(current);
    }
    runs
}

/// Heap entry for the n-way merge: `(key, run index, position)`.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct MergeEntry<T> {
    key: Value,
    seq: u64,
    run: usize,
    tuple: T,
}

/// Cursor over one run's pages, reading each page with one random I/O as
/// the merge interleaves across runs.
struct RunCursor<T, M> {
    file: SpillFile<T, M>,
    page_idx: usize,
    buffer: Vec<T>,
    pos: usize,
}

impl<T: Clone, M: Meter> RunCursor<T, M> {
    fn new(file: SpillFile<T, M>) -> Self {
        RunCursor {
            file,
            page_idx: 0,
            buffer: Vec::new(),
            pos: 0,
        }
    }

    fn next(&mut self) -> Option<T> {
        if self.pos >= self.buffer.len() {
            if self.page_idx >= self.file.closed_pages() {
                return None;
            }
            self.buffer = self.file.read_page(self.page_idx, SpillIo::Random).to_vec();
            self.page_idx += 1;
            self.pos = 0;
        }
        let t = self.buffer[self.pos].clone();
        self.pos += 1;
        Some(t)
    }
}

/// Merges sorted runs into one fully sorted row vector, charging heap
/// comparisons/swaps and one random I/O per run page read.
pub fn merge_runs<T: Row, M: Meter>(
    runs: Vec<SpillFile<T, M>>,
    key_col: usize,
    ctx: &ExecContext<M>,
) -> Vec<T> {
    // Make sure trailing partial pages are on "disk".
    let mut cursors: Vec<RunCursor<T, M>> = runs
        .into_iter()
        .map(|mut f| {
            f.flush(SpillIo::Sequential);
            RunCursor::new(f)
        })
        .collect();
    let total: usize = cursors.iter().map(|c| c.file.tuple_count()).sum();
    let mut heap: CountingHeap<MergeEntry<T>, M> = CountingHeap::new(ctx.meter.clone());
    let mut seq = 0u64;
    for (i, c) in cursors.iter_mut().enumerate() {
        if let Some(t) = c.next() {
            heap.push(MergeEntry {
                key: t.borrow().get(key_col).clone(),
                seq,
                run: i,
                tuple: t,
            });
            seq += 1;
        }
    }
    let mut out = Vec::with_capacity(total);
    while let Some(e) = heap.pop() {
        if let Some(t) = cursors[e.run].next() {
            heap.push(MergeEntry {
                key: t.borrow().get(key_col).clone(),
                seq,
                run: e.run,
                tuple: t,
            });
            seq += 1;
        }
        out.push(e.tuple);
    }
    out
}

/// Fully sorts a relation by `key_col` under the context's memory grant:
/// in memory when `|R|·F ≤ |M|` (no I/O — the paper's beyond-ratio-1.0
/// regime), otherwise replacement-selection runs plus one merge pass.
pub fn external_sort(rel: &MemRelation, key_col: usize, ctx: &ExecContext) -> Vec<Tuple> {
    sort_rows(rel.into(), key_col, ctx)
}

/// [`external_sort`] over rows of any [`Row`] type.
pub(crate) fn sort_rows<T: Row, M: Meter>(
    rows: Rows<'_, T>,
    key_col: usize,
    ctx: &ExecContext<M>,
) -> Vec<T> {
    let fits = (rows.page_count() as f64) * ctx.fudge <= ctx.mem_pages as f64;
    if fits {
        // Heap-sort in place: same comparison/swap pricing, no I/O.
        let mut heap: CountingHeap<RsEntry<T>, M> = CountingHeap::new(ctx.meter.clone());
        for (seq, t) in rows.tuples.iter().enumerate() {
            heap.push(RsEntry {
                run: 0,
                key: t.borrow().get(key_col).clone(),
                seq: seq as u64,
                tuple: t.clone(),
            });
        }
        let mut out = Vec::with_capacity(rows.tuples.len());
        while let Some(e) = heap.pop() {
            out.push(e.tuple);
        }
        out
    } else {
        let runs = form_runs(rows, key_col, ctx);
        merge_runs(runs, key_col, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_types::{DataType, Schema, WorkloadRng};

    fn rel(keys: &[i64], per_page: usize) -> MemRelation {
        let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
        let tuples = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| Tuple::new(vec![Value::Int(k), Value::Int(i as i64)]))
            .collect();
        MemRelation::from_tuples(schema, per_page, tuples).unwrap()
    }

    fn keys_of(ts: &[Tuple]) -> Vec<i64> {
        ts.iter().map(|t| t.get(0).as_int().unwrap()).collect()
    }

    #[test]
    fn counting_heap_sorts_and_charges() {
        let meter = Arc::new(CostMeter::new());
        let mut h = CountingHeap::new(Arc::clone(&meter));
        for x in [5, 1, 4, 2, 3] {
            h.push(x);
        }
        let mut out = Vec::new();
        while let Some(x) = h.pop() {
            out.push(x);
        }
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
        let s = meter.snapshot();
        assert!(s.comparisons > 0 && s.swaps > 0);
    }

    #[test]
    fn heap_comparison_cost_is_logarithmic() {
        let meter = Arc::new(CostMeter::new());
        let mut h = CountingHeap::new(Arc::clone(&meter));
        let n = 10_000u64;
        let mut rng = WorkloadRng::seeded(1);
        for _ in 0..n {
            h.push(rng.int_in(0, 1 << 40));
        }
        while h.pop().is_some() {}
        let comps = meter.snapshot().comparisons as f64;
        let per_element = comps / n as f64;
        let log_n = (n as f64).log2();
        // Push+pop together should cost within a small factor of 2·log2(n).
        assert!(
            per_element < 2.5 * log_n && per_element > 0.5 * log_n,
            "per-element comparisons {per_element}, log2(n) = {log_n}"
        );
    }

    #[test]
    fn replacement_selection_runs_average_twice_memory() {
        let mut rng = WorkloadRng::seeded(2);
        let n = 20_000;
        let keys: Vec<i64> = (0..n).map(|_| rng.int_in(0, 1 << 40)).collect();
        let r = rel(&keys, 40);
        // Memory for 1000 tuples (F = 1.0 to make the arithmetic exact).
        let ctx = ExecContext::new(25, 1.0);
        let runs = form_runs(Rows::from(&r), 0, &ctx);
        let avg = n as f64 / runs.len() as f64;
        let mem_tuples = 1000.0;
        assert!(
            (1.6 * mem_tuples..2.6 * mem_tuples).contains(&avg),
            "average run length {avg}, expected ≈ 2·{mem_tuples} (Knuth)"
        );
        // Each run is internally sorted.
        for run in runs {
            let pages: Vec<Vec<Tuple>> = run.drain_pages(SpillIo::Sequential).collect();
            let flat: Vec<Tuple> = pages.into_iter().flatten().collect();
            let ks = keys_of(&flat);
            assert!(ks.windows(2).all(|w| w[0] <= w[1]), "run not sorted");
        }
    }

    #[test]
    fn sorted_input_yields_one_run() {
        let keys: Vec<i64> = (0..5_000).collect();
        let r = rel(&keys, 40);
        let ctx = ExecContext::new(5, 1.0);
        let runs = form_runs(Rows::from(&r), 0, &ctx);
        assert_eq!(runs.len(), 1, "replacement selection on sorted input");
    }

    #[test]
    fn external_sort_matches_std_sort() {
        let mut rng = WorkloadRng::seeded(3);
        let keys: Vec<i64> = (0..8_000).map(|_| rng.int_in(0, 500)).collect();
        let r = rel(&keys, 40);
        let ctx = ExecContext::new(20, 1.2); // forces spilling
        let sorted = external_sort(&r, 0, &ctx);
        assert_eq!(sorted.len(), keys.len());
        let mut want = keys.clone();
        want.sort_unstable();
        assert_eq!(keys_of(&sorted), want);
        assert!(ctx.meter.snapshot().total_ios() > 0, "must have spilled");
    }

    #[test]
    fn in_memory_sort_does_no_io() {
        let mut rng = WorkloadRng::seeded(4);
        let keys: Vec<i64> = (0..2_000).map(|_| rng.int_in(0, 100)).collect();
        let r = rel(&keys, 40);
        let ctx = ExecContext::new(1_000, 1.2); // plenty of memory
        let sorted = external_sort(&r, 0, &ctx);
        let mut want = keys.clone();
        want.sort_unstable();
        assert_eq!(keys_of(&sorted), want);
        assert_eq!(ctx.meter.snapshot().total_ios(), 0);
    }

    #[test]
    fn merge_reads_run_pages_randomly() {
        let mut rng = WorkloadRng::seeded(5);
        let keys: Vec<i64> = (0..4_000).map(|_| rng.int_in(0, 1 << 30)).collect();
        let r = rel(&keys, 40);
        let ctx = ExecContext::new(10, 1.0);
        let runs = form_runs(Rows::from(&r), 0, &ctx);
        assert!(runs.len() > 1);
        let before = ctx.meter.snapshot();
        let merged = merge_runs(runs, 0, &ctx);
        let delta = ctx.meter.snapshot().delta_since(&before);
        assert_eq!(merged.len(), 4_000);
        assert!(delta.rand_ios >= 100, "run pages read back: {delta:?}");
    }

    #[test]
    fn empty_relation_sorts_to_empty() {
        let r = rel(&[], 40);
        let ctx = ExecContext::new(10, 1.2);
        assert!(external_sort(&r, 0, &ctx).is_empty());
    }

    #[test]
    fn duplicate_keys_survive_sorting() {
        let keys = vec![3, 1, 3, 2, 3, 1];
        let r = rel(&keys, 2);
        let ctx = ExecContext::new(1, 1.0);
        let sorted = external_sort(&r, 0, &ctx);
        assert_eq!(keys_of(&sorted), vec![1, 1, 2, 3, 3, 3]);
    }
}
