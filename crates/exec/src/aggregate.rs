//! §3.9's one grouping operator: aggregation and duplicate-eliminating
//! projection.
//!
//! "If there is enough memory to hold the result relation, then the
//! fastest algorithm will be a one pass hashing algorithm in which each
//! incoming tuple is hashed on the grouping attribute. If there is not
//! ... a variant of the hybrid-hash algorithm appears fastest." And
//! "projection with duplicate elimination is very similar in nature to
//! the aggregate function operation (in projection we are grouping
//! identical tuples)" — so [`group`] is both: it groups a relation on the
//! projection of its tuples onto some columns and computes zero or more
//! [`AggFunc`]s per group, and `DISTINCT` is grouping with none. Each
//! [`Strategy`] — one-pass hashing, hybrid hashing, and the sort-based
//! baseline they beat — shares the key, the output schema and the
//! per-group aggregate state; the two hash strategies share one hash core.
//!
//! What the meter is charged: every input tuple costs a hash and a
//! comparison as it finds its group, and each new group a move. A
//! grouping with no aggregates needs only its key, so it projects each
//! input tuple once, for one move, and carries the projection from then
//! on; one with aggregates carries the whole tuple and moves it only when
//! it spills.

use crate::context::ExecContext;
use crate::partition::{hash_key, mix, uniform_class};
use crate::sort::{sort_rows, CountingHeap};
use crate::spill::{SpillFile, SpillIo};
use crate::{MemRelation, Meter, Row, Rows};
use mmdb_types::{Column, DataType, Result, Schema, Tuple, Value};
use std::borrow::{Borrow, Cow};
use std::collections::HashMap;
use std::hash::Hash;

/// An aggregate function over a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// Row count (column ignored).
    Count,
    /// Sum of a numeric column.
    Sum(usize),
    /// Mean of a numeric column.
    Avg(usize),
    /// Minimum of a column.
    Min(usize),
    /// Maximum of a column.
    Max(usize),
}

impl AggFunc {
    fn output_name(&self) -> String {
        match self {
            AggFunc::Count => "count".into(),
            AggFunc::Sum(c) => format!("sum_{c}"),
            AggFunc::Avg(c) => format!("avg_{c}"),
            AggFunc::Min(c) => format!("min_{c}"),
            AggFunc::Max(c) => format!("max_{c}"),
        }
    }

    fn output_type(&self, input: &Schema) -> DataType {
        match self {
            AggFunc::Count => DataType::Int,
            AggFunc::Sum(_) | AggFunc::Avg(_) => DataType::Float,
            AggFunc::Min(c) | AggFunc::Max(c) => input
                .column(*c)
                .map(|col| col.ty)
                .unwrap_or(DataType::Float),
        }
    }
}

/// Running state for one group.
#[derive(Debug, Clone)]
struct AggState {
    count: u64,
    sums: Vec<f64>,
    mins: Vec<Option<Value>>,
    maxs: Vec<Option<Value>>,
}

impl AggState {
    fn new(aggs: &[AggFunc]) -> Self {
        AggState {
            count: 0,
            sums: vec![0.0; aggs.len()],
            mins: vec![None; aggs.len()],
            maxs: vec![None; aggs.len()],
        }
    }

    fn update(&mut self, aggs: &[AggFunc], t: &Tuple) {
        self.count += 1;
        for (i, a) in aggs.iter().enumerate() {
            match a {
                AggFunc::Count => {}
                AggFunc::Sum(c) | AggFunc::Avg(c) => {
                    if let Some(x) = t.get(*c).numeric() {
                        self.sums[i] += x;
                    }
                }
                AggFunc::Min(c) => {
                    let v = t.get(*c);
                    if self.mins[i].as_ref().map(|m| v < m).unwrap_or(true) {
                        self.mins[i] = Some(v.clone());
                    }
                }
                AggFunc::Max(c) => {
                    let v = t.get(*c);
                    if self.maxs[i].as_ref().map(|m| v > m).unwrap_or(true) {
                        self.maxs[i] = Some(v.clone());
                    }
                }
            }
        }
    }

    fn finish(&self, aggs: &[AggFunc]) -> Vec<Value> {
        aggs.iter()
            .enumerate()
            .map(|(i, a)| match a {
                AggFunc::Count => Value::Int(self.count as i64),
                AggFunc::Sum(_) => Value::Float(self.sums[i]),
                AggFunc::Avg(_) => Value::Float(if self.count == 0 {
                    0.0
                } else {
                    self.sums[i] / self.count as f64
                }),
                AggFunc::Min(_) => self.mins[i].clone().unwrap_or(Value::Null),
                AggFunc::Max(_) => self.maxs[i].clone().unwrap_or(Value::Null),
            })
            .collect()
    }
}

/// How [`group`] runs (§3.9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// One-pass hashing: assumes the result fits in memory (§3.9 calls
    /// the alternative "a very unlikely event").
    Hash,
    /// Hybrid hashing: when the input may not fit the memory grant,
    /// partition it to disk by key hash (like the hybrid join's
    /// partitioning phase), then group each partition in one pass.
    HybridHash,
    /// Sort on the key, then scan the groups: the baseline §3.9's claim
    /// is measured against.
    Sort,
}

/// Output schema: the key's columns, then one column per aggregate.
fn schema(input: &Schema, cols: &[usize], aggs: &[AggFunc]) -> Result<Schema> {
    let key = input.project(cols)?;
    if aggs.is_empty() {
        return Ok(key);
    }
    let mut columns = key.columns().to_vec();
    columns.extend(
        aggs.iter()
            .map(|a| Column::new(a.output_name(), a.output_type(input))),
    );
    Schema::new(columns)
}

/// A group key: a single column's value for one-column aggregation, the
/// projected tuple otherwise.
trait GroupKey: Hash + Ord + Sized {
    /// The key of `row`: its projection onto `cols`.
    fn of(row: &Tuple, cols: &[usize]) -> Self;
    /// The hash that picks a spilled row's partition.
    fn partition_hash(&self) -> u64;
    /// The key's values, which open its group's output tuple.
    fn into_values(self) -> Vec<Value>;
    /// `rows` in key order, each with its key, as this key's sorter
    /// orders them.
    fn sorted<R: Row, M: Meter>(
        rows: Vec<R>,
        cols: &[usize],
        tuples_per_page: usize,
        ctx: &ExecContext<M>,
    ) -> Vec<(Self, R)>;
}

impl GroupKey for Value {
    fn of(row: &Tuple, cols: &[usize]) -> Self {
        row.get(cols[0]).clone()
    }

    fn partition_hash(&self) -> u64 {
        hash_key(self)
    }

    fn into_values(self) -> Vec<Value> {
        vec![self]
    }

    /// §3.4's external sort on the key column.
    fn sorted<R: Row, M: Meter>(
        rows: Vec<R>,
        cols: &[usize],
        tuples_per_page: usize,
        ctx: &ExecContext<M>,
    ) -> Vec<(Self, R)> {
        let sorted = sort_rows(Rows::new(&rows, tuples_per_page), cols[0], ctx);
        sorted
            .into_iter()
            .map(|row| (Self::of(row.borrow(), cols), row))
            .collect()
    }
}

impl GroupKey for Tuple {
    fn of(row: &Tuple, cols: &[usize]) -> Self {
        row.project(cols)
    }

    fn partition_hash(&self) -> u64 {
        tuple_hash(self)
    }

    fn into_values(self) -> Vec<Value> {
        Tuple::into_values(self)
    }

    /// A [`CountingHeap`] of `(key, row)` pairs.
    fn sorted<R: Row, M: Meter>(
        rows: Vec<R>,
        cols: &[usize],
        _tuples_per_page: usize,
        ctx: &ExecContext<M>,
    ) -> Vec<(Self, R)> {
        let mut heap = CountingHeap::new(ctx.meter.clone());
        for row in rows {
            heap.push((Self::of(row.borrow(), cols), row));
        }
        std::iter::from_fn(|| heap.pop()).collect()
    }
}

/// A deterministic hash of a whole tuple, mixing [`hash_key`] per value
/// and finishing with its mix.
fn tuple_hash(t: &Tuple) -> u64 {
    let mut h = hash_key(&Value::Int(0));
    for v in t.values() {
        h = h.rotate_left(13) ^ hash_key(v);
    }
    mix(h)
}

/// §3.9's grouping operator: groups `rel` on the projection of its
/// tuples onto `cols` and computes `aggs` per group, running `strategy`.
/// With no `aggs` it is `DISTINCT` on `cols`. Each output tuple is a
/// group's key columns, then one column per aggregate, in key order —
/// within each partition, when hybrid hashing spills.
pub fn group<M: Meter>(
    rel: &MemRelation,
    cols: &[usize],
    aggs: &[AggFunc],
    strategy: Strategy,
    ctx: &ExecContext<M>,
) -> Result<MemRelation> {
    if cols.len() == 1 && !aggs.is_empty() {
        group_on::<Value, M>(rel, cols, aggs, strategy, ctx)
    } else {
        group_on::<Tuple, M>(rel, cols, aggs, strategy, ctx)
    }
}

/// One-pass hash aggregation grouping by the single column `group_col`.
pub fn hash_aggregate(
    rel: &MemRelation,
    group_col: usize,
    aggs: &[AggFunc],
    ctx: &ExecContext,
) -> Result<MemRelation> {
    group(rel, &[group_col], aggs, Strategy::Hash, ctx)
}

/// [`group`] with keys of type `K`.
fn group_on<K: GroupKey, M: Meter>(
    rel: &MemRelation,
    cols: &[usize],
    aggs: &[AggFunc],
    strategy: Strategy,
    ctx: &ExecContext<M>,
) -> Result<MemRelation> {
    let tpp = rel.tuples_per_page();
    let capacity = ctx.mem_tuple_capacity(tpp);
    let mut out = MemRelation::new(schema(rel.schema(), cols, aggs)?, tpp);
    // Without aggregates the carried row is the projection, whose every
    // column is the key.
    let distinct = aggs.is_empty();
    let key: Vec<usize> = if distinct {
        (0..cols.len()).collect()
    } else {
        cols.to_vec()
    };
    let rows = rel.tuples().iter().map(|t| {
        if distinct {
            ctx.meter.charge_moves(1);
            Cow::Owned(t.project(cols))
        } else {
            Cow::Borrowed(t)
        }
    });
    match strategy {
        Strategy::Sort => {
            let sorted = K::sorted(rows.collect(), &key, tpp, ctx);
            scan_sorted(sorted, aggs, ctx, &mut out)?;
        }
        Strategy::HybridHash if rel.tuple_count() > capacity => {
            // Partition to disk so each partition's groups fit.
            let parts = rel.tuple_count().div_ceil(capacity);
            let mut files: Vec<SpillFile<_, M>> = (0..parts)
                .map(|_| SpillFile::new(ctx.meter.clone(), tpp))
                .collect();
            for row in rows {
                ctx.meter.charge_hashes(1);
                let h = K::of(&row, &key).partition_hash();
                // The move to the output buffer; a projection was that move.
                if !distinct {
                    ctx.meter.charge_moves(1);
                }
                files[uniform_class(h, parts)].append(row, SpillIo::Random);
            }
            for f in &mut files {
                f.flush(SpillIo::Random);
            }
            for f in files {
                let part = f.drain_pages(SpillIo::Sequential).flatten();
                group_in_memory::<K, _, M>(part, &key, aggs, ctx, &mut out)?;
            }
        }
        Strategy::Hash | Strategy::HybridHash => {
            group_in_memory::<K, _, M>(rows, &key, aggs, ctx, &mut out)?;
        }
    }
    Ok(out)
}

/// The one-pass hash core: each row's key is hashed and matched within
/// its bucket (one `hash`, one `comp`), and a new group tuple is one
/// `move` (the result-relation insert). Groups leave in key order.
fn group_in_memory<K: GroupKey, R: Borrow<Tuple>, M: Meter>(
    rows: impl Iterator<Item = R>,
    key: &[usize],
    aggs: &[AggFunc],
    ctx: &ExecContext<M>,
    out: &mut MemRelation,
) -> Result<()> {
    let mut groups: HashMap<K, AggState> = HashMap::new();
    for row in rows {
        let row = row.borrow();
        ctx.meter.charge_hashes(1);
        ctx.meter.charge_comparisons(1);
        let state = groups.entry(K::of(row, key)).or_insert_with(|| {
            ctx.meter.charge_moves(1);
            AggState::new(aggs)
        });
        state.update(aggs, row);
    }
    let mut groups: Vec<(K, AggState)> = groups.into_iter().collect();
    groups.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    for (k, state) in groups {
        push_group(out, k, &state, aggs)?;
    }
    Ok(())
}

/// The sort strategy's group scan: one `comp` per row against the open
/// group's key; a new key closes that group and opens the next (one
/// `move`).
fn scan_sorted<K: GroupKey, R: Borrow<Tuple>, M: Meter>(
    sorted: Vec<(K, R)>,
    aggs: &[AggFunc],
    ctx: &ExecContext<M>,
    out: &mut MemRelation,
) -> Result<()> {
    let mut open: Option<(K, AggState)> = None;
    for (key, row) in sorted {
        ctx.meter.charge_comparisons(1);
        match &mut open {
            Some((k, state)) if *k == key => state.update(aggs, row.borrow()),
            _ => {
                if let Some((k, state)) = open.take() {
                    push_group(out, k, &state, aggs)?;
                }
                ctx.meter.charge_moves(1);
                let mut state = AggState::new(aggs);
                state.update(aggs, row.borrow());
                open = Some((key, state));
            }
        }
    }
    match open {
        Some((k, state)) => push_group(out, k, &state, aggs),
        None => Ok(()),
    }
}

/// Appends a group's output tuple: its key, then its aggregates.
fn push_group<K: GroupKey>(
    out: &mut MemRelation,
    key: K,
    state: &AggState,
    aggs: &[AggFunc],
) -> Result<()> {
    let mut values = key.into_values();
    values.extend(state.finish(aggs));
    out.push(Tuple::new(values))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CostSnapshot;
    use mmdb_types::{Schema, WorkloadRng};

    fn employees(n: usize, depts: i64) -> MemRelation {
        let mut rng = WorkloadRng::seeded(123);
        let schema = Schema::of(&[
            ("id", DataType::Int),
            ("name", DataType::Str),
            ("salary", DataType::Float),
            ("dept", DataType::Int),
        ]);
        MemRelation::from_tuples(schema, 40, rng.employees(n, depts)).unwrap()
    }

    fn rel_with_dups(n: usize, key_space: i64) -> MemRelation {
        let mut rng = WorkloadRng::seeded(55);
        let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
        MemRelation::from_tuples(schema, 40, rng.keyed_tuples(n, key_space)).unwrap()
    }

    fn canon(r: &MemRelation) -> Vec<Tuple> {
        let mut v = r.tuples().to_vec();
        v.sort();
        v
    }

    fn oracle_avg_by_dept(rel: &MemRelation) -> HashMap<i64, (u64, f64)> {
        let mut m: HashMap<i64, (u64, f64)> = HashMap::new();
        for t in rel.tuples() {
            let d = t.get(3).as_int().unwrap();
            let s = t.get(2).as_float().unwrap();
            let e = m.entry(d).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += s;
        }
        m
    }

    #[test]
    fn average_salary_by_department() {
        // §3.9's example: "compute average employee salary by manager".
        let rel = employees(2_000, 8);
        let ctx = ExecContext::new(100, 1.2);
        let out = hash_aggregate(&rel, 3, &[AggFunc::Count, AggFunc::Avg(2)], &ctx).unwrap();
        assert_eq!(out.tuple_count(), 8);
        let oracle = oracle_avg_by_dept(&rel);
        for t in out.tuples() {
            let d = t.get(0).as_int().unwrap();
            let count = t.get(1).as_int().unwrap() as u64;
            let avg = t.get(2).as_float().unwrap();
            let (oc, osum) = oracle[&d];
            assert_eq!(count, oc);
            assert!((avg - osum / oc as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn all_aggregate_functions() {
        let rel = employees(500, 4);
        let ctx = ExecContext::new(100, 1.2);
        let aggs = [
            AggFunc::Count,
            AggFunc::Sum(2),
            AggFunc::Min(2),
            AggFunc::Max(2),
        ];
        let out = hash_aggregate(&rel, 3, &aggs, &ctx).unwrap();
        for t in out.tuples() {
            let min = t.get(3).as_float().unwrap();
            let max = t.get(4).as_float().unwrap();
            assert!(min <= max);
            let sum = t.get(2).as_float().unwrap();
            let count = t.get(1).as_int().unwrap() as f64;
            assert!(sum >= min * count && sum <= max * count);
        }
    }

    #[test]
    fn hash_and_sort_agree() {
        let rel = employees(3_000, 16);
        let aggs = [AggFunc::Count, AggFunc::Avg(2)];
        for cols in [&[3][..], &[3, 0]] {
            let run = |strategy| group(&rel, cols, &aggs, strategy, &ExecContext::new(200, 1.2));
            // Both produce key-sorted output.
            let h = run(Strategy::Hash).unwrap();
            assert_eq!(h.tuples(), run(Strategy::Sort).unwrap().tuples());
        }
    }

    #[test]
    fn hybrid_matches_one_pass_under_pressure() {
        let rel = employees(4_000, 32);
        let aggs = [AggFunc::Count, AggFunc::Sum(2)];
        let one = hash_aggregate(&rel, 3, &aggs, &ExecContext::new(1_000, 1.2)).unwrap();
        let ctx = ExecContext::new(10, 1.2); // forces partitioning
        let hybrid = group(&rel, &[3], &aggs, Strategy::HybridHash, &ctx).unwrap();
        assert_eq!(canon(&hybrid), canon(&one));
        assert!(
            ctx.meter.snapshot().total_ios() > 0,
            "must have partitioned"
        );
    }

    #[test]
    fn hash_beats_sort_in_cpu_seconds() {
        // §3.9's claim, measured at Table 2 prices, for aggregation and
        // for DISTINCT.
        let params = mmdb_types::SystemParams::table2();
        for (rel, cols, aggs) in [
            (employees(5_000, 10), [3], &[AggFunc::Avg(2)][..]),
            (rel_with_dups(5_000, 100), [0], &[]),
        ] {
            let seconds = |strategy| {
                let ctx = ExecContext::new(1_000, 1.2);
                group(&rel, &cols, aggs, strategy, &ctx).unwrap();
                ctx.meter.seconds(&params)
            };
            let (h_secs, s_secs) = (seconds(Strategy::Hash), seconds(Strategy::Sort));
            assert!(h_secs < s_secs, "hash {h_secs}s should beat sort {s_secs}s");
        }
    }

    /// What each strategy charges on fixed input, with ample memory and
    /// with 10 pages: §3.9's prices, which must not move with how the
    /// operator is built. The two hybrid `DISTINCT` rows read 106 I/Os
    /// while `tuple_hash` finished with std's unspecified `DefaultHasher`;
    /// 107 with `hash_key`'s mix.
    #[test]
    fn strategies_charge_the_meter_as_pinned() {
        let snap = |comparisons, hashes, moves, swaps, ios| CostSnapshot {
            comparisons,
            hashes,
            moves,
            swaps,
            seq_ios: ios,
            rand_ios: ios,
        };
        let rel = employees(4_000, 32);
        let aggs = [AggFunc::Count, AggFunc::Sum(2)];
        let cases = [
            (
                &[3][..],
                &aggs[..],
                Strategy::Hash,
                1_000,
                snap(4_000, 4_000, 32, 0, 0),
            ),
            (
                &[3],
                &aggs,
                Strategy::HybridHash,
                10,
                snap(4_000, 8_000, 4_032, 0, 107),
            ),
            (
                &[3],
                &aggs,
                Strategy::Sort,
                1_000,
                snap(88_519, 0, 32, 41_942, 0),
            ),
            (
                &[3],
                &aggs,
                Strategy::Sort,
                10,
                snap(89_114, 0, 32, 36_678, 103),
            ),
            (
                &[3, 0],
                &aggs,
                Strategy::Hash,
                10,
                snap(4_000, 4_000, 4_000, 0, 0),
            ),
            (
                &[3],
                &[],
                Strategy::Hash,
                1_000,
                snap(4_000, 4_000, 4_032, 0, 0),
            ),
            (
                &[3],
                &[],
                Strategy::HybridHash,
                10,
                snap(4_000, 8_000, 4_032, 0, 107),
            ),
            (
                &[3],
                &[],
                Strategy::Sort,
                10,
                snap(87_015, 0, 4_032, 40_818, 0),
            ),
            (
                &[3, 0],
                &[],
                Strategy::HybridHash,
                10,
                snap(4_000, 8_000, 8_000, 0, 107),
            ),
            (
                &[3, 0],
                &[],
                Strategy::Sort,
                1_000,
                snap(88_959, 0, 8_000, 42_385, 0),
            ),
        ];
        for (cols, aggs, strategy, mem, want) in cases {
            let ctx = ExecContext::new(mem, 1.2);
            group(&rel, cols, aggs, strategy, &ctx).unwrap();
            let what = format!(
                "{strategy:?} on {cols:?} with {} aggregates at {mem} pages",
                aggs.len()
            );
            assert_eq!(ctx.meter.snapshot(), want, "{what}");
        }
    }

    #[test]
    fn multi_column_grouping() {
        // Group by (dept, id): composite keys.
        let rel = employees(1_200, 6);
        let ctx = ExecContext::new(100, 1.2);
        let out = group(&rel, &[3, 0], &[AggFunc::Count], Strategy::Hash, &ctx).unwrap();
        // (dept, id) is unique per employee here, so one group per row —
        // check schema shape and count conservation instead.
        assert_eq!(out.schema().arity(), 3);
        assert_eq!(out.tuple_count(), 1_200);
        let total: i64 = out
            .tuples()
            .iter()
            .map(|t| t.get(2).as_int().unwrap())
            .sum();
        assert_eq!(total, 1_200);
    }

    #[test]
    fn bad_columns_error() {
        let rel = employees(10, 2);
        let ctx = ExecContext::new(10, 1.2);
        assert!(hash_aggregate(&rel, 99, &[AggFunc::Count], &ctx).is_err());
        for strategy in [Strategy::Hash, Strategy::HybridHash, Strategy::Sort] {
            assert!(group(&rel, &[0, 99], &[AggFunc::Count], strategy, &ctx).is_err());
            assert!(group(&rel, &[7], &[], strategy, &ctx).is_err());
        }
    }

    #[test]
    fn empty_input() {
        let rel = employees(0, 4);
        let ctx = ExecContext::new(10, 1.2);
        for strategy in [Strategy::Hash, Strategy::HybridHash, Strategy::Sort] {
            let out = group(&rel, &[3], &[AggFunc::Count], strategy, &ctx).unwrap();
            assert_eq!(out.tuple_count(), 0);
        }
    }

    #[test]
    fn distinct_removes_duplicates() {
        let rel = rel_with_dups(1_000, 20);
        let ctx = ExecContext::new(100, 1.2);
        let out = group(&rel, &[0], &[], Strategy::Hash, &ctx).unwrap();
        assert_eq!(out.tuple_count(), 20);
        let mut ks: Vec<i64> = out
            .tuples()
            .iter()
            .map(|t| t.get(0).as_int().unwrap())
            .collect();
        ks.dedup();
        assert_eq!(ks.len(), 20, "one tuple per key, in key order");
    }

    #[test]
    fn distinct_without_dups_keeps_everything() {
        let rel = rel_with_dups(500, 1_000_000);
        let ctx = ExecContext::new(100, 1.2);
        // Projecting all columns of near-unique tuples removes ~nothing.
        let out = group(&rel, &[0, 1], &[], Strategy::Hash, &ctx).unwrap();
        assert_eq!(out.tuple_count(), 500);
        assert_eq!(out.schema().arity(), 2);
    }

    #[test]
    fn distinct_hash_sort_and_hybrid_agree() {
        let rel = rel_with_dups(3_000, 64);
        let a = group(&rel, &[0], &[], Strategy::Hash, &ExecContext::new(500, 1.2)).unwrap();
        let b = group(&rel, &[0], &[], Strategy::Sort, &ExecContext::new(500, 1.2)).unwrap();
        let hctx = ExecContext::new(4, 1.2); // force partitioning
        let c = group(&rel, &[0], &[], Strategy::HybridHash, &hctx).unwrap();
        assert_eq!(canon(&a), canon(&b));
        assert_eq!(canon(&a), canon(&c));
        assert!(hctx.meter.snapshot().total_ios() > 0);
    }

    #[test]
    fn distinct_reorders_columns() {
        let rel = rel_with_dups(100, 5);
        let ctx = ExecContext::new(100, 1.2);
        let out = group(&rel, &[1, 0], &[], Strategy::Hash, &ctx).unwrap();
        assert_eq!(out.schema().columns()[0].name, "v");
        assert_eq!(out.schema().columns()[1].name, "k");
    }

    #[test]
    fn tuple_hash_distributes() {
        // tuple_hash shouldn't collapse distinct tuples to few partitions.
        let mut counts = vec![0usize; 8];
        for i in 0..8_000i64 {
            let t = Tuple::new(vec![Value::Int(i)]);
            counts[uniform_class(tuple_hash(&t), 8)] += 1;
        }
        for &c in &counts {
            assert!(c > 500, "partition skew: {counts:?}");
        }
    }
}
