//! Aggregation (§3.9).
//!
//! "If there is enough memory to hold the result relation, then the
//! fastest algorithm will be a one pass hashing algorithm in which each
//! incoming tuple is hashed on the grouping attribute. If there is not
//! ... a variant of the hybrid-hash algorithm appears fastest."
//!
//! Both are implemented, plus the sort-based alternative they beat.

use crate::context::ExecContext;
use crate::partition::{hash_key, uniform_class};
use crate::sort::external_sort;
use crate::spill::{SpillFile, SpillIo};
use crate::{MemRelation, Meter};
use mmdb_types::{DataType, Result, Schema, Tuple, Value};
use std::collections::HashMap;
use std::sync::Arc;

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

/// Output schema: the group column then one column per aggregate.
pub fn aggregate_schema(input: &Schema, group_col: usize, aggs: &[AggFunc]) -> Result<Schema> {
    let gcol = input
        .column(group_col)
        .ok_or_else(|| mmdb_types::Error::ColumnNotFound(format!("#{group_col}")))?;
    let mut cols = vec![(gcol.name.clone(), gcol.ty)];
    for a in aggs {
        cols.push((a.output_name(), a.output_type(input)));
    }
    Schema::new(
        cols.into_iter()
            .map(|(n, t)| mmdb_types::Column::new(n, t))
            .collect(),
    )
}

fn aggregate_in_memory(
    tuples: impl Iterator<Item = Tuple>,
    group_col: usize,
    aggs: &[AggFunc],
    ctx: &ExecContext,
    out: &mut MemRelation,
) -> Result<()> {
    let mut groups: HashMap<Value, AggState> = HashMap::new();
    for t in tuples {
        ctx.meter.charge_hashes(1);
        let key = t.get(group_col).clone();
        // One comparison to match the group within its bucket; one move
        // when a new group tuple is created (the result-relation insert).
        ctx.meter.charge_comparisons(1);
        let state = groups.entry(key).or_insert_with(|| {
            ctx.meter.charge_moves(1);
            AggState::new(aggs)
        });
        state.update(aggs, &t);
    }
    let mut keys: Vec<Value> = groups.keys().cloned().collect();
    keys.sort();
    for k in keys {
        let state = &groups[&k];
        let mut values = vec![k.clone()];
        values.extend(state.finish(aggs));
        out.push(Tuple::new(values))?;
    }
    Ok(())
}

/// One-pass hash aggregation: assumes the result relation fits in memory
/// (§3.9 calls the alternative "a very unlikely event"). Groups by
/// `group_col` and computes `aggs`.
pub fn hash_aggregate(
    rel: &MemRelation,
    group_col: usize,
    aggs: &[AggFunc],
    ctx: &ExecContext,
) -> Result<MemRelation> {
    let schema = aggregate_schema(rel.schema(), group_col, aggs)?;
    let mut out = MemRelation::new(schema, rel.tuples_per_page());
    aggregate_in_memory(rel.tuples().iter().cloned(), group_col, aggs, ctx, &mut out)?;
    Ok(out)
}

/// Hybrid-hash aggregation: partitions the input by group hash (like the
/// hybrid join's partitioning phase) when there could be more groups than
/// memory holds, then aggregates each partition in one pass.
pub fn hybrid_hash_aggregate(
    rel: &MemRelation,
    group_col: usize,
    aggs: &[AggFunc],
    ctx: &ExecContext,
) -> Result<MemRelation> {
    let schema = aggregate_schema(rel.schema(), group_col, aggs)?;
    let tpp = rel.tuples_per_page().max(1);
    let mut out = MemRelation::new(schema, tpp);
    let capacity = ctx.mem_tuple_capacity(tpp);
    if rel.tuple_count() <= capacity {
        aggregate_in_memory(rel.tuples().iter().cloned(), group_col, aggs, ctx, &mut out)?;
        return Ok(out);
    }
    // Partition to disk so each partition's groups fit.
    let parts = rel.tuple_count().div_ceil(capacity).max(1);
    let mut files: Vec<SpillFile> = (0..parts)
        .map(|_| SpillFile::new(Arc::clone(&ctx.meter), tpp))
        .collect();
    for t in rel.tuples() {
        ctx.meter.charge_hashes(1);
        let h = hash_key(t.get(group_col));
        ctx.meter.charge_moves(1);
        files[uniform_class(h, parts)].append(t.clone(), SpillIo::Random);
    }
    for f in &mut files {
        f.flush(SpillIo::Random);
    }
    for f in files {
        let tuples = f.drain_pages(SpillIo::Sequential).flatten();
        aggregate_in_memory(tuples, group_col, aggs, ctx, &mut out)?;
    }
    Ok(out)
}

/// Output schema for multi-column grouping: the group columns then one
/// column per aggregate.
pub fn aggregate_schema_multi(
    input: &Schema,
    group_cols: &[usize],
    aggs: &[AggFunc],
) -> Result<Schema> {
    let mut cols = Vec::with_capacity(group_cols.len() + aggs.len());
    for &g in group_cols {
        let c = input
            .column(g)
            .ok_or_else(|| mmdb_types::Error::ColumnNotFound(format!("#{g}")))?;
        cols.push(mmdb_types::Column::new(c.name.clone(), c.ty));
    }
    for a in aggs {
        cols.push(mmdb_types::Column::new(
            a.output_name(),
            a.output_type(input),
        ));
    }
    Schema::new(cols)
}

/// One-pass hash aggregation grouping by **several** columns — the shape
/// of "average salary by manager and department". Hashing composes over
/// the projected group key exactly as over a single column, so §3.9's
/// conclusion carries over unchanged.
pub fn hash_aggregate_multi(
    rel: &MemRelation,
    group_cols: &[usize],
    aggs: &[AggFunc],
    ctx: &ExecContext,
) -> Result<MemRelation> {
    let schema = aggregate_schema_multi(rel.schema(), group_cols, aggs)?;
    let mut out = MemRelation::new(schema, rel.tuples_per_page());
    let mut groups: HashMap<Tuple, AggState> = HashMap::new();
    for t in rel.tuples() {
        ctx.meter.charge_hashes(1);
        ctx.meter.charge_comparisons(1);
        let key = t.project(group_cols);
        let state = groups.entry(key).or_insert_with(|| {
            ctx.meter.charge_moves(1);
            AggState::new(aggs)
        });
        state.update(aggs, t);
    }
    let mut keys: Vec<Tuple> = groups.keys().cloned().collect();
    keys.sort();
    for k in keys {
        let state = &groups[&k];
        let mut values = k.into_values();
        values.extend(state.finish(aggs));
        out.push(Tuple::new(values))?;
    }
    Ok(out)
}

/// The sort-based alternative: sort on the group column, then scan groups.
/// Exists as the baseline §3.9's claim is measured against.
pub fn sort_aggregate(
    rel: &MemRelation,
    group_col: usize,
    aggs: &[AggFunc],
    ctx: &ExecContext,
) -> Result<MemRelation> {
    let schema = aggregate_schema(rel.schema(), group_col, aggs)?;
    let mut out = MemRelation::new(schema, rel.tuples_per_page());
    let sorted = external_sort(rel, group_col, ctx);
    let mut current: Option<(Value, AggState)> = None;
    for t in sorted {
        let key = t.get(group_col).clone();
        ctx.meter.charge_comparisons(1);
        match &mut current {
            Some((k, state)) if *k == key => state.update(aggs, &t),
            _ => {
                if let Some((k, state)) = current.take() {
                    let mut values = vec![k];
                    values.extend(state.finish(aggs));
                    out.push(Tuple::new(values))?;
                }
                ctx.meter.charge_moves(1);
                let mut state = AggState::new(aggs);
                state.update(aggs, &t);
                current = Some((key, state));
            }
        }
    }
    if let Some((k, state)) = current {
        let mut values = vec![k];
        values.extend(state.finish(aggs));
        out.push(Tuple::new(values))?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let out = hash_aggregate(
            &rel,
            3,
            &[
                AggFunc::Count,
                AggFunc::Sum(2),
                AggFunc::Min(2),
                AggFunc::Max(2),
            ],
            &ctx,
        )
        .unwrap();
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
        let h = hash_aggregate(
            &rel,
            3,
            &[AggFunc::Count, AggFunc::Avg(2)],
            &ExecContext::new(200, 1.2),
        )
        .unwrap();
        let s = sort_aggregate(
            &rel,
            3,
            &[AggFunc::Count, AggFunc::Avg(2)],
            &ExecContext::new(200, 1.2),
        )
        .unwrap();
        // Both produce group-key-sorted output.
        assert_eq!(h.tuples(), s.tuples());
    }

    #[test]
    fn hybrid_matches_one_pass_under_pressure() {
        let rel = employees(4_000, 32);
        let one = hash_aggregate(
            &rel,
            3,
            &[AggFunc::Count, AggFunc::Sum(2)],
            &ExecContext::new(1_000, 1.2),
        )
        .unwrap();
        let ctx = ExecContext::new(10, 1.2); // forces partitioning
        let hybrid =
            hybrid_hash_aggregate(&rel, 3, &[AggFunc::Count, AggFunc::Sum(2)], &ctx).unwrap();
        let mut got = hybrid.tuples().to_vec();
        got.sort();
        let mut want = one.tuples().to_vec();
        want.sort();
        assert_eq!(got, want);
        assert!(
            ctx.meter.snapshot().total_ios() > 0,
            "must have partitioned"
        );
    }

    #[test]
    fn hash_beats_sort_in_cpu_seconds() {
        // §3.9's claim, measured at Table 2 prices.
        let rel = employees(5_000, 10);
        let params = mmdb_types::SystemParams::table2();
        let hctx = ExecContext::new(1_000, 1.2);
        hash_aggregate(&rel, 3, &[AggFunc::Avg(2)], &hctx).unwrap();
        let sctx = ExecContext::new(1_000, 1.2);
        sort_aggregate(&rel, 3, &[AggFunc::Avg(2)], &sctx).unwrap();
        let h_secs = hctx.meter.seconds(&params);
        let s_secs = sctx.meter.seconds(&params);
        assert!(
            h_secs < s_secs,
            "hash aggregation {h_secs}s should beat sort {s_secs}s"
        );
    }

    #[test]
    fn multi_column_grouping() {
        // Group by (dept, salary-band-ish id parity): composite keys.
        let rel = employees(1_200, 6);
        let ctx = ExecContext::new(100, 1.2);
        let out = hash_aggregate_multi(&rel, &[3, 0], &[AggFunc::Count], &ctx).unwrap();
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
        // Coarser composite: dept alone via the multi API matches the
        // single-column API.
        let multi =
            hash_aggregate_multi(&rel, &[3], &[AggFunc::Count, AggFunc::Avg(2)], &ctx).unwrap();
        let single = hash_aggregate(&rel, 3, &[AggFunc::Count, AggFunc::Avg(2)], &ctx).unwrap();
        assert_eq!(multi.tuples(), single.tuples());
    }

    #[test]
    fn multi_column_grouping_rejects_bad_columns() {
        let rel = employees(10, 2);
        let ctx = ExecContext::new(10, 1.2);
        assert!(hash_aggregate_multi(&rel, &[0, 99], &[AggFunc::Count], &ctx).is_err());
    }

    #[test]
    fn empty_input() {
        let rel = employees(0, 4);
        let ctx = ExecContext::new(10, 1.2);
        let out = hash_aggregate(&rel, 3, &[AggFunc::Count], &ctx).unwrap();
        assert_eq!(out.tuple_count(), 0);
        let out = sort_aggregate(&rel, 3, &[AggFunc::Count], &ctx).unwrap();
        assert_eq!(out.tuple_count(), 0);
    }

    #[test]
    fn bad_group_column_errors() {
        let rel = employees(10, 2);
        let ctx = ExecContext::new(10, 1.2);
        assert!(hash_aggregate(&rel, 99, &[AggFunc::Count], &ctx).is_err());
    }
}
