//! Projection with duplicate elimination (§3.9).
//!
//! "Projection with duplicate elimination is very similar in nature to the
//! aggregate function operation (in projection we are grouping identical
//! tuples)" — so the hash-based variant mirrors hybrid-hash aggregation,
//! with the whole projected tuple as the grouping key.

use crate::context::ExecContext;
use crate::partition::uniform_class;
use crate::sort::CountingHeap;
use crate::spill::{SpillFile, SpillIo};
use crate::{MemRelation, Meter};
use mmdb_types::{Result, Tuple};
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

fn tuple_hash(t: &Tuple) -> u64 {
    let mut h = crate::partition::hash_key(&mmdb_types::Value::Int(0));
    // Mix each value's hash; reuse the deterministic key hash per value.
    for v in t.values() {
        let vh = crate::partition::hash_key(v);
        h = h.rotate_left(13) ^ vh;
    }
    let mut fin = std::collections::hash_map::DefaultHasher::new();
    h.hash(&mut fin);
    fin.finish()
}

fn dedup_in_memory(
    tuples: impl Iterator<Item = Tuple>,
    ctx: &ExecContext,
    out: &mut MemRelation,
) -> Result<()> {
    let mut seen: HashSet<Tuple> = HashSet::new();
    for t in tuples {
        ctx.meter.charge_hashes(1);
        ctx.meter.charge_comparisons(1);
        if seen.insert(t.clone()) {
            ctx.meter.charge_moves(1);
            out.push(t)?;
        }
    }
    Ok(())
}

/// Projects `rel` onto `columns` and removes duplicates with one-pass
/// hashing (assumes the result fits in memory, else use
/// [`hybrid_hash_project`]).
pub fn hash_project(
    rel: &MemRelation,
    columns: &[usize],
    ctx: &ExecContext,
) -> Result<MemRelation> {
    let schema = rel.schema().project(columns)?;
    let mut out = MemRelation::new(schema, rel.tuples_per_page());
    let projected = rel.tuples().iter().map(|t| {
        ctx.meter.charge_moves(1);
        t.project(columns)
    });
    dedup_in_memory(projected, ctx, &mut out)?;
    Ok(out)
}

/// Hybrid-hash projection: partitions the projected tuples by hash when
/// they may exceed memory, then deduplicates each partition in one pass.
pub fn hybrid_hash_project(
    rel: &MemRelation,
    columns: &[usize],
    ctx: &ExecContext,
) -> Result<MemRelation> {
    let schema = rel.schema().project(columns)?;
    let tpp = rel.tuples_per_page().max(1);
    let mut out = MemRelation::new(schema, tpp);
    let capacity = ctx.mem_tuple_capacity(tpp);
    if rel.tuple_count() <= capacity {
        let projected = rel.tuples().iter().map(|t| {
            ctx.meter.charge_moves(1);
            t.project(columns)
        });
        dedup_in_memory(projected, ctx, &mut out)?;
        return Ok(out);
    }
    let parts = rel.tuple_count().div_ceil(capacity).max(1);
    let mut files: Vec<SpillFile> = (0..parts)
        .map(|_| SpillFile::new(Arc::clone(&ctx.meter), tpp))
        .collect();
    for t in rel.tuples() {
        ctx.meter.charge_moves(1);
        let p = t.project(columns);
        ctx.meter.charge_hashes(1);
        let h = tuple_hash(&p);
        files[uniform_class(h, parts)].append(p, SpillIo::Random);
    }
    for f in &mut files {
        f.flush(SpillIo::Random);
    }
    for f in files {
        let tuples = f.drain_pages(SpillIo::Sequential).flatten();
        dedup_in_memory(tuples, ctx, &mut out)?;
    }
    Ok(out)
}

/// Sort-based projection baseline: project, sort the projected tuples,
/// emit on key change.
pub fn sort_project(
    rel: &MemRelation,
    columns: &[usize],
    ctx: &ExecContext,
) -> Result<MemRelation> {
    let schema = rel.schema().project(columns)?;
    let mut out = MemRelation::new(schema, rel.tuples_per_page());
    let mut heap: CountingHeap<Tuple> = CountingHeap::new(Arc::clone(&ctx.meter));
    for t in rel.tuples() {
        ctx.meter.charge_moves(1);
        heap.push(t.project(columns));
    }
    let mut last: Option<Tuple> = None;
    while let Some(t) = heap.pop() {
        ctx.meter.charge_comparisons(1);
        if last.as_ref() != Some(&t) {
            ctx.meter.charge_moves(1);
            out.push(t.clone())?;
            last = Some(t);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_types::{DataType, Schema, Value, WorkloadRng};

    fn rel_with_dups(n: usize, key_space: i64) -> MemRelation {
        let mut rng = WorkloadRng::seeded(55);
        let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
        MemRelation::from_tuples(schema, 40, rng.keyed_tuples(n, key_space)).unwrap()
    }

    #[test]
    fn removes_duplicates() {
        let rel = rel_with_dups(1_000, 20);
        let ctx = ExecContext::new(100, 1.2);
        let out = hash_project(&rel, &[0], &ctx).unwrap();
        assert_eq!(out.tuple_count(), 20);
        let mut ks: Vec<i64> = out
            .tuples()
            .iter()
            .map(|t| t.get(0).as_int().unwrap())
            .collect();
        ks.sort_unstable();
        ks.dedup();
        assert_eq!(ks.len(), 20);
    }

    #[test]
    fn projection_without_dups_keeps_everything() {
        let rel = rel_with_dups(500, 1_000_000);
        let ctx = ExecContext::new(100, 1.2);
        // Projecting all columns of near-unique tuples removes ~nothing.
        let out = hash_project(&rel, &[0, 1], &ctx).unwrap();
        assert_eq!(out.tuple_count(), 500);
        assert_eq!(out.schema().arity(), 2);
    }

    #[test]
    fn hash_sort_and_hybrid_agree() {
        let rel = rel_with_dups(3_000, 64);
        let a = hash_project(&rel, &[0], &ExecContext::new(500, 1.2)).unwrap();
        let b = sort_project(&rel, &[0], &ExecContext::new(500, 1.2)).unwrap();
        let hctx = ExecContext::new(4, 1.2); // force partitioning
        let c = hybrid_hash_project(&rel, &[0], &hctx).unwrap();
        let canon = |r: &MemRelation| {
            let mut v = r.tuples().to_vec();
            v.sort();
            v
        };
        assert_eq!(canon(&a), canon(&b));
        assert_eq!(canon(&a), canon(&c));
        assert!(hctx.meter.snapshot().total_ios() > 0);
    }

    #[test]
    fn hash_beats_sort_in_cpu_seconds() {
        let rel = rel_with_dups(5_000, 100);
        let params = mmdb_types::SystemParams::table2();
        let hctx = ExecContext::new(1_000, 1.2);
        hash_project(&rel, &[0], &hctx).unwrap();
        let sctx = ExecContext::new(1_000, 1.2);
        sort_project(&rel, &[0], &sctx).unwrap();
        assert!(hctx.meter.seconds(&params) < sctx.meter.seconds(&params));
    }

    #[test]
    fn column_reordering_projection() {
        let rel = rel_with_dups(100, 5);
        let ctx = ExecContext::new(100, 1.2);
        let out = hash_project(&rel, &[1, 0], &ctx).unwrap();
        assert_eq!(out.schema().columns()[0].name, "v");
        assert_eq!(out.schema().columns()[1].name, "k");
    }

    #[test]
    fn invalid_column_errors() {
        let rel = rel_with_dups(10, 5);
        let ctx = ExecContext::new(10, 1.2);
        assert!(hash_project(&rel, &[7], &ctx).is_err());
    }

    #[test]
    fn projection_hash_distributes() {
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
