//! Workload generators shaped like the paper's Table 2 inputs.
//!
//! The paper joins `|R| = |S| = 10 000` pages at 40 tuples/page (400 000
//! tuples each). [`table2_relations`] generates that shape at a
//! configurable scale factor so the empirical Figure 1 can run at full or
//! reduced size with identical geometry.

use crate::MemRelation;
use mmdb_types::{DataType, RelationShape, Result, Schema, WorkloadRng};

/// The schema used by the join workloads: an integer key plus a payload.
pub fn join_schema() -> Schema {
    Schema::of(&[("k", DataType::Int), ("payload", DataType::Int)])
}

/// Generates `(R, S)` with Table 2 geometry scaled by `scale` (1.0 = the
/// paper's 10 000 pages each). Keys are uniform over a space sized to give
/// roughly one match per R tuple — "key values of the two relations are
/// distributed similarly" (§3.5).
pub fn table2_relations(
    shape: RelationShape,
    scale: f64,
    seed: u64,
) -> Result<(MemRelation, MemRelation)> {
    assert!(scale > 0.0);
    let r_tuples = (shape.r_tuples() as f64 * scale).round() as usize;
    let s_tuples = (shape.s_tuples() as f64 * scale).round() as usize;
    let key_space = r_tuples.max(1) as i64;
    let mut rng = WorkloadRng::seeded(seed);
    let r = MemRelation::from_tuples(
        join_schema(),
        shape.r_tuples_per_page as usize,
        rng.keyed_tuples(r_tuples, key_space),
    )?;
    let s = MemRelation::from_tuples(
        join_schema(),
        shape.s_tuples_per_page as usize,
        rng.keyed_tuples(s_tuples, key_space),
    )?;
    Ok((r, s))
}

/// The Wisconsin benchmark relation schema (DeWitt 1983 — the authors'
/// own benchmark, the natural workload for this engine). A subset of the
/// classic columns:
///
/// * `unique1` — unique, random order (selection/join key),
/// * `unique2` — unique, sequential (clustered key),
/// * `two`, `ten`, `hundred` — `unique1 mod 2/10/100` (selectivity
///   controls),
/// * `string4` — a 4-letter string cycling over 4 values.
pub fn wisconsin_schema() -> Schema {
    Schema::of(&[
        ("unique1", DataType::Int),
        ("unique2", DataType::Int),
        ("two", DataType::Int),
        ("ten", DataType::Int),
        ("hundred", DataType::Int),
        ("string4", DataType::Str),
    ])
}

/// Generates an `n`-tuple Wisconsin relation.
pub fn wisconsin(n: usize, seed: u64) -> Result<MemRelation> {
    use mmdb_types::{Tuple, Value};
    let mut rng = WorkloadRng::seeded(seed);
    let unique1 = rng.permutation(n);
    let strings = ["AAAA", "HHHH", "OOOO", "VVVV"];
    let tuples: Vec<Tuple> = unique1
        .into_iter()
        .enumerate()
        .map(|(unique2, u1)| {
            let u1 = u1 as i64;
            Tuple::new(vec![
                Value::Int(u1),
                Value::Int(unique2 as i64),
                Value::Int(u1 % 2),
                Value::Int(u1 % 10),
                Value::Int(u1 % 100),
                Value::Str(strings[(u1 % 4) as usize].to_string()),
            ])
        })
        .collect();
    MemRelation::from_tuples(wisconsin_schema(), 40, tuples)
}

/// The employee relation of the paper's motivating queries.
pub fn employee_schema() -> Schema {
    Schema::of(&[
        ("id", DataType::Int),
        ("name", DataType::Str),
        ("salary", DataType::Float),
        ("dept", DataType::Int),
    ])
}

/// Generates `n` employees over `departments` departments.
pub fn employees(n: usize, departments: i64, seed: u64) -> Result<MemRelation> {
    let mut rng = WorkloadRng::seeded(seed);
    MemRelation::from_tuples(employee_schema(), 40, rng.employees(n, departments))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_shape_at_scale() {
        let shape = RelationShape::table2();
        let (r, s) = table2_relations(shape, 0.01, 1).unwrap();
        assert_eq!(r.tuple_count(), 4_000);
        assert_eq!(s.tuple_count(), 4_000);
        assert_eq!(r.page_count(), 100);
        assert_eq!(r.tuples_per_page(), 40);
        assert_eq!(s.schema(), r.schema());
    }

    #[test]
    fn deterministic_per_seed() {
        let shape = RelationShape::table2();
        let (r1, _) = table2_relations(shape, 0.001, 9).unwrap();
        let (r2, _) = table2_relations(shape, 0.001, 9).unwrap();
        assert_eq!(r1.tuples(), r2.tuples());
        let (r3, _) = table2_relations(shape, 0.001, 10).unwrap();
        assert_ne!(r1.tuples(), r3.tuples());
    }

    #[test]
    fn join_produces_meaningful_matches() {
        // Keys uniform over ||R||: an R-S join yields ≈ ||S|| matches.
        let shape = RelationShape::table2();
        let (r, s) = table2_relations(shape, 0.005, 3).unwrap();
        let ctx = crate::ExecContext::new(10_000, 1.2);
        let out = crate::join::hybrid_hash_join(&r, &s, crate::JoinSpec::new(0, 0), &ctx).unwrap();
        let n = out.tuple_count() as f64;
        let expect = s.tuple_count() as f64;
        assert!(
            (n / expect - 1.0).abs() < 0.2,
            "join cardinality {n} vs expected ≈ {expect}"
        );
    }

    #[test]
    fn wisconsin_columns_have_their_defined_relationships() {
        let rel = wisconsin(1_000, 7).unwrap();
        assert_eq!(rel.tuple_count(), 1_000);
        let mut u1_seen = std::collections::HashSet::new();
        let mut u2_seen = std::collections::HashSet::new();
        for t in rel.tuples() {
            let u1 = t.get(0).as_int().unwrap();
            let u2 = t.get(1).as_int().unwrap();
            assert!(u1_seen.insert(u1), "unique1 must be unique");
            assert!(u2_seen.insert(u2), "unique2 must be unique");
            assert_eq!(t.get(2).as_int().unwrap(), u1 % 2);
            assert_eq!(t.get(3).as_int().unwrap(), u1 % 10);
            assert_eq!(t.get(4).as_int().unwrap(), u1 % 100);
            assert_eq!(t.get(5).as_str().unwrap().len(), 4);
        }
        // unique2 is sequential: tuple i has unique2 = i.
        for (i, t) in rel.tuples().iter().enumerate() {
            assert_eq!(t.get(1).as_int().unwrap(), i as i64);
        }
    }

    #[test]
    fn wisconsin_selectivity_controls() {
        // The ten column selects exactly 10 % of tuples per value.
        let rel = wisconsin(2_000, 8).unwrap();
        for v in 0..10i64 {
            let n = rel
                .tuples()
                .iter()
                .filter(|t| t.get(3).as_int().unwrap() == v)
                .count();
            assert_eq!(n, 200, "ten = {v}");
        }
    }

    #[test]
    fn employees_shape() {
        let e = employees(1_000, 12, 4).unwrap();
        assert_eq!(e.tuple_count(), 1_000);
        assert_eq!(e.schema().arity(), 4);
    }
}
