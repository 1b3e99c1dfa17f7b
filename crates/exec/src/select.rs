//! Selection: filtering a memory-resident relation by a predicate.

use crate::context::ExecContext;
use crate::{MemRelation, Meter};
use mmdb_types::{Predicate, Result};

/// Filters `rel` by `pred`, charging the actual leaf comparisons evaluated.
pub fn select(rel: &MemRelation, pred: &Predicate, ctx: &ExecContext) -> Result<MemRelation> {
    let mut out = rel.empty_like();
    for t in rel.tuples() {
        let (keep, comps) = pred.eval_counting(t);
        ctx.meter.charge_comparisons(comps);
        if keep {
            out.push(t.clone())?;
        }
    }
    Ok(out)
}

/// Estimated fraction of tuples a selection keeps, measured exactly by
/// running it (used to validate the planner's estimates in tests).
pub fn measured_selectivity(rel: &MemRelation, pred: &Predicate) -> f64 {
    if rel.tuple_count() == 0 {
        return 0.0;
    }
    let kept = rel.tuples().iter().filter(|t| pred.eval(t)).count();
    kept as f64 / rel.tuple_count() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_types::{CmpOp, DataType, Schema, Tuple, Value, WorkloadRng};

    fn employees(n: usize) -> MemRelation {
        let mut rng = WorkloadRng::seeded(77);
        let schema = Schema::of(&[
            ("id", DataType::Int),
            ("name", DataType::Str),
            ("salary", DataType::Float),
            ("dept", DataType::Int),
        ]);
        MemRelation::from_tuples(schema, 40, rng.employees(n, 10)).unwrap()
    }

    #[test]
    fn filters_and_charges() {
        let rel = employees(1_000);
        let ctx = ExecContext::new(100, 1.2);
        let out = select(&rel, &Predicate::cmp(3, CmpOp::Eq, 0i64), &ctx).unwrap();
        assert!(out.tuple_count() > 0);
        assert!(out.tuple_count() < 1_000);
        for t in out.tuples() {
            assert_eq!(t.get(3), &Value::Int(0));
        }
        assert_eq!(ctx.meter.snapshot().comparisons, 1_000);
    }

    #[test]
    fn prefix_selection_matches_paper_query() {
        // retrieve (emp.salary, emp.name) where emp.name = "J*"
        let rel = employees(2_000);
        let ctx = ExecContext::new(100, 1.2);
        let pred = Predicate::StrPrefix {
            column: 1,
            prefix: "J".into(),
        };
        let out = select(&rel, &pred, &ctx).unwrap();
        // Names are uniform over 26 letters: expect ≈ 1/26 of tuples.
        let frac = out.tuple_count() as f64 / 2_000.0;
        assert!((frac - 1.0 / 26.0).abs() < 0.02, "prefix fraction {frac}");
        for t in out.tuples() {
            assert!(t.get(1).as_str().unwrap().starts_with('J'));
        }
    }

    #[test]
    fn measured_selectivity_bounds() {
        let rel = employees(500);
        assert_eq!(measured_selectivity(&rel, &Predicate::True), 1.0);
        let none = Predicate::cmp(0, CmpOp::Lt, -1i64);
        assert_eq!(measured_selectivity(&rel, &none), 0.0);
        let empty = rel.empty_like();
        assert_eq!(measured_selectivity(&empty, &Predicate::True), 0.0);
    }

    #[test]
    fn tuple_order_is_preserved() {
        let schema = Schema::of(&[("k", DataType::Int)]);
        let tuples: Vec<Tuple> = (0..10).map(|i| Tuple::new(vec![Value::Int(i)])).collect();
        let rel = MemRelation::from_tuples(schema, 4, tuples).unwrap();
        let ctx = ExecContext::new(10, 1.2);
        let out = select(&rel, &Predicate::cmp(0, CmpOp::Ge, 5i64), &ctx).unwrap();
        let ks: Vec<i64> = out
            .tuples()
            .iter()
            .map(|t| t.get(0).as_int().unwrap())
            .collect();
        assert_eq!(ks, vec![5, 6, 7, 8, 9]);
    }
}
