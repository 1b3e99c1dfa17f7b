//! Nested-loops reference join.
//!
//! Not one of the paper's four contenders — it exists as the correctness
//! oracle every other algorithm is verified against, and as the planner's
//! fallback for non-equijoin predicates. Charges one comparison per tuple
//! pair, no I/O (both relations are memory-resident by assumption).

use super::{run_join, Algo, Emit, JoinSpec};
use crate::context::ExecContext;
use crate::{MemRelation, Meter, Row, Rows};
use mmdb_types::{Result, Tuple};

/// Joins `r` and `s` by comparing every pair of tuples.
pub fn nested_loops_join(
    r: &MemRelation,
    s: &MemRelation,
    spec: JoinSpec,
    ctx: &ExecContext,
) -> Result<MemRelation> {
    run_join(Algo::NestedLoops, r, s, spec, ctx)
}

/// The nested-loops core: every pair compared, each match emitted.
pub(crate) fn join_rows<T: Row, M: Meter>(
    r: Rows<'_, T>,
    s: Rows<'_, T>,
    spec: JoinSpec,
    ctx: &ExecContext<M>,
    mut emit: impl Emit,
) -> Result<()> {
    for rt in r.tuples {
        let rt: &Tuple = rt.borrow();
        for st in s.tuples {
            let st: &Tuple = st.borrow();
            ctx.meter.charge_comparisons(1);
            if rt.get(spec.r_key) == st.get(spec.s_key) {
                emit(rt, st)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::testkit::keyed;
    use super::super::JoinSpec;
    use super::*;
    use mmdb_types::Value;

    #[test]
    fn joins_matching_keys() {
        let r = keyed(1, 100, 50, 10);
        let s = keyed(2, 100, 50, 10);
        let ctx = ExecContext::new(1000, 1.2);
        let out = nested_loops_join(&r, &s, JoinSpec::new(0, 0), &ctx).unwrap();
        // Every output row carries equal keys in columns 0 and 2.
        assert!(!out.tuples().is_empty());
        for t in out.tuples() {
            assert_eq!(t.get(0), t.get(2));
            assert_eq!(t.arity(), 4);
        }
        // Exactly |R|·|S| comparisons.
        assert_eq!(ctx.meter.snapshot().comparisons, 100 * 100);
        assert_eq!(ctx.meter.snapshot().total_ios(), 0);
    }

    #[test]
    fn disjoint_keys_produce_empty_output() {
        let r = keyed(3, 50, 10, 10);
        let mut s = keyed(4, 50, 10, 10).into_tuples();
        for t in &mut s {
            // Shift S's keys out of R's key space.
            let k = t.get(0).as_int().unwrap();
            *t = mmdb_types::Tuple::new(vec![Value::Int(k + 1000), t.get(1).clone()]);
        }
        let s = MemRelation::from_tuples(r.schema().clone(), 10, s).unwrap();
        let ctx = ExecContext::new(1000, 1.2);
        let out = nested_loops_join(&r, &s, JoinSpec::new(0, 0), &ctx).unwrap();
        assert_eq!(out.tuple_count(), 0);
    }

    #[test]
    fn cross_product_on_duplicate_keys() {
        let r = keyed(5, 30, 1, 10); // all keys = 0
        let s = keyed(6, 20, 1, 10);
        let ctx = ExecContext::new(1000, 1.2);
        let out = nested_loops_join(&r, &s, JoinSpec::new(0, 0), &ctx).unwrap();
        assert_eq!(out.tuple_count(), 30 * 20);
    }
}
