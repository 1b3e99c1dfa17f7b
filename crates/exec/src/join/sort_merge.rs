//! §3.4 — the standard sort-merge join.
//!
//! Both relations are sorted (replacement-selection runs + one n-way
//! merge, in memory when they fit), then merge-joined with equal-key
//! groups cross-produced. Unlike the paper's cost formula — which assumes
//! no R tuple joins more than a page of S tuples — the implementation
//! handles arbitrarily large equal-key groups correctly.

use super::{run_join, Algo, Emit, JoinSpec};
use crate::context::ExecContext;
use crate::sort::sort_rows;
use crate::{MemRelation, Meter, Row, Rows};
use mmdb_types::{Result, Tuple};
use std::borrow::Borrow;

/// Joins `r` and `s` by sorting both on their key columns and merging.
pub fn sort_merge_join(
    r: &MemRelation,
    s: &MemRelation,
    spec: JoinSpec,
    ctx: &ExecContext,
) -> Result<MemRelation> {
    run_join(Algo::SortMerge, r, s, spec, ctx)
}

/// The sort-merge core: each matching pair goes to `emit`.
pub(crate) fn join_rows<T: Row, M: Meter>(
    r: Rows<'_, T>,
    s: Rows<'_, T>,
    spec: JoinSpec,
    ctx: &ExecContext<M>,
    mut emit: impl Emit,
) -> Result<()> {
    let sorted_r: Vec<T> = sort_rows(r, spec.r_key, ctx);
    let sorted_s: Vec<T> = sort_rows(s, spec.s_key, ctx);

    let (mut i, mut j) = (0usize, 0usize);
    while i < sorted_r.len() && j < sorted_s.len() {
        ctx.meter.charge_comparisons(1);
        let rk = sorted_r[i].borrow().get(spec.r_key);
        let sk = sorted_s[j].borrow().get(spec.s_key);
        match rk.cmp(sk) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                // Find both equal-key groups and cross-produce them.
                let key = rk.clone();
                let gi_end = run_end(&sorted_r, i, spec.r_key, &key, ctx);
                let gj_end = run_end(&sorted_s, j, spec.s_key, &key, ctx);
                for rt in &sorted_r[i..gi_end] {
                    for st in &sorted_s[j..gj_end] {
                        emit(rt.borrow(), st.borrow())?;
                    }
                }
                i = gi_end;
                j = gj_end;
            }
        }
    }
    Ok(())
}

/// First index after `start` whose key differs; one comparison per probe.
fn run_end<T: Borrow<Tuple>>(
    rows: &[T],
    start: usize,
    key_col: usize,
    key: &mmdb_types::Value,
    ctx: &ExecContext<impl Meter>,
) -> usize {
    let mut end = start + 1;
    while end < rows.len() {
        ctx.meter.charge_comparisons(1);
        if rows[end].borrow().get(key_col) != key {
            break;
        }
        end += 1;
    }
    end
}

#[cfg(test)]
mod tests {
    use super::super::testkit::{assert_matches_reference, keyed};
    use super::*;

    #[test]
    fn matches_reference_with_ample_memory() {
        let r = keyed(10, 2_000, 300, 40);
        let s = keyed(11, 3_000, 300, 40);
        assert_matches_reference(sort_merge_join, &r, &s, 10_000);
    }

    #[test]
    fn matches_reference_when_spilling() {
        let r = keyed(12, 2_000, 300, 40);
        let s = keyed(13, 3_000, 300, 40);
        // 2000 tuples = 50 pages; grant far less so runs spill.
        assert_matches_reference(sort_merge_join, &r, &s, 8);
    }

    #[test]
    fn spilling_charges_io_in_memory_does_not() {
        let r = keyed(14, 2_000, 300, 40);
        let s = keyed(15, 2_000, 300, 40);
        let spec = JoinSpec::new(0, 0);
        let big = ExecContext::new(10_000, 1.2);
        sort_merge_join(&r, &s, spec, &big).unwrap();
        assert_eq!(big.meter.snapshot().total_ios(), 0);

        let small = ExecContext::new(8, 1.2);
        sort_merge_join(&r, &s, spec, &small).unwrap();
        let ios = small.meter.snapshot().total_ios();
        assert!(ios > 0, "constrained sort-merge must do I/O");
    }

    #[test]
    fn giant_equal_key_groups() {
        // 200 × 150 identical keys: the formula's corner case, handled
        // exactly by the implementation.
        let r = keyed(16, 200, 1, 40);
        let s = keyed(17, 150, 1, 40);
        assert_matches_reference(sort_merge_join, &r, &s, 16);
    }

    #[test]
    fn empty_inputs() {
        let r = keyed(18, 0, 10, 40);
        let s = keyed(19, 100, 10, 40);
        let ctx = ExecContext::new(100, 1.2);
        assert_eq!(
            sort_merge_join(&r, &s, JoinSpec::new(0, 0), &ctx)
                .unwrap()
                .tuple_count(),
            0
        );
        assert_eq!(
            sort_merge_join(&s, &r, JoinSpec::new(0, 0), &ctx)
                .unwrap()
                .tuple_count(),
            0
        );
    }
}
