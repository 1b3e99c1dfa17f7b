//! §3.5 — the multipass simple-hash join.
//!
//! Each pass fills memory with a hash table for the fraction of R whose
//! hash falls in the chosen range, scans S against it, and writes the
//! passed-over tuples of both relations to disk for the next pass. With
//! ample memory this degenerates to the classic one-pass hash join; with
//! `A = ceil(|R|·F/|M|)` passes the passed-over work is what makes the
//! algorithm blow up at low memory (the steep left edge of Figure 1).

use super::{charged_hash, run_join, Algo, Emit, JoinSpec, ProbeTable};
use crate::context::ExecContext;
use crate::partition::in_first_fraction;
use crate::spill::{SpillFile, SpillIo};
use crate::{MemRelation, Meter, Row, Rows};
use mmdb_types::{Result, Tuple};
use std::borrow::Cow;

/// Joins `r` and `s` by multipass simple hashing.
pub fn simple_hash_join(
    r: &MemRelation,
    s: &MemRelation,
    spec: JoinSpec,
    ctx: &ExecContext,
) -> Result<MemRelation> {
    run_join(Algo::SimpleHash, r, s, spec, ctx)
}

/// The simple-hash core: each matching pair goes to `emit`.
pub(crate) fn join_rows<T: Row, M: Meter>(
    r: Rows<'_, T>,
    s: Rows<'_, T>,
    spec: JoinSpec,
    ctx: &ExecContext<M>,
    mut emit: impl Emit,
) -> Result<()> {
    let (r_tpp, s_tpp) = (r.tuples_per_page, s.tuples_per_page);
    let capacity = ctx.mem_tuple_capacity(r_tpp);

    // The initial read of R and S is not charged (§3.2): the first pass
    // reads both in place, and each later pass reads back what the one
    // before it passed over (`None` until then).
    let mut r_read: Option<Vec<T>> = None;
    let mut s_read: Option<Vec<T>> = None;

    // §3.5 step 1 *re-chooses* the hash range on every pass so that
    // "P pages of R-tuples will hash into that range". Passed-over tuples
    // occupy only the not-yet-consumed tail of the hash space, so each
    // pass's acceptance window is sized within that tail; `consumed`
    // tracks its lower edge.
    let mut consumed = 0.0f64;
    loop {
        let r_in = r_read.as_deref().unwrap_or(r.tuples);
        if r_in.is_empty() {
            break;
        }
        let rel_fraction = (capacity as f64 / r_in.len() as f64).min(1.0);
        let whole = rel_fraction >= 1.0;
        let fraction = consumed + rel_fraction * (1.0 - consumed);

        // Build phase: in-range R tuples enter the table, the rest are
        // passed over.
        let mut table = ProbeTable::new(
            ctx.meter.clone(),
            spec.r_key,
            capacity.min(r_in.len()),
            r_in,
        );
        let mut passed: Vec<usize> = Vec::new();
        for (pos, row) in r_in.iter().enumerate() {
            let h = charged_hash(&ctx.meter, row.borrow(), spec.r_key);
            if whole || in_first_fraction(h, fraction) {
                table.insert(pos, h);
            } else {
                passed.push(pos);
            }
        }

        // Probe phase: in-range S tuples probe, the rest are passed over.
        let mut s_spill = SpillFile::new(ctx.meter.clone(), s_tpp);
        for row in pass_input(s.tuples, s_read.take()) {
            let t: &Tuple = (*row).borrow();
            let h = charged_hash(&ctx.meter, t, spec.s_key);
            if whole || in_first_fraction(h, fraction) {
                table.probe(h, t.get(spec.s_key), |rt| emit(rt, t))?;
            } else {
                ctx.meter.charge_moves(1);
                s_spill.append(row.into_owned(), SpillIo::Sequential);
            }
        }
        // The table borrows `r_read`, whose passed-over tuples move out next.
        drop(table);

        if passed.is_empty() {
            break; // passed-over S tuples (if any) cannot match anything
        }
        let mut r_spill = SpillFile::new(ctx.meter.clone(), r_tpp);
        let mut passed = passed.into_iter().peekable();
        for (pos, row) in pass_input(r.tuples, r_read.take()).enumerate() {
            if passed.next_if_eq(&pos).is_some() {
                ctx.meter.charge_moves(1);
                r_spill.append(row.into_owned(), SpillIo::Sequential);
            }
        }
        // Read the passed-over files back as the next pass's inputs.
        consumed = fraction;
        r_read = Some(r_spill.drain_pages(SpillIo::Sequential).flatten().collect());
        s_read = Some(s_spill.drain_pages(SpillIo::Sequential).flatten().collect());
    }
    Ok(())
}

/// The rows one pass reads: `first` in place while nothing has been
/// read back, else the read-back rows, moved rather than cloned.
fn pass_input<T: Clone>(
    first: &[T],
    read_back: Option<Vec<T>>,
) -> impl Iterator<Item = Cow<'_, T>> {
    let (in_place, owned) = match read_back {
        Some(rows) => (&[][..], rows),
        None => (first, Vec::new()),
    };
    in_place
        .iter()
        .map(Cow::Borrowed)
        .chain(owned.into_iter().map(Cow::Owned))
}

#[cfg(test)]
mod tests {
    use super::super::testkit::{assert_matches_reference, keyed};
    use super::*;

    #[test]
    fn matches_reference_one_pass() {
        let r = keyed(20, 2_000, 400, 40);
        let s = keyed(21, 3_000, 400, 40);
        assert_matches_reference(simple_hash_join, &r, &s, 1_000);
    }

    #[test]
    fn matches_reference_multipass() {
        let r = keyed(22, 4_000, 500, 40);
        let s = keyed(23, 6_000, 500, 40);
        // 4000 R tuples = 100 pages · F 1.2 = 120; grant 13 pages → ~10
        // passes.
        assert_matches_reference(simple_hash_join, &r, &s, 13);
    }

    #[test]
    fn one_pass_does_no_io() {
        let r = keyed(24, 1_000, 100, 40);
        let s = keyed(25, 1_000, 100, 40);
        let ctx = ExecContext::new(100, 1.2);
        simple_hash_join(&r, &s, JoinSpec::new(0, 0), &ctx).unwrap();
        assert_eq!(ctx.meter.snapshot().total_ios(), 0);
    }

    #[test]
    fn pass_count_drives_io_up() {
        let r = keyed(26, 4_000, 300, 40); // 100 pages
        let s = keyed(27, 4_000, 300, 40);
        let spec = JoinSpec::new(0, 0);
        let two_pass = ExecContext::new(60, 1.2);
        simple_hash_join(&r, &s, spec, &two_pass).unwrap();
        let io2 = two_pass.meter.snapshot().total_ios();

        let five_pass = ExecContext::new(24, 1.2);
        simple_hash_join(&r, &s, spec, &five_pass).unwrap();
        let io5 = five_pass.meter.snapshot().total_ios();
        assert!(
            io5 > io2 * 2,
            "more passes must pass over more pages: {io5} vs {io2}"
        );
    }

    #[test]
    fn passed_over_io_is_sequential() {
        let r = keyed(28, 4_000, 300, 40);
        let s = keyed(29, 4_000, 300, 40);
        let ctx = ExecContext::new(24, 1.2);
        simple_hash_join(&r, &s, JoinSpec::new(0, 0), &ctx).unwrap();
        let snap = ctx.meter.snapshot();
        assert!(snap.seq_ios > 0);
        assert_eq!(snap.rand_ios, 0, "§3.5 charges 2·IOseq per page");
    }

    #[test]
    fn empty_relations() {
        let r = keyed(30, 0, 10, 40);
        let s = keyed(31, 50, 10, 40);
        let ctx = ExecContext::new(10, 1.2);
        assert_eq!(
            simple_hash_join(&r, &s, JoinSpec::new(0, 0), &ctx)
                .unwrap()
                .tuple_count(),
            0
        );
    }
}
