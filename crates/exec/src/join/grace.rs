//! §3.6 — the GRACE-hash join.
//!
//! Phase 1 partitions both relations into `|M|` compatible buckets through
//! per-bucket output-buffer pages, writing filled buffers to disk (random
//! I/O — buffers fill in hash order, not disk order). Phase 2 joins each
//! `(R_i, S_i)` pair by building a hash table for `R_i` and probing it
//! with `S_i`. The original uses a hardware sorter in phase 2; the paper
//! itself substitutes hashing "to provide a fair comparison", and so do we.
//!
//! Memory is *not* adaptive: GRACE always runs both phases, which is why
//! its Figure 1 curve is flat — it never exploits memory beyond the
//! `sqrt(|S|·F)` minimum.

use super::{charged_hash, run_join, Emit, JoinSpec, ProbeTable};
use crate::context::ExecContext;
use crate::partition::{hash_key, uniform_class};
use crate::spill::{SpillFile, SpillIo};
use crate::{MemRelation, Meter, Row, Rows};
use mmdb_types::{JoinAlgorithm, Result, Tuple};

/// Joins `r` and `s` with the two-phase GRACE algorithm.
pub fn grace_hash_join(
    r: &MemRelation,
    s: &MemRelation,
    spec: JoinSpec,
    ctx: &ExecContext,
) -> Result<MemRelation> {
    run_join(JoinAlgorithm::GraceHash, r, s, spec, ctx)
}

/// The GRACE core: each matching pair goes to `emit`.
pub(crate) fn join_rows<T: Row, M: Meter>(
    r: Rows<'_, T>,
    s: Rows<'_, T>,
    spec: JoinSpec,
    ctx: &ExecContext<M>,
    mut emit: impl Emit,
) -> Result<()> {
    // One output-buffer page per bucket; the paper uses |M| buckets.
    let buckets = ctx.mem_pages.max(1);

    // Phase 1: partition R, then S (steps 1 and 2).
    let partition = |input: Rows<'_, T>, key: usize| {
        let mut parts: Vec<SpillFile<T, M>> = (0..buckets)
            .map(|_| SpillFile::new(ctx.meter.clone(), input.tuples_per_page))
            .collect();
        for row in input.tuples {
            let h = charged_hash(&ctx.meter, row.borrow(), key);
            ctx.meter.charge_moves(1);
            parts[uniform_class(h, buckets)].append(row.clone(), SpillIo::Random);
        }
        parts
    };
    let mut r_parts = partition(r, spec.r_key);
    let mut s_parts = partition(s, spec.s_key);
    for p in r_parts.iter_mut().chain(s_parts.iter_mut()) {
        p.flush(SpillIo::Random);
    }

    // Phase 2: join each (R_i, S_i) pair (steps 3 and 4).
    for (r_part, s_part) in r_parts.into_iter().zip(s_parts) {
        if r_part.is_empty() {
            // Nothing to probe; S_i tuples are tossed unread only if empty
            // too — otherwise the scan of S_i was already paid in phase 1
            // and the read-back is skipped entirely.
            continue;
        }
        let r_rows: Vec<T> = r_part.drain_pages(SpillIo::Sequential).flatten().collect();
        let mut table = ProbeTable::new(ctx.meter.clone(), spec.r_key, r_rows.len(), &r_rows);
        for (pos, row) in r_rows.iter().enumerate() {
            ctx.meter.charge_hashes(1);
            let t: &Tuple = row.borrow();
            table.insert(pos, hash_key(t.get(spec.r_key)));
        }
        for page in s_part.drain_pages(SpillIo::Sequential) {
            for row in &page {
                let t: &Tuple = row.borrow();
                ctx.meter.charge_hashes(1);
                let h = hash_key(t.get(spec.s_key));
                table.probe(h, t.get(spec.s_key), |rt| emit(rt, t))?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::testkit::{assert_matches_reference, keyed};
    use super::*;

    #[test]
    fn matches_reference() {
        let r = keyed(40, 2_000, 350, 40);
        let s = keyed(41, 3_000, 350, 40);
        assert_matches_reference(grace_hash_join, &r, &s, 30);
    }

    #[test]
    fn matches_reference_tiny_memory() {
        let r = keyed(42, 1_000, 200, 40);
        let s = keyed(43, 1_500, 200, 40);
        // sqrt(|S|·F) = sqrt(45) ≈ 7 pages.
        assert_matches_reference(grace_hash_join, &r, &s, 8);
    }

    #[test]
    fn io_is_flat_in_memory_grant() {
        let r = keyed(44, 4_000, 400, 40);
        let s = keyed(45, 4_000, 400, 40);
        let spec = JoinSpec::new(0, 0);
        let small = ExecContext::new(20, 1.2);
        grace_hash_join(&r, &s, spec, &small).unwrap();
        let io_small = small.meter.snapshot().total_ios();
        let large = ExecContext::new(120, 1.2);
        grace_hash_join(&r, &s, spec, &large).unwrap();
        let io_large = large.meter.snapshot().total_ios();
        // GRACE writes and reads every page regardless of memory; more
        // buckets only add partial-page flush overhead.
        let diff = (io_small as f64 - io_large as f64).abs();
        assert!(
            diff < io_small as f64 * 0.5,
            "GRACE I/O should be roughly flat: {io_small} vs {io_large}"
        );
        assert!(io_small > 0);
    }

    #[test]
    fn writes_are_random_reads_sequential() {
        let r = keyed(46, 2_000, 300, 40);
        let s = keyed(47, 2_000, 300, 40);
        let ctx = ExecContext::new(25, 1.2);
        grace_hash_join(&r, &s, JoinSpec::new(0, 0), &ctx).unwrap();
        let snap = ctx.meter.snapshot();
        assert!(snap.rand_ios > 0, "phase-1 buffer flushes are random");
        assert!(snap.seq_ios > 0, "phase-2 reads are sequential");
    }

    #[test]
    fn duplicate_heavy_keys() {
        let r = keyed(48, 500, 3, 40);
        let s = keyed(49, 400, 3, 40);
        assert_matches_reference(grace_hash_join, &r, &s, 10);
    }
}
