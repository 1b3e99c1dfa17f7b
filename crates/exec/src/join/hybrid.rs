//! §3.7 — the hybrid-hash join, the paper's new algorithm.
//!
//! Like GRACE it partitions into compatible buckets, but memory beyond the
//! `B` output-buffer pages immediately holds a hash table for partition
//! `R0`, so the fraction `q = |R0|/|R|` of both relations is joined during
//! the partitioning scan itself and never touches disk. As `|M| → |R|·F`,
//! `q → 1` and the algorithm becomes the one-pass hash join; as `|M|`
//! shrinks it degrades gracefully toward GRACE.

use super::{charged_hash, output_relation, Emit, JoinSpec, ProbeTable};
use crate::context::ExecContext;
use crate::partition::{hash_key_level, HybridSplit};
use crate::spill::{SpillFile, SpillIo};
use crate::{MemRelation, Meter, Row, Rows};
use mmdb_types::{Result, Tuple};

/// Execution statistics exposing the memory discipline (for tests and the
/// skew experiments).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HybridStats {
    /// Largest in-memory build-side (tuples) any phase used.
    pub max_build_tuples: usize,
    /// Deepest recursion level reached (0 = no partition overflowed).
    pub max_recursion_depth: u32,
    /// How many partitions had to be re-partitioned recursively.
    pub recursive_partitionings: u32,
    /// Whether the recursion cap forced an oversized build (possible only
    /// under extreme duplicate skew no hash function can split).
    pub depth_capped: bool,
}

/// Number of on-disk partitions `B` for a memory grant (0 when R's hash
/// table fits entirely in memory).
pub fn disk_partitions(r_pages: usize, fudge: f64, mem_pages: usize) -> usize {
    let r_f = r_pages as f64 * fudge;
    let m = mem_pages as f64;
    if m >= r_f {
        0
    } else {
        (((r_f - m) / (m - 1.0).max(1.0)).ceil() as usize).max(1)
    }
}

/// Joins `r` and `s` with the hybrid-hash algorithm.
pub fn hybrid_hash_join(
    r: &MemRelation,
    s: &MemRelation,
    spec: JoinSpec,
    ctx: &ExecContext,
) -> Result<MemRelation> {
    Ok(hybrid_hash_join_with_stats(r, s, spec, ctx)?.0)
}

/// Like [`hybrid_hash_join`], additionally reporting execution statistics.
pub fn hybrid_hash_join_with_stats(
    r: &MemRelation,
    s: &MemRelation,
    spec: JoinSpec,
    ctx: &ExecContext,
) -> Result<(MemRelation, HybridStats)> {
    let mut out = output_relation(&spec, r, s);
    let stats = join_rows(r.into(), s.into(), spec, ctx, |rt: &Tuple, st: &Tuple| {
        out.push(rt.concat(st))
    })?;
    Ok((out, stats))
}

/// The hybrid-hash core: each matching pair goes to `emit`.
pub(crate) fn join_rows<T: Row, M: Meter>(
    r: Rows<'_, T>,
    s: Rows<'_, T>,
    spec: JoinSpec,
    ctx: &ExecContext<M>,
    mut emit: impl Emit,
) -> Result<HybridStats> {
    let (r_tpp, s_tpp) = (r.tuples_per_page, s.tuples_per_page);
    let r_count = r.tuples.len();

    let b = disk_partitions(r.page_count(), ctx.fudge, ctx.mem_pages);
    // Memory left for R0's hash table after reserving B buffer pages.
    let r0_capacity_tuples = if b == 0 {
        r_count.max(1)
    } else {
        ((((ctx.mem_pages.saturating_sub(b)) as f64) * r_tpp as f64 / ctx.fudge).floor() as usize)
            .max(1)
    };
    let q = (r0_capacity_tuples as f64 / r_count.max(1) as f64).min(1.0);
    let split = HybridSplit {
        in_memory_fraction: q,
        disk_partitions: b,
    };
    // §3.8's footnote: with a single output buffer the writes are
    // effectively sequential.
    let write_io = if b <= 1 {
        SpillIo::Sequential
    } else {
        SpillIo::Random
    };

    // Step 1: scan R — partition 0 builds in memory, the rest spills.
    let mut stats = HybridStats::default();
    let mut table0 = ProbeTable::new(
        ctx.meter.clone(),
        spec.r_key,
        r0_capacity_tuples.min(r_count),
        r.tuples,
    );
    let mut r_parts: Vec<SpillFile<T, M>> = (0..b)
        .map(|_| SpillFile::new(ctx.meter.clone(), r_tpp))
        .collect();
    let mut r0_count = 0usize;
    for (pos, row) in r.tuples.iter().enumerate() {
        let h = charged_hash(&ctx.meter, row.borrow(), spec.r_key);
        match split.classify(h) {
            0 => {
                r0_count += 1;
                table0.insert(pos, h);
            }
            i => {
                ctx.meter.charge_moves(1);
                r_parts[i - 1].append(row.clone(), write_io);
            }
        }
    }
    stats.max_build_tuples = r0_count;

    // Step 2: scan S — partition 0 probes immediately, the rest spills.
    let mut s_parts: Vec<SpillFile<T, M>> = (0..b)
        .map(|_| SpillFile::new(ctx.meter.clone(), s_tpp))
        .collect();
    for row in s.tuples {
        let t: &Tuple = row.borrow();
        let h = charged_hash(&ctx.meter, t, spec.s_key);
        match split.classify(h) {
            0 => table0.probe(h, t.get(spec.s_key), |rt| emit(rt, t))?,
            i => {
                ctx.meter.charge_moves(1);
                s_parts[i - 1].append(row.clone(), write_io);
            }
        }
    }
    for p in r_parts.iter_mut().chain(s_parts.iter_mut()) {
        p.flush(write_io);
    }
    drop(table0);

    // Steps 3 and 4, repeated for each on-disk partition pair, applying
    // the algorithm *recursively* when a partition overflowed memory
    // (§3.3: "we can always apply the hybrid hash join recursively,
    // thereby adding an extra pass for the overflow tuples").
    let pages = (r_tpp, s_tpp);
    for (r_part, s_part) in r_parts.into_iter().zip(s_parts) {
        if r_part.is_empty() {
            continue;
        }
        let r_rows: Vec<T> = r_part.drain_pages(SpillIo::Sequential).flatten().collect();
        let s_rows: Vec<T> = s_part.drain_pages(SpillIo::Sequential).flatten().collect();
        join_pair(r_rows, s_rows, 1, spec, ctx, pages, &mut emit, &mut stats)?;
    }
    Ok(stats)
}

/// Hard cap on recursion: beyond this a partition is joined in place even
/// if oversized (it can only be reached by extreme duplicate skew, where
/// no hash function can split the offending key).
const MAX_RECURSION: u32 = 8;

/// Joins one spilled partition pair at recursion `level`: build-and-probe
/// when R's side fits the memory grant, otherwise re-partition both sides
/// with the level-salted hash and recurse. `pages` is R's and S's tuples
/// per page.
#[allow(clippy::too_many_arguments)]
fn join_pair<T: Row, M: Meter>(
    r_rows: Vec<T>,
    s_rows: Vec<T>,
    level: u32,
    spec: JoinSpec,
    ctx: &ExecContext<M>,
    pages: (usize, usize),
    emit: &mut impl Emit,
    stats: &mut HybridStats,
) -> Result<()> {
    if r_rows.is_empty() {
        return Ok(());
    }
    let (r_tpp, s_tpp) = pages;
    stats.max_recursion_depth = stats.max_recursion_depth.max(level);
    let capacity = ctx.mem_tuple_capacity(r_tpp);
    // §3.3: partition sizes vary around their mean (central limit
    // theorem), and "if we err slightly" the slight overflow is absorbed —
    // the hash table just runs marginally over its F allowance. Recursion
    // is reserved for genuine overflow (skew, or memory far too small).
    let slack_capacity = capacity + capacity / 4;
    if r_rows.len() <= slack_capacity || level >= MAX_RECURSION {
        // Build and probe in memory.
        stats.max_build_tuples = stats.max_build_tuples.max(r_rows.len());
        if level >= MAX_RECURSION && r_rows.len() > capacity {
            stats.depth_capped = true;
        }
        let mut table = ProbeTable::new(ctx.meter.clone(), spec.r_key, r_rows.len(), &r_rows);
        for (pos, row) in r_rows.iter().enumerate() {
            ctx.meter.charge_hashes(1);
            let t: &Tuple = row.borrow();
            table.insert(pos, hash_key_level(t.get(spec.r_key), level));
        }
        for row in &s_rows {
            let t: &Tuple = row.borrow();
            ctx.meter.charge_hashes(1);
            let h = hash_key_level(t.get(spec.s_key), level);
            table.probe(h, t.get(spec.s_key), |rt| emit(rt, t))?;
        }
        return Ok(());
    }

    // Overflow: re-partition with an independent (level-salted) hash.
    stats.recursive_partitionings += 1;
    let r_pages = r_rows.len().div_ceil(r_tpp);
    let b = disk_partitions(r_pages, ctx.fudge, ctx.mem_pages).max(2);
    let write_io = if b <= 1 {
        SpillIo::Sequential
    } else {
        SpillIo::Random
    };
    let mut r_parts: Vec<SpillFile<T, M>> = (0..b)
        .map(|_| SpillFile::new(ctx.meter.clone(), r_tpp))
        .collect();
    for row in r_rows {
        ctx.meter.charge_hashes(1);
        let h = hash_key_level(row.borrow().get(spec.r_key), level);
        ctx.meter.charge_moves(1);
        r_parts[crate::partition::uniform_class(h, b)].append(row, write_io);
    }
    let mut s_parts: Vec<SpillFile<T, M>> = (0..b)
        .map(|_| SpillFile::new(ctx.meter.clone(), s_tpp))
        .collect();
    for row in s_rows {
        ctx.meter.charge_hashes(1);
        let h = hash_key_level(row.borrow().get(spec.s_key), level);
        ctx.meter.charge_moves(1);
        s_parts[crate::partition::uniform_class(h, b)].append(row, write_io);
    }
    for p in r_parts.iter_mut().chain(s_parts.iter_mut()) {
        p.flush(write_io);
    }
    for (r_part, s_part) in r_parts.into_iter().zip(s_parts) {
        let r_next: Vec<T> = r_part.drain_pages(SpillIo::Sequential).flatten().collect();
        let s_next: Vec<T> = s_part.drain_pages(SpillIo::Sequential).flatten().collect();
        join_pair(r_next, s_next, level + 1, spec, ctx, pages, emit, stats)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::testkit::{assert_matches_reference, keyed};
    use super::*;

    #[test]
    fn matches_reference_all_in_memory() {
        let r = keyed(50, 2_000, 250, 40);
        let s = keyed(51, 3_000, 250, 40);
        assert_matches_reference(hybrid_hash_join, &r, &s, 1_000);
    }

    #[test]
    fn matches_reference_partitioned() {
        let r = keyed(52, 4_000, 450, 40);
        let s = keyed(53, 6_000, 450, 40);
        // 100 R pages · 1.2 = 120 > 30 → several disk partitions.
        assert_matches_reference(hybrid_hash_join, &r, &s, 30);
    }

    #[test]
    fn matches_reference_single_disk_partition() {
        let r = keyed(54, 4_000, 450, 40);
        let s = keyed(55, 4_000, 450, 40);
        // |M| just above |R|·F/2 → exactly one disk partition.
        assert_matches_reference(hybrid_hash_join, &r, &s, 70);
    }

    #[test]
    fn all_in_memory_does_no_io() {
        let r = keyed(56, 1_000, 100, 40);
        let s = keyed(57, 1_000, 100, 40);
        let ctx = ExecContext::new(100, 1.2);
        hybrid_hash_join(&r, &s, JoinSpec::new(0, 0), &ctx).unwrap();
        assert_eq!(ctx.meter.snapshot().total_ios(), 0);
    }

    #[test]
    fn single_buffer_writes_sequentially() {
        let r = keyed(58, 4_000, 400, 40); // 100 pages, ·F = 120
        let s = keyed(59, 4_000, 400, 40);
        let one_buffer = ExecContext::new(70, 1.2); // B = 1
        hybrid_hash_join(&r, &s, JoinSpec::new(0, 0), &one_buffer).unwrap();
        assert_eq!(
            one_buffer.meter.snapshot().rand_ios,
            0,
            "B = 1 ⇒ sequential writes (§3.8 footnote)"
        );
        let many_buffers = ExecContext::new(25, 1.2); // B > 1
        hybrid_hash_join(&r, &s, JoinSpec::new(0, 0), &many_buffers).unwrap();
        assert!(many_buffers.meter.snapshot().rand_ios > 0);
    }

    #[test]
    fn io_decreases_with_memory() {
        let r = keyed(60, 4_000, 350, 40);
        let s = keyed(61, 4_000, 350, 40);
        let spec = JoinSpec::new(0, 0);
        let mut prev = u64::MAX;
        for mem in [20, 40, 80, 130] {
            let ctx = ExecContext::new(mem, 1.2);
            hybrid_hash_join(&r, &s, spec, &ctx).unwrap();
            let io = ctx.meter.snapshot().total_ios();
            assert!(io <= prev, "I/O must shrink with memory: {io} at {mem}");
            prev = io;
        }
        assert_eq!(prev, 0, "fully in memory at the top of the sweep");
    }

    #[test]
    fn disk_partition_count_formula() {
        assert_eq!(disk_partitions(100, 1.2, 120), 0);
        assert_eq!(disk_partitions(100, 1.2, 70), 1);
        assert!(disk_partitions(100, 1.2, 20) > 1);
        // Matches the analytic crate's arithmetic at Table 2 scale.
        assert_eq!(disk_partitions(10_000, 1.2, 6_001), 1);
    }

    #[test]
    fn duplicate_heavy_keys() {
        let r = keyed(62, 400, 2, 40);
        let s = keyed(63, 300, 2, 40);
        assert_matches_reference(hybrid_hash_join, &r, &s, 6);
    }

    fn zipf_relation(seed: u64, n: usize, key_space: usize, s: f64) -> MemRelation {
        let mut rng = mmdb_types::WorkloadRng::seeded(seed);
        MemRelation::from_tuples(
            mmdb_types::Schema::of(&[
                ("k", mmdb_types::DataType::Int),
                ("payload", mmdb_types::DataType::Int),
            ]),
            40,
            rng.zipf_tuples(n, key_space, s),
        )
        .unwrap()
    }

    #[test]
    fn recursion_triggers_on_skew_and_stays_correct() {
        // Zipf(1.1) keys: the hot partition overflows a tiny memory grant,
        // so phase 2 must recurse (§3.3) — and still produce exactly the
        // nested-loops answer.
        let r = zipf_relation(70, 6_000, 2_000, 1.1);
        let s = zipf_relation(71, 6_000, 2_000, 1.1);
        assert_matches_reference(hybrid_hash_join, &r, &s, 8);
        let ctx = ExecContext::new(8, 1.2);
        let (_, stats) = hybrid_hash_join_with_stats(&r, &s, JoinSpec::new(0, 0), &ctx).unwrap();
        assert!(
            stats.recursive_partitionings > 0,
            "skewed partitions should force recursion: {stats:?}"
        );
        assert!(stats.max_recursion_depth >= 2);
    }

    #[test]
    fn recursion_respects_the_memory_grant() {
        // With splittable (low-duplicate) keys, no in-memory build may
        // exceed the grant even under skewed partition sizes.
        let r = zipf_relation(72, 8_000, 8_000, 0.8);
        let s = zipf_relation(73, 8_000, 8_000, 0.8);
        let ctx = ExecContext::new(12, 1.2);
        let (_, stats) = hybrid_hash_join_with_stats(&r, &s, JoinSpec::new(0, 0), &ctx).unwrap();
        let capacity = ctx.mem_tuple_capacity(40);
        assert!(
            stats.depth_capped || stats.max_build_tuples <= capacity.max(1) * 2,
            "build of {} tuples vs capacity {capacity}: {stats:?}",
            stats.max_build_tuples
        );
    }

    #[test]
    fn extreme_duplicate_skew_hits_the_depth_cap_but_stays_correct() {
        // Every tuple shares one key: no hash can split it; the recursion
        // cap must kick in rather than loop forever.
        let r = keyed(74, 3_000, 1, 40);
        let s = keyed(75, 100, 1, 40);
        let ctx = ExecContext::new(4, 1.2);
        let (out, stats) = hybrid_hash_join_with_stats(&r, &s, JoinSpec::new(0, 0), &ctx).unwrap();
        assert_eq!(out.tuple_count(), 3_000 * 100);
        assert!(stats.depth_capped, "{stats:?}");
    }

    #[test]
    fn no_recursion_when_partitions_fit() {
        let r = keyed(76, 2_000, 500, 40);
        let s = keyed(77, 2_000, 500, 40);
        let ctx = ExecContext::new(30, 1.2);
        let (_, stats) = hybrid_hash_join_with_stats(&r, &s, JoinSpec::new(0, 0), &ctx).unwrap();
        assert_eq!(stats.recursive_partitionings, 0, "{stats:?}");
    }
}
