//! §3 — analytic costs of the four join algorithms.
//!
//! All four formulas follow the paper's conventions: the initial read of R
//! and S and the final write of the join result are ignored (identical for
//! every algorithm), CPU and I/O never overlap, and the two-pass
//! assumption `sqrt(|S|·F) ≤ |M|` holds. `R` is the smaller relation.
//!
//! The horizontal axis of **Figure 1** is `|M| / (|R|·F)`; [`figure1`]
//! regenerates all four curves over that axis.

use mmdb_types::cast::{f64_from_u64, u64_from_f64};
use mmdb_types::{JoinAlgorithm, RelationShape, SystemParams};

/// A fully specified join scenario: machine parameters, relation shapes,
/// and the memory grant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinScenario {
    /// Table 2 machine parameters.
    pub params: SystemParams,
    /// Relation shapes.
    pub shape: RelationShape,
    /// `|M|` — pages of main memory granted to the join.
    pub mem_pages: f64,
}

impl JoinScenario {
    /// A scenario at a given `|M|/(|R|·F)` ratio (Figure 1's x-axis).
    pub fn at_ratio(params: SystemParams, shape: RelationShape, ratio: f64) -> Self {
        JoinScenario {
            params,
            shape,
            mem_pages: ratio * f64_from_u64(shape.r_pages) * params.fudge,
        }
    }

    /// The x-axis position of this scenario.
    pub fn ratio(&self) -> f64 {
        self.mem_pages / (f64_from_u64(self.shape.r_pages) * self.params.fudge)
    }

    /// Costs this scenario under the given algorithm.
    pub fn cost(&self, algo: JoinAlgorithm) -> f64 {
        match algo {
            JoinAlgorithm::SortMerge => sort_merge_cost(self),
            JoinAlgorithm::SimpleHash => simple_hash_cost(self),
            JoinAlgorithm::GraceHash => grace_hash_cost(self),
            JoinAlgorithm::HybridHash => hybrid_hash_cost(self),
        }
    }
}

/// The two-pass threshold: `sqrt(|S|·F)` pages (§3.2). Below this memory
/// grant the formulas stop holding.
pub fn min_memory_pages(shape: &RelationShape, fudge: f64) -> f64 {
    (f64_from_u64(shape.s_pages) * fudge).sqrt()
}

fn log2_at_least_1(x: f64) -> f64 {
    x.max(2.0).log2()
}

/// §3.4 sort-merge join cost in seconds.
///
/// * Run formation: each tuple is inserted into a priority queue holding
///   `{M}` tuples — `log2({M})` comparisons+swaps per insertion.
/// * I/O: every page of both relations is written to a run (sequentially)
///   and read back for the merge (randomly, since the merge interleaves
///   reads across runs). When `|M| ≥ |S|·F` the sort happens entirely in
///   memory and the I/O term vanishes — the paper's "improves to
///   approximately 900 seconds" beyond ratio 1.0.
/// * Final merge: tuples re-enter a priority queue over the runs, with
///   `|X|·F/(2·|M|)` runs per relation (average run length `2·|M|/F`).
/// * Merge-join: one comparison per tuple of either relation.
pub fn sort_merge_cost(sc: &JoinScenario) -> f64 {
    let p = &sc.params;
    let sh = &sc.shape;
    let m = sc.mem_pages;
    let (r_pages, s_pages) = (f64_from_u64(sh.r_pages), f64_from_u64(sh.s_pages));
    let (r_t, s_t) = (f64_from_u64(sh.r_tuples()), f64_from_u64(sh.s_tuples()));

    // Tuples the in-memory priority queue can hold for each relation.
    let mq_r = (m * f64_from_u64(sh.r_tuples_per_page) / p.fudge).min(r_t);
    let mq_s = (m * f64_from_u64(sh.s_tuples_per_page) / p.fudge).min(s_t);

    let run_formation =
        (r_t * log2_at_least_1(mq_r) + s_t * log2_at_least_1(mq_s)) * (p.comp() + p.swap());

    let fully_in_memory = m >= s_pages * p.fudge && m >= r_pages * p.fudge;
    let io = if fully_in_memory {
        0.0
    } else {
        (r_pages + s_pages) * (p.io_seq() + p.io_rand())
    };

    let runs_r = (r_pages * p.fudge / (2.0 * m)).max(1.0);
    let runs_s = (s_pages * p.fudge / (2.0 * m)).max(1.0);
    let final_merge = if fully_in_memory {
        0.0
    } else {
        (r_t * runs_r.max(1.0).log2().max(0.0) + s_t * runs_s.max(1.0).log2().max(0.0))
            * (p.comp() + p.swap())
    };

    let merge_join = (r_t + s_t) * p.comp();

    run_formation + io + final_merge + merge_join
}

/// §3.5 multipass simple-hash join cost in seconds.
///
/// With `A = ceil(|R|·F/|M|)` passes and an in-memory hash table absorbing
/// `|M|/F` pages of R per pass, pass `i` passes over the tuples not yet
/// absorbed; passed-over tuples are re-hashed, moved, written out and read
/// back (two sequential I/Os per passed-over page).
pub fn simple_hash_cost(sc: &JoinScenario) -> f64 {
    let p = &sc.params;
    let sh = &sc.shape;
    let m = sc.mem_pages;
    let r_pages = f64_from_u64(sh.r_pages);
    let (r_t, s_t) = (f64_from_u64(sh.r_tuples()), f64_from_u64(sh.s_tuples()));

    // Base work performed exactly once per tuple.
    let build = r_t * (p.hash() + p.mv());
    let probe = s_t * (p.hash() + p.fudge * p.comp());

    let passes = (r_pages * p.fudge / m).ceil().max(1.0);
    // Fraction of R absorbed per pass.
    let frac_per_pass = (m / (p.fudge * r_pages)).min(1.0);

    let mut passed_r_tuples = 0.0;
    let mut passed_s_tuples = 0.0;
    for i in 1..u64_from_f64(passes) {
        let remaining = (1.0 - f64_from_u64(i) * frac_per_pass).max(0.0);
        passed_r_tuples += r_t * remaining;
        passed_s_tuples += s_t * remaining;
    }

    let cpu_passed = (passed_r_tuples + passed_s_tuples) * (p.hash() + p.mv());
    let passed_pages = passed_r_tuples / f64_from_u64(sh.r_tuples_per_page)
        + passed_s_tuples / f64_from_u64(sh.s_tuples_per_page);
    let io_passed = passed_pages * 2.0 * p.io_seq();

    build + probe + cpu_passed + io_passed
}

/// §3.6 GRACE-hash join cost in seconds.
///
/// Phase 1 scans both relations, hashing every tuple into one of `|M|`
/// output buffers that are flushed to disk (random writes — the buffers
/// fill in hash order, not disk order). Phase 2 reads each partition back
/// sequentially, builds a hash table for `R_i`, and probes it with `S_i`.
pub fn grace_hash_cost(sc: &JoinScenario) -> f64 {
    let p = &sc.params;
    let sh = &sc.shape;
    let (r_pages, s_pages) = (f64_from_u64(sh.r_pages), f64_from_u64(sh.s_pages));
    let (r_t, s_t) = (f64_from_u64(sh.r_tuples()), f64_from_u64(sh.s_tuples()));

    let partition = (r_t + s_t) * (p.hash() + p.mv());
    let write = (r_pages + s_pages) * p.io_rand();
    let read_back = (r_pages + s_pages) * p.io_seq();
    let build_probe = (r_t + s_t) * p.hash() + r_t * p.mv() + s_t * p.fudge * p.comp();

    partition + write + read_back + build_probe
}

/// Number of disk partitions `B` the hybrid-hash join needs for an `R` of
/// `r_pages` (§3.7): zero when R's hash table fits entirely in memory,
/// otherwise enough that each of the `B` partitions fits, given that `B`
/// output-buffer pages are reserved. The model and the executor both
/// size their partitioning with it.
pub fn hybrid_partitions(r_pages: f64, fudge: f64, mem_pages: f64) -> f64 {
    let r_f = r_pages * fudge;
    if mem_pages >= r_f {
        0.0
    } else {
        ((r_f - mem_pages) / (mem_pages - 1.0).max(1.0))
            .ceil()
            .max(1.0)
    }
}

/// Fraction `q = |R0|/|R|` of R whose hash table stays in memory during
/// the hybrid-hash partitioning phase.
pub fn hybrid_in_memory_fraction(shape: &RelationShape, fudge: f64, mem_pages: f64) -> f64 {
    let b = hybrid_partitions(f64_from_u64(shape.r_pages), fudge, mem_pages);
    if b == 0.0 {
        return 1.0;
    }
    let r0_pages = ((mem_pages - b) / fudge).max(0.0);
    (r0_pages / f64_from_u64(shape.r_pages)).clamp(0.0, 1.0)
}

/// §3.7 hybrid-hash join cost in seconds, exactly the paper's formula:
///
/// ```text
///   (||R|| + ||S||) · hash                 partition R and S
/// + (||R|| + ||S||) · (1−q) · move         move tuples to output buffers
/// + (|R| + |S|) · (1−q) · IOw              write from output buffers
/// + (||R|| + ||S||) · (1−q) · hash         build/probe hash tables, phase 2
/// + ||S|| · F · comp                       probe for each tuple of S
/// + ||R|| · move                           move tuples into R's hash tables
/// + (|R| + |S|) · (1−q) · IOseq            read sets back into memory
/// ```
///
/// where `IOw = IOrand`, except that with a single output buffer
/// (`B = 1`, i.e. `|M| > |R|·F/2`) writes are sequential — the paper's
/// footnoted substitution that produces the Figure 1 discontinuity at 0.5.
pub fn hybrid_hash_cost(sc: &JoinScenario) -> f64 {
    let p = &sc.params;
    let sh = &sc.shape;
    let (r_pages, s_pages) = (f64_from_u64(sh.r_pages), f64_from_u64(sh.s_pages));
    let (r_t, s_t) = (f64_from_u64(sh.r_tuples()), f64_from_u64(sh.s_tuples()));

    let b = hybrid_partitions(r_pages, p.fudge, sc.mem_pages);
    let q = hybrid_in_memory_fraction(sh, p.fudge, sc.mem_pages);
    let io_write = if b <= 1.0 { p.io_seq() } else { p.io_rand() };

    (r_t + s_t) * p.hash()
        + (r_t + s_t) * (1.0 - q) * p.mv()
        + (r_pages + s_pages) * (1.0 - q) * io_write
        + (r_t + s_t) * (1.0 - q) * p.hash()
        + s_t * p.fudge * p.comp()
        + r_t * p.mv()
        + (r_pages + s_pages) * (1.0 - q) * p.io_seq()
}

/// §3.2's TID-vs-whole-tuple analysis.
///
/// "If only TIDs or TID-Key pairs are used, there is a significant space
/// savings since fewer bytes need to be manipulated. On the other hand,
/// every time a pair of joined tuples is output, the original tuples must
/// be retrieved ... the cost of the random accesses to retrieve the
/// tuples can exceed the savings of using TIDs if the join produces a
/// large number of tuples." The paper folds the choice into parameter
/// values; these helpers make the trade-off explicit.
pub mod tid {
    use super::{JoinAlgorithm, JoinScenario};
    use mmdb_types::SystemParams;

    /// Parameters for the TID-key-pair variant: moving an (8+8)-byte pair
    /// is far cheaper than moving a ~100-byte tuple, and TID structures
    /// pack ~6× more entries per page, shrinking spill I/O accordingly.
    pub fn tid_params(p: &SystemParams) -> SystemParams {
        SystemParams {
            move_us: p.move_us / 6.0,
            swap_us: p.swap_us / 6.0,
            ..*p
        }
    }

    /// Cost of the join itself when manipulating TID-key pairs: the base
    /// formula under TID prices, with relation sizes shrunk by the pair
    /// packing factor (6× more pairs per page).
    pub fn tid_join_cost(sc: &JoinScenario, algo: JoinAlgorithm) -> f64 {
        let packed = JoinScenario {
            params: tid_params(&sc.params),
            shape: mmdb_types::RelationShape {
                r_pages: (sc.shape.r_pages / 6).max(1),
                s_pages: (sc.shape.s_pages / 6).max(1),
                r_tuples_per_page: sc.shape.r_tuples_per_page * 6,
                s_tuples_per_page: sc.shape.s_tuples_per_page * 6,
            },
            mem_pages: sc.mem_pages,
        };
        packed.cost(algo)
    }

    /// Cost of fetching the original tuples for `result_tuples` output
    /// pairs: two random accesses per pair, discounted by the fraction of
    /// the base relations resident in memory.
    pub fn fetch_cost(p: &SystemParams, result_tuples: f64, resident_fraction: f64) -> f64 {
        result_tuples * 2.0 * (1.0 - resident_fraction).clamp(0.0, 1.0) * p.io_rand()
    }

    /// Total TID-variant cost: join on pairs + result fetches.
    pub fn total_cost(
        sc: &JoinScenario,
        algo: JoinAlgorithm,
        result_tuples: f64,
        resident_fraction: f64,
    ) -> f64 {
        tid_join_cost(sc, algo) + fetch_cost(&sc.params, result_tuples, resident_fraction)
    }

    /// Result cardinality at which the whole-tuple variant catches up:
    /// below this many output tuples, TID-key pairs win.
    pub fn crossover_result_size(
        sc: &JoinScenario,
        algo: JoinAlgorithm,
        resident_fraction: f64,
    ) -> f64 {
        let whole = sc.cost(algo);
        let tid_base = tid_join_cost(sc, algo);
        let per_tuple = 2.0 * (1.0 - resident_fraction).clamp(0.0, 1.0) * sc.params.io_rand();
        if per_tuple <= 0.0 {
            return f64::INFINITY; // fully resident: TIDs always win
        }
        ((whole - tid_base) / per_tuple).max(0.0)
    }
}

/// One sampled point of the regenerated Figure 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Figure1Point {
    /// x — `|M| / (|R|·F)`.
    pub ratio: f64,
    /// Seconds for each algorithm, indexed like [`JoinAlgorithm::ALL`].
    pub seconds: [f64; 4],
}

impl Figure1Point {
    /// Seconds for one algorithm.
    pub fn of(&self, algo: JoinAlgorithm) -> f64 {
        let idx = JoinAlgorithm::ALL
            .iter()
            .position(|a| *a == algo)
            .expect("algo in ALL");
        self.seconds[idx]
    }
}

/// Regenerates Figure 1: all four cost curves sampled at `ratios`.
pub fn figure1(params: SystemParams, shape: RelationShape, ratios: &[f64]) -> Vec<Figure1Point> {
    ratios
        .iter()
        .map(|&ratio| {
            let sc = JoinScenario::at_ratio(params, shape, ratio);
            let mut seconds = [0.0; 4];
            for (i, algo) in JoinAlgorithm::ALL.iter().enumerate() {
                seconds[i] = sc.cost(*algo);
            }
            Figure1Point { ratio, seconds }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use JoinAlgorithm::*;

    fn table2_scenario(ratio: f64) -> JoinScenario {
        JoinScenario::at_ratio(SystemParams::table2(), RelationShape::table2(), ratio)
    }

    #[test]
    fn min_memory_matches_papers_example() {
        // §3.2: with F = 1.2 and |S| = 800 000 pages, |M| need only be
        // 1 000 pages (actually sqrt(960 000) ≈ 980).
        let shape = RelationShape {
            s_pages: 800_000,
            ..RelationShape::table2()
        };
        let m = min_memory_pages(&shape, 1.2);
        assert!((m - 979.79).abs() < 1.0, "got {m}");
        // The Figure 1 x-axis floor: sqrt(12 000)/12 000 ≈ 0.009.
        let shape2 = RelationShape::table2();
        let floor = min_memory_pages(&shape2, 1.2) / (shape2.r_pages as f64 * 1.2);
        assert!((floor - 0.009).abs() < 0.001, "got {floor}");
    }

    #[test]
    fn sort_merge_in_memory_is_about_900_seconds() {
        // The paper: above ratio 1.0 sort-merge improves to ~900 s.
        let sc = table2_scenario(1.05);
        let cost = sort_merge_cost(&sc);
        assert!(
            (850.0..1000.0).contains(&cost),
            "in-memory sort-merge = {cost}, expected ≈ 900 s"
        );
    }

    #[test]
    fn sort_merge_is_roughly_flat_and_expensive_below_ratio_1() {
        for ratio in [0.05, 0.2, 0.5, 0.9] {
            let cost = sort_merge_cost(&table2_scenario(ratio));
            assert!(
                (1400.0..1800.0).contains(&cost),
                "ratio {ratio}: sort-merge = {cost}"
            );
        }
    }

    #[test]
    fn all_hash_algorithms_agree_when_r_fits_in_memory() {
        // At ratio 1.0, simple and hybrid do no extra passes; both reduce
        // to a pure in-memory hash join of the same cost (~17 s).
        let sc = table2_scenario(1.0);
        let simple = simple_hash_cost(&sc);
        let hybrid = hybrid_hash_cost(&sc);
        assert!((simple - hybrid).abs() < 1.0, "{simple} vs {hybrid}");
        assert!((10.0..25.0).contains(&simple), "got {simple}");
    }

    #[test]
    fn grace_is_flat_across_memory() {
        let lo = grace_hash_cost(&table2_scenario(0.02));
        let hi = grace_hash_cost(&table2_scenario(0.9));
        assert!((lo - hi).abs() < 1e-9, "GRACE depends only on |R|,|S|");
        assert!((600.0..900.0).contains(&lo), "got {lo}");
    }

    #[test]
    fn simple_hash_blows_up_at_low_memory() {
        let at_low = simple_hash_cost(&table2_scenario(0.05));
        let at_high = simple_hash_cost(&table2_scenario(0.9));
        assert!(
            at_low > 10.0 * at_high,
            "multipass penalty missing: {at_low} vs {at_high}"
        );
        assert!(at_low > 1500.0, "got {at_low}");
    }

    #[test]
    fn hybrid_discontinuity_at_half() {
        // Crossing |M| = |R|F/2 changes the output-buffer count from one to
        // two, switching write pricing from IOseq to IOrand (§3.8).
        let just_above = hybrid_hash_cost(&table2_scenario(0.51));
        let just_below = hybrid_hash_cost(&table2_scenario(0.49));
        assert!(
            just_below > just_above + 50.0,
            "discontinuity missing: below={just_below}, above={just_above}"
        );
    }

    #[test]
    fn simple_beats_hybrid_only_in_the_small_io_accounting_region() {
        // §3.8: simple hash wins a small region just below 0.5 purely
        // because of the IOrand accounting.
        let sc = table2_scenario(0.45);
        assert!(simple_hash_cost(&sc) < hybrid_hash_cost(&sc));
        // ... but hybrid wins broadly elsewhere.
        for ratio in [0.05, 0.1, 0.2, 0.3, 0.6, 0.8, 1.0] {
            let sc = table2_scenario(ratio);
            assert!(
                hybrid_hash_cost(&sc) <= simple_hash_cost(&sc) + 1.0,
                "ratio {ratio}"
            );
        }
    }

    #[test]
    fn hybrid_dominates_grace_and_sort_merge_everywhere() {
        for ratio in [0.02, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0] {
            let sc = table2_scenario(ratio);
            let hybrid = hybrid_hash_cost(&sc);
            assert!(hybrid <= grace_hash_cost(&sc) + 1.0, "ratio {ratio}");
            assert!(hybrid <= sort_merge_cost(&sc), "ratio {ratio}");
        }
    }

    #[test]
    fn hash_beats_sort_merge_once_memory_exceeds_sqrt() {
        // §6's headline conclusion, checked at the two-pass floor itself.
        let shape = RelationShape::table2();
        let floor = min_memory_pages(&shape, 1.2);
        let sc = JoinScenario {
            params: SystemParams::table2(),
            shape,
            mem_pages: floor,
        };
        assert!(hybrid_hash_cost(&sc) < sort_merge_cost(&sc));
        assert!(grace_hash_cost(&sc) < sort_merge_cost(&sc));
    }

    #[test]
    fn figure1_series_is_complete_and_positive() {
        let ratios: Vec<f64> = (1..=20).map(|i| i as f64 / 20.0).collect();
        let pts = figure1(SystemParams::table2(), RelationShape::table2(), &ratios);
        assert_eq!(pts.len(), 20);
        for pt in &pts {
            for a in JoinAlgorithm::ALL {
                assert!(pt.of(a) > 0.0);
            }
        }
    }

    #[test]
    fn scenario_ratio_roundtrips() {
        let sc = table2_scenario(0.37);
        assert!((sc.ratio() - 0.37).abs() < 1e-12);
    }

    #[test]
    fn hybrid_partition_arithmetic() {
        let shape = RelationShape::table2();
        // Fits fully: no partitions, q = 1.
        assert_eq!(hybrid_partitions(10_000.0, 1.2, 12_000.0), 0.0);
        assert_eq!(hybrid_in_memory_fraction(&shape, 1.2, 12_000.0), 1.0);
        // Exactly half: one partition.
        assert_eq!(hybrid_partitions(10_000.0, 1.2, 6_001.0), 1.0);
        // A small R: one buffer page past half of |R|·F, several below.
        assert_eq!(hybrid_partitions(100.0, 1.2, 120.0), 0.0);
        assert_eq!(hybrid_partitions(100.0, 1.2, 70.0), 1.0);
        assert!(hybrid_partitions(100.0, 1.2, 20.0) > 1.0);
        // q decreases with memory.
        let q_big = hybrid_in_memory_fraction(&shape, 1.2, 6_000.0);
        let q_small = hybrid_in_memory_fraction(&shape, 1.2, 1_200.0);
        assert!(q_big > q_small);
        assert!((0.0..=1.0).contains(&q_small));
    }

    #[test]
    fn tid_variant_wins_small_results_loses_large_ones() {
        // §3.2: TIDs save manipulation cost but pay random fetches per
        // output tuple.
        let sc = table2_scenario(0.2);
        let small = tid::total_cost(&sc, HybridHash, 1_000.0, 0.0);
        let whole = sc.cost(HybridHash);
        assert!(small < whole, "tiny result: TID {small} vs whole {whole}");
        let huge = tid::total_cost(&sc, HybridHash, 1e7, 0.0);
        assert!(huge > whole, "huge result: TID {huge} vs whole {whole}");
        // The crossover sits between those result sizes.
        let x = tid::crossover_result_size(&sc, HybridHash, 0.0);
        assert!((1_000.0..1e7).contains(&x), "crossover {x}");
    }

    #[test]
    fn tid_variant_always_wins_when_base_tuples_are_resident() {
        let sc = table2_scenario(0.2);
        assert_eq!(
            tid::crossover_result_size(&sc, HybridHash, 1.0),
            f64::INFINITY
        );
        assert!(tid::total_cost(&sc, HybridHash, 1e9, 1.0) < sc.cost(HybridHash));
    }

    #[test]
    fn tid_fetch_cost_scales_with_result_and_misses() {
        let p = SystemParams::table2();
        assert_eq!(tid::fetch_cost(&p, 0.0, 0.0), 0.0);
        let full_miss = tid::fetch_cost(&p, 1_000.0, 0.0);
        let half_miss = tid::fetch_cost(&p, 1_000.0, 0.5);
        assert!((full_miss - 2.0 * 1_000.0 * 0.025).abs() < 1e-9);
        assert!((half_miss - full_miss / 2.0).abs() < 1e-9);
    }

    #[test]
    fn algorithm_names() {
        assert_eq!(SortMerge.name(), "sort-merge");
        assert_eq!(HybridHash.name(), "hybrid-hash");
        assert_eq!(JoinAlgorithm::ALL.len(), 4);
    }
}
