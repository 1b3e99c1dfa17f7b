//! Plan costing under the Selinger objective `W·|CPU| + |I/O|`.
//!
//! Join costs come from the §3 analytic models. CPU and I/O components are
//! separated by evaluating each model twice — once with the I/O prices
//! zeroed, once with the CPU prices zeroed — so the weighting `W` can be
//! applied to the CPU share alone, exactly as Selinger's objective asks.

use mmdb_analytic::join::JoinScenario;
use mmdb_types::cast::{f64_from_u64, f64_from_usize, u64_from_f64};
use mmdb_types::{CostWeights, JoinAlgorithm, RelationShape, SystemParams};

/// Separated CPU/I/O cost of a (sub)plan, both in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PlanCost {
    /// CPU seconds.
    pub cpu_seconds: f64,
    /// I/O seconds.
    pub io_seconds: f64,
}

impl PlanCost {
    /// The weighted objective `W·CPU + IO`.
    pub fn weighted(&self, w: &CostWeights) -> f64 {
        w.cpu_weight * self.cpu_seconds + self.io_seconds
    }

    /// Component-wise sum.
    pub fn plus(&self, other: &PlanCost) -> PlanCost {
        PlanCost {
            cpu_seconds: self.cpu_seconds + other.cpu_seconds,
            io_seconds: self.io_seconds + other.io_seconds,
        }
    }
}

fn cpu_only(p: &SystemParams) -> SystemParams {
    SystemParams {
        io_seq_ms: 0.0,
        io_rand_ms: 0.0,
        ..*p
    }
}

fn io_only(p: &SystemParams) -> SystemParams {
    SystemParams {
        comp_us: 0.0,
        hash_us: 0.0,
        move_us: 0.0,
        swap_us: 0.0,
        ..*p
    }
}

/// Costs one join of `left_tuples` (build, the smaller input) against
/// `right_tuples` under a memory grant, using the §3 analytic models.
pub fn join_cost(
    algo: JoinAlgorithm,
    left_tuples: f64,
    right_tuples: f64,
    tuples_per_page: u64,
    params: &SystemParams,
    mem_pages: usize,
) -> PlanCost {
    let tpp = tuples_per_page.max(1);
    // The analytic formulas require |R| ≤ |S|; the optimizer always passes
    // the smaller input first, but guard anyway.
    let (small, large) = if left_tuples <= right_tuples {
        (left_tuples, right_tuples)
    } else {
        (right_tuples, left_tuples)
    };
    let shape = RelationShape {
        r_pages: u64_from_f64(small.max(1.0)).div_ceil(tpp).max(1),
        s_pages: u64_from_f64(large.max(1.0)).div_ceil(tpp).max(1),
        r_tuples_per_page: tpp,
        s_tuples_per_page: tpp,
    };
    let make = |p: SystemParams| JoinScenario {
        params: p,
        shape,
        mem_pages: f64_from_usize(mem_pages),
    };
    PlanCost {
        cpu_seconds: make(cpu_only(params)).cost(algo),
        io_seconds: make(io_only(params)).cost(algo),
    }
}

/// How a base table is reached, for costing purposes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccessKind {
    /// Full scan with a per-tuple predicate check.
    SeqScan,
    /// Ordered/hash index equality lookup.
    IndexEq,
    /// Ordered index range scan touching about `matched_rows` entries.
    IndexRange {
        /// Estimated entries in the range.
        matched_rows: f64,
    },
}

/// Costs a base-table access: a sequential scan reads every page (charged
/// as I/O only when the table is not memory-resident), an index lookup
/// costs `log2 ||R||` comparisons plus `height + 1` cold page reads, and a
/// range scan adds one comparison per matched row plus the clustered leaf
/// pages (§2's sequential-access accounting).
pub fn access_cost(
    tuples: f64,
    pages: f64,
    resident: bool,
    kind: AccessKind,
    params: &SystemParams,
) -> PlanCost {
    match kind {
        AccessKind::IndexEq => {
            let comps = tuples.max(2.0).log2();
            let ios = if resident { 0.0 } else { 3.0 }; // height+1 of a short tree
            PlanCost {
                cpu_seconds: comps * params.comp(),
                io_seconds: ios * params.io_rand(),
            }
        }
        AccessKind::IndexRange { matched_rows } => {
            let comps = tuples.max(2.0).log2() + matched_rows;
            let leaf_capacity = 28.0; // 0.69 · 4096 / 100 (standard geometry)
            let ios = if resident {
                0.0
            } else {
                3.0 + (matched_rows / leaf_capacity).ceil()
            };
            PlanCost {
                cpu_seconds: comps * params.comp(),
                io_seconds: ios * params.io_seq(),
            }
        }
        AccessKind::SeqScan => PlanCost {
            cpu_seconds: tuples * params.comp(),
            io_seconds: if resident {
                0.0
            } else {
                pages * params.io_seq()
            },
        },
    }
}

/// Costs a whole physical plan; re-exported convenience used by tests and
/// the engine.
pub fn plan_cost(
    plan: &crate::physical::PhysicalPlan,
    row_estimate: impl Fn(&crate::physical::PhysicalPlan) -> f64 + Copy,
    tuples_per_page: u64,
    params: &SystemParams,
    mem_pages: usize,
    resident: bool,
) -> PlanCost {
    match plan {
        crate::physical::PhysicalPlan::Access(a) => {
            let rows = row_estimate(plan);
            let kind = match a {
                crate::physical::AccessPath::IndexLookup { .. } => AccessKind::IndexEq,
                crate::physical::AccessPath::IndexRange { .. } => {
                    AccessKind::IndexRange { matched_rows: rows }
                }
                crate::physical::AccessPath::SeqScan { .. } => AccessKind::SeqScan,
            };
            access_cost(
                rows,
                rows / f64_from_u64(tuples_per_page.max(1)),
                resident,
                kind,
                params,
            )
        }
        crate::physical::PhysicalPlan::Join {
            left,
            right,
            method,
            ..
        } => {
            let lc = plan_cost(
                left,
                row_estimate,
                tuples_per_page,
                params,
                mem_pages,
                resident,
            );
            let rc = plan_cost(
                right,
                row_estimate,
                tuples_per_page,
                params,
                mem_pages,
                resident,
            );
            let jc = join_cost(
                *method,
                row_estimate(left),
                row_estimate(right),
                tuples_per_page,
                params,
                mem_pages,
            );
            lc.plus(&rc).plus(&jc)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_objective() {
        let c = PlanCost {
            cpu_seconds: 2.0,
            io_seconds: 30.0,
        };
        let w = CostWeights { cpu_weight: 10.0 };
        assert!((c.weighted(&w) - 50.0).abs() < 1e-9);
        let sum = c.plus(&PlanCost {
            cpu_seconds: 1.0,
            io_seconds: 1.0,
        });
        assert_eq!(sum.cpu_seconds, 3.0);
    }

    #[test]
    fn hybrid_hash_is_cheapest_with_large_memory() {
        // §4: with large memory there is "only one algorithm to choose
        // from" for the join — the hybrid hash.
        let p = SystemParams::table2();
        let costs: Vec<(JoinAlgorithm, f64)> = crate::optimizer::TIE_BREAK_ORDER
            .iter()
            .map(|m| {
                let c = join_cost(*m, 400_000.0, 400_000.0, 40, &p, 12_000);
                (*m, c.weighted(&CostWeights::default()))
            })
            .collect();
        let best = costs.iter().min_by(|a, b| a.1.total_cmp(&b.1)).unwrap().0;
        assert_eq!(best, JoinAlgorithm::HybridHash, "costs: {costs:?}");
    }

    #[test]
    fn hash_beats_sort_merge_above_sqrt_memory() {
        let p = SystemParams::table2();
        // |S| = 10 000 pages: sqrt(|S|·F) ≈ 110 pages.
        let hybrid = join_cost(JoinAlgorithm::HybridHash, 400_000.0, 400_000.0, 40, &p, 150);
        let sm = join_cost(JoinAlgorithm::SortMerge, 400_000.0, 400_000.0, 40, &p, 150);
        let w = CostWeights::default();
        assert!(hybrid.weighted(&w) < sm.weighted(&w));
    }

    #[test]
    fn cpu_io_split_sums_to_total() {
        let p = SystemParams::table2();
        let c = join_cost(JoinAlgorithm::GraceHash, 100_000.0, 200_000.0, 40, &p, 500);
        let shape = RelationShape {
            r_pages: 2_500,
            s_pages: 5_000,
            r_tuples_per_page: 40,
            s_tuples_per_page: 40,
        };
        let total = JoinScenario {
            params: p,
            shape,
            mem_pages: 500.0,
        }
        .cost(JoinAlgorithm::GraceHash);
        assert!(
            (c.cpu_seconds + c.io_seconds - total).abs() < 1e-6,
            "split {c:?} vs total {total}"
        );
    }

    #[test]
    fn resident_scan_has_no_io() {
        let p = SystemParams::table2();
        let c = access_cost(10_000.0, 250.0, true, AccessKind::SeqScan, &p);
        assert_eq!(c.io_seconds, 0.0);
        assert!(c.cpu_seconds > 0.0);
        let cold = access_cost(10_000.0, 250.0, false, AccessKind::SeqScan, &p);
        assert!(cold.io_seconds > 0.0);
    }

    #[test]
    fn index_lookup_is_cheap() {
        let p = SystemParams::table2();
        let scan = access_cost(1e6, 25_000.0, true, AccessKind::SeqScan, &p);
        let idx = access_cost(1e6, 25_000.0, true, AccessKind::IndexEq, &p);
        assert!(idx.cpu_seconds < scan.cpu_seconds / 1000.0);
        // A selective range scan sits between the two, scaling with the
        // matched rows.
        let narrow = access_cost(
            1e6,
            25_000.0,
            true,
            AccessKind::IndexRange {
                matched_rows: 100.0,
            },
            &p,
        );
        let wide = access_cost(
            1e6,
            25_000.0,
            true,
            AccessKind::IndexRange {
                matched_rows: 100_000.0,
            },
            &p,
        );
        assert!(idx.cpu_seconds < narrow.cpu_seconds);
        assert!(narrow.cpu_seconds < wide.cpu_seconds);
        assert!(wide.cpu_seconds < scan.cpu_seconds);
        // Cold range scans read clustered leaves sequentially.
        let cold_range = access_cost(
            1e6,
            25_000.0,
            false,
            AccessKind::IndexRange {
                matched_rows: 280.0,
            },
            &p,
        );
        assert!((cold_range.io_seconds - 13.0 * p.io_seq()).abs() < 1e-9);
    }

    #[test]
    fn swapped_inputs_cost_the_same() {
        let p = SystemParams::table2();
        let a = join_cost(JoinAlgorithm::HybridHash, 1_000.0, 9_000.0, 40, &p, 100);
        let b = join_cost(JoinAlgorithm::HybridHash, 9_000.0, 1_000.0, 40, &p, 100);
        assert_eq!(a, b, "the guard must normalize |R| ≤ |S|");
    }
}
