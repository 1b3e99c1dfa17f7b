//! Exhaustive left-deep plan enumeration — the classical Selinger search
//! the §4 setting collapses.
//!
//! Two uses:
//!
//! * **Validation**: the greedy optimizer's plan is checked against the
//!   exhaustive optimum over all connected left-deep join orders.
//! * **Quantifying the collapse**: [`classical_plan_space`] counts the
//!   plans a disk-era optimizer would price (orders × algorithms ×
//!   interesting orders), versus the handful the §4 planner looks at.

use crate::cost::{join_cost, PlanCost};
use crate::logical::QuerySpec;
use crate::optimizer::PlanEnv;
use crate::physical::JoinMethod;
use crate::stats::{estimate_join_cardinality, estimate_selectivity, TableStats};
use mmdb_types::cast::{f64_from_u64, u32_from_u64, u32_from_usize, u64_from_f64};
use mmdb_types::{Error, Result};

/// Result of exhaustive enumeration.
#[derive(Debug, Clone, PartialEq)]
pub struct Enumerated {
    /// Best join order, as indices into `spec.tables`.
    pub best_order: Vec<usize>,
    /// Per-join methods for the best order.
    pub best_methods: Vec<JoinMethod>,
    /// Cost of the best plan (joins only; access costs are
    /// order-invariant).
    pub best_cost: PlanCost,
    /// Left-deep orders examined (connected permutations).
    pub orders_examined: u64,
    /// Total (order, method-assignment) plans implicitly priced.
    pub plans_priced: u64,
}

/// Number of plans a classical System-R style optimizer prices for an
/// `n`-table chain: left-deep orders × per-join algorithm choices ×
/// (optionally) interesting-order variants per intermediate result.
pub fn classical_plan_space(n_tables: u64, algorithms: u64, interesting_orders: u64) -> u64 {
    if n_tables <= 1 {
        return 1;
    }
    let mut orders = 1u64;
    for i in 2..=n_tables {
        orders = orders.saturating_mul(i);
    }
    let joins = n_tables - 1;
    orders
        .saturating_mul(algorithms.saturating_pow(u32_from_u64(joins)))
        .saturating_mul(interesting_orders.saturating_pow(u32_from_u64(joins)))
}

/// The §4 planner's plan count for the same query: one greedy order, four
/// algorithm prices per join, no interesting orders.
pub fn collapsed_plan_space(n_tables: u64) -> u64 {
    if n_tables <= 1 {
        1
    } else {
        4 * (n_tables - 1)
    }
}

/// Exhaustively enumerates connected left-deep join orders, choosing the
/// cheapest method per join, and returns the optimum.
pub fn enumerate_left_deep(
    spec: &QuerySpec,
    stats: &[TableStats],
    env: &PlanEnv,
) -> Result<Enumerated> {
    let n = spec.tables.len();
    if n == 0 {
        return Err(Error::Planning("query has no tables".into()));
    }
    if stats.len() != n {
        return Err(Error::Planning("stats/tables length mismatch".into()));
    }
    if !spec.is_connected() {
        return Err(Error::Planning("join graph is not connected".into()));
    }
    let table_rows: Vec<f64> = spec
        .tables
        .iter()
        .zip(stats)
        .map(|(t, st)| (f64_from_u64(st.tuples) * estimate_selectivity(&t.predicate, st)).max(1.0))
        .collect();
    let tpp = stats
        .iter()
        .map(|s| s.tuples_per_page)
        .max()
        .unwrap_or(crate::TUPLES_PER_PAGE);

    let mut best: Option<Enumerated> = None;
    let mut orders_examined = 0u64;
    let mut stack: Vec<usize> = Vec::with_capacity(n);
    let mut used = vec![false; n];

    // Depth-first over permutations, pruning disconnected prefixes.
    fn connected_to_prefix(spec: &QuerySpec, prefix: &[usize], cand: usize) -> bool {
        if prefix.is_empty() {
            return true;
        }
        spec.joins.iter().any(|e| {
            (e.left_table == cand && prefix.contains(&e.right_table))
                || (e.right_table == cand && prefix.contains(&e.left_table))
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn recurse(
        spec: &QuerySpec,
        stats: &[TableStats],
        env: &PlanEnv,
        table_rows: &[f64],
        tpp: u64,
        stack: &mut Vec<usize>,
        used: &mut [bool],
        orders_examined: &mut u64,
        best: &mut Option<Enumerated>,
    ) {
        let n = stats.len();
        if stack.len() == n {
            *orders_examined += 1;
            // Cost the order: fold joins left-deep, choosing the cheapest
            // method per join.
            let mut rows = table_rows[stack[0]];
            let mut cost = PlanCost::default();
            let mut methods = Vec::with_capacity(n - 1);
            for (i, &next) in stack.iter().enumerate().skip(1) {
                // Distinct values on the connecting edge.
                let edge = spec.joins.iter().find(|e| {
                    (e.left_table == next && stack[..i].contains(&e.right_table))
                        || (e.right_table == next && stack[..i].contains(&e.left_table))
                });
                let (d_in, d_out) = match edge {
                    Some(e) => {
                        let (in_t, in_c, out_c) = if e.left_table == next {
                            (e.right_table, e.right_column, e.left_column)
                        } else {
                            (e.left_table, e.left_column, e.right_column)
                        };
                        (
                            stats[in_t].distinct(in_c).min(u64_from_f64(rows.ceil())),
                            stats[next]
                                .distinct(out_c)
                                .min(u64_from_f64(table_rows[next].ceil())),
                        )
                    }
                    None => (10, 10),
                };
                let (method, jc) = JoinMethod::ALL
                    .iter()
                    .map(|m| {
                        (
                            *m,
                            join_cost(*m, rows, table_rows[next], tpp, &env.params, env.mem_pages),
                        )
                    })
                    .min_by(|a, b| {
                        a.1.weighted(&env.weights)
                            .total_cmp(&b.1.weighted(&env.weights))
                    })
                    .expect("four methods");
                methods.push(method);
                cost = cost.plus(&jc);
                rows = estimate_join_cardinality(rows, d_in, table_rows[next], d_out).max(1.0);
            }
            let better = best
                .as_ref()
                .map(|b| cost.weighted(&env.weights) < b.best_cost.weighted(&env.weights))
                .unwrap_or(true);
            if better {
                *best = Some(Enumerated {
                    best_order: stack.clone(),
                    best_methods: methods,
                    best_cost: cost,
                    orders_examined: 0,
                    plans_priced: 0,
                });
            }
            return;
        }
        for cand in 0..n {
            if used[cand] || !connected_to_prefix(spec, stack, cand) {
                continue;
            }
            used[cand] = true;
            stack.push(cand);
            recurse(
                spec,
                stats,
                env,
                table_rows,
                tpp,
                stack,
                used,
                orders_examined,
                best,
            );
            stack.pop();
            used[cand] = false;
        }
    }

    recurse(
        spec,
        stats,
        env,
        &table_rows,
        tpp,
        &mut stack,
        &mut used,
        &mut orders_examined,
        &mut best,
    );
    let mut result = best.ok_or_else(|| Error::Planning("no connected order".into()))?;
    result.orders_examined = orders_examined;
    result.plans_priced =
        orders_examined * 4u64.saturating_pow(u32_from_usize(n).saturating_sub(1));
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::{JoinEdge, TableRef};
    use crate::optimizer::optimize;

    fn chain(n_tables: usize, sizes: &[u64]) -> (QuerySpec, Vec<TableStats>) {
        let tables = (0..n_tables)
            .map(|i| TableRef::plain(format!("t{i}")))
            .collect();
        let joins = (0..n_tables - 1)
            .map(|i| JoinEdge {
                left_table: i,
                left_column: 1,
                right_table: i + 1,
                right_column: 0,
            })
            .collect();
        let stats = sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                let mut st = TableStats::uniform(format!("t{i}"), s, 40, 2);
                st.columns[0].distinct = s;
                st.columns[1].distinct = (s / 2).max(1);
                st
            })
            .collect();
        (QuerySpec { tables, joins }, stats)
    }

    #[test]
    fn plan_space_counts() {
        // A 5-table query: 5! orders × 4^4 algorithms × 3^4 interesting
        // orders for the classical optimizer vs 16 prices for ours.
        assert_eq!(classical_plan_space(5, 4, 3), 120 * 256 * 81);
        assert_eq!(collapsed_plan_space(5), 16);
        assert_eq!(classical_plan_space(1, 4, 3), 1);
        assert_eq!(collapsed_plan_space(1), 1);
    }

    #[test]
    fn exhaustive_agrees_with_greedy_on_chains() {
        let (spec, stats) = chain(4, &[50_000, 2_000, 80_000, 400]);
        let env = PlanEnv::default();
        let exhaustive = enumerate_left_deep(&spec, &stats, &env).unwrap();
        let greedy = optimize(&spec, &stats, &env).unwrap();
        // The greedy plan's join cost must be close to the optimum (the
        // greedy heuristic is exact on monotone chains like this one).
        let g = greedy.cost.weighted(&env.weights);
        let e = exhaustive.best_cost.weighted(&env.weights);
        // greedy.cost includes access costs; derive a bound instead of
        // equality: the exhaustive cost can never exceed the greedy total.
        assert!(e <= g * 1.0001, "exhaustive {e} vs greedy total {g}");
        // The optimum is a valid connected permutation. (Note it need
        // *not* start from the smallest table: chain connectivity can make
        // a mid-chain start cheaper — exactly why the enumerator exists as
        // a check on the greedy heuristic.)
        let mut seen = exhaustive.best_order.clone();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn enumeration_prunes_disconnected_prefixes() {
        let (spec, stats) = chain(5, &[1_000; 5]);
        let env = PlanEnv::default();
        let result = enumerate_left_deep(&spec, &stats, &env).unwrap();
        // A 5-chain has far fewer connected left-deep orders than 5! = 120.
        assert!(result.orders_examined < 120, "{}", result.orders_examined);
        assert!(result.orders_examined >= 16, "{}", result.orders_examined);
        assert_eq!(result.best_methods.len(), 4);
    }

    #[test]
    fn all_methods_hash_under_default_env() {
        let (spec, stats) = chain(3, &[10_000, 10_000, 10_000]);
        let result = enumerate_left_deep(&spec, &stats, &PlanEnv::default()).unwrap();
        for m in result.best_methods {
            assert!(matches!(m, JoinMethod::HybridHash | JoinMethod::SimpleHash));
        }
    }

    #[test]
    fn errors_on_bad_input() {
        let (mut spec, stats) = chain(3, &[10, 10, 10]);
        assert!(enumerate_left_deep(&spec, &stats[..2], &PlanEnv::default()).is_err());
        spec.joins.clear();
        assert!(enumerate_left_deep(&spec, &stats, &PlanEnv::default()).is_err());
    }
}
