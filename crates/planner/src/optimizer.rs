//! The optimizer: §4's reduced planning algorithm.
//!
//! Because hash-based operators are fastest with large memory and are
//! insensitive to input order, there is no "interesting order"
//! bookkeeping: the optimizer (1) pushes selections into the access paths,
//! (2) orders joins greedily so the most selective operations happen
//! first, and (3) prices the four join methods with the §3 models and
//! keeps the cheapest — which, per the paper, is hybrid hash essentially
//! always.

use crate::cost::{access_cost, join_cost, PlanCost};
use crate::logical::QuerySpec;
use crate::physical::{AccessPath, JoinMethod, PhysicalPlan};
use crate::stats::{estimate_join_cardinality, estimate_selectivity, TableStats};
use mmdb_types::cast::{f64_from_u64, u64_from_f64};
use mmdb_types::{CostWeights, Error, Predicate, Result, SystemParams};

/// Planning environment: machine prices, objective weights, memory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanEnv {
    /// Table 2-style operation prices.
    pub params: SystemParams,
    /// Selinger weights (`W`).
    pub weights: CostWeights,
    /// `|M|` pages available per operator.
    pub mem_pages: usize,
    /// Whether base tables are memory-resident (§5's assumption).
    pub resident: bool,
}

impl Default for PlanEnv {
    fn default() -> Self {
        PlanEnv {
            params: SystemParams::table2(),
            weights: CostWeights::default(),
            mem_pages: 12_000,
            resident: true,
        }
    }
}

/// The optimizer's output.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedQuery {
    /// Executable operator tree.
    pub plan: PhysicalPlan,
    /// Estimated result cardinality.
    pub estimated_rows: f64,
    /// Estimated cost under the environment's objective.
    pub cost: PlanCost,
}

/// Splits a conjunctive predicate into an indexable equality on one of
/// `indexed` columns plus the residual conjunction.
fn split_indexable(
    pred: &Predicate,
    indexed: &[usize],
) -> Option<(usize, mmdb_types::Value, Predicate)> {
    match pred {
        Predicate::Compare {
            column,
            op: mmdb_types::CmpOp::Eq,
            value,
        } if indexed.contains(column) => Some((*column, value.clone(), Predicate::True)),
        Predicate::And(a, b) => {
            if let Some((c, v, residual)) = split_indexable(a, indexed) {
                Some((c, v, residual.and((**b).clone())))
            } else if let Some((c, v, residual)) = split_indexable(b, indexed) {
                Some((c, v, (**a).clone().and(residual)))
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Splits a conjunctive predicate into a range over an ordered-indexed
/// column plus the residual. `Between` maps directly; `StrPrefix` becomes
/// the range `[prefix, prefix·U+10FFFF]` — the paper's `"J*"` query; a
/// half-open comparison (`<`, `≤`, `>`, `≥`) closes its open end with the
/// column's min/max from the statistics when known. The inequality itself
/// stays in the residual so boundary strictness (`<` vs `≤`) is enforced
/// by re-checking, not by the scan bounds.
fn split_range_indexable(
    pred: &Predicate,
    stats: &TableStats,
) -> Option<(usize, mmdb_types::Value, mmdb_types::Value, Predicate)> {
    use mmdb_types::CmpOp;
    let ordered = &stats.ordered_indexed_columns;
    match pred {
        Predicate::Between { column, lo, hi } if ordered.contains(column) => {
            Some((*column, lo.clone(), hi.clone(), Predicate::True))
        }
        Predicate::StrPrefix { column, prefix } if ordered.contains(column) => {
            let hi = format!("{prefix}\u{10FFFF}");
            Some((
                *column,
                mmdb_types::Value::Str(prefix.clone()),
                mmdb_types::Value::Str(hi),
                Predicate::True,
            ))
        }
        Predicate::Compare { column, op, value }
            if ordered.contains(column)
                && matches!(op, CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge) =>
        {
            let col_stats = stats.columns.get(*column)?;
            let (lo, hi) = match op {
                CmpOp::Lt | CmpOp::Le => (col_stats.min.clone()?, value.clone()),
                _ => (value.clone(), col_stats.max.clone()?),
            };
            Some((*column, lo, hi, pred.clone()))
        }
        Predicate::And(a, b) => {
            if let Some((c, lo, hi, residual)) = split_range_indexable(a, stats) {
                Some((c, lo, hi, residual.and((**b).clone())))
            } else if let Some((c, lo, hi, residual)) = split_range_indexable(b, stats) {
                Some((c, lo, hi, (**a).clone().and(residual)))
            } else {
                None
            }
        }
        _ => None,
    }
}

struct JoinedState {
    plan: PhysicalPlan,
    rows: f64,
    tables: Vec<usize>,  // table indices joined so far
    offsets: Vec<usize>, // column offset of each joined table in the output
    arity: usize,
    cost: PlanCost,
}

/// Plans a conjunctive equijoin query. `stats[i]` describes
/// `spec.tables[i]`.
pub fn optimize(spec: &QuerySpec, stats: &[TableStats], env: &PlanEnv) -> Result<PlannedQuery> {
    if spec.tables.is_empty() {
        return Err(Error::Planning("query has no tables".into()));
    }
    if stats.len() != spec.tables.len() {
        return Err(Error::Planning(format!(
            "{} tables but {} stats blocks",
            spec.tables.len(),
            stats.len()
        )));
    }
    if !spec.is_connected() {
        return Err(Error::Planning("join graph is not connected".into()));
    }
    for e in &spec.joins {
        if e.left_table >= spec.tables.len() || e.right_table >= spec.tables.len() {
            return Err(Error::Planning("join edge references unknown table".into()));
        }
    }

    // Per-table estimates and access paths (selection pushdown happens
    // here: the predicate lives inside the access path).
    let mut table_rows = Vec::with_capacity(spec.tables.len());
    let mut access_paths = Vec::with_capacity(spec.tables.len());
    let mut access_costs = Vec::with_capacity(spec.tables.len());
    for (t, st) in spec.tables.iter().zip(stats) {
        let sel = estimate_selectivity(&t.predicate, st);
        let rows = (f64_from_u64(st.tuples) * sel).max(1.0);
        // Prefer an equality lookup, then an ordered-index range scan,
        // then a full scan with the predicate applied per tuple.
        let (path, kind) = if let Some((column, value, residual)) =
            split_indexable(&t.predicate, &st.indexed_columns)
        {
            (
                AccessPath::IndexLookup {
                    table: t.table.clone(),
                    column,
                    value,
                    residual,
                },
                crate::cost::AccessKind::IndexEq,
            )
        } else if let Some((column, lo, hi, residual)) = split_range_indexable(&t.predicate, st) {
            (
                AccessPath::IndexRange {
                    table: t.table.clone(),
                    column,
                    lo,
                    hi,
                    residual,
                },
                crate::cost::AccessKind::IndexRange { matched_rows: rows },
            )
        } else {
            (
                AccessPath::SeqScan {
                    table: t.table.clone(),
                    predicate: t.predicate.clone(),
                },
                crate::cost::AccessKind::SeqScan,
            )
        };
        table_rows.push(rows);
        access_costs.push(access_cost(
            f64_from_u64(st.tuples),
            f64_from_u64(st.pages),
            env.resident,
            kind,
            &env.params,
        ));
        access_paths.push(path);
    }

    // Single table: done.
    if spec.tables.len() == 1 {
        return Ok(PlannedQuery {
            plan: PhysicalPlan::Access(access_paths.into_iter().next().expect("one table")),
            estimated_rows: table_rows[0],
            cost: access_costs[0],
        });
    }

    // Greedy left-deep join ordering: start from the most selective
    // (smallest estimated) table, then repeatedly attach the connected
    // table that minimizes the estimated intermediate result.
    let start = (0..spec.tables.len())
        .min_by(|&a, &b| table_rows[a].total_cmp(&table_rows[b]))
        .expect("non-empty");
    let mut state = JoinedState {
        plan: PhysicalPlan::Access(access_paths[start].clone()),
        rows: table_rows[start],
        tables: vec![start],
        offsets: vec![0; spec.tables.len()],
        arity: stats[start].columns.len(),
        cost: access_costs[start],
    };
    state.offsets[start] = 0;

    let tpp = stats
        .iter()
        .map(|s| s.tuples_per_page)
        .max()
        .unwrap_or(crate::TUPLES_PER_PAGE);
    while state.tables.len() < spec.tables.len() {
        // Candidate tables connected to the joined set.
        let mut best: Option<(usize, &crate::logical::JoinEdge, f64)> = None;
        for e in &spec.joins {
            let (inside, outside) = if state.tables.contains(&e.left_table)
                && !state.tables.contains(&e.right_table)
            {
                (e.left_table, e.right_table)
            } else if state.tables.contains(&e.right_table) && !state.tables.contains(&e.left_table)
            {
                (e.right_table, e.left_table)
            } else {
                continue;
            };
            let (in_col, out_col) = if inside == e.left_table {
                (e.left_column, e.right_column)
            } else {
                (e.right_column, e.left_column)
            };
            let d_in = stats[inside]
                .distinct(in_col)
                .min(u64_from_f64(state.rows.ceil()));
            let d_out = stats[outside]
                .distinct(out_col)
                .min(u64_from_f64(table_rows[outside].ceil()));
            let est = estimate_join_cardinality(state.rows, d_in, table_rows[outside], d_out);
            if best.map(|(_, _, b)| est < b).unwrap_or(true) {
                best = Some((outside, e, est));
            }
        }
        let Some((next, edge, est_rows)) = best else {
            return Err(Error::Planning("join graph is not connected".into()));
        };

        // Key positions in the combined output schema.
        let (inside_tbl, in_col, out_col) = if state.tables.contains(&edge.left_table) {
            (edge.left_table, edge.left_column, edge.right_column)
        } else {
            (edge.right_table, edge.right_column, edge.left_column)
        };
        let left_key = state.offsets[inside_tbl] + in_col;

        // Price all four methods, keep the cheapest (§4: with hashing
        // insensitive to order this is a per-join local decision). Ties —
        // e.g. simple vs hybrid hash when R fits entirely in memory, whose
        // formulas agree to rounding — resolve in `JoinMethod::ALL` order,
        // which puts hybrid hash first.
        let priced: Vec<(JoinMethod, f64)> = JoinMethod::ALL
            .iter()
            .map(|m| {
                let c = join_cost(
                    *m,
                    state.rows,
                    table_rows[next],
                    tpp,
                    &env.params,
                    env.mem_pages,
                )
                .weighted(&env.weights);
                (*m, c)
            })
            .collect();
        let min_cost = priced.iter().map(|(_, c)| *c).fold(f64::INFINITY, f64::min);
        let tolerance = min_cost.abs() * 1e-9 + 1e-12;
        let method = priced
            .iter()
            .find(|(_, c)| *c <= min_cost + tolerance)
            .expect("four candidates")
            .0;
        let jcost = join_cost(
            method,
            state.rows,
            table_rows[next],
            tpp,
            &env.params,
            env.mem_pages,
        );

        state.offsets[next] = state.arity;
        state.arity += stats[next].columns.len();
        state.cost = state.cost.plus(&access_costs[next]).plus(&jcost);
        state.plan = PhysicalPlan::Join {
            left: Box::new(state.plan),
            right: Box::new(PhysicalPlan::Access(access_paths[next].clone())),
            left_key,
            right_key: out_col,
            method,
            estimated_rows: est_rows,
        };
        state.rows = est_rows.max(1.0);
        state.tables.push(next);
    }

    Ok(PlannedQuery {
        plan: state.plan,
        estimated_rows: state.rows,
        cost: state.cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::{JoinEdge, TableRef};
    use crate::stats::ColumnStats;
    use mmdb_types::Value;

    fn table(name: &str, tuples: u64, distincts: &[u64]) -> TableStats {
        TableStats {
            name: name.into(),
            tuples,
            pages: tuples.div_ceil(40),
            tuples_per_page: 40,
            columns: distincts
                .iter()
                .map(|&d| ColumnStats {
                    distinct: d,
                    min: None,
                    max: None,
                })
                .collect(),
            indexed_columns: vec![0],
            ordered_indexed_columns: vec![0],
        }
    }

    fn chain_query(preds: [Predicate; 3]) -> (QuerySpec, Vec<TableStats>) {
        let [pa, pb, pc] = preds;
        let spec = QuerySpec {
            tables: vec![
                TableRef::filtered("a", pa),
                TableRef::filtered("b", pb),
                TableRef::filtered("c", pc),
            ],
            joins: vec![
                JoinEdge {
                    left_table: 0,
                    left_column: 1,
                    right_table: 1,
                    right_column: 0,
                },
                JoinEdge {
                    left_table: 1,
                    left_column: 1,
                    right_table: 2,
                    right_column: 0,
                },
            ],
        };
        let stats = vec![
            table("a", 100_000, &[100_000, 1_000]),
            table("b", 100_000, &[1_000, 500]),
            table("c", 100_000, &[500, 100]),
        ];
        (spec, stats)
    }

    #[test]
    fn most_selective_table_leads_the_plan() {
        // Equality on an id column (1/100 000) makes `c` tiny.
        let (mut spec, stats) =
            chain_query([Predicate::True, Predicate::True, Predicate::eq(0, 7i64)]);
        spec.tables[2].predicate = Predicate::eq(0, 7i64);
        let planned = optimize(&spec, &stats, &PlanEnv::default()).unwrap();
        assert_eq!(
            planned.plan.tables()[0],
            "c",
            "selective table should be joined first:\n{}",
            planned.plan
        );
        assert_eq!(planned.plan.join_count(), 2);
    }

    #[test]
    fn hash_join_chosen_with_large_memory() {
        let (spec, stats) = chain_query([Predicate::True, Predicate::True, Predicate::True]);
        let planned = optimize(&spec, &stats, &PlanEnv::default()).unwrap();
        for m in planned.plan.methods() {
            assert_eq!(m, JoinMethod::HybridHash, "§4: hashing wins");
        }
    }

    #[test]
    fn index_lookup_used_for_equality_on_indexed_column() {
        let spec = QuerySpec::single(TableRef::filtered(
            "emp",
            Predicate::eq(0, 42i64).and(Predicate::eq(1, 3i64)),
        ));
        let stats = vec![table("emp", 10_000, &[10_000, 10])];
        let planned = optimize(&spec, &stats, &PlanEnv::default()).unwrap();
        match &planned.plan {
            PhysicalPlan::Access(AccessPath::IndexLookup {
                column,
                value,
                residual,
                ..
            }) => {
                assert_eq!(*column, 0);
                assert_eq!(value, &Value::Int(42));
                assert_ne!(residual, &Predicate::True, "residual kept");
            }
            other => panic!("expected index lookup, got {other:?}"),
        }
        assert!(planned.estimated_rows < 2.0);
    }

    #[test]
    fn range_access_path_for_between_and_prefix() {
        // Between on an ordered-indexed column → IndexRange.
        let spec = QuerySpec::single(TableRef::filtered(
            "emp",
            Predicate::Between {
                column: 0,
                lo: Value::Int(10),
                hi: Value::Int(20),
            },
        ));
        let stats = vec![table("emp", 10_000, &[10_000, 10])];
        let planned = optimize(&spec, &stats, &PlanEnv::default()).unwrap();
        assert!(matches!(
            planned.plan,
            PhysicalPlan::Access(AccessPath::IndexRange { column: 0, .. })
        ));
        // The paper's J* prefix query also becomes a range scan.
        let spec = QuerySpec::single(TableRef::filtered(
            "emp",
            Predicate::StrPrefix {
                column: 0,
                prefix: "J".into(),
            },
        ));
        let planned = optimize(&spec, &stats, &PlanEnv::default()).unwrap();
        match &planned.plan {
            PhysicalPlan::Access(AccessPath::IndexRange { lo, hi, .. }) => {
                assert_eq!(lo, &Value::Str("J".into()));
                assert!(matches!(hi, Value::Str(s) if s.starts_with('J')));
            }
            other => panic!("expected range scan for prefix, got {other:?}"),
        }
        // Equality still wins over range when both apply.
        let spec = QuerySpec::single(TableRef::filtered(
            "emp",
            Predicate::eq(0, 5i64).and(Predicate::Between {
                column: 0,
                lo: Value::Int(0),
                hi: Value::Int(100),
            }),
        ));
        let planned = optimize(&spec, &stats, &PlanEnv::default()).unwrap();
        assert!(matches!(
            planned.plan,
            PhysicalPlan::Access(AccessPath::IndexLookup { .. })
        ));
    }

    #[test]
    fn half_open_comparisons_use_range_scans_when_stats_close_them() {
        use crate::stats::ColumnStats;
        use mmdb_types::CmpOp;
        let mut st = table("emp", 10_000, &[10_000, 10]);
        st.columns[0] = ColumnStats {
            distinct: 10_000,
            min: Some(Value::Int(0)),
            max: Some(Value::Int(9_999)),
        };
        let spec = QuerySpec::single(TableRef::filtered(
            "emp",
            Predicate::cmp(0, CmpOp::Ge, 9_000i64),
        ));
        let planned = optimize(&spec, &[st.clone()], &PlanEnv::default()).unwrap();
        match &planned.plan {
            PhysicalPlan::Access(AccessPath::IndexRange {
                lo, hi, residual, ..
            }) => {
                assert_eq!(lo, &Value::Int(9_000));
                assert_eq!(hi, &Value::Int(9_999));
                assert_ne!(residual, &Predicate::True, "strictness re-checked");
            }
            other => panic!("expected range scan, got {other:?}"),
        }
        // Without min/max stats the open end cannot close: fall back to a
        // scan.
        st.columns[0] = ColumnStats::unknown();
        let planned = optimize(&spec, &[st], &PlanEnv::default()).unwrap();
        assert!(matches!(
            planned.plan,
            PhysicalPlan::Access(AccessPath::SeqScan { .. })
        ));
    }

    #[test]
    fn seq_scan_when_no_index_applies() {
        let spec = QuerySpec::single(TableRef::filtered("emp", Predicate::eq(1, 3i64)));
        let stats = vec![table("emp", 10_000, &[10_000, 10])];
        let planned = optimize(&spec, &stats, &PlanEnv::default()).unwrap();
        assert!(matches!(
            planned.plan,
            PhysicalPlan::Access(AccessPath::SeqScan { .. })
        ));
    }

    #[test]
    fn errors_on_bad_specs() {
        let (spec, stats) = chain_query([Predicate::True, Predicate::True, Predicate::True]);
        // Mismatched stats.
        assert!(optimize(&spec, &stats[..2], &PlanEnv::default()).is_err());
        // Disconnected graph.
        let mut disc = spec.clone();
        disc.joins.pop();
        assert!(optimize(&disc, &stats, &PlanEnv::default()).is_err());
        // Empty query.
        let empty = QuerySpec {
            tables: vec![],
            joins: vec![],
        };
        assert!(optimize(&empty, &[], &PlanEnv::default()).is_err());
    }

    #[test]
    fn join_keys_account_for_schema_offsets() {
        let (spec, stats) = chain_query([Predicate::True, Predicate::True, Predicate::True]);
        let planned = optimize(&spec, &stats, &PlanEnv::default()).unwrap();
        // Whatever the order, every join's keys must be within the
        // accumulated arity.
        fn check(plan: &PhysicalPlan, stats_arity: usize) -> usize {
            match plan {
                PhysicalPlan::Access(_) => stats_arity,
                PhysicalPlan::Join {
                    left,
                    right,
                    left_key,
                    right_key,
                    ..
                } => {
                    let la = check(left, stats_arity);
                    let ra = check(right, stats_arity);
                    assert!(left_key < &la, "left key {left_key} out of arity {la}");
                    assert!(right_key < &ra);
                    la + ra
                }
            }
        }
        check(&planned.plan, 2);
    }

    #[test]
    fn plan_cost_is_positive_and_grows_with_size() {
        let (spec, stats) = chain_query([Predicate::True, Predicate::True, Predicate::True]);
        let small = optimize(&spec, &stats, &PlanEnv::default()).unwrap();
        let big_stats: Vec<TableStats> = stats
            .iter()
            .map(|s| TableStats {
                tuples: s.tuples * 10,
                pages: s.pages * 10,
                ..s.clone()
            })
            .collect();
        let big = optimize(&spec, &big_stats, &PlanEnv::default()).unwrap();
        let w = CostWeights::default();
        assert!(small.cost.weighted(&w) > 0.0);
        assert!(big.cost.weighted(&w) > small.cost.weighted(&w));
    }
}
