//! `mmdb-planner`: one call of the §4 optimizer on `analytic_join`'s
//! query, with exact statistics.

use crate::probe::{per_call_ns, Reading};
use crate::sql::JoinInputs;
use mmdb_planner::optimizer::PlanEnv;
use mmdb_planner::{optimize, ColumnStats, JoinEdge, QuerySpec, TableRef, TableStats};
use mmdb_types::{CmpOp, Predicate, Tuple, Value};
use std::collections::HashSet;
use std::hint::black_box;

/// The page geometry `mmdb-sql` plans with.
const TUPLES_PER_PAGE: u64 = 40;

fn exact_stats(name: &str, tuples: &[Tuple], arity: usize) -> TableStats {
    let columns = (0..arity)
        .map(|c| {
            let values: Vec<&Value> = tuples.iter().map(|t| t.get(c)).collect();
            ColumnStats {
                distinct: values.iter().collect::<HashSet<_>>().len().max(1) as u64,
                min: values.iter().min().map(|v| (*v).clone()),
                max: values.iter().max().map(|v| (*v).clone()),
            }
        })
        .collect();
    TableStats {
        name: name.to_string(),
        tuples: tuples.len() as u64,
        pages: (tuples.len() as u64).div_ceil(TUPLES_PER_PAGE),
        tuples_per_page: TUPLES_PER_PAGE,
        columns,
        indexed_columns: Vec::new(),
        ordered_indexed_columns: Vec::new(),
    }
}

pub fn probe(inputs: &JoinInputs) -> Result<Vec<Reading>, String> {
    let spec = QuerySpec {
        tables: vec![
            TableRef::filtered("orders", Predicate::cmp(2, CmpOp::Gt, inputs.amount_above)),
            TableRef::plain("customers"),
        ],
        joins: vec![JoinEdge {
            left_table: 0,
            left_column: 1,
            right_table: 1,
            right_column: 0,
        }],
    };
    let stats = [
        exact_stats("orders", &inputs.orders, inputs.orders_schema.arity()),
        exact_stats(
            "customers",
            &inputs.customers,
            inputs.customers_schema.arity(),
        ),
    ];
    let env = PlanEnv::default();
    optimize(&spec, &stats, &env).map_err(|e| e.to_string())?;
    let ns = per_call_ns(2_000, || {
        black_box(optimize(black_box(&spec), &stats, &env).expect("optimize"));
    });
    Ok(vec![("planner.optimize_us", ns / 1e3, "us")])
}
