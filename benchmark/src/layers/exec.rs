//! `mmdb-exec`: the §3 operators on `analytic_join`'s inputs with memory
//! at least the size of the input, in wall-clock time per input tuple.
//! The cost meter's simulated seconds are not reported.

use crate::probe::{median_run_ns, Reading};
use crate::sql::JoinInputs;
use mmdb_exec::aggregate::{hash_aggregate, AggFunc};
use mmdb_exec::join::grace::grace_hash_join;
use mmdb_exec::join::hybrid::hybrid_hash_join;
use mmdb_exec::join::sort_merge::sort_merge_join;
use mmdb_exec::select::select;
use mmdb_exec::sort::external_sort;
use mmdb_exec::{ExecContext, JoinSpec};
use mmdb_storage::MemRelation;
use mmdb_types::{CmpOp, Predicate};

/// `|M|` pages, what `mmdb-sql` grants every operator: far more than
/// either input, so nothing spills.
const MEM_PAGES: usize = 12_000;
const TUPLES_PER_PAGE: usize = 40;
const RUNS: usize = 15;

pub fn probe(inputs: &JoinInputs) -> Result<Vec<Reading>, String> {
    let relation = |schema: &mmdb_types::Schema, tuples: &[mmdb_types::Tuple]| {
        MemRelation::from_tuples(schema.clone(), TUPLES_PER_PAGE, tuples.to_vec())
            .map_err(|e| e.to_string())
    };
    let orders = relation(&inputs.orders_schema, &inputs.orders)?;
    let customers = relation(&inputs.customers_schema, &inputs.customers)?;
    let ctx = || ExecContext::new(MEM_PAGES, 1.2);
    // R is the smaller relation (customers.id), S the larger (orders.cust).
    let spec = || JoinSpec::new(0, 1);
    let join_tuples = (orders.tuple_count() + customers.tuple_count()) as f64;
    let order_tuples = orders.tuple_count() as f64;

    let hybrid = median_run_ns(RUNS, || {
        hybrid_hash_join(&customers, &orders, spec(), &ctx()).expect("hybrid")
    });
    let grace = median_run_ns(RUNS, || {
        grace_hash_join(&customers, &orders, spec(), &ctx()).expect("grace")
    });
    let sort_merge = median_run_ns(RUNS, || {
        sort_merge_join(&customers, &orders, spec(), &ctx()).expect("sort-merge")
    });
    let sort = median_run_ns(RUNS, || external_sort(&orders, 2, &ctx()));
    let aggregate = median_run_ns(RUNS, || {
        hash_aggregate(&orders, 1, &[AggFunc::Count, AggFunc::Sum(2)], &ctx()).expect("aggregate")
    });
    let pred = Predicate::cmp(2, CmpOp::Gt, inputs.amount_above);
    let selection = median_run_ns(RUNS, || select(&orders, &pred, &ctx()).expect("select"));

    Ok(vec![
        ("exec.hybrid_join_ns_per_tuple", hybrid / join_tuples, "ns"),
        ("exec.grace_join_ns_per_tuple", grace / join_tuples, "ns"),
        (
            "exec.sort_merge_join_ns_per_tuple",
            sort_merge / join_tuples,
            "ns",
        ),
        ("exec.external_sort_ns_per_tuple", sort / order_tuples, "ns"),
        (
            "exec.hash_aggregate_ns_per_tuple",
            aggregate / order_tuples,
            "ns",
        ),
        ("exec.select_ns_per_tuple", selection / order_tuples, "ns"),
    ])
}
