//! The Wisconsin benchmark (DeWitt 1983 — from the same research group as
//! the paper) running on this engine: the classic selections and join
//! through SQL, and the grouped aggregate and duplicate-eliminating
//! projection — which the SQL subset lacks — through the §3.9 operators,
//! reporting their simulated 1984 cost.
//!
//! ```text
//! cargo run --release --example wisconsin
//! ```

use mmdb_exec::aggregate::{hash_aggregate, AggFunc};
use mmdb_exec::project::hybrid_hash_project;
use mmdb_exec::{workload, ExecContext, MemRelation};
use mmdb_sql::{SqlDb, SqlSession};
use mmdb_suite::{insert_rows, scratch_engine};
use mmdb_types::{DataType, SystemParams};

/// Creates `name` with the Wisconsin schema and loads `rel` into it.
fn load(sql: &mut SqlSession, name: &str, rel: &MemRelation) {
    let columns = rel.schema().columns().iter().map(|c| match c.ty {
        DataType::Str => format!("{} TEXT", c.name),
        _ => format!("{} INT", c.name),
    });
    let columns: Vec<String> = columns.collect();
    sql.execute(&format!("CREATE TABLE {name} ({})", columns.join(", ")))
        .unwrap();
    insert_rows(sql, name, rel.tuples()).unwrap();
}

fn main() {
    let n = 10_000;
    println!(
        "Wisconsin benchmark on mmdb: two relations of {} and {n} tuples\n",
        n / 10
    );
    let (engine, dir) = scratch_engine("wisconsin");
    let mut sql = SqlDb::open(&engine).unwrap().session();
    let tenktup = workload::wisconsin(n, 2).unwrap();
    let onektup = workload::wisconsin(n / 10, 1).unwrap();
    load(&mut sql, "onektup", &onektup);
    load(&mut sql, "tenktup", &tenktup);

    let mut run = |label: &str, query: &str, want: usize| {
        let rows = sql.execute(query).unwrap().rows.len();
        println!("{label:<24} {rows:>6} rows   {query}");
        assert_eq!(rows, want, "{label}");
    };
    // Query 1: a 1 % selection, a range on unique1.
    let q1 = "SELECT * FROM tenktup WHERE unique1 >= 0 AND unique1 <= 99";
    run("Q1  1% selection:", q1, n / 100);
    // Query 3: a 10 % selection on `ten`.
    let q3 = "SELECT * FROM tenktup WHERE ten = 4";
    run("Q3  10% selection:", q3, n / 10);
    // Query 9-ish: onektup ⋈ tenktup on unique1.
    let qj = "SELECT * FROM onektup JOIN tenktup ON onektup.unique1 = tenktup.unique1";
    run("QJ  join on unique1:", qj, n / 10);

    // MIN per hundred-group: 100 groups fit memory, so one-pass hashing.
    let ctx = ExecContext::new(12_000, 1.2);
    let seconds = |ctx: &ExecContext| ctx.meter.snapshot().seconds(&SystemParams::table2());
    let qa = hash_aggregate(&tenktup, 4, &[AggFunc::Count, AggFunc::Min(0)], &ctx).unwrap();
    println!(
        "QA  min by `hundred`:    {:>6} rows  {:>10.6} sim s",
        qa.tuple_count(),
        seconds(&ctx)
    );
    assert_eq!(qa.tuple_count(), 100);

    // DISTINCT projection onto the string4 domain.
    let ctx = ExecContext::new(12_000, 1.2);
    let qp = hybrid_hash_project(&tenktup, &[5], &ctx).unwrap();
    println!(
        "QP  distinct string4:    {:>6} rows  {:>10.6} sim s",
        qp.tuple_count(),
        seconds(&ctx)
    );
    assert_eq!(qp.tuple_count(), 4);

    println!(
        "\nall Wisconsin query shapes — selections at controlled selectivity,\n\
         equijoins on unique keys, grouped aggregates, duplicate-eliminating\n\
         projection — execute with the §4 planner and §3 hash operators."
    );
    engine.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
