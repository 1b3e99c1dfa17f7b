//! End-to-end scenarios across the layers. The model claims plan on exact
//! statistics and run the plan with `mmdb_exec::plan` over memory-resident
//! relations, reading the cost meter; the database claims run SQL through
//! an in-process `SqlSession` over a live engine.

use mmdb_bench::plan_and_run;
use mmdb_exec::aggregate::{group, hash_aggregate, AggFunc, Strategy};
use mmdb_exec::{ExecContext, MemRelation};
use mmdb_planner::optimizer::PlanEnv;
use mmdb_planner::{optimize, AccessPath, JoinEdge, PhysicalPlan, QuerySpec, TableRef, TableStats};
use mmdb_sql::{SqlDb, SqlSession};
use mmdb_suite::{insert_rows, scratch_engine};
use mmdb_types::{CmpOp, DataType, Predicate, Schema, Tuple, Value, WorkloadRng};

/// `emp` and `dept`, 40 tuples to a page.
fn company(employees: usize, depts: i64) -> (MemRelation, MemRelation) {
    let emps = WorkloadRng::seeded(42).employees(employees, depts);
    let dept_rows =
        (0..depts).map(|d| Tuple::new(vec![Value::Int(d), Value::Str(format!("d{d}"))]));
    let emp_schema = Schema::of(&[
        ("id", DataType::Int),
        ("name", DataType::Str),
        ("salary", DataType::Float),
        ("dept", DataType::Int),
    ]);
    let dept_schema = Schema::of(&[("id", DataType::Int), ("name", DataType::Str)]);
    (
        MemRelation::from_tuples(emp_schema, 40, emps).unwrap(),
        MemRelation::from_tuples(dept_schema, 40, dept_rows.collect()).unwrap(),
    )
}

/// `emp` and `dept` created and loaded through `sql`.
fn load_company(sql: &mut SqlSession, employees: usize, depts: i64) {
    let (emp, dept) = company(employees, depts);
    sql.execute("CREATE TABLE emp (id INT, name TEXT, salary FLOAT, dept INT)")
        .unwrap();
    sql.execute("CREATE TABLE dept (id INT, name TEXT)")
        .unwrap();
    insert_rows(sql, "emp", emp.tuples()).unwrap();
    insert_rows(sql, "dept", dept.tuples()).unwrap();
}

fn rows(sql: &mut SqlSession, query: &str) -> usize {
    sql.execute(query).unwrap().rows.len()
}

#[test]
fn full_lifecycle_load_index_query_update_delete() {
    let (engine, dir) = scratch_engine("e2e-lifecycle");
    let db = SqlDb::open(&engine).unwrap();
    let mut sql = db.session();
    load_company(&mut sql, 2_000, 20);

    // Point lookup (builds the id index), then a planned join.
    assert_eq!(rows(&mut sql, "SELECT * FROM emp WHERE id = 999"), 1);
    let join = "SELECT emp.id, dept.name FROM emp JOIN dept ON emp.dept = dept.id";
    assert_eq!(rows(&mut sql, join), 2_000);

    // Update a keyed column, verify through its index.
    let moved = sql
        .execute("UPDATE emp SET dept = 19 WHERE dept = 7")
        .unwrap();
    assert!(moved.affected > 0);
    assert_eq!(rows(&mut sql, "SELECT id FROM emp WHERE dept = 7"), 0);

    // Delete and re-query.
    let removed = sql.execute("DELETE FROM emp WHERE id >= 1000").unwrap();
    assert_eq!(removed.affected, 1_000);
    assert_eq!(rows(&mut sql, join), 1_000);
    engine.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn query_answers_are_memory_invariant() {
    // The §3/§4 machinery must never change *answers*, only costs.
    let (emp, dept) = company(3_000, 15);
    let spec = QuerySpec {
        tables: vec![
            TableRef::filtered("emp", Predicate::cmp(2, CmpOp::Gt, 50_000.0)),
            TableRef::plain("dept"),
        ],
        joins: vec![JoinEdge {
            left_table: 0,
            left_column: 3,
            right_table: 1,
            right_column: 0,
        }],
    };
    let tables = [("emp", &emp), ("dept", &dept)];
    let answer = |mem_pages| {
        let mut rows = plan_and_run(&spec, &tables, mem_pages)
            .unwrap()
            .rows
            .into_tuples();
        rows.sort();
        rows
    };
    let ample = answer(12_000);
    assert!(!ample.is_empty());
    assert_eq!(ample, answer(6));
}

#[test]
fn aggregate_joins_and_projection_compose() {
    let (emp, _) = company(5_000, 25);
    let ctx = ExecContext::new(12_000, 1.2);
    // Average salary by department (§3.9's example) ...
    let by_dept = hash_aggregate(&emp, 3, &[AggFunc::Count, AggFunc::Avg(2)], &ctx).unwrap();
    assert_eq!(by_dept.tuple_count(), 25);
    let total: i64 = by_dept
        .tuples()
        .iter()
        .map(|t| t.get(1).as_int().unwrap())
        .sum();
    assert_eq!(total, 5_000);
    // ... and DISTINCT projection agrees on the group count.
    let distinct = group(&emp, &[3], &[], Strategy::HybridHash, &ctx).unwrap();
    assert_eq!(distinct.tuple_count(), 25);
}

#[test]
fn planned_range_query_uses_the_ordered_index() {
    // Given an ordered index on `id`, the §4 planner chooses a range scan
    // of it; the SQL layer answers the same range by walking the B+-tree
    // it built for the column once a scan found the range selective.
    let (emp, _) = company(2_000, 10);
    let mut stats = TableStats::exact("emp", 40, 4, emp.tuples());
    (stats.indexed_columns, stats.ordered_indexed_columns) = (vec![0], vec![0]);
    let range = Predicate::Between {
        column: 0,
        lo: Value::Int(100),
        hi: Value::Int(199),
    };
    let spec = QuerySpec::single(TableRef::filtered("emp", range));
    let planned = optimize(&spec, &[stats], &PlanEnv::default()).unwrap();
    assert!(
        matches!(
            planned.plan,
            PhysicalPlan::Access(AccessPath::IndexRange { .. })
        ),
        "expected a range plan:\n{}",
        planned.plan
    );

    let (engine, dir) = scratch_engine("e2e-range");
    let db = SqlDb::open(&engine).unwrap();
    let mut sql = db.session();
    load_company(&mut sql, 2_000, 10);
    let query = "SELECT * FROM emp WHERE id >= 100 AND id <= 199";
    let scanned = || {
        engine
            .stats()
            .counter("mmdb_sql_rows_scanned_total")
            .unwrap()
    };
    assert_eq!(rows(&mut sql, query), 100);
    let before = scanned();
    assert_eq!(rows(&mut sql, query), 100);
    assert_eq!(scanned(), before, "the second range walks the index");
    engine.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn simulated_seconds_track_memory_pressure() {
    let mut rng = WorkloadRng::seeded(3);
    let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
    let mut keyed = || MemRelation::from_tuples(schema.clone(), 40, rng.keyed_tuples(4_000, 1_000));
    let (r, s) = (keyed().unwrap(), keyed().unwrap());
    let spec = QuerySpec {
        tables: vec![TableRef::plain("r"), TableRef::plain("s")],
        joins: vec![JoinEdge {
            left_table: 0,
            left_column: 0,
            right_table: 1,
            right_column: 0,
        }],
    };
    let seconds = |mem_pages| {
        let run = plan_and_run(&spec, &[("r", &r), ("s", &s)], mem_pages).unwrap();
        run.simulated_seconds()
    };
    let (tight, ample) = (seconds(10), seconds(10_000));
    assert!(
        tight > ample * 3.0,
        "starved join should cost much more: {tight} vs {ample}"
    );
}
