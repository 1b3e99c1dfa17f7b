//! `mmdb-sql`: the parser, one `SqlSession::run` per statement kind, the
//! plan-and-execute half of a join without its catalog snapshot, the row
//! codec, and how many engine keys one row costs.

use crate::probe::{median_run_ns, per_call_ns, per_call_percentiles_ns, LoadedDb, Reading};
use mmdb_benchmark::gen::{Plan, Sizes, Workload};
use mmdb_sql::catalog::{Catalog, TableEntry};
use mmdb_sql::{codec, parse, query, Statement};
use mmdb_types::{DataType, Schema, Tuple, Value};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;

/// The `analytic_join` tables as tuples, for the probes below the SQL
/// layer (planner, exec) to build their inputs from.
pub struct JoinInputs {
    pub orders_schema: Schema,
    pub customers_schema: Schema,
    pub orders: Vec<Tuple>,
    pub customers: Vec<Tuple>,
    /// A threshold one of the generated joins uses.
    pub amount_above: i64,
}

fn run(session: &mut mmdb_sql::SqlSession, stmt: &Statement) {
    session.run(stmt).expect("probe statement failed");
}

fn table_of(db: &LoadedDb, table: &str) -> Result<Vec<Tuple>, String> {
    let rows = db
        .db
        .session()
        .execute(&format!("SELECT * FROM {table}"))
        .map_err(|e| e.to_string())?
        .rows;
    Ok(rows.into_iter().map(Tuple::new).collect())
}

pub fn probe(
    seed: u64,
    sizes: &Sizes,
    scratch: &Path,
) -> Result<(Vec<Reading>, JoinInputs), String> {
    let mut out: Vec<Reading> = Vec::new();

    // -- oltp_transfer's statements, on its table ---------------------
    let plan = Plan::build(Workload::OltpTransfer, seed, 1, sizes);
    let transfer = &plan.primary[0][0].sql;
    out.push((
        "sql.parse_update_ns",
        per_call_ns(5_000, || {
            black_box(parse(black_box(&transfer[1])).expect("parse"));
        }),
        "ns",
    ));
    let db = LoadedDb::open(&plan, &scratch.join("sql-oltp"))?;
    let mut session = db.db.session();
    let parsed: Vec<Vec<Statement>> = plan.primary[0]
        .iter()
        .take(600)
        .map(|op| op.sql.iter().map(|s| parse(s).expect("parse")).collect())
        .collect();
    let (mut begin, mut update, mut commit) = (Vec::new(), Vec::new(), Vec::new());
    for stmts in &parsed {
        let mut timed = |stmt: &Statement, into: Option<&mut Vec<u64>>| {
            let t = std::time::Instant::now();
            run(&mut session, stmt);
            if let Some(samples) = into {
                samples.push(t.elapsed().as_nanos() as u64);
            }
        };
        let [b, u1, u2, c] = stmts.as_slice() else {
            return Err("a transfer is four statements".to_string());
        };
        timed(b, Some(&mut begin));
        // Inside the open transaction: no commit wait is mixed in.
        timed(u1, Some(&mut update));
        timed(u2, None);
        timed(c, Some(&mut commit));
    }
    drop(session);
    db.close()?;
    let p50_us =
        |ns: &mut Vec<u64>| mmdb_benchmark::stats::percentile(ns, 0.5).unwrap_or(0) as f64 / 1e3;
    out.push(("sql.run_begin_us", p50_us(&mut begin), "us"));
    out.push(("sql.run_update_us", p50_us(&mut update), "us"));
    out.push(("sql.run_commit_us", p50_us(&mut commit), "us"));

    // -- point_read's statement, on its table ------------------------
    let plan = Plan::build(Workload::PointRead, seed, 1, sizes);
    let db = LoadedDb::open(&plan, &scratch.join("sql-point"))?;
    let mut session = db.db.session();
    let selects: Vec<Statement> = plan.primary[0]
        .iter()
        .take(64)
        .map(|op| parse(&op.sql[0]).expect("parse"))
        .collect();
    let mut i = 0;
    let (p50, _) = per_call_percentiles_ns(300, || {
        i = (i + 1) % selects.len();
        black_box(session.run(&selects[i]).expect("point select"));
    });
    out.push(("sql.run_point_select_us", p50 / 1e3, "us"));
    drop(session);
    db.close()?;

    // -- analytic_join's statement, on its tables ---------------------
    let plan = Plan::build(Workload::AnalyticJoin, seed, 1, sizes);
    let join_sql = &plan.primary[0][0].sql[0];
    out.push((
        "sql.parse_join_ns",
        per_call_ns(5_000, || {
            black_box(parse(black_box(join_sql)).expect("parse"));
        }),
        "ns",
    ));
    let db = LoadedDb::open(&plan, &scratch.join("sql-join"))?;
    let mut session = db.db.session();
    let join = parse(join_sql).map_err(|e| e.to_string())?;
    let run_join = median_run_ns(40, || session.run(&join).expect("join"));
    out.push(("sql.run_join_us", run_join / 1e3, "us"));
    let inputs = JoinInputs {
        orders_schema: Schema::of(&[
            ("id", DataType::Int),
            ("cust", DataType::Int),
            ("amount", DataType::Int),
            ("note", DataType::Str),
        ]),
        customers_schema: Schema::of(&[
            ("id", DataType::Int),
            ("region", DataType::Int),
            ("name", DataType::Str),
        ]),
        orders: table_of(&db, "orders")?,
        customers: table_of(&db, "customers")?,
        amount_above: 9_250,
    };
    drop(session);
    db.close()?;

    // The same join with the catalog snapshot (and its row clones) taken
    // off the clock: plan + execute + project only.
    let Statement::Select(select) = &join else {
        return Err("the join did not parse as a SELECT".to_string());
    };
    let mut catalog = Catalog::default();
    for (id, (name, schema, tuples)) in [
        ("orders", &inputs.orders_schema, &inputs.orders),
        ("customers", &inputs.customers_schema, &inputs.customers),
    ]
    .into_iter()
    .enumerate()
    {
        let rows: BTreeMap<u32, Tuple> = (0u32..).zip(tuples.iter().cloned()).collect();
        catalog.install(
            name,
            TableEntry {
                id: id as u32,
                schema: schema.clone(),
                next_rid: rows.len() as u32,
                rows,
                pending_owner: None,
            },
        );
    }
    let mut plan_exec = Vec::with_capacity(40);
    for _ in 0..41 {
        let tables = query::snapshot_tables(select, &catalog, None).map_err(|e| e.to_string())?;
        let t = std::time::Instant::now();
        black_box(query::run_select_on(select, tables).map_err(|e| e.to_string())?);
        plan_exec.push(t.elapsed().as_nanos() as f64);
    }
    out.push((
        "sql.plan_exec_join_us",
        mmdb_benchmark::stats::median(&plan_exec[1..]) / 1e3,
        "us",
    ));

    // -- ingest_recover's statement, on its table --------------------
    let plan = Plan::build(Workload::IngestRecover, seed, 1, sizes);
    let inserts: Vec<&String> = plan.primary[0].iter().map(|op| &op.sql[0]).collect();
    let mut i = 0;
    out.push((
        "sql.parse_insert16_us",
        per_call_ns(500, || {
            i = (i + 1) % inserts.len();
            black_box(parse(black_box(inserts[i])).expect("parse"));
        }) / 1e3,
        "us",
    ));
    let db = LoadedDb::open(&plan, &scratch.join("sql-ingest"))?;
    let mut session = db.db.session();
    let kv_before = db
        .engine
        .session()
        .snapshot_kv()
        .map_err(|e| e.to_string())?
        .len();
    let parsed: Vec<Statement> = inserts
        .iter()
        .take(200)
        .map(|s| parse(s).expect("parse"))
        .collect();
    let mut next = parsed.iter();
    let (p50, _) = per_call_percentiles_ns(parsed.len(), || {
        run(&mut session, next.next().expect("an unsent INSERT"));
    });
    out.push(("sql.run_insert16_us", p50 / 1e3, "us"));
    let kv_after = db
        .engine
        .session()
        .snapshot_kv()
        .map_err(|e| e.to_string())?
        .len();
    let rows = parsed.len() * mmdb_benchmark::gen::ROWS_PER_INGEST_INSERT;
    // A count, not a time: it repeats exactly.
    out.push((
        "sql.kv_per_row",
        (kv_after - kv_before) as f64 / rows as f64,
        "count",
    ));
    drop(session);
    db.close()?;

    let event = Tuple::new(vec![
        Value::Int(123_456),
        Value::Int(1),
        Value::Int(654_321),
        Value::Str("x".repeat(64)),
    ]);
    out.push((
        "sql.row_encode_ns",
        per_call_ns(20_000, || {
            black_box(codec::encode_row(black_box(&event)).expect("encode"));
        }),
        "ns",
    ));
    let blob = codec::encode_row(&event).map_err(|e| e.to_string())?;
    out.push((
        "sql.row_decode_ns",
        per_call_ns(20_000, || {
            black_box(codec::decode_row(black_box(&blob), 4).expect("decode"));
        }),
        "ns",
    ));
    Ok((out, inputs))
}
