//! The binder/planner bridge.
//!
//! A `SELECT` runs whole under the catalog read lock, over rows lent from
//! the catalog's cache. [`snapshot_tables`] binds every column the
//! statement names, binds each `FROM` table's own `column op literal`
//! conjuncts, and has `Catalog::reach` probe, walk or scan the table,
//! keeping a reference to each row that survives; a scan may ask for an
//! index, built once the statement has succeeded and the lock is
//! released. [`run_select_on`] plans the equi-join edges with the §4
//! optimizer, given the survivors' exact count and the exact distinct
//! counts of their join columns, and runs the plan with `mmdb_exec::plan` — the
//! one executor of §4 plans — unmetered, under the memory grant the plan
//! was priced with, over the borrowed rows: the top join's sink
//! builds each result row from its matched pair, cloning each returned
//! value once, and a join below it hands its pairs up concatenated. The
//! lock is held for the whole statement, so a writer queued behind a
//! `SELECT` waits for a time bounded by its output and plan, not by a
//! copy of its inputs. `INSERT`/`UPDATE`/`DELETE` binding helpers (row
//! coercion, single-table predicates, `SET` expressions) also live here
//! so [`crate::session`] stays focused on transaction mechanics.

use crate::ast::{ColRef, Condition, Literal, Projection, SelectStmt, SetExpr};
use crate::catalog::{Catalog, TableEntry};
use mmdb_exec::plan::run_plan;
use mmdb_exec::{ExecContext, Rows};
use mmdb_planner::optimizer::PlanEnv;
use mmdb_planner::{optimize, JoinEdge, QuerySpec, TableRef, TableStats, TUPLES_PER_PAGE};
use mmdb_types::error::{Error, Result};
use mmdb_types::expr::{CmpOp, Predicate};
use mmdb_types::ids::TxnId;
use mmdb_types::schema::{DataType, Schema};
use mmdb_types::tuple::Tuple;
use mmdb_types::value::Value;
use std::collections::HashSet;
use std::time::Instant;

/// The result of one statement.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryResult {
    /// Output column names (empty for non-`SELECT` statements).
    pub columns: Vec<String>,
    /// Output rows (empty for non-`SELECT` statements).
    pub rows: Vec<Vec<Value>>,
    /// Rows inserted/updated/deleted (0 for `SELECT` and controls).
    pub affected: u64,
}

impl QueryResult {
    /// An acknowledgement with no rows and no affected count.
    pub fn ack() -> Self {
        QueryResult::default()
    }

    /// A mutation result.
    pub fn affected(n: u64) -> Self {
        QueryResult {
            affected: n,
            ..QueryResult::default()
        }
    }
}

/// One `FROM` table as a `SELECT` sees it: its schema and the rows its
/// own conjuncts kept, lent from the catalog under its read lock.
pub struct BoundTable<'c> {
    /// Lowercased canonical name (what the planner sees).
    name: String,
    schema: &'c Schema,
    /// The surviving rows, in rid order.
    rows: Vec<&'c Tuple>,
    /// The column whose index the access asked for (see
    /// `Reached::wants_index`).
    wants_index: Option<usize>,
}

/// Coerces a bound value toward a column type: integers widen to
/// floats for `FLOAT` columns; everything else passes through (the
/// schema check rejects real mismatches).
pub fn coerce(value: Value, ty: DataType) -> Value {
    match (value, ty) {
        (Value::Int(i), DataType::Float) => Value::Float(i as f64),
        (v, _) => v,
    }
}

/// Binds one `VALUES` row of an `INSERT` to a schema-checked tuple.
pub fn bind_insert_row(
    schema: &Schema,
    columns: &Option<Vec<String>>,
    row: &[Literal],
) -> Result<Tuple> {
    let values = match columns {
        None => {
            if row.len() != schema.arity() {
                return Err(Error::SchemaMismatch {
                    expected: format!("{} values", schema.arity()),
                    found: format!("{} values", row.len()),
                });
            }
            let mut out = Vec::with_capacity(row.len());
            for (lit, col) in row.iter().zip(schema.columns()) {
                out.push(coerce(lit.to_value(), col.ty));
            }
            out
        }
        Some(cols) => {
            if row.len() != cols.len() {
                return Err(Error::SchemaMismatch {
                    expected: format!("{} values (one per named column)", cols.len()),
                    found: format!("{} values", row.len()),
                });
            }
            let mut out = vec![Value::Null; schema.arity()];
            let mut seen: HashSet<usize> = HashSet::new();
            for (name, lit) in cols.iter().zip(row) {
                let idx = schema.index_of(name)?;
                if !seen.insert(idx) {
                    return Err(Error::Planning(format!(
                        "column '{name}' named twice in INSERT"
                    )));
                }
                let ty = schema
                    .column(idx)
                    .map(|c| c.ty)
                    .ok_or_else(|| Error::ColumnNotFound(name.clone()))?;
                if let Some(slot) = out.get_mut(idx) {
                    *slot = coerce(lit.to_value(), ty);
                }
            }
            out
        }
    };
    let tuple = Tuple::new(values);
    schema.check(&tuple)?;
    Ok(tuple)
}

/// A bound `SET` expression (column names resolved to indices).
#[derive(Debug, Clone)]
pub enum BoundSetExpr {
    /// Assign a constant.
    Lit(Value),
    /// Copy a column.
    Col(usize),
    /// `col ± constant`.
    BinOp {
        /// Source column index.
        col: usize,
        /// `true` for `+`.
        plus: bool,
        /// Constant operand.
        val: Value,
    },
}

/// Binds `UPDATE` assignments against a schema.
pub fn bind_sets(
    schema: &Schema,
    sets: &[(String, SetExpr)],
) -> Result<Vec<(usize, BoundSetExpr)>> {
    let mut out = Vec::with_capacity(sets.len());
    let mut seen: HashSet<usize> = HashSet::new();
    for (target, expr) in sets {
        let idx = schema.index_of(target)?;
        if !seen.insert(idx) {
            return Err(Error::Planning(format!(
                "column '{target}' assigned twice in UPDATE"
            )));
        }
        let bound = match expr {
            SetExpr::Lit(lit) => BoundSetExpr::Lit(lit.to_value()),
            SetExpr::Col(c) => BoundSetExpr::Col(schema.index_of(c)?),
            SetExpr::BinOp { col, plus, lit } => BoundSetExpr::BinOp {
                col: schema.index_of(col)?,
                plus: *plus,
                val: lit.to_value(),
            },
        };
        out.push((idx, bound));
    }
    Ok(out)
}

/// Evaluates arithmetic for a bound `SET`: nulls propagate, integer
/// overflow is an error, floats follow IEEE.
fn eval_binop(lhs: &Value, plus: bool, rhs: &Value) -> Result<Value> {
    match (lhs, rhs) {
        (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
        (Value::Int(a), Value::Int(b)) => {
            let r = if plus {
                a.checked_add(*b)
            } else {
                a.checked_sub(*b)
            };
            r.map(Value::Int)
                .ok_or_else(|| Error::Planning("integer overflow in UPDATE arithmetic".to_string()))
        }
        (a, b) => match (a.numeric(), b.numeric()) {
            (Some(x), Some(y)) => Ok(Value::Float(if plus { x + y } else { x - y })),
            _ => Err(Error::Planning(
                "arithmetic over non-numeric column in UPDATE".to_string(),
            )),
        },
    }
}

/// Applies bound `SET` expressions to a row, producing the new
/// schema-checked tuple. All source columns read the *old* row, as SQL
/// requires.
pub fn apply_sets(schema: &Schema, old: &Tuple, sets: &[(usize, BoundSetExpr)]) -> Result<Tuple> {
    let mut values: Vec<Value> = old.values().to_vec();
    for (target, expr) in sets {
        let ty = schema
            .column(*target)
            .map(|c| c.ty)
            .ok_or_else(|| Error::ColumnNotFound(format!("#{target}")))?;
        let read = |idx: usize| -> Result<&Value> {
            old.values()
                .get(idx)
                .ok_or_else(|| Error::ColumnNotFound(format!("#{idx}")))
        };
        let new = match expr {
            BoundSetExpr::Lit(v) => v.clone(),
            BoundSetExpr::Col(c) => read(*c)?.clone(),
            BoundSetExpr::BinOp { col, plus, val } => eval_binop(read(*col)?, *plus, val)?,
        };
        if let Some(slot) = values.get_mut(*target) {
            *slot = coerce(new, ty);
        }
    }
    let tuple = Tuple::new(values);
    schema.check(&tuple)?;
    Ok(tuple)
}

/// Binds the `WHERE` conjuncts of an `UPDATE`/`DELETE` (single-table:
/// every condition must compare a column of `table` with a literal).
pub fn bind_table_predicate(
    table: &str,
    schema: &Schema,
    conditions: &[Condition],
) -> Result<Predicate> {
    let mut pred = Predicate::True;
    for cond in conditions {
        match cond {
            Condition::Compare { col, op, lit } => {
                if let Some(q) = &col.table {
                    if !q.eq_ignore_ascii_case(table) {
                        return Err(Error::Planning(format!(
                            "column '{col}' does not belong to table '{table}'"
                        )));
                    }
                }
                let idx = schema.index_of(&col.column)?;
                pred = conjoin(pred, compare_leaf(schema, idx, *op, lit)?);
            }
            Condition::ColEqCol { left, right } => {
                return Err(Error::Planning(format!(
                    "'{left} = {right}': UPDATE/DELETE conditions must compare a column to a literal"
                )));
            }
        }
    }
    Ok(pred)
}

/// Binds `column op literal` against `schema`'s column `idx`.
fn compare_leaf(schema: &Schema, idx: usize, op: CmpOp, lit: &Literal) -> Result<Predicate> {
    let ty = schema
        .column(idx)
        .map(|c| c.ty)
        .ok_or_else(|| Error::ColumnNotFound(format!("#{idx}")))?;
    Ok(Predicate::cmp(idx, op, coerce(lit.to_value(), ty)))
}

fn conjoin(acc: Predicate, leaf: Predicate) -> Predicate {
    if acc == Predicate::True {
        leaf
    } else {
        acc.and(leaf)
    }
}

/// Resolves a column reference against the `FROM` tables, given as
/// `(lowercased name, schema)`; returns `(table index, column index)`.
fn resolve(col: &ColRef, tables: &[(&str, &Schema)]) -> Result<(usize, usize)> {
    match &col.table {
        Some(q) => {
            let q = q.to_ascii_lowercase();
            let (ti, (_, schema)) = tables
                .iter()
                .enumerate()
                .find(|(_, (name, _))| *name == q)
                .ok_or_else(|| Error::Planning(format!("table '{q}' is not listed in FROM")))?;
            Ok((ti, schema.index_of(&col.column)?))
        }
        None => {
            let mut hit: Option<(usize, usize)> = None;
            for (ti, (_, schema)) in tables.iter().enumerate() {
                if let Ok(ci) = schema.index_of(&col.column) {
                    if hit.is_some() {
                        return Err(Error::Planning(format!(
                            "column '{}' is ambiguous; qualify it with a table name",
                            col.column
                        )));
                    }
                    hit = Some((ti, ci));
                }
            }
            hit.ok_or_else(|| Error::ColumnNotFound(col.column.clone()))
        }
    }
}

/// The equi-join edges of a `SELECT`'s conditions, resolved against the
/// `FROM` tables as [`resolve`] takes them.
fn join_edges(stmt: &SelectStmt, tables: &[(&str, &Schema)]) -> Result<Vec<JoinEdge>> {
    let mut joins = Vec::new();
    for cond in &stmt.conditions {
        if let Condition::ColEqCol { left, right } = cond {
            let (lt, lc) = resolve(left, tables)?;
            let (rt, rc) = resolve(right, tables)?;
            if lt == rt {
                return Err(Error::Planning(format!(
                    "'{left} = {right}' compares columns of the same table; join conditions must span two tables"
                )));
            }
            joins.push(JoinEdge {
                left_table: lt,
                left_column: lc,
                right_table: rt,
                right_column: rc,
            });
        }
    }
    Ok(joins)
}

/// [`TableStats`] of the rows a table's own conjuncts kept: their exact
/// count, and the exact distinct count of each column a join edge of
/// table `ti` names — all the §4 optimizer reads once the predicates are
/// spent. Other columns are [`mmdb_planner::ColumnStats::unknown`], no
/// min/max is kept, and a single-table `SELECT` hashes nothing.
fn compute_stats(t: &BoundTable, ti: usize, joins: &[JoinEdge]) -> TableStats {
    let ends = joins.iter().flat_map(JoinEdge::ends);
    let columns = ends.filter(|&(table, _)| table == ti).map(|(_, c)| c);
    let (name, arity) = (t.name.clone(), t.schema.arity());
    TableStats::exact_distinct(name, TUPLES_PER_PAGE, arity, &t.rows, columns)
}

/// Reaches the tables a `SELECT` references, resolved with `viewer`
/// visibility, once every column it names has bound: `Catalog::reach`
/// keeps a reference to each row its table's own conjuncts accept.
/// Callers hold the read lock until [`run_select_on`] has run.
pub fn snapshot_tables<'c>(
    stmt: &SelectStmt,
    catalog: &'c Catalog,
    viewer: Option<TxnId>,
) -> Result<Vec<BoundTable<'c>>> {
    let mut tables: Vec<BoundTable<'c>> = Vec::with_capacity(stmt.tables.len());
    let mut entries: Vec<&TableEntry> = Vec::with_capacity(stmt.tables.len());
    for name in &stmt.tables {
        let lower = name.to_ascii_lowercase();
        if tables.iter().any(|t| t.name == lower) {
            return Err(Error::Planning(format!(
                "table '{lower}' appears twice in FROM; self-joins are not supported"
            )));
        }
        let entry = catalog.table(name, viewer)?;
        tables.push(BoundTable {
            name: lower,
            schema: &entry.schema,
            rows: Vec::new(),
            wants_index: None,
        });
        entries.push(entry);
    }
    let schemas: Vec<(&str, &Schema)> =
        tables.iter().map(|t| (t.name.as_str(), t.schema)).collect();
    let mut preds: Vec<Predicate> = entries.iter().map(|_| Predicate::True).collect();
    for cond in &stmt.conditions {
        if let Condition::Compare { col, op, lit } = cond {
            let (ti, ci) = resolve(col, &schemas)?;
            if let (Some(slot), Some((_, schema))) = (preds.get_mut(ti), schemas.get(ti)) {
                let acc = std::mem::replace(slot, Predicate::True);
                *slot = conjoin(acc, compare_leaf(schema, ci, *op, lit)?);
            }
        }
    }
    join_edges(stmt, &schemas)?;
    if let Projection::Columns(cols) = &stmt.projection {
        for col in cols {
            resolve(col, &schemas)?;
        }
    }
    for ((table, entry), pred) in tables.iter_mut().zip(entries).zip(preds) {
        let reached = catalog.reach(entry, &pred, |_, row| row);
        (table.rows, table.wants_index) = (reached.kept, reached.wants_index);
    }
    Ok(tables)
}

/// Plans and executes a bound `SELECT` over the rows [`snapshot_tables`]
/// kept, which borrow the catalog: the caller still holds its read lock.
pub fn run_select_on(stmt: &SelectStmt, tables: Vec<BoundTable<'_>>) -> Result<QueryResult> {
    let schemas: Vec<(&str, &Schema)> =
        tables.iter().map(|t| (t.name.as_str(), t.schema)).collect();
    // The `column op literal` conditions were applied when the tables
    // were reached; what is left to plan are the join edges.
    let joins = join_edges(stmt, &schemas)?;

    // Feed the §4 optimizer the survivors' exact cardinalities; their
    // predicates are spent, so none is charged a selectivity twice.
    let spec = QuerySpec {
        tables: tables
            .iter()
            .map(|t| TableRef::plain(t.name.clone()))
            .collect(),
        joins,
    };
    let stats: Vec<TableStats> = tables
        .iter()
        .enumerate()
        .map(|(ti, t)| compute_stats(t, ti, &spec.joins))
        .collect();
    let env = PlanEnv::default();
    let planned = optimize(&spec, &stats, &env)?;

    // The join output's columns as `(table, column)`, in the plan's
    // base-table order, which the optimizer may have permuted from FROM.
    let mut layout: Vec<(usize, usize)> = Vec::new();
    for name in planned.plan.tables() {
        let (ti, (_, schema)) = schemas
            .iter()
            .enumerate()
            .find(|(_, (n, _))| *n == name)
            .ok_or_else(|| Error::RelationNotFound(name.to_string()))?;
        layout.extend((0..schema.arity()).map(|ci| (ti, ci)));
    }
    let qualify = schemas.len() > 1;
    let (names, indices): (Vec<String>, Vec<usize>) = match &stmt.projection {
        Projection::Star => layout
            .iter()
            .enumerate()
            .filter_map(|(i, &(ti, ci))| {
                let (table, schema) = schemas.get(ti)?;
                let c = &schema.column(ci)?.name;
                let name = if qualify {
                    format!("{table}.{c}")
                } else {
                    c.clone()
                };
                Some((name, i))
            })
            .collect(),
        Projection::Columns(cols) => cols
            .iter()
            .map(|col| {
                let at = resolve(col, &schemas)?;
                let i = layout.iter().position(|x| *x == at);
                let i = i.ok_or_else(|| Error::Internal("table missing from plan".to_string()))?;
                Ok((col.to_string(), i))
            })
            .collect::<Result<_>>()?,
    };

    // Execute the chosen physical plan with the §3 cores; each output
    // row is built from its two halves, cloning only what it returns.
    let mut rows: Vec<Vec<Value>> = Vec::new();
    let ctx = ExecContext::unmetered(&env);
    let survivors = |name: &str| {
        let t = tables.iter().find(|t| t.name == name)?;
        Some(Rows::new(t.rows.as_slice(), TUPLES_PER_PAGE as usize))
    };
    run_plan(&planned.plan, &survivors, &ctx, |l: &Tuple, r: &Tuple| {
        let value = |&i: &usize| l.values().get(i).or_else(|| r.values().get(i - l.arity()));
        let row: Option<Vec<Value>> = indices.iter().map(|i| value(i).cloned()).collect();
        rows.push(row.ok_or_else(|| Error::Internal("projection past the plan output".into()))?);
        Ok(())
    })?;
    Ok(QueryResult {
        columns: names,
        rows,
        affected: 0,
    })
}

/// Reach + plan + execute under the caller's read lock on `catalog`,
/// recording how long it held it; also returns the `(table, column)`
/// indexes the accesses asked for.
pub(crate) fn run_select(
    stmt: &SelectStmt,
    catalog: &Catalog,
    viewer: Option<TxnId>,
) -> Result<(QueryResult, Vec<(String, usize)>)> {
    let since = Instant::now();
    let run = snapshot_tables(stmt, catalog, viewer).and_then(|tables| {
        let wanted = tables
            .iter()
            .filter_map(|t| Some((t.name.clone(), t.wants_index?)));
        let wanted = wanted.collect();
        Ok((run_select_on(stmt, tables)?, wanted))
    });
    let held = u64::try_from(since.elapsed().as_micros()).unwrap_or(u64::MAX);
    catalog.metrics.select_lock_hold_us.record(held);
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::TableEntry;
    use crate::parser::parse;
    use crate::Statement;
    use std::collections::BTreeMap;

    fn catalog() -> Catalog {
        let mut c = Catalog::default();
        let emp_schema = Schema::of(&[
            ("id", DataType::Int),
            ("name", DataType::Str),
            ("dept_id", DataType::Int),
        ]);
        let dept_schema = Schema::of(&[("id", DataType::Int), ("title", DataType::Str)]);
        let mut emp_rows = BTreeMap::new();
        for (i, (name, dept)) in [("ann", 1), ("bob", 2), ("cat", 1)].iter().enumerate() {
            emp_rows.insert(
                i as u32,
                Tuple::new(vec![
                    Value::Int(i as i64),
                    Value::Str((*name).to_string()),
                    Value::Int(*dept),
                ]),
            );
        }
        let mut dept_rows = BTreeMap::new();
        dept_rows.insert(0, Tuple::new(vec![Value::Int(1), "eng".into()]));
        dept_rows.insert(1, Tuple::new(vec![Value::Int(2), "ops".into()]));
        c.install(
            "emp",
            TableEntry {
                id: 0,
                schema: emp_schema,
                rows: emp_rows,
                next_rid: 3,
                pending_owner: None,
            },
        );
        c.install(
            "dept",
            TableEntry {
                id: 1,
                schema: dept_schema,
                rows: dept_rows,
                next_rid: 2,
                pending_owner: None,
            },
        );
        c
    }

    fn select(cat: &Catalog, sql: &str) -> QueryResult {
        match parse(sql).unwrap() {
            Statement::Select(s) => run_select(&s, cat, None).unwrap().0,
            other => panic!("not a select: {other:?}"),
        }
    }

    #[test]
    fn single_table_filter_and_projection() {
        let cat = catalog();
        let r = select(&cat, "SELECT name FROM emp WHERE dept_id = 1");
        assert_eq!(r.columns, vec!["name"]);
        assert_eq!(
            r.rows,
            vec![
                vec![Value::Str("ann".into())],
                vec![Value::Str("cat".into())]
            ]
        );
    }

    #[test]
    fn star_on_single_table_uses_plain_names() {
        let cat = catalog();
        let r = select(&cat, "SELECT * FROM dept WHERE id >= 2");
        assert_eq!(r.columns, vec!["id", "title"]);
        assert_eq!(r.rows.len(), 1);
    }

    #[test]
    fn equi_join_projects_across_tables() {
        let cat = catalog();
        let r = select(
            &cat,
            "SELECT emp.name, dept.title FROM emp JOIN dept ON emp.dept_id = dept.id \
             WHERE dept.title = 'eng'",
        );
        assert_eq!(r.columns, vec!["emp.name", "dept.title"]);
        let mut names: Vec<String> = r
            .rows
            .iter()
            .map(|row| row[0].as_str().unwrap().to_string())
            .collect();
        names.sort();
        assert_eq!(names, vec!["ann", "cat"]);
    }

    #[test]
    fn disconnected_join_is_an_error() {
        let cat = catalog();
        let s = match parse("SELECT * FROM emp, dept").unwrap() {
            Statement::Select(s) => s,
            _ => unreachable!(),
        };
        assert!(run_select(&s, &cat, None).is_err());
    }

    #[test]
    fn ambiguous_and_unknown_columns_error() {
        let cat = catalog();
        let s = match parse("SELECT id FROM emp JOIN dept ON emp.dept_id = dept.id").unwrap() {
            Statement::Select(s) => s,
            _ => unreachable!(),
        };
        let e = run_select(&s, &cat, None).unwrap_err();
        assert!(e.to_string().contains("ambiguous"), "{e}");
        let s = match parse("SELECT nope FROM emp").unwrap() {
            Statement::Select(s) => s,
            _ => unreachable!(),
        };
        assert!(run_select(&s, &cat, None).is_err());
    }

    fn parse_select(sql: &str) -> SelectStmt {
        match parse(sql).unwrap() {
            Statement::Select(s) => s,
            other => panic!("not a select: {other:?}"),
        }
    }

    fn texts(rows: &[Vec<Value>], at: usize) -> Vec<String> {
        let mut v: Vec<String> = rows
            .iter()
            .map(|row| row[at].as_str().unwrap().to_string())
            .collect();
        v.sort();
        v
    }

    #[test]
    fn a_where_only_column_is_filtered_on_but_not_returned() {
        let cat = catalog();
        let r = select(&cat, "SELECT name FROM emp WHERE dept_id = 1");
        assert_eq!(r.columns, vec!["name"]);
        assert!(r.rows.iter().all(|row| row.len() == 1));
        assert_eq!(texts(&r.rows, 0), vec!["ann", "cat"]);
    }

    #[test]
    fn a_column_listed_twice_is_returned_twice() {
        let cat = catalog();
        let r = select(&cat, "SELECT name, id, name FROM emp WHERE id = 1");
        assert_eq!(r.columns, vec!["name", "id", "name"]);
        assert_eq!(
            r.rows,
            vec![vec!["bob".into(), Value::Int(1), "bob".into()]]
        );
        let r = select(
            &cat,
            "SELECT dept.title, emp.name, dept.title FROM emp JOIN dept ON emp.dept_id = dept.id",
        );
        assert_eq!(r.rows.len(), 3);
        for row in &r.rows {
            assert_eq!(row.len(), 3);
            assert_eq!(row[0], row[2]);
        }
        assert_eq!(texts(&r.rows, 1), vec!["ann", "bob", "cat"]);
        assert_eq!(texts(&r.rows, 2), vec!["eng", "eng", "ops"]);
    }

    #[test]
    fn star_over_a_join_keeps_every_column() {
        let cat = catalog();
        let r = select(&cat, "SELECT * FROM emp JOIN dept ON emp.dept_id = dept.id");
        let mut columns = r.columns.clone();
        columns.sort();
        assert_eq!(
            columns,
            vec!["dept.id", "dept.title", "emp.dept_id", "emp.id", "emp.name"]
        );
        let at = |name: &str| r.columns.iter().position(|c| c == name).unwrap();
        assert_eq!(r.rows.len(), 3);
        for row in &r.rows {
            assert_eq!(row.len(), 5);
            assert_eq!(row[at("emp.dept_id")], row[at("dept.id")]);
        }
        assert_eq!(texts(&r.rows, at("emp.name")), vec!["ann", "bob", "cat"]);
    }

    #[test]
    fn a_join_only_column_is_joined_on_but_not_returned() {
        let cat = catalog();
        let r = select(
            &cat,
            "SELECT dept.title FROM emp JOIN dept ON emp.dept_id = dept.id",
        );
        assert_eq!(r.columns, vec!["dept.title"]);
        assert!(r.rows.iter().all(|row| row.len() == 1));
        assert_eq!(texts(&r.rows, 0), vec!["eng", "eng", "ops"]);
    }

    #[test]
    fn unqualified_columns_resolve_across_a_join() {
        let cat = catalog();
        let r = select(
            &cat,
            "SELECT name, title FROM emp JOIN dept ON emp.dept_id = dept.id \
             WHERE dept_id = 1",
        );
        assert_eq!(r.columns, vec!["name", "title"]);
        assert_eq!(texts(&r.rows, 0), vec!["ann", "cat"]);
        assert_eq!(texts(&r.rows, 1), vec!["eng", "eng"]);
    }

    /// The statistics every column used to get: exact distinct counts
    /// and min/max over the surviving rows.
    fn all_column_stats(t: &BoundTable) -> TableStats {
        let arity = t.schema.arity();
        TableStats::exact(t.name.clone(), TUPLES_PER_PAGE, arity, &t.rows)
    }

    /// `analytic_join`'s tables: 1,000 customers and 10,000 orders whose
    /// customer and amount come from a fixed LCG.
    fn analytic_catalog() -> Catalog {
        let mut c = Catalog::default();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = |bound: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            (state >> 33) % bound
        };
        let customers: BTreeMap<u32, Tuple> = (0..1_000u32)
            .map(|id| {
                let row = vec![
                    Value::Int(i64::from(id)),
                    Value::Int(i64::from(id % 10)),
                    Value::Str(format!("customer-{id:06}")),
                ];
                (id, Tuple::new(row))
            })
            .collect();
        let orders: BTreeMap<u32, Tuple> = (0..10_000u32)
            .map(|id| {
                let row = vec![
                    Value::Int(i64::from(id)),
                    Value::Int(next(1_000) as i64),
                    Value::Int(next(1_000_000) as i64),
                    Value::Str(format!("{id:032}")),
                ];
                (id, Tuple::new(row))
            })
            .collect();
        let schemas = [
            (
                "customers",
                Schema::of(&[
                    ("id", DataType::Int),
                    ("region", DataType::Int),
                    ("name", DataType::Str),
                ]),
                customers,
            ),
            (
                "orders",
                Schema::of(&[
                    ("id", DataType::Int),
                    ("cust", DataType::Int),
                    ("amount", DataType::Int),
                    ("note", DataType::Str),
                ]),
                orders,
            ),
        ];
        for (id, (name, schema, rows)) in schemas.into_iter().enumerate() {
            let next_rid = rows.len() as u32;
            let entry = TableEntry {
                id: id as u32,
                schema,
                rows,
                next_rid,
                pending_owner: None,
            };
            c.install(name, entry);
        }
        c
    }

    #[test]
    fn join_column_statistics_pick_the_same_plan_as_all_column_statistics() {
        let cases = [
            (
                catalog(),
                "SELECT emp.name, dept.title FROM emp JOIN dept ON emp.dept_id = dept.id",
            ),
            (
                catalog(),
                "SELECT * FROM dept, emp WHERE emp.dept_id = dept.id AND emp.id > 0",
            ),
            (
                analytic_catalog(),
                "SELECT orders.id, customers.name FROM orders, customers \
                 WHERE orders.cust = customers.id AND orders.amount > 930000",
            ),
        ];
        for (cat, sql) in cases {
            let stmt = parse_select(sql);
            let tables = snapshot_tables(&stmt, &cat, None).unwrap();
            let schemas: Vec<(&str, &Schema)> =
                tables.iter().map(|t| (t.name.as_str(), t.schema)).collect();
            let spec = QuerySpec {
                tables: tables
                    .iter()
                    .map(|t| TableRef::plain(t.name.clone()))
                    .collect(),
                joins: join_edges(&stmt, &schemas).unwrap(),
            };
            let new: Vec<TableStats> = tables
                .iter()
                .enumerate()
                .map(|(ti, t)| compute_stats(t, ti, &spec.joins))
                .collect();
            let old: Vec<TableStats> = tables.iter().map(all_column_stats).collect();
            assert_ne!(new, old, "{sql}: the statistics differ");
            let env = PlanEnv::default();
            let new = optimize(&spec, &new, &env).unwrap();
            let old = optimize(&spec, &old, &env).unwrap();
            assert_eq!(new.plan, old.plan, "{sql}");
            assert_eq!(new.estimated_rows, old.estimated_rows, "{sql}");
            assert_eq!(new.plan.join_count(), 1, "{sql}");
        }
    }

    #[test]
    fn insert_row_binding_coerces_and_checks() {
        let schema = Schema::of(&[("a", DataType::Int), ("b", DataType::Float)]);
        let t = bind_insert_row(&schema, &None, &[Literal::Int(1), Literal::Int(2)]).unwrap();
        assert_eq!(t.values(), &[Value::Int(1), Value::Float(2.0)]);
        let t = bind_insert_row(
            &schema,
            &Some(vec!["b".to_string()]),
            &[Literal::Float(0.5)],
        )
        .unwrap();
        assert_eq!(t.values(), &[Value::Null, Value::Float(0.5)]);
        assert!(bind_insert_row(&schema, &None, &[Literal::Int(1)]).is_err());
        assert!(bind_insert_row(
            &schema,
            &Some(vec!["a".to_string(), "a".to_string()]),
            &[Literal::Int(1), Literal::Int(2)]
        )
        .is_err());
        assert!(
            bind_insert_row(&schema, &None, &[Literal::Str("x".into()), Literal::Null]).is_err()
        );
    }

    #[test]
    fn set_expressions_apply() {
        let schema = Schema::of(&[("id", DataType::Int), ("bal", DataType::Int)]);
        let sets = bind_sets(
            &schema,
            &[(
                "bal".to_string(),
                SetExpr::BinOp {
                    col: "bal".to_string(),
                    plus: false,
                    lit: Literal::Int(25),
                },
            )],
        )
        .unwrap();
        let old = Tuple::new(vec![Value::Int(1), Value::Int(100)]);
        let new = apply_sets(&schema, &old, &sets).unwrap();
        assert_eq!(new.values(), &[Value::Int(1), Value::Int(75)]);
        // Overflow is an error, not a wrap.
        let old = Tuple::new(vec![Value::Int(1), Value::Int(i64::MIN)]);
        assert!(apply_sets(&schema, &old, &sets).is_err());
    }

    #[test]
    fn table_predicate_binding() {
        let schema = Schema::of(&[("id", DataType::Int)]);
        let conds = match parse("DELETE FROM t WHERE id > 5 AND t.id < 9").unwrap() {
            Statement::Delete { conditions, .. } => conditions,
            _ => unreachable!(),
        };
        let p = bind_table_predicate("t", &schema, &conds).unwrap();
        assert!(p.eval(&Tuple::new(vec![Value::Int(7)])));
        assert!(!p.eval(&Tuple::new(vec![Value::Int(4)])));
        let conds = match parse("DELETE FROM t WHERE other.id = 5").unwrap() {
            Statement::Delete { conditions, .. } => conditions,
            _ => unreachable!(),
        };
        assert!(bind_table_predicate("t", &schema, &conds).is_err());
    }
}
