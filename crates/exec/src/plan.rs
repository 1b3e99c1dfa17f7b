//! The one executor of §4 physical plans.
//!
//! [`run_plan`] runs the [`PhysicalPlan`] the optimizer chose with the §3
//! join cores, over base tables looked up by name as [`Rows`] of any
//! [`Row`] type, and hands each output row to an [`Emit`] sink as its left and
//! right halves. The SQL layer runs it unmetered
//! ([`ExecContext::unmetered`]) over rows lent from its cache and builds
//! only the projected result row; [`run`] is the wrapper over owned
//! [`MemRelation`]s whose sink pushes each row concatenated — what the P1
//! experiment and the model tests price. A join below the top hands its
//! pairs up concatenated and owned.
//!
//! A `SeqScan` applies its pushed-down predicate, charging the comparisons
//! each evaluation makes as [`crate::select::select`] does, so
//! `Predicate::True` costs nothing. Index access paths have no executor:
//! no caller declares an index to the planner, so they are refused.

use crate::join::{join_rows, Algo, Emit};
use crate::{ExecContext, JoinSpec, MemRelation, Meter, Row, Rows};
use mmdb_planner::{AccessPath, JoinMethod, PhysicalPlan};
use mmdb_types::{Error, Predicate, Result, Schema, Tuple};
use std::borrow::{Borrow, Cow};

/// Runs `plan` over the base tables `tables` looks up by the name their
/// access path gives, handing each output row to `emit` as its left and
/// right halves; a lone table's rows have an empty right.
pub fn run_plan<'a, T: Row + 'a, M: Meter>(
    plan: &'a PhysicalPlan,
    tables: &impl Fn(&str) -> Option<Rows<'a, T>>,
    ctx: &'a ExecContext<M>,
    mut emit: impl Emit,
) -> Result<()> {
    match plan {
        PhysicalPlan::Access(path) => {
            let none = Tuple::default();
            let (mut rows, _) = access(path, tables, ctx)?;
            rows.try_for_each(|row| emit(row, &none))
        }
        PhysicalPlan::Join {
            left,
            right,
            left_key,
            right_key,
            method,
            ..
        } => {
            let (l, l_fanout) = rows_of(left, tables, ctx)?;
            let (r, r_fanout) = rows_of(right, tables, ctx)?;
            let algo = match method {
                JoinMethod::HybridHash => Algo::HybridHash,
                JoinMethod::SimpleHash => Algo::SimpleHash,
                JoinMethod::GraceHash => Algo::GraceHash,
                JoinMethod::SortMerge => Algo::SortMerge,
            };
            let (l, r) = (Rows::new(&l, l_fanout), Rows::new(&r, r_fanout));
            join_rows(algo, l, r, JoinSpec::new(*left_key, *right_key), ctx, emit)
        }
    }
}

/// The rows a plan node produces and their page fanout: a base table's
/// survivors, still lent, or a join's pairs, concatenated and owned, at
/// the widest fanout of the tables joined.
fn rows_of<'a, T: Row + 'a, M: Meter>(
    plan: &'a PhysicalPlan,
    tables: &impl Fn(&str) -> Option<Rows<'a, T>>,
    ctx: &'a ExecContext<M>,
) -> Result<(Vec<Cow<'a, Tuple>>, usize)> {
    if let PhysicalPlan::Access(path) = plan {
        let (rows, fanout) = access(path, tables, ctx)?;
        return Ok((rows.map(Cow::Borrowed).collect(), fanout));
    }
    let mut out = Vec::new();
    run_plan(plan, tables, ctx, |l: &Tuple, r: &Tuple| {
        out.push(Cow::Owned(l.concat(r)));
        Ok(())
    })?;
    let mut fanout = 1;
    for name in plan.tables() {
        fanout = fanout.max(input(tables, name)?.tuples_per_page);
    }
    Ok((out, fanout))
}

/// The rows `path` reads and their page fanout: a `SeqScan`'s table,
/// filtered by its predicate.
fn access<'a, T: Row + 'a, M: Meter>(
    path: &'a AccessPath,
    tables: &impl Fn(&str) -> Option<Rows<'a, T>>,
    ctx: &'a ExecContext<M>,
) -> Result<(impl Iterator<Item = &'a Tuple> + 'a, usize)> {
    let AccessPath::SeqScan { table, predicate } = path else {
        let table = path.table();
        return Err(Error::Planning(format!(
            "no executor for an index access path (on '{table}')"
        )));
    };
    let Rows {
        tuples,
        tuples_per_page,
    } = input(tables, table)?;
    let all = *predicate == Predicate::True;
    let kept = tuples.iter().map(Borrow::borrow).filter(move |row| {
        all || {
            let (keep, comps) = predicate.eval_counting(row);
            ctx.meter.charge_comparisons(comps);
            keep
        }
    });
    Ok((kept, tuples_per_page))
}

/// The rows of the table named `name`.
fn input<'a, T: 'a>(
    tables: &impl Fn(&str) -> Option<Rows<'a, T>>,
    name: &str,
) -> Result<Rows<'a, T>> {
    tables(name).ok_or_else(|| Error::RelationNotFound(name.to_string()))
}

/// [`run_plan`] over owned relations, named as the plan's access paths
/// name them: each output row concatenated, under the schemas of the
/// plan's tables joined in plan order.
pub fn run(
    plan: &PhysicalPlan,
    tables: &[(&str, &MemRelation)],
    ctx: &ExecContext,
) -> Result<MemRelation> {
    let relation = |name: &str| tables.iter().find(|(n, _)| *n == name).map(|&(_, rel)| rel);
    let (mut schema, mut fanout) = (Schema::of(&[]), 1);
    for name in plan.tables() {
        let rel = relation(name).ok_or_else(|| Error::RelationNotFound(name.to_string()))?;
        (schema, fanout) = (schema.join(rel.schema()), fanout.max(rel.tuples_per_page()));
    }
    let mut out = MemRelation::new(schema, fanout);
    let rows = |name: &str| relation(name).map(Rows::from);
    run_plan(plan, &rows, ctx, |l: &Tuple, r: &Tuple| {
        out.push(l.concat(r))
    })?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::testkit::keyed;
    use crate::join::{canonical, nested_loops_join};
    use mmdb_planner::optimizer::PlanEnv;
    use mmdb_types::{CmpOp, SystemParams};

    fn scan(table: &str, predicate: Predicate) -> PhysicalPlan {
        PhysicalPlan::Access(AccessPath::SeqScan {
            table: table.into(),
            predicate,
        })
    }

    fn join(method: JoinMethod, left: PhysicalPlan, right: PhysicalPlan) -> PhysicalPlan {
        PhysicalPlan::Join {
            left: Box::new(left),
            right: Box::new(right),
            left_key: 0,
            right_key: 0,
            method,
            estimated_rows: 0.0,
        }
    }

    /// A three-table plan returns the rows nested loops finds whatever
    /// the join method and memory grant; run unmetered under the same
    /// grant it emits the metered run's rows in the same order, spilled
    /// or not; and a starved grant costs a hybrid plan far more: the
    /// answer is memory- and meter-invariant, the simulated seconds are
    /// not.
    #[test]
    fn a_three_table_plan_answers_alike_and_costs_more_when_starved() {
        let (r, s, u) = (
            keyed(1, 1_000, 400, 40),
            keyed(2, 1_500, 400, 40),
            keyed(3, 400, 400, 40),
        );
        let reference = ExecContext::new(usize::MAX / 2, 1.2);
        let rs = nested_loops_join(&r, &s, JoinSpec::new(0, 0), &reference).unwrap();
        let want = canonical(&nested_loops_join(&rs, &u, JoinSpec::new(0, 0), &reference).unwrap());
        let tables = [("r", &r), ("s", &s), ("u", &u)];
        for method in [
            JoinMethod::HybridHash,
            JoinMethod::SimpleHash,
            JoinMethod::GraceHash,
            JoinMethod::SortMerge,
        ] {
            let plan = join(
                method,
                join(
                    method,
                    scan("r", Predicate::True),
                    scan("s", Predicate::True),
                ),
                scan("u", Predicate::True),
            );
            let seconds = [12_000, 6].map(|mem| {
                let ctx = ExecContext::new(mem, 1.2);
                let metered = run(&plan, &tables, &ctx).unwrap();
                assert_eq!(canonical(&metered), want, "{method:?} at {mem} pages");
                let snapshot = ctx.meter.snapshot();
                assert!(
                    mem > 6 || snapshot.total_ios() > 0,
                    "{method:?} spills at {mem}"
                );

                let env = PlanEnv {
                    mem_pages: mem,
                    ..PlanEnv::default()
                };
                let unmetered = ExecContext::unmetered(&env);
                let rows = |name: &str| {
                    let found = tables.iter().find(|(n, _)| *n == name);
                    found.map(|&(_, rel)| Rows::from(rel))
                };
                let mut emitted = Vec::new();
                run_plan(&plan, &rows, &unmetered, |l: &Tuple, r: &Tuple| {
                    emitted.push(l.concat(r));
                    Ok(())
                })
                .unwrap();
                assert_eq!(emitted, metered.tuples(), "{method:?} at {mem} pages");
                snapshot.seconds(&SystemParams::table2())
            });
            // GRACE partitions into |M| buckets whatever |M| is, so only
            // the adaptive hybrid plan is priced against its grant here.
            if method == JoinMethod::HybridHash {
                assert!(seconds[1] > 3.0 * seconds[0], "{seconds:?}");
            }
        }
    }

    #[test]
    fn a_scan_charges_its_predicate_and_an_index_path_is_refused() {
        let r = keyed(4, 500, 100, 40);
        let ctx = ExecContext::new(100, 1.2);
        let low = Predicate::cmp(0, CmpOp::Lt, 10i64);
        let out = run(&scan("r", low.clone()), &[("r", &r)], &ctx).unwrap();
        let want = r.tuples().iter().filter(|t| low.eval(t)).count();
        assert_eq!(out.tuple_count(), want);
        assert_eq!(ctx.meter.snapshot().comparisons, 500);
        let lookup = PhysicalPlan::Access(AccessPath::IndexLookup {
            table: "r".into(),
            column: 0,
            value: 3i64.into(),
            residual: Predicate::True,
        });
        assert!(matches!(
            run(&lookup, &[("r", &r)], &ctx),
            Err(Error::Planning(_))
        ));
    }
}
