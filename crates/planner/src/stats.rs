//! Table statistics and selectivity estimation.
//!
//! Classic System R estimation rules (Selinger §4 reference): equality on
//! a column keeps `1/distinct`, ranges keep the covered fraction of the
//! `[min, max]` interval, conjunctions multiply, disjunctions
//! inclusion-exclude.

use mmdb_types::cast::f64_from_u64;
use mmdb_types::{CmpOp, Predicate, Tuple, Value};
use std::borrow::Borrow;
use std::collections::HashSet;

/// Per-column statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Number of distinct values.
    pub distinct: u64,
    /// Smallest value, if known.
    pub min: Option<Value>,
    /// Largest value, if known.
    pub max: Option<Value>,
}

impl ColumnStats {
    /// Stats for a column nothing is known about.
    pub fn unknown() -> Self {
        ColumnStats {
            distinct: 10, // System R's default magic number
            min: None,
            max: None,
        }
    }
}

/// Table 2's page geometry, tuples to a page: what the cost models group
/// rows by when the rows have no pages of their own (a memory-resident
/// table's).
pub const TUPLES_PER_PAGE: u64 = 40;

/// Statistics for one stored relation.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    /// Relation name.
    pub name: String,
    /// `||R||`.
    pub tuples: u64,
    /// `|R|`.
    pub pages: u64,
    /// Tuples per page.
    pub tuples_per_page: u64,
    /// Per-column stats, indexed by column position.
    pub columns: Vec<ColumnStats>,
    /// Columns with an index (equality access paths).
    pub indexed_columns: Vec<usize>,
    /// The subset of `indexed_columns` whose index is ordered (AVL or
    /// B+-tree) and therefore supports range scans — §2's sequential
    /// access case.
    pub ordered_indexed_columns: Vec<usize>,
}

/// `n` as a statistic.
fn count(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// The distinct values of column `c` over `rows`.
fn distinct_values<T: Borrow<Tuple>>(rows: &[T], c: usize) -> HashSet<&Value> {
    rows.iter().map(|row| row.borrow().get(c)).collect()
}

impl TableStats {
    /// Builds stats with uniform defaults for `arity` columns.
    pub fn uniform(
        name: impl Into<String>,
        tuples: u64,
        tuples_per_page: u64,
        arity: usize,
    ) -> Self {
        TableStats {
            name: name.into(),
            tuples,
            pages: tuples.div_ceil(tuples_per_page.max(1)),
            tuples_per_page: tuples_per_page.max(1),
            columns: (0..arity).map(|_| ColumnStats::unknown()).collect(),
            indexed_columns: Vec::new(),
            ordered_indexed_columns: Vec::new(),
        }
    }

    /// Exact statistics of memory-resident `rows`, affordable because
    /// reading them costs no I/O: their count, and the distinct count,
    /// min and max of every column.
    pub fn exact<T: Borrow<Tuple>>(
        name: impl Into<String>,
        tuples_per_page: u64,
        arity: usize,
        rows: &[T],
    ) -> Self {
        let mut stats = TableStats::uniform(name, count(rows.len()), tuples_per_page, arity);
        for (c, col) in stats.columns.iter_mut().enumerate() {
            let distinct = distinct_values(rows, c);
            *col = ColumnStats {
                distinct: count(distinct.len().max(1)),
                min: distinct.iter().min().map(|v| (*v).clone()),
                max: distinct.iter().max().map(|v| (*v).clone()),
            };
        }
        stats
    }

    /// The count of `rows` and the exact distinct count of each column in
    /// `columns` — all an equi-join plan reads. Every other column is
    /// [`ColumnStats::unknown`], and no min or max is kept, so a caller
    /// hashes only the columns it joins on.
    pub fn exact_distinct<T: Borrow<Tuple>>(
        name: impl Into<String>,
        tuples_per_page: u64,
        arity: usize,
        rows: &[T],
        columns: impl IntoIterator<Item = usize>,
    ) -> Self {
        let mut stats = TableStats::uniform(name, count(rows.len()), tuples_per_page, arity);
        for c in columns {
            if let Some(col) = stats.columns.get_mut(c) {
                col.distinct = count(distinct_values(rows, c).len().max(1));
            }
        }
        stats
    }

    /// Distinct count of a column (the default when unknown).
    pub fn distinct(&self, column: usize) -> u64 {
        self.columns
            .get(column)
            .map(|c| c.distinct.max(1))
            .unwrap_or(10)
    }

    /// Whether the column has an index.
    pub fn has_index(&self, column: usize) -> bool {
        self.indexed_columns.contains(&column)
    }
}

/// A selectivity in `[0, 1]`.
pub type Selectivity = f64;

fn numeric(v: &Value) -> Option<f64> {
    v.numeric()
}

/// Fraction of the `[min, max]` interval below `v` (0.5 when unknowable).
fn fraction_below(stats: &ColumnStats, v: &Value) -> f64 {
    match (&stats.min, &stats.max) {
        (Some(lo), Some(hi)) => {
            let (lo, hi, x) = match (numeric(lo), numeric(hi), numeric(v)) {
                (Some(a), Some(b), Some(c)) if b > a => (a, b, c),
                _ => return 0.5,
            };
            ((x - lo) / (hi - lo)).clamp(0.0, 1.0)
        }
        _ => 0.5,
    }
}

/// Estimates the fraction of tuples a predicate keeps, given the table's
/// statistics.
pub fn estimate_selectivity(pred: &Predicate, stats: &TableStats) -> Selectivity {
    match pred {
        Predicate::True => 1.0,
        Predicate::Compare { column, op, value } => {
            let col = stats
                .columns
                .get(*column)
                .cloned()
                .unwrap_or_else(ColumnStats::unknown);
            match op {
                CmpOp::Eq => 1.0 / f64_from_u64(stats.distinct(*column)),
                CmpOp::Ne => 1.0 - 1.0 / f64_from_u64(stats.distinct(*column)),
                CmpOp::Lt | CmpOp::Le => fraction_below(&col, value).max(1e-6),
                CmpOp::Gt | CmpOp::Ge => (1.0 - fraction_below(&col, value)).max(1e-6),
            }
        }
        Predicate::Between { column, lo, hi } => {
            let col = stats
                .columns
                .get(*column)
                .cloned()
                .unwrap_or_else(ColumnStats::unknown);
            (fraction_below(&col, hi) - fraction_below(&col, lo)).clamp(1e-6, 1.0)
        }
        // One letter of the alphabet, roughly — the J* query.
        Predicate::StrPrefix { prefix, .. } => {
            (1.0f64 / 26.0).powi(i32::try_from(prefix.len().min(3)).unwrap_or(3))
        }
        Predicate::And(a, b) => estimate_selectivity(a, stats) * estimate_selectivity(b, stats),
        Predicate::Or(a, b) => {
            let sa = estimate_selectivity(a, stats);
            let sb = estimate_selectivity(b, stats);
            (sa + sb - sa * sb).clamp(0.0, 1.0)
        }
        Predicate::Not(p) => 1.0 - estimate_selectivity(p, stats),
    }
}

/// Estimated cardinality of an equijoin: `|L|·|R| / max(d_l, d_r)`
/// (System R).
pub fn estimate_join_cardinality(
    left_tuples: f64,
    left_distinct: u64,
    right_tuples: f64,
    right_distinct: u64,
) -> f64 {
    left_tuples * right_tuples / f64_from_u64(left_distinct.max(right_distinct).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emp_stats() -> TableStats {
        TableStats {
            name: "emp".into(),
            tuples: 10_000,
            pages: 250,
            tuples_per_page: 40,
            columns: vec![
                ColumnStats {
                    distinct: 10_000,
                    min: Some(Value::Int(0)),
                    max: Some(Value::Int(9_999)),
                },
                ColumnStats {
                    distinct: 5_000,
                    min: None,
                    max: None,
                },
                ColumnStats {
                    distinct: 8_000,
                    min: Some(Value::Float(20_000.0)),
                    max: Some(Value::Float(100_000.0)),
                },
                ColumnStats {
                    distinct: 10,
                    min: Some(Value::Int(0)),
                    max: Some(Value::Int(9)),
                },
            ],
            indexed_columns: vec![0],
            ordered_indexed_columns: vec![0],
        }
    }

    #[test]
    fn equality_is_one_over_distinct() {
        let s = emp_stats();
        let sel = estimate_selectivity(&Predicate::eq(3, 5i64), &s);
        assert!((sel - 0.1).abs() < 1e-9);
        let sel_id = estimate_selectivity(&Predicate::eq(0, 5i64), &s);
        assert!((sel_id - 1e-4).abs() < 1e-9);
    }

    #[test]
    fn range_uses_min_max() {
        let s = emp_stats();
        // salary > 60k over [20k, 100k] keeps half.
        let sel = estimate_selectivity(&Predicate::cmp(2, CmpOp::Gt, 60_000.0), &s);
        assert!((sel - 0.5).abs() < 0.01);
        let sel_low = estimate_selectivity(&Predicate::cmp(2, CmpOp::Lt, 28_000.0), &s);
        assert!((sel_low - 0.1).abs() < 0.01);
    }

    #[test]
    fn conjunction_multiplies_disjunction_includes_excludes() {
        let s = emp_stats();
        let a = Predicate::eq(3, 1i64); // 0.1
        let b = Predicate::cmp(2, CmpOp::Gt, 60_000.0); // 0.5
        let and = estimate_selectivity(&a.clone().and(b.clone()), &s);
        assert!((and - 0.05).abs() < 0.01);
        let or = estimate_selectivity(&a.or(b), &s);
        assert!((or - 0.55).abs() < 0.01);
    }

    #[test]
    fn prefix_and_negation() {
        let s = emp_stats();
        let j = Predicate::StrPrefix {
            column: 1,
            prefix: "J".into(),
        };
        let sel = estimate_selectivity(&j, &s);
        assert!((sel - 1.0 / 26.0).abs() < 1e-9);
        let not = estimate_selectivity(&Predicate::Not(Box::new(Predicate::True)), &s);
        assert_eq!(not, 0.0);
    }

    #[test]
    fn unknown_columns_fall_back() {
        let s = emp_stats();
        let sel = estimate_selectivity(&Predicate::eq(99, 1i64), &s);
        assert!((sel - 0.1).abs() < 1e-9, "default 1/10");
        // Range on a column without min/max: half.
        let sel2 = estimate_selectivity(&Predicate::cmp(1, CmpOp::Lt, "m"), &s);
        assert!((sel2 - 0.5).abs() < 1e-9);
    }

    #[test]
    fn join_cardinality_rule() {
        let n = estimate_join_cardinality(1_000.0, 100, 5_000.0, 500);
        assert!((n - 10_000.0).abs() < 1e-9);
    }

    #[test]
    fn exact_stats_cover_every_column_and_distinct_stats_only_the_named() {
        let rows: Vec<Tuple> = (0..1_000i64)
            .map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i % 10), Value::Int(7)]))
            .collect();
        let s = TableStats::exact("emp", 40, 3, &rows);
        assert_eq!((s.tuples, s.pages), (1_000, 25));
        assert_eq!(s.columns[0].distinct, 1_000, "ids are unique");
        assert_eq!(s.columns[1].distinct, 10, "ten departments");
        assert_eq!(s.columns[0].min, Some(Value::Int(0)));
        assert_eq!(s.columns[0].max, Some(Value::Int(999)));
        assert_eq!(s.columns[2].max, Some(Value::Int(7)));
        let d = TableStats::exact_distinct("emp", 40, 3, &rows, [1]);
        assert_eq!((d.tuples, d.pages), (1_000, 25));
        assert_eq!((d.columns[1].distinct, &d.columns[1].min), (10, &None));
        assert_eq!(d.columns[0], ColumnStats::unknown(), "not named");
    }

    #[test]
    fn uniform_builder() {
        let s = TableStats::uniform("t", 1_000, 40, 3);
        assert_eq!(s.pages, 25);
        assert_eq!(s.columns.len(), 3);
        assert!(!s.has_index(0));
    }
}
