//! Logical query specification.
//!
//! A conjunctive equijoin query: a set of base tables each with a local
//! selection predicate, plus equijoin edges. This covers the paper's §4
//! setting (select-project-join trees whose optimization reduces to
//! operator ordering).

use mmdb_types::Predicate;

/// One base table in a query.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    /// Catalog name.
    pub table: String,
    /// Local selection (push-down target); `Predicate::True` if none.
    pub predicate: Predicate,
}

impl TableRef {
    /// A table with no local predicate.
    pub fn plain(table: impl Into<String>) -> Self {
        TableRef {
            table: table.into(),
            predicate: Predicate::True,
        }
    }

    /// A table with a local predicate.
    pub fn filtered(table: impl Into<String>, predicate: Predicate) -> Self {
        TableRef {
            table: table.into(),
            predicate,
        }
    }
}

/// An equijoin edge between two tables of a [`QuerySpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinEdge {
    /// Index into `QuerySpec::tables`.
    pub left_table: usize,
    /// Join column in the left table.
    pub left_column: usize,
    /// Index into `QuerySpec::tables`.
    pub right_table: usize,
    /// Join column in the right table.
    pub right_column: usize,
}

impl JoinEdge {
    /// The edge's two `(table, column)` ends, left first.
    pub fn ends(&self) -> [(usize, usize); 2] {
        [
            (self.left_table, self.left_column),
            (self.right_table, self.right_column),
        ]
    }
}

/// A conjunctive equijoin query.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// Base tables with local predicates.
    pub tables: Vec<TableRef>,
    /// Equijoin edges; must connect all tables (checked by the optimizer).
    pub joins: Vec<JoinEdge>,
}

impl QuerySpec {
    /// A single-table query.
    pub fn single(table: TableRef) -> Self {
        QuerySpec {
            tables: vec![table],
            joins: Vec::new(),
        }
    }

    /// Whether [`optimize`](crate::optimize) reads the join columns'
    /// distinct counts to choose its plan: only with two or more edges to
    /// compare. One edge starts from the table with fewer estimated rows
    /// and prices method and sides from the two cardinalities, so those
    /// counts set only its `estimated_rows`.
    pub fn orders_joins(&self) -> bool {
        self.joins.len() >= 2
    }

    /// Whether the join graph connects every table.
    pub fn is_connected(&self) -> bool {
        if self.tables.len() <= 1 {
            return true;
        }
        let n = self.tables.len();
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(t) = stack.pop() {
            for e in &self.joins {
                let other = if e.left_table == t {
                    Some(e.right_table)
                } else if e.right_table == t {
                    Some(e.left_table)
                } else {
                    None
                };
                if let Some(o) = other {
                    if o < n && !seen[o] {
                        seen[o] = true;
                        stack.push(o);
                    }
                }
            }
        }
        seen.into_iter().all(|s| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connectivity() {
        let q = QuerySpec {
            tables: vec![
                TableRef::plain("a"),
                TableRef::plain("b"),
                TableRef::plain("c"),
            ],
            joins: vec![
                JoinEdge {
                    left_table: 0,
                    left_column: 0,
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
        assert!(q.is_connected());
        let disconnected = QuerySpec {
            tables: vec![TableRef::plain("a"), TableRef::plain("b")],
            joins: vec![],
        };
        assert!(!disconnected.is_connected());
        assert!(QuerySpec::single(TableRef::plain("solo")).is_connected());
    }
}
