//! Physical plans: annotated operator trees the engine can execute.

use mmdb_types::{JoinAlgorithm, Predicate};
use std::fmt;

/// How a base table is accessed.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPath {
    /// Full scan with an optional residual filter.
    SeqScan {
        /// Table name.
        table: String,
        /// Pushed-down predicate (possibly `True`).
        predicate: Predicate,
    },
    /// Index equality lookup, then residual filter.
    IndexLookup {
        /// Table name.
        table: String,
        /// Indexed column used for the lookup.
        column: usize,
        /// Equality value.
        value: mmdb_types::Value,
        /// Residual predicate applied after the lookup.
        residual: Predicate,
    },
    /// Ordered-index range scan `lo ≤ column ≤ hi` (§2's sequential-access
    /// case: position once, then read in key order), then residual filter.
    IndexRange {
        /// Table name.
        table: String,
        /// Ordered-indexed column.
        column: usize,
        /// Inclusive lower bound.
        lo: mmdb_types::Value,
        /// Inclusive upper bound.
        hi: mmdb_types::Value,
        /// Residual predicate applied after the scan.
        residual: Predicate,
    },
}

impl AccessPath {
    /// The table this path reads.
    pub fn table(&self) -> &str {
        match self {
            AccessPath::SeqScan { table, .. }
            | AccessPath::IndexLookup { table, .. }
            | AccessPath::IndexRange { table, .. } => table,
        }
    }
}

/// A physical operator tree.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysicalPlan {
    /// Base-table access.
    Access(AccessPath),
    /// A join of two subplans. The smaller (build) side is `left`.
    Join {
        /// Build side.
        left: Box<PhysicalPlan>,
        /// Probe side.
        right: Box<PhysicalPlan>,
        /// Join column in the left subplan's output.
        left_key: usize,
        /// Join column in the right subplan's output.
        right_key: usize,
        /// Chosen algorithm.
        method: JoinAlgorithm,
        /// Estimated output cardinality.
        estimated_rows: f64,
    },
}

impl PhysicalPlan {
    /// Number of joins in the tree.
    pub fn join_count(&self) -> usize {
        match self {
            PhysicalPlan::Access(_) => 0,
            PhysicalPlan::Join { left, right, .. } => 1 + left.join_count() + right.join_count(),
        }
    }

    /// Base tables in left-to-right order.
    pub fn tables(&self) -> Vec<&str> {
        match self {
            PhysicalPlan::Access(a) => vec![a.table()],
            PhysicalPlan::Join { left, right, .. } => {
                let mut v = left.tables();
                v.extend(right.tables());
                v
            }
        }
    }

    /// Join algorithms used, in tree order.
    pub fn methods(&self) -> Vec<JoinAlgorithm> {
        match self {
            PhysicalPlan::Access(_) => vec![],
            PhysicalPlan::Join {
                left,
                right,
                method,
                ..
            } => {
                let mut v = left.methods();
                v.extend(right.methods());
                v.push(*method);
                v
            }
        }
    }

    fn render(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let pad = "  ".repeat(indent);
        match self {
            PhysicalPlan::Access(AccessPath::SeqScan { table, predicate }) => {
                writeln!(f, "{pad}SeqScan({table}) filter={predicate:?}")
            }
            PhysicalPlan::Access(AccessPath::IndexLookup {
                table,
                column,
                value,
                ..
            }) => writeln!(f, "{pad}IndexLookup({table}.{column} = {value})"),
            PhysicalPlan::Access(AccessPath::IndexRange {
                table,
                column,
                lo,
                hi,
                ..
            }) => writeln!(f, "{pad}IndexRange({table}.{column} in [{lo}, {hi}])"),
            PhysicalPlan::Join {
                left,
                right,
                method,
                estimated_rows,
                ..
            } => {
                writeln!(f, "{pad}{} (≈{estimated_rows:.0} rows)", method.name())?;
                left.render(f, indent + 1)?;
                right.render(f, indent + 1)
            }
        }
    }
}

impl fmt::Display for PhysicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.render(f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_types::Value;

    fn scan(t: &str) -> PhysicalPlan {
        PhysicalPlan::Access(AccessPath::SeqScan {
            table: t.into(),
            predicate: Predicate::True,
        })
    }

    #[test]
    fn tree_accessors() {
        let plan = PhysicalPlan::Join {
            left: Box::new(scan("a")),
            right: Box::new(PhysicalPlan::Join {
                left: Box::new(scan("b")),
                right: Box::new(scan("c")),
                left_key: 0,
                right_key: 0,
                method: JoinAlgorithm::SortMerge,
                estimated_rows: 10.0,
            }),
            left_key: 0,
            right_key: 0,
            method: JoinAlgorithm::HybridHash,
            estimated_rows: 100.0,
        };
        assert_eq!(plan.join_count(), 2);
        assert_eq!(plan.tables(), vec!["a", "b", "c"]);
        assert_eq!(
            plan.methods(),
            vec![JoinAlgorithm::SortMerge, JoinAlgorithm::HybridHash]
        );
        let rendered = plan.to_string();
        assert!(rendered.contains("hybrid-hash"));
        assert!(rendered.contains("SeqScan(a)"));
    }

    #[test]
    fn access_path_table() {
        let p = AccessPath::IndexLookup {
            table: "emp".into(),
            column: 0,
            value: Value::Int(7),
            residual: Predicate::True,
        };
        assert_eq!(p.table(), "emp");
    }
}
