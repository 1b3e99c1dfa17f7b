//! Engine-wide runtime invariant auditing.
//!
//! Every stateful engine structure — residency simulator, lock manager,
//! MVCC store, recovery manager, index trees — exposes the same audit
//! entry point through [`Auditable`]. An audit walks the structure's
//! internal bookkeeping and reports the first inconsistency it finds as an
//! [`AuditViolation`] naming the component, the invariant, and the
//! observed state.
//!
//! Audits are diagnostic, not part of normal control flow: they run after
//! mutation batches in property tests and (behind `cfg(debug_assertions)`)
//! at commit points, where a violation means the engine itself — not the
//! workload — is wrong. The checks encode the safety arguments the paper
//! makes informally: resident-set accounting for the §2 fault model, §5.2's
//! "a dependent transaction never commits before its dependencies" (log
//! pages complete in LSN order), LSN monotonicity for §5.3 checkpointing,
//! and version-chain timestamp order for the §6 versioning sketch.

use crate::error::Error;
use std::fmt;

/// A violated internal invariant reported by an [`Auditable`] structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditViolation {
    /// The structure that failed its audit (e.g. `"PagedResidency"`).
    pub component: &'static str,
    /// Short name of the violated invariant (e.g. `"pin-accounting"`).
    pub invariant: &'static str,
    /// Human-readable description of the observed inconsistency.
    pub detail: String,
}

impl AuditViolation {
    /// A new violation report.
    pub fn new(
        component: &'static str,
        invariant: &'static str,
        detail: impl Into<String>,
    ) -> Self {
        AuditViolation {
            component,
            invariant,
            detail: detail.into(),
        }
    }

    /// Passes when `cond` holds; otherwise builds the violation lazily.
    pub fn ensure(
        cond: bool,
        component: &'static str,
        invariant: &'static str,
        detail: impl FnOnce() -> String,
    ) -> Result<(), AuditViolation> {
        if cond {
            Ok(())
        } else {
            Err(AuditViolation::new(component, invariant, detail()))
        }
    }
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} audit failed [{}]: {}",
            self.component, self.invariant, self.detail
        )
    }
}

impl std::error::Error for AuditViolation {}

impl From<AuditViolation> for Error {
    fn from(v: AuditViolation) -> Self {
        Error::Internal(v.to_string())
    }
}

/// Structures that can verify their own internal invariants.
///
/// `audit` must be read-only and side-effect free: it inspects the
/// structure's bookkeeping and either confirms every invariant or returns
/// the first [`AuditViolation`] found.
pub trait Auditable {
    /// Checks every internal invariant, returning the first violation.
    fn audit(&self) -> Result<(), AuditViolation>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ensure_passes_and_fails() {
        assert!(AuditViolation::ensure(true, "X", "inv", || unreachable!()).is_ok());
        let v = AuditViolation::ensure(false, "X", "inv", || "1 != 2".into()).unwrap_err();
        assert_eq!(v.component, "X");
        assert_eq!(v.invariant, "inv");
        assert!(v.to_string().contains("X audit failed [inv]: 1 != 2"));
    }

    #[test]
    fn converts_into_engine_error() {
        let v = AuditViolation::new("LockManager", "acyclic", "cycle 1->2->1");
        let e: Error = v.into();
        assert!(matches!(e, Error::Internal(s) if s.contains("acyclic")));
    }
}
