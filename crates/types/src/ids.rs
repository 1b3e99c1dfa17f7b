//! Identifier newtypes.
//!
//! Using distinct newtypes for page and transaction identifiers prevents
//! an entire class of "wrong id" bugs at compile time.

use std::fmt;

/// Identifies a page within a simulated disk or log device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PageId(pub u64);

/// Identifies a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TxnId(pub u64);

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(PageId(3).to_string(), "P3");
        assert_eq!(TxnId(12).to_string(), "T12");
    }
}
