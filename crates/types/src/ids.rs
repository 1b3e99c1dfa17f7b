//! Identifier newtypes.
//!
//! A distinct newtype for transaction identifiers prevents an entire class
//! of "wrong id" bugs at compile time.

use std::fmt;

/// Identifies a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TxnId(pub u64);

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
        assert_eq!(TxnId(12).to_string(), "T12");
    }
}
