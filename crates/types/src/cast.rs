//! Checked numeric conversions for the analytic cost models.
//!
//! The paper's cost formulas (§3, §4) are real-valued expressions over
//! integer inputs — page counts, tuple counts, fan-outs.  Rust's bare
//! `as` casts silently saturate or truncate, which is exactly the wrong
//! behaviour inside a cost model: a silently-clamped cardinality skews a
//! plan choice without any visible failure.  The helpers here make every
//! int↔float crossing explicit and loud (in debug builds) about
//! precision loss, and the `cargo xtask audit` lossy-cast pass flags any
//! bare `as` cast in `analytic`/`planner` that bypasses them.

/// Converts a tuple/page cardinality to `f64` for cost arithmetic.
///
/// Exact for every value up to 2^53; the paper's workloads (§2, Table 1)
/// stay far below that, so the debug assertion documents rather than
/// restricts.
#[must_use]
pub fn f64_from_u64(n: u64) -> f64 {
    debug_assert!(
        n <= (1u64 << 53),
        "cardinality {n} exceeds f64's exact integer range"
    );
    n as f64
}

/// Converts an in-memory length (`usize`) to `f64` for cost arithmetic.
///
/// Same exactness bound as [`f64_from_u64`].
#[must_use]
pub fn f64_from_usize(n: usize) -> f64 {
    debug_assert!(
        n as u128 <= (1u128 << 53),
        "length {n} exceeds f64's exact integer range"
    );
    n as f64
}

/// Converts a real-valued cost-model quantity back to a cardinality.
///
/// Truncates toward zero, mapping NaN and negatives to 0 and values
/// beyond `u64::MAX` to `u64::MAX` — a saturating floor, never UB and
/// never a silently wrapped count.  Callers wanting a ceiling apply
/// `.ceil()` first.
#[must_use]
pub fn u64_from_f64(x: f64) -> u64 {
    if x.is_nan() || x <= 0.0 {
        0
    } else if x >= u64::MAX as f64 {
        u64::MAX
    } else {
        x as u64
    }
}

/// [`u64_from_f64`] for an in-memory count: a saturating floor.
#[must_use]
pub fn usize_from_f64(x: f64) -> usize {
    usize::try_from(u64_from_f64(x)).unwrap_or(usize::MAX)
}

/// Converts a join count to the `u32` exponent form `saturating_pow`
/// wants, saturating instead of truncating.
#[must_use]
pub fn u32_from_usize(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

/// `u64` companion of [`u32_from_usize`]: saturating, never truncating.
#[must_use]
pub fn u32_from_u64(n: u64) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_round_trips_small_cardinalities() {
        assert_eq!(f64_from_u64(0), 0.0);
        assert_eq!(f64_from_u64(4096), 4096.0);
        assert_eq!(f64_from_usize(17), 17.0);
    }

    #[test]
    fn u64_from_f64_saturates_instead_of_wrapping() {
        assert_eq!(u64_from_f64(f64::NAN), 0);
        assert_eq!(u64_from_f64(-3.0), 0);
        assert_eq!(u64_from_f64(2.9), 2);
        assert_eq!(u64_from_f64(1e30), u64::MAX);
    }

    #[test]
    fn u32_exponent_saturates() {
        assert_eq!(u32_from_usize(5), 5);
        assert_eq!(u32_from_usize(usize::MAX), u32::MAX);
    }
}
