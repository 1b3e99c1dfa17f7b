#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Offline stand-in for the `proptest` crate.
//!
//! The build container has no crates.io access, so the workspace vendors
//! the subset of the proptest API its property tests use: the
//! [`proptest!`] macro, [`Strategy`] with `prop_map`/`boxed`,
//! [`prop_oneof!`], integer/float range strategies, `any::<T>()`,
//! [`Just`], tuple strategies, `prop::collection::{vec, btree_set}`, and
//! simple `[class]{m,n}` string patterns.
//!
//! Differences from upstream, deliberately accepted:
//!
//! * **No shrinking.** A failing case reports its case number and the
//!   deterministic per-test seed; re-running reproduces it exactly.
//! * **Deterministic seeding.** Each test's stream is derived from its
//!   full module path, so runs are reproducible without a persistence
//!   file. Set `PROPTEST_CASES` to change the case count globally.

use std::fmt;

pub mod strategy;

pub use strategy::{any, Arbitrary, BoxedStrategy, Just, Strategy, Union};

/// Collection strategies (`prop::collection::vec` call sites).
pub mod collection {
    use crate::strategy::Strategy;
    use mmdb_types::WorkloadRng;
    use std::collections::BTreeSet;
    use std::ops::Range;

    /// Strategy for `Vec<T>` with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    /// Strategy for `BTreeSet<T>` with a target size drawn from `size`.
    ///
    /// If the element strategy cannot produce enough distinct values the
    /// set may come out smaller than the drawn target, like upstream.
    pub fn btree_set<S: Strategy>(element: S, size: Range<usize>) -> BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        BTreeSetStrategy { element, size }
    }

    /// Uniform size in `range`; an empty range yields its start.
    fn usize_in(rng: &mut WorkloadRng, range: Range<usize>) -> usize {
        if range.start >= range.end {
            return range.start;
        }
        range.start + rng.index(range.end - range.start)
    }

    /// See [`vec`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut WorkloadRng) -> Vec<S::Value> {
            let len = usize_in(rng, self.size.clone());
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// See [`btree_set`].
    #[derive(Debug, Clone)]
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;

        fn sample(&self, rng: &mut WorkloadRng) -> BTreeSet<S::Value> {
            let target = usize_in(rng, self.size.clone());
            let mut out = BTreeSet::new();
            // Bounded retries: duplicates are expected for narrow element
            // domains, so allow several attempts per requested element.
            for _ in 0..target * 8 + 32 {
                if out.len() >= target {
                    break;
                }
                out.insert(self.element.sample(rng));
            }
            out
        }
    }
}

/// `prop::…` paths as the upstream prelude exposes them.
pub mod prop {
    pub use crate::collection;
}

/// Test-runner plumbing: every strategy draws from a
/// [`mmdb_types::WorkloadRng`] seeded per test.
pub mod test_runner {
    use mmdb_types::WorkloadRng;

    /// A stream derived from the test's fully qualified name, so each test
    /// is deterministic and distinct: the generator seeded with the
    /// name's FNV-1a hash.
    pub fn for_test(name: &str) -> WorkloadRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        WorkloadRng::seeded(h)
    }
}

/// Failure raised by `prop_assert*` and `TestCaseError::fail`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// A failed case with the given reason.
    pub fn fail<S: Into<String>>(reason: S) -> TestCaseError {
        TestCaseError(reason.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Per-`proptest!` block configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// How many random cases each test runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases per test.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        let cases = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(128);
        ProptestConfig { cases }
    }
}

/// Everything a test file needs: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::collection;
    pub use crate::prop;
    pub use crate::strategy::{any, Arbitrary, BoxedStrategy, Just, Strategy, Union};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, ProptestConfig,
        TestCaseError,
    };
}

/// Defines property tests: `proptest! { #[test] fn f(x in strat) { … } }`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!(cfg = $cfg; $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!(cfg = $crate::ProptestConfig::default(); $($rest)*);
    };
}

/// Internal recursion for [`proptest!`] — not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr;) => {};
    (cfg = $cfg:expr;
     $(#[$meta:meta])*
     fn $name:ident($($arg:pat in $strat:expr),* $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            let __strats = ($($strat,)*);
            let __test_name = concat!(module_path!(), "::", stringify!($name));
            let mut __rng = $crate::test_runner::for_test(__test_name);
            for __case in 0..__cfg.cases {
                let ($($arg,)*) = $crate::Strategy::sample(&__strats, &mut __rng);
                let __outcome: ::core::result::Result<(), $crate::TestCaseError> =
                    (|| { $body; ::core::result::Result::Ok(()) })();
                if let ::core::result::Result::Err(e) = __outcome {
                    panic!(
                        "[{}] case {}/{} failed: {}",
                        __test_name,
                        __case + 1,
                        __cfg.cases,
                        e
                    );
                }
            }
        }
        $crate::__proptest_impl!(cfg = $cfg; $($rest)*);
    };
}

/// Asserts a condition inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}", stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (__a, __b) = (&$a, &$b);
        if !(__a == __b) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($a), stringify!($b), __a, __b
            )));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (__a, __b) = (&$a, &$b);
        if !(__a == __b) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "{}\n  left: {:?}\n right: {:?}",
                format!($($fmt)+), __a, __b
            )));
        }
    }};
}

/// Asserts inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (__a, __b) = (&$a, &$b);
        if __a == __b {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} != {}`\n  both: {:?}",
                stringify!($a), stringify!($b), __a
            )));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (__a, __b) = (&$a, &$b);
        if __a == __b {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    }};
}

/// Uniform choice among heterogeneous strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($strat)),+])
    };
}
