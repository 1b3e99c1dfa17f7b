//! The [`Strategy`] trait and the combinators the workspace tests use.

use mmdb_types::WorkloadRng;
use std::marker::PhantomData;
use std::ops::Range;

/// A recipe for generating values of one type from a [`WorkloadRng`].
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut WorkloadRng) -> Self::Value;

    /// Transforms generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy so heterogeneous strategies can share a
    /// collection (used by `prop_oneof!`).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy {
            inner: Box::new(self),
        }
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn sample(&self, _rng: &mut WorkloadRng) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn sample(&self, rng: &mut WorkloadRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

/// A type-erased strategy.
pub struct BoxedStrategy<T> {
    inner: Box<dyn Strategy<Value = T>>,
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn sample(&self, rng: &mut WorkloadRng) -> T {
        self.inner.sample(rng)
    }
}

impl<T> std::fmt::Debug for BoxedStrategy<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("BoxedStrategy")
    }
}

/// Uniform choice among boxed strategies (the `prop_oneof!` backend).
pub struct Union<T> {
    arms: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// A union of the given arms; each sample picks one uniformly.
    pub fn new(arms: Vec<BoxedStrategy<T>>) -> Union<T> {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn sample(&self, rng: &mut WorkloadRng) -> T {
        let idx = rng.index(self.arms.len());
        self.arms[idx].sample(rng)
    }
}

/// Types with a canonical "any value" strategy, like upstream's trait of
/// the same name.
pub trait Arbitrary: Sized {
    /// Draws one arbitrary value.
    fn arbitrary(rng: &mut WorkloadRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut WorkloadRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut WorkloadRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut WorkloadRng) -> f64 {
        // Arbitrary bit patterns: includes infinities, NaNs, subnormals.
        // The workspace's Value type is totally ordered via total_cmp, so
        // these round-trip and compare fine.
        f64::from_bits(rng.next_u64())
    }
}

impl<T: Arbitrary> Arbitrary for Option<T> {
    fn arbitrary(rng: &mut WorkloadRng) -> Option<T> {
        if rng.next_u64() % 4 == 0 {
            None
        } else {
            Some(T::arbitrary(rng))
        }
    }
}

/// The `any::<T>()` strategy.
#[derive(Debug, Clone)]
pub struct Any<T>(PhantomData<T>);

/// Builds a strategy producing arbitrary values of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn sample(&self, rng: &mut WorkloadRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! impl_strategy_int_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut WorkloadRng) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u128 as u64;
                let off = rng.below(span);
                (self.start as i128 + off as i128) as $t
            }
        }
    )*};
}

impl_strategy_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn sample(&self, rng: &mut WorkloadRng) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + rng.unit() * (self.end - self.start)
    }
}

macro_rules! impl_strategy_tuple {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            #[allow(non_snake_case)]
            fn sample(&self, rng: &mut WorkloadRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    };
}

impl_strategy_tuple!(A);
impl_strategy_tuple!(A, B);
impl_strategy_tuple!(A, B, C);
impl_strategy_tuple!(A, B, C, D);
impl_strategy_tuple!(A, B, C, D, E);
impl_strategy_tuple!(A, B, C, D, E, F);

/// String patterns: a `&'static str` of the form `[class]{m,n}` is a
/// strategy producing strings of `m..=n` characters drawn from the class
/// (which may contain `a-z` style ranges). A pattern without `[` is
/// treated as a literal. This covers the regex subset the workspace's
/// tests use.
impl Strategy for &'static str {
    type Value = String;

    fn sample(&self, rng: &mut WorkloadRng) -> String {
        let (alphabet, lo, hi) = match parse_class_pattern(self) {
            Some(parsed) => parsed,
            None => return (*self).to_string(),
        };
        let len = lo + rng.index(hi - lo + 1);
        (0..len)
            .map(|_| alphabet[rng.index(alphabet.len())])
            .collect()
    }
}

/// Parses `[chars]{m,n}` into (alphabet, m, n). Returns `None` when the
/// pattern does not have that shape.
fn parse_class_pattern(pattern: &str) -> Option<(Vec<char>, usize, usize)> {
    let rest = pattern.strip_prefix('[')?;
    let close = rest.find(']')?;
    let class: Vec<char> = rest[..close].chars().collect();
    let mut alphabet = Vec::new();
    let mut i = 0;
    while i < class.len() {
        if i + 2 < class.len() && class[i + 1] == '-' {
            let (lo, hi) = (class[i], class[i + 2]);
            for c in lo..=hi {
                alphabet.push(c);
            }
            i += 3;
        } else {
            alphabet.push(class[i]);
            i += 1;
        }
    }
    if alphabet.is_empty() {
        return None;
    }
    let reps = rest[close + 1..]
        .strip_prefix('{')?
        .strip_suffix('}')?
        .to_string();
    let (lo, hi) = match reps.split_once(',') {
        Some((a, b)) => (a.trim().parse().ok()?, b.trim().parse().ok()?),
        None => {
            let n = reps.trim().parse().ok()?;
            (n, n)
        }
    };
    if lo > hi {
        return None;
    }
    Some((alphabet, lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_runner::for_test;

    #[test]
    fn ranges_sample_in_bounds() {
        let mut rng = for_test("ranges_sample_in_bounds");
        for _ in 0..10_000 {
            let v = (-20i16..20).sample(&mut rng);
            assert!((-20..20).contains(&v));
            let u = (1usize..17).sample(&mut rng);
            assert!((1..17).contains(&u));
            let f = (0.3f64..1.0).sample(&mut rng);
            assert!((0.3..1.0).contains(&f));
        }
    }

    #[test]
    fn map_and_union_compose() {
        let mut rng = for_test("map_and_union_compose");
        let strat = Union::new(vec![
            (0u8..3).prop_map(|v| v as i32).boxed(),
            Just(-1i32).boxed(),
        ]);
        let mut saw_just = false;
        for _ in 0..200 {
            let v = strat.sample(&mut rng);
            assert!(v == -1 || (0..3).contains(&v));
            saw_just |= v == -1;
        }
        assert!(saw_just, "union must visit every arm");
    }

    #[test]
    fn class_patterns_honour_alphabet_and_length() {
        let mut rng = for_test("class_patterns");
        for _ in 0..500 {
            let s = "[a-cXY ]{0,5}".sample(&mut rng);
            assert!(s.chars().count() <= 5);
            assert!(s.chars().all(|c| "abcXY ".contains(c)), "bad char in {s:?}");
        }
    }

    #[test]
    fn tuples_sample_elementwise() {
        let mut rng = for_test("tuples_sample_elementwise");
        let (a, b, c) = (0u8..2, 5i64..6, Just("k")).sample(&mut rng);
        assert!(a < 2);
        assert_eq!(b, 5);
        assert_eq!(c, "k");
    }

    #[test]
    fn vec_and_btree_set_respect_sizes() {
        let mut rng = for_test("vec_and_btree_set");
        for _ in 0..200 {
            let v = crate::collection::vec(any::<i32>(), 2..9).sample(&mut rng);
            assert!((2..9).contains(&v.len()));
            let s = crate::collection::btree_set(any::<i32>(), 1..40).sample(&mut rng);
            assert!((1..40).contains(&s.len()));
        }
    }
}
