//! Offline miniature stand-in for the `proptest` crate.
//!
//! The workspace builds without crates.io access, so this crate implements
//! just enough of the proptest surface for the property tests in this
//! repository: range strategies over the primitive numeric types, tuple
//! strategies, `prop_map`, the `collection::{vec, hash_set, hash_map}`
//! combinators, `bool::ANY`, and the `proptest!` / `prop_assert*` macros.
//!
//! Unlike the real proptest there is no shrinking: each property runs
//! [`num_cases`] deterministically seeded cases (seeded from the test name,
//! so failures are reproducible run to run).  Like the real crate, the
//! `PROPTEST_CASES` environment variable overrides the case count.

#![forbid(unsafe_code)]

use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::ops::{Range, RangeInclusive};

/// Number of cases each `proptest!` property runs unless `PROPTEST_CASES`
/// overrides it.
pub const NUM_CASES: u32 = 64;

/// Number of cases each `proptest!` property runs: the `PROPTEST_CASES`
/// environment variable when it holds a positive integer, else
/// [`NUM_CASES`].
#[must_use]
pub fn num_cases() -> u32 {
    cases_from(std::env::var("PROPTEST_CASES").ok().as_deref())
}

fn cases_from(value: Option<&str>) -> u32 {
    value
        .and_then(|v| v.trim().parse::<u32>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(NUM_CASES)
}

/// Error carried out of a failing property body by the `prop_assert*` macros.
#[derive(Debug)]
pub struct TestCaseError(pub String);

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Deterministic RNG used to sample strategy values (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds the generator from a property name so each test gets a stable,
    /// independent stream.
    #[must_use]
    pub fn from_name(name: &str) -> Self {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.as_bytes() {
            hash ^= u64::from(*b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng { state: hash }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform draw from `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0)
    }
}

/// A generator of random values, the core proptest abstraction.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Samples one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps sampled values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn sample(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

macro_rules! impl_int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + rng.below(span + 1) as i128) as $t
            }
        }
    )*};
}

impl_int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn sample(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.unit() * (self.end - self.start)
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;

    fn sample(&self, rng: &mut TestRng) -> f64 {
        self.start() + rng.unit() * (self.end() - self.start())
    }
}

impl<A: Strategy, B: Strategy> Strategy for (A, B) {
    type Value = (A::Value, B::Value);

    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.sample(rng), self.1.sample(rng))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C) {
    type Value = (A::Value, B::Value, C::Value);

    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.sample(rng), self.1.sample(rng), self.2.sample(rng))
    }
}

/// Strategies over `bool`.
pub mod bool {
    use super::{Strategy, TestRng};

    /// Uniformly random booleans.
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    /// The uniform boolean strategy (`proptest::bool::ANY`).
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;

        fn sample(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

/// Collection strategies (`vec`, `hash_set`, `hash_map`).
pub mod collection {
    use super::{Hash, HashMap, HashSet, Range, Strategy, TestRng};

    /// Strategy for `Vec<T>` with a size drawn from a range.
    pub struct VecStrategy<S> {
        elem: S,
        sizes: Range<usize>,
    }

    /// Vectors of values from `elem`, with length in `sizes`.
    pub fn vec<S: Strategy>(elem: S, sizes: Range<usize>) -> VecStrategy<S> {
        VecStrategy { elem, sizes }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let n = sample_size(&self.sizes, rng);
            (0..n).map(|_| self.elem.sample(rng)).collect()
        }
    }

    /// Strategy for `HashSet<T>` with a target size drawn from a range.
    pub struct HashSetStrategy<S> {
        elem: S,
        sizes: Range<usize>,
    }

    /// Hash sets of values from `elem`; duplicates are retried a bounded
    /// number of times, so the resulting set may be smaller than requested.
    pub fn hash_set<S>(elem: S, sizes: Range<usize>) -> HashSetStrategy<S>
    where
        S: Strategy,
        S::Value: Eq + Hash,
    {
        HashSetStrategy { elem, sizes }
    }

    impl<S> Strategy for HashSetStrategy<S>
    where
        S: Strategy,
        S::Value: Eq + Hash,
    {
        type Value = HashSet<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let n = sample_size(&self.sizes, rng);
            let mut set = HashSet::with_capacity(n);
            let mut attempts = 0;
            while set.len() < n && attempts < n * 10 + 16 {
                set.insert(self.elem.sample(rng));
                attempts += 1;
            }
            set
        }
    }

    /// Strategy for `HashMap<K, V>` with a target size drawn from a range.
    pub struct HashMapStrategy<K, V> {
        key: K,
        value: V,
        sizes: Range<usize>,
    }

    /// Hash maps with keys from `key` and values from `value`.
    pub fn hash_map<K, V>(key: K, value: V, sizes: Range<usize>) -> HashMapStrategy<K, V>
    where
        K: Strategy,
        K::Value: Eq + Hash,
        V: Strategy,
    {
        HashMapStrategy { key, value, sizes }
    }

    impl<K, V> Strategy for HashMapStrategy<K, V>
    where
        K: Strategy,
        K::Value: Eq + Hash,
        V: Strategy,
    {
        type Value = HashMap<K::Value, V::Value>;

        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let n = sample_size(&self.sizes, rng);
            let mut map = HashMap::with_capacity(n);
            let mut attempts = 0;
            while map.len() < n && attempts < n * 10 + 16 {
                map.insert(self.key.sample(rng), self.value.sample(rng));
                attempts += 1;
            }
            map
        }
    }

    fn sample_size(sizes: &Range<usize>, rng: &mut TestRng) -> usize {
        assert!(sizes.start < sizes.end, "empty size range");
        sizes.start + rng.below((sizes.end - sizes.start) as u64) as usize
    }
}

/// The usual `use proptest::prelude::*;` imports.
pub mod prelude {
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, proptest, Strategy};
}

/// Runs each listed property over [`num_cases`] deterministically sampled
/// inputs.  Supports the `name in strategy` argument syntax of the real
/// proptest macro (without shrinking or persisted regressions).
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)+) => {
        $(
            $(#[$meta])*
            fn $name() {
                let mut __proptest_rng = $crate::TestRng::from_name(concat!(module_path!(), "::", stringify!($name)));
                for __proptest_case in 0..$crate::num_cases() {
                    $(let $arg = $crate::Strategy::sample(&($strat), &mut __proptest_rng);)+
                    let __proptest_result: ::std::result::Result<(), $crate::TestCaseError> =
                        (|| { $body Ok(()) })();
                    if let Err(e) = __proptest_result {
                        panic!(
                            "property {} failed at case {}: {}",
                            stringify!($name),
                            __proptest_case,
                            e
                        );
                    }
                }
            }
        )+
    };
}

/// Fails the current property case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return Err($crate::TestCaseError(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return Err($crate::TestCaseError(format!($($fmt)*)));
        }
    };
}

/// Fails the current property case unless the two values are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err($crate::TestCaseError(format!(
                "assertion failed: {} == {} ({:?} vs {:?})",
                stringify!($left),
                stringify!($right),
                l,
                r
            )));
        }
    }};
}

/// Skips the current case unless `cond` holds (stub: treated as a pass).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return Ok(());
        }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn rng_is_deterministic_per_name() {
        let mut a = super::TestRng::from_name("x");
        let mut b = super::TestRng::from_name("x");
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn case_count_override_parses_positive_integers_only() {
        assert_eq!(super::cases_from(None), super::NUM_CASES);
        assert_eq!(super::cases_from(Some("640")), 640);
        assert_eq!(super::cases_from(Some(" 7 ")), 7);
        for bad in ["", "0", "-3", "many"] {
            assert_eq!(super::cases_from(Some(bad)), super::NUM_CASES, "{bad:?}");
        }
    }

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 3u32..17, y in -5i64..5) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-5..5).contains(&y));
        }

        #[test]
        fn vec_lengths_respect_sizes(xs in crate::collection::vec(0u8..10, 2..6)) {
            prop_assert!(xs.len() >= 2 && xs.len() < 6);
            prop_assert!(xs.iter().all(|x| *x < 10));
        }

        #[test]
        fn mapped_strategies_apply_function(x in (0u32..10).prop_map(|v| v * 2)) {
            prop_assert_eq!(x % 2, 0);
        }
    }
}
