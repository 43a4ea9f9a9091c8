//! Offline shim for the `proptest` crate.
//!
//! The build environment has no crate registry, so the workspace vendors a
//! small property-testing engine exposing the subset of proptest's API the
//! test suites use: the `proptest!`, `prop_compose!`, `prop_oneof!`,
//! `prop_assert!`, and `prop_assert_eq!` macros, the [`strategy::Strategy`]
//! trait, numeric-range / `Just` / `any::<T>()` strategies, and the
//! `prop::collection` / `prop::option` constructors.
//!
//! Differences from real proptest, deliberately accepted:
//!
//! - **No shrinking.** A failing case panics with the generated inputs in
//!   the panic message (via the assert macros) but is not minimized.
//! - **Deterministic seeding.** Each test's RNG is seeded from the hash of
//!   its function name, so runs are reproducible; set `PROPTEST_SEED` to a
//!   u64 to perturb the whole suite.
//! - Failure is reported by panic, not `Result`, so `prop_assert!` is
//!   `assert!` with the same message formatting.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

pub mod test_runner {
    /// Runner configuration; only `cases` is honored.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    /// SplitMix64 test RNG, seeded per-property from the test name.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        pub fn from_name(name: &str) -> Self {
            // FNV-1a over the name, perturbed by PROPTEST_SEED if set.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            if let Ok(s) = std::env::var("PROPTEST_SEED") {
                if let Ok(extra) = s.parse::<u64>() {
                    h ^= extra;
                }
            }
            TestRng { state: h }
        }

        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, bound)`; `bound > 0`.
        pub fn below(&mut self, bound: u64) -> u64 {
            debug_assert!(bound > 0);
            let zone = u64::MAX - (u64::MAX % bound);
            loop {
                let v = self.next_u64();
                if v < zone {
                    return v % bound;
                }
            }
        }

        /// Uniform in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

pub mod strategy {
    use super::test_runner::TestRng;

    /// A reusable generator of values of `Self::Value`.
    pub trait Strategy {
        type Value;
        fn generate(&self, rng: &mut TestRng) -> Self::Value;
    }

    /// Strategy from a plain closure (backs `prop_compose!`).
    pub struct FnStrategy<F> {
        f: F,
    }

    impl<F> FnStrategy<F> {
        pub fn new<T>(f: F) -> Self
        where
            F: Fn(&mut TestRng) -> T,
        {
            FnStrategy { f }
        }
    }

    impl<T, F: Fn(&mut TestRng) -> T> Strategy for FnStrategy<F> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (self.f)(rng)
        }
    }

    /// Always produces a clone of the given value.
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Uniform choice among boxed alternatives (backs `prop_oneof!`).
    pub struct OneOf<T> {
        options: Vec<Box<dyn Strategy<Value = T>>>,
    }

    impl<T> OneOf<T> {
        pub fn new(options: Vec<Box<dyn Strategy<Value = T>>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one option");
            OneOf { options }
        }
    }

    impl<T> Strategy for OneOf<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.options.len() as u64) as usize;
            self.options[i].generate(rng)
        }
    }
}

use strategy::Strategy;
use test_runner::TestRng;

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end - self.start) as u64;
                self.start + (rng.below(span) as $t)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + (rng.below(span + 1) as $t)
            }
        }
    )*};
}
int_range_strategy!(usize, u64, u32, u16, u8, i64, i32, i16, i8, isize);

macro_rules! float_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                self.start + (rng.unit_f64() as $t) * (self.end - self.start)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                lo + (rng.unit_f64() as $t) * (hi - lo)
            }
        }
    )*};
}
float_range_strategy!(f32, f64);

macro_rules! tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case, reason = "the type parameters double as binding names")]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}
tuple_strategy!(A);
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);
tuple_strategy!(A, B, C, D, E);
tuple_strategy!(A, B, C, D, E, F);

/// Explicit test-case rejection (what proptest's `prop_assert!` family
/// produces; the shim's asserts panic instead, but bodies can still
/// `return Err(TestCaseError::fail(..))` / `return Ok(())`).
#[derive(Debug, Clone)]
pub struct TestCaseError(pub String);

impl TestCaseError {
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError(msg.into())
    }

    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError(msg.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Types with a default whole-domain strategy (`any::<T>()`).
pub trait Arbitrary: Sized {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_uint {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
arbitrary_uint!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f32 {
    fn arbitrary(rng: &mut TestRng) -> f32 {
        // Finite, sign-symmetric spread; real proptest generates specials
        // too, but the suites here expect workable numbers.
        ((rng.unit_f64() * 2.0 - 1.0) * 1.0e6) as f32
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        (rng.unit_f64() * 2.0 - 1.0) * 1.0e9
    }
}

/// Strategy for the whole domain of `T`.
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// `any::<T>()` — the default strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

/// The `prop::` namespace (`prop::collection`, `prop::option`, …).
pub mod prop {
    pub mod collection {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;
        use std::collections::BTreeSet;
        use std::ops::Range;

        /// Collection size specifications: a range or an exact count.
        pub trait SizeRange {
            fn pick(&self, rng: &mut TestRng) -> usize;
            fn upper(&self) -> usize;
        }

        impl SizeRange for Range<usize> {
            fn pick(&self, rng: &mut TestRng) -> usize {
                assert!(self.start < self.end, "empty size range");
                self.start + rng.below((self.end - self.start) as u64) as usize
            }
            fn upper(&self) -> usize {
                self.end.saturating_sub(1)
            }
        }

        impl SizeRange for std::ops::RangeInclusive<usize> {
            fn pick(&self, rng: &mut TestRng) -> usize {
                *self.start() + rng.below((*self.end() - *self.start() + 1) as u64) as usize
            }
            fn upper(&self) -> usize {
                *self.end()
            }
        }

        impl SizeRange for usize {
            fn pick(&self, _rng: &mut TestRng) -> usize {
                *self
            }
            fn upper(&self) -> usize {
                *self
            }
        }

        /// Strategy for `Vec<T>` with a size in `size`.
        pub struct VecStrategy<S, R> {
            element: S,
            size: R,
        }

        impl<S: Strategy, R: SizeRange> Strategy for VecStrategy<S, R> {
            type Value = Vec<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let n = self.size.pick(rng);
                (0..n).map(|_| self.element.generate(rng)).collect()
            }
        }

        pub fn vec<S: Strategy, R: SizeRange>(element: S, size: R) -> VecStrategy<S, R> {
            VecStrategy { element, size }
        }

        /// Strategy for `BTreeSet<T>` with a size in `size` (best-effort
        /// when the element domain is smaller than the requested size).
        pub struct BTreeSetStrategy<S, R> {
            element: S,
            size: R,
        }

        impl<S, R> Strategy for BTreeSetStrategy<S, R>
        where
            S: Strategy,
            S::Value: Ord,
            R: SizeRange,
        {
            type Value = BTreeSet<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
                let target = self.size.pick(rng);
                let mut set = BTreeSet::new();
                let mut attempts = 0usize;
                let max_attempts = (target + 1) * 50;
                while set.len() < target && attempts < max_attempts {
                    set.insert(self.element.generate(rng));
                    attempts += 1;
                }
                set
            }
        }

        pub fn btree_set<S, R>(element: S, size: R) -> BTreeSetStrategy<S, R>
        where
            S: Strategy,
            S::Value: Ord,
            R: SizeRange,
        {
            BTreeSetStrategy { element, size }
        }
    }

    pub mod option {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;

        /// Strategy for `Option<T>`: `Some` three times out of four.
        pub struct OptionStrategy<S> {
            inner: S,
        }

        impl<S: Strategy> Strategy for OptionStrategy<S> {
            type Value = Option<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
                if rng.below(4) == 0 {
                    None
                } else {
                    Some(self.inner.generate(rng))
                }
            }
        }

        pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
            OptionStrategy { inner }
        }
    }
}

/// Everything a test file needs, for glob import.
pub mod prelude {
    pub use crate::prop;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{any, Arbitrary};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_compose, prop_oneof, proptest,
    };
}

/// Define property tests. Each `fn name(binding in strategy, …) { body }`
/// becomes a `#[test]` running `cases` random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{
            ($crate::test_runner::ProptestConfig::default()); $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr); $(
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),* $(,)?) $body:block
    )* ) => {$(
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::test_runner::ProptestConfig = $cfg;
            let mut __rng = $crate::test_runner::TestRng::from_name(concat!(
                module_path!(), "::", stringify!($name)
            ));
            for __case in 0..__cfg.cases {
                let _ = __case;
                $(let $pat = $crate::strategy::Strategy::generate(&($strat), &mut __rng);)*
                // Bodies run inside a Result-returning closure so that
                // proptest-style `return Ok(())` early exits type-check.
                #[allow(clippy::redundant_closure_call, reason = "the closure is what gives `return` a place to go")]
                let __outcome: ::std::result::Result<(), $crate::TestCaseError> = (|| {
                    $body
                    #[allow(unreachable_code, reason = "a body that always returns early never reaches this")]
                    Ok(())
                })();
                if let ::std::result::Result::Err(e) = __outcome {
                    panic!("property case rejected: {e:?}");
                }
            }
        }
    )*};
}

/// Define a named composite strategy:
/// `fn name(args…)(bindings in strategies…) -> Type { body }`.
#[macro_export]
macro_rules! prop_compose {
    ( $(#[$meta:meta])*
      $vis:vis fn $name:ident($($arg:ident: $argty:ty),* $(,)?)
          ($($pat:pat in $strat:expr),* $(,)?)
          -> $ret:ty $body:block
    ) => {
        $(#[$meta])*
        $vis fn $name($($arg: $argty),*) -> impl $crate::strategy::Strategy<Value = $ret> {
            $crate::strategy::FnStrategy::new(
                move |__rng: &mut $crate::test_runner::TestRng| -> $ret {
                    $(let $pat = $crate::strategy::Strategy::generate(&($strat), __rng);)*
                    $body
                },
            )
        }
    };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![
            $(Box::new($strat) as Box<dyn $crate::strategy::Strategy<Value = _>>),+
        ])
    };
}

/// Property assertion (no shrinking: equivalent to `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Property equality assertion (no shrinking: equivalent to `assert_eq!`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Property inequality assertion.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    prop_compose! {
        /// Pairs (a, b) with a <= b.
        fn ordered_pair(max: usize)(
            a in 0usize..=100,
            b in 0usize..=100,
        ) -> (usize, usize) {
            let (a, b) = (a.min(max), b.min(max));
            (a.min(b), a.max(b))
        }
    }

    fn small_vec() -> impl Strategy<Value = Vec<u8>> {
        prop::collection::vec(any::<u8>(), 0..8)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_hit_bounds(x in 3usize..7, y in 1u64..=4) {
            prop_assert!((3..7).contains(&x));
            prop_assert!((1..=4).contains(&y));
        }

        #[test]
        fn composed_pairs_ordered((a, b) in ordered_pair(50)) {
            prop_assert!(a <= b);
            prop_assert!(b <= 50);
        }

        #[test]
        fn vec_sizes_respected(v in small_vec()) {
            prop_assert!(v.len() < 8);
        }

        #[test]
        fn oneof_picks_from_all(choice in prop_oneof![Just(1u8), Just(2u8), Just(3u8)]) {
            prop_assert!((1u8..=3).contains(&choice));
        }

        #[test]
        fn btree_set_sizes(s in prop::collection::btree_set(0usize..30, 1..20)) {
            prop_assert!(!s.is_empty() && s.len() < 20);
        }

        #[test]
        fn options_mixed(o in prop::option::of(0f32..1.0)) {
            if let Some(v) = o {
                prop_assert!((0.0..1.0).contains(&v));
            }
        }
    }

    #[test]
    fn deterministic_given_name() {
        use crate::test_runner::TestRng;
        let mut a = TestRng::from_name("x");
        let mut b = TestRng::from_name("x");
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
