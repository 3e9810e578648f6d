//! # xc-proptest-stub — an offline, generate-only subset of `proptest`
//!
//! The workspace's property tests were written against the real
//! [proptest](https://crates.io/crates/proptest) crate, which cannot be
//! fetched in registry-less environments. This crate implements exactly
//! the slice of proptest's API those tests use — [`Strategy`](strategy::Strategy),
//! [`strategy::Just`], [`arbitrary::any`], range/tuple/vec/regex
//! strategies, [`strategy::Union`] (for `prop_oneof!`) and the
//! [`proptest!`]/[`prop_assert!`]/[`prop_assert_eq!`] macros — on top of
//! a deterministic per-test PRNG.
//!
//! Differences from real proptest, by design:
//!
//! - **No shrinking.** A failing case reports the generated inputs via
//!   the assertion message and panics; it does not search for a minimal
//!   counterexample.
//! - **Deterministic.** The PRNG is seeded from the test function name,
//!   so every run explores the same cases. There is no failure
//!   persistence file.
//! - **Generate-only `Strategy`.** `Strategy::Value` is the final value
//!   type (no `ValueTree` indirection).
//!
//! The workspace `Cargo.toml` renames this package to `proptest`, so
//! test code (`use proptest::prelude::*;`) is unchanged and can be
//! pointed back at the real crate when a registry is available.

#![forbid(unsafe_code)]

pub mod test_runner {
    //! Test configuration, PRNG, and case-failure plumbing.

    /// Mirror of `proptest::test_runner::Config` — only `cases` matters.
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl Config {
        /// Run `cases` random cases per property.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            // Smaller than real proptest's 256: these tests exercise
            // whole simulated binaries per case, and determinism means
            // extra cases add less value than they do under proptest.
            Config { cases: 64 }
        }
    }

    /// A failed property case (maps to an early `Err` return from the
    /// generated test body).
    #[derive(Debug)]
    pub struct TestCaseError(pub String);

    impl TestCaseError {
        /// Wrap an assertion message.
        pub fn fail(msg: String) -> Self {
            TestCaseError(msg)
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// Deterministic splitmix64 PRNG, seeded from the test name so each
    /// property explores a stable but distinct stream.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seed from a test name (FNV-1a over the bytes).
        pub fn for_test(name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            TestRng { state: h }
        }

        /// Next raw 64-bit draw.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform draw in `[0, 1)`.
        pub fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }

        /// Uniform draw in `[0, bound)`; `bound` must be nonzero.
        pub fn below(&mut self, bound: u64) -> u64 {
            self.next_u64() % bound
        }
    }
}

/// Alias matching `proptest::test_runner::Config`'s conventional
/// re-export name.
pub use test_runner::Config as ProptestConfig;

pub mod strategy {
    //! The generate-only [`Strategy`] trait and combinators.

    use std::rc::Rc;

    use crate::test_runner::TestRng;

    /// A recipe for producing random values of `Self::Value`.
    pub trait Strategy {
        /// The type of value this strategy generates.
        type Value;

        /// Draw one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Map generated values through `f`.
        fn prop_map<T, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> T,
        {
            Map { inner: self, f }
        }

        /// Erase the concrete strategy type.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy {
                gen: Rc::new(move |rng| self.generate(rng)),
            }
        }
    }

    /// Strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Result of [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, F, T> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> T,
    {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Type-erased strategy (result of [`Strategy::boxed`]).
    #[derive(Clone)]
    pub struct BoxedStrategy<T> {
        gen: Rc<dyn Fn(&mut TestRng) -> T>,
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (self.gen)(rng)
        }
    }

    /// Uniform choice between boxed strategies (backs `prop_oneof!`).
    pub struct Union<T> {
        arms: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// Build from at least one arm.
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let idx = rng.below(self.arms.len() as u64) as usize;
            self.arms[idx].generate(rng)
        }
    }

    macro_rules! int_range_strategies {
        ($($t:ty),* $(,)?) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let off = (u128::from(rng.next_u64()) % span) as i128;
                    (self.start as i128 + off) as $t
                }
            }

            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start() as i128, *self.end() as i128);
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi - lo + 1) as u128;
                    let off = (u128::from(rng.next_u64()) % span) as i128;
                    (lo + off) as $t
                }
            }
        )*};
    }

    int_range_strategies!(u8, i8, u16, i16, u32, i32, u64, i64, usize, isize);

    impl Strategy for std::ops::Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + rng.next_f64() * (self.end - self.start)
        }
    }

    macro_rules! tuple_strategies {
        ($(($($name:ident),+))*) => {$(
            #[allow(non_snake_case)]
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        )*};
    }

    tuple_strategies! {
        (A, B)
        (A, B, C)
        (A, B, C, D)
        (A, B, C, D, E)
    }

    /// `&str` patterns are strategies for matching strings. Only the
    /// subset `[c1-c2c3-c4...]{m,n}` (character-class with repetition)
    /// is supported — enough for the workspace's label generators.
    impl Strategy for &'static str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            let (class, min, max) = parse_class_repeat(self)
                .unwrap_or_else(|| panic!("unsupported regex strategy {self:?}"));
            let len = min + rng.below((max - min + 1) as u64) as usize;
            (0..len)
                .map(|_| class[rng.below(class.len() as u64) as usize])
                .collect()
        }
    }

    /// Parse `[a-zXY]{m,n}` into (alphabet, m, n). Returns `None` for
    /// anything fancier.
    fn parse_class_repeat(pat: &str) -> Option<(Vec<char>, usize, usize)> {
        let rest = pat.strip_prefix('[')?;
        let (class_src, rest) = rest.split_once(']')?;
        let rest = rest.strip_prefix('{')?;
        let counts = rest.strip_suffix('}')?;
        let (min, max) = match counts.split_once(',') {
            Some((lo, hi)) => (lo.parse().ok()?, hi.parse().ok()?),
            None => {
                let n = counts.parse().ok()?;
                (n, n)
            }
        };
        let mut class = Vec::new();
        let chars: Vec<char> = class_src.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            if i + 2 < chars.len() && chars[i + 1] == '-' {
                for c in chars[i]..=chars[i + 2] {
                    class.push(c);
                }
                i += 3;
            } else {
                class.push(chars[i]);
                i += 1;
            }
        }
        (!class.is_empty() && min <= max).then_some((class, min, max))
    }
}

pub mod arbitrary {
    //! `any::<T>()` — canonical strategies for primitive types.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Types with a canonical uniform strategy.
    pub trait Arbitrary {
        /// Draw one uniformly distributed value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arbitrary_ints {
        ($($t:ty),* $(,)?) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    arbitrary_ints!(u8, i8, u16, i16, u32, i32, u64, i64, usize, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            rng.next_f64()
        }
    }

    macro_rules! arbitrary_tuples {
        ($(($($name:ident),+))*) => {$(
            impl<$($name: Arbitrary),+> Arbitrary for ($($name,)+) {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    ($($name::arbitrary(rng),)+)
                }
            }
        )*};
    }

    arbitrary_tuples! {
        (A, B)
        (A, B, C)
        (A, B, C, D)
    }

    /// Strategy returned by [`any`].
    #[derive(Debug, Clone, Copy)]
    pub struct Any<T>(std::marker::PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(std::marker::PhantomData)
    }
}

pub mod collection {
    //! `proptest::collection::vec` — vectors of generated elements.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// A size specification: exact, `a..b`, or `a..=b`.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        min: usize,
        max: usize, // inclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                min: r.start,
                max: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                min: *r.start(),
                max: *r.end(),
            }
        }
    }

    /// Strategy for `Vec<S::Value>` with a size drawn from a range.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.max - self.size.min + 1) as u64;
            let len = self.size.min + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// `vec(element, size)` — a vector whose length is drawn from
    /// `size` and whose elements come from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

pub mod prelude {
    //! One-import surface mirroring `proptest::prelude`.

    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

/// Declares deterministic property tests. Supports the
/// `#![proptest_config(...)]` inner attribute and any number of
/// `#[test] fn name(arg in strategy, ...) { ... }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items!($cfg; $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items!(
            <$crate::test_runner::Config as ::core::default::Default>::default();
            $($rest)*
        );
    };
}

/// Implementation detail of [`proptest!`]: one test item per recursion.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ($cfg:expr;) => {};
    ($cfg:expr;
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::Config = $cfg;
            let mut rng = $crate::test_runner::TestRng::for_test(stringify!($name));
            for case in 0..config.cases {
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                if let ::std::result::Result::Err(e) = outcome {
                    panic!(
                        "property {} failed at case {}/{}: {}",
                        stringify!($name),
                        case,
                        config.cases,
                        e
                    );
                }
            }
        }
        $crate::__proptest_items!($cfg; $($rest)*);
    };
}

/// `assert!` for property bodies: fails the case instead of panicking
/// directly, so the harness can report which case died.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)));
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// `assert_eq!` for property bodies.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{:?}` != `{:?}`",
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{:?}` != `{:?}`: {}",
            l,
            r,
            format!($($fmt)*)
        );
    }};
}

/// Uniform choice among strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(::std::vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::TestRng;

    #[test]
    fn rng_is_deterministic_per_name() {
        let a = TestRng::for_test("x").next_u64();
        let b = TestRng::for_test("x").next_u64();
        let c = TestRng::for_test("y").next_u64();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn range_strategies_respect_bounds() {
        let mut rng = TestRng::for_test("bounds");
        for _ in 0..1000 {
            let v = (3u8..9).generate(&mut rng);
            assert!((3..9).contains(&v));
            let w = (-5i32..=5).generate(&mut rng);
            assert!((-5..=5).contains(&w));
            let f = (1.5f64..2.5).generate(&mut rng);
            assert!((1.5..2.5).contains(&f));
        }
    }

    #[test]
    fn vec_and_tuple_strategies_compose() {
        let mut rng = TestRng::for_test("compose");
        let strat = crate::collection::vec((any::<u8>(), 1u64..4), 2..5);
        for _ in 0..100 {
            let v = strat.generate(&mut rng);
            assert!((2..5).contains(&v.len()));
            for (_, n) in v {
                assert!((1..4).contains(&n));
            }
        }
    }

    #[test]
    fn regex_subset_strategy_generates_matching_strings() {
        let mut rng = TestRng::for_test("regex");
        for _ in 0..200 {
            let s = "[a-z]{1,12}".generate(&mut rng);
            assert!((1..=12).contains(&s.len()));
            assert!(s.chars().all(|c| c.is_ascii_lowercase()));
        }
    }

    #[test]
    fn oneof_covers_every_arm() {
        let mut rng = TestRng::for_test("oneof");
        let strat = prop_oneof![Just(1u8), Just(2), Just(3)];
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[strat.generate(&mut rng) as usize] = true;
        }
        assert_eq!(seen, [false, true, true, true]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The macro pipeline itself: args bind, asserts pass.
        #[test]
        fn macro_smoke(a in 0u32..10, b in any::<bool>()) {
            prop_assert!(a < 10);
            prop_assert_eq!(b, b, "b is {b}");
        }
    }

    #[test]
    fn failing_property_panics_with_case_info() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]
            #[allow(unused)]
            fn always_fails(x in 0u8..4) {
                prop_assert!(x > 200, "x was {x}");
            }
        }
        let err = std::panic::catch_unwind(always_fails).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("always_fails"), "got: {msg}");
    }
}
