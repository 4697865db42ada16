//! Offline drop-in subset of the `proptest` crate.
//!
//! Supports the surface the HaoCL property tests use: the [`proptest!`]
//! and [`prop_oneof!`] macros, `any::<T>()` for scalars / bools / arrays,
//! range and tuple strategies, [`Just`], `prop_map`, boxed strategies,
//! `collection::vec`, a small regex-pattern string strategy, and the
//! `prop_assert*` macros. The runner is intentionally simpler than
//! upstream: a fixed number of deterministic cases per test (seeded from
//! the test name) and no shrinking — a failing case prints its full
//! inputs instead of a minimized one.

#![forbid(unsafe_code)]

pub mod test_runner {
    /// Deterministic generator driving all strategies (xoshiro256++).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    impl TestRng {
        /// An RNG seeded deterministically from a label (the test name),
        /// so every run of a test replays the same corpus.
        pub fn deterministic(label: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for &b in label.as_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            let mut sm = h;
            TestRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }

        /// The next uniformly distributed 64-bit word.
        pub fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }

        /// A uniform value in `[0, bound)` (`bound` must be nonzero).
        pub fn below(&mut self, bound: u64) -> u64 {
            ((self.next_u64() as u128 * bound as u128) >> 64) as u64
        }
    }

    /// Runner configuration (`ProptestConfig` in the prelude).
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of generated cases per test.
        pub cases: u32,
    }

    impl Config {
        /// A config running `cases` cases per test.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 64 }
        }
    }

    /// Failure raised by `prop_assert*` inside a test case.
    #[derive(Debug, Clone)]
    pub enum TestCaseError {
        /// The property did not hold; carries the rendered assertion.
        Fail(String),
    }

    impl TestCaseError {
        /// Builds a failure from a rendered message.
        pub fn fail(message: impl Into<String>) -> Self {
            TestCaseError::Fail(message.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                TestCaseError::Fail(m) => write!(f, "{m}"),
            }
        }
    }

    impl std::error::Error for TestCaseError {}
}

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// A recipe for generating values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// A strategy producing `f` applied to this strategy's values.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Type-erases this strategy (needed by [`prop_oneof!`], whose
        /// branches are distinct concrete types).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Box::new(self))
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (**self).generate(rng)
        }
    }

    /// Generates one value from `strat` (macro plumbing; the extra
    /// reference level lets `&'static str` patterns work unchanged).
    pub fn sample_of<S: Strategy>(strat: &S, rng: &mut TestRng) -> S::Value {
        strat.generate(rng)
    }

    /// A type-erased strategy.
    pub struct BoxedStrategy<T>(Box<dyn Strategy<Value = T>>);

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            self.0.generate(rng)
        }
    }

    /// The result of [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;

        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Always generates a clone of the given value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Uniform choice among boxed branches ([`prop_oneof!`]).
    pub struct Union<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// Builds a union over `options`.
        ///
        /// # Panics
        ///
        /// Panics if `options` is empty.
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one branch");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            let idx = rng.below(self.options.len() as u64) as usize;
            self.options[idx].generate(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {
            $(
                impl Strategy for Range<$t> {
                    type Value = $t;

                    fn generate(&self, rng: &mut TestRng) -> $t {
                        assert!(self.start < self.end, "empty range strategy");
                        let span = (self.end as i128 - self.start as i128) as u64;
                        (self.start as i128 + rng.below(span) as i128) as $t
                    }
                }
            )*
        };
    }

    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! float_range_strategy {
        ($($t:ty),*) => {
            $(
                impl Strategy for Range<$t> {
                    type Value = $t;

                    fn generate(&self, rng: &mut TestRng) -> $t {
                        assert!(self.start < self.end, "empty range strategy");
                        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                        self.start + unit as $t * (self.end - self.start)
                    }
                }
            )*
        };
    }

    float_range_strategy!(f32, f64);

    macro_rules! tuple_strategy {
        ($(($($n:ident),+)),+ $(,)?) => {
            $(
                #[allow(non_snake_case)]
                impl<$($n: Strategy),+> Strategy for ($($n,)+) {
                    type Value = ($($n::Value,)+);

                    fn generate(&self, rng: &mut TestRng) -> Self::Value {
                        let ($($n,)+) = self;
                        ($($n.generate(rng),)+)
                    }
                }
            )*
        };
    }

    tuple_strategy!(
        (A, B),
        (A, B, C),
        (A, B, C, D),
        (A, B, C, D, E),
        (A, B, C, D, E, F)
    );

    /// String strategy from a regex-like pattern (`&str` implements
    /// [`Strategy`] directly, as in upstream proptest).
    ///
    /// Supported forms: `".*"` (arbitrary short strings, multibyte
    /// included) and `"[class]{m,n}"` with literal chars, `a-b` ranges,
    /// and `\n`/`\t`/`\\` escapes. Anything else panics — extend the
    /// parser when a test needs more.
    impl Strategy for str {
        type Value = String;

        fn generate(&self, rng: &mut TestRng) -> String {
            pattern_string(self, rng)
        }
    }

    fn pattern_string(pattern: &str, rng: &mut TestRng) -> String {
        if pattern == ".*" {
            let len = rng.below(48) as usize;
            return (0..len)
                .map(|_| {
                    // Mostly printable ASCII with occasional multibyte
                    // chars so UTF-8 length handling gets exercised.
                    if rng.below(8) == 0 {
                        char::from_u32(0x00a1 + rng.below(0x2000) as u32).unwrap_or('§')
                    } else {
                        (b' ' + rng.below(95) as u8) as char
                    }
                })
                .collect();
        }
        let (class, min, max) = parse_class_repeat(pattern)
            .unwrap_or_else(|| panic!("unsupported pattern strategy {pattern:?} (shim)"));
        let len = min + rng.below((max - min + 1) as u64) as usize;
        (0..len)
            .map(|_| class[rng.below(class.len() as u64) as usize])
            .collect()
    }

    /// Parses `"[class]{m,n}"` into (alphabet, m, n).
    fn parse_class_repeat(pattern: &str) -> Option<(Vec<char>, usize, usize)> {
        let rest = pattern.strip_prefix('[')?;
        let close = rest.find(']')?;
        let (class_src, tail) = rest.split_at(close);
        let counts = tail.strip_prefix("]{")?.strip_suffix('}')?;
        let (m, n) = counts.split_once(',')?;
        let (min, max) = (m.trim().parse().ok()?, n.trim().parse().ok()?);
        if min > max {
            return None;
        }

        let mut alphabet = Vec::new();
        let mut chars = class_src.chars().peekable();
        while let Some(c) = chars.next() {
            let lo = if c == '\\' {
                match chars.next()? {
                    'n' => '\n',
                    't' => '\t',
                    '\\' => '\\',
                    other => other,
                }
            } else {
                c
            };
            if chars.peek() == Some(&'-') && chars.clone().nth(1).is_some() {
                chars.next();
                let hi = chars.next()?;
                for v in lo as u32..=hi as u32 {
                    alphabet.push(char::from_u32(v)?);
                }
            } else {
                alphabet.push(lo);
            }
        }
        if alphabet.is_empty() {
            return None;
        }
        Some((alphabet, min, max))
    }
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary: Sized {
        /// Draws one value from the type's full domain.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arbitrary_int {
        ($($t:ty),*) => {
            $(
                impl Arbitrary for $t {
                    fn arbitrary(rng: &mut TestRng) -> Self {
                        rng.next_u64() as $t
                    }
                }
            )*
        };
    }

    arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    // Full bit-pattern floats: NaNs and infinities included, as upstream.
    impl Arbitrary for f32 {
        fn arbitrary(rng: &mut TestRng) -> Self {
            f32::from_bits(rng.next_u64() as u32)
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> Self {
            f64::from_bits(rng.next_u64())
        }
    }

    impl<T: Arbitrary, const N: usize> Arbitrary for [T; N] {
        fn arbitrary(rng: &mut TestRng) -> Self {
            std::array::from_fn(|_| T::arbitrary(rng))
        }
    }

    /// The strategy returned by [`any`].
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The full-domain strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// The strategy returned by [`vec`].
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// Vectors of `element` values with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty size range");
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{Config as ProptestConfig, TestCaseError, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Declares property tests: each `#[test] fn name(arg in strategy, ...)`
/// runs `cases` deterministic iterations, regenerating every argument.
/// `prop_assert*` failures abort the case with its inputs printed (no
/// shrinking in this shim).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            config = $crate::test_runner::Config::default();
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = $cfg:expr;
     $($(#[$meta:meta])*
       fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::Config = $cfg;
                let mut rng = $crate::test_runner::TestRng::deterministic(concat!(
                    module_path!(),
                    "::",
                    stringify!($name)
                ));
                for case in 0..config.cases {
                    $(let $arg = $crate::strategy::sample_of(&$strat, &mut rng);)+
                    let inputs = format!(
                        concat!($(stringify!($arg), " = {:?}\n"),+),
                        $(&$arg),+
                    );
                    let outcome = (|| -> ::std::result::Result<
                        (),
                        $crate::test_runner::TestCaseError,
                    > {
                        $body
                        Ok(())
                    })();
                    if let Err(failure) = outcome {
                        panic!(
                            "property failed at case {case}/{}: {failure}\ninputs:\n{inputs}",
                            config.cases
                        );
                    }
                }
            }
        )*
    };
}

/// Uniform choice among strategies producing one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

/// Asserts a condition inside a property, failing the case (not the
/// whole process) when false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// Asserts two expressions are equal inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `{:?}` == `{:?}`",
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `{:?}` == `{:?}`: {}",
            left,
            right,
            format!($($fmt)*)
        );
    }};
}

/// Asserts two expressions are unequal inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left != *right,
            "assertion failed: `{:?}` != `{:?}`",
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left != *right,
            "assertion failed: `{:?}` != `{:?}`: {}",
            left,
            right,
            format!($($fmt)*)
        );
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::strategy::sample_of;

    #[test]
    fn deterministic_per_name() {
        let mut a = TestRng::deterministic("t");
        let mut b = TestRng::deterministic("t");
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn pattern_class_stays_in_alphabet() {
        let mut rng = TestRng::deterministic("class");
        for _ in 0..200 {
            let s = sample_of(&"[ -~\\n]{0,200}", &mut rng);
            assert!(s.len() <= 200);
            assert!(s.chars().all(|c| c == '\n' || (' '..='~').contains(&c)));
        }
    }

    #[test]
    fn dot_star_generates_valid_short_strings() {
        let mut rng = TestRng::deterministic("dotstar");
        for _ in 0..100 {
            let s = sample_of(&".*", &mut rng);
            assert!(s.chars().count() < 48);
        }
    }

    proptest! {
        #[test]
        fn macro_pipeline_works(
            v in any::<u32>(),
            xs in crate::collection::vec(0u8..10, 1..5),
            word in prop_oneof![Just("a".to_string()), Just("b".to_string())],
            pair in (any::<i32>(), 0f64..1.0),
        ) {
            prop_assert!(u64::from(v) <= u64::from(u32::MAX));
            prop_assert!(!xs.is_empty() && xs.len() < 5);
            prop_assert!(xs.iter().all(|&x| x < 10));
            prop_assert_ne!(word.as_str(), "c");
            prop_assert_eq!(pair.0, pair.0, "identity on {}", word);
            prop_assert!((0.0..1.0).contains(&pair.1));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(7))]

        #[test]
        fn config_attr_accepted(v in 5usize..6) {
            prop_assert_eq!(v, 5);
        }
    }
}
