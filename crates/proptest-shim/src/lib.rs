//! A minimal, std-only, in-repo stand-in for the [`proptest`] crate.
//!
//! The build environment cannot reach the crates.io registry, so the
//! workspace vendors the small slice of proptest's API its property tests
//! actually use: the [`proptest!`] / [`prop_compose!`] / [`prop_assert!`]
//! macros, range and tuple [`Strategy`]s, [`collection::vec`], and
//! [`Strategy::prop_map`].
//!
//! Semantics differ from real proptest in two deliberate ways:
//!
//! * **No shrinking.** A failing case reports its case number and the
//!   deterministic per-test seed instead of a minimized input.
//! * **Deterministic generation.** Cases are generated from a fixed seed
//!   derived from the test function's name, so failures reproduce exactly
//!   (`PROPTEST_CASES` can still override the case count).
//!
//! [`proptest`]: https://docs.rs/proptest

/// Deterministic generator used for case generation (SplitMix64 — small,
/// fast, and self-contained so this shim depends on nothing).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// A generator seeded from an arbitrary string (e.g. the test name).
    pub fn from_name(name: &str) -> Self {
        // FNV-1a over the name gives a stable per-test seed.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng { state: h }
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0)
    }

    /// A uniform integer in `[0, bound)`; 0 when `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        // Multiply-shift; the tiny modulo bias is irrelevant for testing.
        (((self.next_u64() as u128) * (bound as u128)) >> 64) as u64
    }
}

/// A value generator: proptest's core abstraction, minus shrinking.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// The strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// A strategy from a plain closure; what [`prop_compose!`] expands to.
pub struct FnStrategy<F>(pub F);

impl<T, F: Fn(&mut TestRng) -> T> Strategy for FnStrategy<F> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

/// A strategy producing one fixed value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// A compiled string pattern: a sequence of character classes with
/// repetition counts, parsed from the small regex subset the workspace's
/// tests use (literals, `\`-escapes, `[a-z...]` classes, and the
/// quantifiers `{m}`, `{m,n}`, `?`, `*`, `+`).
#[derive(Debug, Clone)]
pub struct StringStrategy {
    parts: Vec<StringPart>,
}

#[derive(Debug, Clone)]
struct StringPart {
    /// Inclusive character ranges to draw from, uniformly by code point.
    choices: Vec<(char, char)>,
    min: usize,
    max: usize,
}

fn unescape(c: char) -> char {
    match c {
        'n' => '\n',
        't' => '\t',
        'r' => '\r',
        '0' => '\0',
        other => other,
    }
}

impl StringStrategy {
    /// Compiles `pattern`, panicking on syntax outside the supported
    /// subset (this is test infrastructure; loud failure beats guessing).
    pub fn compile(pattern: &str) -> Self {
        let mut chars = pattern.chars().peekable();
        let mut parts = Vec::new();
        while let Some(c) = chars.next() {
            let choices =
                match c {
                    '[' => {
                        let mut choices = Vec::new();
                        loop {
                            let lo =
                                match chars.next() {
                                    None => panic!("unterminated character class in {pattern:?}"),
                                    Some(']') => break,
                                    Some('\\') => unescape(chars.next().unwrap_or_else(|| {
                                        panic!("dangling escape in {pattern:?}")
                                    })),
                                    Some(other) => other,
                                };
                            if chars.peek() == Some(&'-') {
                                chars.next();
                                let hi = match chars.next() {
                                    None | Some(']') => {
                                        panic!("unterminated range in class in {pattern:?}")
                                    }
                                    Some('\\') => unescape(chars.next().unwrap_or_else(|| {
                                        panic!("dangling escape in {pattern:?}")
                                    })),
                                    Some(other) => other,
                                };
                                assert!(lo <= hi, "inverted range {lo:?}-{hi:?} in {pattern:?}");
                                choices.push((lo, hi));
                            } else {
                                choices.push((lo, lo));
                            }
                        }
                        assert!(!choices.is_empty(), "empty character class in {pattern:?}");
                        choices
                    }
                    '\\' => {
                        let lit = unescape(
                            chars
                                .next()
                                .unwrap_or_else(|| panic!("dangling escape in {pattern:?}")),
                        );
                        vec![(lit, lit)]
                    }
                    lit => vec![(lit, lit)],
                };
            let (min, max) = match chars.peek() {
                Some('{') => {
                    chars.next();
                    let digits: String = chars.by_ref().take_while(|&d| d != '}').collect();
                    let (lo, hi) = match digits.split_once(',') {
                        None => (digits.as_str(), digits.as_str()),
                        Some((lo, hi)) => (lo, hi),
                    };
                    let lo: usize = lo
                        .trim()
                        .parse()
                        .unwrap_or_else(|_| panic!("bad repeat count in {pattern:?}"));
                    let hi: usize = if hi.trim().is_empty() {
                        lo + 8
                    } else {
                        hi.trim()
                            .parse()
                            .unwrap_or_else(|_| panic!("bad repeat count in {pattern:?}"))
                    };
                    assert!(lo <= hi, "inverted repeat {lo}..{hi} in {pattern:?}");
                    (lo, hi)
                }
                Some('?') => {
                    chars.next();
                    (0, 1)
                }
                Some('*') => {
                    chars.next();
                    (0, 8)
                }
                Some('+') => {
                    chars.next();
                    (1, 8)
                }
                _ => (1, 1),
            };
            parts.push(StringPart { choices, min, max });
        }
        StringStrategy { parts }
    }
}

impl Strategy for StringStrategy {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let mut out = String::new();
        for part in &self.parts {
            let reps = part.min + rng.next_below((part.max - part.min) as u64 + 1) as usize;
            let total: u64 = part
                .choices
                .iter()
                .map(|&(lo, hi)| hi as u64 - lo as u64 + 1)
                .sum();
            for _ in 0..reps {
                let mut k = rng.next_below(total);
                for &(lo, hi) in &part.choices {
                    let span = hi as u64 - lo as u64 + 1;
                    if k < span {
                        // Ranges spanning the surrogate gap fall back to the
                        // range start; the workspace's patterns are ASCII.
                        out.push(char::from_u32(lo as u32 + k as u32).unwrap_or(lo));
                        break;
                    }
                    k -= span;
                }
            }
        }
        out
    }
}

/// Proptest treats a `&str` as a regex generating matching strings; this
/// shim compiles the subset described on [`StringStrategy`].
impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        StringStrategy::compile(self).generate(rng)
    }
}

impl Strategy for std::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start + (self.end - self.start) * rng.next_f64()
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.end > self.start, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.next_below(span) as i128) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! tuple_strategy {
    ($($s:ident . $idx:tt),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}

tuple_strategy!(A.0, B.1);
tuple_strategy!(A.0, B.1, C.2);
tuple_strategy!(A.0, B.1, C.2, D.3);
tuple_strategy!(A.0, B.1, C.2, D.3, E.4);
tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5);

/// Collection strategies (just `vec`).
pub mod collection {
    use super::{Strategy, TestRng};

    /// A fixed size or a size range for [`vec()`].
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.end > r.start, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    /// Strategy for `Vec`s whose elements come from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// The strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo + rng.next_below(span + 1) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Why a generated case failed (carried by `prop_assert!` early returns).
#[derive(Debug, Clone)]
pub struct TestCaseError(pub String);

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Per-test configuration (only the case count is honored).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Real proptest defaults to 256; 64 keeps the numerically heavy
        // FEA/solver property tests fast. PROPTEST_CASES still overrides.
        ProptestConfig { cases: 64 }
    }
}

/// Resolves the case count: `PROPTEST_CASES` env var wins over the config.
pub fn resolve_cases(config: &ProptestConfig) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(config.cases)
}

/// Defines property tests: each argument is drawn from its strategy for
/// every generated case.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)]
     $($(#[$meta:meta])* fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let cases = $crate::resolve_cases(&config);
                let mut rng = $crate::TestRng::from_name(concat!(module_path!(), "::", stringify!($name)));
                for case in 0..cases {
                    let result: ::std::result::Result<(), $crate::TestCaseError> = (|| {
                        $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                        $body
                        #[allow(unreachable_code)]
                        Ok(())
                    })();
                    if let ::std::result::Result::Err(e) = result {
                        panic!("property `{}` failed at case {case}/{cases}: {e}", stringify!($name));
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest! {
            #![proptest_config($crate::ProptestConfig::default())]
            $($rest)*
        }
    };
}

/// Asserts within a property test; failure aborts the case with context.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {{
        let holds: bool = $cond;
        if !holds {
            return ::std::result::Result::Err($crate::TestCaseError(format!($($fmt)*)));
        }
    }};
}

/// Asserts equality within a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            a == b,
            "assertion failed: `{} == {}` ({a:?} vs {b:?})",
            stringify!($a),
            stringify!($b)
        );
    }};
}

/// Asserts inequality within a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            a != b,
            "assertion failed: `{} != {}` (both {a:?})",
            stringify!($a),
            stringify!($b)
        );
    }};
}

/// Builds a named strategy function out of simpler strategies.
#[macro_export]
macro_rules! prop_compose {
    (fn $name:ident($($param:ident: $pty:ty),* $(,)?)
        ($($arg:pat in $strat:expr),* $(,)?)
        -> $ret:ty $body:block) => {
        fn $name($($param: $pty),*) -> impl $crate::Strategy<Value = $ret> {
            $crate::FnStrategy(move |rng: &mut $crate::TestRng| {
                $(let $arg = $crate::Strategy::generate(&($strat), rng);)*
                $body
            })
        }
    };
}

/// Everything the workspace's tests import.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_compose, proptest, FnStrategy, Just,
        ProptestConfig, Strategy, TestCaseError, TestRng,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_generate_in_bounds() {
        let mut rng = TestRng::from_name("ranges");
        for _ in 0..1000 {
            let f = Strategy::generate(&(-2.0f64..3.0), &mut rng);
            assert!((-2.0..3.0).contains(&f));
            let u = Strategy::generate(&(5u32..9), &mut rng);
            assert!((5..9).contains(&u));
            let i = Strategy::generate(&(-4i32..4), &mut rng);
            assert!((-4..4).contains(&i));
        }
    }

    #[test]
    fn vec_and_tuple_strategies_compose() {
        let mut rng = TestRng::from_name("vec");
        let s = collection::vec((0u32..4, -1.0f64..1.0), 2..7);
        for _ in 0..200 {
            let v = s.generate(&mut rng);
            assert!(v.len() >= 2 && v.len() <= 6);
            for (a, b) in v {
                assert!(a < 4);
                assert!((-1.0..1.0).contains(&b));
            }
        }
        let fixed = collection::vec(0.0f64..1.0, 5usize);
        assert_eq!(fixed.generate(&mut rng).len(), 5);
    }

    #[test]
    fn string_patterns_generate_matching_text() {
        let mut rng = TestRng::from_name("strings");
        for _ in 0..200 {
            let s = Strategy::generate(&"[ -~\n]{0,200}", &mut rng);
            assert!(s.chars().count() <= 200);
            assert!(s.chars().all(|c| (' '..='~').contains(&c) || c == '\n'));

            let t = Strategy::generate(&"[a-c]{2,4}", &mut rng);
            assert!((2..=4).contains(&t.len()));
            assert!(t.chars().all(|c| ('a'..='c').contains(&c)));

            let u = Strategy::generate(&"x[0-9]+v?", &mut rng);
            assert!(u.starts_with('x'));
        }
        assert_eq!(Strategy::generate(&"abc\\n", &mut rng), "abc\n");
    }

    #[test]
    fn prop_map_applies() {
        let mut rng = TestRng::from_name("map");
        let s = (1.0f64..2.0).prop_map(|x| x * 10.0);
        let v = s.generate(&mut rng);
        assert!((10.0..20.0).contains(&v));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn macro_round_trip(x in 0.0f64..1.0, n in 1usize..10) {
            prop_assert!((0.0..1.0).contains(&x));
            prop_assert_eq!(n, n);
            prop_assert_ne!(n, n + 1);
        }
    }

    prop_compose! {
        fn pairs(limit: u32)(v in collection::vec(0u32..10, 1..5), scale in 1u32..4) -> Vec<u32> {
            v.into_iter().map(|x| (x * scale).min(limit)).collect()
        }
    }

    proptest! {
        #[test]
        fn composed_strategy_respects_limit(v in pairs(12)) {
            prop_assert!(!v.is_empty());
            prop_assert!(v.iter().all(|&x| x <= 12));
        }
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failing_property_reports_case() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]
            #[allow(dead_code)]
            fn always_fails(x in 0.0f64..1.0) {
                prop_assert!(x < 0.0, "x was {x}");
            }
        }
        always_fails();
    }
}
