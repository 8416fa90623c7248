//! In-tree stand-in for `proptest`, vendored so the workspace builds
//! offline with zero external crates.
//!
//! Real proptest shrinks failing inputs; this shim only generates them —
//! deterministically, from a seed derived from the test name and case
//! index, so failures reproduce exactly across runs. The macro surface
//! (`proptest!`, `prop_assert!`, `prop_assume!`, `prop_oneof!`,
//! `proptest::collection::vec`, range strategies, `Just`, `prop_map`)
//! matches what the workspace's property tests use.

use std::ops::Range;

/// How many cases `proptest!` runs per property.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config with an explicit case count.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Real proptest defaults to 256; the simulator-heavy properties in
        // this workspace make that needlessly slow. 32 keeps `cargo test`
        // quick while still exploring the input space.
        ProptestConfig { cases: 32 }
    }
}

/// Deterministic splitmix64 generator driving all strategies.
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds the generator.
    pub fn seeded(seed: u64) -> TestRng {
        TestRng {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// A value generator (real proptest's `Strategy`, minus shrinking).
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }
}

/// The result of [`Strategy::prop_map`].
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

/// A strategy that always yields a clone of one value.
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}
impl_int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

impl Strategy for Range<f32> {
    type Value = f32;

    fn generate(&self, rng: &mut TestRng) -> f32 {
        self.start + rng.unit_f64() as f32 * (self.end - self.start)
    }
}

impl<S: Strategy + ?Sized> Strategy for Box<S> {
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> S::Value {
        (**self).generate(rng)
    }
}

/// Boxes a strategy (used by `prop_oneof!` to unify branch types).
pub fn boxed<S>(s: S) -> Box<dyn Strategy<Value = S::Value>>
where
    S: Strategy + 'static,
{
    Box::new(s)
}

/// Uniform choice among equally-typed strategies.
pub struct OneOf<T> {
    options: Vec<Box<dyn Strategy<Value = T>>>,
}

impl<T> OneOf<T> {
    /// Builds from boxed options (see [`boxed`]).
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

pub mod collection {
    use super::*;

    /// Element-count bound for [`vec`]: an exact count or a half-open
    /// range.
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    /// Strategy for vectors of `element` with a size drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// The result of [`vec`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest, Just, ProptestConfig,
        Strategy, TestRng,
    };
}

/// Panic payload marking "this case was vetoed by `prop_assume!`".
pub struct SkipCase;

/// Aborts the current case without failing the test (see `prop_assume!`).
pub fn skip_case() -> ! {
    std::panic::panic_any(SkipCase)
}

/// FNV-1a over the test name, for per-test seed separation.
fn fnv(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Runs `case` for every generated input; used by the `proptest!` macro.
pub fn run_cases(name: &str, cfg: &ProptestConfig, mut case: impl FnMut(&mut TestRng)) {
    // Suppress the default panic message for assume-skips; real panics
    // keep the default hook output.
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<SkipCase>().is_none() {
                default(info);
            }
        }));
    });

    let base = fnv(name);
    for i in 0..cfg.cases {
        let mut rng = TestRng::seeded(base ^ (i as u64).wrapping_mul(0x2545_F491_4F6C_DD1D));
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            case(&mut rng);
        }));
        if let Err(payload) = outcome {
            if payload.downcast_ref::<SkipCase>().is_some() {
                continue;
            }
            eprintln!("proptest {name}: failed on case {i}");
            std::panic::resume_unwind(payload);
        }
    }
}

/// Defines property tests. See module docs; shrinking is not implemented.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (cfg = $cfg:expr; $( $(#[$attr:meta])* fn $name:ident($($args:tt)*) $body:block )*) => {
        $(
            $(#[$attr])*
            fn $name() {
                let __cfg = $cfg;
                $crate::run_cases(stringify!($name), &__cfg, |__rng| {
                    $crate::__bind_args!(__rng, $($args)*);
                    $body
                });
            }
        )*
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __bind_args {
    ($rng:ident $(,)?) => {};
    ($rng:ident, $name:ident in $strat:expr $(, $($rest:tt)*)?) => {
        let $name = $crate::Strategy::generate(&($strat), $rng);
        $crate::__bind_args!($rng $(, $($rest)*)?);
    };
}

/// Fails the current case when `cond` is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            panic!("prop_assert failed: {}", stringify!($cond));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            panic!($($fmt)*);
        }
    };
}

/// Fails the current case when the two values differ.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (left, right) = (&$a, &$b);
        if left != right {
            panic!("prop_assert_eq failed: {left:?} != {right:?}");
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (left, right) = (&$a, &$b);
        if left != right {
            panic!($($fmt)*);
        }
    }};
}

/// Vetoes the current case (it is skipped, not failed) when `cond` is
/// false.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            $crate::skip_case();
        }
    };
}

/// Uniform choice among strategies yielding the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::OneOf::new(vec![$($crate::boxed($s)),+])
    };
}
