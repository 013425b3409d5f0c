//! Offline stand-in for `proptest` covering the workspace's usage: the
//! `proptest!` macro over functions whose arguments are drawn from range,
//! tuple, `collection::vec` and `bool::weighted` strategies, plus
//! `prop_assert!`/`prop_assert_eq!` and `ProptestConfig::with_cases`.
//!
//! Differences from real proptest, by design:
//! * **No shrinking.** A failing case reports its seed; re-running
//!   reproduces it exactly (generation is seeded per case index).
//! * Values are drawn uniformly; there is no bias toward edge cases.

use rand::prelude::*;

/// A generator of values of type `Value`.
pub trait Strategy {
    type Value;
    fn generate(&self, rng: &mut StdRng) -> Self::Value;
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_tuple_strategy {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}
impl_tuple_strategy!(A: 0);
impl_tuple_strategy!(A: 0, B: 1);
impl_tuple_strategy!(A: 0, B: 1, C: 2);
impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3);

/// `proptest::collection`: sized containers of a sub-strategy.
pub mod collection {
    use super::*;

    pub struct VecStrategy<S> {
        element: S,
        len: std::ops::Range<usize>,
    }

    /// A `Vec` whose length is drawn from `len` and whose elements come
    /// from `element`.
    pub fn vec<S: Strategy>(element: S, len: std::ops::Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "collection::vec: empty length range");
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let n = rng.gen_range(self.len.clone());
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// `proptest::bool`: weighted coin flips.
pub mod bool {
    use super::*;

    pub struct Weighted(f64);

    /// `true` with probability `p`.
    pub fn weighted(p: f64) -> Weighted {
        assert!((0.0..=1.0).contains(&p), "bool::weighted: p out of range");
        Weighted(p)
    }

    impl Strategy for Weighted {
        type Value = bool;
        fn generate(&self, rng: &mut StdRng) -> bool {
            rng.gen_bool(self.0)
        }
    }
}

pub mod test_runner {
    /// Per-`proptest!` block configuration. Only `cases` is honored.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> ProptestConfig {
            ProptestConfig { cases: 256 }
        }
    }
}

pub mod prelude {
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest, Strategy};
}

/// Base seed for case generation: fixed, so a re-run draws every case
/// again, a failing one included.
pub const BASE_SEED: u64 = 0x5EED_CAFE;

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond)
    };
    ($cond:expr, $($fmt:tt)+) => {
        assert!($cond, $($fmt)+)
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {
        assert_eq!($a, $b)
    };
    ($a:expr, $b:expr, $($fmt:tt)+) => {
        assert_eq!($a, $b, $($fmt)+)
    };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {
        assert_ne!($a, $b)
    };
    ($a:expr, $b:expr, $($fmt:tt)+) => {
        assert_ne!($a, $b, $($fmt)+)
    };
}

/// The `proptest!` block: expands each contained function into a `#[test]`
/// that draws its arguments from the given strategies for `cases`
/// iterations. Failures report the per-case seed for replay.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { $crate::test_runner::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            use $crate::Strategy as _;
            let cfg: $crate::test_runner::ProptestConfig = $cfg;
            for case in 0..cfg.cases as u64 {
                let seed = $crate::BASE_SEED ^ (case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let mut rng = <rand::StdRng as rand::SeedableRng>::seed_from_u64(seed);
                $(let $arg = ($strat).generate(&mut rng);)+
                let run = || $body;
                if let Err(panic) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)) {
                    eprintln!("proptest case {}/{} failed (seed {seed:#x})", case + 1, cfg.cases);
                    std::panic::resume_unwind(panic);
                }
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Range and vec strategies stay in bounds.
        #[test]
        fn strategies_in_bounds(
            xs in crate::collection::vec((0u8..2, 0usize..100), 1..20),
            y in 5u64..10,
        ) {
            prop_assert!((5..10).contains(&y));
            prop_assert!(!xs.is_empty() && xs.len() < 20);
            for (a, b) in xs {
                prop_assert!(a < 2, "a = {a}");
                prop_assert!(b < 100);
            }
        }
    }

    proptest! {
        /// Default config path compiles and runs.
        #[test]
        fn default_config_runs(x in 0u32..10) {
            prop_assert!(x < 10);
        }
    }

    #[test]
    fn weighted_extremes() {
        use crate::Strategy;
        let mut rng = <rand::StdRng as rand::SeedableRng>::seed_from_u64(1);
        for _ in 0..100 {
            assert!(crate::bool::weighted(1.0).generate(&mut rng));
            assert!(!crate::bool::weighted(0.0).generate(&mut rng));
        }
    }
}
