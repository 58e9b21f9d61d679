//! Minimal offline stand-in for the `proptest` crate.
//!
//! Implements the subset this workspace's property tests use: the
//! `proptest!` macro, `Strategy` with `prop_map`, integer-range /
//! tuple / `Just` / `any::<T>()` strategies, `prop::collection::vec`,
//! `prop::option::of`, weighted `prop_oneof!`, and the `prop_assert*`
//! macros. Differences from the real crate: no shrinking (failures
//! report the case number; cases are deterministic per test name, so a
//! failure reproduces exactly on rerun) and no persistence files.

pub mod strategy;
pub mod test_runner;

/// Strategy modules namespaced like the real crate (`prop::collection`,
/// `prop::option`).
pub mod prop {
    pub use crate::strategy::{collection, option};
}

/// Glob-import surface mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::prop;
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Declares deterministic property tests. As with the real crate, each
/// property carries its own `#[test]`; the macro forwards the attributes
/// it is given and adds none, so every property registers once.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!(($config) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!(($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($config:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::ProptestConfig = $config;
            let __test_name = concat!(module_path!(), "::", stringify!($name));
            for __case in 0..__config.cases {
                let mut __rng = $crate::test_runner::TestRng::for_case(__test_name, __case);
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __rng);)+
                let __outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                match __outcome {
                    ::std::result::Result::Ok(()) => {}
                    ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(_)) => {}
                    ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                        panic!(
                            "proptest {}: case {} of {} failed: {}",
                            __test_name, __case, __config.cases, msg
                        );
                    }
                }
            }
        }
    )*};
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::Fail(format!($($fmt)+)),
            );
        }
    };
}

/// Fails the current case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "assertion failed: {:?} == {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, $($fmt)+);
    }};
}

/// Fails the current case unless `left != right`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, "assertion failed: {:?} != {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, $($fmt)+);
    }};
}

/// Skips the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(
                stringify!($cond).to_string(),
            ));
        }
    };
}

/// Picks among strategies, optionally weighted (`w => strategy`).
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::weighted($weight as u32, $strat)),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::weighted(1u32, $strat)),+
        ])
    };
}
