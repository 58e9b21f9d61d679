//! Value-generation strategies.

use std::ops::{Range, RangeInclusive};

use crate::test_runner::TestRng;

/// Generates values of `Self::Value` from a deterministic RNG.
///
/// Object-safe for `generate`, so heterogeneous strategies can be boxed
/// into a [`Union`].
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Always produces a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
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

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u128 - self.start as u128) as u64;
                self.start + (rng.below(span) as $t)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as u128 - lo as u128 + 1) as u64;
                if span == 0 {
                    // Full u64 range.
                    return rng.next_u64() as $t;
                }
                lo + (rng.below(span) as $t)
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! impl_tuple_strategy {
    ($(($($s:ident $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
    (A 0, B 1, C 2, D 3, E 4)
    (A 0, B 1, C 2, D 3, E 4, F 5)
}

/// Produces arbitrary values of primitive types; see [`any`].
pub trait Arbitrary: Sized {
    /// Draws one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_uint {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_uint!(u8, u16, u32, u64, usize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy returned by [`any`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// `any::<T>()`: arbitrary values of a primitive type.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

/// Weighted choice among boxed strategies; built by `prop_oneof!`.
pub struct Union<T> {
    arms: Vec<(u32, Box<dyn Strategy<Value = T>>)>,
    total: u64,
}

impl<T> Union<T> {
    /// Builds from `(weight, strategy)` arms.
    pub fn new(arms: Vec<(u32, Box<dyn Strategy<Value = T>>)>) -> Self {
        let total = arms.iter().map(|(w, _)| *w as u64).sum();
        assert!(total > 0, "prop_oneof: zero total weight");
        Union { arms, total }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let mut pick = rng.below(self.total);
        for (w, s) in &self.arms {
            if pick < *w as u64 {
                return s.generate(rng);
            }
            pick -= *w as u64;
        }
        unreachable!("weights exhausted")
    }
}

/// Boxes one `prop_oneof!` arm (helper, so coercion to the trait object
/// happens at a function boundary where inference is reliable).
pub fn weighted<T, S>(weight: u32, strategy: S) -> (u32, Box<dyn Strategy<Value = T>>)
where
    S: Strategy<Value = T> + 'static,
{
    (weight, Box::new(strategy))
}

/// Collection strategies (`prop::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Acceptable size arguments for [`vec()`].
    pub trait IntoSizeRange {
        /// Inclusive `(lo, hi)` bounds.
        fn bounds(self) -> (usize, usize);
    }

    impl IntoSizeRange for usize {
        fn bounds(self) -> (usize, usize) {
            (self, self)
        }
    }

    impl IntoSizeRange for Range<usize> {
        fn bounds(self) -> (usize, usize) {
            assert!(self.start < self.end, "empty vec size range");
            (self.start, self.end - 1)
        }
    }

    impl IntoSizeRange for RangeInclusive<usize> {
        fn bounds(self) -> (usize, usize) {
            (*self.start(), *self.end())
        }
    }

    /// Strategy for vectors of `element` values; see [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        lo: usize,
        hi: usize,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.lo + rng.below((self.hi - self.lo + 1) as u64) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Vectors whose length falls in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl IntoSizeRange) -> VecStrategy<S> {
        let (lo, hi) = size.bounds();
        VecStrategy { element, lo, hi }
    }
}

/// Option strategies (`prop::option`).
pub mod option {
    use super::{Strategy, TestRng};

    /// Strategy for optional values; see [`of`].
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.next_u64() & 1 == 1 {
                Some(self.inner.generate(rng))
            } else {
                None
            }
        }
    }

    /// `Some` roughly half the time, `None` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::for_case("strategy::ranges", 0);
        for _ in 0..500 {
            let v = (3u8..9).generate(&mut rng);
            assert!((3..9).contains(&v));
            let w = (10u64..=10).generate(&mut rng);
            assert_eq!(w, 10);
        }
    }

    #[test]
    fn union_respects_weights_roughly() {
        let mut rng = TestRng::for_case("strategy::union", 0);
        let s: Union<u8> = Union::new(vec![weighted(9, Just(0u8)), weighted(1, Just(1u8))]);
        let ones = (0..1000).filter(|_| s.generate(&mut rng) == 1).count();
        assert!((30..250).contains(&ones), "ones {ones}");
    }

    #[test]
    fn vec_and_option_and_map_compose() {
        let mut rng = TestRng::for_case("strategy::compose", 0);
        let s = collection::vec((0u8..4, option::of(any::<bool>())), 1..5).prop_map(|v| v.len());
        for _ in 0..100 {
            let n = s.generate(&mut rng);
            assert!((1..5).contains(&n));
        }
    }
}
