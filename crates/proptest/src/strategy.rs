//! Value-generation strategies.
//!
//! A [`Strategy`] deterministically maps a [`TestRng`] position to a
//! value. Ranges, `any::<T>()`, tuples, `Vec`s and `Option`s are enough
//! for every property test in the workspace.

use crate::test_runner::TestRng;
use std::ops::{Range, RangeInclusive};

/// A source of generated values for one bound variable in a
/// [`proptest!`](crate::proptest) binding.
pub trait Strategy {
    /// The type of generated values.
    type Value;
    /// Draws one value from `rng`.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;
}

/// A strategy that always yields a clone of the same value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Marker strategy returned by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

/// A strategy over the full domain of a primitive type, mirroring
/// `proptest::arbitrary::any`.
pub fn any<T>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

macro_rules! impl_any_uint {
    ($($t:ty),*) => {$(
        impl Strategy for Any<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_any_uint!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Any<bool> {
    type Value = bool;
    fn sample(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Strategy for Any<char> {
    type Value = char;
    fn sample(&self, rng: &mut TestRng) -> char {
        // Bias towards ASCII, but cover the whole scalar-value space.
        if !rng.next_u64().is_multiple_of(4) {
            (b' ' + (rng.next_u64() % 95) as u8) as char
        } else {
            char::from_u32((rng.next_u64() % 0x11_0000) as u32).unwrap_or('\u{FFFD}')
        }
    }
}

macro_rules! impl_int_ranges {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + (rng.next_u128() % span) as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                (lo as i128 + (rng.next_u128() % span) as i128) as $t
            }
        }
    )*};
}
impl_int_ranges!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_float_ranges {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                self.start + (self.end - self.start) * rng.unit_f64() as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                lo + (hi - lo) * rng.unit_f64() as $t
            }
        }
    )*};
}
impl_float_ranges!(f32, f64);

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+)),+ $(,)?) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )+};
}
impl_tuple_strategy!((A.0, B.1), (A.0, B.1, C.2), (A.0, B.1, C.2, D.3),);

/// String strategies are written as regex literals in upstream proptest.
/// This shim interprets exactly the subset the workspace uses: a pattern
/// `\PC{lo,hi}` yields `lo..=hi` printable characters (mostly ASCII,
/// with occasional multi-byte scalars so UTF-8 length handling is
/// exercised), and a pattern with no regex metacharacters yields itself.
impl Strategy for &str {
    type Value = String;
    fn sample(&self, rng: &mut TestRng) -> String {
        const MULTIBYTE: [char; 6] = ['é', 'ß', '→', '°', '文', '😀'];
        // detlint:allow(R2) test-only generator; draw count is a function of the static pattern
        if let Some(rest) = self.strip_prefix("\\PC{") {
            let (bounds, tail) = rest
                .split_once('}')
                .unwrap_or_else(|| panic!("unsupported string pattern {self:?}"));
            assert!(tail.is_empty(), "unsupported string pattern {self:?}");
            let (lo, hi) = bounds
                .split_once(',')
                .unwrap_or_else(|| panic!("unsupported string pattern {self:?}"));
            let lo: u64 = lo.trim().parse().expect("bad repetition bound");
            let hi: u64 = hi.trim().parse().expect("bad repetition bound");
            let len = lo + rng.next_u64() % (hi - lo + 1);
            return (0..len)
                .map(|_| {
                    if rng.next_u64().is_multiple_of(8) {
                        MULTIBYTE[(rng.next_u64() % MULTIBYTE.len() as u64) as usize]
                    } else {
                        (b' ' + (rng.next_u64() % 95) as u8) as char
                    }
                })
                .collect();
        }
        assert!(
            !self.contains(['\\', '[', '{', '*', '+', '?', '(', '|', '.']),
            "unsupported string pattern {self:?}"
        );
        (*self).to_owned()
    }
}

/// Length bound accepted by [`collection::vec`](crate::collection::vec).
#[derive(Debug, Clone)]
pub struct SizeBound {
    lo: usize,
    hi_exclusive: usize,
}

impl From<usize> for SizeBound {
    fn from(n: usize) -> Self {
        SizeBound {
            lo: n,
            hi_exclusive: n + 1,
        }
    }
}

impl From<Range<usize>> for SizeBound {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty vec size range");
        SizeBound {
            lo: r.start,
            hi_exclusive: r.end,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeBound {
    fn from(r: RangeInclusive<usize>) -> Self {
        SizeBound {
            lo: *r.start(),
            hi_exclusive: *r.end() + 1,
        }
    }
}

/// Strategy for `Vec`s; see [`collection::vec`](crate::collection::vec).
#[derive(Debug, Clone)]
pub struct VecStrategy<S: Strategy> {
    pub(crate) element: S,
    pub(crate) size: SizeBound,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = (self.size.hi_exclusive - self.size.lo) as u64;
        let len = self.size.lo + (rng.next_u64() % span.max(1)) as usize;
        (0..len).map(|_| self.element.sample(rng)).collect()
    }
}

/// Strategy for `Option`s; see [`option::of`](crate::option::of).
#[derive(Debug, Clone)]
pub struct OptionStrategy<S: Strategy> {
    pub(crate) inner: S,
}

impl<S: Strategy> Strategy for OptionStrategy<S> {
    type Value = Option<S::Value>;
    fn sample(&self, rng: &mut TestRng) -> Option<S::Value> {
        if rng.next_u64().is_multiple_of(4) {
            None
        } else {
            Some(self.inner.sample(rng))
        }
    }
}
