//! Closed real intervals `[lo, hi]` and the arithmetic used to assemble the
//! paper's deterministic confidence intervals.
//!
//! The query confidence interval of §3.1 is a sum of per-tile intervals:
//! exact contributions are point intervals, partially-contained tiles
//! contribute `[count·min, count·max]`. All operations here are *outer*
//! bounds: the true value is guaranteed to stay inside through any sequence
//! of adds/scales/unions, which is what makes the error bound sound.

use std::fmt;

/// A closed interval `[lo, hi]` with `lo <= hi`, both finite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    lo: f64,
    hi: f64,
}

impl Interval {
    /// Creates `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `lo > hi` or either endpoint is NaN.
    #[inline]
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(!lo.is_nan() && !hi.is_nan(), "NaN interval endpoint");
        assert!(lo <= hi, "inverted interval: [{lo}, {hi}]");
        Interval { lo, hi }
    }

    /// Creates `[lo, hi]` fixing accidental inversion by swapping.
    #[inline]
    pub fn from_unordered(a: f64, b: f64) -> Self {
        if a <= b {
            Interval::new(a, b)
        } else {
            Interval::new(b, a)
        }
    }

    /// The degenerate interval `[v, v]` (an exactly known value).
    #[inline]
    pub fn point(v: f64) -> Self {
        Interval::new(v, v)
    }

    /// The additive identity `[0, 0]`.
    #[inline]
    pub fn zero() -> Self {
        Interval::point(0.0)
    }

    /// Lower endpoint.
    #[inline]
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper endpoint.
    #[inline]
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Interval width `hi - lo`; zero for exactly known values.
    ///
    /// This is the `w(t)` of the tile-selection score: the "degree of
    /// inaccuracy" of a tile's contribution.
    #[inline]
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Midpoint of the interval, the default approximate-value estimator for
    /// a partially contained tile ("the tile's mean value derived from its
    /// min and max" in the paper).
    #[inline]
    pub fn midpoint(&self) -> f64 {
        self.lo + (self.hi - self.lo) / 2.0
    }

    /// True when the interval is a single value (`lo == hi`).
    #[inline]
    pub fn is_point(&self) -> bool {
        self.lo == self.hi
    }

    /// True when `v` lies inside the closed interval.
    #[inline]
    pub fn contains(&self, v: f64) -> bool {
        v >= self.lo && v <= self.hi
    }

    /// True when `other` lies entirely within `self`.
    #[inline]
    pub fn contains_interval(&self, other: &Interval) -> bool {
        other.lo >= self.lo && other.hi <= self.hi
    }

    /// Minkowski sum: `[a+c, b+d]`. Sound for summing independent bounds.
    #[inline]
    pub fn add(&self, other: &Interval) -> Interval {
        Interval::new(self.lo + other.lo, self.hi + other.hi)
    }

    /// Scales by a non-negative factor (e.g. `count(t∩Q)`).
    ///
    /// # Panics
    /// Panics if `k < 0`; confidence-interval assembly never needs negative
    /// scaling and allowing it silently would flip the bounds.
    #[inline]
    pub fn scale(&self, k: f64) -> Interval {
        assert!(k >= 0.0, "interval scaling must be non-negative, got {k}");
        Interval::new(self.lo * k, self.hi * k)
    }

    /// Divides by a positive scalar (e.g. deriving the mean CI from the sum
    /// CI by dividing by the exact selected count).
    #[inline]
    pub fn div_scalar(&self, k: f64) -> Interval {
        assert!(k > 0.0, "interval division requires a positive divisor");
        Interval::new(self.lo / k, self.hi / k)
    }

    /// Smallest interval containing both (used for min/max aggregates across
    /// tiles and for merging attribute bounds).
    #[inline]
    pub fn hull(&self, other: &Interval) -> Interval {
        Interval::new(self.lo.min(other.lo), self.hi.max(other.hi))
    }

    /// Intersection of two intervals when they overlap.
    pub fn intersect(&self, other: &Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        if lo <= hi {
            Some(Interval::new(lo, hi))
        } else {
            None
        }
    }

    /// Clamps a value to lie inside the interval.
    #[inline]
    pub fn clamp(&self, v: f64) -> f64 {
        v.clamp(self.lo, self.hi)
    }

    /// Largest absolute distance from `v` to either endpoint; the numerator
    /// of the paper's upper error bound.
    #[inline]
    pub fn max_distance_from(&self, v: f64) -> f64 {
        (v - self.lo).abs().max((self.hi - v).abs())
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_point() {
            write!(f, "{{{:.6}}}", self.lo)
        } else {
            write!(f, "[{:.6}, {:.6}]", self.lo, self.hi)
        }
    }
}

impl std::iter::Sum for Interval {
    fn sum<I: Iterator<Item = Interval>>(iter: I) -> Self {
        iter.fold(Interval::zero(), |acc, x| acc.add(&x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn point_interval_properties() {
        let p = Interval::point(3.5);
        assert!(p.is_point());
        assert_eq!(p.width(), 0.0);
        assert_eq!(p.midpoint(), 3.5);
        assert!(p.contains(3.5));
        assert!(!p.contains(3.5000001));
    }

    #[test]
    #[should_panic(expected = "inverted interval")]
    fn inverted_interval_panics() {
        let _ = Interval::new(2.0, 1.0);
    }

    #[test]
    fn from_unordered_swaps() {
        assert_eq!(Interval::from_unordered(2.0, 1.0), Interval::new(1.0, 2.0));
    }

    #[test]
    fn arithmetic() {
        let a = Interval::new(1.0, 2.0);
        let b = Interval::new(-1.0, 3.0);
        assert_eq!(a.add(&b), Interval::new(0.0, 5.0));
        assert_eq!(a.scale(3.0), Interval::new(3.0, 6.0));
        assert_eq!(a.scale(0.0), Interval::zero());
        assert_eq!(a.div_scalar(2.0), Interval::new(0.5, 1.0));
        assert_eq!(a.hull(&b), Interval::new(-1.0, 3.0));
    }

    #[test]
    fn intersect_cases() {
        let a = Interval::new(0.0, 2.0);
        assert_eq!(
            a.intersect(&Interval::new(1.0, 3.0)),
            Some(Interval::new(1.0, 2.0))
        );
        assert_eq!(
            a.intersect(&Interval::new(2.0, 3.0)),
            Some(Interval::point(2.0)),
            "touching endpoints intersect in closed intervals"
        );
        assert_eq!(a.intersect(&Interval::new(2.5, 3.0)), None);
    }

    #[test]
    fn max_distance() {
        let a = Interval::new(0.0, 10.0);
        assert_eq!(a.max_distance_from(2.0), 8.0);
        assert_eq!(a.max_distance_from(5.0), 5.0);
        assert_eq!(a.max_distance_from(-5.0), 15.0);
    }

    #[test]
    fn sum_iterator() {
        let total: Interval = [Interval::new(0.0, 1.0), Interval::new(2.0, 3.0)]
            .into_iter()
            .sum();
        assert_eq!(total, Interval::new(2.0, 4.0));
    }

    proptest! {
        /// Interval addition is a sound outer bound: if x ∈ A and y ∈ B then
        /// x + y ∈ A + B.
        #[test]
        fn prop_add_sound(
            alo in -1e6f64..1e6, aw in 0.0f64..1e5,
            blo in -1e6f64..1e6, bw in 0.0f64..1e5,
            fa in 0.0f64..=1.0, fb in 0.0f64..=1.0,
        ) {
            let a = Interval::new(alo, alo + aw);
            let b = Interval::new(blo, blo + bw);
            let x = a.lo() + fa * a.width();
            let y = b.lo() + fb * b.width();
            prop_assert!(a.add(&b).contains(x + y));
        }

        /// Scaling is a sound outer bound for non-negative factors.
        #[test]
        fn prop_scale_sound(
            lo in -1e6f64..1e6, w in 0.0f64..1e5,
            k in 0.0f64..1e4, f in 0.0f64..=1.0,
        ) {
            let a = Interval::new(lo, lo + w);
            let x = a.lo() + f * a.width();
            // Allow tiny float slack at the endpoints.
            let scaled = a.scale(k);
            let widened = Interval::new(
                scaled.lo() - scaled.lo().abs() * 1e-12 - 1e-12,
                scaled.hi() + scaled.hi().abs() * 1e-12 + 1e-12,
            );
            prop_assert!(widened.contains(x * k));
        }

        /// Hull contains both operands entirely.
        #[test]
        fn prop_hull_contains(
            alo in -1e6f64..1e6, aw in 0.0f64..1e5,
            blo in -1e6f64..1e6, bw in 0.0f64..1e5,
        ) {
            let a = Interval::new(alo, alo + aw);
            let b = Interval::new(blo, blo + bw);
            let h = a.hull(&b);
            prop_assert!(h.contains_interval(&a));
            prop_assert!(h.contains_interval(&b));
        }

        /// Midpoint lies inside and max_distance dominates the distance to
        /// every point of the interval.
        #[test]
        fn prop_midpoint_and_distance(
            lo in -1e6f64..1e6, w in 0.0f64..1e5, f in 0.0f64..=1.0,
        ) {
            let a = Interval::new(lo, lo + w);
            prop_assert!(a.contains(a.midpoint()));
            let v = a.lo() + f * a.width();
            prop_assert!(a.max_distance_from(a.midpoint()) + 1e-9 >= (v - a.midpoint()).abs());
        }
    }
}
