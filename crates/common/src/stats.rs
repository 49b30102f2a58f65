//! Mergeable running aggregates backing tile metadata.
//!
//! The index stores, per tile and per attribute, the algebraic aggregates the
//! paper's confidence intervals need: `count`, `sum`, `min`, `max` (plus
//! `sum²` to support the variance/stddev extension). All of these merge
//! associatively, which is what lets subtile metadata roll up to parents and
//! lets the initialization scan run in parallel chunks.

use crate::interval::Interval;

/// Running `count/sum/min/max/sum²` over a stream of f64 values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunningStats {
    count: u64,
    sum: f64,
    sum_sq: f64,
    min: f64,
    max: f64,
}

impl Default for RunningStats {
    fn default() -> Self {
        Self::new()
    }
}

impl RunningStats {
    /// Empty statistics (identity element for [`merge`](Self::merge)).
    pub const fn new() -> Self {
        RunningStats {
            count: 0,
            sum: 0.0,
            sum_sq: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Statistics of a single value.
    pub fn of(v: f64) -> Self {
        let mut s = Self::new();
        s.push(v);
        s
    }

    /// Statistics of a slice of values.
    pub fn from_values(values: &[f64]) -> Self {
        let mut s = Self::new();
        for &v in values {
            s.push(v);
        }
        s
    }

    /// Statistics from stored moments, such as a block synopsis's record;
    /// `None` unless they can describe `count` real values: with any value,
    /// every field finite and `min <= max`.
    #[inline]
    pub fn from_moments(count: u64, sum: f64, sum_sq: f64, min: f64, max: f64) -> Option<Self> {
        if count == 0 {
            return Some(Self::new());
        }
        ([sum, sum_sq, min, max].iter().all(|v| v.is_finite()) && min <= max).then_some(
            RunningStats {
                count,
                sum,
                sum_sq,
                min,
                max,
            },
        )
    }

    /// Folds one value in. NaN values are ignored (treated as SQL NULL).
    #[inline]
    pub fn push(&mut self, v: f64) {
        if v.is_nan() {
            return;
        }
        self.count += 1;
        self.sum += v;
        self.sum_sq += v * v;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Merges another set of running stats into this one (associative,
    /// commutative, with [`new`](Self::new) as identity).
    pub fn merge(&mut self, other: &RunningStats) {
        self.count += other.count;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        if other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
    }

    /// Number of (non-NaN) values folded in.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when no values have been observed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of observed values.
    #[inline]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Sum of squares of observed values (feeds variance bounds).
    #[inline]
    pub fn sum_sq(&self) -> f64 {
        self.sum_sq
    }

    /// Minimum value, or `None` when empty.
    #[inline]
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum value, or `None` when empty.
    #[inline]
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Arithmetic mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Population variance `E[X²] − E[X]²`, clamped at zero to absorb
    /// floating-point cancellation; `None` when empty.
    pub fn variance(&self) -> Option<f64> {
        self.mean().map(|m| {
            let v = self.sum_sq / self.count as f64 - m * m;
            v.max(0.0)
        })
    }

    /// Population standard deviation; `None` when empty.
    pub fn std_dev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// The `[min, max]` range as an interval; `None` when empty.
    #[inline]
    pub fn range(&self) -> Option<Interval> {
        (self.count > 0).then(|| Interval::new(self.min, self.max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_stats() {
        let s = RunningStats::new();
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.mean(), None);
        assert_eq!(s.variance(), None);
        assert_eq!(s.range(), None);
    }

    #[test]
    fn single_value() {
        let s = RunningStats::of(4.0);
        assert_eq!(s.count(), 1);
        assert_eq!(s.sum(), 4.0);
        assert_eq!(s.min(), Some(4.0));
        assert_eq!(s.max(), Some(4.0));
        assert_eq!(s.mean(), Some(4.0));
        assert_eq!(s.variance(), Some(0.0));
    }

    #[test]
    fn known_sequence() {
        let s = RunningStats::from_values(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count(), 4);
        assert_eq!(s.sum(), 10.0);
        assert_eq!(s.mean(), Some(2.5));
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(4.0));
        // Population variance of 1..4 is 1.25.
        assert!((s.variance().unwrap() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn nan_ignored() {
        let s = RunningStats::from_values(&[1.0, f64::NAN, 3.0]);
        assert_eq!(s.count(), 2);
        assert_eq!(s.sum(), 4.0);
    }

    #[test]
    fn negative_values() {
        let s = RunningStats::from_values(&[-5.0, -1.0, 2.0]);
        assert_eq!(s.min(), Some(-5.0));
        assert_eq!(s.max(), Some(2.0));
        assert_eq!(s.sum(), -4.0);
    }

    #[test]
    fn merge_identity() {
        let mut s = RunningStats::from_values(&[1.0, 2.0]);
        let before = s;
        s.merge(&RunningStats::new());
        assert_eq!(s, before);
    }

    proptest! {
        /// Merging chunked stats equals stats over the concatenation.
        #[test]
        fn prop_merge_equals_whole(
            a in prop::collection::vec(-1e6f64..1e6, 0..50),
            b in prop::collection::vec(-1e6f64..1e6, 0..50),
        ) {
            let mut merged = RunningStats::from_values(&a);
            merged.merge(&RunningStats::from_values(&b));
            let mut whole_vals = a.clone();
            whole_vals.extend_from_slice(&b);
            let whole = RunningStats::from_values(&whole_vals);
            prop_assert_eq!(merged.count(), whole.count());
            prop_assert!((merged.sum() - whole.sum()).abs() <= 1e-6 * (1.0 + whole.sum().abs()));
            prop_assert_eq!(merged.min(), whole.min());
            prop_assert_eq!(merged.max(), whole.max());
        }

        /// Mean lies within [min, max]; variance is non-negative.
        #[test]
        fn prop_mean_within_range(v in prop::collection::vec(-1e6f64..1e6, 1..100)) {
            let s = RunningStats::from_values(&v);
            let m = s.mean().unwrap();
            prop_assert!(m >= s.min().unwrap() - 1e-9);
            prop_assert!(m <= s.max().unwrap() + 1e-9);
            prop_assert!(s.variance().unwrap() >= 0.0);
        }
    }
}
