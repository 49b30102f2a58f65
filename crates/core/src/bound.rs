//! The relative upper error bound (§3.1, "Upper Error Bound").
//!
//! The paper derives the bound "by normalizing the maximum difference
//! between the approximate value computed and the query confidence interval
//! bounds" but leaves the normalization denominator open. We use the
//! magnitude of the approximate value (the usual relative-error reading),
//! falling back to the largest interval endpoint magnitude when the
//! estimate is ~0, and to plain absolute error when the whole interval is
//! ~0.

/// Magnitudes below this are treated as zero for normalization purposes.
const EPS: f64 = 1e-12;

/// The denominator for an estimate `v` inside interval `[lo, hi]`: `|v|`,
/// else `max(|lo|, |hi|)`. `None` degrades to absolute error.
fn denominator(v: f64, lo: f64, hi: f64) -> Option<f64> {
    if v.abs() > EPS {
        return Some(v.abs());
    }
    let m = lo.abs().max(hi.abs());
    (m > EPS).then_some(m)
}

/// The upper error bound for an estimate `v` with confidence interval
/// `[lo, hi]`: the worst-case deviation of the true value from `v`,
/// divided by `|v|`, else by `max(|lo|, |hi|)`, and left absolute when both
/// are ~0 (see the module docs).
///
/// Guarantees: for any true value `t ∈ [lo, hi]`,
/// `relative_error(v, t, lo, hi) <= upper_error_bound(v, lo, hi)`.
pub fn upper_error_bound(v: f64, lo: f64, hi: f64) -> f64 {
    debug_assert!(lo <= hi, "inverted interval [{lo}, {hi}]");
    let max_dev = (v - lo).abs().max((hi - v).abs());
    match denominator(v, lo, hi) {
        Some(d) => max_dev / d,
        None => max_dev,
    }
}

/// The realized error of estimate `v` against the true value, normalized the
/// same way as [`upper_error_bound`] (so the two are directly comparable).
pub fn relative_error(v: f64, truth: f64, lo: f64, hi: f64) -> f64 {
    let dev = (v - truth).abs();
    match denominator(v, lo, hi) {
        Some(d) => dev / d,
        None => dev,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bound_basics() {
        // Estimate 10 in [8, 14]: max deviation 4, relative 0.4.
        let b = upper_error_bound(10.0, 8.0, 14.0);
        assert!((b - 0.4).abs() < 1e-12);
    }

    #[test]
    fn point_interval_gives_zero_bound() {
        assert_eq!(upper_error_bound(5.0, 5.0, 5.0), 0.0);
    }

    #[test]
    fn near_zero_estimate_falls_back_to_interval_magnitude() {
        let b = upper_error_bound(0.0, -2.0, 4.0);
        // max deviation 4, magnitude 4 -> 1.0
        assert!((b - 1.0).abs() < 1e-12);
    }

    #[test]
    fn all_zero_degrades_to_absolute() {
        assert_eq!(upper_error_bound(0.0, 0.0, 0.0), 0.0);
        // A deviation below the threshold is reported as is, unnormalized.
        let b = upper_error_bound(0.0, -1e-13, 1e-13);
        assert_eq!(b, 1e-13);
    }

    #[test]
    fn realized_error_comparable() {
        let (v, lo, hi) = (10.0, 8.0, 14.0);
        let e = relative_error(v, 12.0, lo, hi);
        assert!((e - 0.2).abs() < 1e-12);
    }

    proptest! {
        /// The bound dominates the realized error for every truth in the CI.
        #[test]
        fn prop_bound_dominates_error(
            lo in -1e6f64..1e6,
            w in 0.0f64..1e6,
            fv in 0.0f64..=1.0,
            ft in 0.0f64..=1.0,
        ) {
            let hi = lo + w;
            let v = lo + fv * w;
            let truth = lo + ft * w;
            let bound = upper_error_bound(v, lo, hi);
            let err = relative_error(v, truth, lo, hi);
            prop_assert!(err <= bound + 1e-9, "err={err} bound={bound}");
        }
    }
}
