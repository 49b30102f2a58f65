//! Order statistics for latency samples.
//!
//! A timing is reported as its median and the highest percentile that still
//! has at least ten samples beyond it (fewer than ten and the "percentile"
//! is one or two outliers). `query_p99_ms` therefore needs ≥ 1000 samples;
//! [`Summary::p99`] refuses to name a p99 on less.

/// Samples that must lie beyond a tail percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles the picker may choose from, highest first.
const TAILS: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Nearest-rank percentile (`pct` in 0..=100) of an ascending slice.
pub fn percentile_sorted(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), pct)]
}

/// Zero-based nearest-rank index of the `pct` percentile among `n` samples.
fn rank(n: usize, pct: f64) -> usize {
    // The slack keeps products such as 99.9 % × 10 000 = 9990.000000000002
    // from rounding one rank up.
    let r = (pct * n as f64 / 100.0 - 1e-9).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Median of an unsorted sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median, or 0 for an empty sample — per-layer metrics that do not apply
/// to a workload report 0.
pub fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// For samples that repeat a fixed sequence of `period` operations
/// (`samples[k * period + i]` is operation `i` in repetition `k`): each
/// operation's median over the repetitions, then the median operation.
///
/// The operations differ in cost — of a session's first ten queries the
/// first adapts the most — so the median of the pooled sample sits between
/// two cost levels and flips from one to the other on noise; this does not.
pub fn median_of_position_medians(samples: &[f64], period: usize) -> f64 {
    assert!(
        period > 0 && !samples.is_empty() && samples.len().is_multiple_of(period),
        "{} samples are not whole repetitions of {period}",
        samples.len()
    );
    let by_position: Vec<f64> = (0..period)
        .map(|i| {
            let at: Vec<f64> = samples.iter().skip(i).step_by(period).copied().collect();
            median(&at)
        })
        .collect();
    median(&by_position)
}

/// Median and tail of one latency sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    pub p50: f64,
    /// The highest percentile of [`TAILS`] with ≥ [`MIN_BEYOND`] samples
    /// beyond it (`None` when even p75 has fewer).
    pub tail_pct: Option<f64>,
    /// Value at `tail_pct` (the maximum when `tail_pct` is `None`).
    pub tail: f64,
    p99: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "summary of an empty sample");
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let tail_pct = TAILS
            .iter()
            .copied()
            .find(|&p| n - (rank(n, p) + 1) >= MIN_BEYOND);
        Summary {
            n,
            p50: median(&v),
            tail_pct,
            tail: tail_pct.map_or(v[n - 1], |p| percentile_sorted(&v, p)),
            p99: percentile_sorted(&v, 99.0),
        }
    }

    /// The p99, or an error when fewer than ten samples lie beyond it.
    pub fn p99(&self) -> Result<f64, String> {
        if self.tail_pct.is_some_and(|p| p >= 99.0) {
            Ok(self.p99)
        } else {
            Err(format!(
                "p99 needs >= {} samples beyond it; n = {} supports at most p{:?}",
                MIN_BEYOND, self.n, self.tail_pct
            ))
        }
    }

    /// Nearest-rank p99 whatever the sample size — per-layer use only,
    /// always printed beside `n`.
    pub fn p99_unchecked(&self) -> f64 {
        self.p99
    }

    /// `"n=…, p50=…, p<tail>=…"` for the run log.
    pub fn describe(&self, unit: &str) -> String {
        match self.tail_pct {
            Some(p) => format!(
                "n={} p50={:.4}{unit} p{p}={:.4}{unit}",
                self.n, self.p50, self.tail
            ),
            None => format!(
                "n={} p50={:.4}{unit} max={:.4}{unit}",
                self.n, self.p50, self.tail
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled deterministically so sorting is actually exercised.
        let mut v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        v.reverse();
        v
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median_or_zero(&[]), 0.0);
    }

    #[test]
    fn position_medians_ignore_one_noisy_repetition() {
        // Three repetitions of four operations costing 1, 2, 8, 9; the second
        // repetition is disturbed. The pooled median would be 5.5 or more.
        let samples = [
            1.0, 2.0, 8.0, 9.0, //
            7.0, 7.0, 20.0, 20.0, //
            1.2, 2.2, 8.2, 9.2,
        ];
        assert_eq!(median_of_position_medians(&samples, 4), (2.2 + 8.2) / 2.0);
        assert_eq!(median_of_position_medians(&[3.0, 1.0], 2), 2.0);
    }

    #[test]
    fn p99_needs_ten_beyond() {
        // 1000 samples: p99 is the 990th value, exactly ten lie beyond.
        let s = Summary::of(&ramp(1000));
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.5);
        assert_eq!(s.tail_pct, Some(99.0));
        assert_eq!(s.p99().unwrap(), 990.0);
        println!("{}", s.describe("us"));

        // 999 samples: only nine beyond p99, the picker falls back to p95.
        let s = Summary::of(&ramp(999));
        assert_eq!(s.tail_pct, Some(95.0));
        assert!(s.p99().is_err());
        assert_eq!(s.p99_unchecked(), 990.0);

        // 10_000 samples support p99.9; p99 is still available.
        let s = Summary::of(&ramp(10_000));
        assert_eq!(s.tail_pct, Some(99.9));
        assert_eq!(s.tail, 9990.0);
        assert_eq!(s.p99().unwrap(), 9900.0);
    }

    #[test]
    fn tiny_samples_report_the_max() {
        let s = Summary::of(&[5.0, 1.0, 9.0]);
        assert_eq!(s.tail_pct, None);
        assert_eq!(s.tail, 9.0);
        assert!(s.describe("ms").contains("n=3"));
    }
}
