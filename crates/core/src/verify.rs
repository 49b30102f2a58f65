//! Ground-truth verification helpers.
//!
//! Tests and the experiment harness use these to check the two guarantees
//! the paper's method makes:
//!
//! 1. the exact answer lies inside every reported confidence interval;
//! 2. the realized (normalized) error never exceeds the reported upper
//!    error bound.

use pai_common::geometry::Rect;
use pai_common::{AggregateFunction, PaiError, Result};
use pai_storage::ground_truth::window_truth;
use pai_storage::raw::RawFile;

use crate::bound::relative_error;
use crate::engine::ApproxResult;

/// Verification outcome for one aggregate.
#[derive(Debug, Clone)]
pub struct AggregateCheck {
    pub agg: AggregateFunction,
    pub truth: Option<f64>,
    pub estimate: Option<f64>,
    /// Realized error, normalized like the engine's bound.
    pub realized_error: f64,
    pub truth_in_ci: bool,
    pub error_within_bound: bool,
}

/// Full verification report for one query result.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    pub checks: Vec<AggregateCheck>,
}

impl VerifyReport {
    /// True when every aggregate passed both guarantees.
    pub fn all_ok(&self) -> bool {
        self.checks
            .iter()
            .all(|c| c.truth_in_ci && c.error_within_bound)
    }

    /// Largest realized error across aggregates.
    pub fn max_realized_error(&self) -> f64 {
        self.checks
            .iter()
            .map(|c| c.realized_error)
            .fold(0.0, f64::max)
    }
}

/// Computes the exact answer by scanning the file and checks `result`'s
/// guarantees against it.
pub fn verify_against_truth(
    file: &dyn RawFile,
    window: &Rect,
    aggs: &[AggregateFunction],
    result: &ApproxResult,
) -> Result<VerifyReport> {
    if aggs.len() != result.values.len() {
        return Err(PaiError::internal(
            "aggregate list does not match result arity",
        ));
    }
    // Gather the distinct attrs and their truths once.
    let mut attrs = Vec::new();
    for agg in aggs {
        if let Some(a) = agg.attribute() {
            if !attrs.contains(&a) {
                attrs.push(a);
            }
        }
    }
    let truths = window_truth(file, window, &attrs)?;
    let truth_of = |agg: &AggregateFunction| -> Option<f64> {
        match *agg {
            AggregateFunction::Count => {
                // Any attr entry carries the selected count; when the query
                // has no attr at all, fall back to a count scan.
                Some(match truths.first() {
                    Some(t) => t.selected as f64,
                    None => 0.0, // resolved below
                })
            }
            _ => {
                let a = agg.attribute().expect("non-count aggs have attrs");
                let i = attrs.iter().position(|&x| x == a).expect("collected");
                let s = &truths[i].stats;
                match *agg {
                    AggregateFunction::Sum(_) => Some(s.sum()),
                    AggregateFunction::Mean(_) => s.mean(),
                    AggregateFunction::Min(_) => s.min(),
                    AggregateFunction::Max(_) => s.max(),
                    AggregateFunction::Variance(_) => s.variance(),
                    AggregateFunction::StdDev(_) => s.std_dev(),
                    AggregateFunction::Count => unreachable!(),
                }
            }
        }
    };
    // Count-only queries need one counting scan.
    let count_fallback = if attrs.is_empty() {
        Some(pai_storage::ground_truth::window_count(file, window)? as f64)
    } else {
        None
    };

    let mut checks = Vec::with_capacity(aggs.len());
    for ((agg, value), ci) in aggs.iter().zip(&result.values).zip(&result.cis) {
        let truth = match agg {
            AggregateFunction::Count => count_fallback.or_else(|| truth_of(agg)),
            _ => truth_of(agg),
        };
        let estimate = value.as_f64();
        let (truth_in_ci, realized_error) = match (truth, estimate, ci) {
            (Some(t), Some(v), Some(iv)) => (
                // Tolerate float round-off at the very edges.
                iv.contains(t)
                    || (t - iv.lo()).abs() <= 1e-9 * (1.0 + t.abs())
                    || (t - iv.hi()).abs() <= 1e-9 * (1.0 + t.abs()),
                relative_error(v, t, iv.lo(), iv.hi()),
            ),
            (None, None, _) => (true, 0.0), // both empty: consistent
            // Truth exists but result says empty (or vice versa): fail.
            _ => (false, f64::INFINITY),
        };
        checks.push(AggregateCheck {
            agg: *agg,
            truth,
            estimate,
            realized_error,
            truth_in_ci,
            error_within_bound: realized_error <= result.error_bound + 1e-9,
        });
    }
    Ok(VerifyReport { checks })
}

/// Convenience used by benches: panic with a readable message when a result
/// violates its guarantees.
pub fn assert_verified(
    file: &dyn RawFile,
    window: &Rect,
    aggs: &[AggregateFunction],
    result: &ApproxResult,
) {
    let report = verify_against_truth(file, window, aggs, result).expect("verification ran");
    for c in &report.checks {
        assert!(
            c.truth_in_ci,
            "{}: truth {:?} escaped CI (estimate {:?})",
            c.agg, c.truth, c.estimate
        );
        assert!(
            c.error_within_bound,
            "{}: realized error {} exceeds bound {}",
            c.agg, c.realized_error, result.error_bound
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::engine::ApproximateEngine;
    use pai_index::init::{build, GridSpec, InitConfig};
    use pai_index::MetadataPolicy;
    use pai_storage::{CsvFormat, DatasetSpec};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn fuzz_guarantees_over_random_queries_and_phis() {
        let spec = DatasetSpec {
            rows: 2500,
            columns: 4,
            seed: 3,
            ..Default::default()
        };
        let file = spec.build_mem(CsvFormat::default()).unwrap();
        let init = InitConfig {
            grid: GridSpec::Fixed { nx: 5, ny: 5 },
            domain: Some(spec.domain),
            metadata: MetadataPolicy::AllNumeric,
        };
        let (idx, _) = build(&file, &init).unwrap();
        let mut eng = ApproximateEngine::new(idx, &file, EngineConfig::paper_evaluation()).unwrap();
        let aggs = [
            AggregateFunction::Count,
            AggregateFunction::Sum(2),
            AggregateFunction::Mean(2),
            AggregateFunction::Min(3),
            AggregateFunction::Max(3),
        ];
        let mut rng = StdRng::seed_from_u64(1234);
        for i in 0..25 {
            let x0 = rng.gen_range(0.0..800.0);
            let y0 = rng.gen_range(0.0..800.0);
            let w = rng.gen_range(20.0..500.0);
            let h = rng.gen_range(20.0..500.0);
            let window = Rect::new(x0, (x0 + w).min(1000.0), y0, (y0 + h).min(1000.0));
            let phi = [0.0, 0.01, 0.05, 0.2][i % 4];
            let res = eng.evaluate(&window, &aggs, phi).unwrap();
            assert_verified(&file, &window, &aggs, &res);
        }
        eng.index().validate_invariants().unwrap();
    }

    #[test]
    fn report_shape() {
        let spec = DatasetSpec {
            rows: 300,
            columns: 3,
            seed: 4,
            ..Default::default()
        };
        let file = spec.build_mem(CsvFormat::default()).unwrap();
        let init = InitConfig {
            grid: GridSpec::Fixed { nx: 3, ny: 3 },
            domain: Some(spec.domain),
            metadata: MetadataPolicy::AllNumeric,
        };
        let (idx, _) = build(&file, &init).unwrap();
        let mut eng = ApproximateEngine::new(idx, &file, EngineConfig::paper_evaluation()).unwrap();
        let window = Rect::new(100.0, 800.0, 100.0, 800.0);
        let aggs = [AggregateFunction::Sum(2)];
        let res = eng.evaluate(&window, &aggs, 0.05).unwrap();
        let report = verify_against_truth(&file, &window, &aggs, &res).unwrap();
        assert!(report.all_ok());
        assert_eq!(report.checks.len(), 1);
        assert!(report.max_realized_error() <= res.error_bound + 1e-9);
    }

    #[test]
    fn empty_window_verifies() {
        let spec = DatasetSpec {
            rows: 100,
            columns: 3,
            seed: 6,
            ..Default::default()
        };
        let file = spec.build_mem(CsvFormat::default()).unwrap();
        let init = InitConfig {
            grid: GridSpec::Fixed { nx: 2, ny: 2 },
            domain: Some(spec.domain),
            metadata: MetadataPolicy::AllNumeric,
        };
        let (idx, _) = build(&file, &init).unwrap();
        let mut eng = ApproximateEngine::new(idx, &file, EngineConfig::paper_evaluation()).unwrap();
        let window = Rect::new(-50.0, -10.0, -50.0, -10.0);
        let aggs = [AggregateFunction::Count, AggregateFunction::Mean(2)];
        let res = eng.evaluate(&window, &aggs, 0.01).unwrap();
        let report = verify_against_truth(&file, &window, &aggs, &res).unwrap();
        assert!(report.all_ok(), "{report:?}");
    }
}
