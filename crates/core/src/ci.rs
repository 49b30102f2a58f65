//! Confidence-interval assembly and approximate-value estimation (§3.1).
//!
//! For each aggregate the paper defines a *query confidence interval* built
//! from tile metadata, guaranteed to contain the exact answer:
//!
//! * `sum`  — exact part plus `Σ count(t∩Q)·[min_A(t), max_A(t)]` over the
//!   bounded tiles;
//! * `mean` — the sum interval divided by the exact count of values it
//!   sums;
//! * `min`/`max` — exact candidates joined with the bounded tiles'
//!   `[min, max]` envelopes via elementwise min/max;
//! * `count` — always exact (axis values live in the index);
//! * `variance`/`stddev` — extensions with conservative Popoviciu-style
//!   bounds (`var ≤ (range/2)²`), collapsing to exact values once every
//!   contribution is resolved.
//!
//! The *approximate value* uses exact contributions where available and the
//! interval midpoint for bounded tiles (the paper's "mean value derived from
//! min and max").
//!
//! The paper's data has no NULLs; here a NULL (NaN) is a fact the index
//! counts, never an assumption. A bounded tile that is not *certainly
//! NULL-free* ([`pai_index::AttrMeta::certainly_non_null`]) may contribute 0
//! to a sum, nothing to a mean's count and no value to a min/max, and each
//! rule below widens accordingly. On NULL-free data every tile is certainly
//! NULL-free and the rules are the paper's.

use pai_common::{AggregateFunction, AggregateValue, Interval};

use crate::state::QueryState;

/// An aggregate's approximate value together with its confidence interval.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateEstimate {
    /// The approximate value reported to the user.
    pub value: AggregateValue,
    /// Deterministic confidence interval containing the exact answer;
    /// `None` when the selection is empty (nothing to bound) or when the
    /// interval is unbounded (see [`Self::unbounded`]).
    pub ci: Option<Interval>,
    /// True when some candidate tile has no bounds at all for the needed
    /// attribute — the CI is effectively infinite and the tile must be
    /// processed before any constraint can be met.
    pub unbounded: bool,
}

impl AggregateEstimate {
    fn exact(value: AggregateValue, point: Option<f64>) -> Self {
        AggregateEstimate {
            value,
            ci: point.map(Interval::point),
            unbounded: false,
        }
    }

    fn empty() -> Self {
        AggregateEstimate {
            value: AggregateValue::Empty,
            ci: None,
            unbounded: false,
        }
    }

    fn unbounded_with(value: AggregateValue) -> Self {
        AggregateEstimate {
            value,
            ci: None,
            unbounded: true,
        }
    }
}

/// Computes the approximate value and confidence interval for one aggregate
/// given the current query state.
pub fn estimate_aggregate(agg: &AggregateFunction, state: &QueryState) -> AggregateEstimate {
    match *agg {
        AggregateFunction::Count => AggregateEstimate::exact(
            AggregateValue::Count(state.selected_total),
            Some(state.selected_total as f64),
        ),
        AggregateFunction::Sum(a) => sum_estimate(state, state.attr_pos(a)).0,
        AggregateFunction::Mean(a) => mean_estimate(state, state.attr_pos(a)),
        AggregateFunction::Min(a) => extremum_estimate(state, state.attr_pos(a), true),
        AggregateFunction::Max(a) => extremum_estimate(state, state.attr_pos(a), false),
        AggregateFunction::Variance(a) => variance_estimate(state, state.attr_pos(a), false),
        AggregateFunction::StdDev(a) => variance_estimate(state, state.attr_pos(a), true),
    }
}

/// Sum: exact accumulator + per-candidate `count·[min,max]` intervals. Also
/// returns how many values the sum adds up — the exact part's non-NULL
/// count plus every candidate's selected count — and whether that count is
/// exact, i.e. every candidate is certainly NULL-free.
fn sum_estimate(state: &QueryState, i: usize) -> (AggregateEstimate, u64, bool) {
    let exact_part = state.exact[i].sum();
    let mut ci = Interval::point(exact_part);
    let mut estimate = exact_part;
    let mut unbounded = false;
    let mut values = state.exact[i].count();
    let mut non_null = true;
    for c in &state.candidates {
        match c.sum_bounds(i) {
            Some(iv) => {
                ci = ci.add(&iv);
                estimate += iv.midpoint();
            }
            None => unbounded = true,
        }
        values += c.selected;
        non_null &= c.certainly_non_null(i);
    }
    let estimate = if unbounded {
        AggregateEstimate::unbounded_with(AggregateValue::Float(estimate))
    } else {
        AggregateEstimate {
            value: AggregateValue::Float(ci.clamp(estimate)),
            ci: Some(ci),
            unbounded: false,
        }
    };
    (estimate, values, non_null)
}

/// Mean: when every candidate is certainly NULL-free, the sum interval
/// divided by the count of values it sums (on NULL-free data the selected
/// count; once fully resolved, the exact mean). Otherwise how many values
/// the candidates hold is unknown, so the CI widens to the hull of the
/// per-value bounds (the mean of any value multiset lies within its value
/// range) — once some value certainly exists; before that the selection
/// may hold nothing but NULLs, and the mean is unbounded.
fn mean_estimate(state: &QueryState, i: usize) -> AggregateEstimate {
    let (sum, values, non_null) = sum_estimate(state, i);
    if values == 0 {
        return AggregateEstimate::empty();
    }
    let n = values as f64;
    if sum.unbounded {
        return AggregateEstimate::unbounded_with(match sum.value {
            AggregateValue::Float(v) => AggregateValue::Float(v / n),
            other => other,
        });
    }
    if non_null {
        let ci = sum.ci.expect("bounded sum has a CI").div_scalar(n);
        let est = match sum.value {
            AggregateValue::Float(v) => ci.clamp(v / n),
            _ => ci.midpoint(),
        };
        return AggregateEstimate {
            value: AggregateValue::Float(est),
            ci: Some(ci),
            unbounded: false,
        };
    }
    // mean ∈ hull(all value bounds ∪ exact range); every candidate has
    // value bounds here, since the sum is bounded.
    let hull = state
        .candidates
        .iter()
        .fold(state.exact[i].range(), |h, c| {
            let iv = c.value_bounds(i).expect("bounded sum, bounded values");
            Some(h.map_or(iv, |h| h.hull(&iv)))
        });
    let h = hull.expect("values > 0: an exact value or a candidate");
    let value = AggregateValue::Float(h.midpoint());
    if state.exact[i].count() == 0 && !state.candidates.iter().any(|c| c.certainly_non_null(i)) {
        return AggregateEstimate::unbounded_with(value);
    }
    AggregateEstimate {
        value,
        ci: Some(h),
        unbounded: false,
    }
}

/// Min/Max: elementwise combination of exact values (certain) and candidate
/// envelopes. The lower (resp. upper) bound is always sound; the opposite
/// bound needs at least one *certain* contribution — an achieved exact
/// value, or a certainly NULL-free tile, which is guaranteed to contribute
/// a real value.
fn extremum_estimate(state: &QueryState, i: usize, is_min: bool) -> AggregateEstimate {
    if state.selected_total == 0 {
        return AggregateEstimate::empty();
    }
    // Outer accumulators. For min: `outer` tracks the lowest possible value,
    // `certain` the lowest value guaranteed to be achieved or beaten.
    let mut outer: Option<f64> = None;
    let mut certain: Option<f64> = None;
    let mut est: Option<f64> = None;
    let mut unbounded = false;

    let fold = |acc: &mut Option<f64>, v: f64| {
        *acc = Some(match *acc {
            Some(cur) => {
                if is_min {
                    cur.min(v)
                } else {
                    cur.max(v)
                }
            }
            None => v,
        });
    };

    // Exact part: an achieved extremum (certain on both sides).
    let exact_ext = if is_min {
        state.exact[i].min()
    } else {
        state.exact[i].max()
    };
    if let Some(v) = exact_ext {
        fold(&mut outer, v);
        fold(&mut certain, v);
        fold(&mut est, v);
    }

    for c in &state.candidates {
        match c.value_bounds(i) {
            Some(iv) => {
                fold(&mut outer, if is_min { iv.lo() } else { iv.hi() });
                // The tile certainly contributes a value when it is proven
                // NULL-free; its worst-case extremum is the opposite endpoint.
                if c.certainly_non_null(i) {
                    fold(&mut certain, if is_min { iv.hi() } else { iv.lo() });
                }
                fold(&mut est, iv.midpoint());
            }
            None => unbounded = true,
        }
    }

    match (outer, certain, unbounded) {
        (Some(o), Some(c), false) => {
            let ci = Interval::from_unordered(o, c);
            let value = AggregateValue::Float(ci.clamp(est.unwrap_or(o)));
            AggregateEstimate {
                value,
                ci: Some(ci),
                unbounded: false,
            }
        }
        (Some(o), _, _) => {
            AggregateEstimate::unbounded_with(AggregateValue::Float(est.unwrap_or(o)))
        }
        (None, _, _) => AggregateEstimate::empty(),
    }
}

/// Variance / standard deviation (extension): exact when fully resolved;
/// otherwise the Popoviciu bound `var ∈ [0, (range/2)²]` over the hull of
/// all value envelopes.
fn variance_estimate(state: &QueryState, i: usize, sqrt: bool) -> AggregateEstimate {
    if state.selected_total == 0 {
        return AggregateEstimate::empty();
    }
    if state.fully_resolved() {
        return match state.exact[i].variance() {
            Some(v) => {
                let v = if sqrt { v.sqrt() } else { v };
                AggregateEstimate::exact(AggregateValue::Float(v), Some(v))
            }
            None => AggregateEstimate::empty(),
        };
    }
    let mut hull: Option<Interval> = state.exact[i].range();
    let mut unbounded = false;
    for c in &state.candidates {
        match c.value_bounds(i) {
            Some(iv) => hull = Some(hull.map_or(iv, |h| h.hull(&iv))),
            None => unbounded = true,
        }
    }
    let Some(h) = hull else {
        return AggregateEstimate::empty();
    };
    let hi_var = (h.width() / 2.0).powi(2);
    let ci_var = Interval::new(0.0, hi_var);
    let ci = if sqrt {
        Interval::new(0.0, hi_var.sqrt())
    } else {
        ci_var
    };
    if unbounded {
        return AggregateEstimate::unbounded_with(AggregateValue::Float(ci.midpoint()));
    }
    AggregateEstimate {
        value: AggregateValue::Float(ci.midpoint()),
        ci: Some(ci),
        unbounded: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{Candidate, CandidateKind};
    use pai_common::RunningStats;
    use pai_index::{AttrMeta, TileId};

    fn cand(selected: u64, lo: f64, hi: f64) -> Candidate {
        cand_with(selected, lo, hi, true)
    }

    /// A candidate whose envelope came from a source that did (`non_null`)
    /// or did not prove its values NULL-free.
    fn cand_with(selected: u64, lo: f64, hi: f64, non_null: bool) -> Candidate {
        Candidate {
            tile: TileId(0),
            selected,
            kind: CandidateKind::Partial,
            meta: vec![Some(AttrMeta::Bounded {
                range: Interval::new(lo, hi),
                non_null,
            })],
        }
    }

    /// [`state`] with the candidate's NULLs unproven.
    fn state_with_unproven_candidate() -> QueryState {
        QueryState::synthetic(
            vec![2],
            5,
            vec![RunningStats::from_values(&[10.0, 20.0])],
            vec![cand_with(3, 0.0, 10.0, false)],
        )
    }

    fn cand_unbounded(selected: u64) -> Candidate {
        Candidate {
            tile: TileId(1),
            selected,
            kind: CandidateKind::Partial,
            meta: vec![None],
        }
    }

    /// State: exact part {count 2, sum 30, min 10, max 20}, one candidate
    /// with 3 selected in [0, 10].
    fn state() -> QueryState {
        QueryState::synthetic(
            vec![2],
            5,
            vec![RunningStats::from_values(&[10.0, 20.0])],
            vec![cand(3, 0.0, 10.0)],
        )
    }

    #[test]
    fn sum_ci_matches_paper_formula() {
        let e = estimate_aggregate(&AggregateFunction::Sum(2), &state());
        // Exact 30 + 3·[0,10] = [30, 60]; midpoint estimate 30 + 3·5 = 45.
        assert_eq!(e.ci, Some(Interval::new(30.0, 60.0)));
        assert_eq!(e.value, AggregateValue::Float(45.0));
        assert!(!e.unbounded);
    }

    #[test]
    fn mean_ci_divides_by_selected() {
        let e = estimate_aggregate(&AggregateFunction::Mean(2), &state());
        assert_eq!(e.ci, Some(Interval::new(6.0, 12.0)));
        assert_eq!(e.value, AggregateValue::Float(9.0));
    }

    #[test]
    fn mean_conservative_uses_value_hull() {
        let s = state_with_unproven_candidate();
        let e = estimate_aggregate(&AggregateFunction::Mean(2), &s);
        // hull([10,20] exact range, [0,10] candidate) = [0,20].
        assert_eq!(e.ci, Some(Interval::new(0.0, 20.0)));
        // The sum widens to let each unproven object contribute 0.
        let e = estimate_aggregate(&AggregateFunction::Sum(2), &s);
        assert_eq!(e.ci, Some(Interval::new(30.0, 60.0)));
        // With no exact value either, the selection may be all NULLs: there
        // is no mean to bound yet.
        let no_value = QueryState::synthetic(
            vec![2],
            3,
            vec![RunningStats::new()],
            vec![cand_with(3, 0.0, 10.0, false)],
        );
        assert!(estimate_aggregate(&AggregateFunction::Mean(2), &no_value).unbounded);
    }

    #[test]
    fn mean_divides_by_the_values_not_the_selected_objects() {
        // Five objects selected, one of them NULL: the exact part holds the
        // other two values, the certainly NULL-free candidate three more.
        let s = QueryState::synthetic(
            vec![2],
            6,
            vec![RunningStats::from_values(&[10.0, f64::NAN, 20.0])],
            vec![cand(3, 0.0, 10.0)],
        );
        let e = estimate_aggregate(&AggregateFunction::Mean(2), &s);
        assert_eq!(e.ci, Some(Interval::new(6.0, 12.0)));
        // Fully resolved: the exact mean of the values, NULLs left out.
        let resolved = QueryState::synthetic(
            vec![2],
            3,
            vec![RunningStats::from_values(&[10.0, f64::NAN, 20.0])],
            vec![],
        );
        let e = estimate_aggregate(&AggregateFunction::Mean(2), &resolved);
        assert_eq!(e.ci, Some(Interval::point(15.0)));
        assert_eq!(e.value, AggregateValue::Float(15.0));
        // Nothing but NULLs: no mean at all.
        let nulls = QueryState::synthetic(
            vec![2],
            1,
            vec![RunningStats::from_values(&[f64::NAN])],
            vec![],
        );
        let e = estimate_aggregate(&AggregateFunction::Mean(2), &nulls);
        assert_eq!(e.value, AggregateValue::Empty);
    }

    #[test]
    fn min_ci_combines_exact_and_bounded() {
        let e = estimate_aggregate(&AggregateFunction::Min(2), &state());
        // Lower: min(10, lo=0) = 0. Upper: min(10 achieved, candidate hi=10) = 10.
        assert_eq!(e.ci, Some(Interval::new(0.0, 10.0)));
        // Estimate: min(10, midpoint 5) = 5.
        assert_eq!(e.value, AggregateValue::Float(5.0));
    }

    #[test]
    fn max_ci_combines_exact_and_bounded() {
        let e = estimate_aggregate(&AggregateFunction::Max(2), &state());
        // Upper: max(20, hi=10) = 20. Lower certain: max(20, lo=0) = 20.
        assert_eq!(e.ci, Some(Interval::point(20.0)));
        assert_eq!(e.value, AggregateValue::Float(20.0));
    }

    #[test]
    fn min_conservative_null_handling() {
        // A candidate with unproven NULLs cannot certify a contribution, but
        // the exact part still can.
        let s = state_with_unproven_candidate();
        let e = estimate_aggregate(&AggregateFunction::Min(2), &s);
        assert_eq!(e.ci, Some(Interval::new(0.0, 10.0)));
        // With no exact part at all the upper bound disappears.
        let no_exact = QueryState::synthetic(
            vec![2],
            3,
            vec![RunningStats::new()],
            vec![cand_with(3, 0.0, 10.0, false)],
        );
        let e2 = estimate_aggregate(&AggregateFunction::Min(2), &no_exact);
        assert!(e2.unbounded);
        // A proven NULL-free candidate certifies it again.
        let proven = QueryState::synthetic(
            vec![2],
            3,
            vec![RunningStats::new()],
            vec![cand(3, 0.0, 10.0)],
        );
        let e3 = estimate_aggregate(&AggregateFunction::Min(2), &proven);
        assert_eq!(e3.ci, Some(Interval::new(0.0, 10.0)));
    }

    #[test]
    fn count_is_always_exact() {
        let e = estimate_aggregate(&AggregateFunction::Count, &state());
        assert_eq!(e.value, AggregateValue::Count(5));
        assert_eq!(e.ci, Some(Interval::point(5.0)));
    }

    #[test]
    fn unbounded_candidate_voids_ci() {
        let s = QueryState::synthetic(
            vec![2],
            4,
            vec![RunningStats::from_values(&[1.0])],
            vec![cand_unbounded(3)],
        );
        for agg in [
            AggregateFunction::Sum(2),
            AggregateFunction::Mean(2),
            AggregateFunction::Min(2),
            AggregateFunction::Variance(2),
        ] {
            let e = estimate_aggregate(&agg, &s);
            assert!(e.unbounded, "{agg}");
            assert_eq!(e.ci, None, "{agg}");
        }
    }

    #[test]
    fn empty_selection_yields_empty() {
        let s = QueryState::synthetic(vec![2], 0, vec![RunningStats::new()], vec![]);
        for agg in [
            AggregateFunction::Sum(2),
            AggregateFunction::Mean(2),
            AggregateFunction::Min(2),
            AggregateFunction::Max(2),
            AggregateFunction::Variance(2),
        ] {
            let e = estimate_aggregate(&agg, &s);
            if matches!(agg, AggregateFunction::Sum(_)) {
                // Sum over empty selection is 0, exactly.
                assert_eq!(e.value, AggregateValue::Float(0.0));
                assert_eq!(e.ci, Some(Interval::point(0.0)));
            } else {
                assert_eq!(e.value, AggregateValue::Empty, "{agg}");
            }
        }
    }

    #[test]
    fn fully_resolved_state_gives_point_intervals() {
        let s = QueryState::synthetic(
            vec![2],
            3,
            vec![RunningStats::from_values(&[1.0, 2.0, 6.0])],
            vec![],
        );
        let sum = estimate_aggregate(&AggregateFunction::Sum(2), &s);
        assert_eq!(sum.ci, Some(Interval::point(9.0)));
        let mean = estimate_aggregate(&AggregateFunction::Mean(2), &s);
        assert_eq!(mean.ci, Some(Interval::point(3.0)));
        let var = estimate_aggregate(&AggregateFunction::Variance(2), &s);
        let expected_var = s.exact[0].variance().unwrap();
        assert_eq!(var.ci, Some(Interval::point(expected_var)));
        let sd = estimate_aggregate(&AggregateFunction::StdDev(2), &s);
        assert_eq!(sd.value, AggregateValue::Float(expected_var.sqrt()));
    }

    #[test]
    fn variance_bound_contains_truth() {
        // Candidate values could be anything in [0,10]; whatever they are,
        // the variance of the combined multiset is <= (range/2)^2.
        let e = estimate_aggregate(&AggregateFunction::Variance(2), &state());
        let ci = e.ci.unwrap();
        assert_eq!(ci.lo(), 0.0);
        // hull([10,20], [0,10]) = [0,20] -> upper (20/2)^2 = 100.
        assert_eq!(ci.hi(), 100.0);
        // Worst-case truth: values {10,20} exact plus {0,0,10}: variance of
        // {10,20,0,0,10} = 56 <= 100.
        let worst = RunningStats::from_values(&[10.0, 20.0, 0.0, 0.0, 10.0]);
        assert!(worst.variance().unwrap() <= ci.hi());
    }

    #[test]
    fn estimate_always_inside_ci() {
        // Reported values are clamped into the CI.
        for agg in [
            AggregateFunction::Sum(2),
            AggregateFunction::Mean(2),
            AggregateFunction::Min(2),
            AggregateFunction::Max(2),
        ] {
            let e = estimate_aggregate(&agg, &state());
            let (v, ci) = (e.value.as_f64().unwrap(), e.ci.unwrap());
            assert!(ci.contains(v), "{agg}: {v} not in {ci}");
        }
    }
}
