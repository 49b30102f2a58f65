//! Confidence-interval assembly and approximate-value estimation (§3.1).
//!
//! One rule set, two feeders. For one attribute, a query's answer is made
//! of an **exact part** — a [`RunningStats`] over every value known
//! exactly — and a set of still-bounded [`Contribution`]s, each a
//! selected-count interval, a value envelope and whether its values are
//! certainly NULL-free. The rules (`estimate`) turn them into an
//! [`AggregateEstimate`] guaranteed to contain the exact answer:
//!
//! * `sum` — the exact sum plus each contribution's
//!   [`Contribution::sum_bounds`], the paper's `count·[min, max]`;
//! * `mean` — the sum interval divided by the number of values it sums;
//! * `min`/`max` — the exact extrema joined with the envelopes;
//! * `count` — always exact (axis values live in the index);
//! * `variance`/`stddev` — extensions with conservative Popoviciu-style
//!   bounds (`var ≤ (range/2)²`), exact once no contribution is left.
//!
//! The *approximate value* adds each envelope's midpoint to the exact part
//! (the paper's "mean value derived from min and max").
//!
//! The tile index feeds [`estimate_aggregate`]: covered tiles with exact
//! metadata and processed tiles are the exact part, and each candidate tile
//! contributes the point count `count(t∩Q)` and its metadata envelope. The
//! block synopses feed [`crate::synopsis`]: covered blocks fold their
//! moments into the exact part, and each partial block contributes its
//! histogram count bracket and its column envelope.
//!
//! The paper's data has no NULLs; here a NULL (NaN) is a fact the index
//! counts, never an assumption. A contribution that is not certainly
//! NULL-free may add 0 for a selected object, nothing to a mean's count and
//! no value to a min/max, and each rule widens accordingly. One with no
//! values at all (every selected object NULL) adds 0 to a sum and nothing
//! to anything else. On NULL-free data the rules are the paper's.

use pai_common::{AggregateFunction, AggregateValue, Interval, RunningStats};

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
    /// True when some contribution has no bounds at all for the needed
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

    fn bounded(value: f64, ci: Interval) -> Self {
        AggregateEstimate {
            value: AggregateValue::Float(value),
            ci: Some(ci),
            unbounded: false,
        }
    }

    fn empty() -> Self {
        Self::exact(AggregateValue::Empty, None)
    }

    fn unbounded_with(value: AggregateValue) -> Self {
        AggregateEstimate {
            value,
            ci: None,
            unbounded: true,
        }
    }

    /// COUNT over `selected` objects: always exact.
    pub(crate) fn count(selected: u64) -> Self {
        Self::exact(AggregateValue::Count(selected), Some(selected as f64))
    }
}

/// One still-bounded part of a query's answer for one attribute: a tile
/// the query cuts, or a block the window partly covers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Contribution {
    /// Bounds `(lo, hi)` on how many objects it selects.
    pub count: (u64, u64),
    /// Envelope of its values; `None` when it holds none, so that every
    /// object it selects is NULL.
    pub values: Option<Interval>,
    /// True when every object it selects certainly has a value.
    pub non_null: bool,
}

impl Contribution {
    /// Bounds on the sum of the selected values — the one function that
    /// computes a contribution's sum interval. Each selected object adds a
    /// value inside the envelope, or 0 unless the contribution is certainly
    /// NULL-free; the count bracket multiplies in sign-aware.
    #[inline]
    pub fn sum_bounds(&self) -> Interval {
        let Some(v) = self.values else {
            return Interval::point(0.0);
        };
        let v = if self.non_null {
            v
        } else {
            v.hull(&Interval::point(0.0))
        };
        let (lo, hi) = (self.count.0 as f64, self.count.1 as f64);
        let lo_k = if v.lo() >= 0.0 { lo } else { hi };
        let hi_k = if v.hi() >= 0.0 { hi } else { lo };
        Interval::new(lo_k * v.lo(), hi_k * v.hi())
    }
}

/// Computes the approximate value and confidence interval for one aggregate
/// given the current query state: its exact part, and one contribution per
/// candidate tile (`None` when the tile has no bounds at all).
pub fn estimate_aggregate(agg: &AggregateFunction, state: &QueryState) -> AggregateEstimate {
    let Some(a) = agg.attribute() else {
        return AggregateEstimate::count(state.selected_total);
    };
    let i = state.attr_pos(a);
    let contributions = state.candidates.iter().map(|c| c.contribution(i));
    estimate(
        agg,
        state.selected_total,
        &state.exact[i],
        None,
        contributions,
    )
}

/// The rules: one aggregate's estimate over `selected` objects in all, of
/// which the exact part holds some and the contributions (`None` for one
/// with no bounds at all) select the other `pending` — `None` when each
/// contribution's count is a point, so that their counts add up to it.
pub(crate) fn estimate<I>(
    agg: &AggregateFunction,
    selected: u64,
    exact: &RunningStats,
    pending: Option<u64>,
    contributions: I,
) -> AggregateEstimate
where
    I: Iterator<Item = Option<Contribution>> + Clone,
{
    match *agg {
        AggregateFunction::Count => AggregateEstimate::count(selected),
        AggregateFunction::Sum(_) => {
            let (ci, estimate, ..) = sum(exact, contributions);
            match ci {
                Some(ci) => AggregateEstimate::bounded(ci.clamp(estimate), ci),
                None => AggregateEstimate::unbounded_with(AggregateValue::Float(estimate)),
            }
        }
        AggregateFunction::Mean(_) => mean(selected, exact, pending, contributions),
        AggregateFunction::Min(_) => extremum(selected, exact, contributions, true),
        AggregateFunction::Max(_) => extremum(selected, exact, contributions, false),
        AggregateFunction::Variance(_) => variance(selected, exact, pending, contributions, false),
        AggregateFunction::StdDev(_) => variance(selected, exact, pending, contributions, true),
    }
}

/// Sum: the exact sum plus every contribution's sum interval (`None` when
/// some contribution is unbounded), the midpoint estimate, whether every
/// contribution is certainly NULL-free, and the least count they select.
fn sum(
    exact: &RunningStats,
    contributions: impl Iterator<Item = Option<Contribution>>,
) -> (Option<Interval>, f64, bool, u64) {
    let mut ci = Interval::point(exact.sum());
    let mut estimate = exact.sum();
    let (mut unbounded, mut non_null, mut counted) = (false, true, 0);
    for c in contributions {
        let Some(c) = c else {
            (unbounded, non_null) = (true, false);
            continue;
        };
        let iv = c.sum_bounds();
        ci = ci.add(&iv);
        estimate += iv.midpoint();
        non_null &= c.non_null;
        counted += c.count.0;
    }
    ((!unbounded).then_some(ci), estimate, non_null, counted)
}

/// Mean: when every contribution is certainly NULL-free, the sum interval
/// divided by the count of values it sums — the exact part's values plus
/// the `pending` objects the contributions select (on NULL-free data the
/// selected count; once fully resolved, the exact mean). Otherwise how many
/// values the contributions hold is unknown, so the CI widens to the hull
/// of the value envelopes (the mean of any value multiset lies within its
/// value range) — once some value certainly exists; before that the
/// selection may hold nothing but NULLs, and the mean is unbounded.
fn mean<I>(
    selected: u64,
    exact: &RunningStats,
    pending: Option<u64>,
    contributions: I,
) -> AggregateEstimate
where
    I: Iterator<Item = Option<Contribution>> + Clone,
{
    let (ci, estimate, non_null, counted) = sum(exact, contributions.clone());
    let values = exact.count() + pending.unwrap_or(counted);
    let n = values as f64;
    let Some(ci) = ci else {
        let value = if values == 0 {
            AggregateValue::Empty
        } else {
            AggregateValue::Float(estimate / n)
        };
        return AggregateEstimate::unbounded_with(value);
    };
    if values == 0 {
        return AggregateEstimate::empty();
    }
    if non_null {
        let mut mean_ci = ci.div_scalar(n);
        // The paper's rule, unless the exact part holds NULLs: then the
        // value hull bounds the mean as well, and is the tighter bound
        // where count brackets leave the divided sum loose.
        if values < selected {
            let h = hull(exact, contributions).and_then(|h| h.intersect(&mean_ci));
            mean_ci = h.unwrap_or(mean_ci);
        }
        return AggregateEstimate::bounded(mean_ci.clamp(ci.clamp(estimate) / n), mean_ci);
    }
    // No value anywhere: every selected object is NULL.
    let Some(h) = hull(exact, contributions.clone()) else {
        return AggregateEstimate::empty();
    };
    if !some_value(exact, values - exact.count(), contributions) {
        return AggregateEstimate::unbounded_with(AggregateValue::Float(h.midpoint()));
    }
    AggregateEstimate::bounded(h.midpoint(), h)
}

/// Whether some selected value certainly exists; before one does, the
/// selection may hold nothing but NULLs. It does with an exact value, a
/// certainly NULL-free contribution selecting at least one object, or
/// `pending > 0` objects of contributions that are all certainly NULL-free.
fn some_value(
    exact: &RunningStats,
    pending: u64,
    contributions: impl Iterator<Item = Option<Contribution>> + Clone,
) -> bool {
    exact.count() > 0
        || contributions
            .clone()
            .flatten()
            .any(|c| c.non_null && c.count.0 > 0)
        || (pending > 0
            && contributions
                .into_iter()
                .all(|c| c.is_some_and(|c| c.non_null)))
}

/// Min/Max: elementwise combination of the exact extremum (achieved, so
/// certain) and the envelopes. The lower (resp. upper) bound is always
/// sound; the opposite bound needs at least one *certain* contribution — an
/// achieved exact value, or a certainly NULL-free contribution selecting at
/// least one object, which is guaranteed to contribute a real value.
fn extremum(
    selected: u64,
    exact: &RunningStats,
    contributions: impl Iterator<Item = Option<Contribution>>,
    is_min: bool,
) -> AggregateEstimate {
    if selected == 0 {
        return AggregateEstimate::empty();
    }
    // For min: `outer` tracks the lowest possible value, `certain` the
    // lowest value guaranteed to be achieved or beaten.
    let fold = |acc: Option<f64>, v: f64| {
        Some(acc.map_or(v, |cur| if is_min { cur.min(v) } else { cur.max(v) }))
    };
    let achieved = if is_min { exact.min() } else { exact.max() };
    let (mut outer, mut certain, mut est) = (achieved, achieved, achieved);
    let mut unbounded = false;
    for c in contributions {
        let Some(c) = c else {
            unbounded = true;
            continue;
        };
        let Some(iv) = c.values else { continue };
        let (near, far) = if is_min {
            (iv.lo(), iv.hi())
        } else {
            (iv.hi(), iv.lo())
        };
        outer = fold(outer, near);
        if c.non_null && c.count.0 > 0 {
            certain = fold(certain, far);
        }
        est = fold(est, iv.midpoint());
    }
    match (outer, certain) {
        (Some(o), Some(c)) if !unbounded => {
            let ci = Interval::from_unordered(o, c);
            AggregateEstimate::bounded(ci.clamp(est.unwrap_or(o)), ci)
        }
        (Some(o), _) => AggregateEstimate::unbounded_with(AggregateValue::Float(est.unwrap_or(o))),
        (None, _) if unbounded => AggregateEstimate::unbounded_with(AggregateValue::Empty),
        // No value anywhere: every selected object is NULL.
        (None, _) => AggregateEstimate::empty(),
    }
}

/// Variance / standard deviation (extension): exact when no contribution
/// is left; otherwise the Popoviciu bound `var ∈ [0, (range/2)²]` over the
/// hull of the exact range and every envelope — once some value certainly
/// exists (as for MEAN).
fn variance<I>(
    selected: u64,
    exact: &RunningStats,
    pending: Option<u64>,
    contributions: I,
    sqrt: bool,
) -> AggregateEstimate
where
    I: Iterator<Item = Option<Contribution>> + Clone,
{
    if selected == 0 {
        return AggregateEstimate::empty();
    }
    if contributions.clone().next().is_none() {
        return match exact.variance() {
            Some(v) => {
                let v = if sqrt { v.sqrt() } else { v };
                AggregateEstimate::exact(AggregateValue::Float(v), Some(v))
            }
            None => AggregateEstimate::empty(),
        };
    }
    let unbounded = contributions.clone().any(|c| c.is_none());
    let Some(h) = hull(exact, contributions.clone()) else {
        return if unbounded {
            AggregateEstimate::unbounded_with(AggregateValue::Empty)
        } else {
            AggregateEstimate::empty()
        };
    };
    let hi_var = (h.width() / 2.0).powi(2);
    let ci = Interval::new(0.0, if sqrt { hi_var.sqrt() } else { hi_var });
    let pending =
        pending.unwrap_or_else(|| contributions.clone().flatten().map(|c| c.count.0).sum());
    if unbounded || !some_value(exact, pending, contributions) {
        return AggregateEstimate::unbounded_with(AggregateValue::Float(ci.midpoint()));
    }
    AggregateEstimate::bounded(ci.midpoint(), ci)
}

/// Hull of the exact part's range and every bounded contribution's
/// envelope; `None` when neither holds a value.
fn hull(
    exact: &RunningStats,
    contributions: impl Iterator<Item = Option<Contribution>>,
) -> Option<Interval> {
    contributions
        .flatten()
        .filter_map(|c| c.values)
        .fold(exact.range(), |h, iv| Some(h.map_or(iv, |h| h.hull(&iv))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{Candidate, CandidateKind};
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

    /// A candidate selecting `selected` objects of a tile with `meta`.
    fn tile(selected: u64, meta: AttrMeta) -> Contribution {
        let c = Candidate {
            tile: TileId(0),
            selected,
            kind: CandidateKind::Partial,
            meta: vec![Some(meta)],
        };
        c.contribution(0).unwrap()
    }

    #[test]
    fn sum_bounds_without_nulls() {
        let m = AttrMeta::exact_from_values(&[2.0, 4.0]);
        assert_eq!(tile(3, m.clone()).sum_bounds(), Interval::new(6.0, 12.0));
        assert_eq!(tile(0, m).sum_bounds(), Interval::point(0.0));
        let proven = AttrMeta::Bounded {
            range: Interval::new(2.0, 10.0),
            non_null: true,
        };
        assert_eq!(tile(5, proven).sum_bounds(), Interval::new(10.0, 50.0));
    }

    #[test]
    fn sum_bounds_with_nulls_include_zero() {
        // min=max=2, but a selected object could be the NULL one.
        let m = AttrMeta::exact_from_values(&[2.0, f64::NAN]);
        assert_eq!(tile(2, m).sum_bounds(), Interval::new(0.0, 4.0));
        let unproven = AttrMeta::Bounded {
            range: Interval::new(2.0, 10.0),
            non_null: false,
        };
        assert_eq!(tile(5, unproven).sum_bounds(), Interval::new(0.0, 50.0));
    }

    #[test]
    fn sum_bounds_negative_values_with_nulls() {
        let m = AttrMeta::exact_from_values(&[-3.0, f64::NAN]);
        assert_eq!(tile(2, m).sum_bounds(), Interval::new(-6.0, 0.0));
    }

    #[test]
    fn sum_bounds_multiply_a_count_bracket_sign_aware() {
        let part = |values: Interval, non_null| Contribution {
            count: (2, 4),
            values: Some(values),
            non_null,
        };
        let neg = Interval::new(-10.0, -2.0);
        assert_eq!(part(neg, true).sum_bounds(), Interval::new(-40.0, -4.0));
        assert_eq!(part(neg, false).sum_bounds(), Interval::new(-40.0, 0.0));
        let mixed = Interval::new(-1.0, 3.0);
        assert_eq!(part(mixed, true).sum_bounds(), Interval::new(-4.0, 12.0));
        // Nothing but NULLs: every selected object adds 0.
        let nulls = Contribution {
            count: (2, 4),
            values: None,
            non_null: false,
        };
        assert_eq!(nulls.sum_bounds(), Interval::point(0.0));
    }

    #[test]
    fn mean_divides_by_the_exact_count_of_values_under_count_brackets() {
        // Exact part: two values and a NULL. Two contributions bracket
        // their counts, selecting four objects between them, each with a
        // value.
        let exact = RunningStats::from_values(&[10.0, f64::NAN, 20.0]);
        let part = |lo, hi| Contribution {
            count: (lo, hi),
            values: Some(Interval::new(0.0, 10.0)),
            non_null: true,
        };
        let parts = [Some(part(1, 3)), Some(part(1, 3))];
        let mean = AggregateFunction::Mean(2);
        let e = estimate(&mean, 7, &exact, Some(4), parts.iter().copied());
        // Sum [30, 90] over 2 + 4 values.
        assert_eq!(e.ci, Some(Interval::new(5.0, 15.0)));
        let sum = estimate(
            &AggregateFunction::Sum(2),
            7,
            &exact,
            Some(4),
            parts.iter().copied(),
        );
        assert_eq!(sum.ci, Some(Interval::new(30.0, 90.0)));
    }

    #[test]
    fn with_nulls_in_the_exact_part_the_mean_keeps_to_the_value_hull() {
        // Loose brackets: two contributions select ten objects between
        // them, each anywhere from 0 to 10, values in [15, 16].
        let part = Some(Contribution {
            count: (0, 10),
            values: Some(Interval::new(15.0, 16.0)),
            non_null: true,
        });
        let mean = AggregateFunction::Mean(2);
        // NULL-free: the paper's divided sum, [30, 350] / 12.
        let exact = RunningStats::from_values(&[10.0, 20.0]);
        let e = estimate(&mean, 12, &exact, Some(10), [part, part].into_iter());
        assert_eq!(e.ci, Some(Interval::new(30.0 / 12.0, 350.0 / 12.0)));
        // A NULL in the exact part: the hull [10, 20] bounds it too.
        let e = estimate(&mean, 13, &exact, Some(10), [part, part].into_iter());
        assert_eq!(e.ci, Some(Interval::new(10.0, 20.0)));
    }

    #[test]
    fn an_all_null_contribution_adds_nothing_and_stays_bounded() {
        let exact = RunningStats::from_values(&[10.0, 20.0]);
        let nulls = Some(Contribution {
            count: (2, 2),
            values: None,
            non_null: false,
        });
        let value = Some(Contribution {
            count: (1, 1),
            values: Some(Interval::new(0.0, 5.0)),
            non_null: true,
        });
        let parts = [nulls, value];
        let at = |agg| estimate(&agg, 5, &exact, None, parts.iter().copied());
        let sum = at(AggregateFunction::Sum(2));
        assert_eq!(sum.ci, Some(Interval::new(30.0, 35.0)));
        let min = at(AggregateFunction::Min(2));
        assert_eq!(min.ci, Some(Interval::new(0.0, 5.0)));
        let max = at(AggregateFunction::Max(2));
        assert_eq!(max.ci, Some(Interval::point(20.0)));
        // The hull is the exact range and [0, 5]: the NULLs add no value.
        let mean = at(AggregateFunction::Mean(2));
        assert_eq!(mean.ci, Some(Interval::new(0.0, 20.0)));
        let var = at(AggregateFunction::Variance(2));
        assert_eq!(var.ci, Some(Interval::new(0.0, 100.0)));
        for e in [sum, min, max, mean, var] {
            assert!(!e.unbounded);
        }

        // Only NULLs selected: the sum is exactly 0, everything else has no
        // value to report — certainly, so nothing is unbounded either.
        let none = RunningStats::new();
        for agg in [
            AggregateFunction::Mean(2),
            AggregateFunction::Min(2),
            AggregateFunction::Max(2),
            AggregateFunction::Variance(2),
        ] {
            let e = estimate(&agg, 2, &none, None, [nulls].into_iter());
            assert_eq!(
                (e.value, e.ci, e.unbounded),
                (AggregateValue::Empty, None, false)
            );
        }
        let e = estimate(
            &AggregateFunction::Sum(2),
            2,
            &none,
            None,
            [nulls].into_iter(),
        );
        assert_eq!(e.ci, Some(Interval::point(0.0)));
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
    fn an_unbounded_tile_leaves_no_empty_answer() {
        // No value known yet, and a tile with no bounds: it may hold any
        // value, so no aggregate over it is Empty — each is unbounded.
        let s = QueryState::synthetic(
            vec![2],
            3,
            vec![RunningStats::new()],
            vec![cand_unbounded(3)],
        );
        for agg in [
            AggregateFunction::Min(2),
            AggregateFunction::Max(2),
            AggregateFunction::Variance(2),
            AggregateFunction::StdDev(2),
        ] {
            let e = estimate_aggregate(&agg, &s);
            assert!(e.unbounded, "{agg}");
            assert_eq!(e.ci, None, "{agg}");
        }
    }

    #[test]
    fn variance_waits_for_a_certain_value_as_mean_does() {
        // No exact value, and the candidate may hold nothing but NULLs.
        let no_value = QueryState::synthetic(
            vec![2],
            3,
            vec![RunningStats::new()],
            vec![cand_with(3, 0.0, 10.0, false)],
        );
        for agg in [AggregateFunction::Mean(2), AggregateFunction::Variance(2)] {
            assert!(estimate_aggregate(&agg, &no_value).unbounded, "{agg}");
        }
        // A count bracket with no certain object, but every contribution
        // NULL-free and objects pending: some value exists.
        let part = Contribution {
            count: (0, 2),
            values: Some(Interval::new(0.0, 10.0)),
            non_null: true,
        };
        let var = AggregateFunction::Variance(2);
        let none = RunningStats::new();
        let e = estimate(&var, 2, &none, Some(2), [Some(part); 2].into_iter());
        assert_eq!(e.ci, Some(Interval::new(0.0, 25.0)));
        let nulls = Contribution {
            non_null: false,
            ..part
        };
        let e = estimate(
            &var,
            2,
            &none,
            Some(2),
            [Some(part), Some(nulls)].into_iter(),
        );
        assert!(e.unbounded);
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
