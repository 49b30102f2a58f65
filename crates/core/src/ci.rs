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
//!   [`Contribution::sum_bounds`]. Two rules bound it, and it takes their
//!   intersection. The **direct** rule is the paper's `count·[min, max]`.
//!   The **complement** rule applies when the contribution is certainly
//!   NULL-free and knows its whole tile or block: `n` objects summing to
//!   `S`. The selected sum is then `S` minus the unselected rest,
//!   `S − (n − count)·[min, max]`. Together they are
//!   `min(k, n − k)·(max − min)` wide for `k` selected, and (up to the
//!   slack) a point when the window takes the whole tile. A count bracket
//!   `[k_lo, k_hi]` leaves `[n − k_hi, n − k_lo]` unselected; each rule
//!   pairs a count end with the envelope end it moves outward, by sign.
//!   The complement is widened by a rounding slack, `(n + 4)²·ε·max|v|`
//!   plus a floor of `2⁻¹⁰²²` for products that underflow. It covers
//!   Higham's bound on the error of whatever summation order produced `S`
//!   (`γ_n·n·max|v|`) and the rule's own roundings. Should rounding ever
//!   leave the two rules disjoint, the direct rule stands alone;
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
use pai_index::AttrMeta;

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
    /// The whole tile or block it is part of, `(n, S)`: how many objects
    /// it holds and the sum of their values, when the source knows both
    /// and proved them NULL-free. `None` leaves the paper's rule alone.
    pub whole: Option<(u64, f64)>,
}

impl Contribution {
    /// `selected` objects of a tile with metadata `meta`. Exact metadata
    /// without NULLs knows the tile's whole `(n, S)`.
    pub fn of_tile(selected: u64, meta: &AttrMeta) -> Contribution {
        let whole = match meta {
            AttrMeta::Exact { stats, nulls: 0 } => Some((stats.count(), stats.sum())),
            _ => None,
        };
        Contribution {
            count: (selected, selected),
            values: meta.value_bounds(),
            non_null: meta.certainly_non_null(),
            whole,
        }
    }

    /// Bounds on the sum of the selected values — the one function that
    /// computes a contribution's sum interval. Each selected object adds a
    /// value inside the envelope, or 0 unless the contribution is certainly
    /// NULL-free; the count bracket multiplies in sign-aware. When the
    /// whole `(n, S)` is known, the sum also lies in what `S` leaves after
    /// the unselected rest (the complement rule), and the two rules
    /// intersect.
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
        let (lo, hi) = scale_bracket(self.count, v);
        let whole = self.whole.filter(|_| self.non_null);
        match whole.and_then(|whole| complement(whole, self.count, v)) {
            // Disjoint only if rounding parted them: the direct rule stands.
            Some((c_lo, c_hi)) if lo.max(c_lo) <= hi.min(c_hi) => {
                Interval::new(lo.max(c_lo), hi.min(c_hi))
            }
            _ => Interval::new(lo, hi),
        }
    }
}

/// `[lo, hi]·v`: each end of a count bracket paired with the envelope end
/// it moves outward, by the envelope end's sign.
#[inline]
fn scale_bracket((lo, hi): (u64, u64), v: Interval) -> (f64, f64) {
    let (lo, hi) = (lo as f64, hi as f64);
    let lo_k = if v.lo() >= 0.0 { lo } else { hi };
    let hi_k = if v.hi() >= 0.0 { hi } else { lo };
    (lo_k * v.lo(), hi_k * v.hi())
}

/// The complement rule: `k` of `n` values in `v` selected, summing to `S`
/// in all, leave the selected sum in `S − (n−k)·v`, widened by
/// [`sum_slack`]. `None` when it cannot be formed soundly: a count past
/// `n`, a tile past the slack's reach, or an end that is not finite.
#[inline]
fn complement((n, s): (u64, f64), (k_lo, k_hi): (u64, u64), v: Interval) -> Option<(f64, f64)> {
    let (rest_lo, rest_hi) = scale_bracket((n.checked_sub(k_hi)?, n.checked_sub(k_lo)?), v);
    let slack = sum_slack(n, v.lo().abs().max(v.hi().abs()))?;
    let (lo, hi) = (s - rest_hi - slack, s - rest_lo + slack);
    (lo.is_finite() && hi.is_finite()).then_some((lo, hi))
}

/// How far a stored sum of `n` values of magnitude at most `m` may lie from
/// their true sum, whatever order folded it — sequential [`push`]es,
/// parallel-build [`merge`]s, ingest — with room for the complement rule's
/// own three roundings (one product, two subtractions). Higham's bound on
/// any summation order, `|S − Σx| ≤ γ_{n−1}·Σ|x| ≤ γ_n·n·m` with
/// `γ_n = n·u/(1 − n·u)`, stays below `2·n²·u·m` for `n < 2³²`; the three
/// roundings add at most `5·n·u·m`. `(n + 4)²·ε·m` (`ε = 2u`) covers both.
/// Products that underflow lose at most `2⁻¹⁰⁷⁵` each; the floor `2⁻¹⁰²²`
/// ([`f64::MIN_POSITIVE`]) covers them. That floor is the smallest normal
/// number, not a subnormal multiple of `2⁻¹⁰⁷⁴`: arithmetic on subnormals
/// is an order of magnitude slower on common CPUs, and this runs for every
/// candidate of every query. `None` past `2³²` values.
///
/// [`push`]: RunningStats::push
/// [`merge`]: RunningStats::merge
#[inline]
pub fn sum_slack(n: u64, m: f64) -> Option<f64> {
    if n >= 1 << 32 {
        return None;
    }
    let n = (n + 4) as f64;
    Some(n * n * m * f64::EPSILON + f64::MIN_POSITIVE)
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
    use pai_index::TileId;

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
            parts: vec![Some(Contribution::of_tile(
                selected,
                &AttrMeta::Bounded {
                    range: Interval::new(lo, hi),
                    non_null,
                },
            ))],
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
            parts: vec![None],
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

    /// `selected` objects of a tile with `meta`.
    fn tile(selected: u64, meta: AttrMeta) -> Contribution {
        Contribution::of_tile(selected, &meta)
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
            whole: None,
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
            whole: None,
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
            whole: None,
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
            whole: None,
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
            whole: None,
        });
        let value = Some(Contribution {
            count: (1, 1),
            values: Some(Interval::new(0.0, 5.0)),
            non_null: true,
            whole: None,
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
            whole: None,
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

    #[test]
    fn the_complement_rule_falls_back_to_the_direct_rule() {
        let direct = Interval::new(20.0, 40.0);
        let part = |count, whole| Contribution {
            count,
            values: Some(Interval::new(10.0, 20.0)),
            non_null: true,
            whole,
        };
        assert_eq!(part((2, 2), None).sum_bounds(), direct);
        // Two of three values in [10, 20] summing to 45: 45 - [10, 20].
        let both = part((2, 2), Some((3, 45.0))).sum_bounds();
        assert!(both.contains_interval(&Interval::new(25.0, 35.0)) && both.width() < 10.0 + 1e-9);
        for whole in [
            // More selected than the whole holds.
            (1, 15.0),
            // A sum that no values in the envelope reach: the two rules
            // are disjoint.
            (3, 500.0),
            (3, f64::INFINITY),
            (3, f64::NAN),
            // Past the slack's reach.
            (1 << 32, 15.0),
        ] {
            assert_eq!(part((2, 2), Some(whole)).sum_bounds(), direct, "{whole:?}");
        }
        // Not certainly NULL-free: the whole does not bound the rest.
        let unproven = Contribution {
            non_null: false,
            ..part((2, 2), Some((3, 45.0)))
        };
        assert_eq!(unproven.sum_bounds(), Interval::new(0.0, 40.0));
        // An envelope too wide for `n·max` leaves the direct rule.
        let huge = Contribution {
            values: Some(Interval::new(-f64::MAX, f64::MAX)),
            ..part((1, 1), Some((3, 0.0)))
        };
        assert_eq!(huge.sum_bounds(), Interval::new(-f64::MAX, f64::MAX));
    }

    /// `2^e` exactly, for `-1074 <= e <= 1023`.
    fn pow2(e: i32) -> f64 {
        if e >= -1022 {
            f64::from_bits(((e + 1023) as u64) << 52)
        } else {
            f64::from_bits(1u64 << (e + 1074))
        }
    }

    /// `x` against the fixed-point value `t·2^e`, exactly.
    fn cmp_fixed(x: f64, t: i128, e: i32) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        let bits = x.abs().to_bits();
        let (biased, frac) = ((bits >> 52) as i32, bits & ((1 << 52) - 1));
        let (mant, exp) = match biased {
            0 => (frac, -1074),
            b => (frac | 1 << 52, b - 1075),
        };
        // |x| in units of 2^e: a whole part and whether a fraction is left.
        let (whole, fraction) = match exp - e {
            s if s >= 0 => (
                if s > 72 {
                    i128::MAX
                } else {
                    (mant as i128) << s
                },
                false,
            ),
            s if s <= -64 => (0, mant != 0),
            s => ((mant >> -s) as i128, mant & ((1 << -s) - 1) != 0),
        };
        let against = |v: i128| match whole.cmp(&v) {
            Ordering::Equal if fraction => Ordering::Greater,
            o => o,
        };
        if x >= 0.0 {
            against(t)
        } else {
            against(-t).reverse()
        }
    }

    /// Whether `iv` holds the fixed-point value `t·2^e`, exactly.
    fn holds(iv: Interval, t: i128, e: i32) -> bool {
        cmp_fixed(iv.lo(), t, e).is_le() && cmp_fixed(iv.hi(), t, e).is_ge()
    }

    /// A tile of `n` values, each `fixed[i]·2^e` exactly, folded into its
    /// exact metadata in one of three orders (`fold`): row order, the
    /// order `perm` gives, or a tree of merged chunks like a parallel
    /// build's. `perm`'s first `k` rows are the selected ones, under each
    /// count bracket of `counts`. Returns how many of those brackets the
    /// complement rule tightened.
    fn check_tile(
        fixed: &[i128],
        e: i32,
        fold: usize,
        perm: &[usize],
        counts: &[(u64, u64)],
        k: usize,
    ) -> usize {
        let values: Vec<f64> = fixed.iter().map(|&f| f as f64 * pow2(e)).collect();
        let stats = match fold {
            0 => RunningStats::from_values(&values),
            1 => perm.iter().fold(RunningStats::new(), |mut s, &i| {
                s.push(values[i]);
                s
            }),
            _ => {
                let mut level: Vec<RunningStats> = values
                    .chunks(1 + perm[0] % 7)
                    .map(RunningStats::from_values)
                    .collect();
                while level.len() > 1 {
                    level = level
                        .chunks(2)
                        .map(|p| {
                            p.iter().fold(RunningStats::new(), |mut s, c| {
                                s.merge(c);
                                s
                            })
                        })
                        .collect();
                }
                level[0]
            }
        };
        let truth: i128 = perm[..k].iter().map(|&i| fixed[i]).sum();
        // The exact engine's answer: the truth rounded once, then divided.
        let truth_f64 = truth as f64 * pow2(e);
        let meta = AttrMeta::Exact { stats, nulls: 0 };
        let mut tightened = 0;
        for &count in counts {
            assert!(count.0 as usize <= k && k <= count.1 as usize);
            let part = Contribution {
                count,
                ..Contribution::of_tile(k as u64, &meta)
            };
            let paper = Contribution {
                whole: None,
                ..part
            };
            let iv = part.sum_bounds();
            assert!(
                holds(iv, truth, e),
                "{count:?}: {iv:?} misses {truth}·2^{e}"
            );
            assert!(
                paper.sum_bounds().contains_interval(&iv),
                "{count:?}: {iv:?}"
            );
            tightened += usize::from(iv.width() < paper.sum_bounds().width());
            let at = |agg, c: Contribution| {
                estimate(
                    &agg,
                    k as u64,
                    &RunningStats::new(),
                    Some(k as u64),
                    [Some(c)].into_iter(),
                )
            };
            let sum = at(AggregateFunction::Sum(2), part).ci.unwrap();
            assert!(
                holds(sum, truth, e),
                "{count:?}: SUM {sum:?} misses {truth}·2^{e}"
            );
            if k > 0 {
                let mean = at(AggregateFunction::Mean(2), part).ci.unwrap();
                let paper_mean = at(AggregateFunction::Mean(2), paper).ci.unwrap();
                let truth_mean = truth_f64 / k as f64;
                assert!(
                    mean.contains(truth_mean),
                    "{count:?}: MEAN {mean:?} misses {truth_mean}"
                );
                assert!(
                    paper_mean.contains_interval(&mean),
                    "{count:?}: MEAN {mean:?}"
                );
            }
        }
        tightened
    }

    /// A permutation of `0..n` from a xorshift stream seeded with `seed`.
    fn permutation(n: usize, mut seed: u64) -> Vec<usize> {
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            perm.swap(i, (seed % (i as u64 + 1)) as usize);
        }
        perm
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// Every SUM and MEAN interval holds the truth, computed in `i128`
        /// fixed point, and lies inside the paper's rule alone. Values are
        /// `m·2^(e + shift)` with 30-bit `m`, so the direct rule's products
        /// stay exact and only the complement's slack is under test; `e`
        /// puts them among subnormals, near 1 or past 2^900, all of one
        /// sign or mixed, so that sums cancel.
        #[test]
        fn sum_and_mean_intervals_hold_the_truth(
            raw in prop::collection::vec((-(1i64 << 30)..(1i64 << 30), 0u32..40), 1..300),
            (scale, signs, fold) in (0usize..3, 0usize..3, 0usize..3),
            (k_pick, lo_pick, hi_pick, seed) in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, any::<u64>()),
        ) {
            let e = [-1074, -40, 900][scale];
            let fixed: Vec<i128> = raw
                .iter()
                .map(|&(m, shift)| {
                    let m = match signs {
                        0 => m.abs(),
                        1 => -m.abs(),
                        _ => m,
                    };
                    (m as i128) << shift
                })
                .collect();
            let n = fixed.len();
            let k = ((k_pick * (n + 1) as f64) as usize).min(n);
            let k_lo = k - (lo_pick * k as f64) as usize;
            let k_hi = k + (hi_pick * (n - k) as f64) as usize;
            let perm = permutation(n, seed | 1);
            let counts = [(k as u64, k as u64), (k_lo as u64, k_hi as u64)];
            check_tile(&fixed, e, fold, &perm, &counts, k);
        }
    }

    /// A synopsis shape where pairing a count end with the wrong envelope
    /// end inverts the interval: values in [86.3, 104.3], 378..=1337 of
    /// 4 096 rows selected, and the same negated.
    #[test]
    fn count_brackets_pair_with_the_envelope_ends_they_move_outward() {
        let fixed: Vec<i128> = (0..4096u64)
            .map(|i| {
                let spread = ((i * 2_654_435_761) % 4096) as f64 / 4095.0;
                ((86.3 + 18.0 * spread) * pow2(40)) as i128
            })
            .collect();
        let negated: Vec<i128> = fixed.iter().map(|f| -f).collect();
        for values in [&fixed, &negated] {
            for (k, seed) in [(378, 3), (800, 5), (1337, 7)] {
                let perm = permutation(4096, seed);
                for fold in 0..3 {
                    let counts = [(k as u64, k as u64), (378, 1337)];
                    check_tile(values, -40, fold, &perm, &counts, k);
                }
            }
            // Most of the block selected: the complement rule is the
            // tighter one, and a bracket around the count keeps it so.
            let perm = permutation(4096, 11);
            let counts = [(3900, 3900), (3800, 4000)];
            assert_eq!(check_tile(values, -40, 2, &perm, &counts, 3900), 2);
        }
    }
}
