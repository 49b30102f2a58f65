//! The second zero-I/O tier: approximate answers from per-block synopses.
//!
//! Zone maps can only *prune* blocks; the per-block synopses behind
//! [`RawFile::block_synopses`] (count/sum/sum-of-squares moments plus an
//! equi-width histogram per column) can *answer*. When the tile index's own
//! metadata answer misses the query's `φ` on the first round, and before any
//! fetch is planned, the engine composes
//!
//! * **fully-covered** blocks (envelope provably inside the half-open query
//!   window on both axes, no NULL axis values) — their moments fold in
//!   *exactly*, like a fully-contained tile with exact metadata;
//! * **partially-covered** blocks — the histogram mass of the window's axis
//!   ranges bounds the selected count to an interval, which multiplies the
//!   column's value envelope into a sign-aware sum-contribution interval,
//!
//! into one [`AggregateEstimate`] per aggregate, mirroring the paper's
//! confidence-interval formulas in [`crate::ci`] block-wise instead of
//! tile-wise. Blocks whose axis envelope provably misses the window are
//! skipped before any histogram is read. The exact selected count
//! (`count(t∩Q)` from indexed axis values) tightens every partial block's
//! count interval globally: the intervals must sum to the count the index
//! already knows.
//!
//! The pass stops at the first aggregate whose bound exceeds `φ`. When every
//! one meets it, the answer returns with **zero data I/O** — no fetch
//! planned, no GET issued, `fetch_wall_us == 0` — and the `synopsis_hits`/
//! `synopsis_blocks`/`synopsis_bytes` meters tick; a miss ticks none.
//! Otherwise evaluation falls through to the normal plan → fetch → apply
//! adaptation path unchanged. Independently of any attempt, the synopses
//! seed global attribute bounds for `MetadataPolicy::None` cold starts (see
//! [`seed_missing_global_bounds`]) before the first round classifies.

use pai_common::geometry::Rect;
use pai_common::{AggregateFunction, AggregateValue, AttrId, Interval, Result};
use pai_index::eval::query_attrs;
use pai_index::{ReadPolicy, ValinorIndex};
use pai_storage::raw::{BlockSynopsis, ColumnSynopsis, RawFile};

use crate::ci::AggregateEstimate;
use crate::config::EngineConfig;
use crate::engine::bound_of;
use crate::state::CandidateKind;

/// A synopsis-only answer: one estimate per aggregate, their combined
/// bound, and the accounting the meters need.
#[derive(Debug, Clone)]
pub(crate) struct SynopsisAnswer {
    /// One estimate per requested aggregate, in query order.
    pub estimates: Vec<AggregateEstimate>,
    /// Upper error bound, the max over the estimates.
    pub bound: f64,
    /// Blocks whose synopsis contributed (covered + partial).
    pub blocks: u64,
    /// Approximate in-memory bytes of those synopses.
    pub bytes: u64,
}

/// Attempts to answer the query purely from block synopses within the
/// constraint `phi`. Returns `None` when the synopses cannot produce a
/// bounded estimate for some aggregate (corrupt envelope, no certain
/// extremum contribution, or counts inconsistent with the index's exact
/// selected total) or when some aggregate's bound exceeds `phi` — the caller
/// then falls through to the normal adaptation path. The pass stops at the
/// first such aggregate; `phi = f64::INFINITY` composes every one.
#[allow(clippy::too_many_arguments)]
pub(crate) fn try_answer(
    blocks: &[BlockSynopsis],
    x_axis: AttrId,
    y_axis: AttrId,
    window: &Rect,
    selected_total: u64,
    aggs: &[AggregateFunction],
    config: &EngineConfig,
    phi: f64,
) -> Option<SynopsisAnswer> {
    let (covered, partial) = classify_blocks(blocks, x_axis, y_axis, window, selected_total)?;
    let mut estimates = Vec::with_capacity(aggs.len());
    let mut bound = 0.0f64;
    for agg in aggs {
        let e = estimate_one(agg, blocks, &covered, &partial, selected_total, config)?;
        let b = bound_of(config, &e);
        if b > phi {
            return None;
        }
        bound = bound.max(b);
        estimates.push(e);
    }
    let bytes = covered
        .iter()
        .copied()
        .chain(partial.iter().map(|p| p.0))
        .map(|i| blocks[i].approx_bytes())
        .sum();
    Some(SynopsisAnswer {
        estimates,
        bound,
        blocks: (covered.len() + partial.len()) as u64,
        bytes,
    })
}

/// Splits the blocks into fully-covered indices and partially-covered
/// `(index, count_lo, count_hi)` triples, dropping blocks provably outside
/// the window. The partial count intervals are tightened against the exact
/// remaining selected count (they must sum to it); inconsistency — possible
/// only with unsound synopses — refuses the answer instead of reporting an
/// unsound interval.
#[allow(clippy::type_complexity)]
fn classify_blocks(
    blocks: &[BlockSynopsis],
    x_axis: AttrId,
    y_axis: AttrId,
    window: &Rect,
    selected_total: u64,
) -> Option<(Vec<usize>, Vec<(usize, u64, u64)>)> {
    let mut covered = Vec::new();
    let mut partial: Vec<(usize, u64, u64)> = Vec::new();
    let mut covered_rows = 0u64;
    for (i, b) in blocks.iter().enumerate() {
        if b.cols.len() <= x_axis.max(y_axis) {
            return None;
        }
        // An axis envelope that misses the window selects no row of the
        // block: skipped before any histogram is read.
        if b.cols[x_axis].misses(window.x_min, window.x_max)
            || b.cols[y_axis].misses(window.y_min, window.y_max)
        {
            continue;
        }
        if b.covered_by(x_axis, y_axis, window) {
            covered_rows += b.rows();
            covered.push(i);
        } else {
            let (lo, hi) = b.selected_mass(x_axis, y_axis, window);
            if hi > 0 {
                partial.push((i, lo, hi));
            }
        }
    }
    let remaining = selected_total.checked_sub(covered_rows)?;
    let s_lo: u64 = partial.iter().map(|p| p.1).sum();
    let s_hi: u64 = partial.iter().map(|p| p.2).sum();
    if remaining < s_lo || remaining > s_hi {
        return None;
    }
    for p in partial.iter_mut() {
        let others_hi = s_hi - p.2;
        let others_lo = s_lo - p.1;
        p.1 = p.1.max(remaining.saturating_sub(others_hi));
        p.2 = p.2.min(remaining - others_lo);
    }
    Some((covered, partial))
}

/// One aggregate's synopsis estimate, mirroring [`crate::ci`]'s formulas
/// block-wise. `None` means this aggregate cannot be bounded from the
/// synopses (the whole attempt is then abandoned).
fn estimate_one(
    agg: &AggregateFunction,
    blocks: &[BlockSynopsis],
    covered: &[usize],
    partial: &[(usize, u64, u64)],
    n: u64,
    config: &EngineConfig,
) -> Option<AggregateEstimate> {
    let non_null = config.assume_non_null;
    if let AggregateFunction::Count = agg {
        return Some(AggregateEstimate {
            value: AggregateValue::Count(n),
            ci: Some(Interval::point(n as f64)),
            unbounded: false,
        });
    }
    if n == 0 {
        // Mirror `estimate_aggregate` on an empty selection: sums are
        // exactly zero, everything else is Empty.
        return Some(match agg {
            AggregateFunction::Sum(_) => AggregateEstimate {
                value: AggregateValue::Float(0.0),
                ci: Some(Interval::point(0.0)),
                unbounded: false,
            },
            _ => AggregateEstimate {
                value: AggregateValue::Empty,
                ci: None,
                unbounded: false,
            },
        });
    }
    match *agg {
        AggregateFunction::Count => unreachable!("handled above"),
        AggregateFunction::Sum(a) => sum_estimate(a, blocks, covered, partial),
        AggregateFunction::Mean(a) => {
            if non_null {
                let sum = sum_estimate(a, blocks, covered, partial)?;
                let ci = sum.ci?.div_scalar(n as f64);
                let v = match sum.value {
                    AggregateValue::Float(v) => ci.clamp(v / n as f64),
                    _ => ci.midpoint(),
                };
                Some(AggregateEstimate {
                    value: AggregateValue::Float(v),
                    ci: Some(ci),
                    unbounded: false,
                })
            } else {
                let h = value_hull(a, blocks, covered, partial)?;
                Some(AggregateEstimate {
                    value: AggregateValue::Float(h.midpoint()),
                    ci: Some(h),
                    unbounded: false,
                })
            }
        }
        AggregateFunction::Min(a) => extremum_estimate(a, blocks, covered, partial, non_null, true),
        AggregateFunction::Max(a) => {
            extremum_estimate(a, blocks, covered, partial, non_null, false)
        }
        AggregateFunction::Variance(a) => variance_estimate(a, blocks, covered, partial, false),
        AggregateFunction::StdDev(a) => variance_estimate(a, blocks, covered, partial, true),
    }
}

/// Column envelope of a block, `None` when the column holds no (non-NULL)
/// values there. A corrupt (inverted/NaN) envelope maps to `None` too — the
/// caller treats the attempt as unanswerable where that matters.
fn envelope(col: &ColumnSynopsis) -> Option<Interval> {
    (col.count > 0 && col.min <= col.max).then(|| Interval::new(col.min, col.max))
}

/// Sum: exact moments over covered blocks plus sign-aware
/// `count-interval × value-envelope` contributions over partial blocks.
fn sum_estimate(
    a: AttrId,
    blocks: &[BlockSynopsis],
    covered: &[usize],
    partial: &[(usize, u64, u64)],
) -> Option<AggregateEstimate> {
    let mut exact = 0.0;
    for &i in covered {
        exact += blocks[i].cols[a].sum;
    }
    let mut ci = Interval::point(exact);
    let mut estimate = exact;
    for &(i, c_lo, c_hi) in partial {
        let iv = partial_sum_bounds(&blocks[i], a, c_lo, c_hi)?;
        estimate += iv.midpoint();
        ci = ci.add(&iv);
    }
    Some(AggregateEstimate {
        value: AggregateValue::Float(ci.clamp(estimate)),
        ci: Some(ci),
        unbounded: false,
    })
}

/// Bounds on the sum contributed by a partial block whose selected count
/// lies in `[c_lo, c_hi]`. Each selected row contributes a value inside the
/// column envelope — or nothing at all when the column has NULLs there, so
/// the per-value range widens to include 0.
fn partial_sum_bounds(b: &BlockSynopsis, a: AttrId, c_lo: u64, c_hi: u64) -> Option<Interval> {
    let col = &b.cols[a];
    if col.count == 0 {
        // Every value in the block is NULL: selected rows contribute 0.
        return Some(Interval::point(0.0));
    }
    let mut iv = envelope(col)?;
    if col.count < b.rows() {
        iv = iv.hull(&Interval::point(0.0));
    }
    let (vl, vh) = (iv.lo(), iv.hi());
    let lo = if vl >= 0.0 {
        c_lo as f64 * vl
    } else {
        c_hi as f64 * vl
    };
    let hi = if vh >= 0.0 {
        c_hi as f64 * vh
    } else {
        c_lo as f64 * vh
    };
    Some(Interval::new(lo, hi))
}

/// Hull of every contributing block's value envelope (conservative mean,
/// variance). `None` when no block holds a value — or some envelope is
/// corrupt.
fn value_hull(
    a: AttrId,
    blocks: &[BlockSynopsis],
    covered: &[usize],
    partial: &[(usize, u64, u64)],
) -> Option<Interval> {
    let mut hull: Option<Interval> = None;
    for i in covered.iter().copied().chain(partial.iter().map(|p| p.0)) {
        let col = &blocks[i].cols[a];
        if col.count == 0 {
            continue;
        }
        let iv = envelope(col)?;
        hull = Some(hull.map_or(iv, |h| h.hull(&iv)));
    }
    hull
}

/// Min/Max, mirroring `ci::extremum_estimate`: covered blocks contribute
/// achieved extrema (certain on both sides); partial blocks contribute
/// their envelope's outer endpoint always and the opposite endpoint only
/// when the block certainly contributes a selected non-NULL value.
fn extremum_estimate(
    a: AttrId,
    blocks: &[BlockSynopsis],
    covered: &[usize],
    partial: &[(usize, u64, u64)],
    assume_non_null: bool,
    is_min: bool,
) -> Option<AggregateEstimate> {
    let mut outer: Option<f64> = None;
    let mut certain: Option<f64> = None;
    let mut estv: Option<f64> = None;
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
    for &i in covered {
        let col = &blocks[i].cols[a];
        if col.count == 0 {
            continue;
        }
        let iv = envelope(col)?;
        // All of a covered block's rows are selected, so its extremum is
        // achieved by some selected row.
        let v = if is_min { iv.lo() } else { iv.hi() };
        fold(&mut outer, v);
        fold(&mut certain, v);
        fold(&mut estv, v);
    }
    for &(i, c_lo, _) in partial {
        let col = &blocks[i].cols[a];
        if col.count == 0 {
            continue;
        }
        let iv = envelope(col)?;
        fold(&mut outer, if is_min { iv.lo() } else { iv.hi() });
        // At least one selected row with a real value: certain worst case
        // is the envelope's opposite endpoint.
        if c_lo >= 1 && (assume_non_null || col.count == blocks[i].rows()) {
            fold(&mut certain, if is_min { iv.hi() } else { iv.lo() });
        }
        fold(&mut estv, iv.midpoint());
    }
    match (outer, certain) {
        (Some(o), Some(c)) => {
            let ci = Interval::from_unordered(o, c);
            Some(AggregateEstimate {
                value: AggregateValue::Float(ci.clamp(estv.unwrap_or(o))),
                ci: Some(ci),
                unbounded: false,
            })
        }
        // No certain contribution — the extremum cannot be bounded from
        // synopses alone.
        _ => None,
    }
}

/// Variance / stddev: exact population moments when every block is fully
/// covered, else the Popoviciu bound over the value hull (as `ci.rs`).
fn variance_estimate(
    a: AttrId,
    blocks: &[BlockSynopsis],
    covered: &[usize],
    partial: &[(usize, u64, u64)],
    sqrt: bool,
) -> Option<AggregateEstimate> {
    if partial.is_empty() {
        let (mut cnt, mut sum, mut sum_sq) = (0u64, 0.0f64, 0.0f64);
        for &i in covered {
            let col = &blocks[i].cols[a];
            cnt += col.count;
            sum += col.sum;
            sum_sq += col.sum_sq;
        }
        if cnt == 0 {
            return Some(AggregateEstimate {
                value: AggregateValue::Empty,
                ci: None,
                unbounded: false,
            });
        }
        let m = sum / cnt as f64;
        let mut v = (sum_sq / cnt as f64 - m * m).max(0.0);
        if sqrt {
            v = v.sqrt();
        }
        return Some(AggregateEstimate {
            value: AggregateValue::Float(v),
            ci: Some(Interval::point(v)),
            unbounded: false,
        });
    }
    let h = value_hull(a, blocks, covered, partial)?;
    let hi_var = (h.width() / 2.0).powi(2);
    let ci = if sqrt {
        Interval::new(0.0, hi_var.sqrt())
    } else {
        Interval::new(0.0, hi_var)
    };
    Some(AggregateEstimate {
        value: AggregateValue::Float(ci.midpoint()),
        ci: Some(ci),
        unbounded: false,
    })
}

/// Seeds global value envelopes for every queried attribute that has none,
/// hulled from the synopses' per-block column envelopes — the
/// `MetadataPolicy::None` cold-start fix. Existing envelopes are never
/// touched (see [`ValinorIndex::seed_global_bounds`]). Returns how many
/// attributes were seeded.
pub fn seed_missing_global_bounds(
    index: &mut ValinorIndex,
    blocks: &[BlockSynopsis],
    attrs: &[AttrId],
) -> usize {
    let mut seeded = 0;
    for &a in attrs {
        if index.global_bounds(a).is_some() {
            continue;
        }
        if let Some(h) = column_hull(blocks, a) {
            if index.seed_global_bounds(a, h) {
                seeded += 1;
            }
        }
    }
    seeded
}

/// Hull of one column's envelope over every block; `None` when the column
/// is absent, empty everywhere, or any block's envelope is corrupt.
fn column_hull(blocks: &[BlockSynopsis], a: AttrId) -> Option<Interval> {
    let mut hull: Option<Interval> = None;
    for b in blocks {
        let col = b.cols.get(a)?;
        if col.count == 0 {
            continue;
        }
        let iv = envelope(col)?;
        hull = Some(hull.map_or(iv, |h| h.hull(&iv)));
    }
    hull
}

/// Predicted I/O of driving one query **exact** (`φ = 0`) against the
/// current index state, computed before any evaluation from zone maps and
/// classification alone — no file access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoPrediction {
    /// Objects the exact refinement would read (the engine's per-candidate
    /// cost model: selected counts for window-only partial tiles, whole
    /// tile counts for enrichment or full-tile reads).
    pub objects: u64,
    /// Bytes those reads would move, from the backend's
    /// [`RawFile::value_bytes_hint`] (falling back to mean row size for
    /// row-oriented backends).
    pub bytes: u64,
}

/// Predicts the I/O an exact (`φ = 0`) evaluation of `window`'s aggregates
/// would perform, using only the index's classification (exact selected
/// counts) and the backend's per-value size hint. An accuracy-constrained
/// run (`φ > 0`) stops earlier, so the prediction is an upper bound on any
/// metered run of the same query — and tracks a `φ = 0` run within the
/// per-backend tolerances the cost-estimate gate pins.
pub fn predict_query_io(
    index: &ValinorIndex,
    file: &dyn RawFile,
    window: &Rect,
    aggs: &[AggregateFunction],
    config: &EngineConfig,
) -> Result<IoPrediction> {
    let attrs = query_attrs(index.schema(), aggs)?;
    let classification = index.classify(window);
    let state = crate::state::QueryState::from_classification(index, &classification, &attrs)?;
    if attrs.is_empty() {
        // COUNT-only: answered from indexed axis values, no reads.
        return Ok(IoPrediction {
            objects: 0,
            bytes: 0,
        });
    }
    let mut objects = 0u64;
    for c in &state.candidates {
        objects += match (c.kind, config.adapt.read) {
            (CandidateKind::FullBounded, _) => index.tile(c.tile).object_count(),
            (CandidateKind::Partial, ReadPolicy::WindowOnly) => c.selected,
            (CandidateKind::Partial, ReadPolicy::FullTile) => index.tile(c.tile).object_count(),
        };
    }
    let bytes = match file.value_bytes_hint() {
        Some(per_value) => (objects as f64 * attrs.len() as f64 * per_value).ceil() as u64,
        None => {
            // Row-oriented backend: a positional read re-reads the row.
            let rows = index.total_objects().max(1);
            let row_bytes = file.size_bytes() as f64 / rows as f64;
            (objects as f64 * row_bytes).ceil() as u64
        }
    };
    Ok(IoPrediction { objects, bytes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pai_storage::raw::build_block_synopses;
    use pai_storage::SynopsisSpec;

    /// Three 4-row blocks: x striped 0..12, y constant 1, value = 10x.
    fn striped_blocks() -> Vec<BlockSynopsis> {
        let n = 12usize;
        let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let y = vec![1.0; n];
        let v: Vec<f64> = (0..n).map(|i| i as f64 * 10.0).collect();
        build_block_synopses(&[x, y, v], 4, &SynopsisSpec::default())
    }

    fn cfg() -> EngineConfig {
        EngineConfig::default()
    }

    #[test]
    fn covered_window_composes_exact_moments() {
        let blocks = striped_blocks();
        // Window selecting exactly blocks 0 and 1 (x in [0,8), y anything).
        let w = Rect::new(0.0, 8.0, 0.0, 2.0);
        let ans = try_answer(
            &blocks,
            0,
            1,
            &w,
            8,
            &[
                AggregateFunction::Sum(2),
                AggregateFunction::Mean(2),
                AggregateFunction::Min(2),
                AggregateFunction::Max(2),
                AggregateFunction::Count,
            ],
            &cfg(),
            f64::INFINITY,
        )
        .expect("fully covered window answers from synopses");
        assert_eq!(ans.blocks, 2);
        assert!(ans.bytes > 0);
        // Sum 0..7 of 10i = 280; exact point CIs throughout.
        assert_eq!(ans.estimates[0].value, AggregateValue::Float(280.0));
        assert_eq!(ans.estimates[0].ci, Some(Interval::point(280.0)));
        assert_eq!(ans.estimates[1].value, AggregateValue::Float(35.0));
        assert_eq!(ans.estimates[2].value, AggregateValue::Float(0.0));
        assert_eq!(ans.estimates[3].value, AggregateValue::Float(70.0));
        assert_eq!(ans.estimates[4].value, AggregateValue::Count(8));
    }

    #[test]
    fn partial_window_bounds_contain_truth() {
        let blocks = striped_blocks();
        // x in [2, 10): selects rows 2..9 (8 rows), cutting blocks 0 and 2.
        let w = Rect::new(2.0, 10.0, 0.0, 2.0);
        let ans = try_answer(
            &blocks,
            0,
            1,
            &w,
            8,
            &[AggregateFunction::Sum(2), AggregateFunction::Mean(2)],
            &cfg(),
            f64::INFINITY,
        )
        .expect("partial windows still bound");
        // Truth: sum 10*(2+..+9) = 440, mean 55.
        let sum_ci = ans.estimates[0].ci.unwrap();
        assert!(sum_ci.contains(440.0), "sum CI {sum_ci} must contain 440");
        let mean_ci = ans.estimates[1].ci.unwrap();
        assert!(mean_ci.contains(55.0), "mean CI {mean_ci} must contain 55");
    }

    #[test]
    fn exact_count_tightens_partial_intervals() {
        let blocks = striped_blocks();
        let w = Rect::new(2.0, 10.0, 0.0, 2.0);
        // The middle block (rows 4..8) is fully covered (4 rows); the two
        // cut blocks each hold 2 selected rows. With the exact total (8) the
        // count intervals must tighten to sum to 4 across the cut blocks.
        let (covered, partial) = classify_blocks(&blocks, 0, 1, &w, 8).unwrap();
        assert_eq!(covered, vec![1]);
        let total_lo: u64 = partial.iter().map(|p| p.1).sum();
        let total_hi: u64 = partial.iter().map(|p| p.2).sum();
        assert!(total_lo <= 4 && 4 <= total_hi);
        for &(_, lo, hi) in &partial {
            assert!(lo <= 2 && 2 <= hi, "true per-block count is 2");
        }
    }

    #[test]
    fn inconsistent_counts_refuse_to_answer() {
        let blocks = striped_blocks();
        let w = Rect::new(0.0, 8.0, 0.0, 2.0);
        // Claimed selected_total (99) exceeds what the synopses allow.
        let count = [AggregateFunction::Count];
        assert!(try_answer(&blocks, 0, 1, &w, 99, &count, &cfg(), f64::INFINITY).is_none());
    }

    #[test]
    fn empty_selection_mirrors_ci_conventions() {
        let blocks = striped_blocks();
        let w = Rect::new(100.0, 200.0, 100.0, 200.0);
        let ans = try_answer(
            &blocks,
            0,
            1,
            &w,
            0,
            &[AggregateFunction::Sum(2), AggregateFunction::Mean(2)],
            &cfg(),
            f64::INFINITY,
        )
        .unwrap();
        assert_eq!(ans.estimates[0].value, AggregateValue::Float(0.0));
        assert_eq!(ans.estimates[1].value, AggregateValue::Empty);
    }

    #[test]
    fn negative_envelopes_multiply_sign_aware() {
        // One block, values in [-10, -2], 2..=4 of 4 rows selected.
        let x: Vec<f64> = (0..4).map(|i| i as f64).collect();
        let y = vec![0.5; 4];
        let v = vec![-2.0, -10.0, -4.0, -6.0];
        let blocks = build_block_synopses(&[x, y, v], 4, &SynopsisSpec::default());
        let b = &blocks[0];
        let iv = partial_sum_bounds(b, 2, 2, 4).unwrap();
        // lo = 4 * (-10) = -40, hi = 2 * (-2) = -4.
        assert_eq!(iv, Interval::new(-40.0, -4.0));
    }

    #[test]
    fn seeding_installs_hulls_only_where_missing() {
        let blocks = striped_blocks();
        let schema = pai_storage::Schema::synthetic(3);
        let mut idx = ValinorIndex::new(schema, Rect::new(0.0, 12.0, 0.0, 2.0), 2, 1).unwrap();
        assert_eq!(idx.global_bounds(2), None);
        let seeded = seed_missing_global_bounds(&mut idx, &blocks, &[2]);
        assert_eq!(seeded, 1);
        assert_eq!(idx.global_bounds(2), Some(Interval::new(0.0, 110.0)));
        // Second call is a no-op: the envelope exists now.
        assert_eq!(seed_missing_global_bounds(&mut idx, &blocks, &[2]), 0);
        assert_eq!(idx.global_bounds(2), Some(Interval::new(0.0, 110.0)));
    }

    /// [`classify_blocks`] without the envelope skip: every block goes
    /// through `covered_by` / `selected_mass`.
    #[allow(clippy::type_complexity)]
    fn classify_all(
        blocks: &[BlockSynopsis],
        window: &Rect,
        selected_total: u64,
    ) -> Option<(Vec<usize>, Vec<(usize, u64, u64)>)> {
        let (mut covered, mut partial, mut covered_rows) = (Vec::new(), Vec::new(), 0u64);
        for (i, b) in blocks.iter().enumerate() {
            if b.covered_by(0, 1, window) {
                covered_rows += b.rows();
                covered.push(i);
            } else {
                let (lo, hi) = b.selected_mass(0, 1, window);
                if hi > 0 {
                    partial.push((i, lo, hi));
                }
            }
        }
        let remaining = selected_total.checked_sub(covered_rows)?;
        let s_lo: u64 = partial.iter().map(|p: &(usize, u64, u64)| p.1).sum();
        let s_hi: u64 = partial.iter().map(|p| p.2).sum();
        if remaining < s_lo || remaining > s_hi {
            return None;
        }
        for p in partial.iter_mut() {
            let (others_hi, others_lo) = (s_hi - p.2, s_lo - p.1);
            p.1 = p.1.max(remaining.saturating_sub(others_hi));
            p.2 = p.2.min(remaining - others_lo);
        }
        Some((covered, partial))
    }

    /// The accept-all composition: every block classified, every aggregate
    /// composed, then the max bound — what the pass computed before it
    /// learnt to stop early.
    fn accept_all(
        blocks: &[BlockSynopsis],
        window: &Rect,
        selected_total: u64,
        aggs: &[AggregateFunction],
        config: &EngineConfig,
    ) -> Option<SynopsisAnswer> {
        let (covered, partial) = classify_all(blocks, window, selected_total)?;
        let estimates = aggs
            .iter()
            .map(|agg| estimate_one(agg, blocks, &covered, &partial, selected_total, config))
            .collect::<Option<Vec<_>>>()?;
        let bound = estimates
            .iter()
            .map(|e| bound_of(config, e))
            .fold(0.0f64, f64::max);
        let bytes = covered
            .iter()
            .copied()
            .chain(partial.iter().map(|p| p.0))
            .map(|i| blocks[i].approx_bytes())
            .sum();
        Some(SynopsisAnswer {
            estimates,
            bound,
            blocks: (covered.len() + partial.len()) as u64,
            bytes,
        })
    }

    type EstimateBits = (
        std::mem::Discriminant<AggregateValue>,
        Option<u64>,
        Option<(u64, u64)>,
        bool,
    );

    fn bits(e: &AggregateEstimate) -> EstimateBits {
        (
            std::mem::discriminant(&e.value),
            e.value.as_f64().map(f64::to_bits),
            e.ci.map(|c| (c.lo().to_bits(), c.hi().to_bits())),
            e.unbounded,
        )
    }

    fn assert_same(got: &SynopsisAnswer, want: &SynopsisAnswer) {
        let got_bits: Vec<_> = got.estimates.iter().map(bits).collect();
        let want_bits: Vec<_> = want.estimates.iter().map(bits).collect();
        assert_eq!(got_bits, want_bits);
        assert_eq!(got.bound.to_bits(), want.bound.to_bits());
        assert_eq!((got.blocks, got.bytes), (want.blocks, want.bytes));
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// The envelope skip and the stop at the first aggregate over `phi`
        /// change no hit and turn no miss into a hit.
        #[test]
        fn the_early_exit_is_invisible(
            // Per row: x, y, value, and a class that makes one value in ten
            // NULL (NaN).
            rows in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0, -1.0f64..1.0, 0usize..10), 1..160),
            block_rows in 1u32..40,
            constant_block in 0usize..64,
            nan_block in 0usize..64,
            nan_axis in 0usize..2,
            corrupt in 0usize..3,
            window in (-0.2f64..1.2, 0.0f64..1.4, -0.2f64..1.2, 0.0f64..1.4),
            phi_pick in 0usize..6,
            agg_picks in prop::collection::vec(0usize..8, 1..5),
            non_null in any::<bool>(),
        ) {
            // Axes on a 1/16 grid, so values tie and land on bucket edges.
            let grid = |v: f64| (v * 16.0).floor() / 16.0;
            let mut x: Vec<f64> = rows.iter().map(|r| grid(r.0)).collect();
            let y: Vec<f64> = rows.iter().map(|r| grid(r.1)).collect();
            let v: Vec<f64> = rows.iter().map(|r| if r.3 == 0 { f64::NAN } else { r.2 * 100.0 }).collect();
            // One block's x axis is constant.
            let n_blocks = rows.len().div_ceil(block_rows as usize);
            let start = (constant_block % n_blocks) * block_rows as usize;
            for xi in x.iter_mut().skip(start).take(block_rows as usize) {
                *xi = 0.5;
            }
            let (x0, w, y0, h) = window;
            let window = Rect::new(x0, x0 + w, y0, y0 + h);
            let total = x
                .iter()
                .zip(&y)
                .filter(|&(&xi, &yi)| xi >= window.x_min && xi < window.x_max && yi >= window.y_min && yi < window.y_max)
                .count() as u64;
            let spec = SynopsisSpec { buckets: 4, ..SynopsisSpec::default() };
            let mut blocks = build_block_synopses(&[x, y, v], block_rows, &spec);
            // Another block's envelope on one axis is NaN, half NaN or
            // inverted.
            let col = &mut blocks[nan_block % n_blocks].cols[nan_axis];
            (col.min, col.max) = match corrupt {
                0 => (f64::NAN, f64::NAN),
                1 => (f64::NAN, col.max),
                _ => (col.max + 0.25, col.min),
            };

            let all_aggs = [
                AggregateFunction::Count,
                AggregateFunction::Sum(2),
                AggregateFunction::Mean(2),
                AggregateFunction::Min(2),
                AggregateFunction::Max(2),
                AggregateFunction::Variance(2),
                AggregateFunction::StdDev(2),
                AggregateFunction::Sum(0),
            ];
            let aggs: Vec<_> = agg_picks.iter().map(|&i| all_aggs[i]).collect();
            let config = EngineConfig { assume_non_null: non_null, ..EngineConfig::default() };
            let phi = [0.0, 0.01, 0.05, 0.25, 1.0, f64::INFINITY][phi_pick];

            prop_assert_eq!(
                classify_blocks(&blocks, 0, 1, &window, total),
                classify_all(&blocks, &window, total)
            );
            let got = try_answer(&blocks, 0, 1, &window, total, &aggs, &config, phi);
            let want = accept_all(&blocks, &window, total, &aggs, &config);
            prop_assert_eq!(got.is_some(), want.as_ref().is_some_and(|w| w.bound <= phi));
            if let (Some(got), Some(want)) = (&got, &want) {
                assert_same(got, want);
            }

            // A window clear of every block answers COUNT = 0 from no block.
            let away = Rect::new(5.0, 6.0, 5.0, 6.0);
            let count = [AggregateFunction::Count];
            let got = try_answer(&blocks, 0, 1, &away, 0, &count, &config, phi).unwrap();
            assert_same(&got, &accept_all(&blocks, &away, 0, &count, &config).unwrap());
            prop_assert_eq!(got.estimates[0].value, AggregateValue::Count(0));
            prop_assert_eq!(got.estimates[0].ci, Some(Interval::point(0.0)));
            prop_assert_eq!((got.blocks, got.bytes), (0, 0));
        }
    }
}
