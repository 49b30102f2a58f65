//! The second zero-I/O tier: approximate answers from per-block synopses.
//!
//! Zone maps can only *prune* blocks; the per-block synopses behind
//! [`RawFile::block_synopses`] (count/sum/sum-of-squares moments plus an
//! equi-width histogram per column) can *answer*. When the tile index's own
//! metadata answer misses the query's `φ` on the first round, and before any
//! fetch is planned, the engine feeds the blocks to the same rules
//! [`crate::ci`] applies to tiles:
//!
//! * **fully-covered** blocks (envelope provably inside the half-open query
//!   window on both axes, no NULL axis values) fold their moments into the
//!   exact part, like a fully-contained tile with exact metadata;
//! * **partially-covered** blocks are contributions: the histogram mass of
//!   the window's axis ranges brackets the selected count, and the column's
//!   envelope bounds the values.
//!
//! Blocks whose axis envelope provably misses the window are skipped before
//! any histogram is read. The exact selected count (`count(t∩Q)` from
//! indexed axis values) tightens every partial block's count bracket
//! globally: the brackets must sum to the count the index already knows,
//! and the exact remaining count is what a MEAN divides by. A block record
//! no block could hold (file bytes: see [`BlockSynopsis::stats`]) refuses
//! the answer, and so does an axis record of a block the window reaches
//! whose histogram buckets do not add up to its count.
//!
//! The pass stops at the first aggregate whose bound exceeds `φ` or is
//! unbounded. When every one meets it, the answer returns with **zero data
//! I/O** — no fetch planned, no GET issued, `fetch_wall_us == 0` — and the
//! `synopsis_hits`/`synopsis_blocks`/`synopsis_bytes` meters tick; a miss
//! ticks none. Otherwise evaluation falls through to the normal plan →
//! fetch → apply adaptation path unchanged. Independently of any attempt,
//! the synopses seed global attribute bounds for `MetadataPolicy::None`
//! cold starts (see [`seed_missing_global_bounds`]) before the first round
//! classifies.

use pai_common::geometry::Rect;
use pai_common::{AggregateFunction, AttrId, Interval, Result, RunningStats};
use pai_index::eval::query_attrs;
use pai_index::{ReadPolicy, ValinorIndex};
use pai_storage::raw::{BlockSynopsis, RawFile};

use crate::ci::{self, AggregateEstimate, Contribution};
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
/// bounded estimate for some aggregate (a record no block could hold, no
/// certain extremum contribution, or counts inconsistent with the index's
/// exact selected total) or when some aggregate's bound exceeds `phi` — the
/// caller then falls through to the normal adaptation path. The pass stops
/// at the first such aggregate; `phi = f64::INFINITY` composes every one.
pub(crate) fn try_answer(
    blocks: &[BlockSynopsis],
    x_axis: AttrId,
    y_axis: AttrId,
    window: &Rect,
    selected_total: u64,
    aggs: &[AggregateFunction],
    phi: f64,
) -> Option<SynopsisAnswer> {
    let (covered, partial) = classify_blocks(blocks, x_axis, y_axis, window, selected_total)?;
    let mut estimates = Vec::with_capacity(aggs.len());
    let mut bound = 0.0f64;
    for agg in aggs {
        let e = block_estimate(agg, blocks, &covered, &partial, selected_total)?;
        let b = bound_of(&e);
        if e.unbounded || b > phi {
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

/// One aggregate's estimate by [`ci`]'s rules: the covered blocks' moments
/// are the exact part, the partial blocks the contributions, and the exact
/// remaining count is what they select. `None` when a record is unusable.
fn block_estimate(
    agg: &AggregateFunction,
    blocks: &[BlockSynopsis],
    covered: &[usize],
    partial: &[(usize, u64, u64)],
    selected_total: u64,
) -> Option<AggregateEstimate> {
    let Some(a) = agg.attribute() else {
        return Some(AggregateEstimate::count(selected_total));
    };
    let (mut exact, mut covered_rows) = (RunningStats::new(), 0);
    for &i in covered {
        exact.merge(&blocks[i].stats(a)?);
        covered_rows += blocks[i].rows();
    }
    let contributions = partial
        .iter()
        .map(|&(i, lo, hi)| contribution(&blocks[i], a, (lo, hi)));
    let pending = Some(selected_total - covered_rows);
    Some(ci::estimate(
        agg,
        selected_total,
        &exact,
        pending,
        contributions,
    ))
}

/// A partial block's contribution to column `a`: its selected-count
/// bracket, the column's envelope and, when every row holds a value, the
/// block's whole `(rows, sum)`; `None` when the record is unusable.
fn contribution(b: &BlockSynopsis, a: AttrId, count: (u64, u64)) -> Option<Contribution> {
    let s = b.stats(a)?;
    let non_null = s.count() == b.rows();
    Some(Contribution {
        count,
        values: s.range(),
        non_null,
        whole: non_null.then(|| (s.count(), s.sum())),
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
        // An axis record whose buckets do not add up to its count brackets
        // nothing: no answer.
        if !b.cols[x_axis].hist_adds_up() || !b.cols[y_axis].hist_adds_up() {
            return None;
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

/// Seeds global value envelopes for every queried attribute that has none,
/// hulled from the synopses' per-block column envelopes — the
/// `MetadataPolicy::None` cold-start fix — and NULL-free when every block
/// counts a value in each of its rows. Existing envelopes are never
/// touched (see [`ValinorIndex::seed_global_bounds`]), and a record no
/// block could hold seeds nothing. Returns how many attributes were seeded.
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
        if let Some((h, non_null)) = column_hull(blocks, a) {
            if index.seed_global_bounds(a, h, non_null) {
                seeded += 1;
            }
        }
    }
    seeded
}

/// Hull of one column's envelope over every block, and whether every block
/// counts a value in each of its rows; `None` when no block holds a value
/// or some block's record is unusable.
fn column_hull(blocks: &[BlockSynopsis], a: AttrId) -> Option<(Interval, bool)> {
    let mut column = RunningStats::new();
    let mut non_null = true;
    for b in blocks {
        let s = b.stats(a)?;
        column.merge(&s);
        non_null &= s.count() == b.rows();
    }
    Some((column.range()?, non_null))
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
    use pai_common::AggregateValue;
    use pai_storage::raw::{build_block_synopses, ColumnSynopsis};
    use pai_storage::SynopsisSpec;

    /// Three 4-row blocks: x striped 0..12, y constant 1, value = 10x.
    fn striped_blocks() -> Vec<BlockSynopsis> {
        let n = 12usize;
        let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let y = vec![1.0; n];
        let v: Vec<f64> = (0..n).map(|i| i as f64 * 10.0).collect();
        build_block_synopses(&[x, y, v], 4, &SynopsisSpec::default())
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
        assert!(try_answer(&blocks, 0, 1, &w, 99, &count, f64::INFINITY).is_none());
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
        let part = contribution(&blocks[0], 2, (2, 4)).unwrap();
        // The paper's rule alone: lo = 4 * (-10) = -40, hi = 2 * (-2) = -4.
        let paper = Contribution {
            whole: None,
            ..part
        };
        assert_eq!(paper.sum_bounds(), Interval::new(-40.0, -4.0));
        // With the block's whole sum -22: 0..=2 rows unselected add
        // [2 * (-10), 0 * (-2)] = [-20, 0], so the selected sum lies in
        // [-22, -2], widened by the rounding slack; its intersection with
        // the paper's is [-22 - slack, -4].
        let slack = crate::ci::sum_slack(4, 10.0).unwrap();
        assert_eq!(part.whole, Some((4, -22.0)));
        let iv = part.sum_bounds();
        assert_eq!(iv.hi(), -4.0);
        assert!(iv.lo() < -22.0 && iv.lo() >= -22.0 - 2.0 * slack, "{iv}");
    }

    #[test]
    fn mean_divides_by_the_covered_values_and_the_exact_remaining_count() {
        // Value 10x, NULL at row 5: block 1 (rows 4..8) is covered and
        // holds three values; x in [2, 10) cuts blocks 0 and 2, whose
        // values are all there.
        let x: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let mut v: Vec<f64> = (0..12).map(|i| i as f64 * 10.0).collect();
        v[5] = f64::NAN;
        let blocks = build_block_synopses(&[x, vec![1.0; 12], v], 4, &SynopsisSpec::default());
        let w = Rect::new(2.0, 10.0, 0.0, 2.0);
        let aggs = [AggregateFunction::Sum(2), AggregateFunction::Mean(2)];
        let ans = try_answer(&blocks, 0, 1, &w, 8, &aggs, f64::INFINITY).unwrap();
        let (sum, mean) = (ans.estimates[0].ci.unwrap(), ans.estimates[1].ci.unwrap());
        // 3 covered values + the 4 selected rows of the cut blocks.
        assert_eq!(mean, sum.div_scalar(7.0));
        assert!(mean.contains(390.0 / 7.0), "{mean}");
    }

    #[test]
    fn a_record_no_block_could_hold_yields_no_answer() {
        let sum = [AggregateFunction::Sum(2)];
        let count = [AggregateFunction::Count];
        // Covered (block 0 for x < 4) and cut (x in [2, 6)) windows.
        for w in [Rect::new(0.0, 4.0, 0.0, 2.0), Rect::new(2.0, 6.0, 0.0, 2.0)] {
            let total = (w.x_max - w.x_min) as u64;
            assert!(try_answer(&striped_blocks(), 0, 1, &w, total, &sum, f64::INFINITY).is_some());
            for corrupt in [
                |c: &mut ColumnSynopsis| (c.min, c.max) = (c.max, c.min - 1.0),
                |c: &mut ColumnSynopsis| c.max = f64::NAN,
                |c: &mut ColumnSynopsis| c.sum = f64::INFINITY,
                |c: &mut ColumnSynopsis| c.count = 5,
            ] {
                let mut blocks = striped_blocks();
                corrupt(&mut blocks[0].cols[2]);
                assert!(try_answer(&blocks, 0, 1, &w, total, &sum, f64::INFINITY).is_none());
                // COUNT reads no value column.
                assert!(try_answer(&blocks, 0, 1, &w, total, &count, f64::INFINITY).is_some());
            }
        }
    }

    #[test]
    fn an_unbounded_estimate_is_no_answer_even_at_infinite_phi() {
        // Every value of the cut block might be NULL, and nothing is
        // covered: MIN has no certain side.
        let x: Vec<f64> = (0..4).map(|i| i as f64).collect();
        let v = vec![1.0, f64::NAN, 3.0, 4.0];
        let blocks = build_block_synopses(&[x, vec![1.0; 4], v], 4, &SynopsisSpec::default());
        let w = Rect::new(1.0, 3.0, 0.0, 2.0);
        let min = [AggregateFunction::Min(2)];
        assert!(try_answer(&blocks, 0, 1, &w, 2, &min, f64::INFINITY).is_none());
        let sum = [AggregateFunction::Sum(2)];
        assert!(try_answer(&blocks, 0, 1, &w, 2, &sum, f64::INFINITY).is_some());
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
        assert!(idx.global_meta(2).unwrap().certainly_non_null());
        // Second call is a no-op: the envelope exists now.
        assert_eq!(seed_missing_global_bounds(&mut idx, &blocks, &[2]), 0);
        assert_eq!(idx.global_bounds(2), Some(Interval::new(0.0, 110.0)));

        // One block counts a NULL: the seeded envelope certifies nothing.
        let x: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let mut v: Vec<f64> = (0..12).map(|i| i as f64 * 10.0).collect();
        v[5] = f64::NAN;
        let with_null = build_block_synopses(&[x, vec![1.0; 12], v], 4, &SynopsisSpec::default());
        let schema = pai_storage::Schema::synthetic(3);
        let mut idx = ValinorIndex::new(schema, Rect::new(0.0, 12.0, 0.0, 2.0), 2, 1).unwrap();
        assert_eq!(seed_missing_global_bounds(&mut idx, &with_null, &[2]), 1);
        assert!(!idx.global_meta(2).unwrap().certainly_non_null());
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
    ) -> Option<SynopsisAnswer> {
        let (covered, partial) = classify_all(blocks, window, selected_total)?;
        let estimates = aggs
            .iter()
            .map(|agg| block_estimate(agg, blocks, &covered, &partial, selected_total))
            .collect::<Option<Vec<_>>>()?;
        if estimates.iter().any(|e| e.unbounded) {
            return None;
        }
        let bound = estimates.iter().map(bound_of).fold(0.0f64, f64::max);
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
            let spec = SynopsisSpec { buckets: 4 };
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
            let phi = [0.0, 0.01, 0.05, 0.25, 1.0, f64::INFINITY][phi_pick];

            prop_assert_eq!(
                classify_blocks(&blocks, 0, 1, &window, total),
                classify_all(&blocks, &window, total)
            );
            let got = try_answer(&blocks, 0, 1, &window, total, &aggs, phi);
            let want = accept_all(&blocks, &window, total, &aggs);
            prop_assert_eq!(got.is_some(), want.as_ref().is_some_and(|w| w.bound <= phi));
            if let (Some(got), Some(want)) = (&got, &want) {
                assert_same(got, want);
            }

            // A window clear of every block answers COUNT = 0 from no block.
            let away = Rect::new(5.0, 6.0, 5.0, 6.0);
            let count = [AggregateFunction::Count];
            let got = try_answer(&blocks, 0, 1, &away, 0, &count, phi).unwrap();
            assert_same(&got, &accept_all(&blocks, &away, 0, &count).unwrap());
            prop_assert_eq!(got.estimates[0].value, AggregateValue::Count(0));
            prop_assert_eq!(got.estimates[0].ci, Some(Interval::point(0.0)));
            prop_assert_eq!((got.blocks, got.bytes), (0, 0));
        }
    }

    /// [`block_estimate`] under the paper's rule alone: no partial block
    /// knows its whole `(rows, sum)`.
    fn paper_block_estimate(
        agg: &AggregateFunction,
        blocks: &[BlockSynopsis],
        covered: &[usize],
        partial: &[(usize, u64, u64)],
        selected_total: u64,
    ) -> Option<AggregateEstimate> {
        let Some(a) = agg.attribute() else {
            return Some(AggregateEstimate::count(selected_total));
        };
        let (mut exact, mut covered_rows) = (RunningStats::new(), 0);
        for &i in covered {
            exact.merge(&blocks[i].stats(a)?);
            covered_rows += blocks[i].rows();
        }
        let contributions = partial.iter().map(|&(i, lo, hi)| {
            contribution(&blocks[i], a, (lo, hi)).map(|c| Contribution { whole: None, ..c })
        });
        let pending = Some(selected_total - covered_rows);
        Some(ci::estimate(
            agg,
            selected_total,
            &exact,
            pending,
            contributions,
        ))
    }

    /// [`accept_all`] under the paper's rule alone.
    fn paper_accept_all(
        blocks: &[BlockSynopsis],
        window: &Rect,
        selected_total: u64,
        aggs: &[AggregateFunction],
    ) -> Option<SynopsisAnswer> {
        let (covered, partial) = classify_all(blocks, window, selected_total)?;
        let estimates = aggs
            .iter()
            .map(|agg| paper_block_estimate(agg, blocks, &covered, &partial, selected_total))
            .collect::<Option<Vec<_>>>()?;
        if estimates.iter().any(|e| e.unbounded) {
            return None;
        }
        let bound = estimates.iter().map(bound_of).fold(0.0f64, f64::max);
        Some(SynopsisAnswer {
            estimates,
            bound,
            blocks: (covered.len() + partial.len()) as u64,
            bytes: 0,
        })
    }

    /// Folds one answer (or its absence) into an FNV-1a hash: values, CIs,
    /// unbounded flags, bound and block count (not the bytes meter).
    fn fnv_answer(h: &mut u64, answer: Option<&SynopsisAnswer>) {
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                *h = (*h ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
        };
        let Some(a) = answer else {
            eat(0);
            return;
        };
        eat(1);
        eat(a.bound.to_bits());
        eat(a.blocks);
        for e in &a.estimates {
            match e.value {
                AggregateValue::Count(c) => (eat(1), eat(c)),
                AggregateValue::Float(f) => (eat(2), eat(f.to_bits())),
                AggregateValue::Empty => (eat(3), ()),
            };
            match e.ci {
                Some(c) => (eat(c.lo().to_bits()), eat(c.hi().to_bits())),
                None => (eat(4), ()),
            };
            eat(e.unbounded as u64);
        }
    }

    /// FNV-1a over the bits of every answer over seeded NULL-free block
    /// sets × windows × each of the seven aggregates alone and all seven
    /// together, at two `phi`. Two pins: the paper's rule alone still
    /// hashes to the value pinned where the tier composed its own copy of
    /// the aggregate formulas, and the answers with the complement rule in
    /// hash to their own. Every CI of the second lies inside the first's.
    #[test]
    fn null_free_answers_did_not_move() {
        use pai_common::geometry::Point2;
        use AggregateFunction::*;
        const AGGS: [AggregateFunction; 7] = [
            Count,
            Sum(2),
            Mean(2),
            Min(2),
            Max(2),
            Variance(2),
            StdDev(2),
        ];
        let (mut paper_hash, mut hash) = (0xcbf2_9ce4_8422_2325u64, 0xcbf2_9ce4_8422_2325u64);
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut tightened = 0;
        for set in 0..12usize {
            let n = 40 + 37 * set;
            // Even sets stripe x with the row, so whole blocks fall inside
            // a window; odd sets scatter it.
            let x: Vec<f64> = (0..n)
                .map(|i| match set % 2 {
                    0 => (i as f64 + next()) / n as f64,
                    _ => next(),
                })
                .collect();
            let y: Vec<f64> = (0..n).map(|_| next()).collect();
            let v: Vec<f64> = (0..n).map(|_| (next() - 0.3) * 200.0).collect();
            let spec = SynopsisSpec {
                buckets: [4, 8, 16][set % 3],
            };
            let block_rows = [5, 8, 16, 33][set % 4];
            let blocks = build_block_synopses(&[x.clone(), y.clone(), v], block_rows, &spec);
            for w in 0..10 {
                let window = match w {
                    0 => Rect::new(0.0, 1.0, 0.0, 1.0),
                    1 => Rect::new(2.0, 3.0, 2.0, 3.0),
                    _ => {
                        let (x0, y0) = (next() * 0.8 - 0.1, next() * 0.6 - 0.1);
                        Rect::new(x0, x0 + 0.05 + next() * 0.6, y0, y0 + 0.3 + next() * 0.8)
                    }
                };
                let total = x
                    .iter()
                    .zip(&y)
                    .filter(|&(&xi, &yi)| window.contains_point(Point2::new(xi, yi)))
                    .count() as u64;
                for phi in [f64::INFINITY, 0.05] {
                    for aggs in AGGS.chunks(1).chain([&AGGS[..]]) {
                        let paper = paper_accept_all(&blocks, &window, total, aggs);
                        let got = try_answer(&blocks, 0, 1, &window, total, aggs, phi);
                        fnv_answer(&mut paper_hash, paper.as_ref().filter(|p| p.bound <= phi));
                        fnv_answer(&mut hash, got.as_ref());
                        let Some(got) = got else { continue };
                        let paper = paper.expect("the paper's rule bounds what the two rules do");
                        for (e, p) in got.estimates.iter().zip(&paper.estimates) {
                            let (Some(ci), Some(paper_ci)) = (e.ci, p.ci) else {
                                assert_eq!((e.ci, e.value), (None, AggregateValue::Empty));
                                assert_eq!((p.ci, p.value), (None, AggregateValue::Empty));
                                continue;
                            };
                            assert!(paper_ci.contains_interval(&ci), "{ci} outside {paper_ci}");
                            tightened += usize::from(ci.width() < paper_ci.width());
                        }
                    }
                }
            }
        }
        assert_eq!(paper_hash, 0x94f8_8d9a_06d5_571c);
        assert_eq!(hash, 0x8161_9934_adc8_86c6);
        assert!(tightened > 0, "the complement rule tightened no CI");
    }
}
