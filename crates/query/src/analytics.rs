//! Visual-analytics operations of the exploration model (§2.1): heatmaps,
//! histograms, statistics, and filtered aggregation.
//!
//! Two evaluation styles coexist here:
//!
//! * **metadata-only** ([`heatmap`]) — answers straight from the index with
//!   per-cell confidence intervals and *zero* file I/O, the natural fit for
//!   overview visualizations;
//! * **exact read-through** ([`filtered_aggregate`], [`histogram`],
//!   [`pearson`]) — prunes with the index, then reads the selected objects'
//!   values. This is the path that supports non-axis filters, which the
//!   AQP engine deliberately rejects.

use pai_common::geometry::Rect;
use pai_common::{
    AggregateFunction, AggregateValue, AttrId, Interval, PaiError, Result, RowLocator, RunningStats,
};
use pai_core::ci::estimate_aggregate;
use pai_core::state::QueryState;
use pai_index::ValinorIndex;
use pai_storage::raw::RawFile;

use crate::query::WindowQuery;

/// One cell of an approximate heatmap.
#[derive(Debug, Clone)]
pub struct HeatCell {
    pub rect: Rect,
    /// Objects in the cell (exact; axis values live in the index).
    pub count: u64,
    /// Estimated aggregate value (`None` for empty cells).
    pub estimate: Option<f64>,
    /// Confidence interval for the estimate (`None` when empty or
    /// unbounded).
    pub ci: Option<Interval>,
}

/// Computes an `nx × ny` heatmap of `agg` over `window` using metadata
/// only — no file reads, no adaptation. Cells carry deterministic intervals
/// so a UI can render uncertainty (e.g. desaturate wide-interval cells).
pub fn heatmap(
    index: &ValinorIndex,
    window: &Rect,
    nx: usize,
    ny: usize,
    agg: AggregateFunction,
) -> Result<Vec<HeatCell>> {
    if nx == 0 || ny == 0 {
        return Err(PaiError::config("heatmap grid must be at least 1x1"));
    }
    let attrs: Vec<AttrId> = agg.attribute().into_iter().collect();
    if let Some(a) = agg.attribute() {
        index.schema().require_numeric(a)?;
        if index.schema().is_axis(a) {
            return Err(PaiError::unsupported("heatmap over an axis column"));
        }
    }
    let mut cells = Vec::with_capacity(nx * ny);
    for rect in window.split_grid(ny, nx) {
        let classification = index.classify(&rect);
        let state = QueryState::from_classification(index, &classification, &attrs)?;
        let est = estimate_aggregate(&agg, &state);
        cells.push(HeatCell {
            rect,
            count: classification.selected_total,
            estimate: est.value.as_f64(),
            ci: est.ci,
        });
    }
    Ok(cells)
}

/// Raw-file locators of every object inside `window`, gathered via the
/// index.
fn selected_locators(index: &ValinorIndex, window: &Rect) -> Vec<RowLocator> {
    let mut locators = Vec::new();
    for id in index.leaves_overlapping(window) {
        let tile = index.tile(id);
        if window.contains_rect(&tile.rect) {
            locators.extend(tile.entries().iter().map(|e| e.locator));
        } else {
            locators.extend(tile.selected_locators(window));
        }
    }
    locators
}

/// Exact evaluation of a (possibly filtered) window query by reading the
/// selected objects' values. Uses the index purely for pruning; performs no
/// adaptation.
pub fn filtered_aggregate(
    index: &ValinorIndex,
    file: &dyn RawFile,
    query: &WindowQuery,
) -> Result<Vec<AggregateValue>> {
    query.validate(index.schema(), true)?;
    let attrs = query.attrs();
    let locators = selected_locators(index, &query.window);
    let values = file.read_rows(&locators, &attrs)?;

    let filter_pos: Vec<(usize, crate::query::Filter)> = query
        .filters
        .iter()
        .map(|f| {
            let pos = attrs.iter().position(|&a| a == f.attr).expect("collected");
            (pos, *f)
        })
        .collect();

    let mut selected = 0u64;
    let mut stats = vec![RunningStats::new(); attrs.len()];
    for row in values.iter() {
        if filter_pos.iter().all(|(pos, f)| f.accepts(row[*pos])) {
            selected += 1;
            for (s, &v) in stats.iter_mut().zip(row.iter()) {
                s.push(v);
            }
        }
    }
    Ok(pai_index::eval::finalize_aggregates(
        &query.aggs,
        &attrs,
        &stats,
        selected,
    ))
}

/// An equi-width histogram of an attribute over the selected objects.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// `bins + 1` edges; bin `i` covers `[edges[i], edges[i+1])`, with the
    /// last bin closed on both sides.
    pub edges: Vec<f64>,
    pub counts: Vec<u64>,
    /// Values outside the requested range (only when a range was given).
    pub out_of_range: u64,
}

/// Builds a histogram of `attr` within `window` (exact; reads the file).
/// `range` defaults to the observed min/max of the selected values.
pub fn histogram(
    index: &ValinorIndex,
    file: &dyn RawFile,
    window: &Rect,
    attr: AttrId,
    bins: usize,
    range: Option<Interval>,
) -> Result<Histogram> {
    if bins == 0 {
        return Err(PaiError::config("histogram needs at least one bin"));
    }
    index.schema().require_numeric(attr)?;
    let locators = selected_locators(index, window);
    let rows = file.read_rows(&locators, &[attr])?;
    let vals: Vec<f64> = rows
        .values()
        .iter()
        .copied()
        .filter(|v| !v.is_nan())
        .collect();

    let range = match range {
        Some(r) => r,
        None => {
            let s = RunningStats::from_values(&vals);
            match s.range() {
                Some(r) if r.width() > 0.0 => r,
                Some(r) => Interval::new(r.lo(), r.lo() + 1.0), // constant data
                None => Interval::new(0.0, 1.0),                // empty selection
            }
        }
    };
    let lo = range.lo();
    let width = range.width().max(f64::MIN_POSITIVE);
    let mut counts = vec![0u64; bins];
    let mut out_of_range = 0u64;
    for v in vals {
        if !range.contains(v) {
            out_of_range += 1;
            continue;
        }
        let i = (((v - lo) / width) * bins as f64) as usize;
        counts[i.min(bins - 1)] += 1;
    }
    let edges = (0..=bins)
        .map(|i| lo + width * i as f64 / bins as f64)
        .collect();
    Ok(Histogram {
        edges,
        counts,
        out_of_range,
    })
}

/// Pearson correlation between two non-axis attributes over the selected
/// objects (exact; reads the file). `None` when fewer than two objects or a
/// zero-variance attribute make it undefined.
pub fn pearson(
    index: &ValinorIndex,
    file: &dyn RawFile,
    window: &Rect,
    attr_a: AttrId,
    attr_b: AttrId,
) -> Result<Option<f64>> {
    index.schema().require_numeric(attr_a)?;
    index.schema().require_numeric(attr_b)?;
    let locators = selected_locators(index, window);
    let rows = file.read_rows(&locators, &[attr_a, attr_b])?;

    let mut n = 0u64;
    let (mut sa, mut sb, mut saa, mut sbb, mut sab) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for r in rows.iter() {
        let (a, b) = (r[0], r[1]);
        if a.is_nan() || b.is_nan() {
            continue;
        }
        n += 1;
        sa += a;
        sb += b;
        saa += a * a;
        sbb += b * b;
        sab += a * b;
    }
    if n < 2 {
        return Ok(None);
    }
    let nf = n as f64;
    let cov = sab / nf - (sa / nf) * (sb / nf);
    let va = (saa / nf - (sa / nf).powi(2)).max(0.0);
    let vb = (sbb / nf - (sb / nf).powi(2)).max(0.0);
    if va <= 0.0 || vb <= 0.0 {
        return Ok(None);
    }
    Ok(Some(cov / (va.sqrt() * vb.sqrt())))
}

/// Exact summary statistics (count/sum/mean/min/max/stddev) of an attribute
/// within `window` (reads the file; used for "view object details" panels).
pub fn summary(
    index: &ValinorIndex,
    file: &dyn RawFile,
    window: &Rect,
    attr: AttrId,
) -> Result<RunningStats> {
    index.schema().require_numeric(attr)?;
    let locators = selected_locators(index, window);
    let rows = file.read_rows(&locators, &[attr])?;
    Ok(RunningStats::from_values(rows.values()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Filter;
    use pai_common::geometry::Point2;
    use pai_index::init::{build, GridSpec, InitConfig};
    use pai_index::MetadataPolicy;
    use pai_storage::ground_truth::window_truth;
    use pai_storage::{CsvFormat, DatasetSpec, MemFile};

    fn setup(rows: u64) -> (MemFile, DatasetSpec, ValinorIndex) {
        let spec = DatasetSpec {
            rows,
            columns: 4,
            seed: 12,
            ..Default::default()
        };
        let file = spec.build_mem(CsvFormat::default()).unwrap();
        let init = InitConfig {
            grid: GridSpec::Fixed { nx: 6, ny: 6 },
            domain: Some(spec.domain),
            metadata: MetadataPolicy::AllNumeric,
        };
        let (idx, _) = build(&file, &init).unwrap();
        (file, spec, idx)
    }

    #[test]
    fn heatmap_counts_match_truth_and_need_no_io() {
        let (file, spec, idx) = setup(2000);
        file.counters().reset();
        let window = spec.domain;
        let cells = heatmap(&idx, &window, 4, 4, AggregateFunction::Mean(2)).unwrap();
        assert_eq!(cells.len(), 16);
        assert_eq!(file.counters().objects_read(), 0, "metadata-only");
        let total: u64 = cells.iter().map(|c| c.count).sum();
        assert_eq!(total, 2000);
        for c in &cells {
            if c.count > 0 {
                let (est, ci) = (c.estimate.unwrap(), c.ci.unwrap());
                assert!(ci.contains(est));
                let truth = window_truth(&file, &c.rect, &[2]).unwrap();
                assert!(
                    ci.contains(truth[0].stats.mean().unwrap()),
                    "cell {} truth outside CI {ci}",
                    c.rect
                );
            }
        }
    }

    #[test]
    fn heatmap_rejects_bad_args() {
        let (_, spec, idx) = setup(100);
        assert!(heatmap(&idx, &spec.domain, 0, 3, AggregateFunction::Count).is_err());
        assert!(heatmap(&idx, &spec.domain, 2, 2, AggregateFunction::Sum(0)).is_err());
    }

    #[test]
    fn filtered_aggregate_matches_manual_filtering() {
        let (file, _spec, idx) = setup(1500);
        let window = Rect::new(200.0, 800.0, 200.0, 800.0);
        let q = WindowQuery::new(
            window,
            vec![AggregateFunction::Count, AggregateFunction::Mean(2)],
        )
        .with_filter(Filter::new(3, 30.0, 70.0));
        let vals = filtered_aggregate(&idx, &file, &q).unwrap();

        // Manual truth: scan, filter, fold.
        let mut count = 0u64;
        let mut mean_stats = RunningStats::new();
        file.scan(&mut |_, _, rec| {
            let p = Point2::new(rec.f64(0)?, rec.f64(1)?);
            let v3 = rec.f64(3)?;
            if window.contains_point(p) && (30.0..=70.0).contains(&v3) {
                count += 1;
                mean_stats.push(rec.f64(2)?);
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(vals[0], AggregateValue::Count(count));
        let got = vals[1].as_f64().unwrap();
        let want = mean_stats.mean().unwrap();
        assert!((got - want).abs() < 1e-9, "{got} vs {want}");
    }

    #[test]
    fn unfiltered_filtered_aggregate_matches_ground_truth() {
        let (file, _, idx) = setup(1000);
        let window = Rect::new(100.0, 700.0, 100.0, 700.0);
        let q = WindowQuery::new(window, vec![AggregateFunction::Sum(2)]);
        let vals = filtered_aggregate(&idx, &file, &q).unwrap();
        let truth = window_truth(&file, &window, &[2]).unwrap();
        let got = vals[0].as_f64().unwrap();
        assert!((got - truth[0].stats.sum()).abs() < 1e-6 * (1.0 + got.abs()));
    }

    #[test]
    fn histogram_bins_and_range() {
        let (file, _, idx) = setup(1200);
        let window = Rect::new(0.0, 1000.0, 0.0, 1000.0);
        let h = histogram(&idx, &file, &window, 2, 10, None).unwrap();
        assert_eq!(h.counts.len(), 10);
        assert_eq!(h.edges.len(), 11);
        assert_eq!(h.out_of_range, 0);
        let total: u64 = h.counts.iter().sum();
        assert_eq!(total, 1200);
        // Explicit narrow range: some values fall outside.
        let narrow =
            histogram(&idx, &file, &window, 2, 4, Some(Interval::new(45.0, 55.0))).unwrap();
        assert!(narrow.out_of_range > 0);
        assert_eq!(
            narrow.counts.iter().sum::<u64>() + narrow.out_of_range,
            1200
        );
    }

    #[test]
    fn histogram_empty_window() {
        let (file, _, idx) = setup(200);
        let h = histogram(
            &idx,
            &file,
            &Rect::new(-10.0, -5.0, -10.0, -5.0),
            2,
            5,
            None,
        )
        .unwrap();
        assert_eq!(h.counts.iter().sum::<u64>(), 0);
    }

    #[test]
    fn pearson_detects_correlation() {
        // Hand-built file: col3 = 2*col2 (perfect correlation), col2 values
        // spread; schema synthetic(4).
        let rows: Vec<Vec<f64>> = (0..100)
            .map(|i| {
                let v = i as f64;
                vec![v * 10.0 % 1000.0, (v * 7.0) % 1000.0, v, 2.0 * v]
            })
            .collect();
        let file = MemFile::from_rows(
            pai_storage::Schema::synthetic(4),
            CsvFormat::default(),
            rows,
        )
        .unwrap();
        let init = InitConfig {
            grid: GridSpec::Fixed { nx: 3, ny: 3 },
            domain: Some(Rect::new(0.0, 1000.0, 0.0, 1000.0)),
            metadata: MetadataPolicy::AllNumeric,
        };
        let (idx, _) = build(&file, &init).unwrap();
        let window = Rect::new(0.0, 1000.0, 0.0, 1000.0);
        let r = pearson(&idx, &file, &window, 2, 3).unwrap().unwrap();
        assert!((r - 1.0).abs() < 1e-9, "perfect correlation, got {r}");
        // Constant attribute -> undefined.
        let rows2: Vec<Vec<f64>> = (0..10)
            .map(|i| vec![i as f64, 0.0, 5.0, i as f64])
            .collect();
        let file2 = MemFile::from_rows(
            pai_storage::Schema::synthetic(4),
            CsvFormat::default(),
            rows2,
        )
        .unwrap();
        let (idx2, _) = build(
            &file2,
            &InitConfig {
                grid: GridSpec::Fixed { nx: 2, ny: 2 },
                domain: Some(Rect::new(0.0, 10.0, 0.0, 1.0)),
                metadata: MetadataPolicy::AllNumeric,
            },
        )
        .unwrap();
        assert_eq!(
            pearson(&idx2, &file2, &Rect::new(0.0, 10.0, 0.0, 1.0), 2, 3).unwrap(),
            None
        );
    }

    #[test]
    fn summary_matches_truth() {
        let (file, _, idx) = setup(800);
        let window = Rect::new(100.0, 900.0, 100.0, 900.0);
        let s = summary(&idx, &file, &window, 3).unwrap();
        let truth = window_truth(&file, &window, &[3]).unwrap();
        assert_eq!(s.count(), truth[0].stats.count());
        assert_eq!(s.min(), truth[0].stats.min());
        assert_eq!(s.max(), truth[0].stats.max());
    }
}
