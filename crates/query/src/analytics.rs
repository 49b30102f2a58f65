//! Visual-analytics operations of the exploration model (§2.1).
//!
//! [`heatmap`] answers straight from the index, with a deterministic
//! confidence interval per cell and *zero* file I/O: the natural fit for
//! overview visualizations. A window aggregate within an accuracy
//! constraint goes through the engine (`ApproximateEngine::evaluate`, or an
//! [`crate::ExplorationSession`]).

use pai_common::geometry::Rect;
use pai_common::{AggregateFunction, Interval, PaiError, Result};
use pai_core::ci::estimate_aggregate;
use pai_core::state::QueryState;
use pai_index::eval::query_attrs;
use pai_index::ValinorIndex;

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
    let attrs = query_attrs(index.schema(), &[agg])?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use pai_index::init::{build, GridSpec, InitConfig};
    use pai_index::MetadataPolicy;
    use pai_storage::ground_truth::window_truth;
    use pai_storage::{CsvFormat, DatasetSpec, MemFile, RawFile};

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
}
