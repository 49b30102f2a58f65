//! Full-scan exact evaluation, the oracle against which both methods are
//! validated.
//!
//! This deliberately bypasses every index structure: it reads the whole file
//! and folds the selected rows into [`RunningStats`]. Tests use it to check
//! (a) the exact method returns identical answers and (b) the approximate
//! engine's confidence intervals really contain the truth.

use pai_common::geometry::{Point2, Rect};
use pai_common::{AttrId, Result, RunningStats};

use crate::raw::{RawFile, ScanBatch, ScanRequest};

/// Exact statistics of one attribute over the objects inside a window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowTruth {
    /// Objects inside the window (regardless of attribute NaNs).
    pub selected: u64,
    /// Running stats of the attribute over the selected objects.
    pub stats: RunningStats,
}

/// Computes exact per-attribute statistics for all objects whose axis values
/// fall inside `window`, by scanning the file — with the window pushed down,
/// so zone-mapped backends skip blocks their envelopes prove irrelevant.
/// The per-record containment check stays exact either way (block skipping
/// is a superset filter).
///
/// Returns one [`WindowTruth`] per requested attribute (same order). The
/// `selected` count is identical across entries; it is repeated for
/// convenience.
pub fn window_truth(
    file: &dyn RawFile,
    window: &Rect,
    attrs: &[AttrId],
) -> Result<Vec<WindowTruth>> {
    let schema = file.schema();
    for &a in attrs {
        schema.require_numeric(a)?;
    }
    let mut selected = 0u64;
    let mut stats = vec![RunningStats::new(); attrs.len()];
    scan_window(file, window, attrs, |batch, i| {
        selected += 1;
        for (k, s) in stats.iter_mut().enumerate() {
            s.push(batch.column(k + 2)[i]);
        }
    })?;
    Ok(stats
        .into_iter()
        .map(|stats| WindowTruth { selected, stats })
        .collect())
}

/// Exact number of objects inside `window` (window pushed down, like
/// [`window_truth`]).
pub fn window_count(file: &dyn RawFile, window: &Rect) -> Result<u64> {
    let mut selected = 0u64;
    scan_window(file, window, &[], |_, _| selected += 1)?;
    Ok(selected)
}

/// Scans `file` with `window` pushed down, decoding the axes then `attrs`,
/// and calls `selected(batch, i)` for every row `i` inside the window.
fn scan_window(
    file: &dyn RawFile,
    window: &Rect,
    attrs: &[AttrId],
    mut selected: impl FnMut(&ScanBatch<'_>, usize),
) -> Result<()> {
    let schema = file.schema();
    let wanted: Vec<AttrId> = [schema.x_axis(), schema.y_axis()]
        .into_iter()
        .chain(attrs.iter().copied())
        .collect();
    let request = ScanRequest {
        window: Some(window),
        ..ScanRequest::whole(&wanted)
    };
    file.scan_batches(&request, &mut |batch| {
        let (xs, ys) = (batch.column(0), batch.column(1));
        for (i, (&x, &y)) in xs.iter().zip(ys).enumerate() {
            if window.contains_point(Point2::new(x, y)) {
                selected(batch, i);
            }
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::CsvFormat;
    use crate::raw::MemFile;
    use crate::schema::Schema;

    fn grid_file() -> MemFile {
        // 4 points at known locations with col2 = 10*x + y.
        let rows = vec![
            vec![0.0, 0.0, 0.0],
            vec![1.0, 0.0, 10.0],
            vec![0.0, 1.0, 1.0],
            vec![1.0, 1.0, 11.0],
        ];
        MemFile::from_rows(Schema::synthetic(3), CsvFormat::default(), rows).unwrap()
    }

    #[test]
    fn truth_over_full_domain() {
        let f = grid_file();
        let t = window_truth(&f, &Rect::new(-1.0, 2.0, -1.0, 2.0), &[2]).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].selected, 4);
        assert_eq!(t[0].stats.sum(), 22.0);
        assert_eq!(t[0].stats.min(), Some(0.0));
        assert_eq!(t[0].stats.max(), Some(11.0));
    }

    #[test]
    fn truth_over_partial_window() {
        let f = grid_file();
        // Half-open: window [0.5, 1.5) x [-0.5, 0.5) catches only (1, 0).
        let t = window_truth(&f, &Rect::new(0.5, 1.5, -0.5, 0.5), &[2]).unwrap();
        assert_eq!(t[0].selected, 1);
        assert_eq!(t[0].stats.sum(), 10.0);
    }

    #[test]
    fn empty_window() {
        let f = grid_file();
        let t = window_truth(&f, &Rect::new(5.0, 6.0, 5.0, 6.0), &[2]).unwrap();
        assert_eq!(t[0].selected, 0);
        assert!(t[0].stats.is_empty());
        assert_eq!(window_count(&f, &Rect::new(5.0, 6.0, 5.0, 6.0)).unwrap(), 0);
    }

    #[test]
    fn multiple_attrs_share_selection() {
        let rows = vec![vec![0.0, 0.0, 1.0, 100.0], vec![0.5, 0.5, 2.0, 200.0]];
        let f = MemFile::from_rows(Schema::synthetic(4), CsvFormat::default(), rows).unwrap();
        let t = window_truth(&f, &Rect::new(0.0, 1.0, 0.0, 1.0), &[2, 3]).unwrap();
        assert_eq!(t[0].selected, 2);
        assert_eq!(t[1].selected, 2);
        assert_eq!(t[0].stats.sum(), 3.0);
        assert_eq!(t[1].stats.sum(), 300.0);
    }

    #[test]
    fn rejects_non_numeric_attr() {
        use crate::schema::Column;
        let schema = Schema::new(
            vec![Column::float("x"), Column::float("y"), Column::text("t")],
            0,
            1,
        )
        .unwrap();
        let f = MemFile::from_text("x,y,t\n1,1,hi\n", schema, CsvFormat::default());
        assert!(window_truth(&f, &Rect::new(0.0, 2.0, 0.0, 2.0), &[2]).is_err());
    }

    #[test]
    fn count_matches_truth() {
        let f = grid_file();
        let w = Rect::new(-0.5, 1.5, -0.5, 0.5);
        let c = window_count(&f, &w).unwrap();
        let t = window_truth(&f, &w, &[2]).unwrap();
        assert_eq!(c, t[0].selected);
        assert_eq!(c, 2);
    }
}
