//! The flat row batch, and cross-tile batched positional reads into it.
//!
//! Positional reads produce a [`RowBatch`]: the values of every requested
//! row, row-major, in one allocation the caller owns and hands to read after
//! read — a query's tiles reuse one buffer instead of allocating a `Vec` per
//! object. Consumers borrow runs of its rows as plain `&[f64]`.
//!
//! The adaptation pipeline processes a *batch* of tiles per iteration; each
//! tile contributes a group of [`RowLocator`]s it needs values for. One read
//! per tile would sort and merge only its own locators; [`read_row_groups`]
//! concatenates all groups into **one** call, so adjacent rows from
//! *different* tiles share runs and block reads, and returns where each
//! group's rows start — nothing is re-associated by key or re-sliced. How a
//! backend spends the machine's threads on that one call is its own business
//! (the CSV reader parses a long request in parts, `scan::read_rows`).

use std::ops::Range;

use pai_common::geometry::Rect;
use pai_common::{AttrId, Result, RowLocator};

use crate::raw::RawFile;

/// The values of a positional read: `len` rows of `width` values each,
/// row-major in one allocation. A zero-width batch (no attributes asked
/// for) still has its rows.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RowBatch {
    width: usize,
    len: usize,
    values: Vec<f64>,
}

impl RowBatch {
    /// Makes this `len` zeroed rows of `width` values, keeping the
    /// allocation, and lends them to be filled in place — how every backend
    /// starts a read.
    pub fn reset(&mut self, width: usize, len: usize) -> &mut [f64] {
        self.width = width;
        self.len = len;
        self.values.clear();
        self.values.resize(width * len, 0.0);
        &mut self.values
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Values per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Every value, row after row.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The values of the rows in `range`, row after row — what the
    /// plan/apply stages consume, one run per plan.
    pub fn rows(&self, range: Range<usize>) -> &[f64] {
        assert!(range.end <= self.len, "rows {range:?} of {}", self.len);
        &self.values[range.start * self.width..range.end * self.width]
    }

    /// Row `i`.
    pub fn row(&self, i: usize) -> &[f64] {
        self.rows(i..i + 1)
    }

    /// The rows in order.
    pub fn iter(&self) -> impl Iterator<Item = &[f64]> {
        (0..self.len).map(|i| self.row(i))
    }
}

/// Reads several locator groups into `out` with one coalesced read.
///
/// The groups' rows land back to back, each aligned with its group's
/// locators in order — exactly what a read per group would have produced.
/// Returns where each group starts in `out`, plus the total as a final
/// entry: group `g` is rows `starts[g]..starts[g + 1]`.
///
/// With no `attrs` to read (a COUNT-only query answers from in-index axis
/// values alone) the rows are zero-width and no I/O is charged.
///
/// `window` is the active query window, pushed down to the backend
/// ([`RawFile::read_rows_into`]): zone-mapped backends may answer rows in
/// blocks provably disjoint from it with NaN instead of touching storage.
/// Pass `Some` only when every caller-side consumer ignores the values of
/// out-of-window rows (the engine's window-only read policy does); pass
/// `None` to force a plain fetch.
pub fn read_row_groups(
    file: &dyn RawFile,
    groups: &[&[RowLocator]],
    attrs: &[AttrId],
    window: Option<&Rect>,
    out: &mut RowBatch,
) -> Result<Vec<usize>> {
    let mut starts = Vec::with_capacity(groups.len() + 1);
    let mut total = 0;
    for g in groups {
        starts.push(total);
        total += g.len();
    }
    starts.push(total);
    if attrs.is_empty() {
        out.reset(0, total);
        return Ok(starts);
    }
    // A lone group (every tile-at-a-time read) is the request as it is.
    let joined;
    let locators = match groups {
        [only] => *only,
        _ => {
            joined = groups.concat();
            joined.as_slice()
        }
    };
    file.read_rows_into(locators, attrs, window, out)?;
    debug_assert_eq!(out.len(), total);
    Ok(starts)
}

/// A windowed read into a fresh batch, for the backends' tests.
#[cfg(test)]
pub(crate) fn read_window(
    file: &dyn RawFile,
    locators: &[RowLocator],
    attrs: &[AttrId],
    window: Option<&Rect>,
) -> RowBatch {
    let mut out = RowBatch::default();
    file.read_rows_into(locators, attrs, window, &mut out)
        .expect("windowed read");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Schema, ZoneFile};

    fn sample(rows: u64) -> ZoneFile {
        let data: Vec<Vec<f64>> = (0..rows)
            .map(|i| vec![i as f64, 0.5, i as f64 * 10.0])
            .collect();
        ZoneFile::from_rows(&Schema::synthetic(3), data).unwrap()
    }

    /// Reads `groups` into a fresh batch; the rows and where each group starts.
    fn grouped(
        f: &dyn RawFile,
        groups: &[&[RowLocator]],
        attrs: &[AttrId],
        window: Option<&Rect>,
    ) -> (RowBatch, Vec<usize>) {
        let mut out = RowBatch::default();
        let starts = read_row_groups(f, groups, attrs, window, &mut out).unwrap();
        (out, starts)
    }

    fn locs(rows: impl IntoIterator<Item = u64>) -> Vec<RowLocator> {
        rows.into_iter().map(RowLocator::new).collect()
    }

    #[test]
    fn groups_come_back_aligned() {
        let f = sample(10);
        let (g1, g2) = (locs([3, 1]), locs([9, 0, 4]));
        let (out, starts) = grouped(&f, &[&g1, &g2], &[2], None);
        assert_eq!(starts, [0, 2, 5]);
        assert_eq!(out.values(), [30.0, 10.0, 90.0, 0.0, 40.0]);
        assert_eq!(out.rows(2..5), [90.0, 0.0, 40.0]);
        assert_eq!(f.counters().read_calls(), 1, "one call for both groups");
    }

    #[test]
    fn cross_group_runs_coalesce() {
        let f = sample(8);
        // Two tiles covering adjacent row ranges: together they are one
        // contiguous run, so the batched read needs a single seek.
        let (g1, g2) = (locs(0..4), locs(4..8));
        f.counters().reset();
        let (out, _) = grouped(&f, &[&g1, &g2], &[2], None);
        assert_eq!(out.len(), 8);
        assert_eq!(f.counters().seeks(), 1, "adjacent groups fuse into one run");

        // The same groups fetched separately cannot fuse.
        f.counters().reset();
        f.read_rows(&g1, &[2]).unwrap();
        f.read_rows(&g2, &[2]).unwrap();
        assert_eq!(f.counters().seeks(), 2);
        assert_eq!(f.counters().read_calls(), 2);
    }

    #[test]
    fn an_empty_group_in_the_middle_keeps_its_place() {
        let f = sample(4);
        let (g1, none, g2) = (locs([2]), locs([]), locs([0, 3]));
        let (out, starts) = grouped(&f, &[&none, &g1, &none, &g2, &none], &[0, 2], None);
        assert_eq!(starts, [0, 0, 1, 1, 3, 3]);
        assert_eq!(out.width(), 2);
        assert_eq!(out.values(), [2.0, 20.0, 0.0, 0.0, 3.0, 30.0]);
        let group = |g: usize| out.rows(starts[g]..starts[g + 1]);
        assert!(group(0).is_empty() && group(2).is_empty() && group(4).is_empty());
        assert_eq!(group(3), [0.0, 0.0, 3.0, 30.0]);
    }

    #[test]
    fn a_count_only_read_has_its_rows_and_touches_nothing() {
        let f = sample(8);
        let (g1, g2) = (locs([5, 1, 6]), locs([2]));
        let mut out = RowBatch::default();
        // A batch that held wider rows before is reshaped, not appended to.
        f.read_rows_into(&g1, &[0, 1], None, &mut out).unwrap();
        f.counters().reset();
        let starts = read_row_groups(&f, &[&g1, &g2], &[], None, &mut out).unwrap();
        assert_eq!(starts, [0, 3, 4]);
        assert_eq!((out.len(), out.width()), (4, 0));
        assert!(out.values().is_empty());
        assert_eq!(out.iter().count(), 4);
        assert!(out.iter().all(|row| row.is_empty()) && out.rows(3..4).is_empty());
        assert_eq!(f.counters().snapshot(), Default::default(), "no I/O");
    }

    #[test]
    fn window_pushdown_reaches_the_backend() {
        // Zone-backed groups with a window: rows in provably-dead blocks
        // come back NaN without I/O, in-window groups are untouched.
        let data: Vec<Vec<f64>> = (0..32).map(|i| vec![i as f64, 0.5, i as f64]).collect();
        let f = ZoneFile::from_rows_with_block(&Schema::synthetic(3), data, 4).unwrap();
        let (dead, live) = (locs(0..4), locs(20..24));
        let window = Rect::new(20.0, 24.0, 0.0, 1.0);
        let (out, _) = grouped(&f, &[&dead, &live], &[2], Some(&window));
        assert!(out.values()[..4].iter().all(|v| v.is_nan()));
        assert_eq!(out.values()[4..], [20.0, 21.0, 22.0, 23.0]);
        assert_eq!(f.counters().blocks_skipped(), 1);
    }
}
