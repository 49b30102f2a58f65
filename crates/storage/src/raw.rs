//! The raw-file abstraction: backend-agnostic in-situ access to data files.
//!
//! The index never materializes the dataset; it remembers, per object, only
//! the axis values and an opaque [`RowLocator`] handed out by the storage
//! backend. Two access paths mirror how the index uses a file:
//!
//! * [`RawFile::scan_batches`] — one sequential pass, a block of rows at a
//!   time: each [`ScanBatch`] lends the rows' locators and one decoded
//!   `&[f64]` column per requested attribute. Used once per dataset by index
//!   initialization ("crude index" construction), and by the ground-truth
//!   evaluator in tests/benches. A [`ScanRequest`] names a shard of the pass
//!   (from [`RawFile::partitions`], so initialization can decode partitions
//!   on several threads and still fold them in file order), an optional
//!   axis-window pushdown hint, and the columns to decode.
//!   [`RawFile::scan`] is the same pass a row at a time, over every column.
//! * [`RawFile::read_rows_into`] — batched positional reads of specific
//!   records by locator, into one flat [`RowBatch`]. This is the I/O that
//!   adaptation pays for: when a partially-contained tile is processed, the
//!   engine reads the non-axis values of the objects inside it. Locators are
//!   served in file order, so clustered tiles read near-sequentially; every
//!   materialized row is metered.
//!
//! What a locator *means* is private to the backend: [`CsvFile`] hands out
//! byte offsets (records are variable-length text), while the binary
//! columnar backend ([`crate::zone::ZoneFile`]) hands out row ids and
//! resolves them to a block (`row_id / block_rows`) and a bit-packed slot in
//! it. [`MemFile`] serves tests
//! and examples with CSV semantics over an in-memory buffer (including
//! metering and line-aligned partitions — the same scanner, [`crate::scan`]).

use std::fs::File;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use pai_common::geometry::Rect;
use pai_common::{AttrId, IoCounters, PaiError, Result, RowId, RowLocator, RunningStats};

use crate::batch::RowBatch;
use crate::csv::{self, CsvFormat};
use crate::schema::Schema;

/// One row of a [`RawFile::scan`], decoded: the value of every column.
pub struct Record<'a> {
    values: &'a [f64],
    row: RowId,
}

impl<'a> Record<'a> {
    /// A record over an already-decoded row; `row` only labels errors.
    pub fn from_values(values: &'a [f64], row: RowId) -> Self {
        Record { values, row }
    }

    /// Number of fields in the record.
    pub fn num_fields(&self) -> usize {
        self.values.len()
    }

    /// The value of field `col` (a CSV NULL is NaN).
    pub fn f64(&self, col: usize) -> Result<f64> {
        self.values
            .get(col)
            .copied()
            .ok_or_else(|| PaiError::parse(self.row, csv::missing_column(self.values.len(), col)))
    }

    /// Copies several fields into `out` (cleared first).
    pub fn extract_f64(&self, wanted: &[usize], out: &mut Vec<f64>) -> Result<()> {
        out.clear();
        for &col in wanted {
            out.push(self.f64(col)?);
        }
        Ok(())
    }
}

/// Visitor invoked per record by [`RawFile::scan`].
///
/// Arguments: row id (0-based over the scanned records), the record's
/// [`RowLocator`] (redeemable via [`RawFile::read_rows`]), and the decoded
/// record.
pub type RowHandler<'h> = dyn FnMut(RowId, RowLocator, &Record<'_>) -> Result<()> + 'h;

/// What one [`RawFile::scan_batches`] call reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanRequest<'a> {
    /// A shard from [`RawFile::partitions`], or [`ScanPartition::WHOLE`].
    pub partition: ScanPartition,
    /// An axis-window pushdown hint, kept as a **superset** contract: every
    /// row whose axis values fall inside the window is delivered, and rows
    /// outside it *may* be as well — block skipping is coarse, so callers
    /// keep their exact per-row filter. Zone-mapped backends skip whole
    /// blocks that [`BlockStats::may_intersect_window`] rules out (metered
    /// as `blocks_skipped`); block-less backends ignore it.
    pub window: Option<&'a Rect>,
    /// The columns to decode, in the order [`ScanBatch::column`] lends them.
    /// A columnar backend decodes and charges only these (once each, however
    /// often one is named); an empty list delivers locators alone.
    pub attrs: &'a [AttrId],
}

impl<'a> ScanRequest<'a> {
    /// The whole file, unwindowed, decoding `attrs`.
    pub fn whole(attrs: &'a [AttrId]) -> Self {
        ScanRequest {
            partition: ScanPartition::WHOLE,
            window: None,
            attrs,
        }
    }
}

/// The locators of a [`ScanBatch`]'s rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BatchLocators<'a> {
    /// Consecutive row ids from this one on (columnar files, whose locators
    /// are row ids).
    Run(u64),
    /// One locator per row (CSV byte offsets, delta rows).
    List(&'a [RowLocator]),
}

/// Up to one storage block of scanned rows, lent to a [`BatchHandler`]: the
/// rows' locators and one decoded column per requested attribute, all
/// `len()` long.
#[derive(Debug, Clone)]
pub struct ScanBatch<'a> {
    locators: BatchLocators<'a>,
    /// Decoded values by column id; only the requested columns are read.
    columns: &'a [Vec<f64>],
    attrs: &'a [AttrId],
    rows: Range<usize>,
}

impl<'a> ScanBatch<'a> {
    /// Lends rows `rows` of `columns` (by column id, each holding at least
    /// the requested ones) for the request's `attrs`.
    pub(crate) fn new(
        locators: BatchLocators<'a>,
        columns: &'a [Vec<f64>],
        attrs: &'a [AttrId],
        rows: Range<usize>,
    ) -> Self {
        debug_assert!(attrs.iter().all(|&a| columns[a].len() >= rows.end));
        debug_assert!(match locators {
            BatchLocators::List(l) => l.len() == rows.len(),
            BatchLocators::Run(_) => true,
        });
        ScanBatch {
            locators,
            columns,
            attrs,
            rows,
        }
    }

    /// Number of rows in the batch.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the batch holds no row.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The values of the request's `i`-th attribute, one per row.
    pub fn column(&self, i: usize) -> &'a [f64] {
        &self.columns[self.attrs[i]][self.rows.clone()]
    }

    /// The rows' locators.
    pub fn locators(&self) -> BatchLocators<'a> {
        self.locators
    }

    /// The locator of row `i`.
    pub fn locator(&self, i: usize) -> RowLocator {
        match self.locators {
            BatchLocators::Run(first) => RowLocator::new(first + i as u64),
            BatchLocators::List(locators) => locators[i],
        }
    }
}

/// Visitor invoked per batch by [`RawFile::scan_batches`], in file order.
pub type BatchHandler<'h> = dyn FnMut(&ScanBatch<'_>) -> Result<()> + 'h;

/// Every column of `attrs` exists in a schema of `n_cols` columns.
pub(crate) fn check_attrs(attrs: &[AttrId], n_cols: usize) -> Result<()> {
    match attrs.iter().find(|&&a| a >= n_cols) {
        Some(a) => Err(PaiError::schema(format!(
            "column id {a} out of range ({n_cols} columns)"
        ))),
        None => Ok(()),
    }
}

/// The distinct columns of `attrs`, ascending: what a columnar scan decodes
/// and charges.
pub(crate) fn distinct_columns(attrs: &[AttrId]) -> Vec<AttrId> {
    let mut cols = attrs.to_vec();
    cols.sort_unstable();
    cols.dedup();
    cols
}

/// One backend-defined shard of a sequential scan.
///
/// The `start`/`end` units are opaque to callers (byte offsets for CSV, row
/// ids for binary columnar files); a partition is only meaningful to the
/// file that produced it via [`RawFile::partitions`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanPartition {
    /// Inclusive start of the shard, in backend-defined units.
    pub start: u64,
    /// Exclusive end of the shard, in backend-defined units.
    pub end: u64,
}

impl ScanPartition {
    /// The degenerate "everything" partition used by backends that cannot
    /// (or need not) shard their scan.
    pub const WHOLE: ScanPartition = ScanPartition {
        start: 0,
        end: u64::MAX,
    };
}

/// Per-block statistics — a "zone map": the row range one storage block
/// covers plus the closed min/max envelope of every column over that range.
///
/// Block-structured backends expose one `BlockStats` per row block via
/// [`RawFile::block_stats`]; predicate pushdown uses the *axis* columns'
/// envelopes to prove a block disjoint from a query window and skip it
/// without touching storage.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockStats {
    /// First row of the block (inclusive).
    pub row_start: RowId,
    /// One past the last row of the block (exclusive).
    pub row_end: RowId,
    /// Per-column minimum value over the block (NaN when the column holds
    /// only NaNs in this block, or the block is empty).
    pub min: Vec<f64>,
    /// Per-column maximum value over the block (same convention).
    pub max: Vec<f64>,
}

impl BlockStats {
    /// Whether any row of this block *may* fall inside `window`, judged by
    /// the axis columns' envelopes. `false` is a proof of disjointness
    /// (half-open window semantics, matching [`Rect::contains_point`]);
    /// `true` is merely "cannot rule it out" — NaN or missing envelopes
    /// conservatively answer `true`.
    pub fn may_intersect_window(&self, x_axis: AttrId, y_axis: AttrId, window: &Rect) -> bool {
        let bounds = |a: AttrId| -> Option<(f64, f64)> {
            match (self.min.get(a), self.max.get(a)) {
                (Some(&lo), Some(&hi)) if lo <= hi => Some((lo, hi)),
                _ => None, // NaN or out-of-range column: cannot prune.
            }
        };
        let (Some((x0, x1)), Some((y0, y1))) = (bounds(x_axis), bounds(y_axis)) else {
            return true;
        };
        // Block envelopes are closed, windows half-open: [x0, x1] misses
        // [w.x_min, w.x_max) iff it ends before the window starts or starts
        // at/after the window's exclusive edge.
        !(x1 < window.x_min || x0 >= window.x_max || y1 < window.y_min || y0 >= window.y_max)
    }
}

/// Rows per synthetic block when a block-less backend (CSV text) computes
/// synopses lazily. Matches the PaiZone block size so `synopsis_blocks`
/// counts are comparable across backends.
pub const SYNOPSIS_BLOCK_ROWS: u32 = 4096;

/// Build parameters for per-block synopses: the histogram resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SynopsisSpec {
    /// Equi-width histogram buckets per column (at least 1).
    pub buckets: usize,
}

impl Default for SynopsisSpec {
    fn default() -> Self {
        SynopsisSpec { buckets: 8 }
    }
}

/// Per-column synopsis over one block: the closed value envelope, the
/// non-NaN moments (count / sum / sum of squares), and an equi-width
/// histogram over `[min, max]`.
///
/// Self-contained on purpose: a synopsis carries its own envelope, so
/// backends without zone maps (CSV) can expose synopses alone and every
/// consumer still has bounds to work with. NaN values are excluded from the
/// envelope, the moments, and the histogram (mirroring how a half-open query
/// window can never select a NaN coordinate).
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnSynopsis {
    /// Minimum non-NaN value in the block (NaN when `count == 0`).
    pub min: f64,
    /// Maximum non-NaN value in the block (same convention).
    pub max: f64,
    /// Number of non-NaN values in the block.
    pub count: u64,
    /// Sum of the non-NaN values.
    pub sum: f64,
    /// Sum of squares of the non-NaN values.
    pub sum_sq: f64,
    /// Equi-width bucket counts over `[min, max]`: bucket `i` holds values
    /// assigned `floor((v - min) / width)` clamped to the last bucket, with
    /// `width = (max - min) / hist.len()`.
    pub hist: Vec<u64>,
}

impl ColumnSynopsis {
    /// Builds the synopsis of one block's values with `buckets` histogram
    /// buckets (clamped to at least 1). NaNs are skipped entirely.
    pub fn from_values(values: &[f64], buckets: usize) -> ColumnSynopsis {
        let buckets = buckets.max(1);
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut count = 0u64;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for &v in values {
            if v.is_nan() {
                continue;
            }
            count += 1;
            sum += v;
            sum_sq += v * v;
            min = min.min(v);
            max = max.max(v);
        }
        if count == 0 {
            return ColumnSynopsis {
                min: f64::NAN,
                max: f64::NAN,
                count: 0,
                sum: 0.0,
                sum_sq: 0.0,
                hist: vec![0; buckets],
            };
        }
        let mut hist = vec![0u64; buckets];
        let width = (max - min) / buckets as f64;
        for &v in values {
            if v.is_nan() {
                continue;
            }
            let i = if width > 0.0 && width.is_finite() {
                (((v - min) / width) as usize).min(buckets - 1)
            } else {
                0
            };
            hist[i] += 1;
        }
        ColumnSynopsis {
            min,
            max,
            count,
            sum,
            sum_sq,
            hist,
        }
    }

    /// Whether the histogram's buckets add up, without overflow, to
    /// `count` — the rule a record must keep to be used at all, since its
    /// bytes may come from a file.
    pub fn hist_adds_up(&self) -> bool {
        self.hist.iter().try_fold(0u64, |s, &c| s.checked_add(c)) == Some(self.count)
    }

    /// Whether the envelope provably misses the half-open interval
    /// `[lo, hi)` (closed envelope vs half-open interval, the same boundary
    /// logic as zone-map pruning), so that no value falls in it. A NaN or
    /// inverted envelope, or a NaN endpoint, proves nothing: `false`.
    #[inline]
    pub fn misses(&self, lo: f64, hi: f64) -> bool {
        !lo.is_nan() && !hi.is_nan() && self.min <= self.max && (self.max < lo || self.min >= hi)
    }

    /// Bounds on how many of this column's non-NaN values fall in the
    /// half-open interval `[lo, hi)`: returns `(lower, upper)` with
    /// `lower <= true count <= upper <= count`.
    ///
    /// Sound under floating-point bucket-edge rounding because both sides
    /// use the *same* monotone bucket-assignment function the histogram was
    /// built with: a bucket strictly between `lo`'s and `hi`'s buckets holds
    /// only values strictly inside `(lo, hi)`, and every selected value lands
    /// in a bucket between them inclusively. NaN interval endpoints, an
    /// unusable envelope or buckets that do not add up to `count` degrade
    /// to the conservative `(0, count)`.
    pub fn mass_in(&self, lo: f64, hi: f64) -> (u64, u64) {
        if self.count == 0 || self.misses(lo, hi) {
            return (0, 0);
        }
        if lo.is_nan()
            || hi.is_nan()
            || self.min.is_nan()
            || self.max.is_nan()
            || self.min > self.max
            || !self.hist_adds_up()
        {
            return (0, self.count);
        }
        let width = (self.max - self.min) / self.hist.len() as f64;
        if !width.is_finite() || width <= 0.0 {
            // Degenerate (all values equal) or unbucketable (infinite
            // envelope): every value sits in [min, max].
            return if self.min >= lo && self.max < hi {
                (self.count, self.count)
            } else {
                (0, self.count)
            };
        }
        let last = self.hist.len() - 1;
        let bucket_of = |v: f64| (((v - self.min) / width) as usize).min(last);
        // None = unbounded on that side (the endpoint clears the envelope).
        let lo_idx = (lo > self.min).then(|| bucket_of(lo));
        let hi_idx = (hi <= self.max).then(|| bucket_of(hi));
        let mut lower = 0u64;
        let mut upper = 0u64;
        for (i, &c) in self.hist.iter().enumerate() {
            if lo_idx.is_none_or(|b| i > b) && hi_idx.is_none_or(|b| i < b) {
                lower += c;
            }
            if lo_idx.is_none_or(|b| i >= b) && hi_idx.is_none_or(|b| i <= b) {
                upper += c;
            }
        }
        (lower, upper)
    }
}

/// Answer-bearing per-block synopsis: one [`ColumnSynopsis`] per column.
/// Where [`BlockStats`] can only *prune* a block,
/// a `BlockSynopsis` can *answer* from it — fully-covered blocks compose
/// their moments exactly, partially-covered blocks bound their selected mass
/// through the histograms.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockSynopsis {
    /// First row of the block (inclusive).
    pub row_start: RowId,
    /// One past the last row of the block (exclusive).
    pub row_end: RowId,
    /// Per-column synopses, indexed by `AttrId`.
    pub cols: Vec<ColumnSynopsis>,
}

impl BlockSynopsis {
    /// Number of rows the block covers.
    pub fn rows(&self) -> u64 {
        self.row_end - self.row_start
    }

    /// Column `a`'s moments as exact statistics over the block's non-NULL
    /// values; `None` when the column is absent or its record cannot
    /// summarize the block (the record comes from file bytes): more values
    /// than rows, buckets that do not add up to its count
    /// ([`ColumnSynopsis::hist_adds_up`]), a non-finite field, an inverted
    /// envelope, or an envelope past `±f64::MAX / 2^53`, beyond which a
    /// count of rows times a value could overflow a sum.
    #[inline]
    pub fn stats(&self, a: AttrId) -> Option<RunningStats> {
        const MAX_VALUE: f64 = f64::MAX / 9_007_199_254_740_992.0;
        let c = self
            .cols
            .get(a)
            .filter(|c| c.count <= self.rows() && c.hist_adds_up())?;
        let s = RunningStats::from_moments(c.count, c.sum, c.sum_sq, c.min, c.max)?;
        s.range()
            .is_none_or(|r| r.lo() >= -MAX_VALUE && r.hi() <= MAX_VALUE)
            .then_some(s)
    }

    /// Whether **every** row of this block provably falls inside `window`:
    /// the axis envelopes sit inside the half-open window and no axis value
    /// is NaN (a NaN coordinate is never selected, so it would break full
    /// coverage). `false` just means "not provable".
    pub fn covered_by(&self, x_axis: AttrId, y_axis: AttrId, window: &Rect) -> bool {
        let rows = self.rows();
        if rows == 0 {
            return false;
        }
        let inside = |a: AttrId, lo: f64, hi: f64| match self.cols.get(a) {
            Some(c) => c.count == rows && c.min >= lo && c.max < hi,
            None => false,
        };
        inside(x_axis, window.x_min, window.x_max) && inside(y_axis, window.y_min, window.y_max)
    }

    /// `(lower, upper)` bounds on how many of this block's rows `window`
    /// selects, from the two axis histograms: the upper bound is the smaller
    /// axis mass, the lower bound is the inclusion–exclusion floor
    /// `|X| + |Y| - rows`.
    pub fn selected_mass(&self, x_axis: AttrId, y_axis: AttrId, window: &Rect) -> (u64, u64) {
        let rows = self.rows();
        let axis = |a: AttrId, lo: f64, hi: f64| match self.cols.get(a) {
            Some(c) => c.mass_in(lo, hi),
            None => (0, rows),
        };
        let (xl, xu) = axis(x_axis, window.x_min, window.x_max);
        let (yl, yu) = axis(y_axis, window.y_min, window.y_max);
        let upper = xu.min(yu).min(rows);
        let lower = (xl.min(rows) + yl.min(rows))
            .saturating_sub(rows)
            .min(upper);
        (lower, upper)
    }

    /// Approximate in-memory footprint of this synopsis (the bytes the
    /// `synopsis_bytes` meter charges per consultation).
    pub fn approx_bytes(&self) -> u64 {
        let cols: u64 = self.cols.iter().map(|c| 40 + 8 * c.hist.len() as u64).sum();
        16 + cols
    }
}

/// Builds per-block synopses from fully-buffered columns — the shared engine
/// behind the PaiZone writer's one-pass build and the CSV backends' lazy
/// computation. Deterministic: identical inputs always produce identical
/// synopses.
pub fn build_block_synopses(
    columns: &[Vec<f64>],
    block_rows: u32,
    spec: &SynopsisSpec,
) -> Vec<BlockSynopsis> {
    assert!(block_rows > 0, "block_rows must be positive");
    let n_rows = columns.first().map_or(0, |c| c.len());
    let n_blocks = n_rows.div_ceil(block_rows as usize);
    let mut out = Vec::with_capacity(n_blocks);
    for b in 0..n_blocks {
        let start = b * block_rows as usize;
        let end = (start + block_rows as usize).min(n_rows);
        let cols: Vec<ColumnSynopsis> = columns
            .iter()
            .map(|c| ColumnSynopsis::from_values(&c[start..end], spec.buckets))
            .collect();
        out.push(BlockSynopsis {
            row_start: start as RowId,
            row_end: end as RowId,
            cols,
        });
    }
    out
}

/// Every column of `file`, buffered by one metered batch scan — what the
/// columnar converters and the CSV backends' lazy synopses start from. A
/// text column fails the scan.
pub(crate) fn scan_columns(file: &dyn RawFile) -> Result<Vec<Vec<f64>>> {
    let wanted: Vec<AttrId> = (0..file.schema().len()).collect();
    let mut columns: Vec<Vec<f64>> = vec![Vec::new(); wanted.len()];
    file.scan_batches(&ScanRequest::whole(&wanted), &mut |batch| {
        for (i, col) in columns.iter_mut().enumerate() {
            col.extend_from_slice(batch.column(i));
        }
        Ok(())
    })?;
    Ok(columns)
}

/// The one pass of the converter to PaiZone (numeric only): the schema and
/// every column of `src` (the row-major → column-major turn needs either
/// full buffering or one pass per column; this spends one `f64` per value to
/// keep the scan single). A text column is refused by name before anything
/// is scanned.
pub(crate) fn buffer_columns(src: &dyn RawFile) -> Result<(Schema, Vec<Vec<f64>>)> {
    let schema = src.schema().clone();
    if let Some(col) = schema.columns().iter().find(|c| !c.ty.is_numeric()) {
        return Err(PaiError::schema(format!(
            "cannot convert column '{}' to PaiZone: not numeric",
            col.name
        )));
    }
    Ok((schema, scan_columns(src)?))
}

/// Buffers every numeric column of `file` with one metered scan and builds
/// synthetic-block synopses over it — the lazy path for backends without
/// block structure. Fails (→ no synopses) on text columns.
fn compute_scan_synopses(file: &dyn RawFile) -> Result<Vec<BlockSynopsis>> {
    Ok(build_block_synopses(
        &scan_columns(file)?,
        SYNOPSIS_BLOCK_ROWS,
        &SynopsisSpec::default(),
    ))
}

/// What an accepted append batch looks like from the outside: where the rows
/// landed and how the file's delta state changed. Returned by
/// [`RawFile::append_rows`] so the index can extend itself (locators in
/// append order, one per row) without re-scanning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppendReceipt {
    /// Global row id of the first appended row (rows are `start_row ..
    /// start_row + locators.len()`).
    pub start_row: RowId,
    /// One locator per appended row, in append order — redeemable through
    /// every positional-read path exactly like scan-issued locators.
    pub locators: Vec<RowLocator>,
    /// The file's generation after this append (bumped by compaction, not
    /// by appends).
    pub generation: u64,
    /// Delta blocks alive after this append (sealed + the open tail).
    pub delta_blocks: u64,
}

/// What one completed compaction did: the generation it installed and how
/// much it rewrote. Returned by [`RawFile::compact_once`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionReport {
    /// The file's generation after the swap.
    pub generation: u64,
    /// Delta blocks rewritten into Z-order by this pass.
    pub blocks_rewritten: u64,
    /// Rows those blocks cover.
    pub rows: u64,
    /// Cached spans dropped by the post-swap invalidation.
    pub cache_invalidations: u64,
}

/// In-situ raw data file: schema-aware sequential and positional access.
///
/// This is the seam between the AQP engine and the bytes on disk. Everything
/// above `pai-storage` speaks only this trait; CSV text files, binary
/// columnar files, and in-memory buffers all slot in behind it, as can any
/// future backend (mmap, compressed columns, remote object stores).
///
/// Five methods are required; the rest are optional capabilities with one
/// delegation rule. A wrapper that serves another file's rows unchanged
/// (a cache binding, a latency model, a box) names that file in
/// [`RawFile::inner`], and every optional method it does not override
/// answers from the inner file. A file with no inner file — every backend —
/// gets the documented fallback. A wrapper only writes the required five,
/// `inner`, and the overrides that change behaviour.
pub trait RawFile: Send + Sync {
    /// Column schema of the file.
    fn schema(&self) -> &Schema;

    /// Shared I/O meters; every access path below increments them.
    fn counters(&self) -> &IoCounters;

    /// Total size of the file in bytes.
    fn size_bytes(&self) -> u64;

    /// Scans the rows of `request.partition` in file order, lending them to
    /// `handler` a batch at a time: up to one storage block of rows (a
    /// columnar block or page, a delta block, 4096 CSV records), their
    /// locators, and the decoded `request.attrs`.
    ///
    /// Block-structured backends lend the pages they decoded; CSV parses
    /// each requested field once, straight into column buffers, splitting a
    /// record no further than its last requested field. A record that fails
    /// to parse ends the scan: the rows before it are delivered first, as a
    /// short batch, so the first error in file order is the one returned —
    /// the handler's, if it fails on one of those rows.
    ///
    /// The partitions of one [`RawFile::partitions`] call, scanned one after
    /// the other, deliver and charge exactly what one scan of
    /// [`ScanPartition::WHOLE`] does. See [`ScanRequest`] for the window and
    /// the columns.
    fn scan_batches(&self, request: &ScanRequest<'_>, handler: &mut BatchHandler<'_>)
        -> Result<()>;

    /// Full sequential scan, invoking `handler` for every data record with
    /// the value of every column: [`RawFile::scan_batches`] of the whole
    /// file, a row at a time. (A text column fails the scan as a field that
    /// is not a number.)
    fn scan(&self, handler: &mut RowHandler<'_>) -> Result<()> {
        let attrs: Vec<AttrId> = (0..self.schema().len()).collect();
        let mut values = vec![0.0; attrs.len()];
        let mut row: RowId = 0;
        self.scan_batches(&ScanRequest::whole(&attrs), &mut |batch| {
            let columns: Vec<&[f64]> = (0..attrs.len()).map(|i| batch.column(i)).collect();
            for i in 0..batch.len() {
                for (v, column) in values.iter_mut().zip(&columns) {
                    *v = column[i];
                }
                handler(row, batch.locator(i), &Record::from_values(&values, row))?;
                row += 1;
            }
            Ok(())
        })
    }

    /// [`RawFile::read_rows_into`] a fresh batch, with no window: for callers
    /// with no batch to reuse.
    fn read_rows(&self, locators: &[RowLocator], attrs: &[AttrId]) -> Result<RowBatch> {
        let mut out = RowBatch::default();
        self.read_rows_into(locators, attrs, None, &mut out)?;
        Ok(out)
    }

    /// Reads the records named by `locators` into `out`, which it reshapes:
    /// one row per locator, in input order, holding the values of `attrs`.
    ///
    /// Locators must have been handed out by this file's scans. This is the
    /// metered random-access path that adaptation pays for.
    ///
    /// `window` is an axis-window pushdown hint. Every requested row whose
    /// block *may* intersect it is materialized exactly as without it; a row
    /// living in a block that the backend's zone maps prove disjoint from
    /// the window may come back as a row of NaNs without touching storage
    /// (metered as `blocks_skipped`) — callers therefore pass a window only
    /// when they will never consume values of out-of-window rows (the
    /// engine's window-only read policy). Block-less backends ignore it.
    fn read_rows_into(
        &self,
        locators: &[RowLocator],
        attrs: &[AttrId],
        window: Option<&Rect>,
        out: &mut RowBatch,
    ) -> Result<()>;

    /// The file this one wraps, when it serves that file's rows unchanged
    /// (see the trait docs). `None`, the default, for every backend.
    fn inner(&self) -> Option<&dyn RawFile> {
        None
    }

    /// Splits the sequential scan into about `n` independently scannable
    /// shards, in file order (for the pipelined index build): at most `n`,
    /// unless it takes more to keep every shard within one scan block
    /// ([`crate::scan::BLOCK_BYTES`]) of decoded values, as the columnar
    /// backends do. The cut depends on the file and `n` alone, and the
    /// shards of one call charge between them exactly what one whole scan
    /// charges — the shard that begins the file carries the `full_scans`
    /// tick — so a build's logical meters do not depend on how many threads
    /// scanned. Backends that cannot shard return the single
    /// [`ScanPartition::WHOLE`] partition, which makes a partitioned scan
    /// degrade gracefully to a serial one.
    fn partitions(&self, n: usize) -> Result<Vec<ScanPartition>> {
        match self.inner() {
            Some(inner) => inner.partitions(n),
            None => Ok(vec![ScanPartition::WHOLE]),
        }
    }

    /// Per-block zone maps, when the backend maintains them. `None` (the
    /// fallback) means the file has no block structure — CSV text, for
    /// example — and every pushdown path degrades to unfiltered behavior.
    fn block_stats(&self) -> Option<&[BlockStats]> {
        self.inner()?.block_stats()
    }

    /// Per-block answer-bearing synopses, when the backend maintains (or can
    /// derive) them. `None` (the fallback) means the engine's synopsis tier
    /// is unavailable and every query the index's metadata cannot answer
    /// pays data I/O. PaiZone files decode synopses from the header; CSV
    /// backends compute them lazily with one metered scan.
    fn block_synopses(&self) -> Option<&[BlockSynopsis]> {
        self.inner()?.block_synopses()
    }

    /// Expected logical bytes a positional read pays per (row, attribute)
    /// value, when the backend can estimate it cheaply — the seam cost
    /// prediction uses to turn "objects to read" into "bytes to read".
    /// `None` (the fallback) means the caller must fall back to file-level
    /// averages (`size_bytes` over total rows).
    fn value_bytes_hint(&self) -> Option<f64> {
        self.inner()?.value_bytes_hint()
    }

    /// Binds a shared [`crate::cache::BlockCache`] to this backend's
    /// transport, so span-batch fetches serve hits from the cache and
    /// subtract them before issuing transport requests. Returns `true` if
    /// this call installed the cache; the fallback (local backends, which
    /// have no remote transport to cache) ignores it and returns `false`.
    /// A backend accepts at most one cache for its lifetime — later calls
    /// are no-ops returning `false`.
    fn attach_cache(&self, cache: Arc<crate::cache::BlockCache>) -> bool {
        self.inner().is_some_and(|inner| inner.attach_cache(cache))
    }

    /// Appends `rows` (each `schema().len()` wide) to the file, returning
    /// where they landed. Only appendable backends
    /// ([`crate::delta::AppendableFile`]) accept rows; every sealed backend
    /// keeps the fallback, which refuses with an `unsupported` error —
    /// static files stay provably immutable.
    fn append_rows(&self, rows: &[Vec<f64>]) -> Result<AppendReceipt> {
        match self.inner() {
            Some(inner) => inner.append_rows(rows),
            None => Err(PaiError::unsupported(
                "backend is sealed (no append path); wrap it in an AppendableFile",
            )),
        }
    }

    /// Drops every cached span belonging to this file from its attached
    /// [`crate::cache::BlockCache`], returning how many entries were
    /// invalidated. Called after a rewrite (compaction) so the cache cannot
    /// serve spans from a retired generation. The fallback — backends with
    /// no cache binding — is a no-op. The backend that bound the cache owns
    /// the binding (it knows its object id), so a wrapper's call reaches it
    /// rather than the cache, which may back other files too.
    fn invalidate_cache(&self) -> u64 {
        self.inner().map_or(0, |inner| inner.invalidate_cache())
    }

    /// Runs one compaction pass if at least `min_run` sealed delta blocks
    /// are waiting: re-clusters them into Z-order over `domain` (the same
    /// Morton key as [`crate::gen::morton_key`]), swaps the rewritten blocks
    /// in behind a generation bump, and invalidates stale cached spans.
    /// Returns `Ok(None)` when there is nothing to compact — which is the
    /// fallback for every backend without delta state, so a background
    /// compactor can drive any engine without knowing its backend.
    fn compact_once(&self, domain: &Rect, min_run: usize) -> Result<Option<CompactionReport>> {
        match self.inner() {
            Some(inner) => inner.compact_once(domain, min_run),
            None => Ok(None),
        }
    }
}

/// Boxed files are files: lets APIs hold `Box<dyn RawFile>` (e.g. a
/// backend chosen at runtime) and still pass `&file` everywhere a
/// `&dyn RawFile` is expected.
impl RawFile for Box<dyn RawFile> {
    fn schema(&self) -> &Schema {
        (**self).schema()
    }

    fn counters(&self) -> &IoCounters {
        (**self).counters()
    }

    fn size_bytes(&self) -> u64 {
        (**self).size_bytes()
    }

    fn scan_batches(
        &self,
        request: &ScanRequest<'_>,
        handler: &mut BatchHandler<'_>,
    ) -> Result<()> {
        (**self).scan_batches(request, handler)
    }

    fn read_rows_into(
        &self,
        locators: &[RowLocator],
        attrs: &[AttrId],
        window: Option<&Rect>,
        out: &mut RowBatch,
    ) -> Result<()> {
        (**self).read_rows_into(locators, attrs, window, out)
    }

    fn inner(&self) -> Option<&dyn RawFile> {
        Some(&**self)
    }
}

// ---------------------------------------------------------------------------
// CsvFile: on-disk implementation.
// ---------------------------------------------------------------------------

/// A CSV file on disk, accessed in situ. Locators are byte offsets.
///
/// Cloning is cheap and clones share the same [`IoCounters`]; each access
/// opens its own file handle, so a `CsvFile` can serve concurrent readers.
#[derive(Debug, Clone)]
pub struct CsvFile {
    path: PathBuf,
    schema: Schema,
    fmt: CsvFormat,
    counters: IoCounters,
    size_bytes: u64,
    /// Lazily-computed synthetic-block synopses, shared across clones
    /// (`None` inside = the compute pass failed, e.g. on text columns).
    synopses: Arc<OnceLock<Option<Vec<BlockSynopsis>>>>,
}

impl CsvFile {
    /// Opens an existing CSV file with a known schema.
    pub fn open(path: impl AsRef<Path>, schema: Schema, fmt: CsvFormat) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let meta = std::fs::metadata(&path)?;
        Ok(CsvFile {
            path,
            schema,
            fmt,
            counters: IoCounters::new(),
            size_bytes: meta.len(),
            synopses: Arc::new(OnceLock::new()),
        })
    }

    /// Location of the file on disk.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// CSV dialect of the file.
    pub fn format(&self) -> &CsvFormat {
        &self.fmt
    }

    /// A fresh handle for one scan or read (each opens its own, so
    /// partitions scan, and readers read, concurrently).
    fn bytes(&self) -> Result<crate::scan::DiskBytes> {
        Ok(crate::scan::DiskBytes {
            file: File::open(&self.path)?,
            len: self.size_bytes,
        })
    }
}

impl RawFile for CsvFile {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn counters(&self) -> &IoCounters {
        &self.counters
    }

    fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    fn scan_batches(
        &self,
        request: &ScanRequest<'_>,
        handler: &mut BatchHandler<'_>,
    ) -> Result<()> {
        check_attrs(request.attrs, self.schema.len())?;
        let mut src = self.bytes()?;
        crate::scan::scan_range(&mut src, &self.fmt, request, &self.counters, handler)
    }

    fn read_rows_into(
        &self,
        locators: &[RowLocator],
        attrs: &[AttrId],
        _window: Option<&Rect>,
        out: &mut RowBatch,
    ) -> Result<()> {
        let open = || self.bytes();
        crate::scan::read_rows(open, &self.fmt, &self.counters, locators, attrs, out)
    }

    fn partitions(&self, n: usize) -> Result<Vec<ScanPartition>> {
        crate::scan::chunk_ranges(&mut self.bytes()?, n)
    }

    fn block_synopses(&self) -> Option<&[BlockSynopsis]> {
        self.synopses
            .get_or_init(|| compute_scan_synopses(self).ok())
            .as_deref()
    }
}

// ---------------------------------------------------------------------------
// MemFile: in-memory implementation with identical semantics.
// ---------------------------------------------------------------------------

/// An in-memory "raw file" — the same byte-oriented access (offset locators,
/// seeks, metering) over a buffer. Behaviourally indistinguishable from
/// [`CsvFile`], which is exactly what makes it useful in tests.
#[derive(Debug, Clone)]
pub struct MemFile {
    data: Arc<Vec<u8>>,
    schema: Schema,
    fmt: CsvFormat,
    counters: IoCounters,
    /// Lazily-computed synthetic-block synopses, shared across clones.
    synopses: Arc<OnceLock<Option<Vec<BlockSynopsis>>>>,
}

impl MemFile {
    /// Wraps raw CSV text.
    pub fn from_text(text: impl Into<Vec<u8>>, schema: Schema, fmt: CsvFormat) -> Self {
        MemFile {
            data: Arc::new(text.into()),
            schema,
            fmt,
            counters: IoCounters::new(),
            synopses: Arc::new(OnceLock::new()),
        }
    }

    /// Renders numeric rows to CSV in memory.
    pub fn from_rows<I>(schema: Schema, fmt: CsvFormat, rows: I) -> Result<Self>
    where
        I: IntoIterator<Item = Vec<f64>>,
    {
        let mut buf = Vec::new();
        {
            let mut w = crate::csv::CsvWriter::new(&mut buf, &schema, fmt)?;
            for row in rows {
                w.write_row(&row)?;
            }
            w.finish()?;
        }
        Ok(MemFile::from_text(buf, schema, fmt))
    }

    /// The underlying CSV bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// CSV dialect of the buffer.
    pub fn format(&self) -> &CsvFormat {
        &self.fmt
    }
}

impl RawFile for MemFile {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn counters(&self) -> &IoCounters {
        &self.counters
    }

    fn size_bytes(&self) -> u64 {
        self.data.len() as u64
    }

    fn scan_batches(
        &self,
        request: &ScanRequest<'_>,
        handler: &mut BatchHandler<'_>,
    ) -> Result<()> {
        check_attrs(request.attrs, self.schema.len())?;
        let mut src = self.data.as_slice();
        crate::scan::scan_range(&mut src, &self.fmt, request, &self.counters, handler)
    }

    fn read_rows_into(
        &self,
        locators: &[RowLocator],
        attrs: &[AttrId],
        _window: Option<&Rect>,
        out: &mut RowBatch,
    ) -> Result<()> {
        let open = || Ok(self.data.as_slice());
        crate::scan::read_rows(open, &self.fmt, &self.counters, locators, attrs, out)
    }

    fn partitions(&self, n: usize) -> Result<Vec<ScanPartition>> {
        crate::scan::chunk_ranges(&mut self.data.as_slice(), n)
    }

    fn block_synopses(&self) -> Option<&[BlockSynopsis]> {
        self.synopses
            .get_or_init(|| compute_scan_synopses(self).ok())
            .as_deref()
    }
}

/// Every row `file` lends for `request`, as (locator, the values of the
/// requested attributes) — the batches unrolled, for tests.
#[cfg(test)]
pub(crate) fn scanned_rows(
    file: &dyn RawFile,
    request: &ScanRequest<'_>,
) -> Result<Vec<(u64, Vec<f64>)>> {
    let mut rows = Vec::new();
    file.scan_batches(request, &mut |batch| {
        for i in 0..batch.len() {
            let values = (0..request.attrs.len()).map(|k| batch.column(k)[i]);
            rows.push((batch.locator(i).raw(), values.collect()));
        }
        Ok(())
    })?;
    Ok(rows)
}

/// A request for one partition, unwindowed — for tests.
#[cfg(test)]
pub(crate) fn part_request(partition: ScanPartition, attrs: &[AttrId]) -> ScanRequest<'_> {
    ScanRequest {
        partition,
        window: None,
        attrs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, Schema};
    use pai_common::Interval;

    fn sample() -> MemFile {
        let schema = Schema::synthetic(3);
        MemFile::from_text(
            "col0,col1,col2\n1,10,100\n2,20,200\n3,30,300\n",
            schema,
            CsvFormat::default(),
        )
    }

    #[test]
    fn scan_visits_all_rows_with_offsets() {
        let f = sample();
        let mut seen = Vec::new();
        f.scan(&mut |row, loc, rec| {
            seen.push((row, loc.raw(), rec.f64(0)?, rec.f64(2)?));
            Ok(())
        })
        .unwrap();
        assert_eq!(seen.len(), 3);
        assert_eq!(seen[0], (0, 15, 1.0, 100.0)); // header is 15 bytes
        assert_eq!(seen[1].0, 1);
        assert_eq!(seen[2].2, 3.0);
        assert_eq!(f.counters().full_scans(), 1);
        assert_eq!(f.counters().objects_read(), 3);
        assert_eq!(f.counters().bytes_read(), f.size_bytes());
    }

    #[test]
    fn scan_skips_blank_lines() {
        let schema = Schema::synthetic(2);
        let f = MemFile::from_text("1,2\n\n3,4\n", schema, CsvFormat::headerless());
        let mut rows = 0;
        f.scan(&mut |_, _, _| {
            rows += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(rows, 2);
    }

    #[test]
    fn read_rows_by_locator_in_request_order() {
        let f = sample();
        // Collect locators via scan.
        let mut locs = Vec::new();
        f.scan(&mut |_, loc, _| {
            locs.push(loc);
            Ok(())
        })
        .unwrap();
        f.counters().reset();

        // Request out of order; expect results in request order.
        let vals = f.read_rows(&[locs[2], locs[0]], &[2]).unwrap();
        assert_eq!(vals.values(), [300.0, 100.0]);
        assert_eq!(f.counters().objects_read(), 2);
        // Sorted internally: first seek to locs[0], read, then locs[2] needs
        // a second seek (rows are not adjacent).
        assert_eq!(f.counters().seeks(), 2);
    }

    #[test]
    fn consecutive_locators_need_one_seek() {
        let f = sample();
        let mut locs = Vec::new();
        f.scan(&mut |_, loc, _| {
            locs.push(loc);
            Ok(())
        })
        .unwrap();
        f.counters().reset();
        let vals = f.read_rows(&[locs[0], locs[1], locs[2]], &[0]).unwrap();
        assert_eq!(vals.len(), 3);
        assert_eq!(
            f.counters().seeks(),
            1,
            "adjacent rows read sequentially after one positioning seek"
        );
    }

    #[test]
    fn read_rows_multiple_attrs() {
        let f = sample();
        let mut locs = Vec::new();
        f.scan(&mut |_, loc, _| {
            locs.push(loc);
            Ok(())
        })
        .unwrap();
        let vals = f.read_rows(&[locs[1]], &[2, 0, 1]).unwrap();
        assert_eq!(vals.row(0), [200.0, 2.0, 20.0]);
    }

    #[test]
    fn read_rows_empty_request() {
        let f = sample();
        let vals = f.read_rows(&[], &[0]).unwrap();
        assert!(vals.is_empty());
        assert_eq!(f.counters().objects_read(), 0);
    }

    #[test]
    fn csv_file_round_trip() {
        let dir = std::env::temp_dir().join("pai_storage_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("round_trip.csv");
        std::fs::write(&path, "col0,col1,col2\n1,10,100\n2,20,200\n").unwrap();
        let f = CsvFile::open(&path, Schema::synthetic(3), CsvFormat::default()).unwrap();
        assert_eq!(f.size_bytes(), 33);

        let mut locs = Vec::new();
        let mut xs = Vec::new();
        f.scan(&mut |_, loc, rec| {
            locs.push(loc);
            xs.push(rec.f64(0)?);
            Ok(())
        })
        .unwrap();
        assert_eq!(xs, vec![1.0, 2.0]);
        let vals = f.read_rows(&[locs[1]], &[2]).unwrap();
        assert_eq!(vals.values(), [200.0]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_locator_is_internal_error() {
        let f = sample();
        let err = f
            .read_rows(&[RowLocator::new(9_999_999)], &[0])
            .unwrap_err();
        assert!(err.to_string().contains("EOF"));
    }

    #[test]
    fn parse_error_carries_line_number() {
        let f = MemFile::from_text(
            "col0,col1\n1,2\nbad,3\n",
            Schema::synthetic(2),
            CsvFormat::default(),
        );
        let err = f.scan(&mut |_, _, _| Ok(())).unwrap_err();
        assert!(err.to_string().contains("line 3"), "{err}");
    }

    #[test]
    fn value_records_answer_like_csv_records() {
        let values = [1.5, -2.0, f64::NAN];
        let rec = Record::from_values(&values, 7);
        assert_eq!(rec.num_fields(), 3);
        assert_eq!(rec.f64(0).unwrap(), 1.5);
        assert!(rec.f64(2).unwrap().is_nan());
        assert!(rec.f64(9).is_err(), "out-of-range column is an error");
        let mut out = Vec::new();
        rec.extract_f64(&[1, 0], &mut out).unwrap();
        assert_eq!(out, vec![-2.0, 1.5]);
    }

    #[test]
    fn csv_batches_parse_only_the_requested_fields_in_request_order() {
        // Column 1 is text on the second line: a request without it scans.
        let f = MemFile::from_text(
            "1,10,100\n2,x,200\n",
            Schema::synthetic(3),
            CsvFormat::headerless(),
        );
        let rows = scanned_rows(&f, &ScanRequest::whole(&[2, 0, 2])).unwrap();
        assert_eq!(
            rows,
            vec![(0, vec![100.0, 1.0, 100.0]), (9, vec![200.0, 2.0, 200.0])]
        );
        let err = scanned_rows(&f, &ScanRequest::whole(&[1])).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        // Locators alone: nothing is parsed.
        assert_eq!(scanned_rows(&f, &ScanRequest::whole(&[])).unwrap().len(), 2);
    }

    #[test]
    fn default_partitions_degrade_to_serial_scan() {
        /// A backend that overrides nothing optional.
        struct Plain(MemFile);
        impl RawFile for Plain {
            fn schema(&self) -> &Schema {
                self.0.schema()
            }
            fn counters(&self) -> &IoCounters {
                self.0.counters()
            }
            fn size_bytes(&self) -> u64 {
                self.0.size_bytes()
            }
            fn scan_batches(
                &self,
                request: &ScanRequest<'_>,
                handler: &mut BatchHandler<'_>,
            ) -> Result<()> {
                self.0.scan_batches(request, handler)
            }
            fn read_rows_into(
                &self,
                locs: &[RowLocator],
                attrs: &[AttrId],
                window: Option<&Rect>,
                out: &mut RowBatch,
            ) -> Result<()> {
                self.0.read_rows_into(locs, attrs, window, out)
            }
        }
        let f = Plain(sample());
        let parts = f.partitions(8).unwrap();
        assert_eq!(parts, vec![ScanPartition::WHOLE]);
        let rows = scanned_rows(&f, &part_request(parts[0], &[1])).unwrap();
        assert_eq!(rows.len(), 3);
        // The row scan is provided over the batch scan.
        let mut xs = Vec::new();
        f.scan(&mut |_, _, rec| {
            xs.push(rec.f64(0)?);
            Ok(())
        })
        .unwrap();
        assert_eq!(xs, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn mem_file_partitions_like_the_csv_file() {
        let f = sample();
        let parts = f.partitions(3).unwrap();
        assert_eq!(parts.len(), 3, "one line-aligned shard per data row");
        let mut seen = Vec::new();
        for p in parts {
            seen.extend(scanned_rows(&f, &part_request(p, &[0, 1, 2])).unwrap());
        }
        let values = |r: f64| vec![r, 10.0 * r, 100.0 * r];
        assert_eq!(
            seen,
            vec![(15, values(1.0)), (24, values(2.0)), (33, values(3.0))]
        );
        // Between them the shards charged exactly one full scan.
        let sharded = f.counters().snapshot();
        f.counters().reset();
        f.scan(&mut |_, _, _| Ok(())).unwrap();
        assert_eq!(sharded, f.counters().snapshot());
    }

    #[test]
    fn csv_whole_partition_skips_the_header() {
        let dir = std::env::temp_dir().join("pai_storage_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("whole.csv");
        std::fs::write(&path, "col0,col1\n1,2\n3,4\n").unwrap();
        let f = CsvFile::open(&path, Schema::synthetic(2), CsvFormat::default()).unwrap();
        let rows = scanned_rows(&f, &ScanRequest::whole(&[0])).unwrap();
        assert_eq!(
            rows,
            vec![(10, vec![1.0]), (14, vec![3.0])],
            "header must not leak as a record"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn default_pushdown_hooks_degrade_to_unfiltered() {
        // CSV/Mem backends have no block structure: the hints are inert.
        let f = sample();
        assert!(f.block_stats().is_none());
        let request = ScanRequest {
            window: Some(&Rect::new(0.0, 1.0, 0.0, 1.0)),
            ..ScanRequest::whole(&[0])
        };
        let rows = scanned_rows(&f, &request).unwrap().len();
        assert_eq!(rows, 3, "a windowed CSV scan is a plain full scan");
        assert_eq!(f.counters().blocks_read(), 0);
        assert_eq!(f.counters().blocks_skipped(), 0);

        let mut locs = Vec::new();
        f.scan(&mut |_, loc, _| {
            locs.push(loc);
            Ok(())
        })
        .unwrap();
        let plain = f.read_rows(&locs, &[2]).unwrap();
        let hinted =
            crate::batch::read_window(&f, &locs, &[2], Some(&Rect::new(0.0, 1.0, 0.0, 1.0)));
        assert_eq!(plain, hinted, "CSV reads ignore the window hint");
    }

    #[test]
    fn block_stats_window_pruning() {
        let b = BlockStats {
            row_start: 0,
            row_end: 10,
            min: vec![0.0, 5.0, -1.0],
            max: vec![4.0, 9.0, 1.0],
        };
        // Overlapping on both axes.
        assert!(b.may_intersect_window(0, 1, &Rect::new(3.0, 8.0, 6.0, 7.0)));
        // Disjoint in x: block x ends at 4, window starts at 4 (half-open
        // windows include their min edge, so 4 itself would be selected —
        // but the block's closed max 4.0 *is* selectable; boundary check).
        assert!(b.may_intersect_window(0, 1, &Rect::new(4.0, 8.0, 6.0, 7.0)));
        assert!(!b.may_intersect_window(0, 1, &Rect::new(4.1, 8.0, 6.0, 7.0)));
        // Window's exclusive max edge: block starting at 0 misses (-5, 0).
        assert!(!b.may_intersect_window(0, 1, &Rect::new(-5.0, 0.0, 6.0, 7.0)));
        // Disjoint in y.
        assert!(!b.may_intersect_window(0, 1, &Rect::new(0.0, 10.0, 10.0, 20.0)));
        // NaN envelopes can never prune.
        let nan = BlockStats {
            row_start: 0,
            row_end: 10,
            min: vec![f64::NAN, 5.0],
            max: vec![f64::NAN, 9.0],
        };
        assert!(nan.may_intersect_window(0, 1, &Rect::new(100.0, 200.0, 100.0, 200.0)));
        // Missing columns can never prune either.
        assert!(b.may_intersect_window(7, 8, &Rect::new(100.0, 200.0, 100.0, 200.0)));
    }

    #[test]
    fn column_synopsis_moments_and_histogram() {
        let vals = [1.0, 2.0, 3.0, 4.0, f64::NAN, 5.0];
        let s = ColumnSynopsis::from_values(&vals, 4);
        assert_eq!(s.count, 5, "NaN excluded");
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.sum, 15.0);
        assert_eq!(s.sum_sq, 55.0);
        assert_eq!(s.hist.iter().sum::<u64>(), 5);
        // [2, 4): true count is 2 (values 2, 3); bounds must contain it.
        let (lo, hi) = s.mass_in(2.0, 4.0);
        assert!(lo <= 2 && 2 <= hi, "({lo}, {hi})");
        // The whole envelope (half-open, so past max).
        assert_eq!(s.mass_in(0.0, 6.0), (5, 5));
        // Disjoint on either side.
        assert_eq!(s.mass_in(6.0, 9.0), (0, 0));
        assert_eq!(s.mass_in(-3.0, 1.0), (0, 0), "hi edge is exclusive");
        // Window starting exactly at max still may select max.
        let (lo, hi) = s.mass_in(5.0, 9.0);
        assert!(lo <= 1 && 1 <= hi);
    }

    #[test]
    fn column_synopsis_degenerate_and_empty() {
        let all_nan = ColumnSynopsis::from_values(&[f64::NAN, f64::NAN], 4);
        assert_eq!(all_nan.count, 0);
        assert_eq!(all_nan.mass_in(0.0, 1.0), (0, 0));

        let constant = ColumnSynopsis::from_values(&[7.0; 10], 4);
        assert_eq!(constant.mass_in(7.0, 8.0), (10, 10));
        assert_eq!(constant.mass_in(0.0, 7.0), (0, 0), "hi edge exclusive");

        // NaN interval endpoints degrade conservatively.
        let s = ColumnSynopsis::from_values(&[1.0, 2.0], 4);
        assert_eq!(s.mass_in(f64::NAN, 5.0), (0, 2));

        // Infinite envelope cannot be bucketed; still sound.
        let inf = ColumnSynopsis::from_values(&[0.0, f64::INFINITY], 4);
        assert_eq!(inf.mass_in(-1.0, 1.0), (0, 2));

        // Buckets that do not add up to the count (file bytes) bracket
        // nothing, and summing them cannot overflow.
        for hist in [vec![u64::MAX, 1], vec![1 << 63, 1 << 63], vec![3, 3]] {
            let s = ColumnSynopsis {
                count: 5,
                hist,
                ..ColumnSynopsis::from_values(&[1.0, 20.0], 2)
            };
            assert!(!s.hist_adds_up(), "{:?}", s.hist);
            assert_eq!(s.mass_in(-1.0, 20.0), (0, 5), "{:?}", s.hist);
        }
    }

    #[test]
    fn block_synopsis_coverage_and_mass() {
        // Two columns: x = row id, y = constant 5.
        let columns = vec![(0..8).map(|i| i as f64).collect(), vec![5.0; 8]];
        let blocks = build_block_synopses(&columns, 4, &SynopsisSpec::default());
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].row_start, 0);
        assert_eq!(blocks[0].row_end, 4);
        assert_eq!(blocks[1].rows(), 4);
        // Block 0 (x in [0,3], y = 5) is covered by a window past both.
        let covering = Rect::new(-1.0, 4.0, 0.0, 10.0);
        assert!(blocks[0].covered_by(0, 1, &covering));
        assert!(!blocks[1].covered_by(0, 1, &covering));
        // Fully-selected block: exact mass.
        assert_eq!(blocks[0].selected_mass(0, 1, &covering), (4, 4));
        // A window selecting y nothing: (0, 0).
        let dead = Rect::new(-1.0, 4.0, 10.0, 20.0);
        assert_eq!(blocks[0].selected_mass(0, 1, &dead), (0, 0));
        // Partial window: bounds contain the truth (x in [1, 3) → 2 rows).
        let partial = Rect::new(1.0, 3.0, 0.0, 10.0);
        let (lo, hi) = blocks[0].selected_mass(0, 1, &partial);
        assert!(lo <= 2 && 2 <= hi, "({lo}, {hi})");
        assert!(blocks[0].approx_bytes() > 0);
        // The moments as exact statistics: x = 0..3 in block 0.
        let x = blocks[0].stats(0).unwrap();
        assert_eq!(
            (x.count(), x.sum(), x.range()),
            (4, 6.0, Some(Interval::new(0.0, 3.0)))
        );
        assert_eq!(blocks[0].stats(2), None, "no such column");
    }

    #[test]
    fn block_stats_refuse_records_no_block_could_hold() {
        let blocks = build_block_synopses(&[vec![1.0, 2.0, f64::NAN]], 3, &SynopsisSpec::default());
        let with = |edit: &dyn Fn(&mut ColumnSynopsis)| {
            let mut b = blocks[0].clone();
            edit(&mut b.cols[0]);
            b.stats(0)
        };
        assert_eq!(with(&|_| {}).map(|s| s.count()), Some(2));
        assert_eq!(with(&|c| c.count = 4), None, "more values than rows");
        assert_eq!(with(&|c| (c.min, c.max) = (2.0, 1.0)), None, "inverted");
        assert_eq!(with(&|c| c.max = 1e300), None, "past the sum-safe range");
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(with(&|c| c.min = bad), None, "{bad}");
            assert_eq!(with(&|c| c.sum = bad), None, "{bad}");
            assert_eq!(with(&|c| c.sum_sq = bad), None, "{bad}");
        }
        // Buckets that do not add up to the count, or overflow adding up.
        assert_eq!(with(&|c| c.hist[0] += 1), None, "buckets over the count");
        assert_eq!(with(&|c| c.hist[0] = u64::MAX), None, "overflowing buckets");
        // No value: the envelope's NaN convention is no claim at all.
        let none = with(&|c| {
            c.count = 0;
            c.hist.fill(0);
        })
        .unwrap();
        assert_eq!((none.count(), none.range()), (0, None));
    }

    #[test]
    fn csv_backends_compute_synopses_lazily() {
        let f = sample();
        assert!(f.block_stats().is_none(), "CSV still has no zone maps");
        let before = f.counters().full_scans();
        let syn = f.block_synopses().expect("numeric CSV derives synopses");
        assert_eq!(syn.len(), 1, "3 rows fit one synthetic block");
        assert_eq!(syn[0].rows(), 3);
        assert_eq!(syn[0].cols[0].sum, 6.0);
        assert_eq!(
            f.counters().full_scans(),
            before + 1,
            "the lazy compute pays one metered scan"
        );
        // Second call is free and shared across clones.
        let clone = f.clone();
        let again = clone.block_synopses().unwrap();
        assert_eq!(again[0].cols[0].sum, 6.0);
        assert_eq!(f.counters().full_scans(), before + 1);
    }

    #[test]
    fn text_columns_yield_no_synopses() {
        let schema = Schema::new(
            vec![Column::float("x"), Column::float("y"), Column::text("name")],
            0,
            1,
        )
        .unwrap();
        let f = MemFile::from_text("1,2,alpha\n", schema, CsvFormat::headerless());
        assert!(f.block_synopses().is_none());
    }

    #[test]
    fn csv_file_partitions_cover_all_rows() {
        let dir = std::env::temp_dir().join("pai_storage_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("partitions.csv");
        let mut text = String::from("col0,col1\n");
        for i in 0..100 {
            text.push_str(&format!("{i},{}\n", i * 2));
        }
        std::fs::write(&path, text).unwrap();
        let f = CsvFile::open(&path, Schema::synthetic(2), CsvFormat::default()).unwrap();
        let parts = f.partitions(4).unwrap();
        assert!(parts.len() > 1, "100 rows should shard into several parts");
        let mut xs: Vec<f64> = Vec::new();
        for p in parts {
            let rows = scanned_rows(&f, &part_request(p, &[0])).unwrap();
            xs.extend(rows.into_iter().map(|(_, v)| v[0]));
        }
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(xs.len(), 100);
        assert_eq!(xs[99], 99.0);
        std::fs::remove_file(&path).ok();
    }
}
