//! The raw-file abstraction: backend-agnostic in-situ access to data files.
//!
//! The index never materializes the dataset; it remembers, per object, only
//! the axis values and an opaque [`RowLocator`] handed out by the storage
//! backend. Two access paths mirror how the index uses a file:
//!
//! * [`RawFile::scan`] — one sequential pass over every record. Used exactly
//!   once per dataset, by index initialization ("crude index" construction),
//!   and by the ground-truth evaluator in tests/benches. Backends that can
//!   shard the pass expose [`RawFile::partitions`] +
//!   [`RawFile::scan_partition`] so initialization can parse partitions on
//!   several threads (and still fold them in file order).
//! * [`RawFile::read_rows_into`] — batched positional reads of specific
//!   records by locator, into one flat [`RowBatch`]. This is the I/O that
//!   adaptation pays for: when a partially-contained tile is processed, the
//!   engine reads the non-axis values of the objects inside it. Locators are
//!   served in file order, so clustered tiles read near-sequentially; every
//!   materialized row is metered.
//!
//! What a locator *means* is private to the backend: [`CsvFile`] hands out
//! byte offsets (records are variable-length text), while the binary
//! columnar backend ([`crate::column::BinFile`]) hands out row ids and
//! resolves them with `row_id * stride` arithmetic. [`MemFile`] serves tests
//! and examples with CSV semantics over an in-memory buffer (including
//! metering and line-aligned partitions — the same scanner, [`crate::scan`]).

use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use pai_common::geometry::Rect;
use pai_common::{AttrId, IoCounters, PaiError, Result, RowId, RowLocator};

use crate::batch::RowBatch;
use crate::csv::{self, CsvFormat};
use crate::schema::Schema;

/// A borrowed view over one record, lending field access without copying.
///
/// Backends produce records in their native representation: the CSV backends
/// lend pre-split byte ranges of a text line; binary backends lend a decoded
/// `f64` row. Consumers see one uniform accessor surface either way.
pub struct Record<'a> {
    inner: RecordInner<'a>,
}

enum RecordInner<'a> {
    /// A CSV line split into field byte ranges.
    Csv {
        line: &'a [u8],
        ranges: &'a [(usize, usize)],
        at: CsvPos,
    },
    /// An already-decoded numeric row (binary columnar backends).
    Values { values: &'a [f64], row: RowId },
}

/// Where a CSV record sits in its file, for error messages: a full scan
/// counts lines, a partitioned scan starts mid-file and only knows offsets.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CsvPos {
    /// 1-based line number.
    Line(u64),
    /// Byte offset of the record's first byte.
    Offset(u64),
}

impl CsvPos {
    pub(crate) fn error(self, msg: String) -> PaiError {
        match self {
            CsvPos::Line(n) => PaiError::parse(n, msg),
            CsvPos::Offset(o) => PaiError::parse_at(o, msg),
        }
    }
}

impl<'a> Record<'a> {
    /// Assembles a record view from pre-split CSV parts (crate-internal;
    /// used by the CSV scanners).
    pub(crate) fn from_parts(line: &'a [u8], ranges: &'a [(usize, usize)], at: CsvPos) -> Self {
        Record {
            inner: RecordInner::Csv { line, ranges, at },
        }
    }

    /// Assembles a record view over an already-decoded numeric row. This is
    /// the constructor binary backends use; `row` only labels errors.
    pub fn from_values(values: &'a [f64], row: RowId) -> Self {
        Record {
            inner: RecordInner::Values { values, row },
        }
    }

    /// Number of fields in the record.
    pub fn num_fields(&self) -> usize {
        match &self.inner {
            RecordInner::Csv { ranges, .. } => ranges.len(),
            RecordInner::Values { values, .. } => values.len(),
        }
    }

    /// Parses field `col` as f64 (empty → NaN).
    pub fn f64(&self, col: usize) -> Result<f64> {
        match &self.inner {
            RecordInner::Csv { line, ranges, at } => {
                let (a, b) = *ranges
                    .get(col)
                    .ok_or_else(|| at.error(csv::missing_column(ranges.len(), col)))?;
                csv::parse_f64_field(&line[a..b]).map_err(|msg| at.error(msg))
            }
            RecordInner::Values { values, row } => values
                .get(col)
                .copied()
                .ok_or_else(|| PaiError::parse(*row, csv::missing_column(values.len(), col))),
        }
    }

    /// Extracts several columns as f64 into `out` (cleared first).
    pub fn extract_f64(&self, wanted: &[usize], out: &mut Vec<f64>) -> Result<()> {
        match &self.inner {
            RecordInner::Csv { line, ranges, at } => {
                csv::extract_f64(line, ranges, wanted, out).map_err(|msg| at.error(msg))
            }
            RecordInner::Values { values, .. } => {
                out.clear();
                // The row is decoded already: a copy per field, and the
                // error (a column id past its end) built only when met.
                for &col in wanted {
                    match values.get(col) {
                        Some(&v) => out.push(v),
                        None => return self.f64(col).map(drop),
                    }
                }
                Ok(())
            }
        }
    }

    /// Raw text of field `col` (quotes stripped, `""` escapes not undone).
    ///
    /// Only text-capable backends (CSV) support this; binary columnar files
    /// store pure numeric data and return an error.
    pub fn text(&self, col: usize) -> Result<&'a str> {
        match &self.inner {
            RecordInner::Csv { line, ranges, at } => {
                let (a, b) = *ranges
                    .get(col)
                    .ok_or_else(|| at.error(format!("no column {col}")))?;
                std::str::from_utf8(&line[a..b])
                    .map_err(|_| at.error("field is not valid UTF-8".into()))
            }
            RecordInner::Values { .. } => Err(PaiError::unsupported(
                "binary records hold numeric values only; no text fields",
            )),
        }
    }
}

/// Visitor invoked per record during a sequential scan.
///
/// Arguments: row id (0-based over the scanned records), the record's
/// [`RowLocator`] (redeemable via [`RawFile::read_rows`]), and the parsed
/// record.
pub type RowHandler<'h> = dyn FnMut(RowId, RowLocator, &Record<'_>) -> Result<()> + 'h;

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
/// synopses lazily. Matches the zone/bin block size so `synopsis_blocks`
/// counts are comparable across backends.
pub const SYNOPSIS_BLOCK_ROWS: u32 = 4096;

/// Build parameters for per-block synopses: histogram resolution and the
/// per-block row-sample budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SynopsisSpec {
    /// Equi-width histogram buckets per column (at least 1).
    pub buckets: usize,
    /// Row samples retained per block (0 disables sampling).
    pub sample_rows: usize,
}

impl Default for SynopsisSpec {
    fn default() -> Self {
        SynopsisSpec {
            buckets: 8,
            sample_rows: 4,
        }
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

    /// Bounds on how many of this column's non-NaN values fall in the
    /// half-open interval `[lo, hi)`: returns `(lower, upper)` with
    /// `lower <= true count <= upper <= count`.
    ///
    /// Sound under floating-point bucket-edge rounding because both sides
    /// use the *same* monotone bucket-assignment function the histogram was
    /// built with: a bucket strictly between `lo`'s and `hi`'s buckets holds
    /// only values strictly inside `(lo, hi)`, and every selected value lands
    /// in a bucket between them inclusively. NaN interval endpoints or an
    /// unusable envelope degrade to the conservative `(0, count)`.
    pub fn mass_in(&self, lo: f64, hi: f64) -> (u64, u64) {
        if self.count == 0 {
            return (0, 0);
        }
        if lo.is_nan()
            || hi.is_nan()
            || self.min.is_nan()
            || self.max.is_nan()
            || self.min > self.max
        {
            return (0, self.count);
        }
        // Envelope provably disjoint from the interval (closed envelope vs
        // half-open interval, the same boundary logic as zone-map pruning).
        if self.max < lo || self.min >= hi {
            return (0, 0);
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

/// Answer-bearing per-block synopsis: one [`ColumnSynopsis`] per column plus
/// a handful of sampled rows. Where [`BlockStats`] can only *prune* a block,
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
    /// Deterministically stride-sampled rows (each `cols.len()` wide; may
    /// contain NaN fields). Empty when sampling is disabled.
    pub samples: Vec<Vec<f64>>,
}

impl BlockSynopsis {
    /// Number of rows the block covers.
    pub fn rows(&self) -> u64 {
        self.row_end - self.row_start
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
        let lower = (xl + yl).saturating_sub(rows).min(upper);
        (lower, upper)
    }

    /// Approximate in-memory footprint of this synopsis (the bytes the
    /// `synopsis_bytes` meter charges per consultation).
    pub fn approx_bytes(&self) -> u64 {
        let cols: u64 = self.cols.iter().map(|c| 40 + 8 * c.hist.len() as u64).sum();
        let samples: u64 = self.samples.iter().map(|s| 8 * s.len() as u64).sum();
        16 + cols + samples
    }
}

/// Builds per-block synopses from fully-buffered columns — the shared engine
/// behind the PaiZone writer's one-pass build and the CSV backends' lazy
/// computation. Row samples are taken at a deterministic even stride (no
/// RNG, so identical inputs always produce identical synopses).
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
        let rows = end - start;
        let cols: Vec<ColumnSynopsis> = columns
            .iter()
            .map(|c| ColumnSynopsis::from_values(&c[start..end], spec.buckets))
            .collect();
        let n_samples = spec.sample_rows.min(rows);
        let mut samples = Vec::with_capacity(n_samples);
        for k in 0..n_samples {
            let r = start + k * rows / n_samples;
            samples.push(columns.iter().map(|c| c[r]).collect());
        }
        out.push(BlockSynopsis {
            row_start: start as RowId,
            row_end: end as RowId,
            cols,
            samples,
        });
    }
    out
}

/// Buffers every numeric column of `file` with one metered scan and builds
/// synthetic-block synopses over it — the lazy path for backends without
/// block structure. Fails (→ no synopses) on text columns.
fn compute_scan_synopses(file: &dyn RawFile) -> Result<Vec<BlockSynopsis>> {
    let n_cols = file.schema().len();
    let wanted: Vec<AttrId> = (0..n_cols).collect();
    let mut columns: Vec<Vec<f64>> = vec![Vec::new(); n_cols];
    let mut vals = Vec::with_capacity(n_cols);
    file.scan(&mut |_, _, rec| {
        rec.extract_f64(&wanted, &mut vals)?;
        for (col, &v) in columns.iter_mut().zip(&vals) {
            col.push(v);
        }
        Ok(())
    })?;
    Ok(build_block_synopses(
        &columns,
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
pub trait RawFile: Send + Sync {
    /// Column schema of the file.
    fn schema(&self) -> &Schema;

    /// Shared I/O meters; every access path below increments them.
    fn counters(&self) -> &IoCounters;

    /// Total size of the file in bytes.
    fn size_bytes(&self) -> u64;

    /// Full sequential scan, invoking `handler` for every data record.
    fn scan(&self, handler: &mut RowHandler<'_>) -> Result<()>;

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
    /// Locators must have been handed out by this file's [`RawFile::scan`]
    /// (or [`RawFile::scan_partition`]). This is the metered random-access
    /// path that adaptation pays for.
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

    /// Splits the sequential scan into about `n` independently scannable
    /// shards, in file order (for the pipelined index build): at most `n`,
    /// unless it takes more to keep every shard within one scan block
    /// ([`crate::scan::BLOCK_BYTES`]) of decoded values, as the columnar
    /// backends do. The cut depends on the file and `n` alone, and the
    /// shards of one call charge between them exactly what one
    /// [`RawFile::scan`] charges — the shard that begins the file carries
    /// the `full_scans` tick — so a build's logical meters do not depend on
    /// how many threads scanned. Backends that cannot shard return the
    /// single [`ScanPartition::WHOLE`] partition, which makes a partitioned
    /// scan degrade gracefully to a serial one.
    fn partitions(&self, n: usize) -> Result<Vec<ScanPartition>> {
        let _ = n;
        Ok(vec![ScanPartition::WHOLE])
    }

    /// Scans the records inside one partition returned by
    /// [`RawFile::partitions`]. Row ids passed to the handler are *local* to
    /// the partition; locators are global, exactly as in a full scan.
    /// [`ScanPartition::WHOLE`] is the full scan on every backend.
    fn scan_partition(&self, partition: ScanPartition, handler: &mut RowHandler<'_>) -> Result<()> {
        if partition == ScanPartition::WHOLE {
            self.scan(handler)
        } else {
            Err(PaiError::internal(
                "this backend only supports the WHOLE scan partition",
            ))
        }
    }

    /// Per-block zone maps, when the backend maintains them. `None` (the
    /// default) means the file has no block structure — CSV text, for
    /// example — and every pushdown path degrades to unfiltered behavior.
    fn block_stats(&self) -> Option<&[BlockStats]> {
        None
    }

    /// Per-block answer-bearing synopses, when the backend maintains (or can
    /// derive) them. `None` (the default) means synopsis-first evaluation is
    /// unavailable and every query pays data I/O. PaiZone v2 files decode
    /// synopses from the header; CSV backends compute them lazily with one
    /// metered scan; wrappers forward to their inner file.
    fn block_synopses(&self) -> Option<&[BlockSynopsis]> {
        None
    }

    /// Expected logical bytes a positional read pays per (row, attribute)
    /// value, when the backend can estimate it cheaply — the seam cost
    /// prediction uses to turn "objects to read" into "bytes to read".
    /// `None` (the default) means the caller must fall back to file-level
    /// averages (`size_bytes` over total rows).
    fn value_bytes_hint(&self) -> Option<f64> {
        None
    }

    /// Sequential scan with an axis-window pushdown hint.
    ///
    /// Contract: the handler sees **every** record whose axis values fall
    /// inside `window`, and *may* additionally see records outside it —
    /// block skipping is coarse, so callers must keep their exact per-record
    /// filter. Zone-mapped backends skip whole blocks that
    /// [`BlockStats::may_intersect_window`] rules out (metering them as
    /// `blocks_skipped`); the default implementation ignores the hint and
    /// performs a plain full scan. Row ids passed to the handler are the
    /// file's row ids (contiguous for a full scan, gapped after a skip).
    fn scan_filtered(&self, window: &Rect, handler: &mut RowHandler<'_>) -> Result<()> {
        let _ = window;
        self.scan(handler)
    }

    /// Binds a shared [`crate::cache::BlockCache`] to this backend's
    /// transport, so span-batch fetches serve hits from the cache and
    /// subtract them before issuing transport requests. Returns `true` if
    /// this call installed the cache; the default (local backends, which
    /// have no remote transport to cache) ignores it and returns `false`.
    /// Wrappers forward to their inner file. A backend accepts at most one
    /// cache for its lifetime — later calls are no-ops returning `false`.
    fn attach_cache(&self, cache: std::sync::Arc<crate::cache::BlockCache>) -> bool {
        let _ = cache;
        false
    }

    /// Appends `rows` (each `schema().len()` wide) to the file, returning
    /// where they landed. Only appendable backends
    /// ([`crate::delta::AppendableFile`]) accept rows; every sealed backend
    /// keeps the default, which refuses with an `unsupported` error — static
    /// files stay provably immutable.
    fn append_rows(&self, rows: &[Vec<f64>]) -> Result<AppendReceipt> {
        let _ = rows;
        Err(PaiError::unsupported(
            "backend is sealed (no append path); wrap it in an AppendableFile",
        ))
    }

    /// Drops every cached span belonging to this file from its attached
    /// [`crate::cache::BlockCache`], returning how many entries were
    /// invalidated. Called after a rewrite (compaction) so the cache cannot
    /// serve spans from a retired generation. The default — backends with no
    /// cache binding — is a no-op.
    fn invalidate_cache(&self) -> u64 {
        0
    }

    /// Runs one compaction pass if at least `min_run` sealed delta blocks
    /// are waiting: re-clusters them into Z-order over `domain` (the same
    /// Morton key as [`crate::gen::morton_key`]), swaps the rewritten blocks
    /// in behind a generation bump, and invalidates stale cached spans.
    /// Returns `Ok(None)` when there is nothing to compact — which is the
    /// default for every backend without delta state, so a background
    /// compactor can drive any engine without knowing its backend.
    fn compact_once(&self, domain: &Rect, min_run: usize) -> Result<Option<CompactionReport>> {
        let _ = (domain, min_run);
        Ok(None)
    }
}

/// Boxed files are files: lets APIs hold `Box<dyn RawFile>` (e.g. a
/// backend chosen at runtime) and still pass `&file` everywhere a
/// `&dyn RawFile` is expected.
impl<T: RawFile + ?Sized> RawFile for Box<T> {
    fn schema(&self) -> &Schema {
        (**self).schema()
    }

    fn counters(&self) -> &IoCounters {
        (**self).counters()
    }

    fn size_bytes(&self) -> u64 {
        (**self).size_bytes()
    }

    fn scan(&self, handler: &mut RowHandler<'_>) -> Result<()> {
        (**self).scan(handler)
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

    fn partitions(&self, n: usize) -> Result<Vec<ScanPartition>> {
        (**self).partitions(n)
    }

    fn scan_partition(&self, partition: ScanPartition, handler: &mut RowHandler<'_>) -> Result<()> {
        (**self).scan_partition(partition, handler)
    }

    fn block_stats(&self) -> Option<&[BlockStats]> {
        (**self).block_stats()
    }

    fn block_synopses(&self) -> Option<&[BlockSynopsis]> {
        (**self).block_synopses()
    }

    fn value_bytes_hint(&self) -> Option<f64> {
        (**self).value_bytes_hint()
    }

    fn scan_filtered(&self, window: &Rect, handler: &mut RowHandler<'_>) -> Result<()> {
        (**self).scan_filtered(window, handler)
    }

    fn attach_cache(&self, cache: std::sync::Arc<crate::cache::BlockCache>) -> bool {
        (**self).attach_cache(cache)
    }

    fn append_rows(&self, rows: &[Vec<f64>]) -> Result<AppendReceipt> {
        (**self).append_rows(rows)
    }

    fn invalidate_cache(&self) -> u64 {
        (**self).invalidate_cache()
    }

    fn compact_once(&self, domain: &Rect, min_run: usize) -> Result<Option<CompactionReport>> {
        (**self).compact_once(domain, min_run)
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

    fn scan(&self, handler: &mut RowHandler<'_>) -> Result<()> {
        self.scan_partition(ScanPartition::WHOLE, handler)
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

    fn scan_partition(&self, partition: ScanPartition, handler: &mut RowHandler<'_>) -> Result<()> {
        let mut src = self.bytes()?;
        crate::scan::scan_range(&mut src, &self.fmt, partition, &self.counters, handler)
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

    fn scan(&self, handler: &mut RowHandler<'_>) -> Result<()> {
        self.scan_partition(ScanPartition::WHOLE, handler)
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

    fn scan_partition(&self, partition: ScanPartition, handler: &mut RowHandler<'_>) -> Result<()> {
        let mut src = self.data.as_slice();
        crate::scan::scan_range(&mut src, &self.fmt, partition, &self.counters, handler)
    }

    fn block_synopses(&self) -> Option<&[BlockSynopsis]> {
        self.synopses
            .get_or_init(|| compute_scan_synopses(self).ok())
            .as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, Schema};

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
    fn record_text_access() {
        let schema = Schema::new(
            vec![Column::float("x"), Column::float("y"), Column::text("name")],
            0,
            1,
        )
        .unwrap();
        let f = MemFile::from_text("1,2,alpha\n", schema, CsvFormat::headerless());
        let mut names = Vec::new();
        f.scan(&mut |_, _, rec| {
            names.push(rec.text(2)?.to_string());
            assert_eq!(rec.num_fields(), 3);
            Ok(())
        })
        .unwrap();
        assert_eq!(names, vec!["alpha"]);
    }

    #[test]
    fn parse_error_carries_line_number() {
        let f = MemFile::from_text(
            "col0,col1\n1,2\nbad,3\n",
            Schema::synthetic(2),
            CsvFormat::default(),
        );
        let err = f
            .scan(&mut |_, _, rec| {
                rec.f64(0)?;
                Ok(())
            })
            .unwrap_err();
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
        assert!(rec.text(0).is_err(), "binary records carry no text");
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
            fn scan(&self, handler: &mut RowHandler<'_>) -> Result<()> {
                self.0.scan(handler)
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
        let mut rows = 0;
        f.scan_partition(parts[0], &mut |_, _, _| {
            rows += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(rows, 3);
        // A partition this file never handed out is rejected.
        let bogus = ScanPartition { start: 1, end: 2 };
        assert!(f.scan_partition(bogus, &mut |_, _, _| Ok(())).is_err());
    }

    #[test]
    fn mem_file_partitions_like_the_csv_file() {
        let f = sample();
        let parts = f.partitions(3).unwrap();
        assert_eq!(parts.len(), 3, "one line-aligned shard per data row");
        let mut seen = Vec::new();
        for p in parts {
            f.scan_partition(p, &mut |_, loc, rec| {
                seen.push((loc.raw(), rec.f64(2)?));
                Ok(())
            })
            .unwrap();
        }
        assert_eq!(seen, vec![(15, 100.0), (24, 200.0), (33, 300.0)]);
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
        let mut xs = Vec::new();
        f.scan_partition(ScanPartition::WHOLE, &mut |_, _, rec| {
            xs.push(rec.f64(0)?);
            Ok(())
        })
        .unwrap();
        assert_eq!(xs, vec![1.0, 3.0], "header must not leak as a record");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn default_pushdown_hooks_degrade_to_unfiltered() {
        // CSV/Mem backends have no block structure: the hints are inert.
        let f = sample();
        assert!(f.block_stats().is_none());
        let mut rows = 0;
        f.scan_filtered(&Rect::new(0.0, 1.0, 0.0, 1.0), &mut |_, _, _| {
            rows += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(rows, 3, "default scan_filtered is a plain full scan");
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
        // Samples: deterministic, within the block, schema-wide.
        assert_eq!(blocks[0].samples.len(), 4);
        for s in &blocks[0].samples {
            assert_eq!(s.len(), 2);
            assert!(s[0] >= 0.0 && s[0] < 4.0);
        }
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
            f.scan_partition(p, &mut |_, _, rec| {
                xs.push(rec.f64(0)?);
                Ok(())
            })
            .unwrap();
        }
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(xs.len(), 100);
        assert_eq!(xs[99], 99.0);
        std::fs::remove_file(&path).ok();
    }
}
