//! `PaiBin`: a fixed-stride binary columnar raw-file format.
//!
//! The paper's adaptation cost is dominated by positional reads of raw-file
//! objects. Over CSV every such read re-parses a whole variable-length text
//! line; this module provides the production alternative: values stored as
//! little-endian `f64` in column-major order, so the byte position of any
//! value is pure arithmetic —
//!
//! ```text
//! position(row, col) = data_start + (col · n_rows + row) · 8
//! ```
//!
//! — O(1) row addressing (`row_id * stride`, stride = 8 inside a column), no
//! parsing, and positional reads that fetch exactly the 8 bytes per
//! requested value instead of a full record. Locators handed out by
//! [`BinFile`] are therefore plain row ids, not byte offsets.
//!
//! ## On-disk layout
//!
//! ```text
//! magic      8  bytes   b"PAIBIN01"
//! n_cols     u32 LE
//! x_axis     u32 LE     axis column ids (see `Schema`)
//! y_axis     u32 LE
//! n_rows     u64 LE
//! per column: name_len u16 LE, then `name_len` UTF-8 bytes
//! data       n_cols · n_rows · 8 bytes, column-major f64 LE
//! ```
//!
//! Only numeric columns are representable (integers ride along as `f64`,
//! NaN encodes NULL, same convention as the CSV parser). Text columns must
//! stay in CSV.
//!
//! ## Access paths
//!
//! * **Sequential scan** — a paged reader pulls `PAGE_ROWS` rows of every
//!   requested column per step (contiguous per-column reads) and lends the
//!   decoded pages to the handler as one batch. The scan shards cleanly on
//!   row ranges, so parallel initialization works out of the box.
//! * **Positional reads** — requested row ids are sorted and coalesced into
//!   maximal runs of adjacent rows per column; each run is one seek + one
//!   read of exactly `8 · run_len` bytes. Clustered tiles degrade to
//!   near-sequential I/O, scattered ones pay 8 bytes per value instead of a
//!   full CSV line.

use std::fs::File;
use std::io::Read;
use std::path::Path;
use std::sync::Arc;

use pai_common::geometry::Rect;
use pai_common::{AttrId, IoCounters, PaiError, Result, RowLocator};

use crate::batch::RowBatch;
use crate::cache::CacheMode;
use crate::fetch::{Source, SpanMeters};
use crate::mapped::Mapping;
use crate::raw::{
    buffer_columns, check_attrs, distinct_columns, BatchHandler, BatchLocators, RawFile, ScanBatch,
    ScanPartition, ScanRequest,
};
use crate::remote::HttpBlob;
use crate::schema::{Column, Schema};

/// File magic, including the format version.
pub const PAIBIN_MAGIC: [u8; 8] = *b"PAIBIN01";

/// Rows fetched per column per step of a sequential scan (the page size of
/// the paged reader, in rows; 4096 rows = 32 KiB per column page).
pub(crate) const PAGE_ROWS: u64 = 4096;

/// Upper bound on the column count a header may declare; anything above is
/// treated as corruption (real schemas top out in the dozens).
const MAX_COLUMNS: usize = 65_536;

// ---------------------------------------------------------------------------
// Header encoding/decoding.
// ---------------------------------------------------------------------------

fn encode_header(schema: &Schema, n_rows: u64) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&PAIBIN_MAGIC);
    out.extend_from_slice(&(schema.len() as u32).to_le_bytes());
    out.extend_from_slice(&(schema.x_axis() as u32).to_le_bytes());
    out.extend_from_slice(&(schema.y_axis() as u32).to_le_bytes());
    out.extend_from_slice(&n_rows.to_le_bytes());
    for col in schema.columns() {
        if !col.ty.is_numeric() {
            return Err(PaiError::schema(format!(
                "column '{}' is not numeric; text columns cannot be stored in PaiBin",
                col.name
            )));
        }
        let name = col.name.as_bytes();
        if name.len() > u16::MAX as usize {
            return Err(PaiError::schema(format!(
                "column name '{}…' too long for the PaiBin header",
                &col.name[..32.min(col.name.len())]
            )));
        }
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name);
    }
    Ok(out)
}

/// Decoded header: schema, row count, and where the column data begins.
struct BinHeader {
    schema: Schema,
    n_rows: u64,
    data_start: u64,
}

fn corrupt(what: impl Into<String>) -> PaiError {
    PaiError::internal(format!("corrupt PaiBin file: {}", what.into()))
}

fn decode_header<R: Read>(reader: &mut R) -> Result<BinHeader> {
    let mut magic = [0u8; 8];
    reader
        .read_exact(&mut magic)
        .map_err(|_| corrupt("truncated magic"))?;
    if magic != PAIBIN_MAGIC {
        return Err(corrupt("bad magic (not a PaiBin file?)"));
    }
    let mut u32buf = [0u8; 4];
    let mut read_u32 = |reader: &mut R, what: &str| -> Result<u32> {
        reader
            .read_exact(&mut u32buf)
            .map_err(|_| corrupt(format!("truncated {what}")))?;
        Ok(u32::from_le_bytes(u32buf))
    };
    let n_cols = read_u32(reader, "column count")? as usize;
    // Guard the allocation below: a corrupt/crafted count must surface as
    // the usual corruption error, not an out-of-memory abort.
    if n_cols == 0 || n_cols > MAX_COLUMNS {
        return Err(corrupt(format!(
            "implausible column count {n_cols} (max {MAX_COLUMNS})"
        )));
    }
    let x_axis = read_u32(reader, "x-axis id")? as usize;
    let y_axis = read_u32(reader, "y-axis id")? as usize;
    let mut u64buf = [0u8; 8];
    reader
        .read_exact(&mut u64buf)
        .map_err(|_| corrupt("truncated row count"))?;
    let n_rows = u64::from_le_bytes(u64buf);

    let mut data_start = (8 + 4 + 4 + 4 + 8) as u64;
    let mut columns = Vec::with_capacity(n_cols);
    for i in 0..n_cols {
        let mut lenbuf = [0u8; 2];
        reader
            .read_exact(&mut lenbuf)
            .map_err(|_| corrupt(format!("truncated name of column {i}")))?;
        let len = u16::from_le_bytes(lenbuf) as usize;
        let mut name = vec![0u8; len];
        reader
            .read_exact(&mut name)
            .map_err(|_| corrupt(format!("truncated name of column {i}")))?;
        let name =
            String::from_utf8(name).map_err(|_| corrupt(format!("column {i} name not UTF-8")))?;
        columns.push(Column::float(name));
        data_start += 2 + len as u64;
    }
    let schema = Schema::new(columns, x_axis, y_axis)?;
    Ok(BinHeader {
        schema,
        n_rows,
        data_start,
    })
}

// ---------------------------------------------------------------------------
// Encoding (the CSV → binary converter).
// ---------------------------------------------------------------------------

/// Serializes fully-buffered columns plus header into PaiBin bytes.
fn encode_columns(schema: &Schema, columns: Vec<Vec<f64>>) -> Result<Vec<u8>> {
    let n_rows = columns.first().map_or(0, |c| c.len()) as u64;
    debug_assert!(columns.iter().all(|c| c.len() as u64 == n_rows));
    let mut out = encode_header(schema, n_rows)?;
    out.reserve(columns.len() * n_rows as usize * 8);
    for col in &columns {
        for &v in col {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    Ok(out)
}

/// Encodes an iterator of numeric rows (each `schema.len()` wide) as PaiBin
/// bytes. The transpose to column-major happens in memory.
pub fn encode_rows<I>(schema: &Schema, rows: I) -> Result<Vec<u8>>
where
    I: IntoIterator<Item = Vec<f64>>,
{
    let n_cols = schema.len();
    let mut columns: Vec<Vec<f64>> = vec![Vec::new(); n_cols];
    for (i, row) in rows.into_iter().enumerate() {
        if row.len() != n_cols {
            return Err(PaiError::schema(format!(
                "row {i} has {} values, schema has {n_cols} columns",
                row.len()
            )));
        }
        for (col, &v) in columns.iter_mut().zip(&row) {
            col.push(v);
        }
    }
    encode_columns(schema, columns)
}

/// One-pass CSV → binary converter: scans `src` once, buffering each column,
/// and returns the dataset re-encoded as PaiBin bytes.
///
/// Fails on schemas with text columns (PaiBin is numeric-only). The scan is
/// metered on `src`'s counters like any other full pass. Peak memory is
/// roughly twice the dataset's binary size (column buffers + the returned
/// bytes); prefer [`write_bin`] for large datasets, which streams the
/// encoded bytes to disk instead of materializing them.
pub fn convert_to_bin(src: &dyn RawFile) -> Result<Vec<u8>> {
    let (schema, columns) = buffer_columns(src, "PaiBin")?;
    encode_columns(&schema, columns)
}

/// Converts `src` to PaiBin on disk at `path` and opens the result.
///
/// Same single conversion pass as [`convert_to_bin`], but the encoded bytes
/// stream straight to the file: peak memory is one `f64` per dataset value
/// (the column buffers), not that plus a full serialized copy.
pub fn write_bin(src: &dyn RawFile, path: impl AsRef<Path>) -> Result<BinFile> {
    let (schema, columns) = buffer_columns(src, "PaiBin")?;
    let n_rows = columns.first().map_or(0, |c| c.len()) as u64;
    let mut out = std::io::BufWriter::with_capacity(1 << 20, File::create(path.as_ref())?);
    use std::io::Write;
    out.write_all(&encode_header(&schema, n_rows)?)?;
    for col in &columns {
        for &v in col {
            out.write_all(&v.to_le_bytes())?;
        }
    }
    out.flush()?;
    drop(out);
    BinFile::open(path)
}

// ---------------------------------------------------------------------------
// BinFile.
// ---------------------------------------------------------------------------

/// A PaiBin binary columnar file. Locators are row ids.
///
/// Cloning is cheap and clones share the same [`IoCounters`]; each access
/// opens its own handle, so a `BinFile` can serve concurrent readers just
/// like [`crate::CsvFile`].
#[derive(Debug, Clone)]
pub struct BinFile {
    source: Source,
    schema: Schema,
    n_rows: u64,
    data_start: u64,
    size_bytes: u64,
    counters: IoCounters,
}

impl BinFile {
    /// Opens an existing PaiBin file, validating header and size.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        Self::over(Source::Disk(path.as_ref().to_path_buf()))
    }

    /// Opens an existing PaiBin file through a zero-copy memory mapping
    /// (buffered fallback on platforms without `mmap`). Behaviourally
    /// identical to [`BinFile::open`] — same locators, same metering — but
    /// positional reads become pointer arithmetic into shared pages instead
    /// of seek+read syscalls, which is exactly what the batched adaptation
    /// fetch wants.
    pub fn open_mapped(path: impl AsRef<Path>) -> Result<Self> {
        Self::over(Source::Mapped(Arc::new(Mapping::map(path)?)))
    }

    /// Opens a PaiBin image that lives behind a remote object store. The
    /// header is fetched and validated up front; column data is fetched on
    /// demand through the blob's coalescing span reads. The file shares the
    /// blob's [`IoCounters`].
    pub fn open_remote(blob: Arc<HttpBlob>) -> Result<Self> {
        Self::over(Source::Remote(blob))
    }

    /// Wraps in-memory PaiBin bytes (tests, examples, converters).
    pub fn from_bytes(bytes: impl Into<Vec<u8>>) -> Result<Self> {
        Self::over(Source::Mem(Arc::new(bytes.into())))
    }

    /// Decodes the header at the start of `source` and checks the size.
    fn over(source: Source) -> Result<Self> {
        let (size, header) = {
            let (size, mut reader) = source.open()?;
            (size, decode_header(&mut reader)?)
        };
        let file = BinFile {
            counters: source.counters(),
            source,
            schema: header.schema,
            n_rows: header.n_rows,
            data_start: header.data_start,
            size_bytes: size,
        };
        file.validate_size()?;
        Ok(file)
    }

    /// Whether reads go through a zero-copy memory mapping.
    pub fn is_mapped(&self) -> bool {
        matches!(self.source, Source::Mapped(_))
    }

    /// Encodes numeric rows directly into an in-memory PaiBin file.
    pub fn from_rows<I>(schema: &Schema, rows: I) -> Result<Self>
    where
        I: IntoIterator<Item = Vec<f64>>,
    {
        BinFile::from_bytes(encode_rows(schema, rows)?)
    }

    /// Number of data rows in the file.
    pub fn n_rows(&self) -> u64 {
        self.n_rows
    }

    /// Location on disk, when file-backed. Mappings do not advertise a
    /// path (grab it before calling [`BinFile::open_mapped`]).
    pub fn path(&self) -> Option<&Path> {
        self.source.path()
    }

    fn validate_size(&self) -> Result<()> {
        // Checked arithmetic: a crafted row count must fail as corruption,
        // not overflow. Once this passes, every position() computed for
        // in-range (row, col) fits in u64.
        let expect = (self.schema.len() as u64)
            .checked_mul(self.n_rows)
            .and_then(|v| v.checked_mul(8))
            .and_then(|v| v.checked_add(self.data_start))
            .ok_or_else(|| corrupt("row count overflows the addressable size"))?;
        if self.size_bytes != expect {
            return Err(corrupt(format!(
                "size {} does not match header (expected {expect})",
                self.size_bytes
            )));
        }
        Ok(())
    }

    /// Byte position of `(row, col)` — the O(1) addressing PaiBin exists for.
    #[inline]
    fn position(&self, row: u64, col: usize) -> u64 {
        self.data_start + (col as u64 * self.n_rows + row) * 8
    }

    /// The engine of `scan_batches`: the rows of the request's partition, a
    /// page per batch, each requested column decoded into a page and lent.
    /// Everything is metered here; the range that begins the file carries
    /// the `full_scans` tick, so the partitions of one `partitions` call
    /// charge between them what one whole scan charges.
    fn scan_rows(&self, request: &ScanRequest<'_>, handler: &mut BatchHandler<'_>) -> Result<()> {
        let (start, end) = match request.partition {
            ScanPartition::WHOLE => (0, self.n_rows),
            p => (p.start, p.end),
        };
        if start == 0 {
            self.counters.add_full_scan();
        }
        if start >= end {
            return Ok(());
        }
        if end > self.n_rows {
            return Err(PaiError::internal(format!(
                "scan range [{start}, {end}) exceeds {} rows",
                self.n_rows
            )));
        }
        check_attrs(request.attrs, self.schema.len())?;
        let cols = distinct_columns(request.attrs);
        let mut fetcher = self.source.fetcher()?;
        // Paged reading, a group of pages per fetch call — as many as a
        // partition holds at most (`partitions`), so a partition is one
        // group: one span per (column, page), ordered column-major, so a
        // remote source merges a column's adjacent pages into one ranged
        // GET, while metering stays per page.
        let page_bytes = PAGE_ROWS * 8 * self.schema.len() as u64;
        let group_rows_max = crate::scan::units_per_shard(u64::MAX, page_bytes, 1) * PAGE_ROWS;
        let mut pages: Vec<Vec<f64>> = vec![Vec::new(); self.schema.len()];
        let mut row0 = start;
        let mut spans: Vec<(u64, u64)> = Vec::new();
        let mut bufs: Vec<Vec<u8>> = Vec::new();
        while row0 < end {
            let group_rows = group_rows_max.min(end - row0);
            let group_pages = group_rows.div_ceil(PAGE_ROWS) as usize;
            let page_rows = |p: usize| PAGE_ROWS.min(group_rows - p as u64 * PAGE_ROWS);
            spans.clear();
            for &col in &cols {
                spans.extend((0..group_pages).map(|p| {
                    let at = self.position(row0 + p as u64 * PAGE_ROWS, col);
                    (at, page_rows(p) * 8)
                }));
            }
            let mut m = SpanMeters::default();
            let fetched = fetcher.read_spans(&spans, &mut bufs, &mut m, CacheMode::Stream)?;
            self.counters.add_seeks(m.seeks);
            self.counters.add_bytes(m.bytes);
            self.counters
                .add_blocks_read((cols.len() * group_pages) as u64);
            for p in 0..group_pages {
                for (ci, &col) in cols.iter().enumerate() {
                    let buf = fetched.get(ci * group_pages + p);
                    let page = &mut pages[col];
                    page.clear();
                    page.extend(
                        buf.chunks_exact(8)
                            .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk"))),
                    );
                }
                // Objects are metered once per page, not with one shared
                // atomic per row.
                let rows = page_rows(p);
                self.counters.add_objects(rows);
                handler(&ScanBatch::new(
                    BatchLocators::Run(row0 + p as u64 * PAGE_ROWS),
                    &pages,
                    request.attrs,
                    0..rows as usize,
                ))?;
            }
            row0 += group_rows;
        }
        Ok(())
    }
}

impl RawFile for BinFile {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn value_bytes_hint(&self) -> Option<f64> {
        Some(8.0)
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
        self.scan_rows(request, handler)
    }

    fn read_rows_into(
        &self,
        locators: &[RowLocator],
        attrs: &[AttrId],
        _window: Option<&Rect>,
        out: &mut RowBatch,
    ) -> Result<()> {
        self.counters.add_read_call();
        for &a in attrs {
            if a >= self.schema.len() {
                return Err(PaiError::schema(format!(
                    "column id {a} out of range ({} columns)",
                    self.schema.len()
                )));
            }
        }
        // Sort requests by row id; remember each request's output slot.
        let mut order: Vec<(usize, u64)> = locators.iter().map(|l| l.raw()).enumerate().collect();
        order.sort_by_key(|&(_, row)| row);
        if let Some(&(_, max_row)) = order.last() {
            if max_row >= self.n_rows {
                return Err(PaiError::internal(format!(
                    "positional read of row {max_row} hit EOF ({} rows)",
                    self.n_rows
                )));
            }
        }

        let width = attrs.len();
        let out = out.reset(width, locators.len());
        if locators.is_empty() || attrs.is_empty() {
            self.counters.add_objects(locators.len() as u64);
            return Ok(());
        }

        let mut fetcher = self.source.fetcher()?;
        let mut m = SpanMeters::default();
        let mut blocks = 0u64;
        // Per-run decode work deferred until the attribute's span batch is
        // fetched: (first request index, one-past-last).
        let mut runs: Vec<(usize, usize)> = Vec::new();
        let mut spans: Vec<(u64, u64)> = Vec::new();
        let mut bufs: Vec<Vec<u8>> = Vec::new();
        for (ai, &attr) in attrs.iter().enumerate() {
            // Coalesce sorted rows into maximal runs of adjacent rows: one
            // seek + one exact read of 8·run_len bytes per run, the whole
            // attribute batched into one fetch call (a remote source merges
            // nearby runs into shared ranged GETs).
            runs.clear();
            spans.clear();
            let mut i = 0;
            // PAGE_ROWS-sized pages double as PaiBin's block unit for the
            // `blocks_read` meter (comparable with PaiZone's blocks); count
            // each page touched at most once per attribute.
            let mut counted_page: Option<u64> = None;
            while i < order.len() {
                let mut j = i + 1;
                while j < order.len() && order[j].1 == order[j - 1].1 + 1 {
                    j += 1;
                }
                let (p0, p1) = (order[i].1 / PAGE_ROWS, order[j - 1].1 / PAGE_ROWS);
                let from = match counted_page {
                    Some(p) if p >= p0 => p + 1,
                    _ => p0,
                };
                if from <= p1 {
                    blocks += p1 - from + 1;
                    counted_page = Some(p1);
                }
                let run_rows = (order[j - 1].1 - order[i].1 + 1) as usize;
                runs.push((i, j));
                spans.push((self.position(order[i].1, attr), run_rows as u64 * 8));
                i = j;
            }
            let fetched = fetcher.read_spans(&spans, &mut bufs, &mut m, CacheMode::Admit)?;
            for (&(i, j), buf) in runs.iter().zip(fetched.iter()) {
                for &(slot, row) in &order[i..j] {
                    let o = (row - order[i].1) as usize * 8;
                    out[slot * width + ai] =
                        f64::from_le_bytes(buf[o..o + 8].try_into().expect("8-byte value"));
                }
            }
        }
        self.counters.add_objects(locators.len() as u64);
        self.counters.add_bytes(m.bytes);
        self.counters.add_seeks(m.seeks);
        self.counters.add_blocks_read(blocks);
        Ok(())
    }

    fn partitions(&self, n: usize) -> Result<Vec<ScanPartition>> {
        assert!(n >= 1, "need at least one partition");
        if self.n_rows == 0 {
            return Ok(Vec::new());
        }
        // Whole pages per shard: the paged reader then fetches (and meters
        // as `blocks_read`) exactly the pages one full scan does.
        let pages = self.n_rows.div_ceil(PAGE_ROWS);
        let page_bytes = PAGE_ROWS * 8 * self.schema.len() as u64;
        let per_pages = crate::scan::units_per_shard(pages, page_bytes, n);
        let (n, per) = (pages.div_ceil(per_pages), per_pages * PAGE_ROWS);
        Ok((0..n)
            .map(|i| ScanPartition {
                start: i * per,
                end: ((i + 1) * per).min(self.n_rows),
            })
            .filter(|p| p.end > p.start)
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::CsvFormat;
    use crate::raw::{part_request, scanned_rows, MemFile};

    fn rows() -> Vec<Vec<f64>> {
        vec![
            vec![1.0, 10.0, 100.0],
            vec![2.0, 20.0, 200.0],
            vec![3.0, 30.0, 300.0],
            vec![4.0, 40.0, 400.0],
        ]
    }

    fn sample() -> BinFile {
        BinFile::from_rows(&Schema::synthetic(3), rows()).unwrap()
    }

    #[test]
    fn header_round_trip() {
        let f = sample();
        assert_eq!(f.n_rows(), 4);
        assert_eq!(f.schema().len(), 3);
        assert_eq!(f.schema().x_axis(), 0);
        assert_eq!(f.schema().y_axis(), 1);
        assert_eq!(f.schema().columns()[2].name, "col2");
        assert!(f.path().is_none());
    }

    #[test]
    fn scan_yields_row_id_locators() {
        let f = sample();
        let mut seen = Vec::new();
        f.scan(&mut |row, loc, rec| {
            seen.push((row, loc.raw(), rec.f64(0)?, rec.f64(2)?));
            Ok(())
        })
        .unwrap();
        assert_eq!(seen.len(), 4);
        assert_eq!(seen[0], (0, 0, 1.0, 100.0));
        assert_eq!(seen[3], (3, 3, 4.0, 400.0));
        assert_eq!(f.counters().full_scans(), 1);
        assert_eq!(f.counters().objects_read(), 4);
        // The scan fetches exactly the data region.
        assert_eq!(f.counters().bytes_read(), 3 * 4 * 8);
    }

    #[test]
    fn read_rows_by_row_id_in_request_order() {
        let f = sample();
        let locs: Vec<RowLocator> = [3u64, 0, 2].iter().map(|&r| RowLocator::new(r)).collect();
        let vals = f.read_rows(&locs, &[2, 0]).unwrap();
        assert_eq!(vals.width(), 2);
        assert_eq!(vals.values(), [400.0, 4.0, 100.0, 1.0, 300.0, 3.0]);
        assert_eq!(f.counters().objects_read(), 3);
        // 3 rows × 2 attrs × 8 bytes: positional reads fetch values only.
        assert_eq!(f.counters().bytes_read(), 3 * 2 * 8);
    }

    #[test]
    fn adjacent_rows_coalesce_into_one_run() {
        let f = sample();
        f.counters().reset();
        let locs: Vec<RowLocator> = (0..4).map(RowLocator::new).collect();
        let vals = f.read_rows(&locs, &[1]).unwrap();
        assert_eq!(vals.values().iter().sum::<f64>(), 100.0);
        assert_eq!(
            f.counters().seeks(),
            1,
            "a fully-adjacent batch is one run = one seek"
        );
        assert_eq!(f.counters().bytes_read(), 4 * 8);
    }

    #[test]
    fn duplicate_locators_read_twice() {
        let f = sample();
        let locs = [RowLocator::new(1), RowLocator::new(1)];
        let vals = f.read_rows(&locs, &[2]).unwrap();
        assert_eq!(vals.values(), [200.0, 200.0]);
    }

    #[test]
    fn out_of_range_row_is_internal_error() {
        let f = sample();
        let err = f.read_rows(&[RowLocator::new(99)], &[0]).unwrap_err();
        assert!(err.to_string().contains("EOF"), "{err}");
        assert!(f.read_rows(&[RowLocator::new(0)], &[17]).is_err());
    }

    #[test]
    fn nan_values_round_trip() {
        let f = BinFile::from_rows(
            &Schema::synthetic(3),
            vec![vec![1.0, 2.0, f64::NAN], vec![3.0, 4.0, 5.0]],
        )
        .unwrap();
        let vals = f
            .read_rows(&[RowLocator::new(0), RowLocator::new(1)], &[2])
            .unwrap();
        assert!(
            vals.row(0)[0].is_nan(),
            "NaN (NULL) survives the binary format"
        );
        assert_eq!(vals.row(1), [5.0]);
    }

    #[test]
    fn convert_from_csv_preserves_values() {
        let schema = Schema::synthetic(3);
        let csv = MemFile::from_rows(schema, CsvFormat::default(), rows()).unwrap();
        let bin = BinFile::from_bytes(convert_to_bin(&csv).unwrap()).unwrap();
        assert_eq!(bin.n_rows(), 4);
        let mut got = Vec::new();
        bin.scan(&mut |_, _, rec| {
            let mut vals = Vec::new();
            rec.extract_f64(&[0, 1, 2], &mut vals)?;
            got.push(vals);
            Ok(())
        })
        .unwrap();
        assert_eq!(got, rows());
        // The conversion scan was metered on the CSV source.
        assert_eq!(csv.counters().full_scans(), 1);
    }

    #[test]
    fn convert_rejects_text_columns() {
        let schema = Schema::new(
            vec![Column::float("x"), Column::float("y"), Column::text("t")],
            0,
            1,
        )
        .unwrap();
        let csv = MemFile::from_text("x,y,t\n1,2,hi\n", schema.clone(), CsvFormat::default());
        assert!(convert_to_bin(&csv).is_err());
        assert!(encode_rows(&schema, vec![vec![1.0, 2.0, 3.0]]).is_err());
    }

    #[test]
    fn disk_round_trip() {
        let dir = std::env::temp_dir().join("pai_column_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("round_trip.paibin");
        let csv = MemFile::from_rows(Schema::synthetic(3), CsvFormat::default(), rows()).unwrap();
        let bin = write_bin(&csv, &path).unwrap();
        assert_eq!(bin.path(), Some(path.as_path()));
        assert_eq!(bin.n_rows(), 4);
        let vals = bin.read_rows(&[RowLocator::new(2)], &[2]).unwrap();
        assert_eq!(vals.values(), [300.0]);
        // Reopening validates header + size.
        let reopened = BinFile::open(&path).unwrap();
        assert_eq!(reopened.n_rows(), 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_rejected() {
        let bytes = encode_rows(&Schema::synthetic(2), vec![vec![1.0, 2.0]]).unwrap();
        let mut truncated = bytes.clone();
        truncated.truncate(bytes.len() - 4);
        assert!(BinFile::from_bytes(truncated).is_err());
        let mut bad_magic = bytes;
        bad_magic[0] = b'X';
        assert!(BinFile::from_bytes(bad_magic).is_err());
    }

    #[test]
    fn absurd_column_count_is_an_error_not_an_abort() {
        // A crafted header claiming u32::MAX columns must fail cleanly
        // before any column-table allocation happens.
        let mut bytes = encode_rows(&Schema::synthetic(2), vec![vec![1.0, 2.0]]).unwrap();
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = BinFile::from_bytes(bytes).unwrap_err();
        assert!(err.to_string().contains("column count"), "{err}");
    }

    #[test]
    fn absurd_row_count_is_an_error_not_an_overflow() {
        // A crafted row count near u64::MAX must trip the checked size
        // validation (not wrap around and pass it).
        let mut bytes = encode_rows(&Schema::synthetic(2), vec![vec![1.0, 2.0]]).unwrap();
        bytes[20..28].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        let err = BinFile::from_bytes(bytes).unwrap_err();
        assert!(err.to_string().contains("corrupt"), "{err}");
    }

    #[test]
    fn whole_partition_scans_everything() {
        let f = sample();
        let rows = scanned_rows(&f, &ScanRequest::whole(&[2, 0])).unwrap();
        assert_eq!(
            rows.len(),
            4,
            "the trait-level WHOLE sentinel must be honored"
        );
        assert_eq!(rows[3], (3, vec![400.0, 4.0]));
        // Only the requested columns are fetched and charged.
        assert_eq!(f.counters().bytes_read(), 2 * 4 * 8);
        assert_eq!(f.counters().blocks_read(), 2);
    }

    #[test]
    fn partitions_cover_rows_exactly_once() {
        let many: Vec<Vec<f64>> = (0..1000).map(|i| vec![i as f64, 0.5, 1.0]).collect();
        let f = BinFile::from_rows(&Schema::synthetic(3), many).unwrap();
        for n in [1usize, 3, 7] {
            let parts = f.partitions(n).unwrap();
            let mut xs: Vec<f64> = Vec::new();
            for p in &parts {
                let rows = scanned_rows(&f, &part_request(*p, &[0])).unwrap();
                xs.extend(rows.into_iter().map(|(_, v)| v[0]));
            }
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            assert_eq!(xs.len(), 1000, "n={n}");
            assert_eq!(xs[999], 999.0);
        }
        // More partitions than rows degrades gracefully.
        let tiny = BinFile::from_rows(&Schema::synthetic(2), vec![vec![1.0, 2.0]]).unwrap();
        assert_eq!(tiny.partitions(16).unwrap().len(), 1);
    }

    #[test]
    fn partitions_are_whole_pages_of_at_most_one_scan_block() {
        // 300 000 rows × 2 columns decode to 4.8 MB: more than one scan
        // block, so even `partitions(1)` shards, at page boundaries.
        let rows = (0..300_000).map(|i| vec![i as f64, 1.0]);
        let f = BinFile::from_rows(&Schema::synthetic(2), rows).unwrap();
        let cap = crate::scan::BLOCK_BYTES / 16;
        for n in [1usize, 2, 5] {
            let parts = f.partitions(n).unwrap();
            assert!(parts.len() >= 2 && parts.len() >= n, "n={n}: {parts:?}");
            assert_eq!(parts[0].start, 0);
            assert_eq!(parts.last().unwrap().end, 300_000);
            for w in parts.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
            for p in &parts {
                assert_eq!(p.start % PAGE_ROWS, 0, "page-aligned: {p:?}");
                assert!(p.end - p.start <= cap, "{p:?}");
            }
        }
        // Page-aligned shards fetch exactly the pages one scan fetches.
        f.scan(&mut |_, _, _| Ok(())).unwrap();
        let serial = f.counters().snapshot();
        f.counters().reset();
        for p in f.partitions(5).unwrap() {
            scanned_rows(&f, &part_request(p, &[0, 1])).unwrap();
        }
        assert_eq!(f.counters().snapshot(), serial);
    }

    #[test]
    fn empty_file_scans_nothing() {
        let f = BinFile::from_rows(&Schema::synthetic(2), Vec::<Vec<f64>>::new()).unwrap();
        assert_eq!(f.n_rows(), 0);
        let mut rows = 0;
        f.scan(&mut |_, _, _| {
            rows += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(rows, 0);
        assert!(f.partitions(4).unwrap().is_empty());
    }

    #[test]
    fn scan_and_fetch_meter_page_blocks() {
        let many: Vec<Vec<f64>> = (0..10_000).map(|i| vec![i as f64, 0.5, 1.0]).collect();
        let f = BinFile::from_rows(&Schema::synthetic(3), many).unwrap();
        f.scan(&mut |_, _, _| Ok(())).unwrap();
        // 10_000 rows = 3 pages of 4096, times 3 columns.
        assert_eq!(f.counters().blocks_read(), 9);
        assert_eq!(f.counters().blocks_skipped(), 0);

        f.counters().reset();
        // Rows straddling a page boundary: 2 pages for 1 attribute.
        let locs: Vec<RowLocator> = (4090..4100).map(RowLocator::new).collect();
        f.read_rows(&locs, &[2]).unwrap();
        assert_eq!(f.counters().blocks_read(), 2);

        f.counters().reset();
        // Two scattered reads inside one page still count the page once.
        let locs = [RowLocator::new(10), RowLocator::new(300)];
        f.read_rows(&locs, &[2]).unwrap();
        assert_eq!(f.counters().blocks_read(), 1);
    }

    #[test]
    fn mapped_bin_file_matches_streamed_reads() {
        let dir = std::env::temp_dir().join("pai_column_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mapped.paibin");
        let csv = MemFile::from_rows(Schema::synthetic(3), CsvFormat::default(), rows()).unwrap();
        let bin = write_bin(&csv, &path).unwrap();
        let mapped = BinFile::open_mapped(&path).unwrap();
        assert!(mapped.is_mapped());
        assert!(!bin.is_mapped());
        assert_eq!(mapped.n_rows(), bin.n_rows());
        assert_eq!(mapped.path(), None, "mappings do not advertise a path");

        let locs: Vec<RowLocator> = (0..4).rev().map(RowLocator::new).collect();
        assert_eq!(
            mapped.read_rows(&locs, &[0, 2]).unwrap(),
            bin.read_rows(&locs, &[0, 2]).unwrap()
        );
        let mut rows_seen = 0;
        mapped
            .scan(&mut |_, _, _| {
                rows_seen += 1;
                Ok(())
            })
            .unwrap();
        assert_eq!(rows_seen, 4);
        // Metering stays comparable: same logical bytes either way.
        assert_eq!(
            mapped.counters().bytes_read(),
            bin.counters().bytes_read() + 3 * 4 * 8
        );
        std::fs::remove_file(&path).ok();
    }
}
