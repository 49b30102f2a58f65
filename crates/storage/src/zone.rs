//! `PaiZone`: a zone-mapped, compressed binary columnar raw-file format.
//!
//! `PaiZone` is the one binary format: positional reads are arithmetic on a
//! row id, and two levers serve the exploration workload beyond that:
//!
//! * **Compression** — values are stored frame-of-reference: per block, each
//!   value is an unsigned delta from the block's minimum, bit-packed at the
//!   narrowest width that covers the block's range. Deltas are computed on
//!   an order-preserving `f64 → u64` mapping ([`enc_f64`]), so the scheme is
//!   **lossless** for every float (including NaN/±∞) while values that
//!   cluster — the normal case for real columns — pack far below 64 bits.
//!   Fixed width per block keeps random access pure arithmetic: value `i` of
//!   a block occupies bits `[i·w, (i+1)·w)`.
//! * **Zone maps + predicate pushdown** — the header stores each block's
//!   per-column min/max. A scan carrying a query window
//!   ([`crate::raw::ScanRequest::window`]) skips whole blocks whose axis
//!   envelopes are disjoint from the window, and a windowed positional read
//!   ([`crate::RawFile::read_rows_into`]) can prove requested rows
//!   irrelevant without touching storage. Skips are metered
//!   (`blocks_skipped`) next to the blocks actually fetched (`blocks_read`).
//!
//! ## On-disk layout
//!
//! ```text
//! magic      8  bytes   b"PAIZONE2"
//! n_cols     u32 LE
//! x_axis     u32 LE     axis column ids (see `Schema`)
//! y_axis     u32 LE
//! n_rows     u64 LE
//! block_rows u32 LE     rows per block (last block may be short)
//! per column: name_len u16 LE, then `name_len` UTF-8 bytes
//! block table: per column, per block:
//!              min_enc u64 LE, max_enc u64 LE, bit_width u8 (≤ 64)
//! synopses   see "Synopsis section" below
//! data       per column, per block: ceil(rows_in_block · bit_width / 8)
//!            bytes of little-endian bit-packed deltas (byte-aligned per
//!            block; width-0 blocks store no bytes at all)
//! ```
//!
//! ### Synopsis section
//!
//! Between the block table and the data region, every file carries per-block
//! answer-bearing synopses ([`crate::raw::BlockSynopsis`]):
//!
//! ```text
//! sect_len   u64 LE     bytes of the section after this field
//! n_buckets  u32 LE     histogram buckets per column (1..=4096)
//! sample_cap u32 LE     row-sample budget per block (<= 65536; written 0)
//! per column, per block (column-major, like the block table):
//!            min f64, max f64, count u64, sum f64, sum_sq f64,
//!            hist n_buckets × u64            (all LE; floats as IEEE bits)
//! per block: n_samples u32 LE, then n_samples × n_cols × f64 LE
//! ```
//!
//! Row samples are a relic: the writer emits none (`sample_cap = 0`, every
//! `n_samples = 0`), and the reader bounds-checks and skips an older
//! image's.
//!
//! The decoder consumes exactly `sect_len` bytes and errors (never panics)
//! on truncated, oversized, or mismatched sections. A block whose values
//! are all equal (width 0) is answered entirely from the header — constant
//! columns cost zero data I/O.

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
    buffer_columns, build_block_synopses, check_attrs, distinct_columns, BatchHandler,
    BatchLocators, BlockStats, BlockSynopsis, RawFile, ScanBatch, ScanPartition, ScanRequest,
    SynopsisSpec,
};
use crate::remote::HttpBlob;
use crate::schema::{Column, Schema};

mod codec;

use codec::packed_len;

/// The file magic. An image with any other first eight bytes — the
/// synopsis-free `PAIZONE1` layout of an earlier writer included — is
/// refused as corrupt.
pub const PAIZONE_MAGIC: [u8; 8] = *b"PAIZONE2";

/// Upper bound on histogram buckets a header may declare.
const MAX_SYNOPSIS_BUCKETS: u32 = 4096;

/// Upper bound on the per-block row-sample budget a header may declare.
const MAX_SYNOPSIS_SAMPLES: u32 = 65_536;

/// Default rows per block: the unit `blocks_read` and `blocks_skipped`
/// count in.
pub const DEFAULT_BLOCK_ROWS: u32 = 4096;

/// Upper bound on the column count a header may declare.
const MAX_COLUMNS: usize = 65_536;

/// Upper bound on rows per block a header may declare; anything above is
/// treated as corruption (a block must fit comfortably in memory).
const MAX_BLOCK_ROWS: u32 = 1 << 22;

fn corrupt(what: impl Into<String>) -> PaiError {
    PaiError::internal(format!("corrupt PaiZone file: {}", what.into()))
}

// ---------------------------------------------------------------------------
// Order-preserving f64 <-> u64 mapping (the bit packing lives in `codec`).
// ---------------------------------------------------------------------------

const SIGN: u64 = 1 << 63;

/// Maps a float to a `u64` such that `a < b ⇒ enc_f64(a) < enc_f64(b)`
/// (IEEE total order: -∞ < … < -0.0 < +0.0 < … < +∞ < NaN-with-positive-
/// sign). Bijective, so [`dec_f64`] restores the exact bit pattern.
#[inline]
pub fn enc_f64(v: f64) -> u64 {
    let b = v.to_bits();
    if b & SIGN != 0 {
        !b
    } else {
        b | SIGN
    }
}

/// Inverse of [`enc_f64`].
#[inline]
pub fn dec_f64(e: u64) -> f64 {
    if e & SIGN != 0 {
        f64::from_bits(e ^ SIGN)
    } else {
        f64::from_bits(!e)
    }
}

/// Narrowest width (bits) that can hold `delta`.
#[inline]
fn bits_for(delta: u64) -> u8 {
    (64 - delta.leading_zeros()) as u8
}

// ---------------------------------------------------------------------------
// Header encoding/decoding.
// ---------------------------------------------------------------------------

/// Per-(column, block) compression parameters, resolved to absolute file
/// positions at open time.
#[derive(Debug, Clone)]
struct BlockMeta {
    min_enc: u64,
    width: u8,
    /// Absolute byte offset of the block's packed data.
    data_off: u64,
    /// Exact packed length in bytes (0 for constant blocks).
    data_len: u64,
}

/// Everything `open`/`from_bytes` decode before serving reads.
struct ZoneHeader {
    schema: Schema,
    n_rows: u64,
    block_rows: u32,
    /// `cols[col][block]`.
    cols: Vec<Vec<BlockMeta>>,
    /// Per row-block zone maps across all columns (the trait-level view).
    stats: Vec<BlockStats>,
    /// Per row-block answer-bearing synopses.
    synopses: Vec<BlockSynopsis>,
}

fn block_count(n_rows: u64, block_rows: u32) -> u64 {
    n_rows.div_ceil(block_rows as u64)
}

fn rows_in_block(n_rows: u64, block_rows: u32, blk: u64) -> u64 {
    let start = blk * block_rows as u64;
    (n_rows - start).min(block_rows as u64)
}

/// Decodes the synopsis section (everything after `sect_len`), verifying
/// it consumes exactly `sect_len` bytes. Allocation guards mirror the block
/// table's: nothing is allocated beyond what `sect_len` can physically hold.
fn decode_synopsis_section<R: Read>(
    reader: &mut R,
    sect_len: u64,
    n_cols: usize,
    n_rows: u64,
    block_rows: u32,
) -> Result<Vec<BlockSynopsis>> {
    let mut consumed = 0u64;
    let mut u32buf = [0u8; 4];
    let mut u64buf = [0u8; 8];
    macro_rules! read_u64 {
        ($what:expr) => {{
            reader
                .read_exact(&mut u64buf)
                .map_err(|_| corrupt(format!("truncated synopsis {}", $what)))?;
            consumed += 8;
            u64::from_le_bytes(u64buf)
        }};
    }
    macro_rules! read_f64 {
        ($what:expr) => {
            f64::from_bits(read_u64!($what))
        };
    }
    macro_rules! read_u32 {
        ($what:expr) => {{
            reader
                .read_exact(&mut u32buf)
                .map_err(|_| corrupt(format!("truncated synopsis {}", $what)))?;
            consumed += 4;
            u32::from_le_bytes(u32buf)
        }};
    }

    let n_buckets = read_u32!("bucket count");
    if n_buckets == 0 || n_buckets > MAX_SYNOPSIS_BUCKETS {
        return Err(corrupt(format!(
            "implausible synopsis bucket count {n_buckets} (max {MAX_SYNOPSIS_BUCKETS})"
        )));
    }
    let sample_cap = read_u32!("sample budget");
    if sample_cap > MAX_SYNOPSIS_SAMPLES {
        return Err(corrupt(format!(
            "implausible synopsis sample budget {sample_cap} (max {MAX_SYNOPSIS_SAMPLES})"
        )));
    }
    let n_blocks = block_count(n_rows, block_rows);
    // The fixed per-(column, block) records must physically fit in the
    // declared section before anything their count sizes is allocated.
    let fixed = (n_cols as u64)
        .checked_mul(n_blocks)
        .and_then(|v| v.checked_mul(40 + 8 * n_buckets as u64))
        .ok_or_else(|| corrupt("synopsis section size overflows"))?;
    if consumed.checked_add(fixed).is_none_or(|v| v > sect_len) {
        return Err(corrupt(format!(
            "synopsis records ({fixed} bytes) exceed the declared section ({sect_len} bytes)"
        )));
    }

    let mut blocks: Vec<BlockSynopsis> = (0..n_blocks)
        .map(|b| BlockSynopsis {
            row_start: b * block_rows as u64,
            row_end: b * block_rows as u64 + rows_in_block(n_rows, block_rows, b),
            cols: Vec::with_capacity(n_cols),
        })
        .collect();
    for c in 0..n_cols {
        for b in 0..n_blocks {
            let what = format!("record (column {c}, block {b})");
            let min = read_f64!(what);
            let max = read_f64!(what);
            let count = read_u64!(what);
            let sum = read_f64!(what);
            let sum_sq = read_f64!(what);
            let mut hist = Vec::with_capacity(n_buckets as usize);
            for _ in 0..n_buckets {
                hist.push(read_u64!(what));
            }
            blocks[b as usize].cols.push(crate::raw::ColumnSynopsis {
                min,
                max,
                count,
                sum,
                sum_sq,
                hist,
            });
        }
    }
    // Row samples: an older writer's, bounds-checked and skipped (nothing
    // reads them).
    for b in 0..n_blocks {
        let n_samples = read_u32!(format!("sample count (block {b})"));
        let rows = rows_in_block(n_rows, block_rows, b);
        if n_samples as u64 > rows || n_samples > sample_cap {
            return Err(corrupt(format!(
                "block {b} declares {n_samples} samples (budget {sample_cap}, {rows} rows)"
            )));
        }
        let row_bytes = (n_cols as u64) * 8 * n_samples as u64;
        if consumed.checked_add(row_bytes).is_none_or(|v| v > sect_len) {
            return Err(corrupt(format!(
                "synopsis samples of block {b} exceed the declared section"
            )));
        }
        for _ in 0..n_samples as u64 * n_cols as u64 {
            let _ = read_u64!(format!("sample (block {b})"));
        }
    }
    if consumed != sect_len {
        return Err(corrupt(format!(
            "synopsis section declares {sect_len} bytes but holds {consumed}"
        )));
    }
    Ok(blocks)
}

fn decode_header<R: Read>(reader: &mut R, file_size: u64) -> Result<ZoneHeader> {
    let mut magic = [0u8; 8];
    reader
        .read_exact(&mut magic)
        .map_err(|_| corrupt("truncated magic"))?;
    if magic != PAIZONE_MAGIC {
        return Err(corrupt("bad magic (not a PaiZone file?)"));
    }
    let mut u32buf = [0u8; 4];
    let mut read_u32 = |reader: &mut R, what: &str| -> Result<u32> {
        reader
            .read_exact(&mut u32buf)
            .map_err(|_| corrupt(format!("truncated {what}")))?;
        Ok(u32::from_le_bytes(u32buf))
    };
    let n_cols = read_u32(reader, "column count")? as usize;
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
    let block_rows = read_u32(reader, "block size")?;
    if block_rows == 0 || block_rows > MAX_BLOCK_ROWS {
        return Err(corrupt(format!(
            "implausible block size {block_rows} rows (max {MAX_BLOCK_ROWS})"
        )));
    }

    let mut pos = (8 + 4 + 4 + 4 + 8 + 4) as u64;
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
        pos += 2 + len as u64;
    }
    let schema = Schema::new(columns, x_axis, y_axis)?;

    // Guard the table allocation below against a crafted row count: the
    // table must physically fit in the file before we believe its size.
    let n_blocks = block_count(n_rows, block_rows);
    let table_bytes = (n_cols as u64)
        .checked_mul(n_blocks)
        .and_then(|v| v.checked_mul(17))
        .ok_or_else(|| corrupt("block table size overflows"))?;
    if pos.checked_add(table_bytes).is_none_or(|v| v > file_size) {
        return Err(corrupt(format!(
            "block table ({table_bytes} bytes for {n_blocks} blocks) exceeds the file"
        )));
    }

    // Parse the block table, building the trait-level zone maps as we go
    // (the table is column-major; the stats are per row block).
    let mut stats: Vec<BlockStats> = (0..n_blocks)
        .map(|b| BlockStats {
            row_start: b * block_rows as u64,
            row_end: b * block_rows as u64 + rows_in_block(n_rows, block_rows, b),
            min: vec![f64::NAN; n_cols],
            max: vec![f64::NAN; n_cols],
        })
        .collect();
    let mut cols: Vec<Vec<BlockMeta>> = Vec::with_capacity(n_cols);
    for c in 0..n_cols {
        let mut blocks = Vec::with_capacity(n_blocks as usize);
        for b in 0..n_blocks {
            let mut entry = [0u8; 17];
            reader
                .read_exact(&mut entry)
                .map_err(|_| corrupt(format!("truncated block table (column {c}, block {b})")))?;
            let min_enc = u64::from_le_bytes(entry[0..8].try_into().expect("8 bytes"));
            let max_enc = u64::from_le_bytes(entry[8..16].try_into().expect("8 bytes"));
            let width = entry[16];
            if width > 64 {
                return Err(corrupt(format!(
                    "block width {width} bits (column {c}, block {b})"
                )));
            }
            if max_enc < min_enc {
                return Err(corrupt(format!(
                    "inverted block envelope (column {c}, block {b})"
                )));
            }
            if bits_for(max_enc - min_enc) > width {
                return Err(corrupt(format!(
                    "width {width} cannot span the block envelope (column {c}, block {b})"
                )));
            }
            stats[b as usize].min[c] = dec_f64(min_enc);
            stats[b as usize].max[c] = dec_f64(max_enc);
            blocks.push(BlockMeta {
                min_enc,
                width,
                data_off: 0,
                data_len: 0,
            });
        }
        cols.push(blocks);
    }
    pos += table_bytes;

    // The synopsis section sits between the block table and the data
    // region and participates in the exact-size accounting below.
    reader
        .read_exact(&mut u64buf)
        .map_err(|_| corrupt("truncated synopsis section length"))?;
    let sect_len = u64::from_le_bytes(u64buf);
    pos += 8;
    if pos.checked_add(sect_len).is_none_or(|v| v > file_size) {
        return Err(corrupt(format!(
            "synopsis section ({sect_len} bytes) exceeds the file"
        )));
    }
    let synopses = decode_synopsis_section(reader, sect_len, n_cols, n_rows, block_rows)?;
    pos += sect_len;

    // Resolve per-block data offsets (column-major, blocks consecutive)
    // with checked arithmetic.
    let mut offset = pos;
    for (c, blocks) in cols.iter_mut().enumerate() {
        let _ = c;
        for (b, meta) in blocks.iter_mut().enumerate() {
            let rows = rows_in_block(n_rows, block_rows, b as u64);
            let len = packed_len(rows, meta.width);
            meta.data_off = offset;
            meta.data_len = len;
            offset = offset
                .checked_add(len)
                .ok_or_else(|| corrupt("data region size overflows"))?;
        }
    }
    if offset != file_size {
        return Err(corrupt(format!(
            "size {file_size} does not match header (expected {offset})"
        )));
    }
    Ok(ZoneHeader {
        schema,
        n_rows,
        block_rows,
        cols,
        stats,
        synopses,
    })
}

// ---------------------------------------------------------------------------
// Encoding (the one-pass converter).
// ---------------------------------------------------------------------------

/// Serializes fully-buffered columns into PaiZone bytes with the default
/// synopsis parameters.
fn encode_zone_columns(schema: &Schema, columns: &[Vec<f64>], block_rows: u32) -> Result<Vec<u8>> {
    encode_zone_columns_spec(schema, columns, block_rows, &SynopsisSpec::default())
}

/// Serializes fully-buffered columns into PaiZone bytes, building the
/// synopsis section from the same buffers in the same pass.
fn encode_zone_columns_spec(
    schema: &Schema,
    columns: &[Vec<f64>],
    block_rows: u32,
    spec: &SynopsisSpec,
) -> Result<Vec<u8>> {
    assert!(
        (1..=MAX_BLOCK_ROWS).contains(&block_rows),
        "block_rows out of range"
    );
    for col in schema.columns() {
        if !col.ty.is_numeric() {
            return Err(PaiError::schema(format!(
                "column '{}' is not numeric; text columns cannot be stored in PaiZone",
                col.name
            )));
        }
    }
    let n_rows = columns.first().map_or(0, |c| c.len()) as u64;
    debug_assert!(columns.iter().all(|c| c.len() as u64 == n_rows));
    let n_blocks = block_count(n_rows, block_rows);

    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&PAIZONE_MAGIC);
    out.extend_from_slice(&(schema.len() as u32).to_le_bytes());
    out.extend_from_slice(&(schema.x_axis() as u32).to_le_bytes());
    out.extend_from_slice(&(schema.y_axis() as u32).to_le_bytes());
    out.extend_from_slice(&n_rows.to_le_bytes());
    out.extend_from_slice(&block_rows.to_le_bytes());
    for col in schema.columns() {
        let name = col.name.as_bytes();
        if name.len() > u16::MAX as usize {
            return Err(PaiError::schema(format!(
                "column name '{}…' too long for the PaiZone header",
                &col.name[..32.min(col.name.len())]
            )));
        }
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name);
    }

    // Pass 1: per-(column, block) envelopes + widths into the block table.
    let mut widths: Vec<Vec<u8>> = Vec::with_capacity(columns.len());
    let mut mins: Vec<Vec<u64>> = Vec::with_capacity(columns.len());
    for col in columns {
        let mut col_widths = Vec::with_capacity(n_blocks as usize);
        let mut col_mins = Vec::with_capacity(n_blocks as usize);
        for b in 0..n_blocks {
            let start = (b * block_rows as u64) as usize;
            let end = start + rows_in_block(n_rows, block_rows, b) as usize;
            let mut min_enc = u64::MAX;
            let mut max_enc = 0u64;
            for &v in &col[start..end] {
                let e = enc_f64(v);
                min_enc = min_enc.min(e);
                max_enc = max_enc.max(e);
            }
            let width = bits_for(max_enc - min_enc);
            out.extend_from_slice(&min_enc.to_le_bytes());
            out.extend_from_slice(&max_enc.to_le_bytes());
            out.push(width);
            col_widths.push(width);
            col_mins.push(min_enc);
        }
        widths.push(col_widths);
        mins.push(col_mins);
    }

    // Synopsis section: derived from the same buffered columns, so the
    // converter's one scan of the source pays for both layers.
    let spec = SynopsisSpec {
        buckets: spec.buckets.clamp(1, MAX_SYNOPSIS_BUCKETS as usize),
    };
    let synopses = build_block_synopses(columns, block_rows, &spec);
    let mut sect = Vec::new();
    sect.extend_from_slice(&(spec.buckets as u32).to_le_bytes());
    // No row samples: a zero budget, and a zero count per block below.
    sect.extend_from_slice(&0u32.to_le_bytes());
    for c in 0..schema.len() {
        for s in &synopses {
            let col = &s.cols[c];
            sect.extend_from_slice(&col.min.to_bits().to_le_bytes());
            sect.extend_from_slice(&col.max.to_bits().to_le_bytes());
            sect.extend_from_slice(&col.count.to_le_bytes());
            sect.extend_from_slice(&col.sum.to_bits().to_le_bytes());
            sect.extend_from_slice(&col.sum_sq.to_bits().to_le_bytes());
            for &h in &col.hist {
                sect.extend_from_slice(&h.to_le_bytes());
            }
        }
    }
    for _ in &synopses {
        sect.extend_from_slice(&0u32.to_le_bytes());
    }
    out.extend_from_slice(&(sect.len() as u64).to_le_bytes());
    out.extend_from_slice(&sect);

    // Pass 2: bit-pack each block's deltas.
    let mut deltas: Vec<u64> = Vec::with_capacity(block_rows as usize);
    for (ci, col) in columns.iter().enumerate() {
        for b in 0..n_blocks {
            let start = (b * block_rows as u64) as usize;
            let end = start + rows_in_block(n_rows, block_rows, b) as usize;
            let min_enc = mins[ci][b as usize];
            deltas.clear();
            deltas.extend(col[start..end].iter().map(|&v| enc_f64(v) - min_enc));
            codec::pack(&deltas, widths[ci][b as usize], &mut out);
        }
    }
    Ok(out)
}

/// Transposes an iterator of rows into per-column buffers, validating row
/// width against the schema.
fn buffer_rows<I>(schema: &Schema, rows: I) -> Result<Vec<Vec<f64>>>
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
    Ok(columns)
}

/// Encodes an iterator of numeric rows (each `schema.len()` wide) as
/// PaiZone bytes with the default block size.
pub fn encode_zone_rows<I>(schema: &Schema, rows: I) -> Result<Vec<u8>>
where
    I: IntoIterator<Item = Vec<f64>>,
{
    encode_zone_rows_with(schema, rows, DEFAULT_BLOCK_ROWS)
}

/// [`encode_zone_rows`] with an explicit rows-per-block (tests and remote
/// fixtures use small blocks to exercise boundaries and pushdown).
pub fn encode_zone_rows_with<I>(schema: &Schema, rows: I, block_rows: u32) -> Result<Vec<u8>>
where
    I: IntoIterator<Item = Vec<f64>>,
{
    let columns = buffer_rows(schema, rows)?;
    encode_zone_columns(schema, &columns, block_rows)
}

/// One-pass converter: scans `src` once (metered on `src`'s counters),
/// buffering each column, and returns the dataset re-encoded as PaiZone
/// bytes with the default block size. Numeric columns only.
pub fn convert_to_zone(src: &dyn RawFile) -> Result<Vec<u8>> {
    convert_to_zone_with(src, DEFAULT_BLOCK_ROWS)
}

/// [`convert_to_zone`] with an explicit rows-per-block (small blocks = finer
/// pushdown granularity, bigger header).
pub fn convert_to_zone_with(src: &dyn RawFile, block_rows: u32) -> Result<Vec<u8>> {
    let (schema, columns) = buffer_columns(src)?;
    encode_zone_columns(&schema, &columns, block_rows)
}

/// [`convert_to_zone_with`] with explicit synopsis parameters.
pub fn convert_to_zone_spec(
    src: &dyn RawFile,
    block_rows: u32,
    spec: &SynopsisSpec,
) -> Result<Vec<u8>> {
    let (schema, columns) = buffer_columns(src)?;
    encode_zone_columns_spec(&schema, &columns, block_rows, spec)
}

/// Converts `src` to PaiZone on disk at `path` and opens the result.
pub fn write_zone(src: &dyn RawFile, path: impl AsRef<Path>) -> Result<ZoneFile> {
    let (schema, columns) = buffer_columns(src)?;
    let bytes = encode_zone_columns(&schema, &columns, DEFAULT_BLOCK_ROWS)?;
    std::fs::write(path.as_ref(), &bytes)?;
    ZoneFile::open(path)
}

// ---------------------------------------------------------------------------
// ZoneFile.
// ---------------------------------------------------------------------------

/// Rows-per-block group a sequential scan prefetches per span batch: big
/// enough that a remote source merges many adjacent block spans into one
/// ranged GET, small enough that the decode working set stays tiny.
const SCAN_GROUP_BLOCKS: usize = 16;

/// A PaiZone compressed columnar file. Locators are row ids.
///
/// Cloning is cheap and clones share the same [`IoCounters`] and decoded
/// header; each access opens its own handle (or reuses the shared mapping),
/// so a `ZoneFile` serves concurrent readers.
#[derive(Debug, Clone)]
pub struct ZoneFile {
    source: Source,
    schema: Schema,
    n_rows: u64,
    block_rows: u32,
    size_bytes: u64,
    cols: Arc<Vec<Vec<BlockMeta>>>,
    stats: Arc<Vec<BlockStats>>,
    synopses: Arc<Vec<BlockSynopsis>>,
    counters: IoCounters,
}

impl ZoneFile {
    /// Opens an existing PaiZone file, validating header, widths, and size.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        Self::over(Source::Disk(path.as_ref().to_path_buf()))
    }

    /// Opens an existing PaiZone file through a zero-copy memory mapping
    /// (buffered fallback on platforms without `mmap`). Behaviourally
    /// identical to [`ZoneFile::open`]; positional reads become pointer
    /// arithmetic instead of seek+read syscalls.
    pub fn open_mapped(path: impl AsRef<Path>) -> Result<Self> {
        Self::over(Source::Mapped(Arc::new(Mapping::map(path)?)))
    }

    /// Wraps in-memory PaiZone bytes (tests, examples, converters).
    pub fn from_bytes(bytes: impl Into<Vec<u8>>) -> Result<Self> {
        Self::over(Source::Mem(Arc::new(bytes.into())))
    }

    /// Opens a PaiZone image that lives behind a remote object store.
    /// Header and block table are fetched and validated up front (a
    /// handful of ranged GETs); data blocks are fetched on demand through
    /// the blob's coalescing span reads. The file shares the blob's
    /// [`IoCounters`], so logical and transport meters land together.
    pub fn open_remote(blob: Arc<HttpBlob>) -> Result<Self> {
        Self::over(Source::Remote(blob))
    }

    /// Decodes and validates the header at the start of `source`.
    fn over(source: Source) -> Result<Self> {
        let (size, header) = {
            let (size, mut reader) = source.open()?;
            (size, decode_header(&mut reader, size)?)
        };
        Ok(ZoneFile {
            counters: source.counters(),
            source,
            schema: header.schema,
            n_rows: header.n_rows,
            block_rows: header.block_rows,
            size_bytes: size,
            cols: Arc::new(header.cols),
            stats: Arc::new(header.stats),
            synopses: Arc::new(header.synopses),
        })
    }

    /// Encodes numeric rows directly into an in-memory PaiZone file with
    /// the default block size.
    pub fn from_rows<I>(schema: &Schema, rows: I) -> Result<Self>
    where
        I: IntoIterator<Item = Vec<f64>>,
    {
        Self::from_rows_with_block(schema, rows, DEFAULT_BLOCK_ROWS)
    }

    /// [`ZoneFile::from_rows`] with an explicit rows-per-block (tests use
    /// tiny blocks to exercise boundaries and pushdown).
    pub fn from_rows_with_block<I>(schema: &Schema, rows: I, block_rows: u32) -> Result<Self>
    where
        I: IntoIterator<Item = Vec<f64>>,
    {
        let columns = buffer_rows(schema, rows)?;
        ZoneFile::from_bytes(encode_zone_columns(schema, &columns, block_rows)?)
    }

    /// Number of data rows in the file.
    pub fn n_rows(&self) -> u64 {
        self.n_rows
    }

    /// Rows per block.
    pub fn block_rows(&self) -> u32 {
        self.block_rows
    }

    /// Number of row blocks.
    pub fn n_blocks(&self) -> u64 {
        block_count(self.n_rows, self.block_rows)
    }

    /// Location on disk, when file-backed. Mappings do not advertise a
    /// path (grab it before calling [`ZoneFile::open_mapped`]).
    pub fn path(&self) -> Option<&Path> {
        self.source.path()
    }

    /// Whether reads go through a zero-copy memory mapping.
    pub fn is_mapped(&self) -> bool {
        matches!(self.source, Source::Mapped(_))
    }

    /// Mean compressed bits per value over the whole file (diagnostics).
    pub fn mean_bits_per_value(&self) -> f64 {
        let mut bits = 0u128;
        let mut values = 0u128;
        for col in self.cols.iter() {
            for (b, meta) in col.iter().enumerate() {
                let rows = rows_in_block(self.n_rows, self.block_rows, b as u64) as u128;
                bits += rows * meta.width as u128;
                values += rows;
            }
        }
        if values == 0 {
            0.0
        } else {
            bits as f64 / values as f64
        }
    }

    /// Decodes one fetched (column, block) buffer into `page` (cleared
    /// first). `buf` is empty for width-0 constant blocks, which decode from
    /// the header alone; a buffer of any other length than the header's
    /// arithmetic gives is a corrupt payload.
    fn unpack_block(&self, col: usize, blk: u64, buf: &[u8], page: &mut Vec<f64>) -> Result<()> {
        let meta = &self.cols[col][blk as usize];
        let rows = rows_in_block(self.n_rows, self.block_rows, blk) as usize;
        page.clear();
        page.resize(rows, 0.0);
        // Wrapping add: crafted data bits cannot panic (the decoded value is
        // garbage either way on a corrupt file; validation bounds the width).
        codec::unpack(buf, 0, meta.width, rows, |i, delta| {
            page[i] = dec_f64(meta.min_enc.wrapping_add(delta))
        })?;
        self.counters.add_blocks_read(1);
        Ok(())
    }

    /// The engine of `scan_batches`: the rows of the request's partition, a
    /// block per batch, each requested column decoded once into a page and
    /// lent. With a window, whole blocks disjoint from it are skipped (their
    /// rows are not delivered at all). Surviving blocks are prefetched in
    /// groups of [`SCAN_GROUP_BLOCKS`], spans ordered column-major so a
    /// remote source merges a column's adjacent blocks into one ranged GET.
    fn scan_rows(&self, request: &ScanRequest<'_>, handler: &mut BatchHandler<'_>) -> Result<()> {
        let (start, end) = match request.partition {
            ScanPartition::WHOLE => (0, self.n_rows),
            p => (p.start, p.end),
        };
        // The range that begins the file carries the scan tick, so the
        // partitions of one `partitions` call charge what one whole scan
        // does.
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
        let (xi, yi) = (self.schema.x_axis(), self.schema.y_axis());
        let mut fetcher = self.source.fetcher()?;
        let mut pages: Vec<Vec<f64>> = vec![Vec::new(); self.schema.len()];
        let mut m = SpanMeters::default();
        let first_blk = start / self.block_rows as u64;
        let last_blk = (end - 1) / self.block_rows as u64;
        let mut group: Vec<u64> = Vec::with_capacity(SCAN_GROUP_BLOCKS);
        let mut spans: Vec<(u64, u64)> = Vec::new();
        let mut bufs: Vec<Vec<u8>> = Vec::new();
        // span index of (column, group slot), or None for constant blocks.
        let mut span_of: Vec<Option<usize>> = Vec::new();
        let mut blk = first_blk;
        while blk <= last_blk {
            group.clear();
            while blk <= last_blk && group.len() < SCAN_GROUP_BLOCKS {
                if let Some(w) = request.window {
                    if !self.stats[blk as usize].may_intersect_window(xi, yi, w) {
                        self.counters.add_blocks_skipped(cols.len() as u64);
                        blk += 1;
                        continue;
                    }
                }
                group.push(blk);
                blk += 1;
            }
            if group.is_empty() {
                continue;
            }
            spans.clear();
            span_of.clear();
            for &col in &cols {
                for &b in &group {
                    let meta = &self.cols[col][b as usize];
                    if meta.width == 0 {
                        span_of.push(None);
                    } else {
                        span_of.push(Some(spans.len()));
                        spans.push((meta.data_off, meta.data_len));
                    }
                }
            }
            let fetched = fetcher.read_spans(&spans, &mut bufs, &mut m, CacheMode::Stream)?;
            for (gi, &b) in group.iter().enumerate() {
                let blk_start = b * self.block_rows as u64;
                for (ci, &col) in cols.iter().enumerate() {
                    let buf = span_of[ci * group.len() + gi].map_or(&[][..], |si| fetched.get(si));
                    self.unpack_block(col, b, buf, &mut pages[col])?;
                }
                let blk_rows = rows_in_block(self.n_rows, self.block_rows, b);
                let lo = start.max(blk_start);
                let hi = end.min(blk_start + blk_rows);
                // Objects are metered once per block, not with one shared
                // atomic per row.
                self.counters.add_objects(hi - lo);
                let rows = (lo - blk_start) as usize..(hi - blk_start) as usize;
                handler(&ScanBatch::new(
                    BatchLocators::Run(lo),
                    &pages,
                    request.attrs,
                    rows,
                ))?;
            }
        }
        self.counters.add_bytes(m.bytes);
        self.counters.add_seeks(m.seeks);
        Ok(())
    }
}

impl RawFile for ZoneFile {
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
        self.scan_rows(request, handler)
    }

    fn read_rows_into(
        &self,
        locators: &[RowLocator],
        attrs: &[AttrId],
        window: Option<&Rect>,
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
        // The requests in row order, each with its slot in `out`; tile
        // entries mostly come in row order as they are, and then the
        // permutation is the identity and is not materialised.
        let n = locators.len();
        let sorted = locators.is_sorted_by_key(|l| l.raw());
        let mut order: Vec<(u64, usize)> = Vec::new();
        if !sorted {
            order.extend(locators.iter().enumerate().map(|(slot, l)| (l.raw(), slot)));
            // The merge sort: a request is mostly several tiles' entries
            // end to end, each in row order, and it merges those runs.
            order.sort();
        }
        let row_at = |i: usize| {
            if sorted {
                locators[i].raw()
            } else {
                order[i].0
            }
        };
        let slot_at = |i: usize| if sorted { i } else { order[i].1 };
        if n > 0 && row_at(n - 1) >= self.n_rows {
            return Err(PaiError::internal(format!(
                "positional read of row {} hit EOF ({} rows)",
                row_at(n - 1),
                self.n_rows
            )));
        }
        let width = attrs.len();
        let out = out.reset(width, n);
        if n == 0 || attrs.is_empty() {
            self.counters.add_objects(n as u64);
            return Ok(());
        }

        let (xi, yi) = (self.schema.x_axis(), self.schema.y_axis());
        let mut fetcher = self.source.fetcher()?;
        let mut sm = SpanMeters::default();
        // Per-run decode work deferred until its batch of spans is fetched:
        // (first request index, one-past-last, block, bits into the span's
        // first byte the run starts at).
        let mut runs: Vec<(usize, usize, u64, usize)> = Vec::new();
        let mut spans: Vec<(u64, u64)> = Vec::new();
        let mut bufs: Vec<Vec<u8>> = Vec::new();
        for (ai, &attr) in attrs.iter().enumerate() {
            let mut fill = |i: usize, j: usize, v: f64| {
                for k in i..j {
                    out[slot_at(k) * width + ai] = v;
                }
            };
            // Group requested rows by block, then coalesce adjacent runs
            // inside each block (fixed width makes a run one byte-span
            // read); the whole attribute's runs go out as one span batch so
            // a remote source can merge runs across block boundaries too.
            runs.clear();
            spans.clear();
            let mut i = 0;
            while i < n {
                let blk = row_at(i) / self.block_rows as u64;
                let blk_start = blk * self.block_rows as u64;
                let mut j = i + 1;
                while j < n && row_at(j) - blk_start < self.block_rows as u64 {
                    j += 1;
                }
                // Pushdown: a block provably outside the window answers all
                // its requested rows with NaN, free of any I/O.
                if let Some(w) = window {
                    if !self.stats[blk as usize].may_intersect_window(xi, yi, w) {
                        fill(i, j, f64::NAN);
                        self.counters.add_blocks_skipped(1);
                        i = j;
                        continue;
                    }
                }
                self.counters.add_blocks_read(1);
                let meta = &self.cols[attr][blk as usize];
                if meta.width == 0 {
                    fill(i, j, dec_f64(meta.min_enc));
                    i = j;
                    continue;
                }
                let w = meta.width as usize;
                let mut k = i;
                while k < j {
                    let mut m = k + 1;
                    while m < j && row_at(m) == row_at(m - 1) + 1 {
                        m += 1;
                    }
                    let first_bit = (row_at(k) - blk_start) as usize * w;
                    let end_bit = first_bit + (m - k) * w;
                    let first_byte = first_bit / 8;
                    runs.push((k, m, blk, first_bit % 8));
                    spans.push((
                        meta.data_off + first_byte as u64,
                        (end_bit.div_ceil(8) - first_byte) as u64,
                    ));
                    k = m;
                }
                i = j;
            }
            let fetched = fetcher.read_spans(&spans, &mut bufs, &mut sm, CacheMode::Admit)?;
            for (&(k, m, blk, shift), buf) in runs.iter().zip(fetched.iter()) {
                let meta = &self.cols[attr][blk as usize];
                codec::unpack(buf, shift, meta.width, m - k, |i, delta| {
                    out[slot_at(k + i) * width + ai] = dec_f64(meta.min_enc.wrapping_add(delta));
                })?;
            }
        }
        self.counters.add_objects(locators.len() as u64);
        self.counters.add_bytes(sm.bytes);
        self.counters.add_seeks(sm.seeks);
        Ok(())
    }

    fn partitions(&self, n: usize) -> Result<Vec<ScanPartition>> {
        assert!(n >= 1, "need at least one partition");
        if self.n_rows == 0 {
            return Ok(Vec::new());
        }
        // Shard on block boundaries so no block is decoded by two workers.
        let n_blocks = self.n_blocks();
        let block_bytes = self.block_rows as u64 * 8 * self.schema.len() as u64;
        let per = crate::scan::units_per_shard(n_blocks, block_bytes, n);
        let n = n_blocks.div_ceil(per);
        Ok((0..n)
            .map(|i| ScanPartition {
                start: (i * per * self.block_rows as u64).min(self.n_rows),
                end: ((i + 1) * per * self.block_rows as u64).min(self.n_rows),
            })
            .filter(|p| p.end > p.start)
            .collect())
    }

    fn block_stats(&self) -> Option<&[BlockStats]> {
        Some(&self.stats)
    }

    fn block_synopses(&self) -> Option<&[BlockSynopsis]> {
        Some(&self.synopses)
    }

    fn value_bytes_hint(&self) -> Option<f64> {
        Some(self.mean_bits_per_value() / 8.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::read_window;
    use crate::csv::CsvFormat;
    use crate::raw::MemFile;
    use crate::raw::{part_request, scanned_rows};

    fn rows() -> Vec<Vec<f64>> {
        vec![
            vec![1.0, 10.0, 100.0],
            vec![2.0, 20.0, 200.0],
            vec![3.0, 30.0, 300.0],
            vec![4.0, 40.0, 400.0],
        ]
    }

    /// `(length, FNV-1a)` of `golden_rows()` encoded at 4 rows a block: the
    /// image the byte-at-a-time packer wrote, with the synopsis section's
    /// row samples (then four a block) taken out as the writer now leaves
    /// them out — a zero budget and a zero count a block. The image with
    /// them was `(5303, 0xccd9_0ec6_b22b_ce88)`.
    const GOLDEN_IMAGE: (usize, u64) = (4383, 0x8e32_62c3_b6ea_d14b);

    fn sample() -> ZoneFile {
        ZoneFile::from_rows(&Schema::synthetic(3), rows()).unwrap()
    }

    /// Rows laid out so consecutive blocks cover disjoint x ranges — the
    /// shape zone-map pushdown exists for. block_rows = 4.
    fn striped(n: u64) -> ZoneFile {
        let data: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![i as f64, (i % 7) as f64, i as f64 * 10.0])
            .collect();
        ZoneFile::from_rows_with_block(&Schema::synthetic(3), data, 4).unwrap()
    }

    #[test]
    fn enc_is_an_order_preserving_bijection() {
        let vals = [
            f64::NEG_INFINITY,
            -1e300,
            -2.5,
            -1.0,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            0.5,
            1.0,
            1e300,
            f64::INFINITY,
            f64::NAN,
        ];
        for &v in &vals {
            let round = dec_f64(enc_f64(v));
            assert_eq!(round.to_bits(), v.to_bits(), "bit-exact round trip of {v}");
        }
        for w in vals.windows(2) {
            assert!(
                enc_f64(w[0]) < enc_f64(w[1]),
                "order preserved: {} < {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn bit_packing_round_trips_every_width() {
        for width in 0u8..=64 {
            let mask = 1u64.checked_shl(width as u32).map_or(u64::MAX, |m| m - 1);
            let deltas: Vec<u64> = (0..100u64)
                .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) & mask)
                .collect();
            let mut buf = Vec::new();
            codec::pack(&deltas, width, &mut buf);
            assert_eq!(buf.len() as u64, packed_len(100, width), "width {width}");
            let mut got = Vec::new();
            codec::unpack(&buf, 0, width, 100, |_, d| got.push(d)).unwrap();
            assert_eq!(got, deltas, "width {width}");
        }
    }

    /// Rows whose columns pack at widths 0, a few bits, ~52 and 64 and hold
    /// every kind of float; blocks of 4 with a short last one.
    fn golden_rows() -> Vec<Vec<f64>> {
        let odd = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::from_bits(1),
            -f64::MIN_POSITIVE,
        ];
        (0..23u64)
            .map(|i| {
                vec![
                    i as f64,
                    42.0,
                    f64::from_bits((i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                    100.0 - i as f64 / 3.0,
                    odd[i as usize % odd.len()],
                ]
            })
            .collect()
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    #[test]
    fn the_format_did_not_move() {
        let schema = Schema::synthetic(5);
        let rows = golden_rows();
        let bytes = encode_zone_rows_with(&schema, rows.clone(), 4).unwrap();
        // The image the byte-at-a-time packer wrote before the word kernels
        // replaced it (length and FNV-1a, taken at that commit, less the
        // row samples).
        assert_eq!((bytes.len(), fnv1a(&bytes)), GOLDEN_IMAGE);

        // The data region, rebuilt with the reference packer.
        let f = ZoneFile::from_bytes(bytes.clone()).unwrap();
        let mut data = Vec::new();
        for (c, blocks) in f.cols.iter().enumerate() {
            for (b, meta) in blocks.iter().enumerate() {
                let deltas: Vec<u64> = rows[b * 4..rows.len().min(b * 4 + 4)]
                    .iter()
                    .map(|r| enc_f64(r[c]) - meta.min_enc)
                    .collect();
                codec::reference::pack(&deltas, 0, meta.width, &mut data);
            }
        }
        assert_eq!(bytes[bytes.len() - data.len()..], data[..]);
        // The dataset covers the codec's cases: nothing stored, a value
        // inside one word, a value that spills into a ninth byte, 64 bits.
        let widths: Vec<u8> = f.cols.iter().flatten().map(|m| m.width).collect();
        for case in [0..=0, 1..=57, 58..=63, 64..=64] {
            assert!(
                widths.iter().any(|w| case.contains(w)),
                "{case:?}: {widths:?}"
            );
        }

        // And it decodes to the bits that went in.
        let mut got = Vec::new();
        f.scan(&mut |_, _, rec| {
            let mut v = Vec::new();
            rec.extract_f64(&[0, 1, 2, 3, 4], &mut v)?;
            got.push(v);
            Ok(())
        })
        .unwrap();
        let bits = |rows: &[Vec<f64>]| -> Vec<Vec<u64>> {
            rows.iter()
                .map(|r| r.iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        assert_eq!(bits(&got), bits(&rows));
    }

    #[test]
    fn a_short_block_payload_is_an_error_on_the_scan_and_the_positional_path() {
        // A whole file that short is refused at open, so hand the kernels
        // the payload directly: block 1 of column 2, one byte short.
        let f = ZoneFile::from_rows_with_block(&Schema::synthetic(5), golden_rows(), 4).unwrap();
        let Source::Mem(bytes) = &f.source else {
            panic!("from_rows builds in memory");
        };
        let meta = &f.cols[2][1];
        let payload = &bytes[meta.data_off as usize..][..meta.data_len as usize];
        let mut page = Vec::new();
        f.unpack_block(2, 1, payload, &mut page).unwrap();
        assert_eq!(page[3].to_bits(), golden_rows()[7][2].to_bits());
        let err = f
            .unpack_block(2, 1, &payload[..payload.len() - 1], &mut page)
            .unwrap_err();
        assert!(err.to_string().contains("block payload"), "{err}");
        // The positional path decodes rows 1..4 of the block as one run
        // that starts `width % 8` bits into its span.
        let w = meta.width as usize;
        let run = &payload[w / 8..];
        codec::unpack(run, w % 8, meta.width, 3, |_, _| {}).unwrap();
        let err =
            codec::unpack(&run[..run.len() - 1], w % 8, meta.width, 3, |_, _| {}).unwrap_err();
        assert!(err.to_string().contains("block payload"), "{err}");
    }

    #[test]
    fn header_round_trip() {
        let f = sample();
        assert_eq!(f.n_rows(), 4);
        assert_eq!(f.block_rows(), DEFAULT_BLOCK_ROWS);
        assert_eq!(f.n_blocks(), 1);
        assert_eq!(f.schema().len(), 3);
        assert_eq!(f.schema().x_axis(), 0);
        assert_eq!(f.schema().y_axis(), 1);
        assert_eq!(f.schema().columns()[2].name, "col2");
        assert!(f.path().is_none());
        assert!(!f.is_mapped());
    }

    #[test]
    fn scan_yields_row_id_locators_and_exact_values() {
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
        assert_eq!(f.counters().blocks_read(), 3, "one block per column");
        // Compression: the whole scan moved fewer bytes than 8 a value.
        assert!(f.counters().bytes_read() < 3 * 4 * 8);
    }

    #[test]
    fn read_rows_by_row_id_in_request_order() {
        let f = sample();
        let locs: Vec<RowLocator> = [3u64, 0, 2].iter().map(|&r| RowLocator::new(r)).collect();
        let vals = f.read_rows(&locs, &[2, 0]).unwrap();
        assert_eq!(vals.width(), 2);
        assert_eq!(vals.values(), [400.0, 4.0, 100.0, 1.0, 300.0, 3.0]);
        assert_eq!(f.counters().objects_read(), 3);
        assert_eq!(f.counters().blocks_read(), 2, "one block touch per attr");
    }

    #[test]
    fn duplicate_locators_read_twice() {
        let f = sample();
        let locs = [RowLocator::new(1), RowLocator::new(1)];
        let vals = f.read_rows(&locs, &[2]).unwrap();
        assert_eq!(vals.values(), [200.0, 200.0]);
    }

    #[test]
    fn out_of_range_requests_are_errors() {
        let f = sample();
        let err = f.read_rows(&[RowLocator::new(99)], &[0]).unwrap_err();
        assert!(err.to_string().contains("EOF"), "{err}");
        assert!(f.read_rows(&[RowLocator::new(0)], &[17]).is_err());
    }

    #[test]
    fn nan_and_negative_values_round_trip() {
        let data = vec![
            vec![1.0, 2.0, f64::NAN],
            vec![3.0, 4.0, -5.5],
            vec![5.0, 6.0, 0.0],
            vec![7.0, 8.0, -0.0],
        ];
        let f = ZoneFile::from_rows_with_block(&Schema::synthetic(3), data.clone(), 2).unwrap();
        let locs: Vec<RowLocator> = (0..4).map(RowLocator::new).collect();
        let vals = f.read_rows(&locs, &[2]).unwrap();
        let vals = vals.values();
        assert!(vals[0].is_nan());
        assert_eq!(vals[1], -5.5);
        assert_eq!(vals[2].to_bits(), 0.0f64.to_bits());
        assert_eq!(vals[3].to_bits(), (-0.0f64).to_bits());
        // The scan agrees bit-exactly too.
        let mut got = Vec::new();
        f.scan(&mut |_, _, rec| {
            let mut v = Vec::new();
            rec.extract_f64(&[0, 1, 2], &mut v)?;
            got.push(v);
            Ok(())
        })
        .unwrap();
        assert_eq!(got.len(), 4);
        assert!(got[0][2].is_nan());
        assert_eq!(got[1][2], -5.5);
    }

    #[test]
    fn constant_blocks_cost_no_data_io() {
        let data: Vec<Vec<f64>> = (0..16).map(|i| vec![i as f64, 1.0, 42.0]).collect();
        let f = ZoneFile::from_rows_with_block(&Schema::synthetic(3), data, 4).unwrap();
        f.counters().reset();
        let locs: Vec<RowLocator> = (0..16).map(RowLocator::new).collect();
        let vals = f.read_rows(&locs, &[2]).unwrap();
        assert!(vals.values().iter().all(|&v| v == 42.0));
        assert_eq!(
            f.counters().bytes_read(),
            0,
            "constant column answered from the header"
        );
        assert_eq!(f.counters().seeks(), 0);
        assert_eq!(f.counters().blocks_read(), 4);
    }

    #[test]
    fn convert_from_csv_preserves_values() {
        let schema = Schema::synthetic(3);
        let csv = MemFile::from_rows(schema, CsvFormat::default(), rows()).unwrap();
        let zone = ZoneFile::from_bytes(convert_to_zone(&csv).unwrap()).unwrap();
        assert_eq!(zone.n_rows(), 4);
        let mut got = Vec::new();
        zone.scan(&mut |_, _, rec| {
            let mut vals = Vec::new();
            rec.extract_f64(&[0, 1, 2], &mut vals)?;
            got.push(vals);
            Ok(())
        })
        .unwrap();
        assert_eq!(got, rows());
        assert_eq!(csv.counters().full_scans(), 1, "one conversion pass");
    }

    #[test]
    fn convert_rejects_text_columns() {
        let schema = Schema::new(
            vec![Column::float("x"), Column::float("y"), Column::text("t")],
            0,
            1,
        )
        .unwrap();
        let csv = MemFile::from_text("x,y,t\n1,2,hi\n", schema, CsvFormat::default());
        assert!(convert_to_zone(&csv).is_err());
    }

    #[test]
    fn disk_round_trip_plain_and_mapped() {
        let dir = std::env::temp_dir().join("pai_zone_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("round_trip.paizone");
        let csv = MemFile::from_rows(Schema::synthetic(3), CsvFormat::default(), rows()).unwrap();
        let zone = write_zone(&csv, &path).unwrap();
        assert_eq!(zone.path(), Some(path.as_path()));
        assert_eq!(zone.n_rows(), 4);
        let vals = zone.read_rows(&[RowLocator::new(2)], &[2]).unwrap();
        assert_eq!(vals.values(), [300.0]);

        let reopened = ZoneFile::open(&path).unwrap();
        assert_eq!(reopened.n_rows(), 4);

        let mapped = ZoneFile::open_mapped(&path).unwrap();
        assert!(mapped.is_mapped());
        let vals = mapped.read_rows(&[RowLocator::new(1)], &[0, 2]).unwrap();
        assert_eq!(vals.row(0), [2.0, 200.0]);
        let mut n = 0;
        mapped
            .scan(&mut |_, _, _| {
                n += 1;
                Ok(())
            })
            .unwrap();
        assert_eq!(n, 4, "mapped scan sees every row");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn block_stats_expose_per_block_envelopes() {
        let f = striped(12); // 3 blocks of 4 rows
        let stats = f.block_stats().expect("zone files carry zone maps");
        assert_eq!(stats.len(), 3);
        assert_eq!(stats[0].row_start, 0);
        assert_eq!(stats[0].row_end, 4);
        assert_eq!(stats[1].min[0], 4.0);
        assert_eq!(stats[1].max[0], 7.0);
        assert_eq!(stats[2].max[2], 110.0);
    }

    #[test]
    fn filtered_scan_skips_dead_blocks_but_misses_nothing() {
        let f = striped(64); // 16 blocks, x = row id
                             // Window selecting x in [20, 30): rows 20..30, blocks 5..=7.
        let window = Rect::new(20.0, 30.0, -1.0, 8.0);
        let request = ScanRequest {
            window: Some(&window),
            ..ScanRequest::whole(&[0, 1, 2])
        };
        let seen: Vec<u64> = scanned_rows(&f, &request)
            .unwrap()
            .into_iter()
            .filter(|(_, v)| window.contains_point(pai_common::geometry::Point2::new(v[0], v[1])))
            .map(|(loc, _)| loc)
            .collect();
        assert_eq!(seen, (20..30).collect::<Vec<u64>>(), "every in-window row");
        assert!(
            f.counters().blocks_skipped() >= 13 * 3,
            "at least 13 of 16 stripes provably dead: {}",
            f.counters().blocks_skipped()
        );
        // A request for fewer columns skips (and charges) only those.
        let skipped = f.counters().blocks_skipped();
        f.counters().reset();
        let axes = ScanRequest {
            attrs: &[0, 1],
            ..request
        };
        scanned_rows(&f, &axes).unwrap();
        assert_eq!(3 * f.counters().blocks_skipped(), 2 * skipped);
        // The filtered scan is strictly cheaper than the full scan.
        let filtered_bytes = f.counters().bytes_read();
        f.counters().reset();
        f.scan(&mut |_, _, _| Ok(())).unwrap();
        assert!(filtered_bytes < f.counters().bytes_read());
        assert_eq!(f.counters().blocks_skipped(), 0, "plain scan skips nothing");
    }

    #[test]
    fn windowed_read_skips_provably_dead_blocks() {
        let f = striped(64);
        // Rows 0..4 (block 0) are far outside the window; rows 40..44
        // (block 10) are inside it.
        let window = Rect::new(40.0, 44.0, -1.0, 8.0);
        let locs: Vec<RowLocator> = (0..4).chain(40..44).map(RowLocator::new).collect();
        let vals = read_window(&f, &locs, &[2], Some(&window));
        for v in vals.rows(0..4) {
            assert!(v.is_nan(), "dead-block rows come back as NaN");
        }
        assert_eq!(vals.row(4), [400.0]);
        assert_eq!(vals.row(7), [430.0]);
        assert_eq!(f.counters().blocks_skipped(), 1);
        assert_eq!(f.counters().blocks_read(), 1);
        // Without the window, identical request reads both blocks.
        f.counters().reset();
        let plain = read_window(&f, &locs, &[2], None);
        assert_eq!(plain.row(0), [0.0]);
        assert_eq!(f.counters().blocks_read(), 2);
        assert_eq!(f.counters().blocks_skipped(), 0);
    }

    #[test]
    fn partitions_are_block_aligned_and_cover_rows() {
        let f = striped(50); // 13 blocks (last short)
        for n in [1usize, 3, 5, 20] {
            let parts = f.partitions(n).unwrap();
            let mut xs: Vec<f64> = Vec::new();
            for p in &parts {
                assert!(
                    p.start % 4 == 0,
                    "partition starts on a block boundary: {p:?}"
                );
                let rows = scanned_rows(&f, &part_request(*p, &[0])).unwrap();
                xs.extend(rows.into_iter().map(|(_, v)| v[0]));
            }
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            assert_eq!(xs.len(), 50, "n={n}");
            assert_eq!(xs[49], 49.0);
        }
        f.counters().reset();
        let rows = scanned_rows(&f, &part_request(ScanPartition::WHOLE, &[])).unwrap();
        assert_eq!(rows.len(), 50, "the WHOLE sentinel is honored");
        assert_eq!(
            f.counters().bytes_read(),
            0,
            "locators alone decode nothing"
        );
    }

    #[test]
    fn partitions_decode_to_at_most_one_scan_block_however_small_the_file() {
        // Constant columns pack to nothing: 600 000 rows in a few KB. What a
        // shard decodes to is what bounds it, not the file's size.
        let rows = (0..600_000).map(|_| vec![1.0, 2.0]);
        let f = ZoneFile::from_rows(&Schema::synthetic(2), rows).unwrap();
        assert!(f.size_bytes() < crate::scan::BLOCK_BYTES / 8);
        let cap = crate::scan::BLOCK_BYTES / 16;
        let parts = f.partitions(1).unwrap();
        assert!(parts.len() >= 3, "{parts:?}");
        for p in &parts {
            assert_eq!(p.start % f.block_rows() as u64, 0, "block-aligned: {p:?}");
            assert!(p.end - p.start <= cap, "{p:?}");
        }
        // Between them the shards charge exactly one scan.
        f.scan(&mut |_, _, _| Ok(())).unwrap();
        let serial = f.counters().snapshot();
        f.counters().reset();
        for p in parts {
            scanned_rows(&f, &part_request(p, &[0, 1])).unwrap();
        }
        assert_eq!(f.counters().snapshot(), serial);
    }

    #[test]
    fn empty_file_scans_nothing() {
        let f = ZoneFile::from_rows(&Schema::synthetic(2), Vec::<Vec<f64>>::new()).unwrap();
        assert_eq!(f.n_rows(), 0);
        assert_eq!(f.n_blocks(), 0);
        let mut rows = 0;
        f.scan(&mut |_, _, _| {
            rows += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(rows, 0);
        assert!(f.partitions(4).unwrap().is_empty());
        assert!(f.block_stats().unwrap().is_empty());
    }

    #[test]
    fn truncated_and_mangled_files_rejected() {
        let bytes = convert_to_zone(
            &MemFile::from_rows(Schema::synthetic(3), CsvFormat::default(), rows()).unwrap(),
        )
        .unwrap();
        assert!(ZoneFile::from_bytes(bytes.clone()).is_ok());

        let mut truncated = bytes.clone();
        truncated.truncate(bytes.len() - 3);
        assert!(ZoneFile::from_bytes(truncated).is_err());

        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(ZoneFile::from_bytes(bad_magic).is_err());

        let mut padded = bytes.clone();
        padded.push(0);
        let err = ZoneFile::from_bytes(padded).unwrap_err();
        assert!(err.to_string().contains("does not match"), "{err}");
    }

    #[test]
    fn crafted_headers_fail_cleanly() {
        let bytes = convert_to_zone(
            &MemFile::from_rows(Schema::synthetic(3), CsvFormat::default(), rows()).unwrap(),
        )
        .unwrap();

        // Absurd column count must not allocate.
        let mut crafted = bytes.clone();
        crafted[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = ZoneFile::from_bytes(crafted).unwrap_err();
        assert!(err.to_string().contains("column count"), "{err}");

        // Absurd row count: the block table cannot fit in the file, and the
        // guard must trip before any table-sized allocation happens.
        let mut crafted = bytes.clone();
        crafted[20..28].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        let err = ZoneFile::from_bytes(crafted).unwrap_err();
        assert!(err.to_string().contains("corrupt"), "{err}");

        // Zero and absurd block sizes (overflowing stride family).
        for bs in [0u32, u32::MAX] {
            let mut crafted = bytes.clone();
            crafted[28..32].copy_from_slice(&bs.to_le_bytes());
            let err = ZoneFile::from_bytes(crafted).unwrap_err();
            assert!(err.to_string().contains("block size"), "{bs}: {err}");
        }

        // A block width beyond 64 bits.
        let names_len: usize = Schema::synthetic(3)
            .columns()
            .iter()
            .map(|c| 2 + c.name.len())
            .sum();
        let table_start = 32 + names_len;
        let mut crafted = bytes.clone();
        crafted[table_start + 16] = 200;
        let err = ZoneFile::from_bytes(crafted).unwrap_err();
        assert!(err.to_string().contains("width"), "{err}");

        // An envelope the declared width cannot span.
        let mut crafted = bytes;
        crafted[table_start + 16] = 1;
        let err = ZoneFile::from_bytes(crafted).unwrap_err();
        assert!(
            err.to_string().contains("envelope") || err.to_string().contains("match"),
            "{err}"
        );
    }

    /// Byte offset of the synopsis section's `sect_len` field for a file
    /// with `n_cols` synthetic columns and `n_blocks` blocks.
    fn sect_len_pos(n_cols: usize, n_blocks: u64) -> usize {
        let names: usize = Schema::synthetic(n_cols)
            .columns()
            .iter()
            .map(|c| 2 + c.name.len())
            .sum();
        32 + names + n_cols * n_blocks as usize * 17
    }

    #[test]
    fn v2_round_trips_synopses() {
        let f = striped(12); // 3 blocks of 4 rows
        let syn = f.block_synopses().expect("every image carries synopses");
        assert_eq!(syn.len(), 3);
        assert_eq!(syn[1].row_start, 4);
        assert_eq!(syn[1].row_end, 8);
        // x = row id: block 1 holds 4..8.
        assert_eq!(syn[1].cols[0].min, 4.0);
        assert_eq!(syn[1].cols[0].max, 7.0);
        assert_eq!(syn[1].cols[0].count, 4);
        assert_eq!(syn[1].cols[0].sum, 22.0);
        assert_eq!(syn[1].cols[0].sum_sq, 126.0);
        assert_eq!(syn[1].cols[0].hist.iter().sum::<u64>(), 4);

        // Disk + mmap round trips preserve the section bit-exactly.
        let dir = std::env::temp_dir().join("pai_zone_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("synopses.paizone");
        let csv = MemFile::from_rows(Schema::synthetic(3), CsvFormat::default(), rows()).unwrap();
        let zone = write_zone(&csv, &path).unwrap();
        let from_disk = zone.block_synopses().unwrap().to_vec();
        let mapped = ZoneFile::open_mapped(&path).unwrap();
        assert_eq!(mapped.block_synopses().unwrap(), from_disk.as_slice());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn images_carrying_row_samples_still_open() {
        // The writer emits no samples: a zero budget, a zero count a block.
        let bytes = encode_zone_rows_with(
            &Schema::synthetic(3),
            (0..12)
                .map(|i| vec![i as f64, (i % 7) as f64, i as f64 * 10.0])
                .collect::<Vec<_>>(),
            4,
        )
        .unwrap();
        let pos = sect_len_pos(3, 3);
        let sect_len = u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap()) as usize;
        let n_buckets = u32::from_le_bytes(bytes[pos + 8..pos + 12].try_into().unwrap()) as usize;
        assert_eq!(bytes[pos + 12..pos + 16], [0; 4], "sample budget");
        let counts_at = pos + 16 + 3 * 3 * (40 + 8 * n_buckets);
        assert_eq!(counts_at + 3 * 4, pos + 8 + sect_len);
        assert!(bytes[counts_at..counts_at + 12].iter().all(|&b| b == 0));

        // An older writer's image: budget 2, two schema-wide samples in the
        // last block. It opens, and reads as the image without them.
        let mut old = bytes.clone();
        old[pos + 12..pos + 16].copy_from_slice(&2u32.to_le_bytes());
        let last = counts_at + 8;
        old[last..last + 4].copy_from_slice(&2u32.to_le_bytes());
        let rows: Vec<u8> = (0..6)
            .flat_map(|i| (i as f64).to_bits().to_le_bytes())
            .collect();
        old.splice(last + 4..last + 4, rows);
        old[pos..pos + 8].copy_from_slice(&(sect_len as u64 + 48).to_le_bytes());
        let (old, new) = (
            ZoneFile::from_bytes(old).unwrap(),
            ZoneFile::from_bytes(bytes).unwrap(),
        );
        assert_eq!(old.block_synopses(), new.block_synopses());
        let all: Vec<RowLocator> = (0..12).map(RowLocator::new).collect();
        assert_eq!(
            old.read_rows(&all, &[0, 1, 2]).unwrap(),
            new.read_rows(&all, &[0, 1, 2]).unwrap()
        );
    }

    #[test]
    fn paizone1_images_are_refused() {
        // The synopsis-free layout an earlier writer emitted: a current
        // image with its synopsis section cut out and the old magic.
        let bytes = encode_zone_rows_with(
            &Schema::synthetic(3),
            (0..12)
                .map(|i| vec![i as f64, (i % 7) as f64, i as f64 * 10.0])
                .collect::<Vec<_>>(),
            4,
        )
        .unwrap();
        let pos = sect_len_pos(3, 3);
        let sect_len = u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap()) as usize;
        let mut v1 = bytes.clone();
        v1.drain(pos..pos + 8 + sect_len);
        v1[..8].copy_from_slice(b"PAIZONE1");
        // And the current layout under the old magic.
        let mut relabelled = bytes;
        relabelled[..8].copy_from_slice(b"PAIZONE1");
        for image in [v1, relabelled] {
            let err = ZoneFile::from_bytes(image).unwrap_err().to_string();
            assert!(err.contains("bad magic"), "{err}");
        }
    }

    #[test]
    fn corrupt_synopsis_sections_fail_cleanly() {
        let bytes = convert_to_zone(
            &MemFile::from_rows(Schema::synthetic(3), CsvFormat::default(), rows()).unwrap(),
        )
        .unwrap();
        assert!(ZoneFile::from_bytes(bytes.clone()).is_ok());
        let pos = sect_len_pos(3, 1);

        // Oversized: a section length past the end of the file.
        let mut crafted = bytes.clone();
        crafted[pos..pos + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = ZoneFile::from_bytes(crafted).unwrap_err();
        assert!(err.to_string().contains("exceeds the file"), "{err}");

        // Mismatched: one byte longer than the records it holds.
        let sect_len = u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap());
        let mut crafted = bytes.clone();
        crafted[pos..pos + 8].copy_from_slice(&(sect_len + 1).to_le_bytes());
        let err = ZoneFile::from_bytes(crafted).unwrap_err();
        assert!(err.to_string().contains("corrupt"), "{err}");

        // Absurd bucket counts must not allocate.
        for buckets in [0u32, u32::MAX] {
            let mut crafted = bytes.clone();
            crafted[pos + 8..pos + 12].copy_from_slice(&buckets.to_le_bytes());
            let err = ZoneFile::from_bytes(crafted).unwrap_err();
            assert!(err.to_string().contains("bucket count"), "{buckets}: {err}");
        }

        // Absurd sample budget.
        let mut crafted = bytes.clone();
        crafted[pos + 12..pos + 16].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = ZoneFile::from_bytes(crafted).unwrap_err();
        assert!(err.to_string().contains("sample budget"), "{err}");

        // Truncated mid-section.
        let mut truncated = bytes.clone();
        truncated.truncate(pos + 20);
        assert!(ZoneFile::from_bytes(truncated).is_err());

        // A sample count beyond the declared budget (the count sits after
        // the fixed per-(column, block) records).
        let n_buckets = u32::from_le_bytes(bytes[pos + 8..pos + 12].try_into().unwrap()) as usize;
        let samples_at = pos + 16 + 3 * (40 + 8 * n_buckets);
        let mut crafted = bytes.clone();
        crafted[samples_at..samples_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = ZoneFile::from_bytes(crafted).unwrap_err();
        assert!(err.to_string().contains("samples"), "{err}");
    }

    #[test]
    fn compression_beats_raw_f64_on_clustered_values() {
        // The bench generator's shape: values clustering inside a block.
        let data: Vec<Vec<f64>> = (0..4096)
            .map(|i| {
                let t = i as f64 / 4096.0;
                vec![
                    t * 1000.0,
                    (1.0 - t) * 1000.0,
                    100.0 + 30.0 * (t * 6.0).sin(),
                ]
            })
            .collect();
        // The whole file, header and zone maps included, is smaller than
        // the values alone at 8 bytes each.
        let raw_bytes = 8 * 3 * data.len() as u64;
        let zone = ZoneFile::from_rows(&Schema::synthetic(3), data).unwrap();
        assert!(
            zone.size_bytes() < raw_bytes,
            "zone {} vs raw {raw_bytes}",
            zone.size_bytes()
        );
        assert!(zone.mean_bits_per_value() < 64.0);

        // A coalesced positional run also moves fewer than 8 bytes a value.
        let locs: Vec<RowLocator> = (100..600).map(RowLocator::new).collect();
        zone.counters().reset();
        zone.read_rows(&locs, &[2]).unwrap();
        assert!(
            zone.counters().bytes_read() < 8 * locs.len() as u64,
            "zone {} vs raw {}",
            zone.counters().bytes_read(),
            8 * locs.len()
        );
    }
}
