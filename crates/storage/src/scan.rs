//! The CSV scanner and reader: line-aligned partitions, a block-buffered
//! pass over them, and positional reads through the same splitter.
//!
//! Index initialization is the one unavoidable full pass over the raw file.
//! To keep data-to-analysis time low (the whole point of the in-situ
//! paradigm) the pass is cut into byte ranges aligned on record boundaries
//! (`chunk_ranges`, behind [`RawFile::partitions`](crate::RawFile::partitions))
//! that workers scan independently (`scan_range`, behind
//! [`RawFile::scan_batches`](crate::RawFile::scan_batches)) while one
//! thread folds their results in file order. A range is read with one
//! positional read per block; its lines are split in place, no further than
//! the last requested field, and each requested field is parsed once,
//! straight into a column buffer that is lent to the handler every
//! [`SCAN_BATCH_ROWS`] records. The meters are charged once per batch.
//!
//! The full sequential scan is the same code over the whole file, so the
//! partitions of one `chunk_ranges` call charge, between them, exactly what
//! one full scan charges: every byte once (header included), every record
//! once, and one `full_scans` tick — carried by the range that starts at
//! byte 0, which is also the one that skips the header line.
//!
//! Positional reads ([`RawFile::read_rows_into`](crate::RawFile::read_rows_into),
//! `read_rows` here) are what a query pays afterwards: the wanted records,
//! grouped into spans that are each read once and parsed in place, no further
//! into a record than the last wanted field — a long request by as many
//! threads as the machine has, each on its own run of the records, charging
//! between them exactly what one thread charges.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::sync::OnceLock;

use pai_common::{AttrId, IoCounters, PaiError, Result, RowLocator};

use crate::batch::RowBatch;
use crate::csv::{self, bytes_equal, CsvFormat};
use crate::raw::{BatchHandler, BatchLocators, ScanBatch, ScanRequest};

/// A byte range `[start, end)` of a file that begins at a record boundary —
/// the CSV backend's concrete reading of the backend-agnostic
/// [`ScanPartition`](crate::raw::ScanPartition) (same type, no conversion).
pub use crate::raw::ScanPartition as ChunkRange;

/// The most a range scan holds in memory at once (longer ranges are read
/// block by block, cut at line ends) — and the partition size the index
/// build asks for, so one partition is one read.
pub const BLOCK_BYTES: u64 = 4 << 20;

/// Records a CSV scan parses into its column buffers before lending them as
/// one batch: the rows of a columnar backend's block, so a batch's columns
/// stay in cache while the handler walks them.
pub const SCAN_BATCH_ROWS: usize = 4096;

/// Where a CSV record sits in its file, for error messages: a full scan
/// counts lines, a partitioned scan starts mid-file and only knows offsets.
#[derive(Debug, Clone, Copy)]
enum CsvPos {
    /// 1-based line number.
    Line(u64),
    /// Byte offset of the record's first byte.
    Offset(u64),
}

impl CsvPos {
    fn error(self, msg: String) -> PaiError {
        match self {
            CsvPos::Line(n) => PaiError::parse(n, msg),
            CsvPos::Offset(o) => PaiError::parse_at(o, msg),
        }
    }
}

/// How many units (pages, blocks) of `unit_bytes` decoded bytes each a
/// columnar backend puts in one shard when asked for `n` shards of a file of
/// `units`: an even split, but never more than decode to [`BLOCK_BYTES`] —
/// what a consumer buffers per shard is then bounded by the file's shape,
/// however well it compresses and however few shards were asked for.
pub(crate) fn units_per_shard(units: u64, unit_bytes: u64, n: usize) -> u64 {
    let even = units.div_ceil((n as u64).clamp(1, units.max(1)));
    even.min((BLOCK_BYTES / unit_bytes.max(1)).max(1))
}

/// Positional reads over CSV bytes: all a partitioned scan needs to know
/// about where the text lives.
pub(crate) trait ReadAt {
    /// Total length in bytes.
    fn len(&self) -> u64;

    /// Lends the bytes of `[start, end)`, through `buf` if they have to be
    /// read from somewhere.
    fn read_at<'a>(&'a mut self, start: u64, end: u64, buf: &'a mut Vec<u8>) -> Result<&'a [u8]>;
}

/// An in-memory buffer lends its own bytes.
impl ReadAt for &[u8] {
    fn len(&self) -> u64 {
        <[u8]>::len(self) as u64
    }

    fn read_at<'a>(&'a mut self, start: u64, end: u64, _: &'a mut Vec<u8>) -> Result<&'a [u8]> {
        Ok(&self[start as usize..end as usize])
    }
}

/// An open file of known length.
pub(crate) struct DiskBytes {
    pub(crate) file: File,
    pub(crate) len: u64,
}

impl ReadAt for DiskBytes {
    fn len(&self) -> u64 {
        self.len
    }

    fn read_at<'a>(&'a mut self, start: u64, end: u64, buf: &'a mut Vec<u8>) -> Result<&'a [u8]> {
        // `read_to_end` fills spare capacity as it is: no zeroing pass over
        // a block that is about to be overwritten.
        buf.clear();
        self.file.seek(SeekFrom::Start(start))?;
        let got = (&mut self.file).take(end - start).read_to_end(buf)?;
        if (got as u64) < end - start {
            return Err(std::io::Error::from(std::io::ErrorKind::UnexpectedEof).into());
        }
        Ok(buf)
    }
}

/// The offset just past the first newline at or after `pos` (the length of
/// the source when there is none).
fn line_end(src: &mut impl ReadAt, mut pos: u64) -> Result<u64> {
    const PROBE: u64 = 4096;
    let len = src.len();
    let mut buf = Vec::new();
    while pos < len {
        let probe = src.read_at(pos, (pos + PROBE).min(len), &mut buf)?;
        if let Some(i) = find_newline(probe) {
            return Ok(pos + i as u64 + 1);
        }
        pos += probe.len() as u64;
    }
    Ok(len)
}

/// Splits the source into at most `n` contiguous ranges cut at line ends.
///
/// The ranges cover every byte: the first starts at byte 0 and so carries the
/// header line, which [`scan_range`] skips there. Fewer than `n` ranges come
/// back for small files; an empty source has none.
pub(crate) fn chunk_ranges(src: &mut impl ReadAt, n: usize) -> Result<Vec<ChunkRange>> {
    assert!(n >= 1, "need at least one chunk");
    let size = src.len();
    let target = (size / n as u64).max(1);
    let mut cuts = vec![0];
    for i in 1..n as u64 {
        let guess = i * target;
        if guess >= size {
            break;
        }
        // A guess that already sits just past a newline is a cut as it is.
        let aligned = line_end(src, guess - 1)?;
        if aligned < size && aligned > *cuts.last().expect("cuts never empty") {
            cuts.push(aligned);
        }
    }
    cuts.push(size);
    Ok(cuts
        .windows(2)
        .filter(|w| w[1] > w[0])
        .map(|w| ChunkRange {
            start: w[0],
            end: w[1],
        })
        .collect())
}

/// Scans the records inside `request.partition` (a byte range), lending
/// them to `handler` in batches of up to [`SCAN_BATCH_ROWS`]: byte-offset
/// locators relative to the whole file, and the requested fields parsed into
/// columns. The window is ignored; text has no block statistics.
///
/// The range's end is clamped to the source, so [`ChunkRange::WHOLE`] is the
/// full sequential scan. A range starting at byte 0 ticks `full_scans` and
/// skips the header; its parse errors name the line, any other range's the
/// record's byte offset (line numbers are unknowable mid-file).
pub(crate) fn scan_range(
    src: &mut impl ReadAt,
    fmt: &CsvFormat,
    request: &ScanRequest<'_>,
    counters: &IoCounters,
    handler: &mut BatchHandler<'_>,
) -> Result<()> {
    let range = request.partition;
    let end = range.end.min(src.len());
    let mut start = range.start;
    if start == 0 {
        counters.add_full_scan();
    }
    let mut state = ScanState::new(request.attrs, start == 0);
    let mut buf = Vec::new();
    while start < end {
        let stop = if end - start <= BLOCK_BYTES {
            end
        } else {
            line_end(src, start + BLOCK_BYTES - 1)?.min(end)
        };
        let block = src.read_at(start, stop, &mut buf)?;
        state.scan_block(block, start, fmt, counters, handler)?;
        start = stop;
    }
    Ok(())
}

/// What carries over from one block of a range to the next.
struct ScanState<'r> {
    attrs: &'r [AttrId],
    /// The requested columns, each once, in request order: a record's
    /// fields are parsed in this order, so its first bad one is named.
    fields: Vec<AttrId>,
    /// How many fields a record is split into: through the last requested.
    limit: usize,
    /// 1-based number of the next line, when the range began at byte 0.
    line: Option<u64>,
    /// Field ranges of the current line (reused across lines).
    ranges: Vec<(usize, usize)>,
    /// The values parsed since the last batch, by column id, and their
    /// records' locators.
    columns: Vec<Vec<f64>>,
    locators: Vec<RowLocator>,
}

impl<'r> ScanState<'r> {
    fn new(attrs: &'r [AttrId], from_start: bool) -> Self {
        let mut fields: Vec<AttrId> = Vec::with_capacity(attrs.len());
        for &a in attrs {
            if !fields.contains(&a) {
                fields.push(a);
            }
        }
        let limit = attrs.iter().max().map_or(0, |&last| last + 1);
        ScanState {
            attrs,
            fields,
            limit,
            line: from_start.then_some(1),
            ranges: Vec::with_capacity(16),
            columns: vec![Vec::new(); limit],
            locators: Vec::with_capacity(SCAN_BATCH_ROWS),
        }
    }

    /// Walks the lines of `block` (whole lines, first byte at file offset
    /// `base`) in place, lending a batch every [`SCAN_BATCH_ROWS`] records
    /// and at the block's end. A record that does not parse ends the scan
    /// after the records before it are lent.
    fn scan_block(
        &mut self,
        block: &[u8],
        base: u64,
        fmt: &CsvFormat,
        counters: &IoCounters,
        handler: &mut BatchHandler<'_>,
    ) -> Result<()> {
        let (mut pos, mut charged) = (0usize, 0usize);
        let mut skip = base == 0 && fmt.has_header;
        while pos < block.len() {
            let (body_end, next) = split_line(block, pos, fmt, self.limit, &mut self.ranges);
            if skip {
                skip = false;
            } else if body_end > pos {
                let offset = base + pos as u64;
                if let Err(msg) = self.parse(&block[pos..]) {
                    self.lend(pos - charged, counters, handler)?;
                    let at = self.line.map_or(CsvPos::Offset(offset), CsvPos::Line);
                    return Err(at.error(msg));
                }
                self.locators.push(RowLocator::new(offset));
                if self.locators.len() == SCAN_BATCH_ROWS {
                    self.lend(next - charged, counters, handler)?;
                    charged = next;
                }
            }
            if let Some(line) = &mut self.line {
                *line += 1;
            }
            pos = next;
        }
        self.lend(pos - charged, counters, handler)
    }

    /// Parses the requested fields of `record`, split into `self.ranges`,
    /// onto the columns — all of them, or none.
    fn parse(&mut self, record: &[u8]) -> std::result::Result<(), String> {
        for (k, &col) in self.fields.iter().enumerate() {
            match csv::field_f64(record, &self.ranges, col) {
                Ok(v) => self.columns[col].push(v),
                Err(msg) => {
                    for &done in &self.fields[..k] {
                        self.columns[done].pop();
                    }
                    return Err(msg);
                }
            }
        }
        Ok(())
    }

    /// Charges `bytes` of text and the records parsed since the last batch,
    /// then lends those records (if any) to the handler.
    fn lend(
        &mut self,
        bytes: usize,
        counters: &IoCounters,
        handler: &mut BatchHandler<'_>,
    ) -> Result<()> {
        let rows = self.locators.len();
        counters.add_bytes(bytes as u64);
        counters.add_objects(rows as u64);
        let outcome = match rows {
            0 => Ok(()),
            _ => handler(&ScanBatch::new(
                BatchLocators::List(&self.locators),
                &self.columns,
                self.attrs,
                0..rows,
            )),
        };
        self.locators.clear();
        for column in &mut self.columns {
            column.clear();
        }
        outcome
    }
}

/// Wanted records whose starts are further apart than this begin a new
/// span: up to about here, reading through what lies between costs less than
/// one more positional read. A constant, like [`BLOCK_BYTES`]: both trade a
/// copy against a system call, which the data does not change.
pub const SPAN_GAP_BYTES: u64 = 16 << 10;

/// How far past its last record's start a span reads at first, to hold that
/// record's end; doubled for the rest of the call whenever a record runs
/// past it.
pub const SPAN_TAIL_BYTES: u64 = 1 << 10;

/// The fewest records of one positional read worth a thread of their own:
/// a request shorter than twice this is parsed by its caller alone. A
/// constant like the two above — it weighs a thread's start and its file
/// handle (≈ 25 µs on the reference box) against parsing (≈ 140 ns a
/// record), which the data does not change. The repo benchmark's reads are
/// long (17 000 records a call) and cannot tell 256 from 2 048, while 8 192
/// gives half of the `session_qps` gain back; a session of short reads
/// (1 700 records a call) read no faster than one thread at 512 and equally
/// well from 1 024 to 4 096.
pub const PART_MIN_RECORDS: usize = 2048;

/// Positional reads: the values of `attrs` for the record at each of
/// `locators` (byte offsets), into `out` in request order.
///
/// The request is served in offset order (sorted once, unless it already is)
/// by spans: runs of offsets no more than [`SPAN_GAP_BYTES`] apart and
/// [`BLOCK_BYTES`] long, each read with one positional read. Records are
/// parsed where they lie, no further than the last wanted field, by the
/// scanner's own splitter.
///
/// A long request is cut, in offset order, into contiguous parts of about
/// equal record count — as many as the machine has threads, none shorter than
/// [`PART_MIN_RECORDS`] — that are parsed at once, each through its own
/// source from `open` into its own run of the output. Nothing a caller can
/// observe depends on the cut: values, meters and errors are those of one
/// part.
///
/// The meters count the request, not the spans or the parts: one call, one
/// object per locator, each record's bytes line end included, and one seek
/// per record that does not start where the one before it (in offset order)
/// ended. Nothing but the call is charged when the read fails, and the
/// failure reported is that of the first bad record in offset order.
pub(crate) fn read_rows<S: ReadAt>(
    open: impl Fn() -> Result<S> + Sync,
    fmt: &CsvFormat,
    counters: &IoCounters,
    locators: &[RowLocator],
    attrs: &[AttrId],
    out: &mut RowBatch,
) -> Result<()> {
    // Asked of the system once: the answer costs a few file reads under
    // cgroups, more than a short request does.
    static WIDTH: OnceLock<usize> = OnceLock::new();
    let width = *WIDTH.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    read_rows_parallel(
        open,
        fmt,
        counters,
        locators,
        attrs,
        out,
        width,
        PART_MIN_RECORDS,
    )
}

/// [`read_rows`] with the number of threads and the shortest part spelled
/// out: the same function, and the same output and meters at every setting.
#[allow(clippy::too_many_arguments)]
pub(crate) fn read_rows_parallel<S: ReadAt>(
    open: impl Fn() -> Result<S> + Sync,
    fmt: &CsvFormat,
    counters: &IoCounters,
    locators: &[RowLocator],
    attrs: &[AttrId],
    out: &mut RowBatch,
    threads: usize,
    part_min: usize,
) -> Result<()> {
    counters.add_read_call();
    let (n, width) = (locators.len(), attrs.len());
    let values = out.reset(width, n);
    let mut src = open()?;

    // The requests in offset order, each with its row in `out`; tile entries
    // mostly come in file order as they are.
    let mut order: Vec<(u64, usize)> = Vec::new();
    let sorted = locators.is_sorted_by_key(|l| l.raw());
    if !sorted {
        order.extend(locators.iter().enumerate().map(|(row, l)| (l.raw(), row)));
        order.sort_unstable();
    }
    let at = |i: usize| {
        if sorted {
            locators[i].raw()
        } else {
            order[i].0
        }
    };
    if n > 0 && at(n - 1) >= src.len() {
        return Err(PaiError::internal(format!(
            "positional read at offset {} hit EOF",
            at(n - 1)
        )));
    }

    // Every part fills its own run of the rows in offset order: `out` itself
    // when that is the request's order, else a staging copy scattered below.
    let mut staged = Vec::new();
    let mut rest: &mut [f64] = if sorted {
        &mut *values
    } else {
        staged.resize(n * width, 0.0);
        &mut staged
    };
    let parts = threads.min(n / part_min).max(1);
    let cut = |p: usize| p * n / parts;
    let mut run = |p: usize| {
        let (mine, tail) = std::mem::take(&mut rest).split_at_mut((cut(p + 1) - cut(p)) * width);
        rest = tail;
        mine
    };
    let head = run(0);
    let metered: Vec<Result<PartMeters>> = std::thread::scope(|s| {
        let open = &open;
        let workers: Vec<_> = (1..parts)
            .map(|p| {
                let mine = run(p);
                s.spawn(move || read_part(&mut open()?, fmt, at, cut(p)..cut(p + 1), attrs, mine))
            })
            .collect();
        let head = read_part(&mut src, fmt, at, 0..cut(1), attrs, head);
        let joined = workers
            .into_iter()
            .map(|w| w.join().expect("a read part panicked"));
        std::iter::once(head).chain(joined).collect()
    });

    // One request again: a part's first record is a seek of the request only
    // if it does not start where the part before it ended.
    let (mut bytes, mut seeks, mut prev_end) = (0u64, 0u64, 0u64);
    for (p, part) in metered.into_iter().enumerate() {
        let part = part?;
        bytes += part.bytes;
        seeks += part.seeks - u64::from(p > 0 && prev_end == at(cut(p)));
        prev_end = part.end;
    }
    if !sorted {
        for (from, &(_, row)) in staged.chunks_exact(width.max(1)).zip(&order) {
            values[row * width..][..width].copy_from_slice(from);
        }
    }
    counters.add_objects(n as u64);
    counters.add_bytes(bytes);
    counters.add_seeks(seeks);
    Ok(())
}

/// What one part of a positional read would charge were it the whole request.
struct PartMeters {
    bytes: u64,
    /// Its first record is one of them.
    seeks: u64,
    /// Where its last record ends.
    end: u64,
}

/// Reads the records `range` of a request — `at(i)` the offset of its `i`th
/// record in offset order — into `dst`, a row each, in that order.
fn read_part(
    src: &mut impl ReadAt,
    fmt: &CsvFormat,
    at: impl Fn(usize) -> u64,
    range: std::ops::Range<usize>,
    attrs: &[AttrId],
    dst: &mut [f64],
) -> Result<PartMeters> {
    let (width, len) = (attrs.len(), src.len());
    let limit = attrs.iter().max().map_or(0, |&last| last.saturating_add(1));
    let (mut buf, mut ranges) = (Vec::new(), Vec::with_capacity(16));
    let mut tail = SPAN_TAIL_BYTES;
    let (mut bytes, mut seeks, mut prev_end) = (0u64, 0u64, None);
    let (mut i, n) = (range.start, range.end);
    while i < n {
        let first = at(i);
        let mut j = i + 1;
        while j < n && at(j) - at(j - 1) <= SPAN_GAP_BYTES && at(j) - first < BLOCK_BYTES {
            j += 1;
        }
        // From one byte early: a record starts at byte 0 or after a newline.
        let base = first.saturating_sub(1);
        let end = (at(j - 1) + tail).min(len);
        let block = src.read_at(base, end, &mut buf)?;
        while i < j {
            let off = at(i);
            let pos = CsvPos::Offset(off);
            let start = (off - base) as usize;
            if start > 0 && block[start - 1] != b'\n' {
                return Err(pos.error("locator does not start a record".into()));
            }
            let (_, next) = split_line(block, start, fmt, limit, &mut ranges);
            if block[next - 1] != b'\n' && end < len {
                // The span ends inside this record: read on from it, with
                // more slack.
                tail *= 2;
                break;
            }
            let row = i - range.start;
            for (v, &col) in dst[row * width..][..width].iter_mut().zip(attrs) {
                *v = csv::field_f64(&block[start..], &ranges, col).map_err(|msg| pos.error(msg))?;
            }
            let rec_end = base + next as u64;
            seeks += u64::from(prev_end != Some(off));
            bytes += rec_end - off;
            prev_end = Some(rec_end);
            i += 1;
        }
    }
    Ok(PartMeters {
        bytes,
        seeks,
        end: prev_end.unwrap_or(0),
    })
}

/// Index of the first `\n` in `hay`, eight bytes at a time.
fn find_newline(hay: &[u8]) -> Option<usize> {
    let mut words = hay.chunks_exact(8);
    for (w, chunk) in words.by_ref().enumerate() {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        let hits = bytes_equal(word, b'\n');
        if hits != 0 {
            return Some(w * 8 + (hits.trailing_zeros() / 8) as usize);
        }
    }
    let tail = hay.len() - words.remainder().len();
    words
        .remainder()
        .iter()
        .position(|&b| b == b'\n')
        .map(|i| tail + i)
}

/// Finds the line that starts at `block[start]` and splits its first `limit`
/// fields (or more) into `out` (field ranges relative to `start`), in one
/// pass over its bytes. Returns where the line's body ends — the line without
/// its `\n` and any `\r`s before it — and where the next line starts.
///
/// Those fields are exactly what [`csv::split_fields`] finds on that body; a
/// line with a quoted field among them is handed to `split_fields` itself.
fn split_line(
    block: &[u8],
    start: usize,
    fmt: &CsvFormat,
    limit: usize,
    out: &mut Vec<(usize, usize)>,
) -> (usize, usize) {
    out.clear();
    let newline_from = |pos: usize| find_newline(&block[pos..]).map_or(block.len(), |i| pos + i);
    let stop = match split_unquoted(block, start, fmt, limit, out) {
        Some((last_field, stop)) if out.len() < limit => {
            // Trailing `\r`s belong to the line end, not to the last field
            // (they cannot reach past its start: the byte before it is a
            // delimiter).
            let body_end = trim_cr(block, start, stop);
            out.push((last_field - start, body_end.max(last_field) - start));
            stop
        }
        Some((rest, _)) => newline_from(rest),
        None => {
            let stop = newline_from(start);
            csv::split_fields(&block[start..trim_cr(block, start, stop)], fmt, out);
            stop
        }
    };
    (trim_cr(block, start, stop), (stop + 1).min(block.len()))
}

/// The fast path of [`split_line`]: looks for delimiters and the newline
/// together, eight bytes at a time, pushing every field but the last — and
/// no more than `limit` fields. Returns where the last field starts and the
/// index of the `\n` (or of the end of `block`) that stops the line; with
/// `limit` fields pushed, where the rest of the line starts, twice; or `None`
/// on meeting a quoted field (a quote at a field's first byte), inside which
/// delimiters do not split.
fn split_unquoted(
    block: &[u8],
    start: usize,
    fmt: &CsvFormat,
    limit: usize,
    out: &mut Vec<(usize, usize)>,
) -> Option<(usize, usize)> {
    let quoted = |field: usize| block.get(field) == Some(&fmt.quote);
    let mut field = start;
    if limit == 0 {
        return Some((start, start));
    }
    if quoted(field) {
        return None;
    }
    let mut i = start;
    while i + 8 <= block.len() {
        let word = u64::from_le_bytes(block[i..i + 8].try_into().expect("8 bytes"));
        let mut hits = bytes_equal(word, fmt.delimiter) | bytes_equal(word, b'\n');
        while hits != 0 {
            let j = i + (hits.trailing_zeros() / 8) as usize;
            hits &= hits - 1;
            if block[j] == b'\n' {
                return Some((field, j));
            }
            out.push((field - start, j - start));
            field = j + 1;
            if out.len() == limit {
                return Some((field, field));
            }
            if quoted(field) {
                return None;
            }
        }
        i += 8;
    }
    for (j, &b) in block.iter().enumerate().skip(i) {
        if b == b'\n' {
            return Some((field, j));
        }
        if b == fmt.delimiter {
            out.push((field - start, j - start));
            field = j + 1;
            if out.len() == limit {
                return Some((field, field));
            }
            if quoted(field) {
                return None;
            }
        }
    }
    Some((field, block.len()))
}

/// `stop` moved back over the `\r`s that precede it, not past `start`.
fn trim_cr(block: &[u8], start: usize, stop: usize) -> usize {
    let mut end = stop;
    while end > start && block[end - 1] == b'\r' {
        end -= 1;
    }
    end
}

#[cfg(test)]
#[path = "scan_parallel_tests.rs"]
mod parallel_tests;

#[cfg(test)]
mod tests {
    use super::*;

    fn text(rows: usize) -> Vec<u8> {
        let mut s = String::from("col0,col1\n");
        for i in 0..rows {
            s.push_str(&format!("{},{}\n", i, i * 10));
        }
        s.into_bytes()
    }

    fn ranges_of(mut src: &[u8], n: usize) -> Vec<ChunkRange> {
        chunk_ranges(&mut src, n).unwrap()
    }

    /// Scans `range` of `src`, returning (x values, locators).
    fn scan_of(mut src: &[u8], range: ChunkRange, counters: &IoCounters) -> (Vec<f64>, Vec<u64>) {
        let (mut xs, mut locs) = (Vec::new(), Vec::new());
        let fmt = CsvFormat::default();
        let request = crate::raw::part_request(range, &[0]);
        scan_range(&mut src, &fmt, &request, counters, &mut |batch| {
            assert!((1..=SCAN_BATCH_ROWS).contains(&batch.len()));
            xs.extend_from_slice(batch.column(0));
            locs.extend((0..batch.len()).map(|i| batch.locator(i).raw()));
            Ok(())
        })
        .unwrap();
        (xs, locs)
    }

    /// The line-at-a-time reference `split_line` must agree with: find the
    /// newline, strip the line ending, `split_fields`.
    fn split_line_reference(block: &[u8], start: usize) -> (usize, usize, Vec<(usize, usize)>) {
        let stop = block[start..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(block.len(), |i| start + i);
        let mut end = stop;
        while end > start && block[end - 1] == b'\r' {
            end -= 1;
        }
        let mut ranges = Vec::new();
        csv::split_fields(&block[start..end], &CsvFormat::default(), &mut ranges);
        (end, (stop + 1).min(block.len()), ranges)
    }

    #[test]
    fn split_line_agrees_with_split_fields_on_every_line_shape() {
        let fmt = CsvFormat::default();
        let pieces = [
            "",
            "1",
            "-2.5",
            ",",
            ",,",
            "\r",
            "\r\r",
            "\"a,b\"",
            "\"x\"\"y\"",
            "12345678",
            "a\"b",
            " 7 ",
            "1.25e-3,",
            ",\"q\"",
            "\"unterminated,",
        ];
        // Every concatenation of up to three pieces, at every alignment of
        // the 8-byte words, with and without a line ending.
        let mut lines: Vec<String> = Vec::new();
        for a in pieces {
            for b in pieces {
                for c in pieces {
                    lines.push(format!("{a}{b}{c}"));
                }
            }
        }
        let mut ranges = Vec::new();
        for line in &lines {
            for pad in ["", "x\n", "1234567\n"] {
                for ending in ["\n", "\r\n", "", "\nnext,line\n"] {
                    let text = format!("{pad}{line}{ending}");
                    let got = split_line(text.as_bytes(), pad.len(), &fmt, usize::MAX, &mut ranges);
                    let want = split_line_reference(text.as_bytes(), pad.len());
                    // An empty body is skipped by the scanner; its ranges
                    // are never looked at.
                    if want.0 > pad.len() {
                        assert_eq!((got.0, got.1, ranges.clone()), want, "{text:?}");
                    } else {
                        assert_eq!(got, (want.0, want.1), "{text:?}");
                    }
                    // Asked for its first fields only, the line ends where
                    // it did and those fields are the same.
                    for limit in 0..4 {
                        let got = split_line(text.as_bytes(), pad.len(), &fmt, limit, &mut ranges);
                        assert_eq!(got, (want.0, want.1), "{text:?} limit {limit}");
                        let k = limit.min(want.2.len());
                        assert!(ranges.len() >= k, "{text:?} limit {limit}");
                        assert_eq!(ranges[..k], want.2[..k], "{text:?} limit {limit}");
                    }
                }
            }
        }
    }

    #[test]
    fn bytes_equal_is_exact_in_every_lane() {
        // The classic borrow-based zero-byte test flags `-` after `,`; this
        // one must not.
        let word = u64::from_le_bytes(*b",-,\n-,+,");
        let lanes = |hits: u64| -> Vec<usize> {
            (0..8).filter(|i| hits & (0x80 << (8 * i)) != 0).collect()
        };
        assert_eq!(lanes(bytes_equal(word, b',')), vec![0, 2, 5, 7]);
        assert_eq!(lanes(bytes_equal(word, b'\n')), vec![3]);
        assert_eq!(bytes_equal(word, b'x'), 0);
        assert_eq!(find_newline(b"0123456789\nabc"), Some(10));
        assert_eq!(find_newline(b"012\n"), Some(3));
        assert_eq!(find_newline(b"0123456789"), None);
    }

    #[test]
    fn ranges_cover_the_source_exactly() {
        let src = text(1000);
        let ranges = ranges_of(&src, 4);
        assert_eq!(ranges.len(), 4);
        assert_eq!(ranges[0].start, 0, "the first range carries the header");
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start);
            assert_eq!(src[w[0].end as usize - 1], b'\n', "cut at a line end");
        }
        assert_eq!(ranges.last().unwrap().end, src.len() as u64);
    }

    #[test]
    fn partitions_charge_what_one_full_scan_charges() {
        let src = text(537);
        let whole = IoCounters::new();
        let (all_xs, all_locs) = scan_of(&src, ChunkRange::WHOLE, &whole);
        assert_eq!(all_xs.len(), 537);
        assert_eq!(whole.bytes_read(), src.len() as u64);
        for n in [1, 2, 3, 7, 600, 5000] {
            let counters = IoCounters::new();
            let (mut xs, mut locs) = (Vec::new(), Vec::new());
            for r in ranges_of(&src, n) {
                let (x, l) = scan_of(&src, r, &counters);
                xs.extend(x);
                locs.extend(l);
            }
            assert_eq!(xs, all_xs, "chunks={n}");
            assert_eq!(locs, all_locs, "chunks={n}");
            assert_eq!(counters.snapshot(), whole.snapshot(), "chunks={n}");
        }
    }

    #[test]
    fn more_chunks_than_rows_and_empty_sources() {
        assert!(ranges_of(&text(3), 16).len() <= 4);
        assert!(ranges_of(b"", 4).is_empty());
        // A header-only source is one range that yields no record but still
        // counts as a scan of the file.
        let header = text(0);
        let ranges = ranges_of(&header, 4);
        assert_eq!(ranges.len(), 1);
        let counters = IoCounters::new();
        assert!(scan_of(&header, ranges[0], &counters).0.is_empty());
        assert_eq!(counters.full_scans(), 1);
        assert_eq!(counters.bytes_read(), header.len() as u64);
    }

    #[test]
    fn long_ranges_are_read_block_by_block() {
        // ~10 MiB: the WHOLE range spans three blocks cut at line ends.
        let mut src = String::from("col0,col1\n");
        let mut rows = 0u64;
        while (src.len() as u64) < 2 * BLOCK_BYTES + BLOCK_BYTES / 2 {
            src.push_str(&format!("{rows},0.12345678901234567890\n"));
            rows += 1;
        }
        let counters = IoCounters::new();
        let (xs, _) = scan_of(src.as_bytes(), ChunkRange::WHOLE, &counters);
        assert_eq!(xs.len() as u64, rows);
        assert!(xs.iter().enumerate().all(|(i, &x)| x == i as f64));
        assert_eq!(counters.bytes_read(), src.len() as u64);
        assert_eq!(counters.objects_read(), rows);
    }

    /// Reads `offsets` of `src` through the positional kernel.
    fn read_of(
        src: &[u8],
        counters: &IoCounters,
        offsets: &[u64],
        attrs: &[AttrId],
    ) -> Result<RowBatch> {
        let locs: Vec<RowLocator> = offsets.iter().map(|&o| RowLocator::new(o)).collect();
        let mut out = RowBatch::default();
        read_rows(
            || Ok(src),
            &CsvFormat::default(),
            counters,
            &locs,
            attrs,
            &mut out,
        )?;
        Ok(out)
    }

    #[test]
    fn positional_reads_meter_the_request_not_the_spans() {
        let src = text(100); // "i,10i" records after a 10-byte header
        let (_, locs) = scan_of(&src, ChunkRange::WHOLE, &IoCounters::new());
        let counters = IoCounters::new();
        // Two runs and a duplicate, out of order: 40..43, 7, 7, 90..92.
        let req: Vec<u64> = [90, 91, 7, 40, 41, 42, 7]
            .iter()
            .map(|&r| locs[r])
            .collect();
        let out = read_of(&src, &counters, &req, &[1, 0]).unwrap();
        assert_eq!(out.row(0), [900.0, 90.0]);
        assert_eq!(out.row(2), [70.0, 7.0]);
        assert_eq!(out.row(5), [420.0, 42.0]);
        assert_eq!(out.row(6), [70.0, 7.0]);
        assert_eq!(counters.read_calls(), 1);
        assert_eq!(counters.objects_read(), 7);
        // 7, its duplicate, 40 and 90 each start somewhere new; one span
        // serves them all.
        assert_eq!(counters.seeks(), 4);
        let len = |r: usize| locs[r + 1] - locs[r];
        assert_eq!(
            counters.bytes_read(),
            2 * len(7) + len(40) + len(41) + len(42) + len(90) + len(91)
        );
    }

    #[test]
    fn positional_reads_cross_block_and_tail_boundaries() {
        // Records of ~3 KiB (past a span's first tail) and a run of them
        // longer than one block: spans close at BLOCK_BYTES and the read is
        // extended, never the field cut.
        let mut src = String::from("col0,col1,col2\n");
        let pad = "9".repeat(3000);
        let mut offsets = Vec::new();
        while (src.len() as u64) < BLOCK_BYTES + BLOCK_BYTES / 4 {
            offsets.push(src.len() as u64);
            src.push_str(&format!(
                "{},0.{pad},{}\n",
                offsets.len(),
                offsets.len() * 2
            ));
        }
        src.truncate(src.len() - 1); // and no newline ends the last record
        let counters = IoCounters::new();
        let out = read_of(src.as_bytes(), &counters, &offsets, &[2, 1]).unwrap();
        let want: f64 = format!("0.{pad}").parse().unwrap();
        for (i, row) in out.iter().enumerate() {
            assert_eq!(row, [(i + 1) as f64 * 2.0, want]);
        }
        assert_eq!(counters.seeks(), 1, "one run, however many spans");
        assert_eq!(counters.bytes_read(), src.len() as u64 - offsets[0]);
        // Alone, the last record is read to the end of the file.
        let last = read_of(
            src.as_bytes(),
            &counters,
            &offsets[offsets.len() - 1..],
            &[2],
        );
        assert_eq!(last.unwrap().values(), [offsets.len() as f64 * 2.0]);
    }

    #[test]
    fn bad_locators_and_records_are_errors_that_name_the_offset() {
        let src = b"col0,col1,col2\n1,2,3\n4,5\nbad,6,7\n8,\"q,q\",9";
        let err = |offsets: &[u64], attrs: &[AttrId]| {
            let counters = IoCounters::new();
            let e = read_of(src, &counters, offsets, attrs)
                .unwrap_err()
                .to_string();
            assert_eq!(counters.read_calls(), 1);
            assert_eq!(counters.objects_read() + counters.bytes_read(), 0, "{e}");
            e
        };
        // At or past the end of the file.
        assert!(err(&[15, src.len() as u64], &[0]).contains("hit EOF"));
        assert!(err(&[9_999_999], &[]).contains("offset 9999999 hit EOF"));
        // Inside a record — also as the first of its span, and with nothing
        // to parse.
        let inside = err(&[15, 17], &[0]);
        assert!(inside.contains("byte offset 17") && inside.contains("start a record"));
        assert!(err(&[17], &[]).contains("byte offset 17"));
        // Fewer fields than wanted.
        let short = err(&[15, 21], &[0, 2]);
        assert!(
            short.contains("byte offset 21") && short.contains("has 2 fields, wanted column 2")
        );
        // Not a number: the record's offset, not "line 0".
        let bad = err(&[25], &[1, 0]);
        assert!(
            bad.contains("byte offset 25") && bad.contains("'bad'"),
            "{bad}"
        );
        // Quoted text is not a number either; its delimiter did not split.
        assert!(err(&[33], &[1]).contains("'q,q'"));
        // What can be read still is: past a quoted field, the short
        // record's first field, and a last record with no newline.
        let ok = |offsets: &[u64], attrs: &[AttrId]| {
            read_of(src, &IoCounters::new(), offsets, attrs).unwrap()
        };
        assert_eq!(ok(&[33, 21], &[0]).values(), [8.0, 4.0]);
        assert_eq!(ok(&[33], &[2, 0]).values(), [9.0, 8.0]);
    }

    #[test]
    fn mid_file_errors_name_the_byte_offset_and_charge_what_was_read() {
        let src = b"col0,col1\n1,2\nbad,3\n4,5\n";
        let fmt = CsvFormat::default();
        let request = |range| crate::raw::part_request(range, &[1, 0]);
        let mut delivered = Vec::new();
        let counters = IoCounters::new();
        let from_start = scan_range(
            &mut &src[..],
            &fmt,
            &request(ChunkRange::WHOLE),
            &counters,
            &mut |batch| {
                delivered.push((batch.column(0).to_vec(), batch.column(1).to_vec()));
                Ok(())
            },
        )
        .unwrap_err()
        .to_string();
        assert!(from_start.contains("line 3"), "{from_start}");
        // The row before the bad one came first, as a short batch.
        assert_eq!(delivered, [(vec![2.0], vec![1.0])]);
        assert_eq!(
            counters.objects_read(),
            1,
            "only the good row was delivered"
        );
        assert_eq!(counters.bytes_read(), 14, "header + the good row");
        let mid = scan_range(
            &mut &src[..],
            &fmt,
            &request(ChunkRange { start: 14, end: 24 }),
            &IoCounters::new(),
            &mut |_| Ok(()),
        )
        .unwrap_err();
        assert!(mid.to_string().contains("byte offset 14"), "{mid}");
        // A handler that fails on that short batch: its error is the first.
        let first = scan_range(
            &mut &src[..],
            &fmt,
            &request(ChunkRange::WHOLE),
            &IoCounters::new(),
            &mut |_| Err(PaiError::schema("the handler's")),
        )
        .unwrap_err();
        assert!(first.to_string().contains("the handler's"), "{first}");
    }
}
