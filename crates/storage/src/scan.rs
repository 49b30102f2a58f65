//! The CSV scanner: line-aligned partitions and a block-buffered pass over
//! them.
//!
//! Index initialization is the one unavoidable full pass over the raw file.
//! To keep data-to-analysis time low (the whole point of the in-situ
//! paradigm) the pass is cut into byte ranges aligned on record boundaries
//! (`chunk_ranges`, behind [`RawFile::partitions`](crate::RawFile::partitions))
//! that workers scan independently (`scan_range`, behind
//! [`RawFile::scan_partition`](crate::RawFile::scan_partition)) while one
//! thread folds their results in file order. A range is read with one
//! positional read per block and its lines are lent to the handler in place
//! — no per-line copy — and the meters are charged once per block.
//!
//! The full sequential scan is the same code over the whole file, so the
//! partitions of one `chunk_ranges` call charge, between them, exactly what
//! one full scan charges: every byte once (header included), every record
//! once, and one `full_scans` tick — carried by the range that starts at
//! byte 0, which is also the one that skips the header line.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};

use pai_common::{IoCounters, Result, RowId, RowLocator};

use crate::csv::{self, CsvFormat};
use crate::raw::{CsvPos, Record, RowHandler};

/// A byte range `[start, end)` of a file that begins at a record boundary —
/// the CSV backend's concrete reading of the backend-agnostic
/// [`ScanPartition`](crate::raw::ScanPartition) (same type, no conversion).
pub use crate::raw::ScanPartition as ChunkRange;

/// The most a range scan holds in memory at once (longer ranges are read
/// block by block, cut at line ends) — and the partition size the index
/// build asks for, so one partition is one read.
pub const BLOCK_BYTES: u64 = 4 << 20;

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

/// Scans the records inside one range, invoking `handler` per record with
/// byte-offset locators relative to the whole file. Row ids are *local* to
/// the range (0-based); callers that need a stable per-object identity
/// should use the locators instead, which is what the index does.
///
/// `range.end` is clamped to the source, so [`ChunkRange::WHOLE`] is the
/// full sequential scan. A range starting at byte 0 ticks `full_scans` and
/// skips the header; its parse errors name the line, any other range's the
/// record's byte offset (line numbers are unknowable mid-file).
pub(crate) fn scan_range(
    src: &mut impl ReadAt,
    fmt: &CsvFormat,
    range: ChunkRange,
    counters: &IoCounters,
    handler: &mut RowHandler<'_>,
) -> Result<()> {
    let end = range.end.min(src.len());
    let mut start = range.start;
    if start == 0 {
        counters.add_full_scan();
    }
    let mut state = ScanState {
        row: 0,
        line: (start == 0).then_some(1),
        ranges: Vec::with_capacity(16),
    };
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
struct ScanState {
    /// Next range-local row id.
    row: RowId,
    /// 1-based number of the next line, when the range began at byte 0.
    line: Option<u64>,
    /// Field ranges of the current line (reused across lines).
    ranges: Vec<(usize, usize)>,
}

impl ScanState {
    /// Walks the lines of `block` (whole lines, first byte at file offset
    /// `base`) in place and charges the meters for what it delivered — once,
    /// also when the handler stops the scan with an error.
    fn scan_block(
        &mut self,
        block: &[u8],
        base: u64,
        fmt: &CsvFormat,
        counters: &IoCounters,
        handler: &mut RowHandler<'_>,
    ) -> Result<()> {
        let row0 = self.row;
        let mut pos = 0usize;
        let mut skip = base == 0 && fmt.has_header;
        let mut outcome = Ok(());
        while pos < block.len() {
            let (body_end, next) = split_line(block, pos, fmt, &mut self.ranges);
            if skip {
                skip = false;
            } else if body_end > pos {
                let offset = base + pos as u64;
                let at = self.line.map_or(CsvPos::Offset(offset), CsvPos::Line);
                let rec = Record::from_parts(&block[pos..body_end], &self.ranges, at);
                outcome = handler(self.row, RowLocator::new(offset), &rec);
                if outcome.is_err() {
                    break;
                }
                self.row += 1;
            }
            if let Some(line) = &mut self.line {
                *line += 1;
            }
            pos = next;
        }
        counters.add_bytes(pos as u64);
        counters.add_objects(self.row - row0);
        outcome
    }
}

const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;

/// `0x80` in exactly the bytes of `word` that equal `byte`.
#[inline]
fn bytes_equal(word: u64, byte: u8) -> u64 {
    let x = word ^ (u64::from(byte) * 0x0101_0101_0101_0101);
    // Adding 0x7f carries into a byte's top bit iff its low seven bits are
    // not all zero; no carry leaves the byte, so every lane is exact.
    !(((x & LOW7) + LOW7) | x | LOW7)
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

/// Finds the line that starts at `block[start]` and splits it into `out`
/// (field ranges relative to `start`), in one pass over its bytes. Returns
/// where the line's body ends — the line without its `\n` and any `\r`s
/// before it — and where the next line starts.
///
/// Exactly [`csv::split_fields`] on that body; a line with a quoted field is
/// handed to `split_fields` itself.
fn split_line(
    block: &[u8],
    start: usize,
    fmt: &CsvFormat,
    out: &mut Vec<(usize, usize)>,
) -> (usize, usize) {
    out.clear();
    match split_unquoted(block, start, fmt, out) {
        Some((last_field, stop)) => {
            // Trailing `\r`s belong to the line end, not to the last field
            // (they cannot reach past its start: the byte before it is a
            // delimiter).
            let body_end = trim_cr(block, start, stop);
            out.push((last_field - start, body_end.max(last_field) - start));
            (body_end, (stop + 1).min(block.len()))
        }
        None => {
            let stop = find_newline(&block[start..]).map_or(block.len(), |i| start + i);
            let body_end = trim_cr(block, start, stop);
            csv::split_fields(&block[start..body_end], fmt, out);
            (body_end, (stop + 1).min(block.len()))
        }
    }
}

/// The fast path of [`split_line`]: looks for delimiters and the newline
/// together, eight bytes at a time, pushing every field but the last.
/// Returns where the last field starts and the index of the `\n` (or of the
/// end of `block`) that stops the line — or `None` on meeting a quoted field
/// (a quote at a field's first byte), inside which delimiters do not split.
fn split_unquoted(
    block: &[u8],
    start: usize,
    fmt: &CsvFormat,
    out: &mut Vec<(usize, usize)>,
) -> Option<(usize, usize)> {
    let quoted = |field: usize| block.get(field) == Some(&fmt.quote);
    let mut field = start;
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
        scan_range(&mut src, &fmt, range, counters, &mut |_, loc, rec| {
            xs.push(rec.f64(0)?);
            locs.push(loc.raw());
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
                    let got = split_line(text.as_bytes(), pad.len(), &fmt, &mut ranges);
                    let want = split_line_reference(text.as_bytes(), pad.len());
                    // An empty body is skipped by the scanner; its ranges
                    // are never looked at.
                    if want.0 > pad.len() {
                        assert_eq!((got.0, got.1, ranges.clone()), want, "{text:?}");
                    } else {
                        assert_eq!(got, (want.0, want.1), "{text:?}");
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

    #[test]
    fn mid_file_errors_name_the_byte_offset_and_charge_what_was_read() {
        let src = b"col0,col1\n1,2\nbad,3\n4,5\n";
        let fmt = CsvFormat::default();
        let parse = |range: ChunkRange, counters: &IoCounters| {
            scan_range(&mut &src[..], &fmt, range, counters, &mut |_, _, rec| {
                rec.f64(0).map(|_| ())
            })
            .unwrap_err()
            .to_string()
        };
        let counters = IoCounters::new();
        let from_start = parse(ChunkRange::WHOLE, &counters);
        assert!(from_start.contains("line 3"), "{from_start}");
        assert_eq!(
            counters.objects_read(),
            1,
            "only the good row was delivered"
        );
        assert_eq!(counters.bytes_read(), 14, "header + the good row");
        let mid = parse(ChunkRange { start: 14, end: 24 }, &IoCounters::new());
        assert!(mid.contains("byte offset 14"), "{mid}");
    }
}
