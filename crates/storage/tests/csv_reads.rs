//! Property test of the CSV positional-read kernel (`scan::read_rows`, behind
//! `CsvFile` and `MemFile`): whatever the text — header or none, `\n` or
//! `\r\n`, quoted fields before, at and after the wanted columns, empty
//! fields, blank lines, no trailing newline, records longer than a span's
//! gap and tail — and whatever the request — duplicates, any order, all
//! rows, one row, none, no attributes — the values equal, bit for bit and in
//! request order, what a line-at-a-time reader returns, and `objects`,
//! `bytes`, `seeks` and `read_calls` are exactly what that reader charges.
//!
//! A second property feeds both kernels hostile bytes: valid text with bytes
//! flipped, inserted and deleted. Nothing panics; reads make of every record
//! what the same line-at-a-time reader makes of it, and scans make that of
//! every record before the first one it cannot read, and stop there.

use pai_common::{IoCounters, RowLocator};
use pai_storage::csv::{extract_f64, split_fields};
use pai_storage::scan::{PART_MIN_RECORDS, SPAN_GAP_BYTES};
use pai_storage::{CsvFile, CsvFormat, MemFile, RawFile, ScanPartition, ScanRequest, Schema};
use proptest::prelude::*;

/// What one positional read returned and charged.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// Value bits, one row per request.
    rows: Vec<Vec<u64>>,
    objects: u64,
    bytes: u64,
    seeks: u64,
    read_calls: u64,
}

/// The reference: serve the requests in offset order a line at a time —
/// position, read up to the newline, strip the line end, split every field,
/// extract — charging a seek whenever a record does not start where the
/// last one ended. `None` when any record cannot be read or parsed.
fn reference(text: &[u8], fmt: &CsvFormat, offsets: &[u64], attrs: &[usize]) -> Option<Outcome> {
    let mut order: Vec<(usize, u64)> = offsets.iter().copied().enumerate().collect();
    order.sort_by_key(|&(_, off)| off);
    let mut rows = vec![Vec::new(); offsets.len()];
    let (mut bytes, mut seeks, mut pos) = (0u64, 0u64, None);
    let (mut ranges, mut vals) = (Vec::new(), Vec::new());
    for (slot, off) in order {
        if pos != Some(off) {
            seeks += 1;
        }
        let rest = text.get(off as usize..).filter(|r| !r.is_empty())?;
        let n = rest
            .iter()
            .position(|&b| b == b'\n')
            .map_or(rest.len(), |i| i + 1);
        let mut body = &rest[..n];
        while let [head @ .., b'\n' | b'\r'] = body {
            body = head;
        }
        split_fields(body, fmt, &mut ranges);
        extract_f64(body, &ranges, attrs, &mut vals).ok()?;
        rows[slot] = vals.iter().map(|v| v.to_bits()).collect();
        bytes += n as u64;
        pos = Some(off + n as u64);
    }
    Some(Outcome {
        rows,
        objects: offsets.len() as u64,
        bytes,
        seeks,
        read_calls: 1,
    })
}

/// One read through a backend, with what it charged.
fn read(file: &dyn RawFile, offsets: &[u64], attrs: &[usize]) -> Option<Outcome> {
    let locators: Vec<RowLocator> = offsets.iter().map(|&o| RowLocator::new(o)).collect();
    let counters: &IoCounters = file.counters();
    counters.reset();
    let batch = file.read_rows(&locators, attrs).ok()?;
    assert_eq!((batch.len(), batch.width()), (offsets.len(), attrs.len()));
    Some(Outcome {
        rows: batch
            .iter()
            .map(|r| r.iter().map(|v| v.to_bits()).collect())
            .collect(),
        objects: counters.objects_read(),
        bytes: counters.bytes_read(),
        seeks: counters.seeks(),
        read_calls: counters.read_calls(),
    })
}

/// A numeric field in one of the spellings the parser accepts.
fn number(kind: usize, v: f64) -> String {
    let v = (v * 2e6 - 1e6).round() / 64.0;
    match kind {
        0 => String::new(),
        1 => format!(" {v} "),
        2 => format!("\"{v}\""),
        3 => format!("{v:e}"),
        _ => format!("{v}"),
    }
}

/// A text field: plain, quoted around a delimiter, or quoted with an escaped
/// quote — `len` bytes of filler inside.
fn text_field(kind: usize, len: usize) -> String {
    let fill = "x".repeat(len);
    match kind % 3 {
        0 => format!("t{fill}"),
        1 => format!("\"a,{fill},b\""),
        _ => format!("\"say \"\"{fill}\"\"\""),
    }
}

/// Where the records of `text` start: a line per `\n`, the header's skipped,
/// and so is a line with nothing before its line end.
fn record_offsets(text: &[u8], fmt: &CsvFormat) -> Vec<u64> {
    let mut offsets = Vec::new();
    let (mut pos, mut header) = (0, fmt.has_header);
    while pos < text.len() {
        let line = text[pos..].split_inclusive(|&b| b == b'\n').next().unwrap();
        let blank = line.iter().all(|&b| b == b'\r' || b == b'\n');
        if !std::mem::take(&mut header) && !blank {
            offsets.push(pos as u64);
        }
        pos += line.len();
    }
    offsets
}

/// Records as offsets, each with the bits of its values, and whether a
/// record that does not parse came after them.
type ScanOutcome = (Vec<(u64, Vec<u64>)>, bool);

/// What a batch scan of `part` finds: every record's offset and the bits of
/// its `attrs`, up to the first record that does not parse, and whether the
/// scan stopped at one.
fn scanned(file: &MemFile, partition: ScanPartition, attrs: &[usize]) -> ScanOutcome {
    let mut found = Vec::new();
    let request = ScanRequest {
        partition,
        window: None,
        attrs,
    };
    let outcome = file.scan_batches(&request, &mut |batch| {
        for i in 0..batch.len() {
            let bits = (0..attrs.len()).map(|k| batch.column(k)[i].to_bits());
            found.push((batch.locator(i).raw(), bits.collect()));
        }
        Ok(())
    });
    (found, outcome.is_err())
}

/// What a scan must make of `records` (each with its values, or `None`
/// where the line reader cannot read it): the records before the first bad
/// one, and whether there is one.
fn until_bad(records: &[(u64, Option<Vec<u64>>)]) -> ScanOutcome {
    let good: Vec<(u64, Vec<u64>)> = records
        .iter()
        .map_while(|(off, bits)| Some((*off, bits.clone()?)))
        .collect();
    let stopped = good.len() < records.len();
    (good, stopped)
}

/// Bytes that mean something to a CSV reader or a number parser, and some
/// that mean nothing to either.
const HOSTILE: [u8; 20] = [
    0xff, 0x80, 0xc3, 0, b'"', b'\r', b'\n', b',', b' ', b'-', b'+', b'.', b'e', b'E', b'i', b'n',
    b'0', b'7', b'9', b'x',
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn positional_reads_equal_the_line_at_a_time_reader(
        has_header in any::<bool>(),
        crlf in any::<bool>(),
        trailing_newline in any::<bool>(),
        // Per column: a text column (never requested) or a numeric one.
        text_cols in prop::collection::vec(any::<bool>(), 1..7),
        // Per line: (blank line before it, fields kept, long-filler class),
        // then per field a (kind, value) draw.
        lines in prop::collection::vec(
            ((0usize..12, 0usize..40, 0usize..24), prop::collection::vec((0usize..8, 0.0f64..1.0), 7..8)),
            1..60,
        ),
        long_line in 0usize..60,
        mode in 0usize..8,
        picks in prop::collection::vec(0.0f64..1.0, 0..48),
        attr_picks in prop::collection::vec(0.0f64..1.0, 0..5),
    ) {
        let n_cols = text_cols.len();
        let eol = if crlf { "\r\n" } else { "\n" };
        let mut text = String::new();
        if has_header {
            let names: Vec<String> = (0..n_cols).map(|c| format!("col{c}")).collect();
            text.push_str(&names.join(","));
            text.push_str(eol);
        }
        let mut offsets: Vec<u64> = Vec::new();
        for (i, ((blank, keep, filler), fields)) in lines.iter().enumerate() {
            if *blank == 0 {
                text.push_str(eol);
            }
            // Most lines are whole; a few stop short of the schema.
            let kept = if *keep == 0 { 1 + i % n_cols } else { n_cols };
            // Filler inside text fields: mostly nothing, sometimes past a
            // span's tail, and on one line past the gap itself.
            let len = match *filler {
                _ if i == long_line % lines.len() => SPAN_GAP_BYTES as usize + 5000,
                0 => 3000,
                1 | 2 => 100,
                _ => 0,
            };
            offsets.push(text.len() as u64);
            let rendered: Vec<String> = fields[..kept]
                .iter()
                .zip(&text_cols)
                .map(|(&(kind, v), &is_text)| {
                    if is_text { text_field(kind, len) } else { number(kind, v) }
                })
                .collect();
            text.push_str(&rendered.join(","));
            text.push_str(eol);
        }
        if !trailing_newline {
            text.truncate(text.len() - eol.len());
        }

        let fmt = CsvFormat { has_header, ..CsvFormat::default() };
        let schema = Schema::synthetic(n_cols.max(2));
        let mem = MemFile::from_text(text.clone(), schema.clone(), fmt);
        // The scan hands out exactly the offsets the generator noted (a
        // record that renders empty is a blank line to it).
        let scanned: Vec<u64> = self::scanned(&mem, ScanPartition::WHOLE, &[])
            .0
            .into_iter()
            .map(|(off, _)| off)
            .collect();
        offsets.retain(|o| scanned.contains(o));
        prop_assert_eq!(&scanned, &offsets);

        // The request: a multiset of records in some order.
        let pick = |p: f64| offsets[((p * offsets.len() as f64) as usize).min(offsets.len() - 1)];
        let request: Vec<u64> = if offsets.is_empty() { Vec::new() } else { match mode {
            0 => offsets.clone(),
            1 => offsets.iter().rev().copied().collect(),
            2 => picks.first().map(|&p| pick(p)).into_iter().collect(),
            3 => Vec::new(),
            // A sorted multiset: the no-sort path, with duplicates.
            4 => {
                let mut r: Vec<u64> = picks.iter().map(|&p| pick(p)).collect();
                r.sort_unstable();
                r
            }
            _ => picks.iter().map(|&p| pick(p)).collect(),
        }};
        // The attributes: numeric columns, any order, repeats, maybe none.
        let numeric: Vec<usize> = (0..n_cols).filter(|&c| !text_cols[c]).collect();
        let attrs: Vec<usize> = if numeric.is_empty() { Vec::new() } else {
            attr_picks
                .iter()
                .map(|&p| numeric[((p * numeric.len() as f64) as usize).min(numeric.len() - 1)])
                .collect()
        };

        let want = reference(text.as_bytes(), &fmt, &request, &attrs);
        prop_assert_eq!(&read(&mem, &request, &attrs), &want, "MemFile");

        let dir = std::env::temp_dir().join(format!("pai_csv_reads_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reads.csv");
        std::fs::write(&path, &text).unwrap();
        let disk = CsvFile::open(&path, schema, fmt).unwrap();
        let got = read(&disk, &request, &attrs);
        std::fs::remove_dir_all(&dir).ok();
        prop_assert_eq!(&got, &want, "CsvFile");
    }

    #[test]
    fn hostile_bytes_never_panic_and_read_as_the_line_reader_reads_them(
        has_header in any::<bool>(),
        crlf in any::<bool>(),
        n_cols in 2usize..6,
        lines in prop::collection::vec(prop::collection::vec((0usize..8, 0.0f64..1.0), 6..7), 1..40),
        // (what, where, which byte): flip, insert, delete, or a run of 40 digits.
        mutations in prop::collection::vec((0usize..4, 0.0f64..1.0, 0usize..HOSTILE.len()), 0..12),
        attrs in prop::collection::vec(0usize..6, 1..4),
    ) {
        let eol = if crlf { "\r\n" } else { "\n" };
        let mut text = String::new();
        if has_header {
            text.push_str(&"a,b,c,d,e,f"[..2 * n_cols - 1]);
            text.push_str(eol);
        }
        for fields in &lines {
            let rendered: Vec<String> = fields[..n_cols].iter().map(|&(kind, v)| number(kind, v)).collect();
            text.push_str(&rendered.join(","));
            text.push_str(eol);
        }
        let mut text = text.into_bytes();
        for (what, at, byte) in mutations {
            let at = ((at * text.len() as f64) as usize).min(text.len().saturating_sub(1));
            match what {
                _ if text.is_empty() => {}
                0 => text[at] = HOSTILE[byte],
                1 => text.insert(at, HOSTILE[byte]),
                2 => drop(text.remove(at)),
                _ => drop(text.splice(at..at, [b'0' + (byte % 10) as u8; 40])),
            }
        }
        let attrs: Vec<usize> = attrs.into_iter().map(|a| a % n_cols).collect();
        let fmt = CsvFormat { has_header, ..CsvFormat::default() };
        let mem = MemFile::from_text(text.clone(), Schema::synthetic(n_cols), fmt);

        // The scan, whole and each of two parts: the reader's records with
        // the reader's values, up to the first the reader cannot read, where
        // the scan stops with an error.
        let offsets = record_offsets(&text, &fmt);
        let alone: Vec<Option<Outcome>> =
            offsets.iter().map(|&off| reference(&text, &fmt, &[off], &attrs)).collect();
        let want: Vec<(u64, Option<Vec<u64>>)> = offsets
            .iter()
            .zip(&alone)
            .map(|(&off, read)| (off, read.as_ref().map(|o| o.rows[0].clone())))
            .collect();
        prop_assert_eq!(scanned(&mem, ScanPartition::WHOLE, &attrs), until_bad(&want));
        for part in mem.partitions(2).unwrap() {
            let inside: Vec<_> = want
                .iter()
                .filter(|(off, _)| part.start <= *off && *off < part.end)
                .cloned()
                .collect();
            prop_assert_eq!(scanned(&mem, part, &attrs), until_bad(&inside));
        }

        // Positional reads: each record alone — an error where the reader
        // has one — then all the readable ones at once, and often enough
        // over for the call to be cut into parts.
        for (&off, want) in offsets.iter().zip(&alone) {
            prop_assert_eq!(&read(&mem, &[off], &attrs), want);
        }
        let readable: Vec<u64> = want.iter().filter(|(_, bits)| bits.is_some()).map(|&(off, _)| off).collect();
        prop_assert_eq!(read(&mem, &readable, &attrs), reference(&text, &fmt, &readable, &attrs));
        if !readable.is_empty() {
            let many: Vec<u64> = readable.iter().rev().cycle().take(2 * PART_MIN_RECORDS + 7).copied().collect();
            prop_assert_eq!(read(&mem, &many, &attrs), reference(&text, &fmt, &many, &attrs));
        }
    }
}
