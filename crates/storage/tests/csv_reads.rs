//! Property test of the CSV positional-read kernel (`scan::read_rows`, behind
//! `CsvFile` and `MemFile`): whatever the text — header or none, `\n` or
//! `\r\n`, quoted fields before, at and after the wanted columns, empty
//! fields, blank lines, no trailing newline, records longer than a span's
//! gap and tail — and whatever the request — duplicates, any order, all
//! rows, one row, none, no attributes — the values equal, bit for bit and in
//! request order, what a line-at-a-time reader returns, and `objects`,
//! `bytes`, `seeks` and `read_calls` are exactly what that reader charges.

use pai_common::{IoCounters, RowLocator};
use pai_storage::csv::{extract_f64, split_fields};
use pai_storage::scan::SPAN_GAP_BYTES;
use pai_storage::{CsvFile, CsvFormat, MemFile, RawFile, Schema};
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
        extract_f64(body, &ranges, attrs, 0, &mut vals).ok()?;
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
        let mut scanned = Vec::new();
        mem.scan(&mut |_, loc, _| {
            scanned.push(loc.raw());
            Ok(())
        }).unwrap();
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
}
