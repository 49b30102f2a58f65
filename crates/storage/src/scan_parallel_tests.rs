//! The positional read kernel cut into parts against itself uncut and
//! against a line-at-a-time reader: the same value bits and the same
//! `read_calls`, `objects_read`, `bytes_read` and `seeks` at every width,
//! wherever the cuts fall, and the same first error. Included into `scan` so
//! the tests can force widths and part sizes that requests this small would
//! never get from their length.

use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Barrier;

use proptest::prelude::*;

use super::*;
use crate::raw::{CsvFile, RawFile};
use crate::schema::Schema;

const WIDTHS: [usize; 4] = [1, 2, 3, 8];

/// What one positional read returned and charged.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// Value bits, row after row in request order.
    bits: Vec<u64>,
    /// `read_calls`, `objects_read`, `bytes_read`, `seeks`.
    meters: [u64; 4],
}

/// The reference: serve the requests in offset order a line at a time —
/// find the newline, strip the line end, split every field, extract —
/// charging a seek whenever a record does not start where the last one ended.
fn reference(text: &[u8], fmt: &CsvFormat, offsets: &[u64], attrs: &[AttrId]) -> Outcome {
    let mut order: Vec<(u64, usize)> = offsets.iter().copied().zip(0..).collect();
    order.sort_unstable();
    let width = attrs.len();
    let mut bits = vec![0u64; offsets.len() * width];
    let (mut bytes, mut seeks, mut pos) = (0u64, 0u64, None);
    let (mut ranges, mut vals) = (Vec::new(), Vec::new());
    for (off, row) in order {
        seeks += u64::from(pos != Some(off));
        let rest = &text[off as usize..];
        let n = rest
            .iter()
            .position(|&b| b == b'\n')
            .map_or(rest.len(), |i| i + 1);
        let mut body = &rest[..n];
        while let [head @ .., b'\n' | b'\r'] = body {
            body = head;
        }
        csv::split_fields(body, fmt, &mut ranges);
        csv::extract_f64(body, &ranges, attrs, &mut vals).unwrap();
        for (slot, v) in bits[row * width..][..width].iter_mut().zip(&vals) {
            *slot = v.to_bits();
        }
        bytes += n as u64;
        pos = Some(off + n as u64);
    }
    Outcome {
        bits,
        meters: [1, offsets.len() as u64, bytes, seeks],
    }
}

/// One read through the kernel at `threads` x `part_min`: what it returned
/// and charged, or its error and what that charged.
fn read_with<S: ReadAt>(
    open: impl Fn() -> Result<S> + Sync,
    fmt: &CsvFormat,
    offsets: &[u64],
    attrs: &[AttrId],
    threads: usize,
    part_min: usize,
) -> std::result::Result<Outcome, (String, [u64; 4])> {
    let locators: Vec<RowLocator> = offsets.iter().map(|&o| RowLocator::new(o)).collect();
    let counters = IoCounters::new();
    // A batch that held something else before: every row must be rewritten.
    let mut out = RowBatch::default();
    out.reset(3, 5).fill(f64::NAN);
    let read = read_rows_parallel(
        open, fmt, &counters, &locators, attrs, &mut out, threads, part_min,
    );
    let meters = [
        counters.read_calls(),
        counters.objects_read(),
        counters.bytes_read(),
        counters.seeks(),
    ];
    match read {
        Ok(()) => {
            assert_eq!((out.len(), out.width()), (offsets.len(), attrs.len()));
            Ok(Outcome {
                bits: out.values().iter().map(|v| v.to_bits()).collect(),
                meters,
            })
        }
        Err(e) => Err((e.to_string(), meters)),
    }
}

/// `text` on disk, with a way to open it as the kernel's source.
struct OnDisk {
    dir: std::path::PathBuf,
    path: std::path::PathBuf,
    len: u64,
}

impl OnDisk {
    fn write(name: &str, text: &[u8]) -> OnDisk {
        let dir =
            std::env::temp_dir().join(format!("pai_scan_parts_{}_{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reads.csv");
        std::fs::write(&path, text).unwrap();
        OnDisk {
            dir,
            path,
            len: text.len() as u64,
        }
    }

    fn open(&self) -> Result<DiskBytes> {
        Ok(DiskBytes {
            file: File::open(&self.path)?,
            len: self.len,
        })
    }
}

impl Drop for OnDisk {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn parts_read_what_one_part_reads(
        has_header in any::<bool>(),
        crlf in any::<bool>(),
        trailing_newline in any::<bool>(),
        // Per record: a filler class and its three numbers.
        records in prop::collection::vec((0usize..10, prop::collection::vec(0.0f64..1.0, 3..4)), 1..150),
        // One case in six is a single run longer than a span may be.
        long in 0usize..6,
        mode in 0usize..6,
        picks in prop::collection::vec(0.0f64..1.0, 0..64),
        attr_picks in prop::collection::vec(0usize..3, 0..4),
        part_min in 1usize..9,
    ) {
        // col0, col2 and col3 are numbers; col1 is text nobody asks for:
        // mostly short, sometimes past a span's tail, and in a long case 8 KiB
        // on every one of enough records to pass BLOCK_BYTES with no gap wider
        // than SPAN_GAP_BYTES between two of them.
        let eol = if crlf { "\r\n" } else { "\n" };
        let mut text = String::new();
        if has_header {
            text.push_str("col0,col1,col2,col3");
            text.push_str(eol);
        }
        let long = long == 0;
        let rows = if long { 560 } else { records.len() };
        let fillers = ["", "x", &"y".repeat(3000), &"z".repeat(8 << 10)];
        let mut offsets = Vec::with_capacity(rows);
        for r in 0..rows {
            let (class, nums) = &records[r % records.len()];
            let filler = match class {
                _ if long => fillers[3],
                0 => fillers[2],
                1 | 2 => fillers[1],
                _ => fillers[0],
            };
            let v = |i: usize| ((nums[i] * 2e6 - 1e6) * (r + 1) as f64).round() / 64.0;
            offsets.push(text.len() as u64);
            text.push_str(&format!("{},t{filler},{:e},{}{eol}", v(0), v(1), v(2)));
        }
        if !trailing_newline {
            text.truncate(text.len() - eol.len());
        }
        prop_assert!(!long || offsets[rows - 1] - offsets[0] > BLOCK_BYTES);

        // The request: a multiset of records in some order.
        let pick = |p: f64| offsets[((p * rows as f64) as usize).min(rows - 1)];
        let request: Vec<u64> = match mode {
            0 => offsets.clone(),
            1 => offsets.iter().rev().copied().collect(),
            2 => Vec::new(),
            // A sorted multiset: parts fill `out` directly, duplicates and all.
            3 => {
                let mut r: Vec<u64> = picks.iter().map(|&p| pick(p)).collect();
                r.sort_unstable();
                r
            }
            // Every record twice over, out of order.
            4 => offsets.iter().chain(&offsets).copied().collect(),
            _ => picks.iter().map(|&p| pick(p)).collect(),
        };
        let attrs: Vec<AttrId> = attr_picks.iter().map(|&a| [0, 2, 3][a]).collect();

        let fmt = CsvFormat { has_header, ..CsvFormat::default() };
        let want = reference(text.as_bytes(), &fmt, &request, &attrs);
        let disk = OnDisk::write("prop", text.as_bytes());
        for threads in WIDTHS {
            // At `part_min` (down to a record a part) and as a request this
            // long would really be cut.
            for part_min in [part_min, PART_MIN_RECORDS] {
                let mem = read_with(|| Ok(text.as_bytes()), &fmt, &request, &attrs, threads, part_min);
                prop_assert_eq!(mem.as_ref(), Ok(&want), "memory, {} x {}", threads, part_min);
                let file = read_with(|| disk.open(), &fmt, &request, &attrs, threads, part_min);
                prop_assert_eq!(file.as_ref(), Ok(&want), "disk, {} x {}", threads, part_min);
            }
        }
    }
}

/// 64 records `i,10i,100i` after a header, and their offsets; with `bad`,
/// record 60 has one field and record 62 starts with something not a number.
fn small(bad: bool) -> (Vec<u8>, Vec<u64>) {
    let mut text = String::from("col0,col1,col2\n");
    let mut offsets = Vec::new();
    for i in 0..64 {
        offsets.push(text.len() as u64);
        match i {
            60 if bad => text.push_str("60\n"),
            62 if bad => text.push_str("6x,620,6200\n"),
            _ => text.push_str(&format!("{i},{},{}\n", i * 10, i * 100)),
        }
    }
    (text.into_bytes(), offsets)
}

#[test]
fn a_bad_record_in_the_last_part_is_the_serial_error_and_charges_the_call() {
    let (text, offsets) = small(true);
    let fmt = CsvFormat::default();
    let with = |last: &[u64], attrs: &[AttrId], threads: usize| {
        // The good records first, the bad ones among the last few.
        let request: Vec<u64> = offsets[..56].iter().chain(last).copied().collect();
        read_with(|| Ok(&text[..]), &fmt, &request, attrs, threads, 1)
    };
    let cases: [(&[u64], &[AttrId], &str); 5] = [
        // Inside a record.
        (&[offsets[58] + 1], &[0], "does not start a record"),
        // Past the end of the file: checked before anything is read.
        (&[offsets[57], text.len() as u64 + 7], &[0], "hit EOF"),
        // Not a number, and fewer fields than wanted.
        (&[offsets[59], offsets[62]], &[2, 0], "'6x'"),
        (&[offsets[60], offsets[63]], &[1], "has 1 fields"),
        // Two bad records, in two parts once every record is a part: the
        // earlier one in offset order is the error, whichever finishes first.
        (&[offsets[62], offsets[60]], &[0, 1], "has 1 fields"),
    ];
    for (last, attrs, what) in cases {
        let serial = with(last, attrs, 1).unwrap_err();
        assert!(serial.0.contains(what), "{serial:?}");
        assert_eq!(serial.1, [1, 0, 0, 0], "only the call is charged");
        for threads in WIDTHS.into_iter().chain([64]) {
            let got = with(last, attrs, threads).unwrap_err();
            assert_eq!(got, serial, "{what} x {threads}");
        }
    }
    // What can be read still is, at every width.
    let good = with(&[offsets[61], offsets[60]], &[0], 1).unwrap();
    for threads in WIDTHS {
        let got = with(&[offsets[61], offsets[60]], &[0], threads);
        assert_eq!(got.as_ref(), Ok(&good));
    }
}

#[test]
fn a_request_is_cut_only_when_every_part_is_long_enough() {
    // Adjacent records read as one run are one seek however they are cut;
    // counting source opens shows how many parts there were.
    let (text, offsets) = small(false);
    let fmt = CsvFormat::default();
    let opens = AtomicUsize::new(0);
    let open = || {
        opens.fetch_add(1, Relaxed);
        Ok(&text[..])
    };
    for (threads, part_min, parts) in [(8, 1, 8), (8, 16, 4), (8, 33, 1), (3, 1, 3), (1, 1, 1)] {
        opens.store(0, Relaxed);
        let got = read_with(open, &fmt, &offsets, &[1], threads, part_min).unwrap();
        assert_eq!(opens.load(Relaxed), parts, "{threads} x {part_min}");
        assert_eq!(got.meters, [1, 64, (text.len() - 15) as u64, 1]);
    }
    // And by default a request this short is not cut at all.
    opens.store(0, Relaxed);
    let locators: Vec<RowLocator> = offsets.iter().map(|&o| RowLocator::new(o)).collect();
    let mut out = RowBatch::default();
    read_rows(open, &fmt, &IoCounters::new(), &locators, &[1], &mut out).unwrap();
    assert_eq!(opens.load(Relaxed), 1);
}

#[test]
fn two_threads_reading_one_file_agree_with_the_serial_answers() {
    // Enough records that each reader's request is itself cut in parts.
    let mut text = String::from("col0,col1,col2\n");
    let mut offsets = Vec::new();
    for i in 0..4 * PART_MIN_RECORDS {
        offsets.push(text.len() as u64);
        text.push_str(&format!("{i},{}.5,-{i}\n", i * 3));
    }
    let disk = OnDisk::write("shared", text.as_bytes());
    let file = CsvFile::open(&disk.path, Schema::synthetic(3), CsvFormat::default()).unwrap();
    let requests: [Vec<u64>; 2] = [
        offsets.clone(),
        offsets.iter().rev().step_by(2).copied().collect(),
    ];
    let fmt = CsvFormat::default();
    let serial: Vec<Outcome> = requests
        .iter()
        .map(|r| read_with(|| Ok(text.as_bytes()), &fmt, r, &[2, 1], 1, 1).unwrap())
        .collect();
    let start = Barrier::new(2);
    std::thread::scope(|s| {
        for (request, want) in requests.iter().zip(&serial) {
            let (file, start) = (&file, &start);
            s.spawn(move || {
                let locators: Vec<RowLocator> =
                    request.iter().map(|&o| RowLocator::new(o)).collect();
                start.wait();
                for _ in 0..8 {
                    let got = file.read_rows(&locators, &[2, 1]).unwrap();
                    let bits: Vec<u64> = got.values().iter().map(|v| v.to_bits()).collect();
                    assert_eq!(bits, want.bits);
                }
            });
        }
    });
    // Sixteen calls between them, each charged as the serial read of its
    // request.
    let total = |m: usize| 8 * (serial[0].meters[m] + serial[1].meters[m]);
    let counters = file.counters();
    assert_eq!(
        [
            counters.read_calls(),
            counters.objects_read(),
            counters.bytes_read(),
            counters.seeks()
        ],
        [total(0), total(1), total(2), total(3)]
    );
}
