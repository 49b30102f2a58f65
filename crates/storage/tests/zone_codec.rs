//! Property test of the PaiZone codec through the file: arbitrary `f64` bit
//! patterns (NaN payloads, ±0, ±∞, subnormals, columns that pack at 0, a few
//! and all 64 bits) encoded at 1, 4 and 4096 rows a block come back bit for
//! bit from a scan, a partitioned scan and positional reads of sorted,
//! reversed, duplicated and sparse locators — from memory, from disk and
//! from a mapping — and every logical meter is what the format's arithmetic
//! says: one seek and `ceil(end_bit / 8) - floor(start_bit / 8)` bytes per
//! run of consecutive rows of a stored block, nothing for a constant one.
//!
//! And hostile bytes: a small image, truncated, flipped, with a field
//! overwritten or bytes appended, opens as `Ok` or `Err`; when it opens, a
//! whole scan, a read of every row and its synopses each return, never
//! panic.

use pai_common::{IoSnapshot, RowLocator};
use pai_storage::zone::{enc_f64, encode_zone_rows_with};
use pai_storage::{RawFile, ScanPartition, ScanRequest, Schema, ZoneFile};
use proptest::prelude::*;

/// Packed width of every `(column, block)`, recomputed from the values.
fn widths(rows: &[Vec<u64>], n_cols: usize, block_rows: usize) -> Vec<Vec<u64>> {
    (0..n_cols)
        .map(|c| {
            rows.chunks(block_rows)
                .map(|block| {
                    let enc = block.iter().map(|r| enc_f64(f64::from_bits(r[c])));
                    let (lo, hi) = (enc.clone().min().unwrap(), enc.max().unwrap());
                    64 - (hi - lo).leading_zeros() as u64
                })
                .collect()
        })
        .collect()
}

/// What a positional read of `locators` × `attrs` charges.
fn read_meters(
    widths: &[Vec<u64>],
    block_rows: u64,
    locators: &[u64],
    attrs: &[usize],
) -> IoSnapshot {
    let mut order = locators.to_vec();
    order.sort();
    let mut want = IoSnapshot {
        read_calls: 1,
        objects_read: locators.len() as u64,
        ..IoSnapshot::default()
    };
    for &attr in attrs {
        let mut i = 0;
        while i < order.len() {
            // A run: consecutive rows of one block (a repeat starts a new one).
            let mut j = i + 1;
            while j < order.len()
                && order[j] == order[j - 1] + 1
                && order[j] / block_rows == order[i] / block_rows
            {
                j += 1;
            }
            let blk = order[i] / block_rows;
            if i == 0 || order[i - 1] / block_rows != blk {
                want.blocks_read += 1;
            }
            let w = widths[attr][blk as usize];
            if w > 0 {
                let (a, b) = (order[i] % block_rows, order[j - 1] % block_rows + 1);
                want.seeks += 1;
                want.bytes_read += (b * w).div_ceil(8) - a * w / 8;
            }
            i = j;
        }
    }
    want
}

/// Every row's value bits and what the scan charged: the row scan when
/// `partitions` is `None`, else batch scans of the partitions of
/// `partitions(n)` one after the other.
fn scanned(file: &dyn RawFile, partitions: Option<usize>) -> (Vec<Vec<u64>>, IoSnapshot) {
    let attrs: Vec<usize> = (0..file.schema().len()).collect();
    let mut rows = Vec::new();
    let mut vals = Vec::new();
    let mut next = 0u64;
    file.counters().reset();
    let mut push = |loc: RowLocator, vals: &[f64]| {
        assert_eq!(loc.raw(), next, "rows arrive in file order");
        next += 1;
        rows.push(vals.iter().map(|v| v.to_bits()).collect());
    };
    match partitions {
        None => file
            .scan(&mut |_, loc, rec| {
                rec.extract_f64(&attrs, &mut vals)?;
                push(loc, &vals);
                Ok(())
            })
            .unwrap(),
        Some(n) => {
            for partition in file.partitions(n).unwrap() {
                let request = ScanRequest {
                    partition,
                    window: None,
                    attrs: &attrs,
                };
                file.scan_batches(&request, &mut |batch| {
                    for i in 0..batch.len() {
                        vals.clear();
                        vals.extend(attrs.iter().map(|&k| batch.column(k)[i]));
                        push(batch.locator(i), &vals);
                    }
                    Ok(())
                })
                .unwrap();
            }
        }
    }
    (rows, file.counters().snapshot())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_bit_pattern_round_trips_and_meters_follow_the_format(
        block_pick in 0usize..3,
        // Per column: how its values are drawn (see `value` below).
        kinds in prop::collection::vec((0usize..5, 1u32..53, any::<u64>()), 2..6),
        draws in prop::collection::vec(prop::collection::vec(any::<u64>(), 5..6), 0..150),
        picks in prop::collection::vec(any::<u64>(), 0..64),
        attr_picks in prop::collection::vec(any::<u64>(), 1..4),
    ) {
        const ODD: [u64; 8] = [
            0,                      // +0
            1 << 63,                // -0
            0x7FF0_0000_0000_0000,  // +inf
            0xFFF0_0000_0000_0000,  // -inf
            0x7FF8_0000_0000_0000,  // the quiet NaN
            0xFFF4_0000_DEAD_BEEF,  // a negative NaN with a payload
            1,                      // the smallest subnormal
            (1 << 63) | ((1 << 52) - 1), // the largest negative subnormal
        ];
        let value = |(kind, bits, base): (usize, u32, u64), draw: u64| match kind {
            0 => base,                                  // constant: width 0
            1 => draw,                                  // any pattern: ~64 bits
            2 => (base >> 2) + (draw & ((1 << bits) - 1)), // a cluster `bits` wide
            3 => ODD[draw as usize % ODD.len()],
            _ => (1000.0 * (draw as f64 / u64::MAX as f64)).to_bits(), // the fixture's kind
        };
        let block_rows = [1usize, 4, 4096][block_pick];
        let n_cols = kinds.len();
        let rows: Vec<Vec<u64>> = draws
            .iter()
            .map(|d| kinds.iter().zip(d).map(|(&k, &x)| value(k, x)).collect())
            .collect();
        let n = rows.len() as u64;
        let bytes = encode_zone_rows_with(
            &Schema::synthetic(n_cols),
            rows.iter().map(|r| r.iter().map(|&b| f64::from_bits(b)).collect::<Vec<f64>>()),
            block_rows as u32,
        )
        .unwrap();
        let widths = widths(&rows, n_cols, block_rows);

        let path = std::env::temp_dir().join(format!("pai_zone_codec_{}.paizone", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let files = [
            ("memory", ZoneFile::from_bytes(bytes).unwrap()),
            ("disk", ZoneFile::open(&path).unwrap()),
            ("mapped", ZoneFile::open_mapped(&path).unwrap()),
        ];

        // A scan: every block of every column once, a seek and its packed
        // length for each stored one.
        let stored = widths.iter().flatten().filter(|&&w| w > 0).count() as u64;
        let packed: u64 = widths
            .iter()
            .flat_map(|col| col.iter().enumerate())
            .map(|(b, w)| ((n - b as u64 * block_rows as u64).min(block_rows as u64) * w).div_ceil(8))
            .sum();
        let want_scan = IoSnapshot {
            full_scans: 1,
            objects_read: n,
            blocks_read: widths.iter().map(|col| col.len() as u64).sum(),
            seeks: stored,
            bytes_read: packed,
            ..IoSnapshot::default()
        };

        // The requests: all rows up, all rows down, picks with repeats, and
        // a sparse ascending subset.
        let all: Vec<u64> = (0..n).collect();
        let mut sparse: Vec<u64> = picks.iter().map(|p| p % n.max(1)).collect();
        sparse.sort();
        sparse.dedup();
        let requests = [
            all.clone(),
            all.iter().rev().copied().collect(),
            picks.iter().flat_map(|p| [p % n.max(1), (p / 7) % n.max(1), p % n.max(1)]).collect(),
            sparse,
        ];
        let attrs: Vec<usize> = attr_picks.iter().map(|&a| a as usize % n_cols).collect();

        for (label, file) in &files {
            let (got, io) = scanned(file, None);
            prop_assert_eq!(&got, &rows, "{} scan", label);
            prop_assert_eq!(io, want_scan, "{} scan meters", label);
            let (got, io) = scanned(file, Some(3));
            prop_assert_eq!(&got, &rows, "{} partitioned scan", label);
            // An empty file has no partition to carry the scan tick.
            let want = IoSnapshot { full_scans: (n > 0) as u64, ..want_scan };
            prop_assert_eq!(io, want, "{} partitioned scan meters", label);

            for request in requests.iter().filter(|_| n > 0) {
                let locators: Vec<RowLocator> = request.iter().map(|&r| RowLocator::new(r)).collect();
                file.counters().reset();
                let batch = file.read_rows(&locators, &attrs).unwrap();
                prop_assert_eq!((batch.len(), batch.width()), (request.len(), attrs.len()));
                for (slot, &row) in request.iter().enumerate() {
                    let got: Vec<u64> = batch.row(slot).iter().map(|v| v.to_bits()).collect();
                    let want: Vec<u64> = attrs.iter().map(|&a| rows[row as usize][a]).collect();
                    prop_assert_eq!(got, want, "{} read of row {} (slot {})", label, row, slot);
                }
                let want = read_meters(&widths, block_rows as u64, request, &attrs);
                prop_assert_eq!(file.counters().snapshot(), want, "{} read meters of {:?}", label, request);
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

/// A small image with synopses: three columns, 11 rows in three blocks of
/// four, a constant (width-0) block, and a NaN among the values.
fn small_image() -> Vec<u8> {
    let rows = (0..11u64).map(|i| {
        let v = match i {
            0..=3 => 7.0,
            6 => f64::NAN,
            _ => i as f64 * 1.5,
        };
        vec![i as f64 * 90.0, (i * 37 % 11) as f64 * 80.0, v]
    });
    encode_zone_rows_with(&Schema::synthetic(3), rows, 4).unwrap()
}

/// Applies one mutation of `kind` to `image`, steered by the draws `a`, `b`:
/// truncate, flip bytes, overwrite a 4- or 8-byte field with 0, `u32::MAX`,
/// `u64::MAX` or NaN bits, append bytes.
fn mutate(image: &mut Vec<u8>, kind: usize, a: u64, b: u64) {
    let len = image.len() as u64;
    match kind {
        0 => image.truncate((a % (len + 1)) as usize),
        1 if len > 0 => {
            for k in 0..=b % 8 {
                let at = (a.rotate_left(8 * k as u32) % len) as usize;
                image[at] ^= (b >> (8 * k)) as u8 | 1;
            }
        }
        2 => {
            let width = if b & 1 == 0 { 4 } else { 8 };
            if len >= width {
                let at = (a % (len - width + 1)) as usize;
                let value = match (b >> 1) % 4 {
                    0 => 0,
                    1 => u32::MAX as u64,
                    2 => u64::MAX,
                    _ if width == 4 => f32::NAN.to_bits() as u64,
                    _ => f64::NAN.to_bits(),
                };
                image[at..at + width as usize]
                    .copy_from_slice(&value.to_le_bytes()[..width as usize]);
            }
        }
        _ => image.extend((0..=b % 64).map(|k| (a.rotate_left(k as u32) >> 5) as u8)),
    }
}

/// Everything a reader does with an image that opened; each call may fail,
/// none may panic. Rows are read 4096 at a time, so a header that claims
/// many rows costs time, not memory.
fn exercise(file: &ZoneFile) {
    let attrs: Vec<usize> = (0..file.schema().len()).collect();
    let request = ScanRequest {
        partition: ScanPartition::WHOLE,
        window: None,
        attrs: &attrs,
    };
    let _ = file.scan_batches(&request, &mut |_| Ok(()));
    let n = file.n_rows();
    for start in (0..n).step_by(4096) {
        let chunk: Vec<RowLocator> = (start..n.min(start + 4096)).map(RowLocator::new).collect();
        if file.read_rows(&chunk, &attrs).is_err() {
            break;
        }
    }
    let _ = file.block_synopses();
}

#[test]
fn the_unmutated_image_opens_and_reads() {
    let file = ZoneFile::from_bytes(small_image()).unwrap();
    assert_eq!(file.block_synopses().map(|s| s.len()), Some(3));
    exercise(&file);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn mutated_images_are_ok_or_err_never_a_panic(
        mutations in prop::collection::vec((0usize..4, any::<u64>(), any::<u64>()), 1..4),
    ) {
        let mut image = small_image();
        for &(kind, a, b) in &mutations {
            mutate(&mut image, kind, a, b);
        }
        if let Ok(file) = ZoneFile::from_bytes(image) {
            exercise(&file);
        }
    }
}
