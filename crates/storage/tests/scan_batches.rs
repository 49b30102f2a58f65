//! The batch scan against the row scan, on every backend: whole, partition by
//! partition, for subsets of the columns, and under a window, the batches of
//! `RawFile::scan_batches` lend the rows, locators and value bits that
//! `RawFile::scan` (the row adapter over a whole scan of every column) shows,
//! and charge what it charges — or, for a columnar backend asked for fewer
//! columns, what those columns cost.

use std::time::Duration;

use pai_common::geometry::{Point2, Rect};
use pai_common::IoSnapshot;
use pai_storage::zone::encode_zone_rows_with;
use pai_storage::{
    AppendableFile, CacheConfig, CachedFile, CsvFile, CsvFormat, DatasetSpec, HttpFile,
    HttpOptions, LatencyFile, ObjectStore, RawFile, RowOrder, ScanPartition, ScanRequest, ZoneFile,
};

/// A row: its locator and the bits of the values asked for.
type Row = (u64, Vec<u64>);

/// The logical meters a scan charges: objects, bytes, seeks, full scans,
/// blocks read, blocks skipped.
fn logical(io: &IoSnapshot) -> [u64; 6] {
    [
        io.objects_read,
        io.bytes_read,
        io.seeks,
        io.full_scans,
        io.blocks_read,
        io.blocks_skipped,
    ]
}

/// The row adapter's rows (every column) and what the scan charged.
fn row_scan(file: &dyn RawFile) -> (Vec<Row>, [u64; 6]) {
    let before = file.counters().snapshot();
    let mut rows = Vec::new();
    let mut vals = Vec::new();
    let all: Vec<usize> = (0..file.schema().len()).collect();
    file.scan(&mut |_, loc, rec| {
        rec.extract_f64(&all, &mut vals)?;
        rows.push((loc.raw(), vals.iter().map(|v| v.to_bits()).collect()));
        Ok(())
    })
    .unwrap();
    (rows, logical(&file.counters().snapshot().since(&before)))
}

/// The rows the batches of `requests` lend, one request after the other,
/// and what they charged between them.
fn batch_scan(file: &dyn RawFile, requests: &[ScanRequest<'_>]) -> (Vec<Row>, [u64; 6]) {
    let before = file.counters().snapshot();
    let mut rows = Vec::new();
    for request in requests {
        file.scan_batches(request, &mut |batch| {
            assert!(!batch.is_empty(), "no empty batch is lent");
            let columns: Vec<&[f64]> = (0..request.attrs.len()).map(|k| batch.column(k)).collect();
            for i in 0..batch.len() {
                let bits = columns.iter().map(|c| c[i].to_bits()).collect();
                rows.push((batch.locator(i).raw(), bits));
            }
            Ok(())
        })
        .unwrap();
    }
    (rows, logical(&file.counters().snapshot().since(&before)))
}

/// `rows` with only the values of `attrs`, in that order.
fn project(rows: &[Row], attrs: &[usize]) -> Vec<Row> {
    rows.iter()
        .map(|(loc, vals)| (*loc, attrs.iter().map(|&a| vals[a]).collect()))
        .collect()
}

fn check_backend(name: &str, open: &dyn Fn() -> Box<dyn RawFile>, columnar: bool) {
    let file = open();
    let n_cols = file.schema().len();
    let all: Vec<usize> = (0..n_cols).collect();
    let (rows, meters) = row_scan(file.as_ref());
    assert!(rows.len() > 1000, "{name}: fixture too small");

    // Whole, every column: the same rows and the same charge.
    let file = open();
    let whole = batch_scan(file.as_ref(), &[ScanRequest::whole(&all)]);
    assert!(whole == (rows.clone(), meters), "{name}: whole scan");

    // Partition by partition: the shards lend and charge one whole scan.
    for n in [1, 3, 7] {
        let file = open();
        let parts = file.partitions(n).unwrap();
        let requests: Vec<ScanRequest> = parts
            .iter()
            .map(|&partition| ScanRequest {
                partition,
                ..ScanRequest::whole(&all)
            })
            .collect();
        let got = batch_scan(file.as_ref(), &requests);
        assert!(got == (rows.clone(), meters), "{name}: {n} partitions");
    }

    // Subsets of the columns, in any order, repeated or none: the same rows
    // projected. Text is charged whole; a columnar file charges only the
    // columns asked for, each once.
    let subsets: [&[usize]; 5] = [&[2], &[3, 0], &[1, 1, 2], &[], &[3, 2, 1, 0]];
    for attrs in subsets {
        let file = open();
        let (got, charged) = batch_scan(file.as_ref(), &[ScanRequest::whole(attrs)]);
        assert!(got == project(&rows, attrs), "{name}: attrs {attrs:?}");
        let mut distinct = attrs.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        let [objects, bytes, seeks, scans, blocks, skipped] = charged;
        assert_eq!([objects, scans, skipped], [meters[0], meters[3], 0]);
        if !columnar || distinct.len() == n_cols {
            assert_eq!(charged, meters, "{name}: attrs {attrs:?}");
        } else {
            assert!(
                bytes < meters[1] || distinct.is_empty(),
                "{name}: {attrs:?}"
            );
            assert!(
                seeks <= meters[2] && blocks <= meters[4],
                "{name}: {attrs:?}"
            );
        }
    }

    // Windows: a superset of the rows inside, in file order, each as the
    // row scan shows it; a window over everything skips nothing.
    let windows = [
        Rect::new(100.0, 400.0, 300.0, 700.0),
        Rect::new(900.0, 1000.0, 0.0, 80.0),
        Rect::new(-1.0, 1001.0, -1.0, 1001.0),
    ];
    for (w, window) in windows.iter().enumerate() {
        let file = open();
        let request = ScanRequest {
            window: Some(window),
            ..ScanRequest::whole(&all)
        };
        let (got, charged) = batch_scan(file.as_ref(), &[request]);
        let inside = |(_, v): &&Row| {
            let p = Point2::new(f64::from_bits(v[0]), f64::from_bits(v[1]));
            window.contains_point(p)
        };
        let want: Vec<&Row> = rows.iter().filter(inside).collect();
        let got_inside: Vec<&Row> = got.iter().filter(inside).collect();
        assert!(got_inside == want, "{name}: window {w}");
        let mut rest = rows.iter();
        assert!(
            got.iter().all(|row| rest.any(|r| r == row)),
            "{name}: window {w} lends rows of the file, in file order"
        );
        if w == 2 {
            // (A windowed scan also counts the delta blocks it keeps as
            // read, which an unwindowed one does not.)
            assert!(got == rows, "{name}: covering window");
            assert_eq!(charged[..4], meters[..4], "{name}: covering window");
            assert_eq!(charged[5], 0, "{name}: covering window skips nothing");
        }
    }
}

#[test]
fn batches_lend_what_the_row_scan_shows_on_every_backend() {
    let spec = DatasetSpec {
        rows: 6_000,
        columns: 4,
        seed: 5,
        order: RowOrder::ZOrder,
        ..Default::default()
    };
    let schema = spec.schema();
    let rows = spec.rows_physical();
    let dir = std::env::temp_dir().join(format!("pai_scan_batches_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let csv_path = dir.join("data.csv");
    spec.write_csv(&csv_path, CsvFormat::default()).unwrap();
    check_backend(
        "csv",
        &|| Box::new(CsvFile::open(&csv_path, schema.clone(), CsvFormat::default()).unwrap()),
        false,
    );
    check_backend(
        "mem",
        &|| Box::new(spec.build_mem(CsvFormat::default()).unwrap()),
        false,
    );

    // 256-row blocks: a block is a batch, and windows skip whole blocks.
    let image = encode_zone_rows_with(&schema, rows.clone(), 256).unwrap();
    let zone_path = dir.join("data.paizone");
    std::fs::write(&zone_path, &image).unwrap();
    check_backend(
        "zone",
        &|| Box::new(ZoneFile::from_bytes(image.clone()).unwrap()),
        true,
    );
    check_backend(
        "disk zone",
        &|| Box::new(ZoneFile::open(&zone_path).unwrap()),
        true,
    );
    check_backend(
        "mapped zone",
        &|| Box::new(ZoneFile::open_mapped(&zone_path).unwrap()),
        true,
    );
    check_backend(
        "latency zone",
        &|| {
            let zone = ZoneFile::from_bytes(image.clone()).unwrap();
            Box::new(LatencyFile::new(
                Box::new(zone),
                Duration::ZERO,
                Duration::ZERO,
            ))
        },
        true,
    );

    let store = ObjectStore::serve().unwrap();
    store.put("data.paizone", image.clone());
    let http = || HttpFile::open(store.addr(), "data.paizone", HttpOptions::default()).unwrap();
    check_backend("http zone", &|| Box::new(http()), true);
    check_backend(
        "cached http zone",
        &|| {
            Box::new(CachedFile::with_config(
                Box::new(http()),
                CacheConfig::new(4 << 20, 0),
            ))
        },
        true,
    );

    // Rows appended to a zone base: one WHOLE partition, base then deltas.
    let appendable = || {
        let base = ZoneFile::from_bytes(image.clone()).unwrap();
        let file = AppendableFile::with_layout(base, spec.rows, 128, Default::default()).unwrap();
        file.append_rows(&rows[..1000]).unwrap();
        file
    };
    assert_eq!(appendable().partitions(4).unwrap(), [ScanPartition::WHOLE]);
    check_backend("appendable", &|| Box::new(appendable()), true);
    std::fs::remove_dir_all(&dir).ok();
}
