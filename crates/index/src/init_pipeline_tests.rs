//! The build pipeline against the plain serial scan: bit-identical indexes
//! and equal logical meters at every width, on every backend, and the same
//! first error. Included into `init` so the tests can force partition counts
//! that files this small would never get from their size.

use super::*;
use pai_common::IoSnapshot;
use pai_storage::zone::encode_zone_rows_with;
use pai_storage::{
    AppendableFile, CacheConfig, CachedFile, CsvFormat, DatasetSpec, HttpFile, HttpOptions,
    MemFile, ObjectStore, RowOrder, ScanPartition, Schema, ZoneFile,
};

use crate::tile::TileId;

const WIDTHS: [usize; 4] = [1, 2, 3, 8];

fn spec(rows: u64, columns: usize) -> DatasetSpec {
    DatasetSpec {
        rows,
        columns,
        seed: 11,
        ..Default::default()
    }
}

fn config(spec: &DatasetSpec) -> InitConfig {
    InitConfig {
        grid: GridSpec::Fixed { nx: 6, ny: 6 },
        domain: Some(spec.domain),
        metadata: MetadataPolicy::AllNumeric,
    }
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("pai_init_pipeline_test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// One tile: entries as (x, y, locator), then per attribute (count, sum,
/// sum², min, max, nulls) where the metadata is exact.
type TileBits = (Vec<[u64; 3]>, Vec<Option<[u64; 6]>>);

/// Everything a build produces, as bit patterns: per root tile the entry
/// sequence and each attribute's exact stats, the global bounds, the memory
/// footprint, and the logical I/O the build charged.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    rows: u64,
    tiles: Vec<TileBits>,
    bounds: Vec<Option<[u64; 2]>>,
    memory_bytes: usize,
    /// objects_read, bytes_read, full_scans, blocks_read, blocks_skipped.
    logical_io: [u64; 5],
}

fn fingerprint(index: &ValinorIndex, report: &InitReport, io: &IoSnapshot) -> Fingerprint {
    index.validate_invariants().unwrap();
    let n_cols = index.schema().len();
    let tiles = (0..index.leaf_count())
        .map(|t| {
            let tile = index.tile(TileId(t as u32));
            let entries = tile
                .entries()
                .iter()
                .map(|e| [e.x.to_bits(), e.y.to_bits(), e.locator.raw()])
                .collect();
            let meta = (0..n_cols)
                .map(|a| {
                    let m = tile.meta.get(a)?;
                    let s = m.exact_stats()?;
                    Some([
                        s.count(),
                        s.sum().to_bits(),
                        s.sum_sq().to_bits(),
                        s.min()?.to_bits(),
                        s.max()?.to_bits(),
                        m.nulls(),
                    ])
                })
                .collect();
            (entries, meta)
        })
        .collect();
    let bounds = (0..n_cols)
        .map(|a| {
            index
                .global_bounds(a)
                .map(|b| [b.lo().to_bits(), b.hi().to_bits()])
        })
        .collect();
    Fingerprint {
        rows: report.rows,
        tiles,
        bounds,
        memory_bytes: index.memory_bytes(),
        logical_io: [
            io.objects_read,
            io.bytes_read,
            io.full_scans,
            io.blocks_read,
            io.blocks_skipped,
        ],
    }
}

fn build_shaped(file: &dyn RawFile, cfg: &InitConfig, width: usize, parts: usize) -> Fingerprint {
    let (index, report) = build_with(file, cfg, None, Shape { width, parts }).unwrap();
    fingerprint(&index, &report, &file.counters().snapshot())
}

/// Builds over fresh files from `open` — serially with one inline scan, then
/// cut into `parts` at every width — and demands one fingerprint. Transport
/// meters (GETs) may differ between widths and are only printed.
fn assert_width_invariant(
    name: &str,
    cfg: &InitConfig,
    parts: usize,
    open: &dyn Fn() -> Box<dyn RawFile>,
) {
    let serial = build_shaped(&open(), cfg, 1, 1);
    assert!(serial.rows > 0, "{name}: empty fixture");
    assert_eq!(serial.logical_io[2], 1, "{name}: one pass is one full scan");
    for width in WIDTHS {
        let file = open();
        assert!(
            file.partitions(parts).unwrap().len() > 1,
            "{name}: the fixture must exercise the pipeline"
        );
        assert_eq!(
            build_shaped(&file, cfg, width, parts),
            serial,
            "{name}, width {width}"
        );
        println!(
            "{name} width {width}: {} GETs",
            file.counters().snapshot().http_requests
        );
    }
}

/// `(backend, rows, FNV-1a of the fingerprint's `Debug` text)` of the
/// 20 000-row build in `the_build_did_not_move`, on csv, zone and an
/// appendable zone file with 300 rows appended — taken while the build still
/// scanned and folded row by row. Re-taken once since, when leaves gained
/// zone maps: `memory_bytes` grew (csv and zone 493 824 → 499 664,
/// appendable 501 024 → 506 896) and every other field kept its bits.
const GOLDEN_BUILDS: [(&str, u64, u64); 3] = [
    ("csv", 20_000, 0x75d6_033b_91c0_5f6f),
    ("zone", 20_000, 0x8457_1772_a941_4102),
    ("appendable", 20_300, 0xc685_28b9_11ea_6378),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[test]
fn the_build_did_not_move() {
    let spec = spec(20_000, 5);
    let cfg = config(&spec);
    let schema = spec.schema();
    let rows = spec.rows_physical();
    let csv_path = temp_path("golden.csv");
    let image = encode_zone_rows_with(&schema, rows.clone(), 256).unwrap();
    let appendable =
        AppendableFile::with_base_rows(ZoneFile::from_bytes(image.clone()).unwrap(), spec.rows)
            .unwrap();
    appendable.append_rows(&rows[..300]).unwrap();
    let files: [(&str, Box<dyn RawFile>); 3] = [
        (
            "csv",
            Box::new(spec.write_csv(&csv_path, CsvFormat::default()).unwrap()),
        ),
        ("zone", Box::new(ZoneFile::from_bytes(image).unwrap())),
        ("appendable", Box::new(appendable)),
    ];
    let got = files.map(|(name, file)| {
        let fp = build_shaped(&file, &cfg, 2, 7);
        (name, fp.rows, fnv1a(format!("{fp:?}").as_bytes()))
    });
    std::fs::remove_file(&csv_path).ok();
    assert_eq!(got, GOLDEN_BUILDS, "{got:#x?}");
}

#[test]
fn every_backend_builds_the_same_bits_at_every_width() {
    // In generated order a same-cell run is about one row long; in Z-order
    // runs are long and cross batch and partition boundaries.
    for order in [RowOrder::Generated, RowOrder::ZOrder] {
        every_backend_builds_the_same_bits(&DatasetSpec {
            order,
            ..spec(20_000, 5)
        });
    }
}

fn every_backend_builds_the_same_bits(spec: &DatasetSpec) {
    let cfg = config(spec);
    let schema = spec.schema();
    let rows = spec.rows_physical();

    let csv_path = temp_path("widths.csv");
    spec.write_csv(&csv_path, CsvFormat::default()).unwrap();
    assert_width_invariant("csv", &cfg, 7, &|| {
        Box::new(
            pai_storage::CsvFile::open(&csv_path, schema.clone(), CsvFormat::default()).unwrap(),
        )
    });
    assert_width_invariant("mem", &cfg, 7, &|| {
        Box::new(spec.build_mem(CsvFormat::default()).unwrap())
    });
    // 20 000 rows are five default 4096-row blocks: block-aligned shards.
    assert_width_invariant("zone 4096", &cfg, 4, &|| {
        Box::new(ZoneFile::from_rows(&schema, rows.clone()).unwrap())
    });

    // 256-row blocks: 79 of them, so shards hold several scan groups.
    let image = encode_zone_rows_with(&schema, rows.clone(), 256).unwrap();
    assert_width_invariant("zone", &cfg, 7, &|| {
        Box::new(ZoneFile::from_bytes(image.clone()).unwrap())
    });
    let zone_path = temp_path("widths.paizone");
    std::fs::write(&zone_path, &image).unwrap();
    assert_width_invariant("mapped zone", &cfg, 7, &|| {
        Box::new(ZoneFile::open_mapped(&zone_path).unwrap())
    });

    let store = ObjectStore::serve().unwrap();
    store.put("widths.paizone", image.clone());
    let http = || HttpFile::open(store.addr(), "widths.paizone", HttpOptions::default()).unwrap();
    assert_width_invariant("http", &cfg, 7, &|| Box::new(http()));
    assert_width_invariant("cached http", &cfg, 7, &|| {
        Box::new(CachedFile::with_config(
            Box::new(http()),
            CacheConfig::new(4 << 20, 0),
        ))
    });

    // An appendable file with nothing appended shards like its base ...
    let appendable = || {
        AppendableFile::with_base_rows(ZoneFile::from_bytes(image.clone()).unwrap(), spec.rows)
            .unwrap()
    };
    assert_width_invariant("appendable", &cfg, 7, &|| Box::new(appendable()));
    // ... and once rows are appended falls back to one WHOLE scan, inline.
    let grown = || {
        let file = appendable();
        file.append_rows(&rows[..300]).unwrap();
        file
    };
    assert_eq!(grown().partitions(7).unwrap(), [ScanPartition::WHOLE]);
    let serial = build_shaped(&grown(), &cfg, 1, 1);
    assert_eq!(serial.rows, spec.rows + 300);
    for width in WIDTHS {
        assert_eq!(
            build_shaped(&grown(), &cfg, width, 7),
            serial,
            "width {width}"
        );
    }
    std::fs::remove_file(&csv_path).ok();
    std::fs::remove_file(&zone_path).ok();
}

#[test]
fn a_file_of_several_natural_partitions_builds_like_one_serial_scan() {
    // ≈ 10 MiB of CSV: three BLOCK_BYTES partitions from its size alone,
    // through the public entries.
    let spec = spec(60_000, 10);
    let cfg = config(&spec);
    let path = temp_path("natural.csv");
    let open = || spec.write_csv(&path, CsvFormat::default()).unwrap();
    let file = open();
    let parts = Shape::auto(&file).parts;
    assert!(parts >= 3, "{} bytes", file.size_bytes());
    assert_eq!(file.partitions(parts).unwrap().len(), parts);
    let serial = build_shaped(&file, &cfg, 1, 1);
    // `None` is `build` itself, at the width the machine offers.
    for threads in [None, Some(1), Some(3)] {
        let file = open();
        let (index, report) = match threads {
            None => build(&file, &cfg),
            Some(threads) => build_parallel(&file, &cfg, threads),
        }
        .unwrap();
        let got = fingerprint(&index, &report, &file.counters().snapshot());
        assert_eq!(got, serial, "threads {threads:?}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn discovery_runs_through_the_same_partitioned_pass() {
    let spec = spec(20_000, 4);
    let cfg = InitConfig {
        domain: None,
        grid: GridSpec::TargetObjectsPerTile(500),
        ..config(&spec)
    };
    let open = || spec.build_mem(CsvFormat::default()).unwrap();
    let file = open();
    let (serial_index, serial_report) =
        build_with(&file, &cfg, None, Shape { width: 1, parts: 1 }).unwrap();
    assert!(serial_report.discovered_domain);
    let serial = fingerprint(&serial_index, &serial_report, &file.counters().snapshot());
    assert_eq!(serial.logical_io[2], 2, "discovery + build");
    for width in WIDTHS {
        let file = open();
        let (index, report) = build_with(&file, &cfg, None, Shape { width, parts: 9 }).unwrap();
        assert_eq!(index.domain(), serial_index.domain(), "width {width}");
        assert_eq!(
            (report.grid_nx, report.grid_ny),
            (serial_report.grid_nx, serial_report.grid_ny)
        );
        let got = fingerprint(&index, &report, &file.counters().snapshot());
        assert_eq!(got, serial, "width {width}");
    }
}

/// Fixed-width rows, so a row can be swapped for a bad one without moving a
/// byte: `rows` points on the diagonal of [0, 1000)².
fn fixed_width_text(rows: usize, spoil: &[(usize, &str)]) -> MemFile {
    let mut text = String::from("col0,col1,col2\n");
    for i in 0..rows {
        let v = i as f64 * 1000.0 / rows as f64;
        let x = match spoil.iter().find(|(row, _)| *row == i) {
            Some((_, bad)) => bad.to_string(),
            None => format!("{v:08.3}"),
        };
        assert_eq!(x.len(), 8);
        text.push_str(&format!("{x},{v:08.3},{i:08}\n"));
    }
    MemFile::from_text(text, Schema::synthetic(3), CsvFormat::default())
}

#[test]
fn the_first_error_in_file_order_wins_at_every_width() {
    const ROWS: usize = 4000;
    const PARTS: usize = 8;
    let cfg = InitConfig {
        grid: GridSpec::Fixed { nx: 4, ny: 4 },
        domain: Some(Rect::new(0.0, 1000.0, 0.0, 1000.0)),
        metadata: MetadataPolicy::AllNumeric,
    };
    // Rows in the middle of partitions 2 and 3, and two rows after the first:
    // a partition of 500 rows is one storage block, so that pair shares one.
    let per = ROWS / PARTS;
    let (in_k, in_k1) = (2 * per + per / 2, 3 * per + per / 2);
    type Case<'a> = (&'a [(usize, &'a str)], [usize; 2], &'a str);
    let cases: [Case; 4] = [
        // Malformed row first, out-of-domain point one partition later.
        (
            &[(in_k, "bad_data"), (in_k1, "9999.000")],
            [2, 3],
            "cannot parse 'bad_data'",
        ),
        // The other way round: the domain error is the first in the file.
        (
            &[(in_k, "9999.000"), (in_k1, "bad_data")],
            [2, 3],
            "outside the configured domain",
        ),
        // Both in one batch: a domain error, then a parse error two rows on.
        (
            &[(in_k, "9999.000"), (in_k + 2, "bad_data")],
            [2, 2],
            "outside the configured domain",
        ),
        // ... and the reverse.
        (
            &[(in_k, "bad_data"), (in_k + 2, "9999.000")],
            [2, 2],
            "cannot parse 'bad_data'",
        ),
    ];
    for (spoil, in_parts, want) in cases {
        let error_at = |width: usize| {
            let file = fixed_width_text(ROWS, spoil);
            let parts = file.partitions(PARTS).unwrap();
            assert_eq!(parts.len(), PARTS);
            // Each bad row sits where the case says it does.
            let row_bytes = (file.size_bytes() - 15) / ROWS as u64;
            for (&(row, _), k) in spoil.iter().zip(in_parts) {
                let offset = 15 + row as u64 * row_bytes;
                assert!(parts[k].start <= offset && offset < parts[k].end);
            }
            // `build_with` returning at all means the pool is drained: its
            // scope joins every worker (`common::pool` tests the rest).
            build_with(
                &file,
                &cfg,
                None,
                Shape {
                    width,
                    parts: PARTS,
                },
            )
            .map(|_| ())
            .unwrap_err()
            .to_string()
        };
        let first = error_at(1);
        assert!(first.contains(want), "{first}");
        for width in WIDTHS {
            assert_eq!(error_at(width), first, "width {width}");
        }
    }
    // A malformed row past the first partition is named by byte offset.
    let file = fixed_width_text(ROWS, &[(in_k, "bad_data")]);
    let err = build_with(
        &file,
        &cfg,
        None,
        Shape {
            width: 2,
            parts: PARTS,
        },
    )
    .unwrap_err();
    assert!(err.to_string().contains("byte offset"), "{err}");
}

/// A 200-row file whose row 57 spells its third field `value`.
fn text_with_value(value: &str) -> MemFile {
    let mut text = String::from("col0,col1,col2\n");
    for i in 0..200 {
        let (x, y) = (5 * i, 1000 - 5 * i);
        match i {
            57 => text.push_str(&format!("{x},{y},{value}\n")),
            _ => text.push_str(&format!("{x},{y},{}.5\n", 100 + i)),
        }
    }
    MemFile::from_text(text, Schema::synthetic(3), CsvFormat::default())
}

#[test]
fn an_infinite_field_is_a_parse_error_that_names_the_record() {
    let cfg = InitConfig {
        grid: GridSpec::Fixed { nx: 4, ny: 4 },
        domain: Some(Rect::new(0.0, 1000.0, 0.0, 1000.0)),
        metadata: MetadataPolicy::AllNumeric,
    };
    // Built over, an infinite value answers `Mean(2)` with a zero error
    // bound beside an interval that ends at infinity.
    for spelled in ["inf", "-inf", " Infinity ", "1e999", "-1e999"] {
        let err = build(&text_with_value(spelled), &cfg)
            .map(|_| ())
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("line 59") && err.contains("not a finite number"),
            "{spelled}: {err}"
        );
    }
    // NULLs, as `CsvWriter` spells them and as an empty field, still build.
    for spelled in ["NaN", "nan", "", "157.5"] {
        let (index, _) = build(&text_with_value(spelled), &cfg).unwrap();
        assert_eq!(index.total_objects(), 200, "{spelled:?}");
    }
}
