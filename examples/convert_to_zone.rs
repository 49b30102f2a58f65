//! Converts a CSV dataset to the zone-mapped compressed binary columnar
//! format (`PaiZone`), then runs the quickstart workload against the CSV
//! file, the converted file and the converted file behind a zero-copy
//! memory mapping, printing the I/O deltas — bytes, blocks, and the
//! zone-map skips of a ground-truth verification pass.
//!
//! Run with:
//! ```text
//! cargo run --release --example convert_to_zone
//! ```

use partial_adaptive_indexing::prelude::*;

struct WorkloadCost {
    objects: u64,
    bytes: u64,
    blocks: u64,
    blocks_skipped: u64,
    secs: f64,
}

fn run_workload(label: &str, file: &dyn RawFile, spec: &DatasetSpec) -> Result<WorkloadCost> {
    let init = InitConfig {
        grid: GridSpec::Fixed { nx: 16, ny: 16 },
        domain: Some(spec.domain),
        metadata: MetadataPolicy::AllNumeric,
    };
    let (index, report) = build(file, &init)?;
    println!(
        "  [{label}] initialized {}x{} grid over {} objects in {:.1?}",
        report.grid_nx, report.grid_ny, report.rows, report.elapsed
    );
    let mut engine = ApproximateEngine::new(index, file, EngineConfig::paper_evaluation())?;
    let aggs = [
        AggregateFunction::Count,
        AggregateFunction::Mean(2),
        AggregateFunction::Min(3),
        AggregateFunction::Max(3),
    ];
    // The quickstart exploration: one window queried twice, tightened to
    // exact, then a 10-step pan sequence.
    let before = file.counters().snapshot();
    let t0 = std::time::Instant::now();
    let mut w = Rect::new(250.0, 450.0, 250.0, 450.0);
    engine.evaluate(&w, &aggs, 0.05)?;
    engine.evaluate(&w, &aggs, 0.05)?;
    engine.evaluate(&w, &aggs, 0.0)?;
    for _ in 0..10 {
        w = w.shifted(30.0, 15.0).clamped_into(&spec.domain);
        engine.evaluate(&w, &aggs, 0.05)?;
        // The cautious analyst's verification read: exact truth for the
        // window, scanned with the window pushed down (zone maps skip).
        pai_storage::ground_truth::window_truth(file, &w, &[2])?;
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let io = file.counters().snapshot().since(&before);
    println!(
        "  [{label}] workload: {} objects, {} bytes, {} seeks, {} blocks (+{} skipped), {elapsed:.4}s",
        io.objects_read, io.bytes_read, io.seeks, io.blocks_read, io.blocks_skipped
    );
    Ok(WorkloadCost {
        objects: io.objects_read,
        bytes: io.bytes_read,
        blocks: io.blocks_read,
        blocks_skipped: io.blocks_skipped,
        secs: elapsed,
    })
}

fn main() -> Result<()> {
    // --- 1. A raw CSV data file --------------------------------------------
    // Z-ordered layout: clustered storage is what converted archives look
    // like, and what gives PaiZone's zone maps something to prune.
    let spec = DatasetSpec {
        rows: 100_000,
        columns: 10,
        seed: 7,
        order: RowOrder::ZOrder,
        ..Default::default()
    };
    let dir = std::env::temp_dir().join("pai_convert_to_zone");
    std::fs::create_dir_all(&dir)?;
    let csv_path = dir.join("dataset.csv");
    println!("generating {} rows of CSV ...", spec.rows);
    let csv = spec.write_csv(&csv_path, CsvFormat::default())?;
    println!(
        "csv: {} ({:.1} MiB)",
        csv_path.display(),
        csv.size_bytes() as f64 / (1024.0 * 1024.0)
    );

    // --- 2. One-pass conversion ----------------------------------------------
    let zone_path = dir.join("dataset.paizone");
    let t0 = std::time::Instant::now();
    let zone = write_zone(&csv, &zone_path)?;
    println!(
        "zone: {} ({:.1} MiB, {:.1} bits/value), converted in {:.2?}",
        zone_path.display(),
        zone.size_bytes() as f64 / (1024.0 * 1024.0),
        zone.mean_bits_per_value(),
        t0.elapsed()
    );
    let mapped = ZoneFile::open_mapped(&zone_path)?;
    csv.counters().reset();

    // --- 3. The same workload on every backend -------------------------------
    println!("\nrunning the quickstart workload on each backend:");
    let cc = run_workload("csv ", &csv, &spec)?;
    let zc = run_workload("zone", &zone, &spec)?;
    let mc = run_workload("mmap", &mapped, &spec)?;

    // --- 4. The I/O delta ---------------------------------------------------
    println!("\n== I/O delta (same queries, same answers) ==");
    assert_eq!(zc.objects, mc.objects, "mapped reads mirror streamed reads");
    assert_eq!(zc.bytes, mc.bytes, "mapped reads mirror streamed reads");
    println!(
        "objects read : csv {} / zone {} (zone's pushdown verification never touches dead blocks)",
        cc.objects, zc.objects
    );
    println!(
        "bytes read   : csv {} vs zone {}  ({:.1}x less)",
        cc.bytes,
        zc.bytes,
        cc.bytes as f64 / zc.bytes.max(1) as f64
    );
    println!(
        "blocks read  : zone {} (+{} proven dead and skipped)",
        zc.blocks, zc.blocks_skipped
    );
    if zc.secs > 0.0 && mc.secs > 0.0 {
        println!(
            "wall clock   : csv {:.4}s, zone {:.4}s, mmap {:.4}s",
            cc.secs, zc.secs, mc.secs
        );
    }
    assert!(zc.bytes < cc.bytes, "zone must move fewer bytes");
    assert!(zc.blocks_skipped > 0, "zone maps must prove blocks dead");

    std::fs::remove_file(&csv_path).ok();
    std::fs::remove_file(&zone_path).ok();
    Ok(())
}
