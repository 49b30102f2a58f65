//! Quickstart: generate a raw CSV, build the crude index, and compare
//! exact vs. approximate query answering on a small exploration burst.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use partial_adaptive_indexing::prelude::*;

fn main() -> Result<()> {
    // --- 1. A raw data file -------------------------------------------------
    // 100 K objects, 10 numeric columns (the paper's synthetic layout),
    // Gaussian clusters over a uniform background ("dense areas").
    let spec = DatasetSpec {
        rows: 100_000,
        columns: 10,
        seed: 7,
        ..Default::default()
    };
    let dir = std::env::temp_dir().join("pai_quickstart");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("quickstart.csv");
    println!("generating {} rows into {} ...", spec.rows, path.display());
    let file = spec.write_csv(&path, CsvFormat::default())?;
    println!(
        "raw file size: {:.1} MiB",
        file.size_bytes() as f64 / (1024.0 * 1024.0)
    );

    // --- 2. Crude initial index (single scan) -------------------------------
    let init = InitConfig {
        grid: GridSpec::Fixed { nx: 16, ny: 16 },
        domain: Some(spec.domain),
        metadata: MetadataPolicy::AllNumeric,
    };
    let (index, report) = build(&file, &init)?;
    println!(
        "initialized {}x{} grid over {} objects in {:.1?}",
        report.grid_nx, report.grid_ny, report.rows, report.elapsed
    );

    // --- 3. Approximate query answering with a 5 % accuracy constraint ------
    let mut engine = ApproximateEngine::new(index, &file, EngineConfig::paper_evaluation())?;
    let window = Rect::new(250.0, 450.0, 250.0, 450.0);
    let aggs = [
        AggregateFunction::Count,
        AggregateFunction::Mean(2),
        AggregateFunction::Min(3),
        AggregateFunction::Max(3),
    ];

    println!("\n-- first query (crude index), phi = 5% --");
    let res = engine.evaluate(&window, &aggs, 0.05)?;
    print_result(&aggs, &res);

    println!("\n-- same query again (index partially adapted) --");
    let res = engine.evaluate(&window, &aggs, 0.05)?;
    print_result(&aggs, &res);

    println!("\n-- tightening to exact (phi = 0) --");
    let res = engine.evaluate(&window, &aggs, 0.0)?;
    print_result(&aggs, &res);

    // --- 4. Compare against the exact baseline on a pan sequence ------------
    let (index2, _) = build(&file, &init)?;
    let mut exact = ApproximateEngine::new(index2, &file, EngineConfig::default())?;
    let mut w = window;
    let (mut t_exact, mut t_approx) = (0.0f64, 0.0f64);
    let (mut io_exact, mut io_approx) = (0u64, 0u64);
    for _ in 0..10 {
        w = w.shifted(30.0, 15.0).clamped_into(&spec.domain);
        let e = exact.evaluate_exact(&w, &aggs)?;
        let a = engine.evaluate(&w, &aggs, 0.05)?;
        t_exact += e.stats.elapsed.as_secs_f64();
        t_approx += a.stats.elapsed.as_secs_f64();
        io_exact += e.stats.io.objects_read;
        io_approx += a.stats.io.objects_read;
    }
    println!("\n-- 10-query pan sequence, exact vs phi=5% --");
    println!("exact : {t_exact:.4}s, {io_exact} objects read");
    println!("approx: {t_approx:.4}s, {io_approx} objects read");
    if t_approx > 0.0 {
        println!(
            "speedup: {:.2}x, I/O saved: {:.1}%",
            t_exact / t_approx,
            100.0 * (1.0 - io_approx as f64 / io_exact.max(1) as f64)
        );
    }

    std::fs::remove_file(&path).ok();
    Ok(())
}

fn print_result(aggs: &[AggregateFunction], res: &ApproxResult) {
    for ((agg, value), ci) in aggs.iter().zip(&res.values).zip(&res.cis) {
        match ci {
            Some(ci) => println!(
                "  {agg} = {value}  (exact within [{:.4}, {:.4}])",
                ci.lo(),
                ci.hi()
            ),
            None => println!("  {agg} = {value}"),
        }
    }
    println!(
        "  bound {:.4}%  |  {} objects read, {} of {} partial tiles processed, {:.2?}",
        res.error_bound * 100.0,
        res.stats.io.objects_read,
        res.stats.tiles_processed,
        res.stats.tiles_partial,
        res.stats.elapsed,
    );
}
