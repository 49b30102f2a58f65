//! The accuracy/performance trade-off: sweep the accuracy constraint φ and
//! watch evaluation time, file I/O, and *realized* error move — including
//! the guarantee check that realized error never exceeds the reported
//! bound.
//!
//! Run with:
//! ```text
//! cargo run --release --example accuracy_tradeoff
//! ```

use pai_core::verify::verify_against_truth;
use partial_adaptive_indexing::prelude::*;

fn main() -> Result<()> {
    let spec = DatasetSpec {
        rows: 60_000,
        columns: 4,
        seed: 99,
        ..Default::default()
    };
    let file = spec.build_mem(CsvFormat::default())?;
    let init = InitConfig {
        grid: GridSpec::Fixed { nx: 12, ny: 12 },
        domain: Some(spec.domain),
        metadata: MetadataPolicy::AllNumeric,
    };
    let aggs = vec![AggregateFunction::Mean(2)];
    let start = Workload::centered_window(&spec.domain, 0.02);
    let workload = Workload::shifted_sequence(&spec.domain, start, 25, aggs.clone(), 11);

    println!(
        "{:>8} {:>12} {:>12} {:>14} {:>14} {:>12}",
        "phi", "total time", "objects", "mean bound", "max realized", "tiles proc."
    );
    for phi in [0.0, 0.001, 0.01, 0.05, 0.10, 0.25] {
        let (index, _) = build(&file, &init)?;
        let mut engine = ApproximateEngine::new(index, &file, EngineConfig::paper_evaluation())?;
        let mut total_time = 0.0f64;
        let mut total_objects = 0u64;
        let mut total_processed = 0usize;
        let mut bound_sum = 0.0f64;
        let mut max_realized = 0.0f64;
        for (i, q) in workload.queries.iter().enumerate() {
            let res = engine.evaluate(&q.window, &q.aggs, phi)?;
            assert!(res.met_constraint, "phi={phi} must be satisfiable");
            total_time += res.stats.elapsed.as_secs_f64();
            total_objects += res.stats.io.objects_read;
            total_processed += res.stats.tiles_processed;
            bound_sum += res.error_bound;
            // Ground-truth verification on every 5th query (full scans are
            // the expensive part of *verification*, not of the method).
            if i % 5 == 0 {
                let report = verify_against_truth(&file, &q.window, &q.aggs, &res)?;
                assert!(report.all_ok(), "guarantee violated at query {i}");
                max_realized = max_realized.max(report.max_realized_error());
            }
        }
        println!(
            "{:>7.1}% {:>11.4}s {:>12} {:>13.4}% {:>13.4}% {:>12}",
            phi * 100.0,
            total_time,
            total_objects,
            100.0 * bound_sum / workload.len() as f64,
            100.0 * max_realized,
            total_processed,
        );
    }
    println!(
        "\nEvery verified query kept the exact answer inside its confidence \
         interval,\nand realized error never exceeded the reported bound."
    );
    Ok(())
}
