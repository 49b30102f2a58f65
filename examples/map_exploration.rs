//! Map-based exploration scenario: hotels on a map, explored with pan/zoom
//! under an interactive accuracy constraint — the paper's motivating
//! use case (§2.1), on a real on-disk CSV with parallel initialization.
//!
//! Shows approximate window aggregates with intervals, a metadata-only
//! heatmap, and the viewport's answer checked against a full scan.
//!
//! Run with:
//! ```text
//! cargo run --release --example map_exploration
//! ```

use partial_adaptive_indexing::pai_storage::ground_truth::window_truth;
use partial_adaptive_indexing::prelude::*;

fn main() -> Result<()> {
    // A "city map" of hotels: dense clusters (city centers) on a uniform
    // background. col2 ~ rating, col3 ~ price (both spatially smooth).
    let spec = DatasetSpec {
        rows: 200_000,
        columns: 6,
        distribution: PointDistribution::GaussianClusters {
            clusters: 4,
            sigma_frac: 0.04,
            background: 0.25,
        },
        value_model: ValueModel::SmoothField {
            base: 60.0,
            amplitude: 30.0,
            noise: 4.0,
        },
        seed: 2024,
        ..Default::default()
    };
    let dir = std::env::temp_dir().join("pai_map_exploration");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("hotels.csv");
    println!("writing {} hotels to {} ...", spec.rows, path.display());
    let file = spec.write_csv(&path, CsvFormat::default())?;

    // Initialization (the one unavoidable full scan): `build` pipelines it
    // over the machine's cores by itself, and the index is the same bit for
    // bit at any width.
    let init = InitConfig {
        grid: GridSpec::Fixed { nx: 24, ny: 24 },
        domain: Some(spec.domain),
        metadata: MetadataPolicy::AllNumeric,
    };
    let (index, report) = build(&file, &init)?;
    println!(
        "index initialized in {:.2?} ({} tiles)",
        report.elapsed,
        index.leaf_count()
    );

    // Interactive session: overview at phi=5%, aggregating the rating, the
    // hotel count and the price.
    let rating = AggregateFunction::Mean(2);
    let start = Workload::centered_window(&spec.domain, 0.04);
    let mut session = ExplorationSession::new(
        index,
        &file,
        EngineConfig::paper_evaluation(),
        start,
        vec![rating, AggregateFunction::Count, AggregateFunction::Mean(3)],
        0.05,
    )?;

    println!("\n-- exploring: initial view, three pans, one zoom --");
    session.evaluate()?;
    session.pan(0.15, 0.0)?;
    session.pan(0.15, 0.10)?;
    session.pan(0.0, 0.15)?;
    session.zoom(0.5)?;
    for (i, step) in session.history().iter().enumerate() {
        let v = &step.result.values;
        println!(
            "step {i}: window {}  mean rating {}  ({} hotels, mean price {})  bound {:.3}%  {} objects read  {:.2?}",
            step.window,
            v[0],
            v[1],
            v[2],
            step.result.error_bound * 100.0,
            step.result.stats.io.objects_read,
            step.result.stats.elapsed,
        );
    }
    println!(
        "session total: {} objects read out of {} in the file",
        session.total_objects_read(),
        spec.rows
    );

    // Metadata-only heatmap of the current viewport: zero file I/O.
    println!("\n-- 6x4 mean-rating heatmap of the viewport (no file reads) --");
    let before = file.counters().objects_read();
    let cells = analytics::heatmap(session.index(), session.window(), 6, 4, rating)?;
    assert_eq!(
        file.counters().objects_read(),
        before,
        "heatmap is metadata-only"
    );
    for row in cells.chunks(6).rev() {
        let line: Vec<String> = row
            .iter()
            .map(|c| match c.estimate {
                Some(v) => format!("{v:6.1}"),
                None => "     -".into(),
            })
            .collect();
        println!("  {}", line.join(" "));
    }

    // The viewport's hotels and their mean price, within the session's phi:
    // each interval holds the value a full scan of the file finds.
    let answer = &session
        .history()
        .last()
        .expect("the session evaluated")
        .result;
    let truth = &window_truth(&file, session.window(), &[3])?[0];
    let exact = [
        truth.selected as f64,
        truth.stats.mean().unwrap_or(f64::NAN),
    ];
    println!(
        "\n-- the viewport within phi = {}% --",
        session.phi() * 100.0
    );
    for (k, (name, exact)) in ["hotels", "mean price"].into_iter().zip(exact).enumerate() {
        let ci = answer.cis[k + 1].expect("the viewport holds hotels");
        println!(
            "{name}: {}  in [{:.3}, {:.3}]  (full scan: {exact:.3})",
            answer.values[k + 1],
            ci.lo(),
            ci.hi()
        );
        assert!(ci.contains(exact), "{name}: {exact} outside {ci}");
    }

    std::fs::remove_file(&path).ok();
    Ok(())
}
