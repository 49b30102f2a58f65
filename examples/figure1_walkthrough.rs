//! A faithful walkthrough of Figure 1 of the paper: the same 3×3 tile
//! layout (with tile t4 already split into t4a–t4d from earlier
//! exploration), the same query Q, and the two adaptation outcomes —
//!
//! * **(b) exact answering**: both partially-contained tiles (t1, t3) are
//!   processed and split;
//! * **(c) partial adaptation**: only t3 (the tile with the wider
//!   confidence interval, i.e. the larger α=1 score) is processed; t1's
//!   file access is avoided because the bound already meets the accuracy
//!   constraint.
//!
//! Run with:
//! ```text
//! cargo run --example figure1_walkthrough
//! ```

use partial_adaptive_indexing::prelude::*;

/// The hotels of the running example: (x, y, rating).
/// Laid out so that, for Q = [5,18)×[5,18):
///  * t2   ([0,10)×[0,10))   overlaps Q but holds no objects;
///  * t1   ([0,10)×[10,20))  is partial with 1 selected hotel, ratings
///    tightly packed (narrow confidence interval);
///  * t3   ([10,20)×[0,10))  is partial with 2 selected hotels, ratings
///    spread wide (wide interval -> processed first);
///  * t4a  ([10,15)×[10,15)) is fully contained with 2 hotels.
fn hotels() -> Vec<Vec<f64>> {
    vec![
        // t1: one hotel inside Q, one outside (above it).
        vec![6.0, 12.0, 41.0],
        vec![2.0, 18.0, 39.0],
        // t3: two hotels inside Q (ratings 70 and 30), one outside.
        vec![12.0, 6.0, 70.0],
        vec![15.0, 8.0, 30.0],
        vec![18.0, 2.0, 50.0],
        // t4 region: two hotels in what will become t4a.
        vec![12.0, 12.0, 50.0],
        vec![14.0, 13.0, 52.0],
        // Far corner, untouched by Q.
        vec![25.0, 25.0, 45.0],
    ]
}

fn build_figure1_index(file: &MemFile) -> Result<ValinorIndex> {
    let init = InitConfig {
        grid: GridSpec::Fixed { nx: 3, ny: 3 },
        domain: Some(Rect::new(0.0, 30.0, 0.0, 30.0)),
        metadata: MetadataPolicy::AllNumeric,
    };
    let (index, _) = build(file, &init)?;

    // Reproduce the pre-state of Figure 1(a): t4 has already been split
    // into t4a..t4d by an earlier interaction. A warm-up query whose edges
    // cross the t4 cell at (15, 15) does exactly that under the
    // query-aligned split policy.
    let cfg = EngineConfig {
        adapt: AdaptConfig {
            min_split_objects: 1,
            ..Default::default()
        },
        ..EngineConfig::paper_evaluation()
    };
    let mut engine = ApproximateEngine::new(index, file, cfg)?;
    let warmup = Rect::new(10.0, 15.0, 10.0, 15.0);
    engine.evaluate(&warmup, &[AggregateFunction::Mean(2)], 0.0)?;
    Ok(engine.into_index())
}

fn main() -> Result<()> {
    let rows = hotels();
    let file = MemFile::from_rows(Schema::synthetic(3), CsvFormat::default(), rows)?;
    let q = Rect::new(5.0, 18.0, 5.0, 18.0);
    let aggs = [AggregateFunction::Mean(2)];
    let cfg = EngineConfig {
        adapt: AdaptConfig {
            min_split_objects: 1,
            ..Default::default()
        },
        ..EngineConfig::paper_evaluation()
    };

    // ---------------------------------------------------------- (a) initial
    let index_a = build_figure1_index(&file)?;
    println!("(a) initial index — t4 pre-split into t4a..t4d");
    println!(
        "{}",
        pai_index::render::render_ascii(&index_a, Some(&q), 61, 31)
    );
    let classification = index_a.classify(&q);
    println!(
        "classification of Q: {} fully contained, {} partial, {} empty skipped\n",
        classification.full.len(),
        classification.partial.len(),
        classification.skipped_empty
    );
    assert_eq!(classification.full.len(), 1, "t4a answers from metadata");
    assert_eq!(classification.partial.len(), 2, "t1 and t3 need attention");

    // ------------------------------------------------- (b) exact adaptation
    let index_b = build_figure1_index(&file)?;
    file.counters().reset();
    let mut exact = ApproximateEngine::new(index_b, &file, cfg.clone())?;
    let res_b = exact.evaluate_exact(&q, &aggs)?;
    println!(
        "(b) exact answering: mean = {}, read {} objects, split {} tiles",
        res_b.values[0], res_b.stats.io.objects_read, res_b.stats.tiles_split
    );
    println!(
        "{}",
        pai_index::render::render_ascii(exact.index(), Some(&q), 61, 31)
    );
    assert_eq!(
        res_b.stats.io.objects_read, 3,
        "the paper reads exactly three objects in the exact case"
    );
    assert_eq!(res_b.stats.tiles_split, 2, "both t1 and t3 split");

    // --------------------------------------- (c) partial adaptation (5 %)
    let index_c = build_figure1_index(&file)?;
    file.counters().reset();
    let mut approx = ApproximateEngine::new(index_c, &file, cfg)?;
    let res_c = approx.evaluate(&q, &aggs, 0.05)?;
    println!(
        "(c) approximate answering (phi=5%): mean ≈ {}, bound {:.3}%, read {} objects, split {} tiles",
        res_c.values[0],
        res_c.error_bound * 100.0,
        res_c.stats.io.objects_read,
        res_c.stats.tiles_split
    );
    println!(
        "{}",
        pai_index::render::render_ascii(approx.index(), Some(&q), 61, 31)
    );

    assert!(res_c.met_constraint);
    assert_eq!(
        res_c.stats.tiles_processed, 1,
        "only t3 (the wide-interval tile) is processed"
    );
    assert_eq!(
        res_c.stats.io.objects_read, 2,
        "t1's file access is avoided: only t3's two selected hotels are read"
    );

    // The exact answer is inside the approximate CI.
    let exact_mean = res_b.values[0].as_f64().expect("non-empty window");
    let ci = res_c.cis[0].expect("bounded CI");
    assert!(ci.contains(exact_mean));
    println!(
        "exact mean {} lies inside the approximate CI [{:.4}, {:.4}] — \
         accuracy guaranteed without touching t1.",
        exact_mean,
        ci.lo(),
        ci.hi()
    );
    Ok(())
}
