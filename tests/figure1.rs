//! Integration test pinning the Figure 1 scenario of the paper (the same
//! setup as `examples/figure1_walkthrough.rs`, asserted rather than
//! printed).

use partial_adaptive_indexing::prelude::*;

fn hotels() -> Vec<Vec<f64>> {
    vec![
        vec![6.0, 12.0, 41.0],  // t1, inside Q
        vec![2.0, 18.0, 39.0],  // t1, outside Q
        vec![12.0, 6.0, 70.0],  // t3, inside Q
        vec![15.0, 8.0, 30.0],  // t3, inside Q
        vec![18.0, 2.0, 50.0],  // t3, outside Q
        vec![12.0, 12.0, 50.0], // t4a
        vec![14.0, 13.0, 52.0], // t4a
        vec![25.0, 25.0, 45.0], // far corner
    ]
}

fn engine_cfg() -> EngineConfig {
    EngineConfig {
        adapt: AdaptConfig {
            min_split_objects: 1,
            ..Default::default()
        },
        ..EngineConfig::paper_evaluation()
    }
}

fn prepared_index(file: &MemFile) -> ValinorIndex {
    let init = InitConfig {
        grid: GridSpec::Fixed { nx: 3, ny: 3 },
        domain: Some(Rect::new(0.0, 30.0, 0.0, 30.0)),
        metadata: MetadataPolicy::AllNumeric,
    };
    let (index, _) = build(file, &init).unwrap();
    // Pre-split t4 into quads (Figure 1(a) state).
    let mut engine = ApproximateEngine::new(index, file, engine_cfg()).unwrap();
    engine
        .evaluate(
            &Rect::new(10.0, 15.0, 10.0, 15.0),
            &[AggregateFunction::Mean(2)],
            0.0,
        )
        .unwrap();
    engine.into_index()
}

const Q: Rect = Rect {
    x_min: 5.0,
    x_max: 18.0,
    y_min: 5.0,
    y_max: 18.0,
};

#[test]
fn figure1_classification() {
    let file = MemFile::from_rows(Schema::synthetic(3), CsvFormat::default(), hotels()).unwrap();
    let index = prepared_index(&file);
    let c = index.classify(&Q);
    assert_eq!(c.full.len(), 1, "t4a is fully contained with objects");
    assert_eq!(c.partial.len(), 2, "t1 and t3");
    assert_eq!(c.selected_total, 5, "1 (t1) + 2 (t3) + 2 (t4a)");
    assert!(
        c.skipped_empty >= 3,
        "t2 and the empty t4 quads are skipped"
    );
}

#[test]
fn figure1_exact_adaptation_splits_both_tiles() {
    let file = MemFile::from_rows(Schema::synthetic(3), CsvFormat::default(), hotels()).unwrap();
    let index = prepared_index(&file);
    file.counters().reset();
    let mut exact = ApproximateEngine::new(index, &file, engine_cfg()).unwrap();
    let res = exact
        .evaluate_exact(&Q, &[AggregateFunction::Mean(2)])
        .unwrap();
    // "This results in reading three objects" — the selected objects of t1
    // and t3.
    assert_eq!(res.stats.io.objects_read, 3);
    assert_eq!(res.stats.tiles_split, 2, "t1 and t3 both split");
    // Exact mean over the 5 selected hotels: (41+70+30+50+52)/5.
    let mean = res.values[0].as_f64().unwrap();
    assert!((mean - 48.6).abs() < 1e-9, "{mean}");
}

#[test]
fn figure1_partial_adaptation_processes_only_t3() {
    let file = MemFile::from_rows(Schema::synthetic(3), CsvFormat::default(), hotels()).unwrap();
    let index = prepared_index(&file);
    file.counters().reset();
    let mut approx = ApproximateEngine::new(index, &file, engine_cfg()).unwrap();
    let res = approx
        .evaluate(&Q, &[AggregateFunction::Mean(2)], 0.05)
        .unwrap();

    assert!(res.met_constraint);
    assert_eq!(
        res.stats.tiles_processed, 1,
        "only t3 (larger score) processed"
    );
    assert_eq!(res.stats.tiles_split, 1, "only t3 split");
    assert_eq!(res.stats.io.objects_read, 2, "t1's file access avoided");

    // The reported interval contains the exact mean 48.6.
    let ci = res.cis[0].unwrap();
    assert!(ci.contains(48.6), "CI {ci} must contain 48.6");
    assert!(res.error_bound <= 0.05);

    // And the estimate uses t1's metadata midpoint (40) for its object:
    // (100 exact t3 + 102 exact t4a + 40 estimated t1) / 5 = 48.4.
    let est = res.values[0].as_f64().unwrap();
    assert!((est - 48.4).abs() < 1e-9, "{est}");
}

#[test]
fn figure1_initial_bound_too_wide_without_processing() {
    // With a generous phi (50 %) not even t3 needs processing.
    let file = MemFile::from_rows(Schema::synthetic(3), CsvFormat::default(), hotels()).unwrap();
    let index = prepared_index(&file);
    file.counters().reset();
    let mut approx = ApproximateEngine::new(index, &file, engine_cfg()).unwrap();
    let res = approx
        .evaluate(&Q, &[AggregateFunction::Mean(2)], 0.5)
        .unwrap();
    assert_eq!(res.stats.tiles_processed, 0);
    assert_eq!(
        res.stats.io.objects_read, 0,
        "answered purely from metadata"
    );
    assert!(res.cis[0].unwrap().contains(48.6));
}
