//! Cost-estimate regression gate: `predict_query_io` must track metered I/O.
//!
//! Before any evaluation, [`pai_core::predict_query_io`] prices an exact
//! (`φ = 0`) drive of a query against the current index state using only
//! the classification's exact selected counts and the backend's per-value
//! size hint — no file access. These tests pin how tightly that prediction
//! tracks the real meters per backend:
//!
//! * **PaiZone / HTTP** — bit-packed blocks priced at the file's mean bits
//!   per value: objects exact, bytes within a relative tolerance (per-block
//!   widths vary around the mean, and packed runs carry byte-alignment
//!   padding);
//! * **CSV** — objects exact, bytes priced at the mean row length, so a
//!   small tolerance absorbs row-length variance;
//! * an accuracy-constrained run (`φ > 0`) stops early, so the predicted
//!   objects are a hard upper bound, and the predicted bytes one within
//!   the pricing tolerance.
//!
//! The `predicted_bytes` report column exposes the same prediction per
//! query; `tests/workload_suite.rs` pins its CSV plumbing.

use pai_core::{predict_query_io, IoPrediction};
use partial_adaptive_indexing::prelude::*;

fn spec() -> DatasetSpec {
    DatasetSpec {
        rows: 9_000,
        columns: 4,
        seed: 21,
        ..Default::default()
    }
}

/// An exploration ladder: overlapping pans so later queries hit a mix of
/// already-refined and fresh tiles — the prediction must stay honest as the
/// index state it prices keeps changing.
fn windows() -> Vec<Rect> {
    (0..6)
        .map(|i| {
            let off = 70.0 * i as f64;
            Rect::new(80.0 + off, 520.0 + off, 60.0 + off, 480.0 + off)
        })
        .collect()
}

/// Predicts each query's I/O immediately before evaluating it at the given
/// φ; returns `(prediction, metered_objects, metered_bytes)` per query.
fn run_predicted(file: &dyn RawFile, phi: f64) -> Vec<(IoPrediction, u64, u64)> {
    let spec = spec();
    let init = InitConfig {
        grid: GridSpec::Fixed { nx: 6, ny: 6 },
        domain: Some(spec.domain),
        metadata: MetadataPolicy::AllNumeric,
    };
    let (index, _) = build(file, &init).expect("init");
    let cfg = EngineConfig::paper_evaluation();
    let mut engine = ApproximateEngine::new(index, file, cfg.clone()).expect("engine");
    let aggs = [AggregateFunction::Sum(2), AggregateFunction::Mean(2)];
    file.counters().reset();
    windows()
        .iter()
        .map(|w| {
            let p = predict_query_io(engine.index(), file, w, &aggs, &cfg).expect("predict");
            let before = file.counters().snapshot();
            engine.evaluate(w, &aggs, phi).expect("evaluate");
            let after = file.counters().snapshot().since(&before);
            (p, after.objects_read, after.bytes_read)
        })
        .collect()
}

#[test]
fn zone_and_http_predictions_track_metered_bytes() {
    let csv = spec().build_mem(CsvFormat::default()).unwrap();
    let image = convert_to_zone(&csv).unwrap();
    let zone = ZoneFile::from_bytes(image.clone()).unwrap();
    let store = ObjectStore::serve().unwrap();
    store.put("cost.paizone", image);
    let http = HttpFile::open(store.addr(), "cost.paizone", HttpOptions::default()).unwrap();

    for (label, file) in [("zone", &zone as &dyn RawFile), ("http", &http)] {
        let runs = run_predicted(file, 0.0);
        assert!(
            runs.iter().any(|(_, o, _)| *o > 0),
            "{label}: the ladder read data"
        );
        for (i, (p, objects, bytes)) in runs.iter().enumerate() {
            assert_eq!(p.objects, *objects, "{label} query {i}: predicted objects");
            // Mean-width pricing vs per-block widths + byte-aligned packed
            // runs: generous relative tolerance, but never order-of-magnitude
            // drift.
            let (pb, mb) = (p.bytes as f64, *bytes as f64);
            assert!(
                (pb - mb).abs() <= 0.35 * mb + 1024.0,
                "{label} query {i}: predicted {pb} vs metered {mb}"
            );
        }
    }
    assert!(
        http.counters().http_requests() > 0,
        "the http leg actually went over the wire"
    );
}

#[test]
fn csv_prediction_tracks_mean_row_pricing() {
    let csv = spec().build_mem(CsvFormat::default()).unwrap();
    let runs = run_predicted(&csv, 0.0);
    for (i, (p, objects, bytes)) in runs.iter().enumerate() {
        assert_eq!(p.objects, *objects, "csv query {i}: predicted objects");
        let (pb, mb) = (p.bytes as f64, *bytes as f64);
        assert!(
            (pb - mb).abs() <= 0.02 * mb + 64.0,
            "csv query {i}: predicted {pb} vs metered {mb}"
        );
    }
}

#[test]
fn prediction_is_an_upper_bound_for_accuracy_runs() {
    // φ > 0 stops refining early; the prediction prices the exact drive,
    // so it must never under-estimate the objects, nor the bytes beyond
    // the mean-width pricing tolerance.
    let csv = spec().build_mem(CsvFormat::default()).unwrap();
    let zone = ZoneFile::from_bytes(convert_to_zone(&csv).unwrap()).unwrap();
    let runs = run_predicted(&zone, 0.05);
    let mut stopped_early = false;
    for (i, (p, objects, bytes)) in runs.iter().enumerate() {
        assert!(
            *objects <= p.objects,
            "query {i}: metered objects {objects} exceed prediction {}",
            p.objects
        );
        assert!(
            *bytes as f64 <= 1.35 * p.bytes as f64 + 1024.0,
            "query {i}: metered bytes {bytes} exceed prediction {}",
            p.bytes
        );
        stopped_early |= *objects < p.objects;
    }
    assert!(
        stopped_early,
        "at φ = 5% some query should stop before exact refinement"
    );
}
