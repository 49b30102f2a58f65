//! End-to-end integration: raw file on disk → index → both engines →
//! answers checked against full-scan ground truth.

use pai_core::verify::verify_against_truth;
use pai_storage::ground_truth::window_truth;
use partial_adaptive_indexing::prelude::*;

fn temp_csv(name: &str, spec: &DatasetSpec) -> CsvFile {
    let dir = std::env::temp_dir().join("pai_integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    spec.write_csv(&path, CsvFormat::default()).unwrap()
}

fn init_cfg(spec: &DatasetSpec, n: usize) -> InitConfig {
    InitConfig {
        grid: GridSpec::Fixed { nx: n, ny: n },
        domain: Some(spec.domain),
        metadata: MetadataPolicy::AllNumeric,
    }
}

#[test]
fn on_disk_exact_engine_matches_ground_truth() {
    let spec = DatasetSpec {
        rows: 20_000,
        columns: 5,
        seed: 101,
        ..Default::default()
    };
    let file = temp_csv("e2e_exact.csv", &spec);
    let (index, report) = build(&file, &init_cfg(&spec, 8)).unwrap();
    assert_eq!(report.rows, 20_000);

    let mut engine = ApproximateEngine::new(index, &file, EngineConfig::default()).unwrap();
    let windows = [
        Rect::new(100.0, 400.0, 100.0, 400.0),
        Rect::new(350.0, 700.0, 200.0, 900.0),
        Rect::new(0.0, 1000.0, 0.0, 1000.0),
        Rect::new(900.0, 999.0, 900.0, 999.0),
    ];
    for w in &windows {
        let res = engine
            .evaluate_exact(
                w,
                &[
                    AggregateFunction::Count,
                    AggregateFunction::Sum(2),
                    AggregateFunction::Mean(3),
                    AggregateFunction::Min(4),
                    AggregateFunction::Max(4),
                ],
            )
            .unwrap();
        let truth = window_truth(&file, w, &[2, 3, 4]).unwrap();
        assert_eq!(
            res.values[0],
            AggregateValue::Count(truth[0].selected),
            "{w}"
        );
        if truth[0].selected > 0 {
            let sum = res.values[1].as_f64().unwrap();
            assert!((sum - truth[0].stats.sum()).abs() < 1e-6 * (1.0 + sum.abs()));
            let mean = res.values[2].as_f64().unwrap();
            assert!((mean - truth[1].stats.mean().unwrap()).abs() < 1e-9);
            assert_eq!(res.values[3].as_f64(), truth[2].stats.min());
            assert_eq!(res.values[4].as_f64(), truth[2].stats.max());
        }
    }
    engine.index().validate_invariants().unwrap();
}

#[test]
fn on_disk_approximate_engine_guarantees_hold() {
    let spec = DatasetSpec {
        rows: 30_000,
        columns: 4,
        seed: 202,
        ..Default::default()
    };
    let file = temp_csv("e2e_approx.csv", &spec);
    let (index, _) = build(&file, &init_cfg(&spec, 10)).unwrap();
    let mut engine =
        ApproximateEngine::new(index, &file, EngineConfig::paper_evaluation()).unwrap();

    let aggs = [
        AggregateFunction::Count,
        AggregateFunction::Sum(2),
        AggregateFunction::Mean(2),
        AggregateFunction::Min(3),
        AggregateFunction::Max(3),
    ];
    let start = Workload::centered_window(&spec.domain, 0.03);
    let workload = Workload::shifted_sequence(&spec.domain, start, 15, aggs.to_vec(), 77);
    for (i, q) in workload.queries.iter().enumerate() {
        let phi = [0.01, 0.05, 0.1][i % 3];
        let res = engine.evaluate(&q.window, &q.aggs, phi).unwrap();
        assert!(res.met_constraint, "query {i} phi {phi}");
        let report = verify_against_truth(&file, &q.window, &q.aggs, &res).unwrap();
        assert!(report.all_ok(), "query {i}: {report:?}");
    }
    engine.index().validate_invariants().unwrap();
}

#[test]
fn parallel_and_serial_init_answer_identically() {
    let spec = DatasetSpec {
        rows: 15_000,
        columns: 4,
        seed: 303,
        ..Default::default()
    };
    let file = temp_csv("e2e_parallel.csv", &spec);
    let cfg = init_cfg(&spec, 6);
    let (serial, _) = build(&file, &cfg).unwrap();
    let (parallel, _) = build_parallel(&file, &cfg, 4).unwrap();

    let window = Rect::new(200.0, 700.0, 150.0, 650.0);
    let aggs = [AggregateFunction::Sum(2), AggregateFunction::Count];
    let mut e1 = ApproximateEngine::new(serial, &file, EngineConfig::paper_evaluation()).unwrap();
    let mut e2 = ApproximateEngine::new(parallel, &file, EngineConfig::paper_evaluation()).unwrap();
    let r1 = e1.evaluate(&window, &aggs, 0.05).unwrap();
    let r2 = e2.evaluate(&window, &aggs, 0.05).unwrap();
    // One build path, folded in file order at any width: the same index,
    // so the same answers and intervals to the bit.
    assert_eq!(r1.values[1], r2.values[1]);
    let (s1, s2) = (
        r1.values[0].as_f64().unwrap(),
        r2.values[0].as_f64().unwrap(),
    );
    assert_eq!(s1.to_bits(), s2.to_bits());
    let bits = |r: &ApproxResult| -> Vec<_> {
        r.cis
            .iter()
            .map(|ci| ci.map(|ci| (ci.lo().to_bits(), ci.hi().to_bits())))
            .collect()
    };
    assert_eq!(bits(&r1), bits(&r2));
}

#[test]
fn approximate_engine_never_reads_more_than_exact() {
    let spec = DatasetSpec {
        rows: 25_000,
        columns: 4,
        seed: 404,
        ..Default::default()
    };
    let file = temp_csv("e2e_io.csv", &spec);
    let aggs = vec![AggregateFunction::Mean(2)];
    let start = Workload::centered_window(&spec.domain, 0.02);
    let workload = Workload::shifted_sequence(&spec.domain, start, 20, aggs, 55);

    let runs = pai_query::compare_methods(
        &file,
        &init_cfg(&spec, 8),
        &EngineConfig::paper_evaluation(),
        &workload,
        &[
            Method::Exact,
            Method::Approx { phi: 0.01 },
            Method::Approx { phi: 0.05 },
        ],
    )
    .unwrap();
    let exact_io = runs[0].total_objects_read();
    let io_1 = runs[1].total_objects_read();
    let io_5 = runs[2].total_objects_read();
    assert!(
        io_1 <= exact_io,
        "1% should not out-read exact: {io_1} vs {exact_io}"
    );
    assert!(io_5 <= io_1, "5% should not out-read 1%: {io_5} vs {io_1}");
    assert!(io_5 < exact_io, "5% must save I/O on a fresh index");
}

#[test]
fn headerless_and_custom_delimiter_files_work() {
    let spec = DatasetSpec {
        rows: 2_000,
        columns: 3,
        seed: 505,
        ..Default::default()
    };
    let dir = std::env::temp_dir().join("pai_integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("e2e_headerless.csv");
    let fmt = CsvFormat {
        delimiter: b';',
        has_header: false,
        quote: b'"',
    };
    let file = spec.write_csv(&path, fmt).unwrap();
    let (index, report) = build(&file, &init_cfg(&spec, 4)).unwrap();
    assert_eq!(report.rows, 2_000);
    let mut engine =
        ApproximateEngine::new(index, &file, EngineConfig::paper_evaluation()).unwrap();
    let window = Rect::new(100.0, 900.0, 100.0, 900.0);
    let res = engine
        .evaluate(&window, &[AggregateFunction::Sum(2)], 0.05)
        .unwrap();
    let truth = window_truth(&file, &window, &[2]).unwrap();
    assert!(res.cis[0].unwrap().contains(truth[0].stats.sum()));
}

#[test]
fn discovered_domain_round_trip() {
    let spec = DatasetSpec {
        rows: 5_000,
        columns: 3,
        seed: 606,
        ..Default::default()
    };
    let file = temp_csv("e2e_discover.csv", &spec);
    let cfg = InitConfig {
        grid: GridSpec::TargetObjectsPerTile(200),
        domain: None, // force discovery pre-pass
        metadata: MetadataPolicy::AllNumeric,
    };
    let (index, report) = build(&file, &cfg).unwrap();
    assert!(report.discovered_domain);
    assert!(report.grid_nx >= 5, "5000/200 = 25 cells -> 5x5 grid");
    assert_eq!(index.total_objects(), 5_000);
    index.validate_invariants().unwrap();
}

/// Every driver splits its `elapsed` into the five stages and leaves nothing
/// out: an answer from metadata alone has no plan, fetch or apply share, an
/// adapting one has all five, and either way they add up to the whole.
#[test]
fn stage_times_sum_to_elapsed_in_every_driver() {
    use pai_index::eval::QueryStats;
    use std::time::Duration;

    fn check(stats: &QueryStats, adapting: bool, who: &str) {
        let t = stats.stages;
        assert_eq!(adapting, stats.io.objects_read > 0, "{who}");
        assert!(
            t.classify > Duration::ZERO && t.assess > Duration::ZERO,
            "{who}: {t:?}"
        );
        let moved = [t.plan, t.fetch, t.apply].map(|d| d > Duration::ZERO);
        assert_eq!(moved, [adapting; 3], "{who}: {t:?}");
        // Laps of the one clock `elapsed` is read from: no tolerance needed.
        assert_eq!(t.total(), stats.elapsed, "{who}: {t:?}");
    }

    let spec = DatasetSpec {
        rows: 20_000,
        columns: 4,
        seed: 23,
        ..Default::default()
    };
    let file = spec.build_mem(CsvFormat::default()).unwrap();
    let index = || build(&file, &init_cfg(&spec, 6)).unwrap().0;
    let config = EngineConfig::paper_evaluation;
    let window = Rect::new(130.0, 610.0, 220.0, 700.0);
    let aggs = [AggregateFunction::Mean(2), AggregateFunction::Sum(3)];
    // A first exact pass adapts; its repeat is answered from metadata.
    let mut approx = ApproximateEngine::new(index(), &file, config()).unwrap();
    let stats = approx.evaluate(&window, &aggs, 0.0).unwrap().stats;
    check(&stats, true, "engine, cold");
    let stats = approx.evaluate(&window, &aggs, 0.0).unwrap().stats;
    check(&stats, false, "engine, warm");

    let shared = SharedIndex::new(index(), file.clone(), config()).unwrap();
    let stats = shared.evaluate(&window, &aggs, 0.0).unwrap().stats;
    check(&stats, true, "shared, cold");
    let stats = shared.evaluate(&window, &aggs, 0.0).unwrap().stats;
    check(&stats, false, "shared, warm");

    let mut exact = ApproximateEngine::new(index(), &file, EngineConfig::default()).unwrap();
    let stats = exact.evaluate_exact(&window, &aggs).unwrap().stats;
    check(&stats, true, "exact, cold");
    let stats = exact.evaluate_exact(&window, &aggs).unwrap().stats;
    check(&stats, false, "exact, warm");
}

/// The exact method over a 50-query pan, one tile at a time, pinned to the
/// totals it had while it ran a loop of its own: objects, bytes, blocks and
/// read calls read, tiles split and enriched, and the leaves it leaves
/// behind. The block synopses, on or off, do not move it; every answer is
/// the scan's.
#[test]
fn exact_baseline_did_not_move() {
    let spec = DatasetSpec {
        rows: 10_000,
        columns: 4,
        seed: 7,
        ..Default::default()
    };
    let mem = spec.build_mem(CsvFormat::default()).unwrap();
    let zone = spec.build_zone_mem().unwrap();
    let aggs = vec![
        AggregateFunction::Count,
        AggregateFunction::Sum(2),
        AggregateFunction::Mean(3),
        AggregateFunction::Variance(2),
    ];
    let start = Workload::centered_window(&spec.domain, 0.05);
    let workload = Workload::shifted_sequence(&spec.domain, start, 50, aggs, 42);
    let off = EngineConfig::paper_evaluation();
    let on = off.clone().with_synopsis();
    let (all, none) = (MetadataPolicy::AllNumeric, MetadataPolicy::None);
    // Objects, bytes, blocks, read calls, splits, enrichments, leaves.
    let mem_all = [10_339, 750_363, 0, 981, 103, 21, 239];
    let mem_none = [10_424, 756_546, 0, 986, 103, 26, 239];
    let cases: [(&dyn RawFile, MetadataPolicy, &EngineConfig, [u64; 7]); 6] = [
        (&mem, all.clone(), &off, mem_all),
        (&mem, none.clone(), &off, mem_none),
        (&mem, all.clone(), &on, mem_all),
        (&mem, none.clone(), &on, mem_none),
        (
            &zone,
            all,
            &off,
            [10_339, 160_154, 4_470, 981, 103, 21, 239],
        ),
        (
            &zone,
            none,
            &off,
            [10_424, 161_462, 4_496, 986, 103, 26, 239],
        ),
    ];
    let close = |got: Option<f64>, want: Option<f64>| match (got, want) {
        (Some(g), Some(w)) => (g - w).abs() <= 1e-6 * (1.0 + w.abs()),
        (g, w) => g == w,
    };
    for (case, (file, metadata, config, want)) in cases.into_iter().enumerate() {
        let init = InitConfig {
            grid: GridSpec::Fixed { nx: 8, ny: 8 },
            domain: Some(spec.domain),
            metadata,
        };
        let (index, _) = build(file, &init).unwrap();
        let mut engine = ApproximateEngine::new(index, file, config.clone()).unwrap();
        let mut got = [0u64; 7];
        for (i, q) in workload.queries.iter().enumerate() {
            let res = engine.evaluate_exact(&q.window, &q.aggs).unwrap();
            assert_eq!(
                (res.error_bound, res.phi, res.met_constraint),
                (0.0, 0.0, true)
            );
            let (stats, io) = (&res.stats, &res.stats.io);
            let meters = [
                io.objects_read,
                io.bytes_read,
                io.blocks_read,
                io.read_calls,
                stats.tiles_split as u64,
                stats.tiles_enriched as u64,
            ];
            for (total, m) in got.iter_mut().zip(meters) {
                *total += m;
            }
            let truth = window_truth(file, &q.window, &[2, 3]).unwrap();
            let v = |k: usize| res.values[k].as_f64();
            assert_eq!(res.values[0], AggregateValue::Count(truth[0].selected));
            assert!(
                close(v(1), Some(truth[0].stats.sum())),
                "case {case} query {i}"
            );
            assert!(close(v(2), truth[1].stats.mean()), "case {case} query {i}");
            assert!(
                close(v(3), truth[0].stats.variance()),
                "case {case} query {i}"
            );
        }
        got[6] = engine.index().leaf_count() as u64;
        assert_eq!(got, want, "case {case}");
        engine.index().validate_invariants().unwrap();
    }
}
