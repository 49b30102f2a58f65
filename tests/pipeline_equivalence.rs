//! Pipeline-equivalence properties: batching the adaptation loop must be
//! invisible to the query answers — only the I/O call pattern may change.
//!
//! The two-phase pipeline (plan → coalesced fetch → apply + re-check)
//! guarantees, by construction:
//!
//! 1. `adapt_batch = 1` reproduces the sequential tile-at-a-time loop
//!    **byte-for-byte**: one plan per iteration, one `read_rows` call with
//!    the same locators and attributes, identical meters and trajectory
//!    (this is also pinned by every pre-pipeline engine test still passing
//!    unchanged);
//! 2. `adapt_batch > 1` yields **identical answers, CIs, error bounds, and
//!    processed-tile trajectory** for *any* φ — the apply stage re-checks
//!    the stop rule after every tile and discards plans fetched past the
//!    stop point — while issuing **strictly fewer `read_rows` calls**
//!    whenever any query processes two or more tiles;
//! 3. all of this holds on every storage backend (CSV, `PaiBin`,
//!    `PaiZone`, `PaiZone` served over HTTP ranged GETs, and the remote
//!    file behind the tiered block cache), and the backends still agree
//!    with each other at every batch size — compression, zone-map
//!    pushdown, the remote transport, and the cache tiers are invisible
//!    to the answers too;
//! 4. the overlapped fetch pipeline (`fetch_workers > 1`) is invisible in
//!    the same sense: worker counts {1, 2, 8} yield identical answers,
//!    CIs, error bounds, and trajectories on every backend, and the
//!    *logical* meters (objects/bytes/seeks/read_calls/blocks) are
//!    byte-identical to the sequential path per query — overlap may only
//!    move wall-clock and the transport-side `fetch_*` meters;
//! 5. a `SharedIndex` driven from one thread runs the same loop under its
//!    lock strategy, so it answers exactly like the engine: equal bits,
//!    tile counts, logical meters and resulting tree;
//!    with block synopses on, both ask the index's metadata before the
//!    synopses.

use partial_adaptive_indexing::prelude::*;
use proptest::prelude::*;

fn dataset(rows: u64, seed: u64, columns: usize) -> DatasetSpec {
    DatasetSpec {
        rows,
        columns,
        seed,
        ..Default::default()
    }
}

fn window_strategy() -> impl Strategy<Value = Rect> {
    (0.0f64..800.0, 0.0f64..800.0, 50.0f64..700.0, 50.0f64..700.0)
        .prop_map(|(x0, y0, w, h)| Rect::new(x0, (x0 + w).min(1000.0), y0, (y0 + h).min(1000.0)))
}

/// Per-query measurements of one sequence run at a given batch size.
struct BatchRun {
    results: Vec<ApproxResult>,
    /// Per-query (read_calls, tiles_processed).
    per_query: Vec<(u64, usize)>,
    objects_read: u64,
    leaf_count: usize,
}

fn run_sequence(
    file: &dyn RawFile,
    spec: &DatasetSpec,
    windows: &[Rect],
    phi: f64,
    batch: usize,
) -> BatchRun {
    run_sequence_overlapped(file, spec, windows, phi, batch, 1)
}

fn run_sequence_overlapped(
    file: &dyn RawFile,
    spec: &DatasetSpec,
    windows: &[Rect],
    phi: f64,
    batch: usize,
    workers: usize,
) -> BatchRun {
    let init = InitConfig {
        grid: GridSpec::Fixed { nx: 5, ny: 5 },
        domain: Some(spec.domain),
        metadata: MetadataPolicy::AllNumeric,
    };
    let (index, _) = build(file, &init).expect("init");
    let config = EngineConfig {
        adapt_batch: batch,
        fetch_workers: workers,
        ..EngineConfig::paper_evaluation()
    };
    let mut engine = ApproximateEngine::new(index, file, config).expect("engine");
    file.counters().reset();
    let aggs = [
        AggregateFunction::Count,
        AggregateFunction::Sum(2),
        AggregateFunction::Mean(2),
    ];
    let mut results = Vec::with_capacity(windows.len());
    let mut per_query = Vec::with_capacity(windows.len());
    for w in windows {
        let res = engine.evaluate(w, &aggs, phi).expect("evaluate");
        per_query.push((res.stats.io.read_calls, res.stats.tiles_processed));
        results.push(res);
    }
    BatchRun {
        results,
        per_query,
        objects_read: file.counters().objects_read(),
        leaf_count: engine.index().leaf_count(),
    }
}

/// Asserts the overlapped-pipeline contract between a `fetch_workers = 1`
/// run and a `fetch_workers = k` run on the same backend: identical
/// answers, CIs, bounds, trajectories, resulting tree, and per-query
/// *logical* meters. Only the transport-side fetch meters may differ.
fn assert_overlap_equivalent(seq: &BatchRun, overlapped: &BatchRun, workers: usize) {
    for (i, (a, b)) in seq.results.iter().zip(&overlapped.results).enumerate() {
        for (av, bv) in a.values.iter().zip(&b.values) {
            assert_eq!(
                av.as_f64(),
                bv.as_f64(),
                "query {i} answer, workers {workers}"
            );
        }
        for (ac, bc) in a.cis.iter().zip(&b.cis) {
            assert_eq!(ac, bc, "query {i} CI, workers {workers}");
        }
        assert_eq!(
            a.error_bound, b.error_bound,
            "query {i} bound, workers {workers}"
        );
        assert_eq!(
            a.stats.tiles_processed, b.stats.tiles_processed,
            "query {i} trajectory, workers {workers}"
        );
        assert_eq!(
            a.stats.tiles_split, b.stats.tiles_split,
            "query {i} splits, workers {workers}"
        );
        // Logical meters are byte-identical per query; transport meters
        // (http_*, retries, fetch_*) are exempt by the metering invariant.
        let (x, y) = (&a.stats.io, &b.stats.io);
        assert_eq!(
            x.objects_read, y.objects_read,
            "query {i} objects, workers {workers}"
        );
        assert_eq!(
            x.bytes_read, y.bytes_read,
            "query {i} bytes, workers {workers}"
        );
        assert_eq!(x.seeks, y.seeks, "query {i} seeks, workers {workers}");
        assert_eq!(
            x.read_calls, y.read_calls,
            "query {i} calls, workers {workers}"
        );
        assert_eq!(
            x.blocks_read, y.blocks_read,
            "query {i} blocks, workers {workers}"
        );
        assert_eq!(
            x.blocks_skipped, y.blocks_skipped,
            "query {i} skips, workers {workers}"
        );
        assert_eq!(
            x.full_scans, y.full_scans,
            "query {i} scans, workers {workers}"
        );
    }
    assert_eq!(
        seq.leaf_count, overlapped.leaf_count,
        "leaf counts, workers {workers}"
    );
    assert_eq!(
        seq.objects_read, overlapped.objects_read,
        "total objects, workers {workers}"
    );
}

/// Asserts the equivalence contract between a batch-1 run and a batch-k run
/// on the same backend.
fn assert_batch_equivalent(seq: &BatchRun, batched: &BatchRun, batch: usize) {
    for (i, (a, b)) in seq.results.iter().zip(&batched.results).enumerate() {
        for (av, bv) in a.values.iter().zip(&b.values) {
            assert_eq!(av.as_f64(), bv.as_f64(), "query {i} answer, batch {batch}");
        }
        for (ac, bc) in a.cis.iter().zip(&b.cis) {
            assert_eq!(ac, bc, "query {i} CI, batch {batch}");
        }
        assert_eq!(
            a.error_bound, b.error_bound,
            "query {i} bound, batch {batch}"
        );
        assert_eq!(
            a.met_constraint, b.met_constraint,
            "query {i} met, batch {batch}"
        );
        assert_eq!(
            a.stats.tiles_processed, b.stats.tiles_processed,
            "query {i} trajectory, batch {batch}"
        );
        assert_eq!(
            a.stats.tiles_split, b.stats.tiles_split,
            "query {i} splits, batch {batch}"
        );
    }
    // Discarded plans never mutate: the same tree comes out.
    assert_eq!(
        seq.leaf_count, batched.leaf_count,
        "leaf counts, batch {batch}"
    );
    // Speculation may read extra objects past the stop point, never fewer.
    assert!(
        batched.objects_read >= seq.objects_read,
        "batching cannot reduce objects: {} vs {}",
        batched.objects_read,
        seq.objects_read
    );
    // The batching win: strictly fewer read_rows calls on any query that
    // processed >= 2 tiles (they share one coalesced call per batch), and
    // never more calls on any query.
    for (i, (&(c1, p1), &(ck, _))) in seq.per_query.iter().zip(&batched.per_query).enumerate() {
        assert!(
            ck <= c1,
            "query {i}: batch {batch} made more calls ({ck}) than sequential ({c1})"
        );
        if p1 >= 2 && c1 >= 2 {
            assert!(
                ck < c1,
                "query {i}: {p1} tiles processed but batch {batch} did not \
                 coalesce calls ({ck} vs {c1})"
            );
        }
    }
}

/// The logical meters of one query: what a query asks of storage, with the
/// transport-side meters (http_*, retries, fetch_*) left out.
fn logical_io(io: &IoSnapshot) -> [u64; 7] {
    [
        io.objects_read,
        io.bytes_read,
        io.seeks,
        io.read_calls,
        io.blocks_read,
        io.blocks_skipped,
        io.full_scans,
    ]
}

/// Every value, CI endpoint and the bound of one answer, as bits.
fn answer_bits(r: &ApproxResult) -> Vec<Option<u64>> {
    let values = r.values.iter().map(|v| v.as_f64());
    let cis = r
        .cis
        .iter()
        .flat_map(|ci| [ci.map(|c| c.lo()), ci.map(|c| c.hi())]);
    values
        .chain(cis)
        .chain([Some(r.error_bound)])
        .map(|x| x.map(f64::to_bits))
        .collect()
}

/// Opens a fresh handle on one dataset.
type Open<'a> = &'a dyn Fn() -> Box<dyn RawFile>;

/// A `SharedIndex` and an `ApproximateEngine` over the same index, each on
/// its own handle of the same data, answer the same windows at every
/// batch × worker combination: equal bits in every value, CI and bound,
/// equal tile counts and logical meters per query, and the same tree.
fn assert_shared_equals_engine(
    name: &str,
    open: Open<'_>,
    spec: &DatasetSpec,
    windows: &[Rect],
    phi: f64,
) {
    let aggs = [
        AggregateFunction::Count,
        AggregateFunction::Sum(2),
        AggregateFunction::Mean(2),
    ];
    for batch in [1usize, 8] {
        for workers in [1usize, 2] {
            let config = EngineConfig {
                adapt_batch: batch,
                fetch_workers: workers,
                ..EngineConfig::paper_evaluation()
            };
            let init = InitConfig {
                grid: GridSpec::Fixed { nx: 5, ny: 5 },
                domain: Some(spec.domain),
                metadata: MetadataPolicy::AllNumeric,
            };
            let file = open();
            let (index, _) = build(&*file, &init).expect("init");
            let shared = SharedIndex::new(index.clone(), open(), config.clone()).expect("shared");
            let mut engine = ApproximateEngine::new(index, &*file, config).expect("engine");
            for (i, w) in windows.iter().enumerate() {
                let label = format!("{name} query {i} phi {phi}, batch {batch}, workers {workers}");
                let e = engine.evaluate(w, &aggs, phi).expect("engine");
                let s = shared.evaluate(w, &aggs, phi).expect("shared");
                assert_eq!(answer_bits(&e), answer_bits(&s), "{label}: answer bits");
                let tiles = |r: &ApproxResult| {
                    let t = &r.stats;
                    (t.tiles_processed, t.tiles_split, t.tiles_enriched)
                };
                assert_eq!(tiles(&e), tiles(&s), "{label}: tiles");
                assert_eq!(
                    logical_io(&e.stats.io),
                    logical_io(&s.stats.io),
                    "{label}: logical meters"
                );
            }
            assert_eq!(
                engine.index().leaf_count(),
                shared.with_index(|idx| idx.leaf_count()),
                "{name} batch {batch}, workers {workers}: leaf count"
            );
        }
    }
}

#[test]
fn shared_index_equals_engine_bit_for_bit() {
    let spec = dataset(800, 3, 4);
    let csv = spec.build_mem(CsvFormat::default()).unwrap();
    let image = convert_to_zone(&csv).unwrap();
    let store = ObjectStore::serve().unwrap();
    store.put("data.paizone", image.clone());
    let backends: [(&str, Open<'_>); 3] = [
        ("csv", &|| Box::new(csv.clone())),
        ("zone", &|| {
            Box::new(ZoneFile::from_bytes(image.clone()).unwrap())
        }),
        ("http", &|| {
            let opts = HttpOptions::default();
            Box::new(HttpFile::open(store.addr(), "data.paizone", opts).unwrap())
        }),
    ];
    let windows = [
        Rect::new(100.0, 500.0, 100.0, 500.0),
        Rect::new(250.0, 750.0, 200.0, 650.0),
        Rect::new(120.0, 480.0, 80.0, 520.0),
    ];
    for (name, open) in backends {
        for phi in [0.0, 0.02] {
            assert_shared_equals_engine(name, open, &spec, &windows, phi);
        }
    }
}

/// The tier order through the lock: with synopses on, a `SharedIndex` asks
/// the index's metadata first, exactly like the engine. Over the same
/// windows both answer bit for bit with the same synopsis meters; a window
/// the index answers consults no synopsis and answers like synopses off,
/// and without tile metadata the whole-domain window is a zero-I/O
/// synopsis hit.
#[test]
fn shared_index_asks_the_index_before_the_synopses() {
    let spec = dataset(800, 3, 4);
    let csv = spec.build_mem(CsvFormat::default()).unwrap();
    let image = convert_to_zone(&csv).unwrap();
    let open = || ZoneFile::from_bytes(image.clone()).unwrap();
    let aggs = [
        AggregateFunction::Count,
        AggregateFunction::Sum(2),
        AggregateFunction::Mean(2),
    ];
    let synopsis_meters = |r: &ApproxResult| {
        let io = &r.stats.io;
        (io.synopsis_hits, io.synopsis_blocks, io.synopsis_bytes)
    };
    let windows = [
        Rect::new(-1.0, 1001.0, -1.0, 1001.0),
        Rect::new(100.0, 500.0, 100.0, 500.0),
        Rect::new(250.0, 750.0, 200.0, 650.0),
    ];
    for metadata in [MetadataPolicy::AllNumeric, MetadataPolicy::None] {
        let init = InitConfig {
            grid: GridSpec::Fixed { nx: 5, ny: 5 },
            domain: Some(spec.domain),
            metadata: metadata.clone(),
        };
        let file = open();
        let (index, _) = build(&file, &init).expect("init");
        let off = EngineConfig::paper_evaluation();
        let on = off.clone().with_synopsis();
        let shared = SharedIndex::new(index.clone(), open(), on.clone()).expect("shared");
        let shared_off = SharedIndex::new(index.clone(), open(), off).expect("shared off");
        let mut engine = ApproximateEngine::new(index, &file, on).expect("engine");
        for (i, w) in windows.iter().enumerate() {
            let label = format!("{metadata:?} query {i}");
            let e = engine.evaluate(w, &aggs, 0.05).expect("engine");
            let s = shared.evaluate(w, &aggs, 0.05).expect("shared");
            let o = shared_off.evaluate(w, &aggs, 0.05).expect("shared off");
            assert_eq!(answer_bits(&e), answer_bits(&s), "{label}: answer bits");
            assert_eq!(
                synopsis_meters(&e),
                synopsis_meters(&s),
                "{label}: synopsis meters"
            );
            assert_eq!(
                e.stats.tiles_processed, s.stats.tiles_processed,
                "{label}: tiles"
            );
            assert_eq!(
                logical_io(&e.stats.io),
                logical_io(&s.stats.io),
                "{label}: logical meters"
            );
            let hit = s.stats.io.synopsis_hits == 1;
            if hit {
                assert!(s.met_constraint && s.error_bound <= 0.05, "{label}");
                assert_eq!(s.stats.io.objects_read, 0, "{label}: a hit reads no data");
            } else {
                assert_eq!(
                    synopsis_meters(&s),
                    (0, 0, 0),
                    "{label}: a miss ticks nothing"
                );
            }
            if let MetadataPolicy::None = metadata {
                // Seeded global bounds move the trajectory away from the
                // off handle's; only the whole domain is a hit.
                assert_eq!(hit, i == 0, "{label}: hit iff whole domain");
            } else {
                assert!(!hit, "{label}: the index answers first");
                assert_eq!(
                    answer_bits(&s),
                    answer_bits(&o),
                    "{label}: answer bits vs synopses off"
                );
                assert_eq!(s.stats.tiles_processed, o.stats.tiles_processed, "{label}");
            }
        }
        assert_eq!(
            engine.index().leaf_count(),
            shared.with_index(|idx| idx.leaf_count()),
            "{metadata:?}: leaf count"
        );
    }
}

/// Mid-pipeline fault recovery under overlap: periodic server faults (5xx,
/// connection drop, short read) fire on some span-group while later groups
/// are still in flight, for every fault flavor. The overlapped client must
/// retry boundedly and the run must answer exactly like the local zone
/// file with byte-identical logical meters — which is only possible if no
/// span was lost, duplicated, or torn mid-stream.
#[test]
fn overlapped_pipeline_recovers_from_midstream_faults() {
    for plan in ["5xx:3", "drop:5", "short:4"] {
        let spec = dataset(700, 21, 4);
        let csv = spec.build_mem(CsvFormat::default()).unwrap();
        let zone = ZoneFile::from_bytes(convert_to_zone(&csv).unwrap()).unwrap();
        let store =
            ObjectStore::serve_with(std::time::Duration::ZERO, plan.parse().unwrap()).unwrap();
        store.put("data.paizone", convert_to_zone(&csv).unwrap());
        // Tiny parts force many ranged GETs, so the periodic fault plans
        // actually trip mid-stream while later groups are in flight.
        let http = HttpFile::open(
            store.addr(),
            "data.paizone",
            HttpOptions::with_part_bytes(1024).with_fetch_workers(8),
        )
        .unwrap();
        let windows = [
            Rect::new(100.0, 500.0, 100.0, 500.0),
            Rect::new(250.0, 750.0, 200.0, 650.0),
        ];
        let seq = run_sequence_overlapped(&zone, &spec, &windows, 0.02, 8, 1);
        let ovl = run_sequence_overlapped(&http, &spec, &windows, 0.02, 8, 8);
        assert_overlap_equivalent(&seq, &ovl, 8);
        assert!(store.faults_injected() > 0, "{plan}: faults actually fired");
        assert!(
            http.counters().retries() > 0,
            "{plan}: the retry path carried the workload"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Batched vs sequential equivalence on both backends, plus the
    /// cross-backend agreement at every batch size.
    #[test]
    fn prop_batched_pipeline_equivalent(
        rows in 300u64..900,
        seed in 0u64..5,
        batch in 2usize..9,
        phi in prop_oneof![Just(0.0), 0.005f64..0.1],
        w1 in window_strategy(),
        w2 in window_strategy(),
        w3 in window_strategy(),
    ) {
        let spec = dataset(rows, seed, 4);
        let csv = spec.build_mem(CsvFormat::default()).unwrap();
        let bin = BinFile::from_bytes(convert_to_bin(&csv).unwrap()).unwrap();
        let zone = ZoneFile::from_bytes(convert_to_zone(&csv).unwrap()).unwrap();
        let store = ObjectStore::serve().unwrap();
        store.put("data.paizone", convert_to_zone(&csv).unwrap());
        let http = HttpFile::open(store.addr(), "data.paizone", HttpOptions::default()).unwrap();
        let windows = [w1, w2, w3];

        let csv_seq = run_sequence(&csv, &spec, &windows, phi, 1);
        let csv_batch = run_sequence(&csv, &spec, &windows, phi, batch);
        assert_batch_equivalent(&csv_seq, &csv_batch, batch);

        let bin_seq = run_sequence(&bin, &spec, &windows, phi, 1);
        let bin_batch = run_sequence(&bin, &spec, &windows, phi, batch);
        assert_batch_equivalent(&bin_seq, &bin_batch, batch);

        let zone_seq = run_sequence(&zone, &spec, &windows, phi, 1);
        let zone_batch = run_sequence(&zone, &spec, &windows, phi, batch);
        assert_batch_equivalent(&zone_seq, &zone_batch, batch);

        let http_seq = run_sequence(&http, &spec, &windows, phi, 1);
        let http_batch = run_sequence(&http, &spec, &windows, phi, batch);
        assert_batch_equivalent(&http_seq, &http_batch, batch);

        // Backends agree with each other at the batched size too (the
        // sequential cross-backend agreement is backend_equivalence.rs's
        // job).
        for (i, (((c, b), z), h)) in csv_batch
            .results
            .iter()
            .zip(&bin_batch.results)
            .zip(&zone_batch.results)
            .zip(&http_batch.results)
            .enumerate()
        {
            for (((cv, bv), zv), hv) in
                c.values.iter().zip(&b.values).zip(&z.values).zip(&h.values)
            {
                prop_assert_eq!(cv.as_f64(), bv.as_f64(), "query {} cross-backend", i);
                prop_assert_eq!(cv.as_f64(), zv.as_f64(), "query {} zone cross-backend", i);
                prop_assert_eq!(cv.as_f64(), hv.as_f64(), "query {} http cross-backend", i);
            }
            prop_assert_eq!(c.error_bound, b.error_bound, "query {} cross-backend bound", i);
            prop_assert_eq!(c.error_bound, z.error_bound, "query {} zone cross-backend bound", i);
            prop_assert_eq!(c.error_bound, h.error_bound, "query {} http cross-backend bound", i);
            prop_assert_eq!(
                c.stats.io.read_calls, b.stats.io.read_calls,
                "query {} cross-backend call count", i
            );
            prop_assert_eq!(
                c.stats.io.read_calls, z.stats.io.read_calls,
                "query {} zone cross-backend call count", i
            );
            prop_assert_eq!(
                c.stats.io.read_calls, h.stats.io.read_calls,
                "query {} http cross-backend call count", i
            );
        }
        // The tiered block cache is invisible to the batched pipeline too:
        // batch-1 vs batch-k equivalence holds on the cached remote file
        // (the batched run rides a cache the sequential run warmed), and
        // its batched run agrees with the uncached one on answers and
        // logical meters.
        let cached = CachedFile::with_config(
            Box::new(HttpFile::open(store.addr(), "data.paizone", HttpOptions::default()).unwrap()),
            CacheConfig::new(4 << 20, 0),
        );
        let cached_seq = run_sequence(&cached, &spec, &windows, phi, 1);
        let cached_batch = run_sequence(&cached, &spec, &windows, phi, batch);
        assert_batch_equivalent(&cached_seq, &cached_batch, batch);
        for (i, (h, q)) in http_batch.results.iter().zip(&cached_batch.results).enumerate() {
            for (hv, qv) in h.values.iter().zip(&q.values) {
                prop_assert_eq!(hv.as_f64(), qv.as_f64(), "query {} cached cross-backend", i);
            }
            prop_assert_eq!(h.error_bound, q.error_bound, "query {} cached bound", i);
            prop_assert_eq!(
                h.stats.io.read_calls, q.stats.io.read_calls,
                "query {} cached call count", i
            );
        }
        prop_assert_eq!(csv_batch.leaf_count, bin_batch.leaf_count);
        prop_assert_eq!(csv_batch.leaf_count, zone_batch.leaf_count);
        prop_assert_eq!(csv_batch.leaf_count, http_batch.leaf_count);
        prop_assert_eq!(http_batch.leaf_count, cached_batch.leaf_count);
        prop_assert_eq!(http_batch.objects_read, cached_batch.objects_read);
        // Zone answers the same fetch workload in fewer or equal bytes than
        // PaiBin at every batch size (bit-packed values vs 8-byte values);
        // CSV is the byte ceiling. The remote transport changes none of it.
        prop_assert!(zone_batch.objects_read == bin_batch.objects_read);
        prop_assert!(http_batch.objects_read == zone_batch.objects_read);
    }

    /// The overlapped fetch pipeline at worker counts {1, 2, 8} on every
    /// backend: identical answers, CIs, bounds, trajectories, and
    /// byte-identical per-query logical meters vs the sequential path.
    /// Batched so the pipeline has multi-unit rounds to overlap.
    #[test]
    fn prop_overlapped_pipeline_equivalent(
        rows in 300u64..800,
        seed in 10u64..15,
        batch in prop_oneof![Just(1usize), Just(8usize)],
        phi in prop_oneof![Just(0.0), 0.005f64..0.1],
        w1 in window_strategy(),
        w2 in window_strategy(),
    ) {
        let spec = dataset(rows, seed, 4);
        let csv = spec.build_mem(CsvFormat::default()).unwrap();
        let bin = BinFile::from_bytes(convert_to_bin(&csv).unwrap()).unwrap();
        let zone = ZoneFile::from_bytes(convert_to_zone(&csv).unwrap()).unwrap();
        let store = ObjectStore::serve().unwrap();
        store.put("data.paizone", convert_to_zone(&csv).unwrap());
        let windows = [w1, w2];

        let backends: [(&str, &dyn RawFile); 3] =
            [("csv", &csv), ("bin", &bin), ("zone", &zone)];
        for (name, file) in backends {
            let seq = run_sequence_overlapped(file, &spec, &windows, phi, batch, 1);
            for workers in [2usize, 8] {
                let ovl = run_sequence_overlapped(file, &spec, &windows, phi, batch, workers);
                // A panic message names the backend via the assert labels.
                let _ = name;
                assert_overlap_equivalent(&seq, &ovl, workers);
            }
        }
        // HTTP: overlap applies at both the engine layer and the ranged-GET
        // client; answers and logical meters still cannot move.
        let http_seq = {
            let f = HttpFile::open(store.addr(), "data.paizone", HttpOptions::default()).unwrap();
            run_sequence_overlapped(&f, &spec, &windows, phi, batch, 1)
        };
        for workers in [2usize, 8] {
            let f = HttpFile::open(
                store.addr(),
                "data.paizone",
                HttpOptions::default().with_fetch_workers(workers),
            )
            .unwrap();
            let ovl = run_sequence_overlapped(&f, &spec, &windows, phi, batch, workers);
            assert_overlap_equivalent(&http_seq, &ovl, workers);
        }

        // Cached HTTP at every worker count, one *shared* cache warming
        // across the runs: the tiers may only remove transport — answers
        // and per-query logical meters stay byte-identical to the
        // sequential uncached run even when later runs are served mostly
        // from memory.
        let shared = std::sync::Arc::new(BlockCache::new(CacheConfig::new(4 << 20, 0)));
        let open_cached = |workers: usize| {
            CachedFile::new(
                Box::new(HttpFile::open(
                    store.addr(),
                    "data.paizone",
                    HttpOptions::default().with_fetch_workers(workers),
                ).unwrap()),
                shared.clone(),
            )
        };
        let cold = open_cached(1);
        let cached_seq = run_sequence_overlapped(&cold, &spec, &windows, phi, batch, 1);
        assert_overlap_equivalent(&http_seq, &cached_seq, 1);
        let cold_gets = cold.counters().http_requests();
        for workers in [2usize, 8] {
            let f = open_cached(workers);
            let ovl = run_sequence_overlapped(&f, &spec, &windows, phi, batch, workers);
            assert_overlap_equivalent(&http_seq, &ovl, workers);
            prop_assert!(
                f.counters().http_requests() <= cold_gets,
                "a warm worker={} run cannot out-fetch the cold one: {} vs {}",
                workers, f.counters().http_requests(), cold_gets
            );
            if cached_seq.objects_read > 0 {
                prop_assert!(
                    f.counters().cache_hits() > 0,
                    "warm worker={} run served spans from the shared cache", workers
                );
            }
        }
    }

    /// φ = 0 exercises full resolution: every candidate is processed under
    /// both modes, so the batched pipeline must also match a workload-level
    /// strict call reduction whenever multi-tile queries exist.
    #[test]
    fn prop_exact_mode_strictly_fewer_calls(
        rows in 400u64..900,
        seed in 5u64..10,
        batch in 2usize..6,
        w in window_strategy(),
    ) {
        let spec = dataset(rows, seed, 3);
        let csv = spec.build_mem(CsvFormat::default()).unwrap();
        let windows = [w];
        let seq = run_sequence(&csv, &spec, &windows, 0.0, 1);
        let batched = run_sequence(&csv, &spec, &windows, 0.0, batch);
        assert_batch_equivalent(&seq, &batched, batch);
        // Exact answering fully resolves the window either way.
        for (a, b) in seq.results.iter().zip(&batched.results) {
            prop_assert_eq!(a.error_bound, 0.0);
            prop_assert_eq!(b.error_bound, 0.0);
        }
    }
}
