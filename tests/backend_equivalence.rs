//! Backend-equivalence properties: the engine must not be able to tell the
//! storage backends apart — except through the I/O meters.
//!
//! For generated datasets, the CSV representation, its zone-mapped
//! compressed binary columnar (`PaiZone`) conversion, and the zone image
//! served over HTTP ranged GETs (`HttpFile`) must yield, under the same
//! configuration and query sequence:
//!   1. identical approximate answers and error bounds;
//!   2. the same adaptation trajectory (tiles processed/split, objects
//!      read, final leaf count);
//!   3. fewer (or equal) bytes read on the binary backend — strictly
//!      fewer whenever the workload actually reads objects — and, on
//!      spatially clustered layouts, strictly fewer bytes *and blocks* on
//!      `PaiZone` with its windows pushed down than on the same image read
//!      without them (zone-map pushdown).
//!
//! All backends scan rows in the same order and round-trip `f64` values
//! bit-exactly (CSV via shortest-repr printing, PaiZone natively), so the
//! comparisons below are exact, not approximate.

use pai_bench::NoPushdown;
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

/// Runs the same window sequence on one backend; returns per-query results
/// plus the I/O meters and final index shape.
#[allow(clippy::type_complexity)]
fn run_sequence(
    file: &dyn RawFile,
    spec: &DatasetSpec,
    grid: usize,
    windows: &[Rect],
    phi: f64,
) -> (Vec<ApproxResult>, u64, u64, usize) {
    run_sequence_with(
        file,
        spec,
        grid,
        windows,
        phi,
        MetadataPolicy::AllNumeric,
        false,
    )
}

/// [`run_sequence`] with the initialization metadata policy and the
/// block-synopsis tier under the caller's control.
#[allow(clippy::type_complexity)]
fn run_sequence_with(
    file: &dyn RawFile,
    spec: &DatasetSpec,
    grid: usize,
    windows: &[Rect],
    phi: f64,
    metadata: MetadataPolicy,
    synopsis: bool,
) -> (Vec<ApproxResult>, u64, u64, usize) {
    let init = InitConfig {
        grid: GridSpec::Fixed { nx: grid, ny: grid },
        domain: Some(spec.domain),
        metadata,
    };
    let (index, _) = build(file, &init).expect("init");
    let cfg = EngineConfig {
        synopsis,
        ..EngineConfig::paper_evaluation()
    };
    let mut engine = ApproximateEngine::new(index, file, cfg).expect("engine");
    file.counters().reset();
    let aggs = [
        AggregateFunction::Count,
        AggregateFunction::Sum(2),
        AggregateFunction::Mean(2),
    ];
    let results: Vec<ApproxResult> = windows
        .iter()
        .map(|w| engine.evaluate(w, &aggs, phi).expect("evaluate"))
        .collect();
    let objects = file.counters().objects_read();
    let bytes = file.counters().bytes_read();
    let leaves = engine.index().leaf_count();
    (results, objects, bytes, leaves)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Query-result and adaptation-trajectory equivalence between the CSV
    /// backend and its binary conversion (local, remote, cached remote),
    /// plus the byte advantage.
    #[test]
    fn prop_backends_equivalent(
        rows in 200u64..900,
        seed in 0u64..5,
        grid in 3usize..7,
        phi in prop_oneof![Just(0.0), 0.01f64..0.2],
        w1 in window_strategy(),
        w2 in window_strategy(),
        w3 in window_strategy(),
    ) {
        let spec = dataset(rows, seed, 4);
        let csv = spec.build_mem(CsvFormat::default()).unwrap();
        // Convert the *CSV file* (not the generator) so the converter paths
        // themselves are under test.
        let zone = ZoneFile::from_bytes(convert_to_zone(&csv).unwrap()).unwrap();
        prop_assert_eq!(zone.n_rows(), rows);
        // The same zone image served over HTTP ranged GETs.
        let store = ObjectStore::serve().unwrap();
        store.put("data.paizone", convert_to_zone(&csv).unwrap());
        let http = HttpFile::open(store.addr(), "data.paizone", HttpOptions::default()).unwrap();
        // ... and the same remote file behind the block cache.
        let cached = CachedFile::with_config(
            Box::new(HttpFile::open(store.addr(), "data.paizone", HttpOptions::default()).unwrap()),
            CacheConfig::new(4 << 20, 0),
        );
        prop_assert!(cached.is_attached(), "http backend must bind the cache");

        let windows = [w1, w2, w3];
        let (rc, co, cb, cl) = run_sequence(&csv, &spec, grid, &windows, phi);
        let (rz, zo, zb, zl) = run_sequence(&zone, &spec, grid, &windows, phi);
        let (rh, ho, hb, hl) = run_sequence(&http, &spec, grid, &windows, phi);
        let (rq, qo, qb, ql) = run_sequence(&cached, &spec, grid, &windows, phi);

        for (i, ((c, z), h)) in rc.iter().zip(&rz).zip(&rh).enumerate() {
            for ((cv, zv), hv) in c.values.iter().zip(&z.values).zip(&h.values) {
                prop_assert_eq!(cv.as_f64(), zv.as_f64(), "query {} zone answer", i);
                prop_assert_eq!(cv.as_f64(), hv.as_f64(), "query {} http answer", i);
            }
            for ((cc, zc), hc) in c.cis.iter().zip(&z.cis).zip(&h.cis) {
                prop_assert_eq!(cc, zc, "query {} zone CI", i);
                prop_assert_eq!(cc, hc, "query {} http CI", i);
            }
            prop_assert_eq!(c.error_bound, z.error_bound, "query {} zone bound", i);
            prop_assert_eq!(c.error_bound, h.error_bound, "query {} http bound", i);
            prop_assert_eq!(
                c.stats.tiles_processed, z.stats.tiles_processed,
                "query {} zone trajectory", i
            );
            prop_assert_eq!(
                c.stats.tiles_processed, h.stats.tiles_processed,
                "query {} http trajectory", i
            );
            prop_assert_eq!(c.stats.tiles_split, z.stats.tiles_split, "query {} zone splits", i);
            prop_assert_eq!(c.stats.tiles_split, h.stats.tiles_split, "query {} http splits", i);
            prop_assert_eq!(c.stats.selected, z.stats.selected, "query {} selection", i);
        }
        // The cached remote leg is indistinguishable except in transport:
        // same answers, CIs, bounds, and trajectory as every other backend.
        for (i, (c, q)) in rc.iter().zip(&rq).enumerate() {
            for (cv, qv) in c.values.iter().zip(&q.values) {
                prop_assert_eq!(cv.as_f64(), qv.as_f64(), "query {} cached answer", i);
            }
            for (cc, qc) in c.cis.iter().zip(&q.cis) {
                prop_assert_eq!(cc, qc, "query {} cached CI", i);
            }
            prop_assert_eq!(c.error_bound, q.error_bound, "query {} cached bound", i);
            prop_assert_eq!(
                c.stats.tiles_processed, q.stats.tiles_processed,
                "query {} cached trajectory", i
            );
        }
        // Same splits in, same tree out.
        prop_assert_eq!(cl, zl, "zone leaf count must match");
        prop_assert_eq!(cl, hl, "http leaf count must match");
        prop_assert_eq!(cl, ql, "cached http leaf count must match");
        prop_assert_eq!(co, zo, "zone object meter must match");
        prop_assert_eq!(co, ho, "http object meter must match");
        prop_assert_eq!(co, qo, "cached http object meter must match");
        // The remote transport is invisible to the logical meters: an HTTP
        // zone file reads exactly the bytes its local twin reads — cached
        // or not (the cache is tier-blind to logical metering).
        prop_assert_eq!(zb, hb, "http logical bytes must equal zone's");
        prop_assert_eq!(zb, qb, "cached http logical bytes must equal zone's");
        prop_assert!(http.counters().http_requests() > 0, "reads went over the wire");
        // The cache can only remove transport, never add it; any span the
        // workload revisits is already served locally on the first pass.
        prop_assert!(
            cached.counters().http_requests() <= http.counters().http_requests(),
            "cached leg must never issue more GETs: {} vs {}",
            cached.counters().http_requests(),
            http.counters().http_requests()
        );
        prop_assert_eq!(
            http.counters().cache_hits() + http.counters().cache_misses(),
            0u64,
            "an uncached file must report zero cache traffic"
        );
        // The binary format's claim: positional reads are never more
        // expensive in bytes, and strictly cheaper once anything is read.
        prop_assert!(zb <= cb, "zone bytes {} > csv bytes {}", zb, cb);
        if co > 0 {
            prop_assert!(zb < cb, "expected a strict byte advantage: {} vs {}", zb, cb);
        }
    }

    /// Ground truth is backend-independent: a (pushdown-capable) scan of
    /// each conversion sees exactly the selection the CSV scan sees.
    #[test]
    fn prop_conversion_preserves_ground_truth(
        rows in 100u64..500,
        seed in 0u64..5,
        window in window_strategy(),
    ) {
        let spec = dataset(rows, seed, 3);
        let csv = spec.build_mem(CsvFormat::default()).unwrap();
        let zone = ZoneFile::from_bytes(convert_to_zone(&csv).unwrap()).unwrap();
        let tc = pai_storage::ground_truth::window_truth(&csv, &window, &[2]).unwrap();
        let tz = pai_storage::ground_truth::window_truth(&zone, &window, &[2]).unwrap();
        prop_assert_eq!(tc[0].selected, tz[0].selected);
        prop_assert_eq!(tc[0].stats.sum(), tz[0].stats.sum());
        prop_assert_eq!(tc[0].stats.min(), tz[0].stats.min());
        prop_assert_eq!(tc[0].stats.max(), tz[0].stats.max());
    }

    /// On a spatially clustered layout (the realistic converted-archive
    /// case), `PaiZone` answers the same workload **plus its per-query
    /// ground-truth verification** with identical results while moving
    /// strictly fewer bytes than the same image read with no window pushed
    /// down; blocks never exceed that baseline's and are strictly fewer
    /// whenever the zone maps prove anything dead.
    #[test]
    fn prop_zone_pushdown_cheaper_on_clustered_layout(
        rows in 12_288u64..20_000,
        seed in 0u64..3,
        phi in prop_oneof![Just(0.02), 0.05f64..0.15],
        w1 in window_strategy(),
        w2 in window_strategy(),
    ) {
        let spec = DatasetSpec {
            order: RowOrder::ZOrder,
            ..dataset(rows, seed, 4)
        };
        // One physical order for every backend: equivalence by construction.
        let rows_phys = spec.rows_physical();
        let unpushed = NoPushdown(ZoneFile::from_rows(&spec.schema(), rows_phys.clone()).unwrap());
        let zone = ZoneFile::from_rows(&spec.schema(), rows_phys).unwrap();

        let windows = [w1, w2];
        let run_verified = |file: &dyn RawFile| {
            let (results, ..) = run_sequence(file, &spec, 4, &windows, phi);
            let truths: Vec<f64> = windows
                .iter()
                .map(|w| {
                    pai_storage::ground_truth::window_truth(file, w, &[2]).unwrap()[0]
                        .stats
                        .sum()
                })
                .collect();
            (results, truths, file.counters().snapshot())
        };
        let (ru, tu, su) = run_verified(&unpushed);
        let (rz, tz, sz) = run_verified(&zone);

        for (i, (u, z)) in ru.iter().zip(&rz).enumerate() {
            for (uv, zv) in u.values.iter().zip(&z.values) {
                prop_assert_eq!(uv.as_f64(), zv.as_f64(), "query {} answer", i);
            }
            for (uc, zc) in u.cis.iter().zip(&z.cis) {
                prop_assert_eq!(uc, zc, "query {} CI", i);
            }
            prop_assert_eq!(u.error_bound, z.error_bound, "query {} bound", i);
            prop_assert_eq!(
                u.stats.tiles_processed, z.stats.tiles_processed,
                "query {} trajectory", i
            );
            prop_assert_eq!(
                u.stats.io.objects_read, z.stats.io.objects_read,
                "query {} engine objects", i
            );
        }
        prop_assert_eq!(tu, tz, "verification truths must agree");
        // (Total objects differ by design: pruned truth scans never even
        // touch the records of dead blocks.)
        prop_assert!(
            sz.bytes_read <= su.bytes_read,
            "zone must never move more bytes: {} vs {}",
            sz.bytes_read, su.bytes_read
        );
        prop_assert!(
            sz.blocks_read <= su.blocks_read,
            "zone must never touch more blocks: {} vs {}",
            sz.blocks_read, su.blocks_read
        );
        if sz.blocks_skipped > 0 {
            prop_assert!(
                sz.bytes_read < su.bytes_read,
                "zone must move strictly fewer bytes: {} vs {}",
                sz.bytes_read, su.bytes_read
            );
            prop_assert!(
                sz.blocks_read < su.blocks_read,
                "skipped blocks must show up as strictly fewer reads: {} vs {} (+{})",
                sz.blocks_read, su.blocks_read, sz.blocks_skipped
            );
        }
        prop_assert_eq!(su.blocks_skipped, 0, "no window, no skip");
    }
}

/// A remote `PaiZone` under fault injection answers exactly like its local
/// twin: every 4th request 5xx-fails at the server, the client retries
/// with backoff, and the only observable difference is the `retries`
/// meter.
#[test]
fn http_backend_with_faults_matches_zone_exactly() {
    let spec = dataset(600, 3, 4);
    let csv = spec.build_mem(CsvFormat::default()).unwrap();
    let zone = ZoneFile::from_bytes(convert_to_zone(&csv).unwrap()).unwrap();
    let plan = FaultPlan::Periodic {
        fault: Fault::Status5xx,
        every: 4,
    };
    let store = ObjectStore::serve_with(std::time::Duration::ZERO, plan).unwrap();
    store.put("data.paizone", convert_to_zone(&csv).unwrap());
    let http = HttpFile::open(store.addr(), "data.paizone", HttpOptions::default()).unwrap();

    let windows = [
        Rect::new(100.0, 400.0, 100.0, 400.0),
        Rect::new(300.0, 700.0, 200.0, 600.0),
    ];
    let (rz, zo, zb, zl) = run_sequence(&zone, &spec, 4, &windows, 0.05);
    let (rh, ho, hb, hl) = run_sequence(&http, &spec, 4, &windows, 0.05);
    for (z, h) in rz.iter().zip(&rh) {
        for (zv, hv) in z.values.iter().zip(&h.values) {
            assert_eq!(zv.as_f64(), hv.as_f64());
        }
        for (zc, hc) in z.cis.iter().zip(&h.cis) {
            assert_eq!(zc, hc);
        }
        assert_eq!(z.error_bound, h.error_bound);
        assert_eq!(z.stats.tiles_processed, h.stats.tiles_processed);
    }
    assert_eq!((zo, zb, zl), (ho, hb, hl), "logical meters identical");
    assert!(store.faults_injected() > 0, "faults actually fired");
    assert!(
        http.counters().retries() > 0,
        "the retry path carried the workload"
    );
}

/// A remote `PaiZone` behind the block cache answers exactly like
/// its uncached twin in both a cold and a warm session; the cold session
/// never issues more GETs than the uncached run (intra-session revisits
/// are already served locally), and a warm re-run (fresh engine + index,
/// same cache) goes back to the wire strictly less — here, not at all.
#[test]
fn cached_http_matches_zone_and_warm_rerun_stays_off_the_wire() {
    let spec = dataset(800, 5, 4);
    let csv = spec.build_mem(CsvFormat::default()).unwrap();
    let zone = ZoneFile::from_bytes(convert_to_zone(&csv).unwrap()).unwrap();
    let store = ObjectStore::serve().unwrap();
    store.put("data.paizone", convert_to_zone(&csv).unwrap());
    let open = || HttpFile::open(store.addr(), "data.paizone", HttpOptions::default()).unwrap();

    let windows = [
        Rect::new(100.0, 400.0, 100.0, 400.0),
        Rect::new(300.0, 700.0, 200.0, 600.0),
        Rect::new(100.0, 400.0, 100.0, 400.0), // a revisit, as explorers do
    ];
    let (rz, zo, zb, zl) = run_sequence(&zone, &spec, 4, &windows, 0.05);
    let uncached = open();
    let (rh, ..) = run_sequence(&uncached, &spec, 4, &windows, 0.05);
    let uncached_gets = uncached.counters().http_requests();

    let cached = CachedFile::with_config(Box::new(open()), CacheConfig::new(4 << 20, 0));
    let (r1, o1, b1, l1) = run_sequence(&cached, &spec, 4, &windows, 0.05);
    let cold_gets = cached.counters().http_requests();
    let cold_misses = cached.counters().cache_misses();
    let (r2, o2, b2, l2) = run_sequence(&cached, &spec, 4, &windows, 0.05);
    let warm_gets = cached.counters().http_requests();

    for (results, session) in [(&rh, "uncached"), (&r1, "cold"), (&r2, "warm")] {
        for (z, c) in rz.iter().zip(results.iter()) {
            for (zv, cv) in z.values.iter().zip(&c.values) {
                assert_eq!(zv.as_f64(), cv.as_f64(), "{session} answers match zone's");
            }
            for (zc, cc) in z.cis.iter().zip(&c.cis) {
                assert_eq!(zc, cc, "{session} CIs match zone's");
            }
            assert_eq!(z.error_bound, c.error_bound, "{session} bound");
            assert_eq!(
                z.stats.tiles_processed, c.stats.tiles_processed,
                "{session} trajectory"
            );
        }
    }
    // Cold session answers came over the wire at least partly; the logical
    // meters are tier-blind in both sessions.
    assert_eq!((rz.len(), zo, zb, zl), (r1.len(), o1, b1, l1));
    assert_eq!((zo, zb, zl), (o2, b2, l2), "warm session logical meters");
    assert!(cold_misses > 0, "cold session actually missed");
    assert!(cold_gets > 0, "cold session actually fetched");
    assert!(
        cold_gets <= uncached_gets,
        "the cache can only remove transport: cold {cold_gets} vs uncached {uncached_gets}"
    );
    assert!(
        warm_gets < cold_gets,
        "warm re-run must go to the wire strictly less: {warm_gets} vs {cold_gets}"
    );
    assert_eq!(
        warm_gets, 0,
        "with the whole working set admitted, the warm session is wire-free"
    );
    assert!(
        cached.counters().cache_hits() > 0,
        "warm session served from the cache"
    );
}

/// Deterministic strict version of the pushdown claim (the acceptance
/// gate's shape, as a plain test): on the clustered layout, a corner-bound
/// exploration plus its verification reads strictly fewer blocks and bytes
/// on `PaiZone` with its windows pushed down than on the same image read
/// without them, for identical answers and CIs.
#[test]
fn zone_pushdown_strictly_cheaper_deterministic() {
    let spec = DatasetSpec {
        rows: 20_000,
        columns: 4,
        seed: 9,
        order: RowOrder::ZOrder,
        ..Default::default()
    };
    let rows_phys = spec.rows_physical();
    let unpushed = NoPushdown(ZoneFile::from_rows(&spec.schema(), rows_phys.clone()).unwrap());
    let zone = ZoneFile::from_rows(&spec.schema(), rows_phys).unwrap();

    // A corner-anchored pan: far corners of the Z-curve stay provably dead.
    let windows: Vec<Rect> = (0..4)
        .map(|i| {
            let off = 40.0 * i as f64;
            Rect::new(20.0 + off, 220.0 + off, 20.0 + off, 220.0 + off)
        })
        .collect();
    let run_verified = |file: &dyn RawFile| {
        let (results, ..) = run_sequence(file, &spec, 5, &windows, 0.05);
        for w in &windows {
            pai_storage::ground_truth::window_truth(file, w, &[2]).unwrap();
        }
        (results, file.counters().snapshot())
    };
    let (ru, su) = run_verified(&unpushed);
    let (rz, sz) = run_verified(&zone);

    for (u, z) in ru.iter().zip(&rz) {
        for (uv, zv) in u.values.iter().zip(&z.values) {
            assert_eq!(uv.as_f64(), zv.as_f64());
        }
        for (uc, zc) in u.cis.iter().zip(&z.cis) {
            assert_eq!(uc, zc);
        }
        assert_eq!(u.error_bound, z.error_bound);
        assert_eq!(u.stats.io.objects_read, z.stats.io.objects_read);
    }
    // (Total objects are incomparable: pruned truth scans never touch the
    // records of dead blocks at all.)
    assert!(sz.blocks_skipped > 0, "zone maps must prove blocks dead");
    assert!(
        sz.blocks_read < su.blocks_read,
        "strictly fewer blocks: zone {} vs unpushed {}",
        sz.blocks_read,
        su.blocks_read
    );
    assert!(
        sz.bytes_read < su.bytes_read,
        "strictly fewer bytes: zone {} vs unpushed {}",
        sz.bytes_read,
        su.bytes_read
    );
}

/// [`run_sequence`] with the adaptation batch size and fetch-worker count
/// under the caller's control (the ingest leg sweeps both).
fn run_sequence_cfg(
    file: &dyn RawFile,
    spec: &DatasetSpec,
    grid: usize,
    windows: &[Rect],
    phi: f64,
    adapt_batch: usize,
    fetch_workers: usize,
) -> (Vec<ApproxResult>, usize) {
    let init = InitConfig {
        grid: GridSpec::Fixed { nx: grid, ny: grid },
        domain: Some(spec.domain),
        metadata: MetadataPolicy::AllNumeric,
    };
    let (index, _) = build(file, &init).expect("init");
    let cfg = EngineConfig {
        adapt_batch,
        fetch_workers,
        ..EngineConfig::paper_evaluation()
    };
    let mut engine = ApproximateEngine::new(index, file, cfg).expect("engine");
    let aggs = [
        AggregateFunction::Count,
        AggregateFunction::Sum(2),
        AggregateFunction::Mean(2),
    ];
    let results: Vec<ApproxResult> = windows
        .iter()
        .map(|w| engine.evaluate(w, &aggs, phi).expect("evaluate"))
        .collect();
    let leaves = engine.index().leaf_count();
    (results, leaves)
}

/// The ingest leg: a base file extended with streamed delta batches must be
/// indistinguishable — byte for byte, on every backend, at every
/// adapt-batch × fetch-workers combination — from a statically-built file
/// holding the same rows in the same order.
///
/// Each backend (mem/zone/http) is wrapped in an `AppendableFile` with
/// a deliberately small delta-block size, fed the same delta stream in
/// uneven batches (so the run ends with several sealed blocks *and* a
/// non-empty open tail), and then driven through the standard query
/// sequence. The static twin is a `ZoneFile` built from base + delta rows in
/// append order: pre-compaction the appendable scans base-then-deltas in
/// exactly that order, so index build, adaptation trajectory, and every
/// float fold are identical by construction — the comparisons below are on
/// raw bits, not within tolerances.
#[test]
fn streamed_ingest_matches_statically_built_file_on_every_backend() {
    let spec = dataset(900, 11, 4);
    let csv = spec.build_mem(CsvFormat::default()).unwrap();
    // Deterministic in-domain delta stream: scattered on both axes so the
    // appended rows land across many tiles, with distinctive payloads.
    let delta: Vec<Vec<f64>> = (0..300)
        .map(|i| {
            let x = ((i * 37 + 13) % 1000) as f64 + 0.25;
            let y = ((i * 91 + 7) % 1000) as f64 + 0.75;
            vec![x, y, 100.0 + i as f64, -2.0 * i as f64]
        })
        .collect();
    let mut all_rows = spec.rows_physical();
    all_rows.extend(delta.iter().cloned());
    let twin = ZoneFile::from_rows(&spec.schema(), all_rows).unwrap();

    let store = ObjectStore::serve().unwrap();
    store.put("ingest.paizone", convert_to_zone(&csv).unwrap());

    let windows = [
        Rect::new(100.0, 450.0, 100.0, 450.0),
        Rect::new(300.0, 700.0, 200.0, 600.0),
        Rect::new(50.0, 950.0, 50.0, 950.0),
    ];
    // Uneven batch cuts: 120 + 130 + 50 rows against 64-row delta blocks
    // leaves 4 sealed blocks plus a 44-row open tail.
    let cuts = [0usize, 120, 250, 300];

    for &(adapt_batch, fetch_workers) in &[(1, 1), (1, 4), (4, 1), (4, 4)] {
        let (rt, lt) =
            run_sequence_cfg(&twin, &spec, 5, &windows, 0.05, adapt_batch, fetch_workers);
        let backends: Vec<(&str, Box<dyn RawFile>)> = vec![
            (
                "mem",
                Box::new(
                    pai_storage::AppendableFile::with_layout(
                        spec.build_mem(CsvFormat::default()).unwrap(),
                        spec.rows,
                        64,
                        SynopsisSpec::default(),
                    )
                    .unwrap(),
                ),
            ),
            (
                "zone",
                Box::new(
                    pai_storage::AppendableFile::with_layout(
                        ZoneFile::from_bytes(convert_to_zone(&csv).unwrap()).unwrap(),
                        spec.rows,
                        64,
                        SynopsisSpec::default(),
                    )
                    .unwrap(),
                ),
            ),
            (
                "http",
                Box::new(
                    pai_storage::AppendableFile::with_layout(
                        HttpFile::open(store.addr(), "ingest.paizone", HttpOptions::default())
                            .unwrap(),
                        spec.rows,
                        64,
                        SynopsisSpec::default(),
                    )
                    .unwrap(),
                ),
            ),
        ];
        for (label, file) in backends {
            for pair in cuts.windows(2) {
                let receipt = file.append_rows(&delta[pair[0]..pair[1]]).unwrap();
                assert_eq!(receipt.start_row, spec.rows + pair[0] as u64, "{label}");
                assert_eq!(receipt.locators.len(), pair[1] - pair[0], "{label}");
            }
            let (rs, ls) = run_sequence_cfg(
                file.as_ref(),
                &spec,
                5,
                &windows,
                0.05,
                adapt_batch,
                fetch_workers,
            );
            let tag = format!("{label} batch={adapt_batch} workers={fetch_workers}");
            assert_eq!(rt.len(), rs.len(), "{tag}");
            for (i, (t, s)) in rt.iter().zip(&rs).enumerate() {
                for (tv, sv) in t.values.iter().zip(&s.values) {
                    assert_eq!(
                        tv.as_f64().map(f64::to_bits),
                        sv.as_f64().map(f64::to_bits),
                        "{tag} query {i}: answer bits"
                    );
                }
                for (tc, sc) in t.cis.iter().zip(&s.cis) {
                    assert_eq!(
                        tc.map(|c| (c.lo().to_bits(), c.hi().to_bits())),
                        sc.map(|c| (c.lo().to_bits(), c.hi().to_bits())),
                        "{tag} query {i}: CI bits"
                    );
                }
                assert_eq!(
                    t.error_bound.to_bits(),
                    s.error_bound.to_bits(),
                    "{tag} query {i}: bound bits"
                );
                assert_eq!(
                    t.stats.tiles_processed, s.stats.tiles_processed,
                    "{tag} query {i}: trajectory"
                );
                assert_eq!(
                    t.stats.selected, s.stats.selected,
                    "{tag} query {i}: selection"
                );
            }
            assert_eq!(lt, ls, "{tag}: leaf counts");
        }
    }
}

/// Metadata-free cold start (`MetadataPolicy::None`) converges to the same
/// answers as eager `AllNumeric` seeding on every backend. The trajectories
/// legitimately differ (None has to discover per-tile metadata as it
/// refines), and the converged sums are folded in a different grouping
/// order, so values match to relative 1e-9 rather than bit-exactly.
#[test]
fn metadata_free_cold_start_converges_on_every_backend() {
    let spec = dataset(900, 7, 4);
    let csv = spec.build_mem(CsvFormat::default()).unwrap();
    let zone = ZoneFile::from_bytes(convert_to_zone(&csv).unwrap()).unwrap();
    let store = ObjectStore::serve().unwrap();
    store.put("cold.paizone", convert_to_zone(&csv).unwrap());
    let http = HttpFile::open(store.addr(), "cold.paizone", HttpOptions::default()).unwrap();

    let windows = [
        Rect::new(100.0, 450.0, 100.0, 450.0),
        Rect::new(300.0, 700.0, 200.0, 600.0),
        Rect::new(50.0, 950.0, 50.0, 950.0),
    ];
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()));

    for (label, file) in [
        ("csv", &csv as &dyn RawFile),
        ("zone", &zone),
        ("http", &http),
    ] {
        // φ = 0: both policies drive to exact answers.
        let (seeded, ..) = run_sequence_with(
            file,
            &spec,
            4,
            &windows,
            0.0,
            MetadataPolicy::AllNumeric,
            false,
        );
        let (cold, ..) =
            run_sequence_with(file, &spec, 4, &windows, 0.0, MetadataPolicy::None, false);
        for (i, (s, c)) in seeded.iter().zip(&cold).enumerate() {
            assert_eq!(s.values.len(), c.values.len());
            for (sv, cv) in s.values.iter().zip(&c.values) {
                match (sv.as_f64(), cv.as_f64()) {
                    (Some(a), Some(b)) => {
                        assert!(close(a, b), "{label} query {i}: {a} vs cold {b}")
                    }
                    (a, b) => assert_eq!(a, b, "{label} query {i}: presence must agree"),
                }
            }
            assert_eq!(s.error_bound, 0.0, "{label} query {i}: seeded exact");
            assert_eq!(c.error_bound, 0.0, "{label} query {i}: cold exact");
        }

        // Cold start *with* synopses at φ = 5%: still sound against truth.
        let (approx, ..) =
            run_sequence_with(file, &spec, 4, &windows, 0.05, MetadataPolicy::None, true);
        for (w, res) in windows.iter().zip(&approx) {
            assert!(res.met_constraint && res.error_bound <= 0.05 + 1e-12);
            let truth = &pai_storage::ground_truth::window_truth(file, w, &[2]).unwrap()[0];
            let selected = truth.selected as f64;
            let expect = [selected, truth.stats.sum(), truth.stats.sum() / selected];
            for (ci, t) in res.cis.iter().zip(expect) {
                if let Some(ci) = ci {
                    assert!(
                        ci.contains(t) || close(ci.lo(), t) || close(ci.hi(), t),
                        "{label}: CI {ci:?} lost truth {t}"
                    );
                }
            }
        }
    }
}
