//! Synopsis-first evaluation gates, against a `PaiZone` v2 image whose
//! synopsis section is built with the default [`SynopsisSpec`]:
//!
//! * **zero-I/O covered window** — on the http backend, a window covering
//!   every block answers entirely from the header synopses: **zero** ranged
//!   GETs, zero objects/bytes read, `fetch_wall_us == 0`, `synopsis_hits`
//!   metered, and the answer's CIs contain the ground truth;
//! * **cold start** — with `MetadataPolicy::None` and 500 µs injected
//!   per-request latency, the first answer of a synopsis-enabled session
//!   arrives strictly faster than the no-synopsis baseline's (which must
//!   refine every partial tile over the wire before it can bound anything);
//! * **converged equivalence** — at φ = 0 the whole exploration sequence
//!   is byte-identical with synopses on vs off (values, CIs, bounds,
//!   trajectories): the synopsis pass may only short-circuit, never drift;
//!   and at φ = [`PHI`] every synopsis-enabled answer's CI still contains
//!   the ground truth.
//!
//! The cold-start gate compares wall-clock and runs in release builds only:
//! `cargo test --release -p pai-bench --test synopsis_gates --
//! --include-ignored --test-threads=1`. The other two run in debug builds
//! too.

use std::time::{Duration, Instant};

use pai_bench::{cached_csv, small_setup, Fig2Setup};
use pai_common::geometry::Rect;
use pai_common::{AggregateFunction, Interval, IoSnapshot};
use pai_core::verify::verify_against_truth;
use pai_core::{ApproxResult, ApproximateEngine, EngineConfig};
use pai_index::init::{build, InitConfig};
use pai_index::MetadataPolicy;
use pai_storage::ground_truth::window_truth;
use pai_storage::zone::DEFAULT_BLOCK_ROWS;
use pai_storage::{
    convert_to_zone_spec, FaultPlan, HttpFile, HttpOptions, ObjectStore, RawFile, SynopsisSpec,
    ZoneFile,
};

/// The CI target φ the gates answer under.
const PHI: f64 = 0.05;

/// Injected per-request latency: the round-trip cost the cold-start win
/// must beat.
const GATE_LATENCY: Duration = Duration::from_micros(500);

const OBJECT: &str = "synopsis-bench.paizone";

/// The zone image for `setup`, synopses built with the default spec.
fn synopsis_image(setup: &Fig2Setup) -> Vec<u8> {
    let csv = cached_csv(&setup.spec);
    convert_to_zone_spec(&csv, DEFAULT_BLOCK_ROWS, &SynopsisSpec::default())
        .expect("encode zone image")
}

/// A window strictly containing the whole data domain: every block is
/// provably covered, so the synopses can answer it exactly.
fn covered_window(setup: &Fig2Setup) -> Rect {
    let d = setup.spec.domain;
    Rect::new(d.x_min - 1.0, d.x_max + 1.0, d.y_min - 1.0, d.y_max + 1.0)
}

/// CI containment with endpoint slack for point CIs, whose composed-moment
/// float rounding may differ from the verification scan's by an ulp.
fn ci_contains(ci: Option<Interval>, truth: f64) -> bool {
    match ci {
        Some(ci) => {
            ci.contains(truth)
                || (truth - ci.lo()).abs() < 1e-9 * (1.0 + ci.lo().abs())
                || (truth - ci.hi()).abs() < 1e-9 * (1.0 + ci.hi().abs())
        }
        None => false,
    }
}

/// A covered window on the http backend answers with zero data I/O — no
/// GET, no object, no byte, no fetch wall-clock — and the CIs contain
/// ground truth.
#[test]
fn covered_window_is_wire_free() {
    let setup = small_setup(50_000);
    let image = synopsis_image(&setup);
    let zone = ZoneFile::from_bytes(image.clone()).expect("zone twin");
    let store = ObjectStore::serve_with(GATE_LATENCY, FaultPlan::Off).expect("store");
    store.put(OBJECT, image);
    let http = HttpFile::open(store.addr(), OBJECT, HttpOptions::default()).expect("open http");

    let init = InitConfig {
        metadata: MetadataPolicy::None,
        ..setup.init.clone()
    };
    let (index, _) = build(&http, &init).expect("init over http");
    let cfg = EngineConfig {
        synopsis: true,
        ..setup.engine.clone()
    };
    let mut engine = ApproximateEngine::new(index, &http, cfg).expect("engine");

    let window = covered_window(&setup);
    let aggs = [
        AggregateFunction::Count,
        AggregateFunction::Sum(2),
        AggregateFunction::Mean(2),
    ];
    let phi = PHI;
    http.counters().reset();
    let t0 = Instant::now();
    let res = engine.evaluate(&window, &aggs, phi).expect("evaluate");
    let wall = t0.elapsed();
    let io = http.counters().snapshot();

    assert_eq!(io.http_requests, 0, "a covered window must issue zero GETs");
    assert_eq!(io.objects_read, 0, "zero data objects");
    assert_eq!(io.bytes_read, 0, "zero data bytes");
    assert_eq!(io.fetch_wall_us, 0, "no fetch was even planned");
    assert!(io.synopsis_hits >= 1, "the synopsis hit path answered");
    assert!(res.met_constraint && res.error_bound <= phi + 1e-12);

    // Truth from the local twin (scanning the http file would cost GETs
    // *after* the meters were read, but the twin keeps the gate honest and
    // wire-free end to end).
    let truth = &window_truth(&zone, &window, &[2]).expect("truth")[0];
    let selected = truth.selected as f64;
    assert!(ci_contains(res.cis[0], selected), "Count CI lost the truth");
    assert!(
        ci_contains(res.cis[1], truth.stats.sum()),
        "Sum CI lost the truth"
    );
    assert!(
        ci_contains(res.cis[2], truth.stats.sum() / selected),
        "Mean CI lost the truth"
    );
    println!(
        "synopsis gate (covered window): {} blocks consulted, {} GETs, answered in {:?}",
        io.synopsis_blocks, io.http_requests, wall
    );
}

/// Metadata-free cold start — time-to-first-answer with synopses strictly
/// beats the no-synopsis baseline under injected latency.
#[test]
#[cfg_attr(debug_assertions, ignore = "wall-clock gate: run with --release")]
fn cold_start_beats_baseline() {
    let setup = small_setup(50_000);
    let image = synopsis_image(&setup);
    let store = ObjectStore::serve_with(GATE_LATENCY, FaultPlan::Off).expect("store");
    store.put(OBJECT, image);
    let init = InitConfig {
        metadata: MetadataPolicy::None,
        ..setup.init.clone()
    };
    let window = covered_window(&setup);
    let aggs = [AggregateFunction::Mean(2)];
    let phi = PHI;

    let ttfa = |synopsis: bool| -> (Duration, ApproxResult, IoSnapshot) {
        let http = HttpFile::open(store.addr(), OBJECT, HttpOptions::default()).expect("open");
        let (index, _) = build(&http, &init).expect("init over http");
        let cfg = EngineConfig {
            synopsis,
            ..setup.engine.clone()
        };
        let mut engine = ApproximateEngine::new(index, &http, cfg).expect("engine");
        http.counters().reset();
        let t0 = Instant::now();
        let res = engine.evaluate(&window, &aggs, phi).expect("evaluate");
        (t0.elapsed(), res, http.counters().snapshot())
    };
    let (syn_wall, syn_res, syn_io) = ttfa(true);
    let (base_wall, base_res, base_io) = ttfa(false);

    assert!(
        syn_wall < base_wall,
        "cold-start first answer must be strictly faster with synopses: \
         {syn_wall:?} vs {base_wall:?}"
    );
    assert_eq!(
        syn_io.http_requests, 0,
        "the synopsis cold start stayed off the wire"
    );
    assert!(
        base_io.http_requests > 0,
        "the baseline had to refine over the wire"
    );
    assert!(syn_res.met_constraint && base_res.met_constraint);
    println!(
        "synopsis gate (cold start): synopsis {:?} / {} GETs, baseline {:?} / {} GETs \
         ({:.1}x faster to first answer)",
        syn_wall,
        syn_io.http_requests,
        base_wall,
        base_io.http_requests,
        base_wall.as_secs_f64() / syn_wall.as_secs_f64()
    );
}

/// Converged equivalence. At φ = 0 the whole exploration sequence is
/// byte-identical with synopses on vs off; at φ = [`PHI`] every
/// synopsis-enabled answer's CI still contains ground truth.
#[test]
fn converged_answers_identical() {
    let setup = small_setup(50_000);
    let image = synopsis_image(&setup);

    let run = |synopsis: bool, phi: f64| -> (Vec<ApproxResult>, Duration, IoSnapshot) {
        let zone = ZoneFile::from_bytes(image.clone()).expect("zone");
        let (index, _) = build(&zone, &setup.init).expect("init");
        let cfg = EngineConfig {
            synopsis,
            ..setup.engine.clone()
        };
        let mut engine = ApproximateEngine::new(index, &zone, cfg).expect("engine");
        zone.counters().reset();
        let t0 = Instant::now();
        let results = setup
            .workload
            .queries
            .iter()
            .map(|q| engine.evaluate(&q.window, &q.aggs, phi).expect("evaluate"))
            .collect();
        (results, t0.elapsed(), zone.counters().snapshot())
    };

    let (on, on_wall, on_io) = run(true, 0.0);
    let (off, off_wall, off_io) = run(false, 0.0);
    for (i, (a, b)) in on.iter().zip(&off).enumerate() {
        for (av, bv) in a.values.iter().zip(&b.values) {
            assert_eq!(av.as_f64(), bv.as_f64(), "query {i}: converged answer");
        }
        for (ac, bc) in a.cis.iter().zip(&b.cis) {
            assert_eq!(ac, bc, "query {i}: converged CI");
        }
        assert_eq!(a.error_bound, b.error_bound, "query {i}: converged bound");
        assert_eq!(
            a.stats.tiles_processed, b.stats.tiles_processed,
            "query {i}: converged trajectory"
        );
    }
    assert_eq!(
        (on_io.objects_read, on_io.bytes_read),
        (off_io.objects_read, off_io.bytes_read),
        "φ = 0 refinement must move identical data either way"
    );

    // Accuracy-constrained leg: soundness under φ = PHI, checked
    // against a full ground-truth scan per query.
    let phi = PHI;
    let (approx, ..) = run(true, phi);
    let zone = ZoneFile::from_bytes(image.clone()).expect("zone");
    for (q, res) in setup.workload.queries.iter().zip(&approx) {
        assert!(res.met_constraint && res.error_bound <= phi + 1e-12);
        let report = verify_against_truth(&zone, &q.window, &q.aggs, res).expect("verify");
        assert!(report.all_ok(), "φ = {phi} answer unsound: {report:?}");
    }
    println!(
        "synopsis gate (converged): {} queries byte-identical at φ = 0 \
         (on {:?} vs off {:?}), sound at φ = {phi}",
        on.len(),
        on_wall,
        off_wall
    );
}
