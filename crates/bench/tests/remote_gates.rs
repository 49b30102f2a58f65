//! Remote object-store gates: the HTTP backend against the bundled
//! in-process object store ([`pai_storage::ObjectStore`]).
//!
//! * **coalescing + pushdown** — the same workload (plus its per-query
//!   ground-truth verification) over HTTP yields byte-identical answers,
//!   CIs, error bounds, and adaptation trajectories to the local `PaiZone`
//!   file at batch sizes 1 and 8, for both the naive and the coalescing
//!   client; with 500 µs injected per request, the coalescing client issues
//!   strictly fewer ranged GETs, moves strictly fewer wire bytes, and
//!   finishes strictly faster than the naive one-GET-per-span client;
//! * **overlap** — under the same injected latency, the overlapped fetch
//!   pipeline (`fetch_workers > 1`) finishes the workload strictly faster
//!   than the sequential client at batch sizes 1 and 8, with byte-identical
//!   answers, CIs, trajectories, *and logical meters* (the request pattern
//!   is identical; only wall-clock and `fetch_inflight_peak` move);
//! * **fault recovery** — with periodic 5xx injection on, the same queries
//!   still return identical answers, and the retries are metered into the
//!   per-query records and the report CSV;
//! * **cache re-exploration** — a zipf-skewed revisit workload runs three
//!   exploration sessions (fresh engine + index each) over one shared
//!   block cache: every session's answers, CIs, trajectories, and
//!   logical meters are byte-identical to the uncached run, each session
//!   issues strictly fewer ranged GETs than the previous one, and the hot
//!   third session stays at or below 25 % of the uncached GETs *and* wire
//!   bytes. A constrained leg then mirrors the repo benchmark's
//!   `remote-reexplore`: a cache a quarter of the working set, every
//!   session a fresh index build *plus* its queries, all metered — still
//!   byte-identical, session 2 strictly cheaper in GETs than session 1,
//!   and fewer pages evicted than fetched after every session (a scan
//!   cycles one slot instead of flushing the tier).
//!
//! Every transport mechanism the client keeps is held to a gate here or to
//! its unit tests in `pai_storage::remote`; the naive client
//! (`HttpOptions::naive`) stays as the baseline the coalescing gate
//! measures against.
//!
//! The first two compare wall-clock and run in release builds only:
//! `cargo test --release -p pai-bench --test remote_gates --
//! --include-ignored --test-threads=1`. The others compare GET counts and
//! meters and run in debug builds too.

use std::time::{Duration, Instant};

use pai_bench::{cached_zone, small_setup, Fig2Setup};
use pai_common::geometry::Rect;
use pai_common::{AggregateFunction, IoSnapshot};
use pai_core::{ApproxResult, ApproximateEngine, EngineConfig};
use pai_index::init::build;
use pai_query::{report, run_workload, Method, WindowQuery, Workload};
use pai_storage::ground_truth::window_truth;
use pai_storage::{
    CacheConfig, CachedFile, Fault, FaultPlan, HttpFile, HttpOptions, ObjectStore, RawFile,
};

/// Injected per-request latency for the latency-sensitive gates: the
/// round-trip cost the overlap/coalescing wins must hide.
const GATE_LATENCY: Duration = Duration::from_micros(500);

const OBJECT: &str = "remote-bench.paizone";

/// Serves the bench dataset's zone image on a dedicated store.
fn serve(setup: &Fig2Setup, latency: Duration, plan: FaultPlan) -> ObjectStore {
    let zone = cached_zone(&setup.spec);
    let bytes = std::fs::read(zone.path().expect("cached zone on disk")).expect("read image");
    let store = ObjectStore::serve_with(latency, plan).expect("start object store");
    store.put(OBJECT, bytes);
    store
}

struct Outcome {
    results: Vec<ApproxResult>,
    truths: Vec<f64>,
    elapsed: Duration,
    requests: u64,
    wire_bytes: u64,
    io: IoSnapshot,
}

/// Runs the workload (φ = 5 %) plus a per-query truth verification and
/// snapshots the transport meters. `workers` feeds the engine's overlapped
/// fetch/apply pipeline (`EngineConfig::fetch_workers`).
fn run_verified(file: &dyn RawFile, setup: &Fig2Setup, batch: usize, workers: usize) -> Outcome {
    run_session(file, setup, batch, workers, false)
}

/// [`run_verified`], optionally metering the index build along with the
/// queries (`meter_build`) — what a whole exploration session costs.
fn run_session(
    file: &dyn RawFile,
    setup: &Fig2Setup,
    batch: usize,
    workers: usize,
    meter_build: bool,
) -> Outcome {
    file.counters().reset();
    let (index, _) = build(file, &setup.init).expect("init");
    let cfg = EngineConfig {
        adapt_batch: batch,
        fetch_workers: workers,
        ..setup.engine.clone()
    };
    let mut engine = ApproximateEngine::new(index, file, cfg).expect("engine");
    if !meter_build {
        file.counters().reset();
    }
    let t0 = Instant::now();
    let results: Vec<ApproxResult> = setup
        .workload
        .queries
        .iter()
        .map(|q| engine.evaluate(&q.window, &q.aggs, 0.05).expect("evaluate"))
        .collect();
    let truths: Vec<f64> = setup
        .workload
        .queries
        .iter()
        .map(|q| {
            window_truth(file, &q.window, &[2]).expect("truth")[0]
                .stats
                .sum()
        })
        .collect();
    let elapsed = t0.elapsed();
    let io = file.counters().snapshot();
    Outcome {
        results,
        truths,
        elapsed,
        requests: io.http_requests,
        wire_bytes: io.http_bytes,
        io,
    }
}

/// Byte-exact equality of the *logical* meters — the ones the
/// local-vs-remote (and sequential-vs-overlapped) invariant pins. Transport
/// meters are deliberately excluded.
fn assert_logical_meters_equal(label: &str, a: &IoSnapshot, b: &IoSnapshot) {
    assert_eq!(a.objects_read, b.objects_read, "{label}: objects_read");
    assert_eq!(a.bytes_read, b.bytes_read, "{label}: bytes_read");
    assert_eq!(a.seeks, b.seeks, "{label}: seeks");
    assert_eq!(a.read_calls, b.read_calls, "{label}: read_calls");
    assert_eq!(a.blocks_read, b.blocks_read, "{label}: blocks_read");
    assert_eq!(
        a.blocks_skipped, b.blocks_skipped,
        "{label}: blocks_skipped"
    );
    assert_eq!(a.full_scans, b.full_scans, "{label}: full_scans");
}

/// Byte-exact equivalence of two outcomes (answers, CIs, bounds,
/// trajectories, truths).
fn assert_equivalent(label: &str, a: &Outcome, b: &Outcome) {
    assert_eq!(a.results.len(), b.results.len(), "{label}: query count");
    for (i, (x, y)) in a.results.iter().zip(&b.results).enumerate() {
        for (xv, yv) in x.values.iter().zip(&y.values) {
            assert_eq!(xv.as_f64(), yv.as_f64(), "{label}: query {i} answer");
        }
        for (xc, yc) in x.cis.iter().zip(&y.cis) {
            assert_eq!(xc, yc, "{label}: query {i} CI");
        }
        assert_eq!(x.error_bound, y.error_bound, "{label}: query {i} bound");
        assert_eq!(
            x.stats.tiles_processed, y.stats.tiles_processed,
            "{label}: query {i} trajectory"
        );
    }
    assert_eq!(a.truths, b.truths, "{label}: verification truths");
}

/// Equivalence at both batch sizes, then the strict coalescing win under
/// injected per-request latency.
#[test]
#[cfg_attr(debug_assertions, ignore = "wall-clock gate: run with --release")]
fn coalescing_and_pushdown_win() {
    let setup = small_setup(50_000);
    let store = serve(&setup, GATE_LATENCY, FaultPlan::Off);

    let zone = cached_zone(&setup.spec);
    let local1 = run_verified(&zone, &setup, 1, 1);
    let local8 = run_verified(&zone, &setup, 8, 1);

    let open = |opts: HttpOptions| HttpFile::open(store.addr(), OBJECT, opts).expect("open http");
    let coal1 = run_verified(&open(HttpOptions::default()), &setup, 1, 1);
    let coal8 = run_verified(&open(HttpOptions::default()), &setup, 8, 1);
    let naive8 = run_verified(&open(HttpOptions::naive()), &setup, 8, 1);

    assert_equivalent("http batch=1 vs local", &coal1, &local1);
    assert_equivalent("http batch=8 vs local", &coal8, &local8);
    assert_equivalent("naive vs coalesced", &naive8, &coal8);

    assert!(
        coal8.requests < naive8.requests,
        "coalescing must issue strictly fewer ranged GETs: {} vs {}",
        coal8.requests,
        naive8.requests
    );
    assert!(
        coal8.wire_bytes < naive8.wire_bytes,
        "coalescing must move strictly fewer wire bytes: {} vs {}",
        coal8.wire_bytes,
        naive8.wire_bytes
    );
    assert!(
        coal8.elapsed < naive8.elapsed,
        "fewer round trips must win wall-clock: {:?} vs {:?}",
        coal8.elapsed,
        naive8.elapsed
    );
    println!(
        "remote gate (coalescing): naive {} GETs / {} wire bytes / {:?}, \
         coalesced {} GETs / {} wire bytes / {:?} ({:.2}x faster)",
        naive8.requests,
        naive8.wire_bytes,
        naive8.elapsed,
        coal8.requests,
        coal8.wire_bytes,
        coal8.elapsed,
        naive8.elapsed.as_secs_f64() / coal8.elapsed.as_secs_f64()
    );
}

/// Overlap gate: under injected latency the overlapped fetch pipeline beats
/// the sequential client's wall-clock strictly, at batch sizes 1 and 8,
/// while answers, CIs, trajectories, and every logical meter stay
/// byte-identical (the request pattern is computed before any worker
/// starts, so even the GET count matches).
#[test]
#[cfg_attr(debug_assertions, ignore = "wall-clock gate: run with --release")]
fn overlap_win() {
    let setup = small_setup(50_000);
    let store = serve(&setup, GATE_LATENCY, FaultPlan::Off);
    let open = |opts: HttpOptions| HttpFile::open(store.addr(), OBJECT, opts).expect("open http");

    for batch in [1usize, 8] {
        let seq = run_verified(&open(HttpOptions::default()), &setup, batch, 1);
        let ovl = run_verified(
            &open(HttpOptions::default().with_fetch_workers(8)),
            &setup,
            batch,
            8,
        );
        let label = format!("overlapped vs sequential, batch={batch}");
        assert_equivalent(&label, &ovl, &seq);
        assert_logical_meters_equal(&label, &ovl.io, &seq.io);
        assert_eq!(
            ovl.requests, seq.requests,
            "{label}: overlap must not change the GET count"
        );
        assert!(
            ovl.io.fetch_inflight_peak >= 2,
            "{label}: the pipeline actually overlapped (peak {})",
            ovl.io.fetch_inflight_peak
        );
        assert!(
            ovl.elapsed < seq.elapsed,
            "{label}: overlapped fetch must win wall-clock: {:?} vs {:?}",
            ovl.elapsed,
            seq.elapsed
        );
        println!(
            "remote gate (overlap, batch={batch}): sequential {:?}, overlapped {:?} \
             ({:.2}x faster, peak inflight {}, overlap ratio {:.2})",
            seq.elapsed,
            ovl.elapsed,
            seq.elapsed.as_secs_f64() / ovl.elapsed.as_secs_f64(),
            ovl.io.fetch_inflight_peak,
            ovl.io.overlap_ratio()
        );
    }
}

/// Under periodic 5xx injection the workload still answers identically,
/// and `retries` lands in the records and the report CSV.
#[test]
fn fault_recovery_is_metered() {
    let setup = small_setup(20_000);
    let plan = FaultPlan::Periodic {
        fault: Fault::Status5xx,
        every: 3,
    };
    let faulty = serve(&setup, Duration::ZERO, plan);
    let method = Method::Approx { phi: 0.05 };

    let zone = cached_zone(&setup.spec);
    let baseline =
        run_workload(&zone, &setup.init, &setup.engine, &setup.workload, method).expect("local");

    let http = HttpFile::open(faulty.addr(), OBJECT, HttpOptions::default()).expect("open");
    let run =
        run_workload(&http, &setup.init, &setup.engine, &setup.workload, method).expect("http");

    for (b, h) in baseline.records.iter().zip(&run.records) {
        for (bv, hv) in b.values.iter().zip(&h.values) {
            assert_eq!(bv.as_f64(), hv.as_f64(), "faulted answers must match");
        }
        assert_eq!(b.error_bound, h.error_bound);
    }
    assert!(faulty.faults_injected() > 0, "faults actually fired");
    assert!(
        run.total_retries() > 0,
        "retries must be metered into the records"
    );
    let csv = report::to_csv(std::slice::from_ref(&run));
    assert!(
        csv.lines()
            .next()
            .expect("header")
            .contains("phi=5%_retries"),
        "retries column missing from the report CSV"
    );
    assert!(
        run.records.iter().any(|r| r.stats.io.retries > 0),
        "per-query retries visible in the CSV rows"
    );
    println!(
        "remote gate (faults): {} faults injected, {} retries metered, answers identical",
        faulty.faults_injected(),
        run.total_retries()
    );
}

/// A zipf-skewed re-exploration workload: `n` queries drawn from `bases`
/// base windows laid out across the domain, revisited with zipf(s = 1.2)
/// popularity via inverse-CDF sampling over a hand-rolled LCG (the
/// workspace carries no RNG dependency). Hot windows recur many times —
/// the analyst returning to the same regions — which is the access pattern
/// the block cache exists for.
fn zipf_workload(domain: &Rect, n: usize, bases: usize, seed: u64) -> Workload {
    let windows: Vec<Rect> = (0..bases)
        .map(|i| {
            let f = i as f64 / bases as f64;
            Workload::centered_window(domain, 0.02)
                .shifted(
                    (f - 0.5) * 0.7 * domain.width(),
                    (0.5 - f) * 0.7 * domain.height(),
                )
                .clamped_into(domain)
        })
        .collect();
    let weights: Vec<f64> = (1..=bases).map(|k| 1.0 / (k as f64).powf(1.2)).collect();
    let total: f64 = weights.iter().sum();
    let cdf: Vec<f64> = weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w / total;
            Some(*acc)
        })
        .collect();
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let queries = (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (state >> 11) as f64 / (1u64 << 53) as f64;
            let k = cdf.iter().position(|&c| u <= c).unwrap_or(bases - 1);
            WindowQuery::new(windows[k], vec![AggregateFunction::Mean(2)])
        })
        .collect();
    Workload::new("zipf-reexploration", queries)
}

/// Cache gate: three exploration sessions (fresh engine + index each) over
/// one shared block cache must stay byte-identical to the uncached
/// run while the transport shrinks — strictly fewer GETs each session, and
/// the hot third session at or below 25 % of the uncached GETs and wire
/// bytes.
#[test]
fn cache_reexploration_win() {
    let mut setup = small_setup(50_000);
    setup.workload = zipf_workload(&setup.spec.domain, 30, 12, 77);
    let store = serve(&setup, GATE_LATENCY, FaultPlan::Off);
    let open = || HttpFile::open(store.addr(), OBJECT, HttpOptions::default()).expect("open http");

    let zone = cached_zone(&setup.spec);
    let local = run_verified(&zone, &setup, 8, 1);
    let uncached = run_verified(&open(), &setup, 8, 1);
    assert_equivalent("uncached http vs local", &uncached, &local);
    assert_eq!(
        uncached.io.cache_hits + uncached.io.cache_misses,
        0,
        "an uncached run must report zero cache traffic"
    );

    // One shared cache, generous enough to hold the hot set in memory;
    // eviction is gated by the storage tests, not here.
    let cached = CachedFile::with_config(Box::new(open()), CacheConfig::new(64 << 20, 0));
    assert!(cached.is_attached(), "http backend binds the cache");
    let sessions: Vec<Outcome> = (0..3)
        .map(|_| run_verified(&cached, &setup, 8, 1))
        .collect();

    for (i, s) in sessions.iter().enumerate() {
        let label = format!("cached session {} vs uncached", i + 1);
        assert_equivalent(&label, s, &uncached);
        assert_logical_meters_equal(&label, &s.io, &uncached.io);
        assert!(
            s.requests <= uncached.requests && s.wire_bytes <= uncached.wire_bytes,
            "{label}: the cache can only remove transport"
        );
    }
    assert!(
        sessions[1].requests < sessions[0].requests && sessions[2].requests <= sessions[1].requests,
        "warm sessions must issue strictly fewer GETs than the cold one and \
         never regress (a fully warmed cache may already be at zero): {} -> {} -> {}",
        sessions[0].requests,
        sessions[1].requests,
        sessions[2].requests
    );
    let hot = &sessions[2];
    assert!(
        hot.requests * 4 <= uncached.requests,
        "hot session must stay at or below 25% of the uncached GETs: {} vs {}",
        hot.requests,
        uncached.requests
    );
    assert!(
        hot.wire_bytes * 4 <= uncached.wire_bytes,
        "hot session must stay at or below 25% of the uncached wire bytes: {} vs {}",
        hot.wire_bytes,
        uncached.wire_bytes
    );
    assert!(
        hot.io.cache_hits > 0 && sessions[0].io.cache_misses > 0,
        "the cache meters must tell the story"
    );
    println!(
        "remote gate (cache): uncached {} GETs / {} wire bytes, cached sessions \
         {} -> {} -> {} GETs ({} -> {} -> {} wire bytes), hot session at {:.1}% \
         of uncached GETs with {} hits",
        uncached.requests,
        uncached.wire_bytes,
        sessions[0].requests,
        sessions[1].requests,
        sessions[2].requests,
        sessions[0].wire_bytes,
        sessions[1].wire_bytes,
        sessions[2].wire_bytes,
        100.0 * hot.requests as f64 / uncached.requests as f64,
        hot.io.cache_hits
    );
    // The working set: what the ample cache held after its cold session.
    let working_set = sessions[0].io.cache_mem_bytes;
    assert_constrained_cache_sessions(&setup, &open, working_set);
}

/// The constrained leg of the cache gate, shaped like the repo benchmark's
/// `remote-reexplore`: the memory tier holds a quarter of the working set,
/// and each of three sessions is a fresh index build (a full streaming
/// scan) plus the zipf queries, build included in the meters. The cache
/// stays transport-only, the second session is strictly cheaper in GETs
/// than the first (the hot set survives the rebuild's scan), and the
/// sessions evict fewer pages than they fetched.
fn assert_constrained_cache_sessions(
    setup: &Fig2Setup,
    open: &dyn Fn() -> HttpFile,
    working_set: u64,
) {
    let uncached = run_session(&open(), setup, 8, 1, true);
    let budget = working_set / 4;
    let cached = CachedFile::with_config(Box::new(open()), CacheConfig::new(budget, 0));
    let sessions: Vec<Outcome> = (0..3)
        .map(|_| run_session(&cached, setup, 8, 1, true))
        .collect();
    // Running totals: an admission displaces at most the slot it takes,
    // so evictions trail the pages fetched by what the tier holds.
    let (mut evicted, mut fetched) = (0, 0);
    for (i, s) in sessions.iter().enumerate() {
        let label = format!("constrained session {} vs uncached", i + 1);
        assert_equivalent(&label, s, &uncached);
        assert_logical_meters_equal(&label, &s.io, &uncached.io);
        assert!(
            s.io.cache_mem_bytes <= budget,
            "{label}: memory tier over budget"
        );
        evicted += s.io.cache_evictions;
        fetched += s.io.cache_misses;
        assert!(
            evicted < fetched,
            "{label}: {evicted} evictions for {fetched} pages fetched so far"
        );
    }
    assert!(
        sessions[0].io.cache_evictions > 0,
        "the working set must not fit a {budget}-byte tier"
    );
    assert!(
        sessions[1].requests < sessions[0].requests,
        "session 2 must issue strictly fewer GETs than session 1: {} -> {} -> {}",
        sessions[0].requests,
        sessions[1].requests,
        sessions[2].requests
    );
    println!(
        "remote gate (cache, constrained to {budget} B of a {working_set} B working set): \
         uncached {} GETs per session, cached {} -> {} -> {} GETs, {} -> {} -> {} evictions",
        uncached.requests,
        sessions[0].requests,
        sessions[1].requests,
        sessions[2].requests,
        sessions[0].io.cache_evictions,
        sessions[1].io.cache_evictions,
        sessions[2].io.cache_evictions
    );
}
