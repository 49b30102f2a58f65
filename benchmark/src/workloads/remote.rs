//! `remote-reexplore` — very large files on commodity links.
//!
//! The PaiZone image sits behind the in-process object store with 500 µs
//! injected per request. One pass is three back-to-back sessions — each a
//! fresh index over the same `HttpFile` (coalescing on, 64 KiB parts, two
//! fetch workers) under one shared `BlockCache` whose memory tier holds
//! about a quarter of what a session touches — each asking the same 360
//! windows, zipf-skewed over eight regions, within
//! φ = 0.05 (`adapt_batch = 8`, `fetch_workers = 2`, synopses on). Ranged-GET
//! coalescing, the cache tiers (working set > memory tier), the core's
//! fetch-pipeline overlap and zone decode dominate; CSV parsing and the
//! server are bypassed. Session 1 against sessions 2–3 separates cold- from
//! warm-cache behaviour.

use std::sync::Arc;
use std::time::Duration;

use partial_adaptive_indexing::prelude::*;

use crate::fixture::{self, cluster_centers, generate, path_rng, Scratch, Win, Zipf, WINDOW_SIDE};
use crate::oracle::Oracle;
use crate::probes;
use crate::rng::Rng;
use crate::tracer::Tracer;
use crate::workloads::{
    finish, repeat_setup, run_passes, with_truths, Outcome, Pass, RunOpts, SessionKind, Verifier,
};

/// Sessions per pass: one cold-cache, two warm.
pub const SESSIONS: usize = 3;
/// Queries per session.
pub const QUERIES: usize = 360;
/// Regions the zipf draw ranks, hottest first.
pub const REGIONS: usize = 8;
const PHI: f64 = 0.05;
const AGGS: [AggregateFunction; 2] = [AggregateFunction::Count, AggregateFunction::Mean(2)];
const GET_LATENCY: Duration = Duration::from_micros(500);
const PART_BYTES: u64 = 64 * 1024;
/// Memory tier: about a quarter of the ≈ 21 MB one session's queries move
/// over the wire, so the working set does not fit.
const CACHE_MEM_BYTES: u64 = 5_000_000;
/// No spill tier. The issue asked for a 4× disk spill; with any spill budget
/// the cache keeps tens of thousands of sub-kilobyte spans as one file each,
/// every build and query churns them, and a single pass takes ≈ 80 s here
/// (builds 6–17 s instead of 0.8 s) — beyond the driver's per-run budget.
/// Measured and recorded in the README; the tier stays off until a run fits
/// (and then needs `with_spill_dir` under the run's scratch directory).
const CACHE_DISK_BYTES: u64 = 0;
const OBJECT: &str = "fixture.paizone";
const CROSS_CHECKS: usize = 20;

/// The five cluster cores, then three spots in the uniform background.
fn region_centers() -> [(f64, f64); REGIONS] {
    let c = cluster_centers();
    [
        c[0],
        c[1],
        c[2],
        c[3],
        c[4],
        (150.0, 850.0),
        (850.0, 850.0),
        (450.0, 150.0),
    ]
}

/// One session's windows: a zipf-ranked region, jittered by up to ±30 % of
/// the window side so revisits overlap without repeating exactly.
fn session_windows(rng: &mut Rng) -> Vec<(Win, f64)> {
    let zipf = Zipf::new(REGIONS);
    let centers = region_centers();
    (0..QUERIES)
        .map(|_| {
            let (cx, cy) = centers[zipf.sample(rng)];
            let jitter = 0.3 * WINDOW_SIDE;
            let w = Win::centered(
                cx + rng.range(-jitter, jitter),
                cy + rng.range(-jitter, jitter),
                WINDOW_SIDE,
            )
            .clamped_into(&Win::DOMAIN);
            (w, PHI)
        })
        .collect()
}

pub fn run(opts: &RunOpts) -> Result<Outcome> {
    let scratch = Scratch::create(&opts.out_dir)?;
    let (csv_path, zone_path) = (scratch.path("fixture.csv"), scratch.path("fixture.paizone"));
    let ((dataset, store, image_bytes), setup_s) = repeat_setup(|| {
        let dataset = generate(opts.seed, fixture::ROWS);
        let csv = fixture::write_csv(&dataset, &csv_path)?;
        write_zone(&csv, &zone_path)?;
        let image = std::fs::read(&zone_path)?;
        let image_bytes = image.len();
        let store = ObjectStore::serve_with(GET_LATENCY, FaultPlan::Off)?;
        store.put(OBJECT, image);
        Ok((dataset, store, image_bytes))
    })?;
    let oracle = Oracle::build(dataset.iter());
    drop(dataset);
    let mut rng = path_rng();
    let (queries, truths) = with_truths(&oracle, session_windows(&mut rng));
    drop(oracle);

    let engine_cfg = EngineConfig {
        adapt_batch: 8,
        fetch_workers: 2,
        ..EngineConfig::paper_evaluation().with_synopsis()
    };
    let http = || {
        HttpFile::open(
            store.addr(),
            OBJECT,
            HttpOptions::with_part_bytes(PART_BYTES).with_fetch_workers(2),
        )
    };
    let mut verifier = Verifier::default();
    let mut tracer = opts.trace.then(Tracer::new);
    let layers = tracer
        .as_mut()
        .map(|tracer| {
            probes::run(
                &http()?,
                &queries,
                &truths,
                &AGGS,
                &engine_cfg,
                CROSS_CHECKS,
                &mut verifier,
                tracer,
            )
        })
        .transpose()?;

    let mut request = 0u64;
    let passes = run_passes(opts, 1, &mut tracer, |tracer| {
        // One cache and one handle per pass, so the handle's counters are the
        // pass's totals.
        let cache = Arc::new(BlockCache::new(CacheConfig::new(
            CACHE_MEM_BYTES,
            CACHE_DISK_BYTES,
        )));
        let file = CachedFile::new(Box::new(http()?), cache);
        let mut pass = Pass::begin(&AGGS, &truths, &mut verifier, tracer, &mut request);
        let mut before = file.counters().snapshot();
        for _ in 0..SESSIONS {
            let engine = pass.cold_session(&file, &engine_cfg, &queries, SessionKind::Cold)?;
            pass.note_index(engine.index(), &queries);
            let now = file.counters().snapshot();
            pass.stats.session_io.push(now.since(&before));
            before = now;
        }
        Ok(pass.end(file.counters().snapshot()))
    })?;

    let log = vec![
        format!(
            "remote-reexplore: rows={} image_mb={:.1} get_latency_us={} part_kb={} cache_mem_mb={:.1} cache_disk_mb={:.1}",
            fixture::ROWS,
            image_bytes as f64 / 1e6,
            GET_LATENCY.as_micros(),
            PART_BYTES / 1024,
            CACHE_MEM_BYTES as f64 / 1e6,
            CACHE_DISK_BYTES as f64 / 1e6
        ),
        format!(
            "sessions/pass={SESSIONS} queries/session={QUERIES} regions={REGIONS} phi={PHI} store_requests={}",
            store.requests_served()
        ),
    ];
    finish(setup_s, passes, verifier, tracer, layers, log)
}
