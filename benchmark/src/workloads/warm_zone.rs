//! `warm-zone` — steady state on a local PaiZone v2 file.
//!
//! Linked-view re-querying of an already-adapted area: the index is built
//! once and pre-refined (untimed, exact) over four regions; the timed list
//! then zooms, pans and jumps inside those regions asking five aggregates
//! with φ cycling 0.05 / 0.01 / 0 (8 : 1 : 1), synopses on. `index.classify`
//! and the core's state / CI / policy / synopsis code do most of the work
//! and storage does little, so a decode or fetch optimisation should show
//! **no** change here and a classify or CI one should.
//!
//! Each pass also builds one fresh index and asks the list's first ten
//! queries of it: that is where this workload's `init_s`, `ttfa_ms` and
//! `early_p50_ms` come from (those queries are not timed queries).

use partial_adaptive_indexing::prelude::*;

use crate::fixture::{self, cluster_centers, generate, path_rng, Scratch, Win, WINDOW_SIDE};
use crate::oracle::Oracle;
use crate::probes;
use crate::rng::Rng;
use crate::tracer::Tracer;
use crate::workloads::{
    finish, repeat_setup, run_passes, with_truths, Outcome, Pass, RunOpts, SessionKind, Verifier,
    EARLY_QUERIES, MIN_INIT_SAMPLES,
};

/// Timed queries per pass.
pub const QUERIES: usize = 4000;
/// Distinct views the timed list keeps returning to.
pub const VIEWS: usize = 300;
/// Regions the analyst keeps returning to.
pub const REGIONS: usize = 4;
const REGION_SIDE: f64 = 300.0;
const MIN_SIDE: f64 = 50.0;
const AGGS: [AggregateFunction; 5] = [
    AggregateFunction::Count,
    AggregateFunction::Mean(2),
    AggregateFunction::Sum(3),
    AggregateFunction::Min(4),
    AggregateFunction::Max(4),
];
const CROSS_CHECKS: usize = 20;

fn regions() -> Vec<Win> {
    cluster_centers()
        .iter()
        .take(REGIONS)
        .map(|&(cx, cy)| Win::centered(cx, cy, REGION_SIDE).clamped_into(&Win::DOMAIN))
        .collect()
}

/// φ of the `i`-th timed query: 0.05, 0.01 and 0 in proportion 8 : 1 : 1.
fn phi_of(i: usize) -> f64 {
    match i % 10 {
        8 => 0.01,
        9 => 0.0,
        _ => 0.05,
    }
}

/// The views the analyst has open: a zoom / pan / jump walk inside the
/// regions — 70 % pans of 10–20 %, 20 % zooms by ×0.7 or ×1/0.7 around the
/// centre, 10 % jumps to another region. Set-up refines the index exactly
/// over every one of them.
fn views(rng: &mut Rng) -> Vec<Win> {
    let regions = regions();
    let mut region = 0usize;
    let (cx, cy) = regions[0].center();
    let mut w = Win::centered(cx, cy, WINDOW_SIDE);
    (0..VIEWS)
        .map(|_| {
            let here = w;
            let u = rng.unit();
            w = if u < 0.7 {
                let frac = rng.range(0.10, 0.20);
                let angle = rng.range(0.0, std::f64::consts::TAU);
                w.shifted(
                    angle.cos() * frac * w.width(),
                    angle.sin() * frac * w.height(),
                )
            } else if u < 0.9 {
                let factor = if rng.unit() < 0.5 { 0.7 } else { 1.0 / 0.7 };
                let side = (w.width() * factor).clamp(MIN_SIDE, WINDOW_SIDE);
                let (cx, cy) = w.center();
                Win::centered(cx, cy, side)
            } else {
                region = rng.below(REGIONS);
                fresh_window(rng, &regions[region])
            }
            .clamped_into(&regions[region]);
            here
        })
        .collect()
}

fn fresh_window(rng: &mut Rng, region: &Win) -> Win {
    Win::centered(
        rng.range(region.x0, region.x1),
        rng.range(region.y0, region.y1),
        WINDOW_SIDE,
    )
    .clamped_into(region)
}

/// The timed list: the analyst steps back and forth through the open views
/// (89.5 %), switches to a random one (10 %), or — once in 200 — opens a
/// window not seen before: the only queries that still find tiles to split,
/// each some hundred times the cost of a re-query.
fn timed_list(rng: &mut Rng, views: &[Win]) -> Vec<(Win, f64)> {
    let regions = regions();
    let mut at = 0usize;
    (0..QUERIES)
        .map(|i| {
            let u = rng.unit();
            let w = if u < 0.005 {
                let region = rng.below(REGIONS);
                fresh_window(rng, &regions[region])
            } else {
                at = if u < 0.105 {
                    rng.below(views.len())
                } else if rng.unit() < 0.5 {
                    at.saturating_sub(1)
                } else {
                    (at + 1).min(views.len() - 1)
                };
                views[at]
            };
            (w, phi_of(i))
        })
        .collect()
}

pub fn run(opts: &RunOpts) -> Result<Outcome> {
    let scratch = Scratch::create(&opts.out_dir)?;
    let (csv_path, zone_path) = (scratch.path("fixture.csv"), scratch.path("fixture.paizone"));
    let engine_cfg = EngineConfig::paper_evaluation().with_synopsis();
    let mut rng = path_rng();
    let views = views(&mut rng);
    let ((dataset, zone, prerefined), setup_s) = repeat_setup(|| {
        let dataset = generate(opts.seed, fixture::ROWS);
        let csv = fixture::write_csv(&dataset, &csv_path)?;
        let zone = write_zone(&csv, &zone_path)?;
        let (index, _) = build(&zone, &fixture::init_config())?;
        let mut engine = ApproximateEngine::new(index, &zone, engine_cfg.clone())?;
        // Twice: the first sweep's later views split tiles that earlier
        // views contain, leaving those with inherited (inexact) metadata.
        for w in views.iter().chain(&views) {
            engine.evaluate(&w.rect(), &AGGS, 0.0)?;
        }
        let prerefined = engine.into_index();
        Ok((dataset, zone, prerefined))
    })?;
    let oracle = Oracle::build(dataset.iter());
    drop(dataset);
    let (queries, truths) = with_truths(&oracle, timed_list(&mut rng, &views));
    drop(oracle);
    // Fresh counters for the measured phase: set-up I/O is not the
    // workload's.
    let zone_bytes = zone.size_bytes();
    drop(zone);
    let zone = ZoneFile::open_mapped(&zone_path)?;

    let mut verifier = Verifier::default();
    let mut tracer = opts.trace.then(Tracer::new);
    let layers = tracer
        .as_mut()
        .map(|tracer| {
            probes::run(
                &ZoneFile::open_mapped(&zone_path)?,
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
    let passes = run_passes(opts, MIN_INIT_SAMPLES, &mut tracer, |tracer| {
        let io0 = zone.counters().snapshot();
        let mut pass = Pass::begin(&AGGS, &truths, &mut verifier, tracer, &mut request);
        // The cold leg: a fresh index and the first ten queries.
        pass.cold_session(
            &zone,
            &engine_cfg,
            &queries[..EARLY_QUERIES],
            SessionKind::ColdEarlyOnly,
        )?;
        // The warm leg: every pass starts from the same pre-refined index.
        let mut warm = ApproximateEngine::new(prerefined.clone(), &zone, engine_cfg.clone())?;
        pass.run_session(&mut warm, &zone, &queries, SessionKind::Warm)?;
        pass.note_index(warm.index(), &queries);
        Ok(pass.end(zone.counters().snapshot().since(&io0)))
    })?;

    let log = vec![format!(
        "warm-zone: rows={} zone_mb={:.1} regions={REGIONS} views={VIEWS} queries/pass={QUERIES} phi=0.05/0.01/0 (8:1:1)",
        fixture::ROWS,
        zone_bytes as f64 / 1e6
    )];
    finish(setup_s, passes, verifier, tracer, layers, log)
}
