//! `cold-csv` — the paper's Figure 2, in situ.
//!
//! Cold sessions over the raw CSV: each builds the crude index from the
//! on-disk text file, then pans a 2 % window through a dense cluster in
//! 10–20 % shifts asking for `mean(col2)` within φ = 0.05. Initial queries
//! over dense regions of a raw text file are what the paper's method
//! exists for: CSV scan/parse at build, seek+parse `read_rows` and tile
//! splits while adapting dominate; zone decode, remote transport, cache,
//! server and delta blocks do nothing here.

use partial_adaptive_indexing::prelude::*;

use crate::fixture::{
    self, cluster_centers, generate, pan_path, path_rng, Scratch, Win, WINDOW_SIDE,
};
use crate::oracle::Oracle;
use crate::probes;
use crate::tracer::Tracer;
use crate::workloads::{
    finish, repeat_setup, run_passes, with_truths, Outcome, Pass, RunOpts, SessionKind, Verifier,
};

/// Cold sessions per pass.
pub const SESSIONS: usize = 8;
/// Queries per session.
pub const QUERIES: usize = 200;
const PHI: f64 = 0.05;
/// Side of the box a session's pan stays in, in windows.
const ARENA_WINDOWS: f64 = 2.0;
const AGGS: [AggregateFunction; 1] = [AggregateFunction::Mean(2)];
/// Oracle cross-checks in the traced run: each is a full CSV scan.
const CROSS_CHECKS: usize = 4;

pub fn run(opts: &RunOpts) -> Result<Outcome> {
    let scratch = Scratch::create(&opts.out_dir)?;
    let csv_path = scratch.path("fixture.csv");
    let ((dataset, csv), setup_s) = repeat_setup(|| {
        let dataset = generate(opts.seed, fixture::ROWS);
        let csv = fixture::write_csv(&dataset, &csv_path)?;
        Ok((dataset, csv))
    })?;
    let oracle = Oracle::build(dataset.iter());
    drop(dataset);

    // One pan per session, each starting inside a cluster's dense core and
    // staying with that cluster (an arena of 2 × 2 windows around it).
    let mut rng = path_rng();
    let centers = cluster_centers();
    let (queries, truths) = with_truths(
        &oracle,
        (0..SESSIONS).flat_map(|s| {
            let (cx, cy) = centers[s % centers.len()];
            let arena =
                Win::centered(cx, cy, ARENA_WINDOWS * WINDOW_SIDE).clamped_into(&Win::DOMAIN);
            let start = Win::centered(
                cx + rng.range(-25.0, 25.0),
                cy + rng.range(-25.0, 25.0),
                WINDOW_SIDE,
            );
            pan_path(&mut rng, start, QUERIES, &arena)
                .into_iter()
                .map(|w| (w, PHI))
                .collect::<Vec<_>>()
        }),
    );
    drop(oracle);

    let engine_cfg = EngineConfig::paper_evaluation();
    let mut verifier = Verifier::default();
    let mut tracer = opts.trace.then(Tracer::new);
    let layers = tracer
        .as_mut()
        .map(|tracer| {
            probes::run(
                &CsvFile::open(&csv_path, csv.schema().clone(), CsvFormat::default())?,
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
        let io0 = csv.counters().snapshot();
        let mut pass = Pass::begin(&AGGS, &truths, &mut verifier, tracer, &mut request);
        for session in queries.chunks(QUERIES) {
            let engine = pass.cold_session(&csv, &engine_cfg, session, SessionKind::Cold)?;
            pass.note_index(engine.index(), session);
        }
        Ok(pass.end(csv.counters().snapshot().since(&io0)))
    })?;

    let log = vec![format!(
        "cold-csv: rows={} csv_mb={:.1} sessions/pass={SESSIONS} queries/session={QUERIES} phi={PHI}",
        fixture::ROWS,
        csv.size_bytes() as f64 / 1e6
    )];
    finish(setup_s, passes, verifier, tracer, layers, log)
}
