//! `serve-ingest` — writes beside reads, through the wire.
//!
//! A `PaiServer` (two workers) over `SharedIndex<AppendableFile<ZoneFile>>`.
//! Connection A explores — a pan, φ = 0.05 — across the region the new rows
//! land in; connection B loops {ingest 1024 rows, two queries} and after
//! every 25th batch its thread calls `compact_now` (a deterministic
//! cadence, no timer thread). This is the only workload that uses the index
//! and the core under shared locks instead of single ownership and storage
//! through append / seal / compact instead of read: a reader gain bought
//! with writer cost (or the reverse), protocol and queue overhead, and
//! compaction stalls only show here.
//!
//! A pass starts from a fresh server over the sealed base file, so every
//! pass appends the same feed to the same state. Both clients are closed
//! loops; the pass ends when B has sent its last batch.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use partial_adaptive_indexing::pai_core::compact_now;
use partial_adaptive_indexing::pai_server::IngestReply;
use partial_adaptive_indexing::pai_storage::AppendableFile;
use partial_adaptive_indexing::prelude::*;

use crate::fixture::{
    self, generate, ingest_feed, pan_path, path_rng, Scratch, Win, INGEST_BATCH_ROWS,
    INGEST_CENTER, WINDOW_SIDE,
};
use crate::oracle::{self, Oracle, Reply, Truth};
use crate::probes;
use crate::tracer::{SpanId, Tracer};
use crate::workloads::{
    finish, repeat_setup, run_passes, timed_build, with_truths, IndexGauges, Outcome, PassStats,
    Query, RunOpts, Verifier, EARLY_QUERIES, MIN_INIT_SAMPLES,
};

/// Ingest batches per pass.
pub const BATCHES: usize = 400;
/// B compacts after every this many batches.
pub const COMPACT_EVERY: usize = 25;
/// Queries B sends after each batch.
pub const FEEDER_QUERIES: usize = 2;
/// Windows in A's pan; A walks them round and round until B is done.
const EXPLORER_WINDOWS: usize = 256;
const FEEDER_WINDOWS: usize = 64;
/// Sealed delta blocks that must have accumulated for a compaction to run.
const COMPACT_MIN_RUN: usize = 2;
/// Batches the append probe feeds a scratch `AppendableFile`.
const APPEND_PROBE_BATCHES: usize = 16;
const PHI: f64 = 0.05;
const AGGS: [AggregateFunction; 2] = [AggregateFunction::Count, AggregateFunction::Mean(2)];
const CROSS_CHECKS: usize = 20;

type Served = SharedIndex<AppendableFile<ZoneFile>>;

/// One client thread's samples.
#[derive(Default)]
struct ClientStats {
    rtt_ms: Vec<f64>,
    service_us: Vec<f64>,
    ingest_ack_us: Vec<f64>,
    compact_ms: Vec<f64>,
    verifier: Verifier,
}

/// A query list with, per window, its truth after every batch prefix.
struct Watched {
    queries: Vec<Query>,
    prefixes: Vec<Vec<Truth>>,
}

impl Watched {
    fn new(oracle: &Oracle, feed: &[Vec<Vec<f64>>], windows: Vec<Win>) -> Watched {
        let (queries, base) = with_truths(oracle, windows.into_iter().map(|w| (w, PHI)));
        let prefixes = queries
            .iter()
            .map(|q| oracle::prefix_truths(&base[q.truth], feed, &q.win))
            .collect();
        Watched { queries, prefixes }
    }
}

/// Sends `watched.queries[at]`, takes the latency, then verifies the reply
/// against every batch prefix it may legitimately reflect. `acked` is read
/// before the send and `sent` after the reply.
#[allow(clippy::too_many_arguments)]
fn timed_query(
    client: &mut PaiClient,
    watched: &Watched,
    at: usize,
    acked: &AtomicUsize,
    sent: &AtomicUsize,
    stats: &mut ClientStats,
    trace: Option<(&mut Tracer, Option<SpanId>)>,
    next_request: &AtomicU64,
) -> Result<f64> {
    let q = &watched.queries[at];
    let request = next_request.fetch_add(1, Ordering::Relaxed);
    let lo = acked.load(Ordering::SeqCst);
    let start = Instant::now();
    let reply = client.query(&q.rect, &AGGS, q.phi)?;
    let end = Instant::now();
    let hi = sent.load(Ordering::SeqCst);
    let ms = (end - start).as_secs_f64() * 1e3;
    let outcome = match &reply {
        ServedReply::Answer(a) => {
            stats.rtt_ms.push(ms);
            stats.service_us.push(a.server_us as f64);
            oracle::check_some_prefix(
                &AGGS,
                q.phi,
                &Reply {
                    values: &a.values,
                    cis: &a.cis,
                    error_bound: a.error_bound,
                    met_constraint: a.met_constraint,
                },
                &watched.prefixes[at],
                lo,
                hi,
            )
        }
        // A refusal misses any latency limit: it is a failed operation.
        other => Err(format!("server refused: {other:?}")),
    };
    stats
        .verifier
        .record(|| format!("served query {request} {:?}", q.win), outcome);
    if let Some((tracer, parent)) = trace {
        tracer.record("server.rtt", parent, request, start, end);
    }
    Ok(ms)
}

pub fn run(opts: &RunOpts) -> Result<Outcome> {
    let scratch = Scratch::create(&opts.out_dir)?;
    let (csv_path, zone_path) = (scratch.path("fixture.csv"), scratch.path("fixture.paizone"));
    let ((dataset, feed), setup_s) = repeat_setup(|| {
        let dataset = generate(opts.seed, fixture::ROWS);
        let csv = fixture::write_csv(&dataset, &csv_path)?;
        write_zone(&csv, &zone_path)?;
        Ok((dataset, ingest_feed(opts.seed, BATCHES)))
    })?;
    let oracle = Oracle::build(dataset.iter());
    drop(dataset);

    // A pans across the landing region; B looks straight at it.
    let mut rng = path_rng();
    let (cx, cy) = INGEST_CENTER;
    let arena = Win::centered(cx, cy, 3.0 * WINDOW_SIDE).clamped_into(&Win::DOMAIN);
    let explorer = Watched::new(
        &oracle,
        &feed,
        pan_path(
            &mut rng,
            Win::centered(cx, cy, WINDOW_SIDE),
            EXPLORER_WINDOWS,
            &arena,
        ),
    );
    let feeder = Watched::new(
        &oracle,
        &feed,
        (0..FEEDER_WINDOWS)
            .map(|_| {
                Win::centered(
                    cx + rng.range(-40.0, 40.0),
                    cy + rng.range(-40.0, 40.0),
                    WINDOW_SIDE,
                )
            })
            .collect(),
    );
    drop(oracle);

    let engine_cfg = EngineConfig::paper_evaluation();
    let mut verifier = Verifier::default();
    let mut tracer = opts.trace.then(Tracer::new);
    let layers = match tracer.as_mut() {
        Some(tracer) => {
            let base_truths: Vec<Truth> = explorer.prefixes.iter().map(|p| p[0].clone()).collect();
            let mut layers = probes::run(
                &ZoneFile::open(&zone_path)?,
                &explorer.queries,
                &base_truths,
                &AGGS,
                &engine_cfg,
                CROSS_CHECKS,
                &mut verifier,
                tracer,
            )?;
            // storage: appends (and the seals they trigger) on a scratch file.
            let scratch_file =
                AppendableFile::with_base_rows(ZoneFile::open(&zone_path)?, fixture::ROWS as u64)?;
            let start = Instant::now();
            for batch in feed.iter().take(APPEND_PROBE_BATCHES) {
                scratch_file.append_rows(batch)?;
            }
            let end = Instant::now();
            tracer.record("probe.storage.append_rows", None, 0, start, end);
            let krows = (APPEND_PROBE_BATCHES * INGEST_BATCH_ROWS) as f64 / 1e3;
            layers.metrics.set(
                "storage.append_us_per_krow",
                (end - start).as_secs_f64() * 1e6 / krows,
            );
            Some(layers)
        }
        None => None,
    };

    // Span request ids: one counter for both connections.
    let next_request = AtomicU64::new(0);
    let passes = run_passes(opts, MIN_INIT_SAMPLES, &mut tracer, |mut tracer| {
        let mut pass = PassStats::default();
        let origin = tracer.as_deref().map(Tracer::origin);
        let request = next_request.load(Ordering::Relaxed);
        let span = tracer.as_deref_mut().map(|t| t.open("pass", None, request));

        let file =
            AppendableFile::with_base_rows(ZoneFile::open(&zone_path)?, fixture::ROWS as u64)?;
        let pass_start = Instant::now();
        let (index, init_s) = timed_build(&file, tracer.as_deref_mut(), span, request)?;
        let shared: Arc<Served> = Arc::new(SharedIndex::new(index, file, engine_cfg.clone())?);
        let mut server = PaiServer::serve(
            Arc::clone(&shared) as Arc<dyn ServeEngine>,
            ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            },
        )?;
        let (sent, acked) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let done = AtomicBool::new(false);

        // The early leg: A alone on the fresh index.
        let mut a = PaiClient::connect(server.addr(), "explorer")?;
        // Its latencies are early samples, not timed-phase ones: only the
        // verdicts of this leg's stats are kept.
        let mut early = ClientStats::default();
        for i in 0..EARLY_QUERIES {
            let ms = timed_query(
                &mut a,
                &explorer,
                i,
                &acked,
                &sent,
                &mut early,
                tracer.as_deref_mut().map(|t| (t, span)),
                &next_request,
            )?;
            if i == 0 {
                // Build, server start, connect and the first answer.
                pass.init_s.push(init_s);
                pass.ttfa_ms.push(pass_start.elapsed().as_secs_f64() * 1e3);
            }
            pass.early_ms.push(ms);
        }
        verifier.absorb(early.verifier);
        let mut b = PaiClient::connect(server.addr(), "feeder")?;

        // The timed phase: A and B, one thread each, until B is through.
        let phase = Instant::now();
        let (a_out, b_out) = std::thread::scope(|s| {
            let a_thread = s.spawn(|| -> Result<(ClientStats, Option<Tracer>)> {
                let mut stats = ClientStats::default();
                let mut tracer = origin.map(Tracer::with_origin);
                let mut i = EARLY_QUERIES;
                while !done.load(Ordering::SeqCst) {
                    timed_query(
                        &mut a,
                        &explorer,
                        i % explorer.queries.len(),
                        &acked,
                        &sent,
                        &mut stats,
                        tracer.as_mut().map(|t| (t, None)),
                        &next_request,
                    )?;
                    i += 1;
                }
                Ok((stats, tracer))
            });
            let b_thread = s.spawn(|| -> Result<(ClientStats, Option<Tracer>)> {
                let mut stats = ClientStats::default();
                let mut tracer = origin.map(Tracer::with_origin);
                let run = (|| -> Result<()> {
                    for (n, batch) in feed.iter().enumerate() {
                        sent.fetch_add(1, Ordering::SeqCst);
                        let start = Instant::now();
                        let reply = b.ingest(batch)?;
                        let end = Instant::now();
                        let outcome = match reply {
                            IngestReply::Applied(ack) if ack.rows == batch.len() as u64 => {
                                stats.ingest_ack_us.push(ack.server_us as f64);
                                Ok(())
                            }
                            other => Err(format!("ingest not applied: {other:?}")),
                        };
                        stats
                            .verifier
                            .record(|| format!("ingest batch {n}"), outcome);
                        acked.fetch_add(1, Ordering::SeqCst);
                        if let Some(t) = tracer.as_mut() {
                            t.record("server.ingest", None, n as u64, start, end);
                        }
                        for j in 0..FEEDER_QUERIES {
                            let k = n * FEEDER_QUERIES + j;
                            timed_query(
                                &mut b,
                                &feeder,
                                k % feeder.queries.len(),
                                &acked,
                                &sent,
                                &mut stats,
                                tracer.as_mut().map(|t| (t, None)),
                                &next_request,
                            )?;
                        }
                        if (n + 1) % COMPACT_EVERY == 0 {
                            let start = Instant::now();
                            compact_now(&shared, COMPACT_MIN_RUN)?;
                            let end = Instant::now();
                            stats.compact_ms.push((end - start).as_secs_f64() * 1e3);
                            if let Some(t) = tracer.as_mut() {
                                t.record("storage.compact", None, n as u64, start, end);
                            }
                        }
                    }
                    Ok(())
                })();
                // Whatever happened, release A.
                done.store(true, Ordering::SeqCst);
                run.map(|()| (stats, tracer))
            });
            (
                a_thread.join().expect("explorer thread panicked"),
                b_thread.join().expect("feeder thread panicked"),
            )
        });
        pass.busy_s = phase.elapsed().as_secs_f64();
        for (stats, thread_tracer) in [a_out?, b_out?] {
            pass.query_ms.extend(stats.rtt_ms);
            pass.service_us.extend(stats.service_us);
            pass.ingest_ack_us.extend(stats.ingest_ack_us);
            pass.compact_ms.extend(stats.compact_ms);
            verifier.absorb(stats.verifier);
            if let (Some(t), Some(theirs)) = (tracer.as_deref_mut(), thread_tracer) {
                t.absorb(theirs);
            }
        }
        pass.unprobed = (pass.query_ms.len() as u64, pass.busy_s);
        pass.ingested_rows = (BATCHES * INGEST_BATCH_ROWS) as u64;
        pass.server = Some(server.stats());
        server.shutdown();
        pass.index.push(shared.with_index(IndexGauges::of));
        if let (Some(t), Some(span)) = (tracer, span) {
            pass.classify_warm_us
                .push(shared.with_index(|ix| probes::classify_us(ix, &explorer.queries)));
            t.close(span);
        }
        pass.io = shared.file().counters().snapshot();
        Ok(pass)
    })?;

    let log = vec![format!(
        "serve-ingest: rows={} workers=2 batches/pass={BATCHES} rows/batch={INGEST_BATCH_ROWS} \
         queries/batch={FEEDER_QUERIES} compact_every={COMPACT_EVERY} phi={PHI}",
        fixture::ROWS
    )];
    finish(setup_s, passes, verifier, tracer, layers, log)
}
