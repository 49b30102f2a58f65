//! What the four workloads share: run options, per-pass samples, the
//! library-side timed query loop with its verification and probes, and the
//! reduction of passes to the declared metrics.
//!
//! Every workload has the same skeleton. *Set-up* (timed as `setup_s`,
//! repeated [`SETUP_REPS`] times, median reported) builds everything an
//! analyst does not pay per session. The *measured phase* then repeats a
//! fixed list of operations — a **pass**, always from the same starting
//! state, so passes do equal work and the deterministic meters repeat
//! exactly — until `--seconds` have elapsed. A run reports the median over
//! its passes of each pass's p50, p99, throughput and counters.

use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use partial_adaptive_indexing::prelude::*;

use crate::fixture::Win;
use crate::metrics::{MetricSet, END_TO_END};
use crate::oracle::{self, Reply, Truth};
use crate::probes::Layers;
use crate::stats::{median, median_of_position_medians, median_or_zero, Summary};
use crate::tracer::{SpanId, Tracer};

pub mod cold_csv;
pub mod remote;
pub mod serve_ingest;
pub mod warm_zone;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Queries 1–N of a session on a fresh index are the paper's "initial
/// queries" (`early_p50_ms`).
pub const EARLY_QUERIES: usize = 10;
/// In a traced pass every N-th query is preceded by the read-only probes
/// (`estimate`, `classify`, `predict_query_io`); the others run untouched.
/// N is coprime with `warm-zone`'s φ cycle of 10, so every φ gets probed.
const PROBE_EVERY: usize = 3;
/// Fewer builds than this cannot carry a median `init_s`.
pub const MIN_INIT_SAMPLES: usize = 3;

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct RunOpts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out_dir: PathBuf,
}

/// What one run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The metric set the mode asks for: end-to-end untraced, per-layer
    /// traced.
    pub metrics: MetricSet,
    pub tracer: Option<Tracer>,
    /// Human-readable lines for the run log (sample counts, op counts).
    pub log: Vec<String>,
}

/// Counts attempted and failed operations; keeps the first few reasons.
#[derive(Debug, Default)]
pub struct Verifier {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Verifier {
    pub fn record(
        &mut self,
        what: impl FnOnce() -> String,
        outcome: std::result::Result<(), String>,
    ) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.reasons.len() < 8 {
                self.reasons.push(format!("{}: {e}", what()));
            }
        }
    }

    pub fn absorb(&mut self, other: Verifier) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.reasons.extend(other.reasons);
        self.reasons.truncate(8);
    }
}

/// One query of a workload's fixed list.
#[derive(Debug, Clone, Copy)]
pub struct Query {
    pub win: Win,
    pub rect: Rect,
    /// Index of the window's truth in the workload's truth table.
    pub truth: usize,
    pub phi: f64,
}

/// Builds the query list and its truth table in one go.
pub fn with_truths(
    oracle: &oracle::Oracle,
    specs: impl IntoIterator<Item = (Win, f64)>,
) -> (Vec<Query>, Vec<Truth>) {
    let mut truths = Vec::new();
    let queries = specs
        .into_iter()
        .map(|(win, phi)| {
            truths.push(oracle.truth(&win));
            Query {
                win,
                rect: win.rect(),
                truth: truths.len() - 1,
                phi,
            }
        })
        .collect();
    (queries, truths)
}

/// Everything one pass measured. Vectors a workload does not feed stay
/// empty and reduce to 0.
#[derive(Debug, Default)]
pub struct PassStats {
    pub traced: bool,
    /// `VmHWM` of the process when the pass ended (MB).
    pub rss_hwm_mb: f64,
    /// `build` wall times (s).
    pub init_s: Vec<f64>,
    /// build + first answer within φ (ms).
    pub ttfa_ms: Vec<f64>,
    /// Latencies of queries 1–10 on a fresh index (ms).
    pub early_ms: Vec<f64>,
    /// Latencies of every timed query (ms).
    pub query_ms: Vec<f64>,
    /// Timed-phase wall time the queries above took (s): the sum of their
    /// latencies on one-client workloads, the phase's wall clock with two.
    pub busy_s: f64,
    /// Count and summed latency (s) of the timed queries at positions a
    /// traced pass leaves unprobed — the like-for-like sample that the
    /// tracing overhead compares between traced and untraced passes.
    pub unprobed: (u64, f64),
    /// File-counter delta over the pass: timed queries + their builds.
    pub io: IoSnapshot,
    /// Per-session deltas (remote workload: cold vs warm cache).
    pub session_io: Vec<IoSnapshot>,
    /// End-of-session index gauges, one entry per session.
    pub index: Vec<IndexGauges>,
    /// Median `classify` time on an end-of-session index (traced passes).
    pub classify_warm_us: Vec<f64>,
    /// Σ `QueryStats` over timed queries: full, partial, processed, split,
    /// enriched.
    pub tiles: [u64; 5],
    pub meta_only: u64,
    pub synopsis_hits: u64,
    /// `error_bound ÷ φ` of φ > 0 answers.
    pub bound_slack: Vec<f64>,
    /// Probed queries (traced passes): paired samples, µs.
    pub probed_estimate_us: Vec<f64>,
    pub probed_classify_us: Vec<f64>,
    pub probed_evaluate_us: Vec<f64>,
    pub predict_us: Vec<f64>,
    /// `predict_query_io` bytes ÷ bytes the query then read.
    pub predict_ratio: Vec<f64>,
    /// Served workload: `ServedAnswer.server_us` paired with `query_ms`.
    pub service_us: Vec<f64>,
    /// `IngestAck.server_us` per batch.
    pub ingest_ack_us: Vec<f64>,
    pub ingested_rows: u64,
    pub compact_ms: Vec<f64>,
    pub server: Option<ServerStats>,
}

impl PassStats {
    fn unprobed_qps(&self) -> f64 {
        self.unprobed.0 as f64 / self.unprobed.1
    }
}

/// What a session's queries feed besides the pooled samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionKind {
    /// Fresh index: queries 1–10 are "early" and the first is the TTFA
    /// tail; all are timed queries.
    Cold,
    /// Fresh index, but only the early/TTFA samples are wanted (the
    /// workload's timed queries run on another, warmed index).
    ColdEarlyOnly,
    /// Already-adapted index: timed queries only.
    Warm,
}

/// One pass of a library-side workload: where its samples, spans and
/// verdicts go while it runs.
pub struct Pass<'a> {
    pub stats: PassStats,
    aggs: &'a [AggregateFunction],
    truths: &'a [Truth],
    verifier: &'a mut Verifier,
    tracer: Option<&'a mut Tracer>,
    span: Option<SpanId>,
    /// Ordinal of the next query (the span request id), kept across passes.
    request: &'a mut u64,
}

impl<'a> Pass<'a> {
    /// Starts a pass (and its `pass` span when traced).
    pub fn begin(
        aggs: &'a [AggregateFunction],
        truths: &'a [Truth],
        verifier: &'a mut Verifier,
        mut tracer: Option<&'a mut Tracer>,
        request: &'a mut u64,
    ) -> Pass<'a> {
        let span = tracer
            .as_deref_mut()
            .map(|t| t.open("pass", None, *request));
        Pass {
            stats: PassStats::default(),
            aggs,
            truths,
            verifier,
            tracer,
            span,
            request,
        }
    }

    /// Ends the pass; `io` is the file-counter delta it caused.
    pub fn end(self, io: IoSnapshot) -> PassStats {
        if let (Some(t), Some(span)) = (self.tracer, self.span) {
            t.close(span);
        }
        PassStats { io, ..self.stats }
    }

    /// A session on a fresh index: builds it over `file` (an `init_s` sample,
    /// traced as `index.build`), runs `queries`, and records the TTFA. Returns
    /// the engine for its end-of-session index.
    pub fn cold_session<'f>(
        &mut self,
        file: &'f dyn RawFile,
        config: &EngineConfig,
        queries: &[Query],
        kind: SessionKind,
    ) -> Result<ApproximateEngine<'f>> {
        let (index, init_s) =
            timed_build(file, self.tracer.as_deref_mut(), self.span, *self.request)?;
        let mut engine = ApproximateEngine::new(index, file, config.clone())?;
        let first_ms = self.run_session(&mut engine, file, queries, kind)?;
        self.stats.init_s.push(init_s);
        self.stats.ttfa_ms.push(init_s * 1e3 + first_ms);
        Ok(engine)
    }

    /// Records an end-of-session index: its gauges and, when traced, what
    /// `classify` costs on it over the probe windows of `queries`.
    pub fn note_index(&mut self, index: &ValinorIndex, queries: &[Query]) {
        self.stats.index.push(IndexGauges::of(index));
        if self.tracer.is_some() {
            self.stats
                .classify_warm_us
                .push(crate::probes::classify_us(index, queries));
        }
    }

    /// Runs `queries` through `engine`, closed loop, one at a time. Each
    /// latency is taken first, then the answer is verified against the
    /// oracle. Returns the first query's latency (ms).
    pub fn run_session(
        &mut self,
        engine: &mut ApproximateEngine<'_>,
        file: &dyn RawFile,
        queries: &[Query],
        kind: SessionKind,
    ) -> Result<f64> {
        let pass = &mut self.stats;
        let mut first_ms = 0.0;
        for (i, q) in queries.iter().enumerate() {
            let request = *self.request;
            *self.request += 1;
            let probe = self.tracer.is_some() && i % PROBE_EVERY == 0;
            let mut probes = None;
            if probe {
                // Read-only entry points on the state `evaluate` is about to
                // see; none of them touches the file or the index.
                let t0 = Instant::now();
                black_box(engine.estimate(&q.rect, self.aggs)?);
                let t1 = Instant::now();
                black_box(engine.index().classify(&q.rect));
                let t2 = Instant::now();
                let predicted =
                    predict_query_io(engine.index(), file, &q.rect, self.aggs, engine.config())?;
                let t3 = Instant::now();
                probes = Some((t0, t1, t2, t3, predicted));
            }
            let start = Instant::now();
            let res = engine.evaluate(&q.rect, self.aggs, q.phi)?;
            let end = Instant::now();
            let ms = (end - start).as_secs_f64() * 1e3;

            if i == 0 {
                first_ms = ms;
            }
            if kind != SessionKind::Warm && i < EARLY_QUERIES {
                pass.early_ms.push(ms);
            }
            if kind != SessionKind::ColdEarlyOnly {
                pass.query_ms.push(ms);
                pass.busy_s += ms / 1e3;
                if i % PROBE_EVERY != 0 {
                    pass.unprobed.0 += 1;
                    pass.unprobed.1 += ms / 1e3;
                }
                let s = &res.stats;
                for (sum, v) in pass.tiles.iter_mut().zip([
                    s.tiles_full,
                    s.tiles_partial,
                    s.tiles_processed,
                    s.tiles_split,
                    s.tiles_enriched,
                ]) {
                    *sum += v as u64;
                }
                pass.meta_only += u64::from(s.tiles_processed == 0);
                pass.synopsis_hits += s.io.synopsis_hits;
                if q.phi > 0.0 {
                    pass.bound_slack.push(res.error_bound / q.phi);
                }
            }
            self.verifier.record(
                || format!("query {request} {:?} phi={}", q.win, q.phi),
                oracle::check(
                    self.aggs,
                    q.phi,
                    &Reply {
                        values: &res.values,
                        cis: &res.cis,
                        error_bound: res.error_bound,
                        met_constraint: res.met_constraint,
                    },
                    &self.truths[q.truth],
                ),
            );

            if let Some(tracer) = self.tracer.as_deref_mut() {
                let span_start = probes.as_ref().map_or(start, |p| p.0);
                let query = tracer.record("query", self.span, request, span_start, end);
                // A probed query's `evaluate` runs on caches its probes just
                // warmed, so it is kept out of the `core.evaluate`
                // distribution.
                let name = if probe {
                    "core.evaluate.probed"
                } else {
                    "core.evaluate"
                };
                tracer.record(name, Some(query), request, start, end);
                if let Some((t0, t1, t2, t3, predicted)) = probes {
                    tracer.record("probe.estimate", Some(query), request, t0, t1);
                    tracer.record("probe.classify", Some(query), request, t1, t2);
                    tracer.record("probe.predict", Some(query), request, t2, t3);
                    let us = |d: Duration| d.as_secs_f64() * 1e6;
                    pass.probed_estimate_us.push(us(t1 - t0));
                    pass.probed_classify_us.push(us(t2 - t1));
                    pass.predict_us.push(us(t3 - t2));
                    pass.probed_evaluate_us.push(ms * 1e3);
                    if res.stats.io.bytes_read > 0 {
                        pass.predict_ratio
                            .push(predicted.bytes as f64 / res.stats.io.bytes_read as f64);
                    }
                }
            }
        }
        Ok(first_ms)
    }
}

/// Builds the crude index over `file`, timing it for `init_s` and tracing it
/// as `index.build`. Returns the index and the wall time (s).
pub fn timed_build(
    file: &dyn RawFile,
    tracer: Option<&mut Tracer>,
    parent: Option<SpanId>,
    request: u64,
) -> Result<(ValinorIndex, f64)> {
    let start = Instant::now();
    let (index, _) = build(file, &crate::fixture::init_config())?;
    let end = Instant::now();
    if let Some(t) = tracer {
        t.record("index.build", parent, request, start, end);
    }
    Ok((index, (end - start).as_secs_f64()))
}

/// An index's size at the end of a session.
#[derive(Debug, Clone, Copy)]
pub struct IndexGauges {
    pub mem_bytes: usize,
    pub leaf_count: usize,
    pub splits: u64,
    pub objects: u64,
}

impl IndexGauges {
    pub fn of(index: &ValinorIndex) -> IndexGauges {
        IndexGauges {
            mem_bytes: index.memory_bytes(),
            leaf_count: index.leaf_count(),
            splits: index.splits_performed(),
            objects: index.total_objects(),
        }
    }
}

/// Repeats `setup` [`SETUP_REPS`] times (dropping each result before the
/// next starts) and returns the last result with the median wall time.
pub fn repeat_setup<T>(mut setup: impl FnMut() -> Result<T>) -> Result<(T, f64)> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("SETUP_REPS >= 1"), median(&times)))
}

/// Runs passes until `seconds` have elapsed and at least `min_passes` are
/// done (a workload with one build per pass needs three for `init_s`).
/// Untraced runs trace nothing; traced runs alternate traced and untraced
/// passes (starting traced) so the same run yields the tracing overhead, and
/// always finish a pair.
pub fn run_passes(
    opts: &RunOpts,
    min_passes: usize,
    tracer: &mut Option<Tracer>,
    mut pass: impl FnMut(Option<&mut Tracer>) -> Result<PassStats>,
) -> Result<Vec<PassStats>> {
    let start = Instant::now();
    let mut passes: Vec<PassStats> = Vec::new();
    loop {
        let traced = opts.trace && passes.len().is_multiple_of(2);
        let mut stats = pass(if traced { tracer.as_mut() } else { None })?;
        stats.traced = traced;
        stats.rss_hwm_mb = vm_hwm_mb();
        passes.push(stats);
        let pair_open = opts.trace && passes.len() % 2 == 1;
        let enough = passes.len() >= min_passes && start.elapsed().as_secs_f64() >= opts.seconds;
        if enough && !pair_open {
            return Ok(passes);
        }
    }
}

fn vm_hwm_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

fn pooled<'a>(passes: &[&'a PassStats], f: impl Fn(&'a PassStats) -> &'a [f64]) -> Vec<f64> {
    passes.iter().flat_map(|p| f(p).iter().copied()).collect()
}

/// Median of an index gauge over every session of every pass.
fn gauge(passes: &[&PassStats], f: impl Fn(&IndexGauges) -> f64) -> f64 {
    median(
        &passes
            .iter()
            .flat_map(|p| p.index.iter().map(&f))
            .collect::<Vec<_>>(),
    )
}

fn per_pass(passes: &[&PassStats], f: impl Fn(&PassStats) -> f64) -> f64 {
    median(&passes.iter().map(|p| f(p)).collect::<Vec<_>>())
}

/// Reduces untraced passes to the end-to-end metrics.
fn end_to_end(setup_s: f64, passes: &[PassStats], log: &mut Vec<String>) -> Result<MetricSet> {
    let passes: Vec<&PassStats> = passes.iter().collect();
    let mut m = MetricSet::zeroed(&END_TO_END);
    let init = pooled(&passes, |p| &p.init_s);
    if init.len() < MIN_INIT_SAMPLES {
        return Err(PaiError::internal(format!(
            "init_s needs >= {MIN_INIT_SAMPLES} builds, got {}",
            init.len()
        )));
    }
    // Every pass runs the same operations, so each carries its own p50, p99
    // and throughput; the run reports their medians over the passes, which a
    // burst of interference in one pass cannot move. Each pass must hold the
    // ≥ 1000 samples a p99 needs.
    let per_pass_summary: Vec<Summary> = passes.iter().map(|p| Summary::of(&p.query_ms)).collect();
    let p99s = per_pass_summary
        .iter()
        .map(Summary::p99)
        .collect::<std::result::Result<Vec<f64>, String>>()
        .map_err(PaiError::internal)?;
    let p50s: Vec<f64> = per_pass_summary.iter().map(|s| s.p50).collect();
    let qps: Vec<f64> = passes
        .iter()
        .map(|p| p.query_ms.len() as f64 / p.busy_s)
        .collect();
    let queries = Summary::of(&pooled(&passes, |p| &p.query_ms));
    let early = pooled(&passes, |p| &p.early_ms);
    let ttfa = pooled(&passes, |p| &p.ttfa_ms);
    let busy: f64 = passes.iter().map(|p| p.busy_s).sum();
    m.set("setup_s", setup_s);
    m.set("init_s", median(&init));
    m.set("ttfa_ms", median(&ttfa));
    m.set(
        "early_p50_ms",
        median_of_position_medians(&early, EARLY_QUERIES),
    );
    m.set("query_p50_ms", median(&p50s));
    m.set("query_p99_ms", median(&p99s));
    m.set("session_qps", median(&qps));
    m.set(
        "bytes_read_mb",
        per_pass(&passes, |p| p.io.bytes_read as f64 / 1e6),
    );
    m.set("index_mem_mb", gauge(&passes, |g| g.mem_bytes as f64 / 1e6));
    // The peak of set-up and one pass, which every run reaches the same way.
    // Later passes push the high-water mark up by what the allocator's
    // per-thread arenas retain, pass after pass (on `serve-ingest`, which
    // starts seven threads per pass, 250 → 260 or, one run in three, 315 MB):
    // read at exit it depended on how many passes a run fitted and on luck.
    m.set("rss_peak_mb", passes[0].rss_hwm_mb);
    log.push(format!(
        "passes={} timed_phase_s={busy:.3} query latency, pooled: {}",
        passes.len(),
        queries.describe("ms")
    ));
    let row = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    log.push(format!("per-pass p50 ms: {}", row(&p50s)));
    log.push(format!("per-pass p99 ms: {}", row(&p99s)));
    log.push(format!("per-pass qps: {}", row(&qps)));
    log.push(format!(
        "VmHWM MB: after pass 1 {:.1}, at the end {:.1}",
        passes[0].rss_hwm_mb,
        vm_hwm_mb()
    ));
    log.push(format!(
        "samples: init={} ttfa={} early={}",
        init.len(),
        ttfa.len(),
        early.len()
    ));
    Ok(m)
}

/// Reduces the traced passes (and the untraced ones, for the overhead) to
/// the per-layer metrics every workload shares. Workload-specific probes
/// add theirs to the returned set.
fn per_layer(
    passes: &[PassStats],
    tracer: &Tracer,
    probes: Layers,
    log: &mut Vec<String>,
) -> MetricSet {
    let Layers {
        metrics: mut m,
        scan_s,
    } = probes;
    let traced: Vec<&PassStats> = passes.iter().filter(|p| p.traced).collect();
    let untraced: Vec<&PassStats> = passes.iter().filter(|p| !p.traced).collect();

    // index: the workload's own builds, and what they cost beyond the
    // sequential scan they contain (the storage scan probe).
    let init_s = median(&pooled(&traced, |p| &p.init_s));
    m.set(
        "index.build_ns_per_row",
        init_s * 1e9 / crate::fixture::ROWS as f64,
    );
    m.set("index.build_self_ms", (init_s - scan_s) * 1e3);

    let io = |f: fn(&IoSnapshot) -> u64| per_pass(&traced, |p| f(&p.io) as f64);
    m.set("storage.objects_read", io(|s| s.objects_read));
    m.set("storage.bytes_read", io(|s| s.bytes_read));
    m.set("storage.read_calls", io(|s| s.read_calls));
    m.set("storage.seeks", io(|s| s.seeks));
    m.set("storage.blocks_read", io(|s| s.blocks_read));
    m.set("storage.blocks_skipped", io(|s| s.blocks_skipped));
    m.set("storage.http_gets", io(|s| s.http_requests));
    m.set("storage.http_mb", io(|s| s.http_bytes) / 1e6);
    m.set("storage.retries", io(|s| s.retries));
    m.set("storage.fetch_wall_ms", io(|s| s.fetch_wall_us) / 1e3);
    m.set("storage.fetch_request_ms", io(|s| s.fetch_request_us) / 1e3);
    m.set(
        "storage.overlap_ratio",
        per_pass(&traced, |p| p.io.overlap_ratio()),
    );
    m.set(
        "storage.fetch_p50_us",
        per_pass(&traced, |p| p.io.fetch_hist.p50_us() as f64),
    );
    m.set(
        "storage.fetch_p99_us",
        per_pass(&traced, |p| p.io.fetch_hist.p99_us() as f64),
    );
    let hit_frac = |s: &IoSnapshot| match s.cache_hits + s.cache_misses {
        0 => 0.0,
        n => s.cache_hits as f64 / n as f64,
    };
    m.set(
        "storage.cache_hit_frac",
        per_pass(&traced, |p| hit_frac(&p.io)),
    );
    m.set("storage.cache_evictions", io(|s| s.cache_evictions));
    m.set("storage.cache_spill_mb", io(|s| s.cache_spill_bytes) / 1e6);
    for (i, suffix) in ["s1", "s2", "s3"].iter().enumerate() {
        if traced.iter().all(|p| p.session_io.len() > i) {
            m.set(
                &format!("storage.cache_hit_frac_{suffix}"),
                per_pass(&traced, |p| hit_frac(&p.session_io[i])),
            );
            m.set(
                &format!("storage.http_gets_{suffix}"),
                per_pass(&traced, |p| p.session_io[i].http_requests as f64),
            );
        }
    }
    m.set("storage.delta_blocks", io(|s| s.delta_blocks));
    m.set("storage.blocks_rewritten", io(|s| s.blocks_rewritten));
    m.set("storage.cache_invalidations", io(|s| s.cache_invalidations));
    m.set(
        "storage.compact_ms",
        median_or_zero(&pooled(&traced, |p| &p.compact_ms)),
    );

    m.set("index.leaf_count", gauge(&traced, |g| g.leaf_count as f64));
    m.set("index.splits", gauge(&traced, |g| g.splits as f64));
    m.set(
        "index.mem_bytes_per_obj",
        gauge(&traced, |g| g.mem_bytes as f64 / g.objects.max(1) as f64),
    );
    m.set(
        "index.classify_warm_us",
        median_or_zero(&pooled(&traced, |p| &p.classify_warm_us)),
    );
    for (i, name) in ["full", "partial", "processed", "split", "enriched"]
        .iter()
        .enumerate()
    {
        m.set(
            &format!("index.tiles_{name}"),
            per_pass(&traced, |p| p.tiles[i] as f64),
        );
    }

    let evaluate = tracer.durations_us("core.evaluate");
    if !evaluate.is_empty() {
        let s = Summary::of(&evaluate);
        m.set("core.evaluate_us_p50", s.p50);
        m.set("core.evaluate_us_p99", s.p99_unchecked());
        log.push(format!("core.evaluate spans: {}", s.describe("us")));
    }
    let estimate = pooled(&traced, |p| &p.probed_estimate_us);
    let classify = pooled(&traced, |p| &p.probed_classify_us);
    let probed = pooled(&traced, |p| &p.probed_evaluate_us);
    if !probed.is_empty() {
        // Self time from outside: `estimate` is classify + CI on the state
        // `evaluate` starts from, so estimate − classify is the CI share and
        // evaluate − estimate is everything adaptation adds (plan, fetch,
        // apply, re-check).
        let ci: Vec<f64> = estimate.iter().zip(&classify).map(|(e, c)| e - c).collect();
        let adapt: Vec<f64> = probed.iter().zip(&estimate).map(|(v, e)| v - e).collect();
        m.set("core.estimate_us_p50", median(&estimate));
        m.set("core.ci_us_p50", median(&ci));
        m.set("core.adapt_us_p50", median(&adapt));
        m.set(
            "core.adapt_share",
            adapt.iter().sum::<f64>() / probed.iter().sum::<f64>(),
        );
        log.push(format!("probed queries: n={}", probed.len()));
    }
    let timed: f64 = traced.iter().map(|p| p.query_ms.len() as f64).sum();
    if timed > 0.0 {
        let sum = |f: fn(&PassStats) -> u64| traced.iter().map(|p| f(p) as f64).sum::<f64>();
        m.set("core.meta_only_frac", sum(|p| p.meta_only) / timed);
        m.set("core.synopsis_hit_frac", sum(|p| p.synopsis_hits) / timed);
    }
    m.set(
        "core.bound_slack_p50",
        median_or_zero(&pooled(&traced, |p| &p.bound_slack)),
    );
    m.set(
        "core.predict_us",
        median_or_zero(&pooled(&traced, |p| &p.predict_us)),
    );
    m.set(
        "core.predict_ratio_p50",
        median_or_zero(&pooled(&traced, |p| &p.predict_ratio)),
    );

    // server: what the wire adds around the service time the server itself
    // reports (codec, queue wait, socket), and the server's own meters.
    let service = pooled(&traced, |p| &p.service_us);
    if !service.is_empty() {
        let rtt: Vec<f64> = pooled(&traced, |p| &p.query_ms)
            .iter()
            .map(|ms| ms * 1e3)
            .collect();
        let overhead: Vec<f64> = rtt.iter().zip(&service).map(|(r, s)| r - s).collect();
        let (rtt, overhead) = (Summary::of(&rtt), Summary::of(&overhead));
        m.set("server.rtt_us_p50", rtt.p50);
        m.set("server.rtt_us_p99", rtt.p99_unchecked());
        m.set("server.service_us_p50", median(&service));
        m.set("server.overhead_us_p50", overhead.p50);
        m.set("server.overhead_us_p99", overhead.p99_unchecked());
        log.push(format!("server.rtt spans: {}", rtt.describe("us")));
    }
    if traced.iter().all(|p| p.server.is_some()) {
        let stat = |f: fn(&ServerStats) -> u64| {
            per_pass(&traced, |p| p.server.as_ref().map_or(0, f) as f64)
        };
        m.set("server.queries_served", stat(|s| s.queries_served));
        m.set("server.ingests_applied", stat(|s| s.ingests_applied));
        m.set("server.busy", stat(|s| s.busy_rejections));
        m.set("server.errors", stat(|s| s.errors));
        m.set("server.dropped_replies", stat(|s| s.dropped_replies));
        m.set(
            "server.service_hist_p99_us",
            stat(|s| s.service_hist.p99_us()),
        );
        let rows: f64 = traced.iter().map(|p| p.ingested_rows as f64).sum();
        let wall: f64 = traced.iter().map(|p| p.busy_s).sum();
        m.set("server.ingest_krows_per_s", rows / 1e3 / wall);
    }
    let acks = pooled(&traced, |p| &p.ingest_ack_us);
    if !acks.is_empty() {
        let krows = crate::fixture::INGEST_BATCH_ROWS as f64 / 1e3;
        m.set("core.ingest_us_per_krow", median(&acks) / krows);
    }

    // 1 − traced ÷ untraced throughput of the queries no probe precedes:
    // positive when recording spans slowed the timed operations.
    let qps = |set: &[&PassStats]| per_pass(set, PassStats::unprobed_qps);
    m.set("trace.overhead_frac", 1.0 - qps(&traced) / qps(&untraced));
    m.set("trace.spans", tracer.len() as f64);
    // What a pass spends outside its builds and queries (verification,
    // engine construction, index clones) — the harness's own cost.
    log.push(format!(
        "pass self time: {:.1} ms (median, spans minus children)",
        median_or_zero(&tracer.self_times_us("pass")) / 1e3
    ));
    log.push(format!(
        "passes: traced={} untraced={} qps traced={:.1} untraced={:.1}",
        traced.len(),
        untraced.len(),
        qps(&traced),
        qps(&untraced)
    ));
    m
}

/// Finishes a run: the end-to-end set untraced, the per-layer set traced
/// (`layers` then carries what the probes measured before the passes).
pub fn finish(
    setup_s: f64,
    passes: Vec<PassStats>,
    verifier: Verifier,
    tracer: Option<Tracer>,
    layers: Option<Layers>,
    mut log: Vec<String>,
) -> Result<Outcome> {
    let metrics = match (&tracer, layers) {
        (Some(t), Some(layers)) => per_layer(&passes, t, layers, &mut log),
        _ => end_to_end(setup_s, &passes, &mut log)?,
    };
    log.push(format!(
        "verified: attempted={} failed={}",
        verifier.attempted, verifier.failed
    ));
    log.extend(verifier.reasons.iter().map(|r| format!("FAILED {r}")));
    Ok(Outcome {
        attempted: verifier.attempted,
        failed: verifier.failed,
        metrics,
        tracer,
        log,
    })
}
