//! Workload execution and method comparison.
//!
//! The paper's evaluation runs the *same* query sequence under different
//! methods — exact adaptive indexing vs. partial adaptation at 1 % and 5 %
//! error bounds — each starting from a freshly initialized index, and
//! compares per-query evaluation time and objects read. [`compare_methods`]
//! reproduces exactly that protocol.

use std::time::Duration;

use pai_common::{AggregateValue, LatencyHistogram, PaiError, Result};
use pai_core::{ApproximateEngine, EngineConfig};
use pai_index::init::{build, InitConfig};
use pai_index::ExactEngine;
use pai_storage::raw::RawFile;

use crate::workload::Workload;

/// An evaluation method in the paper's sense.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Method {
    /// Exact adaptive indexing (processes every partial tile).
    Exact,
    /// Partial adaptation under accuracy constraint φ.
    Approx { phi: f64 },
}

impl Method {
    /// Human label, e.g. `exact` / `phi=5%`.
    pub fn label(&self) -> String {
        match self {
            Method::Exact => "exact".into(),
            Method::Approx { phi } => format!("phi={}%", phi * 100.0),
        }
    }
}

/// Per-query measurements (one row of the Figure 2 data).
#[derive(Debug, Clone)]
pub struct QueryRecord {
    pub query_index: usize,
    pub elapsed: Duration,
    pub objects_read: u64,
    pub bytes_read: u64,
    /// `read_rows` calls issued — the meter the batched adaptation
    /// pipeline shrinks (many tiles per call).
    pub read_calls: u64,
    /// Storage blocks materialized (block-structured backends; 0 on CSV).
    pub blocks_read: u64,
    /// Blocks a zone-map pushdown proved irrelevant and skipped.
    pub blocks_skipped: u64,
    /// Ranged HTTP requests issued (0 on local backends) — the meter
    /// request coalescing shrinks.
    pub http_requests: u64,
    /// Wire bytes those requests moved, both directions.
    pub http_bytes: u64,
    /// Remote requests retried after transient faults (5xx/drop/short
    /// read); nonzero with correct answers means the backoff path worked.
    pub retries: u64,
    /// Peak concurrently in-flight fetch requests (1 on a sequential
    /// remote fetch path, 0 on local backends) — the meter the overlapped
    /// pipeline raises.
    pub fetch_inflight_peak: u64,
    /// In-request fetch time over wall fetch time (> 1 when the overlapped
    /// pipeline hid request latency, ~1 sequentially, 0 local).
    pub overlap_ratio: f64,
    /// Adaptive part-sizer parameter changes during this query.
    pub parts_resized: u64,
    /// Page lookups served from the block cache during this query (0
    /// uncached) — the meter the tiered cache raises on re-exploration.
    pub cache_hits: u64,
    /// Page lookups the cache handed to the transport during this query.
    pub cache_misses: u64,
    /// Cache entries evicted under budget pressure during this query.
    pub cache_evictions: u64,
    /// Bytes spilled to the cache's disk tier during this query.
    pub cache_spill_bytes: u64,
    /// Bytes resident in the cache's memory tier when the query finished
    /// (a gauge, not a per-query total).
    pub cache_mem_bytes: u64,
    /// Distribution of per-request fetch latencies during this query
    /// (one observation per transport request; empty on local
    /// backends). Mergeable across records via
    /// [`LatencyHistogram::merge`]; `fetch_hist.p50_us()` /
    /// `p99_us()` feed the report CSV.
    pub fetch_hist: LatencyHistogram,
    /// Time spent waiting on index locks (zero for single-owner engines).
    pub lock_wait: Duration,
    /// Whether this query was answered purely from block synopses (0/1;
    /// summed across a run it counts zero-I/O answers).
    pub synopsis_hits: u64,
    /// Block synopses consulted by synopsis-path answers.
    pub synopsis_blocks: u64,
    /// Approximate in-memory bytes of those synopses.
    pub synopsis_bytes: u64,
    /// Rows appended through the streaming-ingest path during this query
    /// (normally 0 — ingest runs between queries; threading the meter here
    /// keeps mixed ingest/query traces in one CSV).
    pub rows_ingested: u64,
    /// Delta blocks alive when the query finished (a gauge, not a delta;
    /// 0 on sealed backends, shrinks when the compactor runs).
    pub delta_blocks: u64,
    /// Z-order compactions installed while this query ran.
    pub compactions: u64,
    /// Delta blocks rewritten by those compactions.
    pub blocks_rewritten: u64,
    /// Cached spans dropped by generation-tag invalidation during this
    /// query — the stale-span protection firing after a rewrite.
    pub cache_invalidations: u64,
    /// Bytes an exact (`φ = 0`) evaluation of this query was *predicted*
    /// to read, from zone maps + classification before evaluation. Exact
    /// object pricing on fixed-stride backends; mean-row/mean-block
    /// pricing elsewhere (the cost-estimate gate pins how tightly it
    /// tracks the metered `bytes_read` per backend).
    pub predicted_bytes: u64,
    pub selected: u64,
    pub tiles_partial: usize,
    pub tiles_processed: usize,
    pub tiles_split: usize,
    /// Reported upper error bound (0 for the exact method).
    pub error_bound: f64,
    /// The aggregate values the method returned.
    pub values: Vec<AggregateValue>,
}

/// One method's run over a workload.
#[derive(Debug, Clone)]
pub struct MethodRun {
    pub label: String,
    pub method: Method,
    pub init_elapsed: Duration,
    pub records: Vec<QueryRecord>,
}

impl MethodRun {
    pub fn total_elapsed(&self) -> Duration {
        self.records.iter().map(|r| r.elapsed).sum()
    }

    pub fn total_objects_read(&self) -> u64 {
        self.records.iter().map(|r| r.objects_read).sum()
    }

    /// Total bytes pulled from the raw file across the run — the meter that
    /// separates storage backends for the same query sequence.
    pub fn total_bytes_read(&self) -> u64 {
        self.records.iter().map(|r| r.bytes_read).sum()
    }

    /// Total `read_rows` calls across the run — the meter that separates
    /// batched from tile-at-a-time adaptation for the same query sequence.
    pub fn total_read_calls(&self) -> u64 {
        self.records.iter().map(|r| r.read_calls).sum()
    }

    /// Total storage blocks materialized across the run — the unit the
    /// zone-map pushdown shrinks for the same query sequence.
    pub fn total_blocks_read(&self) -> u64 {
        self.records.iter().map(|r| r.blocks_read).sum()
    }

    /// Total blocks proven irrelevant by zone maps across the run.
    pub fn total_blocks_skipped(&self) -> u64 {
        self.records.iter().map(|r| r.blocks_skipped).sum()
    }

    /// Total ranged HTTP requests across the run — the meter that separates
    /// coalesced from naive per-block remote reads for the same sequence.
    pub fn total_http_requests(&self) -> u64 {
        self.records.iter().map(|r| r.http_requests).sum()
    }

    /// Total wire bytes across the run (0 on local backends).
    pub fn total_http_bytes(&self) -> u64 {
        self.records.iter().map(|r| r.http_bytes).sum()
    }

    /// Total remote retries across the run.
    pub fn total_retries(&self) -> u64 {
        self.records.iter().map(|r| r.retries).sum()
    }

    /// Peak concurrently in-flight fetch requests over the whole run —
    /// a max, not a sum: how deep the overlapped pipeline actually got.
    pub fn max_fetch_inflight(&self) -> u64 {
        self.records
            .iter()
            .map(|r| r.fetch_inflight_peak)
            .max()
            .unwrap_or(0)
    }

    /// Total adaptive part-sizer parameter changes across the run.
    pub fn total_parts_resized(&self) -> u64 {
        self.records.iter().map(|r| r.parts_resized).sum()
    }

    /// Total cache-served page lookups across the run (0 uncached).
    pub fn total_cache_hits(&self) -> u64 {
        self.records.iter().map(|r| r.cache_hits).sum()
    }

    /// Total cache misses handed to the transport across the run.
    pub fn total_cache_misses(&self) -> u64 {
        self.records.iter().map(|r| r.cache_misses).sum()
    }

    /// Total cache evictions across the run.
    pub fn total_cache_evictions(&self) -> u64 {
        self.records.iter().map(|r| r.cache_evictions).sum()
    }

    /// Total bytes spilled to the cache's disk tier across the run.
    pub fn total_cache_spill_bytes(&self) -> u64 {
        self.records.iter().map(|r| r.cache_spill_bytes).sum()
    }

    /// Total time spent waiting on index locks across the run (zero unless
    /// the run went through a shared, concurrently accessed index).
    pub fn total_lock_wait(&self) -> Duration {
        self.records.iter().map(|r| r.lock_wait).sum()
    }

    /// Queries answered purely from block synopses across the run.
    pub fn total_synopsis_hits(&self) -> u64 {
        self.records.iter().map(|r| r.synopsis_hits).sum()
    }

    /// Total bytes the pre-evaluation cost model predicted across the run.
    pub fn total_predicted_bytes(&self) -> u64 {
        self.records.iter().map(|r| r.predicted_bytes).sum()
    }

    /// All per-query fetch latency histograms merged into one run-level
    /// distribution — p50/p99 over every transport request the run
    /// issued, regardless of which query issued it.
    pub fn fetch_hist(&self) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for r in &self.records {
            h.merge(&r.fetch_hist);
        }
        h
    }

    /// Per-query evaluation times in seconds (the Figure 2 series).
    pub fn time_series_secs(&self) -> Vec<f64> {
        self.records
            .iter()
            .map(|r| r.elapsed.as_secs_f64())
            .collect()
    }

    /// Per-query objects-read series (the paper's cost proxy).
    pub fn objects_series(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.objects_read as f64).collect()
    }

    /// Per-query bytes-read series (the backend-comparison cost metric).
    pub fn bytes_series(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.bytes_read as f64).collect()
    }
}

/// Runs `workload` under one method, building a fresh index first.
pub fn run_workload(
    file: &dyn RawFile,
    init_cfg: &InitConfig,
    engine_cfg: &EngineConfig,
    workload: &Workload,
    method: Method,
) -> Result<MethodRun> {
    for q in &workload.queries {
        q.validate(file.schema(), false)?;
    }
    let (index, init_report) = build(file, init_cfg)?;
    let mut records = Vec::with_capacity(workload.len());

    match method {
        Method::Exact => {
            let mut engine = ExactEngine::new(index, file, engine_cfg.adapt.clone())?;
            for (i, q) in workload.queries.iter().enumerate() {
                let predicted = pai_core::predict_query_io(
                    engine.index(),
                    file,
                    &q.window,
                    &q.aggs,
                    engine_cfg,
                )?;
                let res = engine.evaluate(&q.window, &q.aggs)?;
                records.push(QueryRecord {
                    query_index: i,
                    elapsed: res.stats.elapsed,
                    objects_read: res.stats.io.objects_read,
                    bytes_read: res.stats.io.bytes_read,
                    read_calls: res.stats.io.read_calls,
                    blocks_read: res.stats.io.blocks_read,
                    blocks_skipped: res.stats.io.blocks_skipped,
                    http_requests: res.stats.io.http_requests,
                    http_bytes: res.stats.io.http_bytes,
                    retries: res.stats.io.retries,
                    fetch_inflight_peak: res.stats.io.fetch_inflight_peak,
                    overlap_ratio: res.stats.io.overlap_ratio(),
                    parts_resized: res.stats.io.parts_resized,
                    cache_hits: res.stats.io.cache_hits,
                    cache_misses: res.stats.io.cache_misses,
                    cache_evictions: res.stats.io.cache_evictions,
                    cache_spill_bytes: res.stats.io.cache_spill_bytes,
                    cache_mem_bytes: res.stats.io.cache_mem_bytes,
                    fetch_hist: res.stats.io.fetch_hist,
                    lock_wait: res.stats.lock_wait,
                    synopsis_hits: res.stats.io.synopsis_hits,
                    synopsis_blocks: res.stats.io.synopsis_blocks,
                    synopsis_bytes: res.stats.io.synopsis_bytes,
                    rows_ingested: res.stats.io.rows_ingested,
                    delta_blocks: res.stats.io.delta_blocks,
                    compactions: res.stats.io.compactions,
                    blocks_rewritten: res.stats.io.blocks_rewritten,
                    cache_invalidations: res.stats.io.cache_invalidations,
                    predicted_bytes: predicted.bytes,
                    selected: res.stats.selected,
                    tiles_partial: res.stats.tiles_partial,
                    tiles_processed: res.stats.tiles_processed,
                    tiles_split: res.stats.tiles_split,
                    error_bound: 0.0,
                    values: res.values,
                });
            }
        }
        Method::Approx { phi } => {
            let mut engine = ApproximateEngine::new(index, file, engine_cfg.clone())?;
            for (i, q) in workload.queries.iter().enumerate() {
                let predicted = pai_core::predict_query_io(
                    engine.index(),
                    file,
                    &q.window,
                    &q.aggs,
                    engine_cfg,
                )?;
                let res = engine.evaluate(&q.window, &q.aggs, phi)?;
                if !res.met_constraint {
                    return Err(PaiError::internal(format!(
                        "query {i} failed to meet phi={phi} after exhausting tiles"
                    )));
                }
                records.push(QueryRecord {
                    query_index: i,
                    elapsed: res.stats.elapsed,
                    objects_read: res.stats.io.objects_read,
                    bytes_read: res.stats.io.bytes_read,
                    read_calls: res.stats.io.read_calls,
                    blocks_read: res.stats.io.blocks_read,
                    blocks_skipped: res.stats.io.blocks_skipped,
                    http_requests: res.stats.io.http_requests,
                    http_bytes: res.stats.io.http_bytes,
                    retries: res.stats.io.retries,
                    fetch_inflight_peak: res.stats.io.fetch_inflight_peak,
                    overlap_ratio: res.stats.io.overlap_ratio(),
                    parts_resized: res.stats.io.parts_resized,
                    cache_hits: res.stats.io.cache_hits,
                    cache_misses: res.stats.io.cache_misses,
                    cache_evictions: res.stats.io.cache_evictions,
                    cache_spill_bytes: res.stats.io.cache_spill_bytes,
                    cache_mem_bytes: res.stats.io.cache_mem_bytes,
                    fetch_hist: res.stats.io.fetch_hist,
                    lock_wait: res.stats.lock_wait,
                    synopsis_hits: res.stats.io.synopsis_hits,
                    synopsis_blocks: res.stats.io.synopsis_blocks,
                    synopsis_bytes: res.stats.io.synopsis_bytes,
                    rows_ingested: res.stats.io.rows_ingested,
                    delta_blocks: res.stats.io.delta_blocks,
                    compactions: res.stats.io.compactions,
                    blocks_rewritten: res.stats.io.blocks_rewritten,
                    cache_invalidations: res.stats.io.cache_invalidations,
                    predicted_bytes: predicted.bytes,
                    selected: res.stats.selected,
                    tiles_partial: res.stats.tiles_partial,
                    tiles_processed: res.stats.tiles_processed,
                    tiles_split: res.stats.tiles_split,
                    error_bound: res.error_bound,
                    values: res.values,
                });
            }
        }
    }

    Ok(MethodRun {
        label: method.label(),
        method,
        init_elapsed: init_report.elapsed,
        records,
    })
}

/// Runs the workload under every method (fresh index each), in order.
pub fn compare_methods(
    file: &dyn RawFile,
    init_cfg: &InitConfig,
    engine_cfg: &EngineConfig,
    workload: &Workload,
    methods: &[Method],
) -> Result<Vec<MethodRun>> {
    methods
        .iter()
        .map(|&m| run_workload(file, init_cfg, engine_cfg, workload, m))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pai_common::AggregateFunction;
    use pai_index::init::GridSpec;
    use pai_index::MetadataPolicy;
    use pai_storage::{CsvFormat, DatasetSpec};

    fn setup() -> (pai_storage::MemFile, DatasetSpec, InitConfig, Workload) {
        let spec = DatasetSpec {
            rows: 4000,
            columns: 4,
            seed: 99,
            ..Default::default()
        };
        let file = spec.build_mem(CsvFormat::default()).unwrap();
        let init = InitConfig {
            grid: GridSpec::Fixed { nx: 6, ny: 6 },
            domain: Some(spec.domain),
            metadata: MetadataPolicy::AllNumeric,
        };
        let start = Workload::centered_window(&spec.domain, 0.05);
        let wl = Workload::shifted_sequence(
            &spec.domain,
            start,
            12,
            vec![AggregateFunction::Mean(2)],
            5,
        );
        (file, spec, init, wl)
    }

    #[test]
    fn exact_and_approx_runs_complete() {
        let (file, _, init, wl) = setup();
        let cfg = EngineConfig::paper_evaluation();
        let runs = compare_methods(
            &file,
            &init,
            &cfg,
            &wl,
            &[Method::Exact, Method::Approx { phi: 0.05 }],
        )
        .unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].records.len(), 12);
        assert_eq!(runs[1].records.len(), 12);
        assert_eq!(runs[0].label, "exact");
        assert_eq!(runs[1].label, "phi=5%");
        // Every approximate bound within phi.
        assert!(runs[1].records.iter().all(|r| r.error_bound <= 0.05));
        // The approximate run must not read more than the exact one overall.
        assert!(runs[1].total_objects_read() <= runs[0].total_objects_read());
    }

    #[test]
    fn approx_values_close_to_exact() {
        let (file, _, init, wl) = setup();
        let cfg = EngineConfig::paper_evaluation();
        let runs = compare_methods(
            &file,
            &init,
            &cfg,
            &wl,
            &[Method::Exact, Method::Approx { phi: 0.05 }],
        )
        .unwrap();
        for (e, a) in runs[0].records.iter().zip(&runs[1].records) {
            let (ev, av) = (e.values[0].as_f64().unwrap(), a.values[0].as_f64().unwrap());
            // phi=5% with Estimate normalization: |approx-exact| <= 5% of
            // |approx| (plus float slack).
            assert!(
                (av - ev).abs() <= 0.05 * av.abs() + 1e-9,
                "query {}: approx {av} vs exact {ev}",
                e.query_index
            );
        }
    }

    #[test]
    fn series_helpers() {
        let (file, _, init, wl) = setup();
        let cfg = EngineConfig::paper_evaluation();
        let run = run_workload(&file, &init, &cfg, &wl, Method::Approx { phi: 0.01 }).unwrap();
        assert_eq!(run.time_series_secs().len(), wl.len());
        assert_eq!(run.objects_series().len(), wl.len());
        assert!(run.total_elapsed() > Duration::ZERO);
    }

    #[test]
    fn records_carry_real_meter_bytes() {
        let (file, _, init, wl) = setup();
        file.counters().reset();
        let cfg = EngineConfig::paper_evaluation();
        let run = run_workload(&file, &init, &cfg, &wl, Method::Approx { phi: 0.05 }).unwrap();
        let total = file.counters().snapshot();
        assert_eq!(total.full_scans, 1, "init is the only full scan");
        // Everything the meters saw beyond the init scan is attributed to
        // exactly one query record: per-record bytes are real, not derived.
        assert_eq!(run.total_bytes_read(), total.bytes_read - file.size_bytes());
        assert!(run.total_bytes_read() > 0);
        // Same accounting for objects: the init scan touched every row once.
        assert_eq!(run.total_objects_read(), total.objects_read - 4000);
        assert_eq!(run.bytes_series().len(), wl.len());
    }

    #[test]
    fn filtered_workload_rejected() {
        let (file, _, init, mut wl) = setup();
        wl.queries[0] = wl.queries[0]
            .clone()
            .with_filter(crate::query::Filter::new(3, 0.0, 1.0));
        let cfg = EngineConfig::paper_evaluation();
        assert!(run_workload(&file, &init, &cfg, &wl, Method::Exact).is_err());
    }
}
