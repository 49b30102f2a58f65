//! Workload execution and method comparison.
//!
//! The paper's evaluation runs the *same* query sequence under different
//! methods — exact adaptive indexing vs. partial adaptation at 1 % and 5 %
//! error bounds — each starting from a freshly initialized index, and
//! compares per-query evaluation time and objects read. [`compare_methods`]
//! reproduces exactly that protocol.

use std::time::Duration;

use pai_common::{AggregateValue, PaiError, Result};
use pai_core::{ApproximateEngine, EngineConfig};
use pai_index::eval::query_attrs;
use pai_index::init::{build, InitConfig};
use pai_index::QueryStats;
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
    /// What the engine measured: time, I/O meters (`stats.io`), tiles.
    pub stats: QueryStats,
    /// Bytes an exact (`φ = 0`) evaluation of this query was *predicted*
    /// to read, from zone maps + classification before evaluation (priced
    /// at the mean row on CSV, at the mean bits per value on PaiZone).
    pub predicted_bytes: u64,
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
    /// Summed evaluation time across the run.
    pub fn total_elapsed(&self) -> Duration {
        self.records.iter().map(|r| r.stats.elapsed).sum()
    }

    /// Total objects read across the run (the paper's cost proxy).
    pub fn total_objects_read(&self) -> u64 {
        self.records.iter().map(|r| r.stats.io.objects_read).sum()
    }

    /// Total bytes pulled from the raw file across the run — the meter that
    /// separates storage backends for the same query sequence.
    pub fn total_bytes_read(&self) -> u64 {
        self.records.iter().map(|r| r.stats.io.bytes_read).sum()
    }

    /// Total `read_rows` calls across the run — the meter that separates
    /// batched from tile-at-a-time adaptation for the same query sequence.
    pub fn total_read_calls(&self) -> u64 {
        self.records.iter().map(|r| r.stats.io.read_calls).sum()
    }

    /// Total remote retries across the run.
    pub fn total_retries(&self) -> u64 {
        self.records.iter().map(|r| r.stats.io.retries).sum()
    }

    /// One value per query, in order.
    fn series(&self, f: impl Fn(&QueryStats) -> f64) -> Vec<f64> {
        self.records.iter().map(|r| f(&r.stats)).collect()
    }

    /// Per-query evaluation times in seconds (the Figure 2 series).
    pub fn time_series_secs(&self) -> Vec<f64> {
        self.series(|s| s.elapsed.as_secs_f64())
    }

    /// Per-query objects-read series (the paper's cost proxy).
    pub fn objects_series(&self) -> Vec<f64> {
        self.series(|s| s.io.objects_read as f64)
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
        query_attrs(file.schema(), &q.aggs)?;
    }
    let (index, init_report) = build(file, init_cfg)?;
    let mut engine = ApproximateEngine::new(index, file, engine_cfg.clone())?;
    let mut records = Vec::with_capacity(workload.len());
    for (i, q) in workload.queries.iter().enumerate() {
        let predicted =
            pai_core::predict_query_io(engine.index(), file, &q.window, &q.aggs, engine_cfg)?;
        let res = match method {
            Method::Exact => engine.evaluate_exact(&q.window, &q.aggs)?,
            Method::Approx { phi } => engine.evaluate(&q.window, &q.aggs, phi)?,
        };
        if !res.met_constraint {
            return Err(PaiError::internal(format!(
                "query {i} failed to meet phi={} after exhausting tiles",
                res.phi
            )));
        }
        records.push(QueryRecord {
            query_index: i,
            stats: res.stats,
            predicted_bytes: predicted.bytes,
            error_bound: res.error_bound,
            values: res.values,
        });
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
    }

    #[test]
    fn invalid_workload_refused_before_the_build() {
        let (file, _, init, mut wl) = setup();
        // Column 0 is the x axis, which no aggregate may name.
        wl.queries[3].aggs = vec![AggregateFunction::Sum(0)];
        file.counters().reset();
        let cfg = EngineConfig::paper_evaluation();
        assert!(run_workload(&file, &init, &cfg, &wl, Method::Exact).is_err());
        assert_eq!(file.counters().snapshot().full_scans, 0, "no build ran");
    }
}
