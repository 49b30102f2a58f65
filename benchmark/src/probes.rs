//! Per-layer probes of a traced run: direct calls into one layer's public
//! functions with inputs taken from the workload, made before the measured
//! phase on a *second handle* of the workload's file (its own counters), so
//! they can perturb neither adaptation state nor the deterministic meters.

use std::hint::black_box;
use std::time::Instant;

use partial_adaptive_indexing::pai_query::run_workload;
use partial_adaptive_indexing::pai_storage::ground_truth::window_truth;
use partial_adaptive_indexing::prelude::*;

use crate::fixture::init_config;
use crate::metrics::{MetricSet, PER_LAYER};
use crate::oracle::{Truth, ATTRS};
use crate::stats::median;
use crate::tracer::Tracer;
use crate::workloads::{Query, Verifier};

/// Windows the `read_rows` / `classify` probes replay.
const PROBE_WINDOWS: usize = 20;
/// Queries in the `run_workload` slice.
const RUNNER_SLICE: usize = 50;

/// The per-layer set as the probes leave it (everything else still 0), and
/// what later derivations need from them.
pub struct Layers {
    pub metrics: MetricSet,
    /// Wall time of the full-scan probe (s), for `index.build_self_ms`.
    pub scan_s: f64,
}

fn spanned<R>(tracer: &mut Tracer, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    tracer.record(name, None, 0, start, end);
    (out, (end - start).as_secs_f64())
}

/// Median `ValinorIndex::classify` time (µs) over the probe windows.
pub fn classify_us(index: &ValinorIndex, queries: &[Query]) -> f64 {
    let times: Vec<f64> = queries
        .iter()
        .take(PROBE_WINDOWS)
        .map(|q| {
            let t = Instant::now();
            black_box(index.classify(&q.rect));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}

/// Runs the storage, index and runner probes against `file`.
/// `cross_checks` windows are also answered by `window_truth` and compared
/// with the oracle (each comparison is a verified operation).
#[allow(clippy::too_many_arguments)]
pub fn run(
    file: &dyn RawFile,
    queries: &[Query],
    truths: &[Truth],
    aggs: &[AggregateFunction],
    engine: &EngineConfig,
    cross_checks: usize,
    verifier: &mut Verifier,
    tracer: &mut Tracer,
) -> Result<Layers> {
    let mut m = MetricSet::zeroed(&PER_LAYER);
    // storage: one sequential scan, touching one value per row.
    let mut rows = 0u64;
    let (scanned, scan_s) = spanned(tracer, "probe.storage.scan", || {
        file.scan(&mut |_, _, rec| {
            rows += 1;
            black_box(rec.f64(2)?);
            Ok(())
        })
    });
    scanned?;
    m.set(
        "storage.scan_mb_per_s",
        file.size_bytes() as f64 / 1e6 / scan_s,
    );
    m.set("storage.scan_ns_per_row", scan_s * 1e9 / rows.max(1) as f64);

    // index: a crude index of the probe handle, for locators and the cold
    // classification cost.
    let (built, _) = spanned(tracer, "probe.index.build", || build(file, &init_config()));
    let (crude, _) = built?;
    m.set("index.classify_cold_us", classify_us(&crude, queries));

    // storage: positional reads of the first windows' selected objects.
    let (mut objects, mut read_s, mut calls_us) = (0usize, 0.0, Vec::new());
    for q in queries.iter().take(PROBE_WINDOWS) {
        let locators: Vec<RowLocator> = crude
            .leaves_overlapping(&q.rect)
            .into_iter()
            .flat_map(|id| crude.tile(id).selected_locators(&q.rect))
            .collect();
        if locators.is_empty() {
            continue;
        }
        let (values, s) = spanned(tracer, "probe.storage.read_rows", || {
            file.read_rows(&locators, &[2])
        });
        black_box(values?);
        objects += locators.len();
        read_s += s;
        calls_us.push(s * 1e6);
    }
    if objects > 0 {
        m.set(
            "storage.read_rows_ns_per_obj",
            read_s * 1e9 / objects as f64,
        );
        m.set("storage.read_rows_us_per_call", median(&calls_us));
    }

    // storage: pushed-down window scans, cross-checked against the oracle.
    let before = file.counters().snapshot();
    let mut scan_ms = Vec::new();
    for q in queries.iter().take(cross_checks) {
        let (truth, s) = spanned(tracer, "probe.storage.window_scan", || {
            window_truth(file, &q.rect, &ATTRS)
        });
        let truth = truth?;
        scan_ms.push(s * 1e3);
        let want = &truths[q.truth];
        let same = truth[0].selected == want.count
            && truth.iter().enumerate().all(|(i, t)| {
                let close = (t.stats.sum() - want.sum[i]).abs() <= 1e-9 * want.sum[i].abs();
                let ends = want.count == 0
                    || (t.stats.min() == Some(want.min[i]) && t.stats.max() == Some(want.max[i]));
                close && ends
            });
        verifier.record(
            || format!("oracle cross-check {:?}", q.win),
            if same {
                Ok(())
            } else {
                Err(format!(
                    "window_truth selected {} rows, the oracle {}",
                    truth[0].selected, want.count
                ))
            },
        );
    }
    let io = file.counters().snapshot().since(&before);
    m.set("storage.window_scan_ms", median(&scan_ms));
    if io.blocks_read + io.blocks_skipped > 0 {
        m.set(
            "storage.blocks_skipped_frac",
            io.blocks_skipped as f64 / (io.blocks_read + io.blocks_skipped) as f64,
        );
    }

    // query: the runner's own cost around `evaluate` on a short slice.
    let slice = Workload::new(
        "probe-slice",
        queries
            .iter()
            .take(RUNNER_SLICE)
            .map(|q| WindowQuery::new(q.rect, aggs.to_vec()))
            .collect(),
    );
    let (run, wall_s) = spanned(tracer, "probe.query.run_workload", || {
        run_workload(
            file,
            &init_config(),
            engine,
            &slice,
            Method::Approx { phi: 0.05 },
        )
    });
    let run = run?;
    let evaluate_s = run.total_elapsed().as_secs_f64();
    m.set(
        "query.runner_overhead_frac",
        (wall_s - run.init_elapsed.as_secs_f64()) / evaluate_s - 1.0,
    );
    Ok(Layers { metrics: m, scan_s })
}
