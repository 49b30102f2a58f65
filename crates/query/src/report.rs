//! Rendering of run records: tables, CSV, ASCII charts, and the summary
//! statistics quoted in the paper's text (speedups at a query index,
//! overall speedups, time-vs-objects correlation).

use crate::runner::{MethodRun, QueryRecord};

/// One per-method column of [`to_csv`]: its name after `<label>_`, and its
/// cell for one query.
type Column = (&'static str, fn(&QueryRecord) -> String);

/// The cell of an integer read off the query's [`pai_common::IoSnapshot`].
macro_rules! io {
    ($($meter:tt)+) => { |r| r.stats.io.$($meter)+.to_string() };
}

/// The columns of [`to_csv`], in order. The I/O meters are the query's
/// deltas, except `cache_mem_bytes` and `delta_blocks`, which are levels
/// after the query (gauges); `fetch_p50_us`/`fetch_p99_us` are approximate
/// quantiles of the log2-bucketed fetch histogram; `predicted_bytes` is what
/// an exact run of the query was predicted to read before it ran.
#[rustfmt::skip]
const COLUMNS: &[Column] = &[
    ("time_ms", |r| format!("{:.3}", r.stats.elapsed.as_secs_f64() * 1e3)),
    ("objects", io!(objects_read)),
    ("bytes", io!(bytes_read)),
    ("read_calls", io!(read_calls)),
    ("blocks_read", io!(blocks_read)),
    ("blocks_skipped", io!(blocks_skipped)),
    ("http_requests", io!(http_requests)),
    ("http_bytes", io!(http_bytes)),
    ("retries", io!(retries)),
    ("fetch_inflight_peak", io!(fetch_inflight_peak)),
    ("overlap_ratio", |r| format!("{:.3}", r.stats.io.overlap_ratio())),
    ("fetch_p50_us", io!(fetch_hist.p50_us())),
    ("fetch_p99_us", io!(fetch_hist.p99_us())),
    ("cache_hits", io!(cache_hits)),
    ("cache_misses", io!(cache_misses)),
    ("cache_evictions", io!(cache_evictions)),
    ("cache_spill_bytes", io!(cache_spill_bytes)),
    ("cache_mem_bytes", io!(cache_mem_bytes)),
    ("synopsis_hits", io!(synopsis_hits)),
    ("synopsis_blocks", io!(synopsis_blocks)),
    ("synopsis_bytes", io!(synopsis_bytes)),
    ("rows_ingested", io!(rows_ingested)),
    ("delta_blocks", io!(delta_blocks)),
    ("compactions", io!(compactions)),
    ("blocks_rewritten", io!(blocks_rewritten)),
    ("cache_invalidations", io!(cache_invalidations)),
    ("predicted_bytes", |r| r.predicted_bytes.to_string()),
    ("lock_wait_ms", |r| format!("{:.3}", r.stats.lock_wait.as_secs_f64() * 1e3)),
];

/// Per-query CSV, one row per query and every `COLUMNS` entry once per
/// method (blank where a method ran fewer queries): loadable into any
/// plotting tool to re-draw Figure 2 (times/objects), compare storage
/// backends, or audit a remote, cached, synopsis or streaming run.
pub fn to_csv(runs: &[MethodRun]) -> String {
    let mut out = String::from("query");
    for r in runs {
        for (name, _) in COLUMNS {
            out.push_str(&format!(",{}_{name}", r.label));
        }
    }
    out.push('\n');
    let n = runs.iter().map(|r| r.records.len()).max().unwrap_or(0);
    for i in 0..n {
        out.push_str(&(i + 1).to_string());
        for r in runs {
            let rec = r.records.get(i);
            for (_, cell) in COLUMNS {
                out.push(',');
                if let Some(rec) = rec {
                    out.push_str(&cell(rec));
                }
            }
        }
        out.push('\n');
    }
    out
}

/// Renders several series as an ASCII line chart (queries on the x-axis),
/// one plot character per series: the Figure 2 look, in a terminal.
pub fn ascii_chart(series: &[(String, Vec<f64>)], width: usize, height: usize) -> String {
    assert!(width >= 16 && height >= 6, "chart raster too small");
    let n = series.iter().map(|(_, v)| v.len()).max().unwrap_or(0);
    let max = series
        .iter()
        .flat_map(|(_, v)| v.iter().copied())
        .fold(0.0f64, f64::max);
    if n == 0 || max <= 0.0 {
        return String::from("(no data)\n");
    }
    let marks = ['*', 'o', '+', 'x', '#', '@'];
    let mut grid = vec![vec![' '; width]; height];
    for (si, (_, vals)) in series.iter().enumerate() {
        let mark = marks[si % marks.len()];
        for (i, &v) in vals.iter().enumerate() {
            let col = if n == 1 { 0 } else { i * (width - 1) / (n - 1) };
            let row_f = (1.0 - (v / max).clamp(0.0, 1.0)) * (height - 1) as f64;
            let row = (row_f.round() as usize).min(height - 1);
            grid[row][col] = mark;
        }
    }
    let mut out = String::new();
    out.push_str(&format!("max = {max:.4}\n"));
    for row in grid {
        out.push('|');
        out.extend(row);
        out.push('\n');
    }
    out.push('+');
    out.extend(std::iter::repeat_n('-', width));
    out.push('\n');
    for (si, (label, _)) in series.iter().enumerate() {
        out.push_str(&format!("  {} {}\n", marks[si % marks.len()], label));
    }
    out
}

/// Summary comparing approximate runs to an exact baseline: the quantities
/// the paper's §4 quotes in prose.
#[derive(Debug, Clone)]
pub struct ComparisonSummary {
    pub label: String,
    /// total_exact / total_approx over the whole sequence.
    pub overall_speedup: f64,
    /// Speedup at a specific query index (the paper quotes query 20),
    /// averaged over a +-2 window to damp noise.
    pub speedup_at_focus: f64,
    pub focus_query: usize,
    /// Mean per-query time in each third of the sequence (early/mid/late).
    pub phase_means_secs: [f64; 3],
    /// Ratio of total objects read vs. the exact run.
    pub objects_ratio: f64,
    /// Ratio of total bytes read vs. the exact run (the meter that moves
    /// when the same workload runs against a different storage backend).
    pub bytes_ratio: f64,
    /// Ratio of total `read_rows` calls vs. the exact run (the meter that
    /// moves when the same workload runs with a different `adapt_batch`).
    pub read_calls_ratio: f64,
}

/// Pearson correlation between two equal-length series (used to check the
/// paper's claim that evaluation time follows objects read).
pub fn series_correlation(a: &[f64], b: &[f64]) -> Option<f64> {
    if a.len() != b.len() || a.len() < 2 {
        return None;
    }
    let n = a.len() as f64;
    let (sa, sb): (f64, f64) = (a.iter().sum(), b.iter().sum());
    let (ma, mb) = (sa / n, sb / n);
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma).powi(2);
        vb += (y - mb).powi(2);
    }
    if va <= 0.0 || vb <= 0.0 {
        return None;
    }
    Some(cov / (va.sqrt() * vb.sqrt()))
}

/// Mean of a slice (0 for empty).
fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Builds the comparison summary of `approx` against `exact` with the focus
/// query index (1-based, like the paper's "query 20").
pub fn summarize(exact: &MethodRun, approx: &MethodRun, focus_query: usize) -> ComparisonSummary {
    let et = exact.time_series_secs();
    let at = approx.time_series_secs();
    let n = et.len().min(at.len());

    let window = |series: &[f64], center: usize| -> f64 {
        let lo = center.saturating_sub(3);
        let hi = (center + 2).min(series.len());
        mean(&series[lo..hi])
    };
    let focus0 = focus_query.min(n); // 1-based center, clamped
    let speedup = |e: f64, a: f64| if a > 0.0 { e / a } else { f64::INFINITY };

    let thirds = |series: &[f64]| -> [f64; 3] {
        let k = series.len() / 3;
        if k == 0 {
            return [mean(series); 3];
        }
        [
            mean(&series[..k]),
            mean(&series[k..2 * k]),
            mean(&series[2 * k..]),
        ]
    };

    ComparisonSummary {
        label: approx.label.clone(),
        overall_speedup: speedup(et.iter().sum(), at.iter().sum()),
        speedup_at_focus: speedup(window(&et, focus0), window(&at, focus0)),
        focus_query,
        phase_means_secs: thirds(&at),
        objects_ratio: approx.total_objects_read() as f64
            / exact.total_objects_read().max(1) as f64,
        bytes_ratio: approx.total_bytes_read() as f64 / exact.total_bytes_read().max(1) as f64,
        read_calls_ratio: approx.total_read_calls() as f64 / exact.total_read_calls().max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Method;
    use pai_common::{AggregateValue, IoSnapshot};
    use pai_index::QueryStats;
    use std::time::Duration;

    /// Synthetic run for the pure-math helpers (charts, correlation,
    /// summaries). Byte counts are explicit inputs, never derived from
    /// object counts — real runs carry real meter values (see
    /// `csv_embeds_real_meter_bytes`).
    fn fake_run(label: &str, times_ms: &[u64], objects: &[u64], bytes: &[u64]) -> MethodRun {
        let records = times_ms
            .iter()
            .zip(objects)
            .zip(bytes)
            .enumerate()
            .map(|(i, ((&t, &o), &b))| QueryRecord {
                query_index: i,
                stats: QueryStats {
                    elapsed: Duration::from_millis(t),
                    io: IoSnapshot {
                        objects_read: o,
                        bytes_read: b,
                        read_calls: 2,
                        blocks_read: 4,
                        blocks_skipped: 1,
                        http_requests: 3,
                        http_bytes: 512,
                        retries: 1,
                        fetch_inflight_peak: 1,
                        fetch_request_us: 10,
                        fetch_wall_us: 10,
                        rows_ingested: 7,
                        delta_blocks: 5,
                        compactions: 2,
                        blocks_rewritten: 6,
                        cache_invalidations: 3,
                        ..IoSnapshot::default()
                    },
                    selected: 100,
                    tiles_partial: 4,
                    tiles_processed: 2,
                    tiles_split: 2,
                    ..QueryStats::default()
                },
                predicted_bytes: 6 * b,
                error_bound: 0.01,
                values: vec![AggregateValue::Float(1.0)],
            })
            .collect();
        MethodRun {
            label: label.into(),
            method: Method::Exact,
            init_elapsed: Duration::from_millis(5),
            records,
        }
    }

    #[test]
    fn csv_shape() {
        let runs = vec![
            fake_run("exact", &[10, 20], &[100, 200], &[4096, 8192]),
            fake_run("phi=5%", &[5, 5], &[50, 40], &[2048, 1600]),
        ];
        let csv = to_csv(&runs);
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "query,exact_time_ms,exact_objects,exact_bytes,exact_read_calls,exact_blocks_read,\
             exact_blocks_skipped,exact_http_requests,exact_http_bytes,exact_retries,\
             exact_fetch_inflight_peak,exact_overlap_ratio,\
             exact_fetch_p50_us,exact_fetch_p99_us,\
             exact_cache_hits,exact_cache_misses,exact_cache_evictions,\
             exact_cache_spill_bytes,exact_cache_mem_bytes,\
             exact_synopsis_hits,exact_synopsis_blocks,exact_synopsis_bytes,\
             exact_rows_ingested,exact_delta_blocks,exact_compactions,\
             exact_blocks_rewritten,exact_cache_invalidations,\
             exact_predicted_bytes,\
             exact_lock_wait_ms,phi=5%_time_ms,phi=5%_objects,phi=5%_bytes,\
             phi=5%_read_calls,phi=5%_blocks_read,phi=5%_blocks_skipped,phi=5%_http_requests,\
             phi=5%_http_bytes,phi=5%_retries,phi=5%_fetch_inflight_peak,phi=5%_overlap_ratio,\
             phi=5%_fetch_p50_us,phi=5%_fetch_p99_us,\
             phi=5%_cache_hits,phi=5%_cache_misses,phi=5%_cache_evictions,\
             phi=5%_cache_spill_bytes,phi=5%_cache_mem_bytes,\
             phi=5%_synopsis_hits,phi=5%_synopsis_blocks,phi=5%_synopsis_bytes,\
             phi=5%_rows_ingested,phi=5%_delta_blocks,phi=5%_compactions,\
             phi=5%_blocks_rewritten,phi=5%_cache_invalidations,\
             phi=5%_predicted_bytes,phi=5%_lock_wait_ms"
        );
        assert_eq!(
            lines.next().unwrap(),
            "1,10.000,100,4096,2,4,1,3,512,1,1,1.000,0,0,0,0,0,0,0,0,0,0,7,5,2,6,3,24576,0.000,\
             5.000,50,2048,2,4,1,3,512,1,1,1.000,0,0,0,0,0,0,0,0,0,0,7,5,2,6,3,12288,0.000"
        );
        assert_eq!(csv.lines().count(), 3);

        // A method that ran fewer queries leaves its cells blank.
        let runs = vec![
            fake_run("exact", &[10, 20], &[100, 200], &[4096, 8192]),
            fake_run("phi=5%", &[5], &[50], &[2048]),
        ];
        assert_eq!(
            to_csv(&runs).lines().nth(2).unwrap(),
            "2,20.000,200,8192,2,4,1,3,512,1,1,1.000,0,0,0,0,0,0,0,0,0,0,7,5,2,6,3,49152,0.000,\
             ,,,,,,,,,,,,,,,,,,,,,,,,,,,"
        );
    }

    #[test]
    fn csv_embeds_real_meter_bytes() {
        use pai_core::EngineConfig;
        use pai_index::init::{GridSpec, InitConfig};
        use pai_index::MetadataPolicy;
        use pai_storage::{CsvFormat, DatasetSpec, RawFile};

        // A real mini-run: the bytes column must mirror the file's meters,
        // not any objects-derived placeholder.
        let spec = DatasetSpec {
            rows: 2500,
            columns: 4,
            seed: 19,
            ..Default::default()
        };
        let file = spec.build_mem(CsvFormat::default()).unwrap();
        let init = InitConfig {
            grid: GridSpec::Fixed { nx: 5, ny: 5 },
            domain: Some(spec.domain),
            metadata: MetadataPolicy::AllNumeric,
        };
        let wl = crate::Workload::shifted_sequence(
            &spec.domain,
            crate::Workload::centered_window(&spec.domain, 0.05),
            6,
            vec![pai_common::AggregateFunction::Mean(2)],
            3,
        );
        file.counters().reset();
        let run = crate::runner::run_workload(
            &file,
            &init,
            &EngineConfig::paper_evaluation(),
            &wl,
            Method::Approx { phi: 0.05 },
        )
        .unwrap();
        let metered = file.counters().bytes_read() - file.size_bytes(); // minus init scan
        assert_eq!(run.total_bytes_read(), metered);
        assert!(metered > 0);
        assert!(
            run.total_read_calls() > 0,
            "adaptive runs issue positional reads"
        );
        let csv = to_csv(std::slice::from_ref(&run));
        assert!(csv.lines().next().unwrap().ends_with("phi=5%_lock_wait_ms"));
        for (i, rec) in run.records.iter().enumerate() {
            let line = csv.lines().nth(i + 1).unwrap();
            assert!(
                line.contains(&format!(
                    ",{},{},",
                    rec.stats.io.bytes_read, rec.stats.io.read_calls
                )),
                "row {i} must carry the metered byte and call counts: {line}"
            );
        }
    }

    #[test]
    fn chart_renders_and_scales() {
        let series = vec![
            ("a".to_string(), vec![1.0, 2.0, 3.0, 4.0]),
            ("b".to_string(), vec![4.0, 3.0, 2.0, 1.0]),
        ];
        let chart = ascii_chart(&series, 40, 10);
        assert!(chart.contains("max = 4.0000"));
        assert!(chart.contains('*') && chart.contains('o'));
        assert!(chart.contains("  * a"));
        // Empty series degrade gracefully.
        assert_eq!(ascii_chart(&[], 40, 10), "(no data)\n");
    }

    #[test]
    fn correlation_known_cases() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let up = [2.0, 4.0, 6.0, 8.0];
        let down = [8.0, 6.0, 4.0, 2.0];
        assert!((series_correlation(&a, &up).unwrap() - 1.0).abs() < 1e-12);
        assert!((series_correlation(&a, &down).unwrap() + 1.0).abs() < 1e-12);
        assert_eq!(series_correlation(&a, &[1.0, 1.0, 1.0, 1.0]), None);
        assert_eq!(series_correlation(&a, &[1.0]), None);
    }

    #[test]
    fn summary_speedups() {
        // Exact run: 10 ms/query; approx: 2 ms/query -> overall speedup 5.
        let exact = fake_run("exact", &[10; 30], &[1000; 30], &[50_000; 30]);
        let approx = fake_run("phi=5%", &[2; 30], &[100; 30], &[4_000; 30]);
        let s = summarize(&exact, &approx, 20);
        assert!((s.overall_speedup - 5.0).abs() < 1e-9);
        assert!((s.speedup_at_focus - 5.0).abs() < 1e-9);
        assert!((s.objects_ratio - 0.1).abs() < 1e-9);
        assert!((s.bytes_ratio - 0.08).abs() < 1e-9);
        assert!((s.read_calls_ratio - 1.0).abs() < 1e-9);
        assert_eq!(s.focus_query, 20);
        for m in s.phase_means_secs {
            assert!((m - 0.002).abs() < 1e-9);
        }
    }
}
