//! Rendering of run records: tables, CSV, ASCII charts, and the summary
//! statistics quoted in the paper's text (speedups at a query index,
//! overall speedups, time-vs-objects correlation).

use crate::runner::MethodRun;

/// Per-query CSV with one time, objects, bytes, read-calls, blocks-read,
/// blocks-skipped, http-requests, http-bytes, retries, fetch-inflight-peak,
/// overlap-ratio, parts-resized, cache-hits, cache-misses, cache-evictions,
/// cache-spill-bytes, cache-mem-bytes, and lock-wait column per method;
/// loadable into any plotting tool to re-draw Figure 2 (times/objects),
/// compare storage backends (bytes, blocks_read/blocks_skipped — the
/// zone-map pushdown meters), quantify the batched-pipeline win
/// (read_calls, lock_wait_ms), audit a remote run (http_requests/http_bytes
/// — the request-coalescing meters — retries, the fault-recovery meter, and
/// fetch_inflight_peak/overlap_ratio/parts_resized — the overlapped
/// fetch-pipeline and adaptive part-sizing meters — and
/// fetch_p50_us/fetch_p99_us — approximate per-request latency quantiles
/// from the log2-bucketed fetch histogram), or trace the tiered
/// block cache (cache_hits/cache_misses/cache_evictions/cache_spill_bytes
/// are per-query deltas; cache_mem_bytes is the memory-tier level after the
/// query — a gauge, not a delta), audit the synopsis tier
/// (synopsis_hits/synopsis_blocks/synopsis_bytes — a hit is a query
/// answered with zero data I/O purely from block synopses), or check the
/// pre-evaluation cost model (predicted_bytes — the bytes an exact run of
/// the query was predicted to read, an upper bound the cost-estimate gate
/// tracks against the metered bytes), or follow a streaming session
/// (rows_ingested/compactions/blocks_rewritten/cache_invalidations are
/// per-query deltas; delta_blocks is the append-order block count still
/// alive after the query — a gauge the compactor drives back down).
pub fn to_csv(runs: &[MethodRun]) -> String {
    let mut header = String::from("query");
    for r in runs {
        header.push_str(&format!(
            ",{l}_time_ms,{l}_objects,{l}_bytes,{l}_read_calls,{l}_blocks_read,\
             {l}_blocks_skipped,{l}_http_requests,{l}_http_bytes,{l}_retries,\
             {l}_fetch_inflight_peak,{l}_overlap_ratio,{l}_parts_resized,\
             {l}_fetch_p50_us,{l}_fetch_p99_us,\
             {l}_cache_hits,{l}_cache_misses,{l}_cache_evictions,\
             {l}_cache_spill_bytes,{l}_cache_mem_bytes,\
             {l}_synopsis_hits,{l}_synopsis_blocks,{l}_synopsis_bytes,\
             {l}_rows_ingested,{l}_delta_blocks,{l}_compactions,\
             {l}_blocks_rewritten,{l}_cache_invalidations,\
             {l}_predicted_bytes,{l}_lock_wait_ms",
            l = r.label
        ));
    }
    let n = runs.iter().map(|r| r.records.len()).max().unwrap_or(0);
    let mut out = header;
    out.push('\n');
    for i in 0..n {
        out.push_str(&(i + 1).to_string());
        for r in runs {
            match r.records.get(i) {
                Some(rec) => out.push_str(&format!(
                    ",{:.3},{},{},{},{},{},{},{},{},{},{:.3},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{:.3}",
                    rec.elapsed.as_secs_f64() * 1e3,
                    rec.objects_read,
                    rec.bytes_read,
                    rec.read_calls,
                    rec.blocks_read,
                    rec.blocks_skipped,
                    rec.http_requests,
                    rec.http_bytes,
                    rec.retries,
                    rec.fetch_inflight_peak,
                    rec.overlap_ratio,
                    rec.parts_resized,
                    rec.fetch_hist.p50_us(),
                    rec.fetch_hist.p99_us(),
                    rec.cache_hits,
                    rec.cache_misses,
                    rec.cache_evictions,
                    rec.cache_spill_bytes,
                    rec.cache_mem_bytes,
                    rec.synopsis_hits,
                    rec.synopsis_blocks,
                    rec.synopsis_bytes,
                    rec.rows_ingested,
                    rec.delta_blocks,
                    rec.compactions,
                    rec.blocks_rewritten,
                    rec.cache_invalidations,
                    rec.predicted_bytes,
                    rec.lock_wait.as_secs_f64() * 1e3
                )),
                None => out.push_str(",,,,,,,,,,,,,,,,,,,,,,,,,,,,,"),
            }
        }
        out.push('\n');
    }
    out
}

/// A compact fixed-width table of per-query times (ms).
pub fn time_table(runs: &[MethodRun]) -> String {
    let n = runs.iter().map(|r| r.records.len()).max().unwrap_or(0);
    let mut out = format!("{:>5} ", "query");
    for r in runs {
        out.push_str(&format!("{:>14} ", format!("{} (ms)", r.label)));
    }
    out.push('\n');
    for i in 0..n {
        out.push_str(&format!("{:>5} ", i + 1));
        for r in runs {
            match r.records.get(i) {
                Some(rec) => out.push_str(&format!("{:>14.3} ", rec.elapsed.as_secs_f64() * 1e3)),
                None => out.push_str(&format!("{:>14} ", "-")),
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
    let speedup_at_focus = {
        let e = window(&et, focus0);
        let a = window(&at, focus0);
        if a > 0.0 {
            e / a
        } else {
            f64::INFINITY
        }
    };

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

    let total_e: f64 = et.iter().sum();
    let total_a: f64 = at.iter().sum();
    ComparisonSummary {
        label: approx.label.clone(),
        overall_speedup: if total_a > 0.0 {
            total_e / total_a
        } else {
            f64::INFINITY
        },
        speedup_at_focus,
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
    use crate::runner::{Method, QueryRecord};
    use pai_common::AggregateValue;
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
                elapsed: Duration::from_millis(t),
                objects_read: o,
                bytes_read: b,
                read_calls: 2,
                blocks_read: 4,
                blocks_skipped: 1,
                http_requests: 3,
                http_bytes: 512,
                retries: 1,
                fetch_inflight_peak: 1,
                overlap_ratio: 1.0,
                parts_resized: 0,
                fetch_hist: pai_common::LatencyHistogram::new(),
                cache_hits: 0,
                cache_misses: 0,
                cache_evictions: 0,
                cache_spill_bytes: 0,
                cache_mem_bytes: 0,
                lock_wait: Duration::ZERO,
                synopsis_hits: 0,
                synopsis_blocks: 0,
                synopsis_bytes: 0,
                rows_ingested: 7,
                delta_blocks: 5,
                compactions: 2,
                blocks_rewritten: 6,
                cache_invalidations: 3,
                predicted_bytes: 6 * b,
                selected: 100,
                tiles_partial: 4,
                tiles_processed: 2,
                tiles_split: 2,
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
             exact_fetch_inflight_peak,exact_overlap_ratio,exact_parts_resized,\
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
             phi=5%_parts_resized,phi=5%_fetch_p50_us,phi=5%_fetch_p99_us,\
             phi=5%_cache_hits,phi=5%_cache_misses,phi=5%_cache_evictions,\
             phi=5%_cache_spill_bytes,phi=5%_cache_mem_bytes,\
             phi=5%_synopsis_hits,phi=5%_synopsis_blocks,phi=5%_synopsis_bytes,\
             phi=5%_rows_ingested,phi=5%_delta_blocks,phi=5%_compactions,\
             phi=5%_blocks_rewritten,phi=5%_cache_invalidations,\
             phi=5%_predicted_bytes,phi=5%_lock_wait_ms"
        );
        assert_eq!(
            lines.next().unwrap(),
            "1,10.000,100,4096,2,4,1,3,512,1,1,1.000,0,0,0,0,0,0,0,0,0,0,0,7,5,2,6,3,24576,0.000,\
             5.000,50,2048,2,4,1,3,512,1,1,1.000,0,0,0,0,0,0,0,0,0,0,0,7,5,2,6,3,12288,0.000"
        );
        assert_eq!(csv.lines().count(), 3);
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
                line.contains(&format!(",{},{},", rec.bytes_read, rec.read_calls)),
                "row {i} must carry the metered byte and call counts: {line}"
            );
        }
    }

    #[test]
    fn table_contains_all_methods() {
        let runs = vec![
            fake_run("exact", &[10], &[1], &[64]),
            fake_run("phi=1%", &[3], &[1], &[64]),
        ];
        let t = time_table(&runs);
        assert!(t.contains("exact (ms)"));
        assert!(t.contains("phi=1% (ms)"));
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
