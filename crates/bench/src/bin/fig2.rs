//! Regenerates **Figure 2** of the paper and its in-text claims (C1–C4):
//! evaluation time per query for a 50-query shifted exploration sequence,
//! under exact answering and under 1 % / 5 % accuracy constraints.
//!
//! Usage:
//! ```text
//! cargo run -p pai-bench --release --bin fig2
//! PAI_BENCH_ROWS=1000000 cargo run -p pai-bench --release --bin fig2
//! ```
//!
//! Output: an ASCII rendition of the figure, the per-query CSV (written to
//! `fig2_results.csv` in the working directory), and the summary numbers
//! the paper quotes in §4 (speedups at query 20, overall speedups, the
//! time-vs-objects correlation, early/late phase behaviour).

use pai_bench::{cached_csv, env_u64, fig2_setup};
use pai_query::report::{ascii_chart, series_correlation, summarize, to_csv};
use pai_query::{compare_methods, Method};
use pai_storage::RawFile;

fn main() {
    let setup = fig2_setup(
        env_u64("PAI_BENCH_ROWS", 200_000),
        env_u64("PAI_BENCH_QUERIES", 50) as usize,
    );
    println!(
        "Figure 2 reproduction: {} rows, {} columns, {} queries, window fraction {:.1}% (paper: 11 GB / ~100K-object windows / 50 queries)",
        setup.spec.rows,
        setup.spec.columns,
        setup.workload.len(),
        setup.window_fraction * 100.0,
    );
    let file = cached_csv(&setup.spec);
    println!(
        "dataset: in-situ CSV ({:.1} MiB)\n",
        file.size_bytes() as f64 / (1024.0 * 1024.0)
    );

    let methods = [
        Method::Exact,
        Method::Approx { phi: 0.01 },
        Method::Approx { phi: 0.05 },
    ];
    let runs = compare_methods(&file, &setup.init, &setup.engine, &setup.workload, &methods)
        .expect("figure 2 runs");

    // --- the figure ---------------------------------------------------------
    let series: Vec<(String, Vec<f64>)> = runs
        .iter()
        .map(|r| (r.label.clone(), r.time_series_secs()))
        .collect();
    println!("Evaluation time per query (seconds):");
    println!("{}", ascii_chart(&series, 100, 24));

    let objects: Vec<(String, Vec<f64>)> = runs
        .iter()
        .map(|r| (format!("{} objects", r.label), r.objects_series()))
        .collect();
    println!("Objects read from the raw file per query:");
    println!("{}", ascii_chart(&objects, 100, 16));

    // --- per-query data -------------------------------------------------------
    let csv = to_csv(&runs);
    std::fs::write("fig2_results.csv", &csv).expect("write fig2_results.csv");
    println!("per-query data written to fig2_results.csv\n");

    // --- the paper's in-text claims ------------------------------------------
    let exact = &runs[0];
    println!("== summary vs paper claims ==");
    for approx in &runs[1..] {
        let s = summarize(exact, approx, 20);
        println!(
            "{}: overall speedup {:.2}x | speedup around query 20: {:.2}x | objects read: {:.1}% of exact | phase means (early/mid/late): {:.4}s / {:.4}s / {:.4}s",
            s.label,
            s.overall_speedup,
            s.speedup_at_focus,
            100.0 * s.objects_ratio,
            s.phase_means_secs[0],
            s.phase_means_secs[1],
            s.phase_means_secs[2],
        );
    }
    println!("paper (C1): at query 20, 5% ≈ 4x faster, 1% ≈ 2x faster than exact");
    println!("paper (C2): whole scenario, 5% ≈ 40% and 1% ≈ 30% faster overall");

    // C3: evaluation time closely follows objects read.
    println!("\n== C3: time-vs-objects correlation (per method) ==");
    for r in &runs {
        match series_correlation(&r.time_series_secs(), &r.objects_series()) {
            Some(c) => println!("{}: Pearson r = {:.3}", r.label, c),
            None => println!("{}: degenerate series", r.label),
        }
    }

    // C4: early-phase advantage and the late-phase crossover.
    println!("\n== C4: phase behaviour ==");
    let phase = |r: &pai_query::MethodRun, lo: usize, hi: usize| -> f64 {
        let t = r.time_series_secs();
        let hi = hi.min(t.len());
        t[lo..hi].iter().sum::<f64>() / (hi - lo).max(1) as f64
    };
    let n = setup.workload.len();
    for r in &runs {
        println!(
            "{:>8}: first-10 mean {:.4}s | last-10 mean {:.4}s",
            r.label,
            phase(r, 0, 10),
            phase(r, n.saturating_sub(10), n),
        );
    }
    let exact_late = phase(&runs[0], n.saturating_sub(10), n);
    let approx5_late = phase(&runs[2], n.saturating_sub(10), n);
    println!(
        "late phase: exact {} the 5% method (paper: exact becomes comparable or slightly faster once adapted)",
        if exact_late <= approx5_late * 1.1 { "has caught up with" } else { "is still slower than" }
    );

    // Accuracy audit: error bounds honoured on every approximate query.
    println!("\n== accuracy audit ==");
    for r in &runs[1..] {
        let max_bound = r
            .records
            .iter()
            .map(|q| q.error_bound)
            .fold(0.0f64, f64::max);
        let phi = match r.method {
            Method::Approx { phi } => phi,
            Method::Exact => unreachable!(),
        };
        println!(
            "{}: max reported bound {:.4}% (constraint {:.1}%) — {}",
            r.label,
            max_bound * 100.0,
            phi * 100.0,
            if max_bound <= phi { "OK" } else { "VIOLATION" }
        );
        assert!(max_bound <= phi, "constraint violated");
    }
}
