//! Zone-map pushdown and batched-fetch gates over the simulated remote link
//! ([`pai_storage::LatencyFile`], per-call + per-seek delay — the
//! object-store cost model):
//!
//! * **batched fetch** — the same workload with `adapt_batch = 8` must beat
//!   `adapt_batch = 1` outright: coalescing tiles into one `read_rows`
//!   call dodges per-call round trips;
//! * **pushdown** — per-query ground-truth scans on `PaiZone` must beat the
//!   same image scanned with no window pushed down: skipped blocks are round
//!   trips never paid.
//!
//! Both compare wall-clock, so both run in release builds only:
//! `cargo test --release -p pai-bench --test pushdown_gates --
//! --include-ignored --test-threads=1`.

use std::time::{Duration, Instant};

use pai_bench::{cached_zone, small_setup, NoPushdown};
use pai_core::EngineConfig;
use pai_query::{run_workload, Method};
use pai_storage::ground_truth::window_truth;
use pai_storage::{LatencyFile, RawFile};

/// A remote link where the per-request round trip dominates: 5ms per
/// request, 50µs per seek. What batching dodges.
fn call_bound_remote(inner: Box<dyn RawFile>) -> LatencyFile {
    LatencyFile::new(inner, Duration::from_millis(5), Duration::from_micros(50))
}

/// A remote link where ranged GETs dominate: 1ms per request, 200µs per
/// seek (per discontiguous span). What pushdown dodges.
fn seek_bound_remote(inner: Box<dyn RawFile>) -> LatencyFile {
    LatencyFile::new(inner, Duration::from_millis(1), Duration::from_micros(200))
}

/// Batched fetch beats tile-at-a-time under injected latency.
#[test]
#[cfg_attr(debug_assertions, ignore = "wall-clock gate: run with --release")]
fn batched_fetch_wins_under_latency() {
    let setup = small_setup(20_000);
    let method = Method::Approx { phi: 0.05 };
    let timed_run = |batch: usize| -> (Duration, u64) {
        let file = call_bound_remote(Box::new(cached_zone(&setup.spec)));
        file.counters().reset();
        let engine = EngineConfig {
            adapt_batch: batch,
            ..setup.engine.clone()
        };
        let t0 = Instant::now();
        let run = run_workload(&file, &setup.init, &engine, &setup.workload, method)
            .expect("latency run");
        (t0.elapsed(), run.total_read_calls())
    };
    let (seq_elapsed, seq_calls) = timed_run(1);
    let (batch_elapsed, batch_calls) = timed_run(8);
    assert!(
        batch_calls < seq_calls,
        "batching must coalesce calls: {batch_calls} vs {seq_calls}"
    );
    assert!(
        batch_elapsed < seq_elapsed,
        "batched fetch must beat tile-at-a-time under latency: \
         {batch_elapsed:?} (batch=8, {batch_calls} calls) vs \
         {seq_elapsed:?} (batch=1, {seq_calls} calls)"
    );
    println!(
        "latency gate (batching): batch=1 {seq_elapsed:?}/{seq_calls} calls, \
         batch=8 {batch_elapsed:?}/{batch_calls} calls ({:.2}x faster)",
        seq_elapsed.as_secs_f64() / batch_elapsed.as_secs_f64()
    );
}

/// Pushdown truth scans beat full scans under injected latency.
#[test]
#[cfg_attr(debug_assertions, ignore = "wall-clock gate: run with --release")]
fn pushdown_wins_under_latency() {
    // 50k rows = 13 blocks: enough zone-map granularity for the ~2%-area
    // workload windows to prove most stripes dead.
    let setup = small_setup(50_000);
    let timed_truth = |file: &dyn RawFile| -> Duration {
        let t0 = Instant::now();
        for q in &setup.workload.queries {
            window_truth(file, &q.window, &[2]).expect("truth");
        }
        t0.elapsed()
    };
    let unpushed = seek_bound_remote(Box::new(NoPushdown(cached_zone(&setup.spec))));
    let unpushed_elapsed = timed_truth(&unpushed);
    let zone = seek_bound_remote(Box::new(cached_zone(&setup.spec)));
    let zone_elapsed = timed_truth(&zone);
    assert!(
        zone.counters().blocks_skipped() > 0,
        "the truth pass must exercise zone-map skipping"
    );
    assert!(
        zone_elapsed < unpushed_elapsed,
        "pushdown must dodge remote round trips: {zone_elapsed:?} vs {unpushed_elapsed:?}"
    );
    println!(
        "latency gate (pushdown): unpushed {unpushed_elapsed:?}, zone {zone_elapsed:?} \
         ({:.2}x faster, {} blocks skipped)",
        unpushed_elapsed.as_secs_f64() / zone_elapsed.as_secs_f64(),
        zone.counters().blocks_skipped()
    );
}
