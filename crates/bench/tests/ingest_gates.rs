//! Streaming-ingest gates: delta blocks and the compactor, against an
//! [`AppendableFile`] whose delta section is streamed through
//! `SharedIndex::ingest` in [`INGEST_BATCH`]-row batches:
//!
//! * **skipping recovery** — append order scatters the stream across the
//!   domain, so the sealed delta blocks' zone maps prune almost nothing.
//!   One compaction pass must restore at least **80%** of the
//!   `blocks_skipped` a statically Z-ordered twin of the same rows
//!   achieves on the same window workload (and the pre-compaction stream
//!   must demonstrably skip less, or the gate proves nothing);
//! * **ingest-while-explore bit-identity** — the same scripted session
//!   (ingest a batch, query, repeat) runs twice, once with the background
//!   compactor racing it and once without. Every answer — values, CIs,
//!   error bounds — must be bit-identical: compaction permutes layout,
//!   never content, and the engine's answers may not depend on where a
//!   row physically lives. Full-domain φ = 0 counts are additionally
//!   checked against the exact running row count after every batch.
//!
//! Both compare meters and answers, not wall-clock, so both run in debug
//! builds too.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pai_common::geometry::Rect;
use pai_common::{AggregateFunction, IoSnapshot};
use pai_core::{
    compact_now, spawn_compactor, ApproxResult, CompactorConfig, EngineConfig, SharedIndex,
};
use pai_index::init::{build, GridSpec, InitConfig};
use pai_index::MetadataPolicy;
use pai_storage::ground_truth::window_truth;
use pai_storage::raw::SynopsisSpec;
use pai_storage::{AppendableFile, CsvFormat, DatasetSpec, MemFile, RawFile};

/// Rows the stream appends on top of the sealed base (which holds the same
/// row count again): twelve sealed delta blocks.
const INGEST_ROWS: u64 = 6144;

/// Rows per `SharedIndex::ingest` batch.
const INGEST_BATCH: usize = 512;

/// Sealed-delta-block size for the gates: small enough that the stream seals
/// a dozen blocks, so skipping ratios are measured on a real
/// population rather than two or three blocks.
const DELTA_BLOCK_ROWS: u32 = 512;

/// The aggregates every gated query asks for.
const AGGS: [AggregateFunction; 3] = [
    AggregateFunction::Count,
    AggregateFunction::Sum(2),
    AggregateFunction::Mean(2),
];

/// The sealed base half of every gate's file.
fn base_spec() -> DatasetSpec {
    DatasetSpec {
        rows: INGEST_ROWS,
        columns: 4,
        seed: 77,
        ..Default::default()
    }
}

/// Deterministic in-domain rows whose append order deliberately scatters
/// across the domain (a low-discrepancy walk), so un-compacted sealed
/// blocks span nearly everything and prune nearly nothing.
fn stream_rows(spec: &DatasetSpec, n: usize, salt: u64) -> Vec<Vec<f64>> {
    let d = spec.domain;
    (0..n)
        .map(|i| {
            let t = (i as u64 * 37 + salt * 13) % 1000;
            let fx = (t as f64 + 0.5) / 1000.0;
            let fy = ((t as f64 * 7.0) % 1000.0 + 0.5) / 1000.0;
            vec![
                d.x_min + fx * (d.x_max - d.x_min),
                d.y_min + fy * (d.y_max - d.y_min),
                100.0 + (salt * 1000 + i as u64) as f64,
                -3.0 * i as f64,
            ]
        })
        .collect()
}

/// The whole stream, pre-cut into ingest batches (one salt per batch).
fn stream_batches(spec: &DatasetSpec) -> Vec<Vec<Vec<f64>>> {
    let total = INGEST_ROWS as usize;
    let batch = INGEST_BATCH;
    let mut out = Vec::new();
    let mut produced = 0usize;
    while produced < total {
        let n = batch.min(total - produced);
        out.push(stream_rows(spec, n, out.len() as u64));
        produced += n;
    }
    out
}

/// A fresh appendable file over the sealed generated base.
fn fresh_appendable(spec: &DatasetSpec) -> AppendableFile<MemFile> {
    let base = spec.build_mem(CsvFormat::default()).expect("generate base");
    AppendableFile::with_layout(base, spec.rows, DELTA_BLOCK_ROWS, SynopsisSpec::default())
        .expect("wrap base")
}

fn init_config(spec: &DatasetSpec) -> InitConfig {
    InitConfig {
        grid: GridSpec::Fixed { nx: 6, ny: 6 },
        domain: Some(spec.domain),
        metadata: MetadataPolicy::AllNumeric,
    }
}

/// The gate workload: a window marching across the domain, each covering
/// ~9% of the area and none aligned to the 6×6 init grid (so φ = 0 answers
/// must refine partial tiles and actually read delta rows).
fn gate_windows(spec: &DatasetSpec) -> Vec<Rect> {
    let d = spec.domain;
    let (w, h) = (d.x_max - d.x_min, d.y_max - d.y_min);
    (0..8)
        .map(|i| {
            let fx = 0.03 + 0.08 * (i as f64);
            let fy = 0.05 + 0.07 * ((i * 3) % 8) as f64;
            Rect::new(
                d.x_min + fx * w,
                d.x_min + (fx + 0.3) * w,
                d.y_min + fy * h,
                d.y_min + (fy + 0.3) * h,
            )
        })
        .collect()
}

/// Runs the gate workload as exact windowed scans over `file` — the
/// storage seam where zone-map pruning earns its keep (the engine's
/// window-only fetches request in-window locators whose blocks always
/// intersect the window, so `blocks_skipped` is a scan-path meter by
/// design). Returns each window's exact (count, sum of column 2).
fn run_workload(file: &AppendableFile<MemFile>, windows: &[Rect]) -> (Vec<(u64, f64)>, IoSnapshot) {
    file.counters().reset();
    let results = windows
        .iter()
        .map(|w| {
            let truth = window_truth(file, w, &[2]).expect("window scan");
            let t = truth.first().expect("one truth row");
            (t.selected, t.stats.sum())
        })
        .collect();
    (results, file.counters().snapshot())
}

/// After one compaction pass, the streamed session's zone-map skipping
/// recovers at least 80% of what a statically Z-ordered twin of the same
/// rows achieves — and the un-compacted stream must skip less, or the
/// recovery claim is vacuous.
#[test]
fn compaction_recovers_skipping() {
    let spec = base_spec();
    let batches = stream_batches(&spec);
    let windows = gate_windows(&spec);

    // Static Z-order reference: the same delta rows, compacted into the
    // same Morton layout a static writer would have produced, before any
    // query runs.
    let reference = fresh_appendable(&spec);
    for batch in &batches {
        reference.append_rows(batch).expect("append reference");
    }
    reference
        .compact_once(&spec.domain, 1)
        .expect("compact reference")
        .expect("reference had sealed blocks");
    let (ref_res, ref_io) = run_workload(&reference, &windows);
    assert!(
        ref_io.blocks_skipped > 0,
        "the reference workload must exercise zone-map pruning at all"
    );

    // Streamed contender: ingest through the shared index with queries
    // interleaved (the live ingest-while-explore session), no compaction.
    let streamed = fresh_appendable(&spec);
    let (index, _) = build(&streamed, &init_config(&spec)).expect("init");
    let shared =
        SharedIndex::new(index, streamed, EngineConfig::paper_evaluation()).expect("shared");
    let mut expected = spec.rows as f64;
    for (i, batch) in batches.iter().enumerate() {
        let receipt = shared.ingest(batch).expect("ingest batch");
        assert_eq!(receipt.locators.len(), batch.len());
        expected += batch.len() as f64;
        let live = shared
            .evaluate(&windows[i % windows.len()], &AGGS, 0.0)
            .expect("live query");
        assert!(live.met_constraint, "φ = 0 answers are exact");
        let count = shared
            .evaluate(&spec.domain, &[AggregateFunction::Count], 0.0)
            .expect("running count");
        assert_eq!(
            count.values[0].as_f64().unwrap(),
            expected,
            "batch {i}: every ingested row is visible to the next query"
        );
    }

    let (raw_res, raw_io) = run_workload(shared.file(), &windows);
    let report = compact_now(&shared, 1)
        .expect("compact streamed")
        .expect("streamed session had a cold run");
    assert!(report.generation >= 1);
    let (cmp_res, cmp_io) = run_workload(shared.file(), &windows);

    assert!(
        raw_io.blocks_skipped < cmp_io.blocks_skipped,
        "append order must skip less than the compacted layout \
         ({} vs {}), or recovery means nothing",
        raw_io.blocks_skipped,
        cmp_io.blocks_skipped
    );
    assert!(
        cmp_io.blocks_skipped as f64 >= 0.8 * ref_io.blocks_skipped as f64,
        "compaction must recover ≥80% of static Z-order skipping: \
         {} recovered vs {} static",
        cmp_io.blocks_skipped,
        ref_io.blocks_skipped
    );

    // Same rows, same windows ⇒ same answers, however the file was built.
    // Counts are exact integers; sums tolerate summation-order rounding
    // (Morton-key ties land in file order, which differs between the twins).
    for (i, (&(ac, asum), &(bc, bsum))) in cmp_res.iter().zip(&ref_res).enumerate() {
        assert_eq!(
            ac, bc,
            "window {i}: exact count diverged from the static twin"
        );
        assert!(
            (asum - bsum).abs() <= 1e-9 * (1.0 + bsum.abs()),
            "window {i}: exact sum diverged from the static twin ({asum} vs {bsum})"
        );
        let &(rc, _) = &raw_res[i];
        assert_eq!(
            rc, bc,
            "window {i}: the un-compacted scan already lost rows"
        );
    }

    println!(
        "ingest gate (recovery): {} skipped un-compacted → {} after compaction \
         (static reference {}, {} blocks rewritten)",
        raw_io.blocks_skipped,
        cmp_io.blocks_skipped,
        ref_io.blocks_skipped,
        report.blocks_rewritten
    );
}

/// One scripted ingest-while-explore session: ingest a batch, query a
/// marching window, check the exact running count, repeat — optionally
/// with the background compactor racing the whole script.
fn scripted_session(
    spec: &DatasetSpec,
    batches: &[Vec<Vec<f64>>],
    windows: &[Rect],
    with_compactor: bool,
) -> (Vec<ApproxResult>, Duration, IoSnapshot) {
    let file = fresh_appendable(spec);
    let (index, _) = build(&file, &init_config(spec)).expect("init");
    let shared =
        Arc::new(SharedIndex::new(index, file, EngineConfig::paper_evaluation()).expect("shared"));
    let handle = with_compactor.then(|| {
        spawn_compactor(
            Arc::clone(&shared),
            CompactorConfig {
                min_run: 2,
                interval: Duration::from_millis(1),
            },
        )
    });

    let t0 = Instant::now();
    let mut answers = Vec::new();
    let mut expected = spec.rows as f64;
    for (i, batch) in batches.iter().enumerate() {
        shared.ingest(batch).expect("ingest batch");
        expected += batch.len() as f64;
        answers.push(
            shared
                .evaluate(&windows[i % windows.len()], &AGGS, 0.0)
                .expect("window query"),
        );
        let count = shared
            .evaluate(&spec.domain, &[AggregateFunction::Count], 0.0)
            .expect("running count");
        assert_eq!(
            count.values[0].as_f64().unwrap(),
            expected,
            "batch {i}: running count lost rows mid-stream"
        );
    }
    let wall = t0.elapsed();

    if let Some(handle) = handle {
        let stats = handle.stop();
        assert!(
            stats.compactions >= 1,
            "the stream sealed {} blocks; the compactor must have rewritten",
            shared.file().sealed_blocks()
        );
        assert_eq!(stats.errors, 0, "compactor passes must not error");
    }
    let truth = window_truth(shared.file(), &spec.domain, &[2]).expect("ground truth");
    assert_eq!(
        truth.first().expect("one truth row").stats.count(),
        spec.rows + INGEST_ROWS,
        "the file holds exactly base + streamed rows"
    );
    let io = shared.file().counters().snapshot();
    (answers, wall, io)
}

/// With the compactor racing the session, every answer is bit-identical to
/// the compactor-free run — values, CIs, and bounds.
#[test]
fn concurrent_compaction_is_invisible() {
    let spec = base_spec();
    let batches = stream_batches(&spec);
    let windows = gate_windows(&spec);

    let (racing, racing_wall, racing_io) = scripted_session(&spec, &batches, &windows, true);
    let (quiet, quiet_wall, quiet_io) = scripted_session(&spec, &batches, &windows, false);

    assert!(racing_io.compactions >= 1, "the racing run compacted");
    assert_eq!(quiet_io.compactions, 0, "the quiet run never compacted");
    for (i, (a, b)) in racing.iter().zip(&quiet).enumerate() {
        for (j, (av, bv)) in a.values.iter().zip(&b.values).enumerate() {
            assert_eq!(
                av.as_f64().map(f64::to_bits),
                bv.as_f64().map(f64::to_bits),
                "query {i} aggregate {j}: value drifted under the racing compactor"
            );
        }
        for (j, (ac, bc)) in a.cis.iter().zip(&b.cis).enumerate() {
            let bits = |ci: &Option<pai_common::Interval>| {
                ci.map(|ci| (ci.lo().to_bits(), ci.hi().to_bits()))
            };
            assert_eq!(
                bits(ac),
                bits(bc),
                "query {i} aggregate {j}: CI drifted under the racing compactor"
            );
        }
        assert_eq!(
            a.error_bound.to_bits(),
            b.error_bound.to_bits(),
            "query {i}: error bound drifted under the racing compactor"
        );
    }
    println!(
        "ingest gate (bit-identity): {} answers identical with the compactor racing \
         ({} compactions, {} blocks rewritten; racing {:?} vs quiet {:?})",
        racing.len(),
        racing_io.compactions,
        racing_io.blocks_rewritten,
        racing_wall,
        quiet_wall
    );
}
