//! Concurrent access to one shared adaptive index.
//!
//! An exploration dashboard typically renders several linked views at once
//! (map window, heatmap, summary panel) while the user keeps interacting.
//! [`SharedIndex`] supports that pattern with a `parking_lot` read-write
//! lock:
//!
//! * any number of **readers** run [`SharedIndex::estimate`] concurrently —
//!   metadata-only answers with confidence intervals, zero file I/O;
//! * **adaptive queries** ([`SharedIndex::evaluate`]) run the engine's one
//!   evaluation loop — the loop behind [`crate::ApproximateEngine`] — through
//!   a handle that guards each of its index views with the lock and never
//!   holds it across file I/O:
//!   1. *classify and plan* under the **read lock** — readers keep running;
//!   2. *fetch* with **no lock held** — the expensive stage. With
//!      `fetch_workers > 1` the batch's fetch units stream in overlapped,
//!      each unit's plans applying while later units are still in flight;
//!   3. *apply* each plan under **its own short write lock**, after the
//!      optimistic version check ([`pai_index::still_applies`]) at that
//!      plan's apply moment: if another writer split the tile underneath a
//!      plan, the plan is discarded and the region re-plans from the refined
//!      children. Readers interleave between every apply — no reader ever
//!      waits behind a whole batch.
//!
//!   While no other writer moves the index the loop updates its state in
//!   place, exactly as a single owner does, so a served answer equals the
//!   library's bit for bit; after a foreign write it re-classifies and
//!   rebuilds the state, folding the tiles it already processed.
//!
//! Lock-wait time and plan conflicts are surfaced in
//! [`QueryStats::lock_wait`] / [`QueryStats::plan_conflicts`] so dashboards
//! can watch contention.
//!
//! The raw file itself needs no locking: [`RawFile`] implementations open
//! independent handles per batch and their meters are atomic.

use std::time::{Duration, Instant};

use pai_common::geometry::Rect;
use pai_common::{AggregateFunction, Result};
use pai_index::eval::{query_attrs, QueryStats};
use pai_index::ValinorIndex;
use pai_storage::raw::{AppendReceipt, RawFile};
use parking_lot::RwLock;

use crate::config::EngineConfig;
use crate::engine::{estimate_readonly, synopsis_hit, ApproxResult, EvalCtx, IndexHandle};

/// The evaluation loop's view of a locked index: a read lock for each
/// shared view, a write lock for each mutable one, and the time spent
/// waiting for both.
struct Shared<'a>(&'a RwLock<ValinorIndex>, Duration);

impl IndexHandle for Shared<'_> {
    fn read<R>(&mut self, f: impl FnOnce(&ValinorIndex) -> R) -> R {
        let t0 = Instant::now();
        let index = self.0.read();
        self.1 += t0.elapsed();
        f(&index)
    }

    fn write<R>(&mut self, f: impl FnOnce(&mut ValinorIndex) -> R) -> R {
        let t0 = Instant::now();
        let mut index = self.0.write();
        self.1 += t0.elapsed();
        f(&mut index)
    }

    fn lock_wait(&self) -> Duration {
        self.1
    }
}

/// A thread-safe wrapper around one index + raw file + engine config.
pub struct SharedIndex<F: RawFile> {
    index: RwLock<ValinorIndex>,
    file: F,
    config: EngineConfig,
}

impl<F: RawFile> SharedIndex<F> {
    pub fn new(index: ValinorIndex, file: F, config: EngineConfig) -> Result<Self> {
        config.validate()?;
        Ok(SharedIndex {
            index: RwLock::new(index),
            file,
            config,
        })
    }

    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    pub fn file(&self) -> &F {
        &self.file
    }

    /// Metadata-only estimate under a read lock: any number of these run in
    /// parallel, never touch the file, never mutate the index — and, since
    /// adaptive writers only take the write lock for the brief apply stage,
    /// they are never blocked behind a writer's file I/O either.
    pub fn estimate(&self, window: &Rect, aggs: &[AggregateFunction]) -> Result<ApproxResult> {
        let t0 = Instant::now();
        let index = self.index.read();
        let wait = t0.elapsed();
        let mut res = estimate_readonly(&index, window, aggs)?;
        res.stats.lock_wait = wait;
        Ok(res)
    }

    /// Zero-I/O answer composed purely from the backend's block synopses,
    /// under a read lock: never touches the data path, never adapts the
    /// index, ticks only the synopsis meters. `Ok(None)` when the backend
    /// carries no synopses or they cannot bound some requested aggregate.
    /// Works regardless of [`EngineConfig::synopsis`] — the flag gates the
    /// *adaptive* paths' automatic synopsis tier (tried when the index's
    /// metadata misses φ), while this method is the explicit reader entry
    /// point (dashboard panels, the concurrent stress harness) and asks the
    /// synopses whatever the index would answer.
    pub fn estimate_synopsis(
        &self,
        window: &Rect,
        aggs: &[AggregateFunction],
    ) -> Result<Option<ApproxResult>> {
        let t0 = Instant::now();
        let io0 = self.file.counters().snapshot();
        query_attrs(self.file.schema(), aggs)?;
        let Some(blocks) = self.file.block_synopses() else {
            return Ok(None);
        };
        let lw = Instant::now();
        let index = self.index.read();
        let wait = lw.elapsed();
        let classification = index.classify(window);
        let Some(hit) = synopsis_hit(
            &index,
            &self.file,
            blocks,
            window,
            aggs,
            classification.selected_total,
            f64::INFINITY,
        ) else {
            return Ok(None);
        };
        let stats = QueryStats {
            selected: classification.selected_total,
            tiles_full: classification.full.len(),
            tiles_partial: classification.partial.len(),
            io: self.file.counters().snapshot().since(&io0),
            elapsed: t0.elapsed(),
            lock_wait: wait,
            ..Default::default()
        };
        Ok(Some(ApproxResult { stats, ..hit }))
    }

    /// Accuracy-constrained evaluation through the engine's evaluation
    /// loop, under the read-write lock; adapts the shared index so every
    /// subsequent reader starts tighter.
    ///
    /// Readers are never blocked by this method's file I/O: locks are held
    /// only to classify and plan (read lock) and for each in-memory apply
    /// (write lock). Concurrent writers may refine the same region; plans
    /// whose tile changed underneath them are detected by an index version
    /// check and discarded (counted in `QueryStats::plan_conflicts`), and the
    /// affected region re-plans against the winner's refined tiles on the
    /// next round. With no other writer the answer, its trajectory and its
    /// meters are those of [`crate::ApproximateEngine::evaluate`].
    pub fn evaluate(
        &self,
        window: &Rect,
        aggs: &[AggregateFunction],
        phi: f64,
    ) -> Result<ApproxResult> {
        EvalCtx {
            index: Shared(&self.index, Duration::ZERO),
            file: &self.file,
            config: &self.config,
        }
        .accuracy(window, aggs, phi, None)
    }

    /// Streaming ingest through the same plan → fetch → apply discipline
    /// as queries: the batch appends to the raw file with **no lock held**
    /// (the backend has its own append latching), then the new entries
    /// extend the index under one short write lock. Readers observe either
    /// none or all of the batch; adaptive writers racing this method keep
    /// their plans (ingest only appends to a leaf's entries) and their
    /// applies install no whole-tile statistics on a leaf that grew since
    /// planning (see [`pai_index::still_applies`]).
    ///
    /// The whole batch is validated — arity and index domain, which is all
    /// that can make an insert fail and does not depend on how far the index
    /// has been refined — *before* any mutation, so a rejected batch neither
    /// appends nor indexes: callers can retry or drop it without tearing
    /// state. Entries are indexed in append order, which keeps a streamed
    /// session's index trajectory identical to one built statically from
    /// the same base+appended rows.
    pub fn ingest(&self, rows: &[Vec<f64>]) -> Result<AppendReceipt> {
        self.index.read().check_ingest_rows(rows)?;
        let receipt = self.file.append_rows(rows)?;
        self.index.write().ingest_rows(rows, &receipt.locators)?;
        Ok(receipt)
    }

    /// Runs a closure against a read-locked snapshot of the index (for
    /// analytics like `pai_query::analytics::heatmap`).
    pub fn with_index<R>(&self, f: impl FnOnce(&ValinorIndex) -> R) -> R {
        f(&self.index.read())
    }

    /// Consumes the wrapper, returning the index.
    pub fn into_index(self) -> ValinorIndex {
        self.index.into_inner()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ApproximateEngine;
    use pai_index::init::{build, GridSpec, InitConfig};
    use pai_index::MetadataPolicy;
    use pai_storage::ground_truth::window_truth;
    use pai_storage::{CsvFormat, DatasetSpec, MemFile};
    use std::sync::Arc;

    fn shared_with(rows: u64, config: EngineConfig) -> (Arc<SharedIndex<MemFile>>, DatasetSpec) {
        let spec = DatasetSpec {
            rows,
            columns: 4,
            seed: 71,
            ..Default::default()
        };
        let file = spec.build_mem(CsvFormat::default()).unwrap();
        let init = InitConfig {
            grid: GridSpec::Fixed { nx: 6, ny: 6 },
            domain: Some(spec.domain),
            metadata: MetadataPolicy::AllNumeric,
        };
        let (index, _) = build(&file, &init).unwrap();
        (
            Arc::new(SharedIndex::new(index, file, config).unwrap()),
            spec,
        )
    }

    fn shared(rows: u64) -> (Arc<SharedIndex<MemFile>>, DatasetSpec) {
        shared_with(rows, EngineConfig::paper_evaluation())
    }

    #[test]
    fn estimates_run_without_io() {
        let (shared, _) = shared(2000);
        shared.file().counters().reset();
        let res = shared
            .estimate(
                &Rect::new(100.0, 500.0, 100.0, 500.0),
                &[AggregateFunction::Mean(2)],
            )
            .unwrap();
        assert_eq!(shared.file().counters().objects_read(), 0);
        assert!(res.error_bound.is_finite());
    }

    #[test]
    fn evaluate_adapts_shared_state_for_readers() {
        let (shared, _) = shared(3000);
        let window = Rect::new(150.0, 600.0, 150.0, 600.0);
        let aggs = [AggregateFunction::Mean(2)];
        let before = shared.estimate(&window, &aggs).unwrap();
        shared.evaluate(&window, &aggs, 0.01).unwrap();
        let after = shared.estimate(&window, &aggs).unwrap();
        assert!(
            after.error_bound <= before.error_bound + 1e-12,
            "adaptation tightens reader estimates: {} -> {}",
            before.error_bound,
            after.error_bound
        );
    }

    #[test]
    fn pipelined_evaluate_is_sound_and_meets_phi() {
        let (shared, _) = shared(4000);
        let window = Rect::new(150.0, 650.0, 200.0, 700.0);
        let aggs = [AggregateFunction::Sum(2), AggregateFunction::Mean(2)];
        let res = shared.evaluate(&window, &aggs, 0.05).unwrap();
        assert!(res.met_constraint);
        assert!(res.error_bound <= 0.05);
        let truth = window_truth(shared.file(), &window, &[2]).unwrap();
        assert!(
            res.cis[0].unwrap().contains(truth[0].stats.sum()),
            "sum CI {} must contain truth {}",
            res.cis[0].unwrap(),
            truth[0].stats.sum()
        );
        assert!(res.cis[1].unwrap().contains(truth[0].stats.mean().unwrap()));
        shared.with_index(|idx| idx.validate_invariants().unwrap());
    }

    /// An engine over a copy of `shared`'s index, on the same file and
    /// config.
    fn engine_beside(shared: &SharedIndex<MemFile>) -> ApproximateEngine<'_> {
        let index = shared.with_index(ValinorIndex::clone);
        ApproximateEngine::new(index, shared.file(), shared.config().clone()).unwrap()
    }

    #[test]
    fn shared_exact_matches_engine_exact() {
        // With no other writer the shared index runs the engine's loop: at
        // phi = 0 every tile resolves, in the same order, to the same bits.
        let (shared, _) = shared(2500);
        let mut engine = engine_beside(&shared);
        let window = Rect::new(120.0, 640.0, 120.0, 640.0);
        let aggs = [AggregateFunction::Sum(3), AggregateFunction::Count];
        let rs = shared.evaluate(&window, &aggs, 0.0).unwrap();
        let re = engine.evaluate(&window, &aggs, 0.0).unwrap();
        assert_eq!(rs.error_bound, 0.0);
        let bits = |r: &ApproxResult| -> Vec<Option<u64>> {
            r.values
                .iter()
                .map(|v| v.as_f64().map(f64::to_bits))
                .collect()
        };
        assert_eq!(bits(&rs), bits(&re));
        assert_eq!(rs.cis, re.cis);
        assert_eq!(rs.stats.tiles_processed, re.stats.tiles_processed);
        assert!(rs.stats.tiles_processed > 0, "the window must adapt");
    }

    #[test]
    fn shared_evaluate_honours_eager_refinement() {
        let eager = EngineConfig {
            eager: crate::EagerRefinement::ExtraTiles(3),
            ..EngineConfig::paper_evaluation()
        };
        let (lazy, _) = shared(4000);
        let (shared, _) = shared_with(4000, eager);
        let mut engine = engine_beside(&shared);
        let window = Rect::new(100.0, 700.0, 100.0, 700.0);
        let aggs = [AggregateFunction::Mean(2)];
        let rl = lazy.evaluate(&window, &aggs, 0.10).unwrap();
        let rs = shared.evaluate(&window, &aggs, 0.10).unwrap();
        let re = engine.evaluate(&window, &aggs, 0.10).unwrap();
        assert_eq!(rs.stats.tiles_processed, re.stats.tiles_processed);
        assert!(
            rs.stats.tiles_processed > rl.stats.tiles_processed,
            "eager refinement processed nothing extra: {} vs {}",
            rs.stats.tiles_processed,
            rl.stats.tiles_processed
        );
    }

    #[test]
    fn repeated_pipelined_query_needs_no_io() {
        let (shared, _) = shared(3000);
        let window = Rect::new(100.0, 500.0, 100.0, 500.0);
        let aggs = [AggregateFunction::Mean(2)];
        let r1 = shared.evaluate(&window, &aggs, 0.0).unwrap();
        assert!(r1.stats.io.objects_read > 0, "first pass adapts");
        let r2 = shared.evaluate(&window, &aggs, 0.0).unwrap();
        assert!(
            r2.stats.io.objects_read < r1.stats.io.objects_read,
            "adaptation persisted: the repeat is cheaper ({} vs {})",
            r2.stats.io.objects_read,
            r1.stats.io.objects_read
        );
        assert_eq!(r2.stats.plan_conflicts, 0, "single writer never conflicts");
    }

    #[test]
    fn concurrent_readers_and_writers() {
        let (shared, spec) = shared(5000);
        let domain = spec.domain;
        std::thread::scope(|s| {
            // Writers: adaptive queries walking across the domain.
            for t in 0..2 {
                let shared = Arc::clone(&shared);
                s.spawn(move || {
                    for i in 0..8 {
                        let off = (t * 50 + i * 40) as f64;
                        let w = Rect::new(100.0 + off, 400.0 + off, 100.0 + off, 400.0 + off)
                            .clamped_into(&domain);
                        let res = shared
                            .evaluate(&w, &[AggregateFunction::Sum(2)], 0.05)
                            .unwrap();
                        assert!(res.met_constraint);
                    }
                });
            }
            // Readers: concurrent metadata estimates.
            for _ in 0..4 {
                let shared = Arc::clone(&shared);
                s.spawn(move || {
                    for i in 0..20 {
                        let off = (i * 17 % 500) as f64;
                        let w = Rect::new(off, off + 300.0, off, off + 300.0).clamped_into(&domain);
                        let res = shared.estimate(&w, &[AggregateFunction::Mean(2)]).unwrap();
                        assert!(res.error_bound >= 0.0);
                    }
                });
            }
        });
        shared.with_index(|idx| idx.validate_invariants().unwrap());
    }

    #[test]
    fn batched_shared_evaluate_is_sound() {
        let (shared, _) = shared_with(
            4000,
            EngineConfig {
                adapt_batch: 6,
                ..EngineConfig::paper_evaluation()
            },
        );
        let window = Rect::new(180.0, 700.0, 150.0, 620.0);
        let aggs = [AggregateFunction::Sum(2)];
        let res = shared.evaluate(&window, &aggs, 0.02).unwrap();
        assert!(res.met_constraint);
        let truth = window_truth(shared.file(), &window, &[2]).unwrap();
        // Fully-resolved answers give point CIs whose float merge order can
        // differ from the sequential scan's; compare with endpoint slack.
        let ci = res.cis[0].unwrap();
        let t = truth[0].stats.sum();
        assert!(
            ci.contains(t)
                || (t - ci.lo()).abs() < 1e-9 * (1.0 + ci.lo().abs())
                || (t - ci.hi()).abs() < 1e-9 * (1.0 + ci.hi().abs()),
            "truth {t} escaped CI {ci}"
        );
        shared.with_index(|idx| idx.validate_invariants().unwrap());
    }

    #[test]
    fn with_index_supports_analytics_snapshots() {
        let (shared, _) = shared(1000);
        let leaves = shared.with_index(|idx| idx.leaf_count());
        assert!(leaves >= 36);
    }
}
