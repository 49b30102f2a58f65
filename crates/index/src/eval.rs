//! Exact query answering — the paper's baseline method.
//!
//! For every query, the exact engine (a) answers covered tiles from their
//! exact metadata — an inner tile's for its whole subtree — enriching the
//! leaves below them with one tile-wide read where the requested
//! attribute's stats are missing, and (b) **processes every
//! partially-contained tile**: reads the selected objects, splits the tile,
//! and computes subtile metadata. This is the adaptive-indexing behaviour of
//! V ALINOR/RawVis; the approximate engine in `pai-core` differs only in
//! processing a *subset* of the partial tiles.

use std::time::{Duration, Instant};

use pai_common::counters::IoSnapshot;
use pai_common::geometry::Rect;
use pai_common::{AggregateFunction, AggregateValue, AttrId, PaiError, Result, RunningStats};
use pai_storage::raw::RawFile;

use crate::adapt::{enrich_tile_timed, process_tile_timed};
use crate::config::AdaptConfig;
use crate::index::ValinorIndex;

/// Where one query's time went, stage by stage; the stages add up to
/// [`QueryStats::elapsed`].
///
/// A query that refines in rounds adds every round's share to the same five
/// stages. Time spent waiting for an index lock sits in the stage that waited
/// (and, on its own, in [`QueryStats::lock_wait`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimes {
    /// Classifying the window's tiles and folding the covered ones' metadata
    /// into the query's state.
    pub classify: Duration,
    /// Choosing the next tiles and planning their reads.
    pub plan: Duration,
    /// Reading the planned objects from the raw file — with an overlapped
    /// fetch, the time the apply stage waited for them.
    pub fetch: Duration,
    /// Installing what was read: splits, reorganized entries, metadata.
    pub apply: Duration,
    /// Estimates, confidence intervals and the error bound — a synopsis pass
    /// included — and, for the exact engine, merging the statistics.
    pub assess: Duration,
}

impl StageTimes {
    /// The five stages together.
    pub fn total(&self) -> Duration {
        self.classify + self.plan + self.fetch + self.apply + self.assess
    }
}

/// The stopwatch behind [`StageTimes`] and [`QueryStats::elapsed`]: read at
/// stage boundaries only, each reading is the time since the one before, so
/// nothing between the first and the last goes uncounted.
#[derive(Debug)]
pub struct StageClock {
    start: Instant,
    last: Instant,
}

impl StageClock {
    /// Starts the clock, and its first lap.
    pub fn start() -> Self {
        let start = Instant::now();
        StageClock { start, last: start }
    }

    /// The time since the previous lap ended; a new one starts.
    pub fn lap(&mut self) -> Duration {
        let now = Instant::now();
        now - std::mem::replace(&mut self.last, now)
    }

    /// From the start to the end of the last lap: the laps together.
    pub fn elapsed(&self) -> Duration {
        self.last - self.start
    }
}

/// Per-query execution metrics, shared by the exact and approximate engines.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryStats {
    pub elapsed: Duration,
    /// `elapsed` by stage. The clock is read where one stage hands over to
    /// the next and nowhere else: three times for an answer from metadata
    /// alone, about four more for every tile read.
    pub stages: StageTimes,
    /// Raw-file I/O performed by this query (counter deltas).
    pub io: IoSnapshot,
    /// Objects selected by the window (exact).
    pub selected: u64,
    /// Covering tiles of the classification ([`Classification::full`]):
    /// the highest tiles fully inside the window, leaves or inner tiles —
    /// not the number of leaves the window covers.
    ///
    /// [`Classification::full`]: crate::Classification::full
    pub tiles_full: usize,
    /// Partially-contained tiles in the classification.
    pub tiles_partial: usize,
    /// Partial tiles actually processed (== `tiles_partial` for exact).
    pub tiles_processed: usize,
    /// Tiles split during this query.
    pub tiles_split: usize,
    /// Covered leaves that needed an enrichment read.
    pub tiles_enriched: usize,
    /// Time spent waiting to acquire index locks (zero for engines that
    /// own their index; populated by `pai-core`'s `SharedIndex`).
    pub lock_wait: Duration,
    /// Refinement plans whose structural apply was skipped because the
    /// index changed between planning and applying (optimistic-concurrency
    /// conflicts; always zero for single-owner engines).
    pub plan_conflicts: usize,
}

/// Result of an exact evaluation: one value per requested aggregate.
#[derive(Debug, Clone)]
pub struct ExactResult {
    pub values: Vec<AggregateValue>,
    pub stats: QueryStats,
}

/// Validates a query's aggregates against a schema; returns the distinct
/// non-axis attributes that must be read from the file.
pub fn query_attrs(
    schema: &pai_storage::Schema,
    aggs: &[AggregateFunction],
) -> Result<Vec<AttrId>> {
    if aggs.is_empty() {
        return Err(PaiError::unsupported("query requests no aggregates"));
    }
    let mut attrs = Vec::new();
    for agg in aggs {
        if let Some(a) = agg.attribute() {
            schema.require_numeric(a)?;
            if schema.is_axis(a) {
                return Err(PaiError::unsupported(format!(
                    "aggregating axis column {a} — axis values live in the \
                     index; use the analytics helpers in pai-query instead"
                )));
            }
            if !attrs.contains(&a) {
                attrs.push(a);
            }
        }
    }
    Ok(attrs)
}

/// Converts merged per-attribute stats into the requested aggregate values.
///
/// `selected` is the exact window count (used for `Count`; `Mean` uses the
/// non-null count inside the stats).
pub fn finalize_aggregates(
    aggs: &[AggregateFunction],
    attrs: &[AttrId],
    stats: &[RunningStats],
    selected: u64,
) -> Vec<AggregateValue> {
    let stat_for = |a: AttrId| {
        let i = attrs
            .iter()
            .position(|&x| x == a)
            .expect("attr was collected");
        &stats[i]
    };
    aggs.iter()
        .map(|agg| match *agg {
            AggregateFunction::Count => AggregateValue::Count(selected),
            AggregateFunction::Sum(a) => AggregateValue::Float(stat_for(a).sum()),
            AggregateFunction::Mean(a) => stat_for(a)
                .mean()
                .map_or(AggregateValue::Empty, AggregateValue::Float),
            AggregateFunction::Min(a) => stat_for(a)
                .min()
                .map_or(AggregateValue::Empty, AggregateValue::Float),
            AggregateFunction::Max(a) => stat_for(a)
                .max()
                .map_or(AggregateValue::Empty, AggregateValue::Float),
            AggregateFunction::Variance(a) => stat_for(a)
                .variance()
                .map_or(AggregateValue::Empty, AggregateValue::Float),
            AggregateFunction::StdDev(a) => stat_for(a)
                .std_dev()
                .map_or(AggregateValue::Empty, AggregateValue::Float),
        })
        .collect()
}

/// The exact adaptive-indexing engine (the paper's 100 %-accuracy baseline).
pub struct ExactEngine<'f> {
    index: ValinorIndex,
    file: &'f dyn RawFile,
    cfg: AdaptConfig,
}

impl<'f> ExactEngine<'f> {
    pub fn new(index: ValinorIndex, file: &'f dyn RawFile, cfg: AdaptConfig) -> Result<Self> {
        cfg.validate()?;
        Ok(ExactEngine { index, file, cfg })
    }

    pub fn index(&self) -> &ValinorIndex {
        &self.index
    }

    /// Consumes the engine, returning the (adapted) index.
    pub fn into_index(self) -> ValinorIndex {
        self.index
    }

    /// Evaluates a window-aggregate query exactly, adapting the index.
    pub fn evaluate(&mut self, window: &Rect, aggs: &[AggregateFunction]) -> Result<ExactResult> {
        let mut clock = StageClock::start();
        let io0 = self.file.counters().snapshot();
        let attrs = query_attrs(self.index.schema(), aggs)?;

        let classification = self.index.classify(window);
        let mut merged = vec![RunningStats::new(); attrs.len()];
        let mut stats = QueryStats {
            selected: classification.selected_total,
            tiles_full: classification.full.len(),
            tiles_partial: classification.partial.len(),
            ..Default::default()
        };

        // Covered tiles: metadata, enriching the leaves whose stats are
        // missing.
        let mut covered = Vec::new();
        for &tid in &classification.full {
            self.index
                .resolve_covered(tid, &attrs, &mut |id, exact| covered.push((id, exact)));
        }
        for (tid, exact) in covered {
            if !exact {
                stats.stages.classify += clock.lap();
                let (index, stages) = (&mut self.index, &mut stats.stages);
                let read = enrich_tile_timed(index, self.file, tid, &attrs, stages, &mut clock)?;
                stats.tiles_enriched += usize::from(read > 0);
            }
            let tile = self.index.tile(tid);
            for (i, &a) in attrs.iter().enumerate() {
                let meta = tile.meta.get(a).ok_or_else(|| {
                    PaiError::internal(format!("tile {tid:?} lacks metadata after enrichment"))
                })?;
                let s = meta.exact_stats().ok_or_else(|| {
                    PaiError::internal(format!("tile {tid:?} metadata not exact after enrichment"))
                })?;
                merged[i].merge(s);
            }
        }
        stats.stages.classify += clock.lap();

        // Partially-contained tiles: process every one (exact answering).
        // Merging what they return is the exact engine's `assess`.
        for pt in &classification.partial {
            let out = process_tile_timed(
                &mut self.index,
                self.file,
                pt.tile,
                window,
                &attrs,
                &self.cfg,
                &mut stats.stages,
                &mut clock,
            )?;
            stats.tiles_processed += 1;
            stats.tiles_split += usize::from(out.did_split);
            for (m, s) in merged.iter_mut().zip(&out.in_window) {
                m.merge(s);
            }
            stats.stages.assess += clock.lap();
        }

        stats.io = self.file.counters().snapshot().since(&io0);
        let values = finalize_aggregates(aggs, &attrs, &merged, classification.selected_total);
        stats.stages.assess += clock.lap();
        stats.elapsed = clock.elapsed();
        Ok(ExactResult { values, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MetadataPolicy;
    use crate::init::{build, GridSpec, InitConfig};
    use pai_storage::ground_truth::window_truth;
    use pai_storage::{CsvFormat, DatasetSpec, MemFile, RawFile};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn engine_for(file: &MemFile, nx: usize, metadata: MetadataPolicy) -> ExactEngine<'_> {
        let cfg = InitConfig {
            grid: GridSpec::Fixed { nx, ny: nx },
            domain: None,
            metadata,
        };
        let (idx, _) = build(file, &cfg).unwrap();
        ExactEngine::new(
            idx,
            file,
            AdaptConfig {
                min_split_objects: 4,
                ..Default::default()
            },
        )
        .unwrap()
    }

    fn random_file(rows: u64, seed: u64) -> MemFile {
        let spec = DatasetSpec {
            rows,
            columns: 4,
            seed,
            ..Default::default()
        };
        spec.build_mem(CsvFormat::default()).unwrap()
    }

    #[test]
    fn exact_matches_ground_truth() {
        let file = random_file(2000, 11);
        let mut engine = engine_for(&file, 4, MetadataPolicy::AllNumeric);
        let window = Rect::new(200.0, 600.0, 300.0, 800.0);
        let aggs = [
            AggregateFunction::Count,
            AggregateFunction::Sum(2),
            AggregateFunction::Mean(2),
            AggregateFunction::Min(3),
            AggregateFunction::Max(3),
        ];
        let res = engine.evaluate(&window, &aggs).unwrap();
        let truth = window_truth(&file, &window, &[2, 3]).unwrap();

        assert_eq!(res.values[0], AggregateValue::Count(truth[0].selected));
        let sum = res.values[1].as_f64().unwrap();
        assert!((sum - truth[0].stats.sum()).abs() < 1e-6 * (1.0 + sum.abs()));
        let mean = res.values[2].as_f64().unwrap();
        assert!((mean - truth[0].stats.mean().unwrap()).abs() < 1e-9);
        assert_eq!(res.values[3].as_f64(), truth[1].stats.min());
        assert_eq!(res.values[4].as_f64(), truth[1].stats.max());
        engine.index().validate_invariants().unwrap();
    }

    #[test]
    fn repeated_query_needs_no_io() {
        let file = random_file(3000, 5);
        let mut engine = engine_for(&file, 4, MetadataPolicy::AllNumeric);
        let window = Rect::new(100.0, 500.0, 100.0, 500.0);
        let aggs = [AggregateFunction::Sum(2)];
        let first = engine.evaluate(&window, &aggs).unwrap();
        assert!(first.stats.io.objects_read > 0, "first query adapts");
        let second = engine.evaluate(&window, &aggs).unwrap();
        assert_eq!(
            second.stats.io.objects_read, 0,
            "after adaptation the same query is metadata-only"
        );
        assert_eq!(
            first.values[0].as_f64().unwrap(),
            second.values[0].as_f64().unwrap()
        );
        assert!(second.stats.tiles_processed <= second.stats.tiles_partial);
    }

    #[test]
    fn covered_split_cell_answers_from_its_own_metadata() {
        let file = random_file(3000, 5);
        let mut engine = engine_for(&file, 4, MetadataPolicy::AllNumeric);
        let aggs = [AggregateFunction::Count, AggregateFunction::Sum(2)];
        // A window cutting through one root cell splits it; window-only
        // reads leave the children outside the window with inherited bounds.
        let cell = engine.index().tile(crate::TileId(5)).rect;
        let cut = Rect::new(
            cell.x_min,
            cell.center().x,
            cell.y_min - 1.0,
            cell.y_max + 1.0,
        );
        engine.evaluate(&cut, &aggs).unwrap();
        let index = engine.index();
        let root = index.tile(crate::TileId(5));
        assert!(!root.is_leaf() && root.meta.has_exact(2));
        let bounded = index
            .leaves_overlapping(&cell)
            .into_iter()
            .filter(|&l| index.tile(l).object_count() > 0 && !index.tile(l).meta.has_exact(2))
            .count();
        assert!(bounded > 0, "some child kept only its inherited bounds");

        // The whole cell inside a window: it is one covering tile, and its
        // own exact stats — true for everything below it — answer without a
        // read, where a leaf-by-leaf walk would enrich the bounded children.
        let c = index.classify(&cell);
        assert_eq!(c.full, vec![crate::TileId(5)]);
        assert!(c.partial.is_empty());
        let res = engine.evaluate(&cell, &aggs).unwrap();
        assert_eq!((res.stats.io.bytes_read, res.stats.io.read_calls), (0, 0));
        assert_eq!((res.stats.tiles_full, res.stats.tiles_enriched), (1, 0));
        let truth = &window_truth(&file, &cell, &[2]).unwrap()[0];
        assert_eq!(res.values[0], AggregateValue::Count(truth.selected));
        let sum = res.values[1].as_f64().unwrap();
        assert!((sum - truth.stats.sum()).abs() < 1e-6 * (1.0 + sum.abs()));
    }

    #[test]
    fn adaptation_reduces_io_for_overlapping_queries() {
        let file = random_file(5000, 17);
        let mut engine = engine_for(&file, 4, MetadataPolicy::AllNumeric);
        let aggs = [AggregateFunction::Mean(2)];
        let w1 = Rect::new(100.0, 600.0, 100.0, 600.0);
        let r1 = engine.evaluate(&w1, &aggs).unwrap();
        // Shifted window (the exploration pattern): most area is warm now.
        let w2 = w1.shifted(60.0, 60.0);
        let r2 = engine.evaluate(&w2, &aggs).unwrap();
        assert!(
            r2.stats.io.objects_read < r1.stats.io.objects_read,
            "adapted area should need less I/O: {} vs {}",
            r2.stats.io.objects_read,
            r1.stats.io.objects_read,
        );
    }

    #[test]
    fn count_only_query_reads_nothing() {
        let file = random_file(1000, 3);
        let mut engine = engine_for(&file, 4, MetadataPolicy::AllNumeric);
        file.counters().reset();
        let res = engine
            .evaluate(
                &Rect::new(0.0, 500.0, 0.0, 500.0),
                &[AggregateFunction::Count],
            )
            .unwrap();
        // Counting uses axis values only; no attribute reads... but tiles
        // may still be split (splitting needs no values, yet our process
        // path reads the requested attrs — which are none).
        assert_eq!(res.stats.io.objects_read, 0);
        let truth =
            pai_storage::ground_truth::window_count(&file, &Rect::new(0.0, 500.0, 0.0, 500.0))
                .unwrap();
        assert_eq!(res.values[0], AggregateValue::Count(truth));
    }

    #[test]
    fn metadata_none_still_correct() {
        let file = random_file(1500, 23);
        let mut engine = engine_for(&file, 3, MetadataPolicy::None);
        let window = Rect::new(250.0, 750.0, 250.0, 750.0);
        let res = engine
            .evaluate(&window, &[AggregateFunction::Sum(3)])
            .unwrap();
        let truth = window_truth(&file, &window, &[3]).unwrap();
        let sum = res.values[0].as_f64().unwrap();
        assert!((sum - truth[0].stats.sum()).abs() < 1e-6 * (1.0 + sum.abs()));
        assert!(
            res.stats.tiles_enriched > 0,
            "missing metadata forces enrichment"
        );
    }

    #[test]
    fn rejects_axis_aggregate_and_empty_query() {
        let file = random_file(100, 1);
        let mut engine = engine_for(&file, 2, MetadataPolicy::AllNumeric);
        let w = Rect::new(0.0, 1.0, 0.0, 1.0);
        assert!(engine.evaluate(&w, &[AggregateFunction::Sum(0)]).is_err());
        assert!(engine.evaluate(&w, &[]).is_err());
    }

    #[test]
    fn empty_window_yields_empty_values() {
        let file = random_file(500, 9);
        let mut engine = engine_for(&file, 3, MetadataPolicy::AllNumeric);
        let res = engine
            .evaluate(
                &Rect::new(-100.0, -50.0, -100.0, -50.0),
                &[
                    AggregateFunction::Count,
                    AggregateFunction::Mean(2),
                    AggregateFunction::Sum(2),
                ],
            )
            .unwrap();
        assert_eq!(res.values[0], AggregateValue::Count(0));
        assert_eq!(res.values[1], AggregateValue::Empty);
        assert_eq!(res.values[2], AggregateValue::Float(0.0));
    }

    #[test]
    fn variance_extension_matches_truth() {
        let file = random_file(2000, 29);
        let mut engine = engine_for(&file, 4, MetadataPolicy::AllNumeric);
        let window = Rect::new(100.0, 900.0, 100.0, 900.0);
        let res = engine
            .evaluate(&window, &[AggregateFunction::Variance(2)])
            .unwrap();
        let truth = window_truth(&file, &window, &[2]).unwrap();
        let v = res.values[0].as_f64().unwrap();
        let tv = truth[0].stats.variance().unwrap();
        assert!((v - tv).abs() < 1e-6 * (1.0 + tv.abs()), "{v} vs {tv}");
    }

    #[test]
    fn random_windows_fuzz_against_truth() {
        let file = random_file(1200, 31);
        let mut engine = engine_for(&file, 4, MetadataPolicy::AllNumeric);
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..20 {
            let x0 = rng.gen_range(0.0..900.0);
            let y0 = rng.gen_range(0.0..900.0);
            let w = rng.gen_range(10.0..400.0);
            let h = rng.gen_range(10.0..400.0);
            let window = Rect::new(x0, (x0 + w).min(1000.0), y0, (y0 + h).min(1000.0));
            let res = engine
                .evaluate(
                    &window,
                    &[AggregateFunction::Count, AggregateFunction::Sum(2)],
                )
                .unwrap();
            let truth = window_truth(&file, &window, &[2]).unwrap();
            assert_eq!(res.values[0], AggregateValue::Count(truth[0].selected));
            let sum = res.values[1].as_f64().unwrap();
            assert!(
                (sum - truth[0].stats.sum()).abs() < 1e-6 * (1.0 + sum.abs()),
                "window {window}: {sum} vs {}",
                truth[0].stats.sum()
            );
        }
        engine.index().validate_invariants().unwrap();
    }
}
