//! The partial-adaptation engine (§3's method, end to end).
//!
//! Per query: classify tiles, assemble confidence intervals from metadata,
//! and — while the upper error bound exceeds the user's constraint `φ` —
//! process the highest-priority candidate tile and fold its now-exact
//! contribution back in. Every processed tile permanently refines the index
//! (split + metadata), so later queries in the same area start tighter:
//! adaptation is *partial* per query but cumulative across the session.
//!
//! The first round asks its zero-I/O sources from cheapest to dearest: the
//! tile index's metadata, then — only when that misses `φ`, and when
//! [`EngineConfig::synopsis`] is on — the backend's block synopses
//! ([`crate::synopsis`]), whose hit ends the query with no data read. Only
//! a miss of both plans I/O.
//!
//! The loop exists once, generic over how it reaches the index: a single
//! owner's plain borrows here, or the read-write lock of
//! [`crate::SharedIndex`]. Two stop rules drive it:
//! * accuracy-constrained (the paper: [`ApproximateEngine::evaluate`],
//!   [`crate::SharedIndex::evaluate`]), followed by any configured
//!   [`EagerRefinement`];
//! * [`ApproximateEngine::evaluate_with_io_budget`] — the dual problem:
//!   spend at most a given number of object reads and report the best
//!   achievable bound (interactivity-first, as the paper's introduction
//!   motivates).
//!
//! [`estimate_readonly`] answers from metadata only — zero I/O, no
//! adaptation — for concurrent readers and overview visualizations.

use std::ops::ControlFlow;
use std::time::{Duration, Instant};

use pai_common::geometry::Rect;
use pai_common::{
    AggregateFunction, AggregateValue, AttrId, Interval, PaiError, Result, RowLocator,
};
use pai_index::eval::{query_attrs, QueryStats, StageClock};
use pai_index::{
    apply_enrich, apply_plan, fetch_window, plan_enrich, plan_tile, still_applies, EnrichPlan,
    ReadPolicy, TileId, TilePlan, ValinorIndex,
};
use pai_storage::batch::{read_row_groups, RowBatch};
use pai_storage::raw::{BlockSynopsis, RawFile};

use crate::bound::upper_error_bound;
use crate::ci::{estimate_aggregate, AggregateEstimate};
use crate::config::{validate_phi, EagerRefinement, EngineConfig};
use crate::policy::CandidateView;
use crate::state::{Candidate, CandidateKind, QueryState, ResolvedTiles};
use crate::synopsis::seed_missing_global_bounds;

/// One step of a progressive evaluation trace: the state of the answer
/// after `tiles_processed` tiles — what a progressive-visualization client
/// (see the survey line of related work in the paper) would render.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ProgressStep {
    /// Tiles processed so far for this query (0 = metadata-only answer).
    pub tiles_processed: usize,
    /// Upper error bound at this point.
    pub error_bound: f64,
    /// Estimate of the first aggregate at this point (`None` when empty).
    pub estimate: Option<f64>,
    /// Cumulative objects read from the file for this query.
    pub objects_read: u64,
    /// Cumulative bytes read from the file for this query — the metric that
    /// separates storage backends (a binary columnar read fetches a few
    /// values where CSV re-reads a whole text record).
    pub bytes_read: u64,
    /// Cumulative `read_rows` calls issued for this query — the metric the
    /// batched adaptation pipeline improves (many tiles per call).
    pub read_calls: u64,
    /// Cumulative storage blocks materialized for this query — the
    /// block-structured backends' unit of I/O (0 on CSV).
    pub blocks_read: u64,
    /// Cumulative blocks a zone-map pushdown proved irrelevant and never
    /// touched — the metric the `PaiZone` backend improves.
    pub blocks_skipped: u64,
    /// Cumulative ranged HTTP requests issued for this query (0 on local
    /// backends) — the metric request coalescing improves.
    pub http_requests: u64,
    /// Cumulative wire bytes those requests moved, both directions.
    pub http_bytes: u64,
    /// Cumulative remote requests retried after transient faults.
    pub retries: u64,
    /// Peak concurrently in-flight fetch requests observed so far (1 on a
    /// sequential remote fetch path, 0 on local backends).
    pub fetch_inflight_peak: u64,
    /// In-request fetch time over wall fetch time so far: > 1 when the
    /// overlapped pipeline hid request latency behind other requests, ~1
    /// sequentially, 0 when nothing was fetched remotely.
    pub overlap_ratio: f64,
    /// Cumulative adaptive part-sizer parameter changes.
    pub parts_resized: u64,
    /// Cumulative spans served from the block cache (0 uncached) — the
    /// metric the tiered cache improves on re-exploration.
    pub cache_hits: u64,
    /// Cumulative spans the cache handed to the transport.
    pub cache_misses: u64,
    /// Cumulative cache entries evicted under budget pressure.
    pub cache_evictions: u64,
    /// Cumulative bytes written to the cache's disk-spill tier.
    pub cache_spill_bytes: u64,
    /// Bytes resident in the cache's memory tier at this point (a gauge).
    pub cache_mem_bytes: u64,
    /// Approximate median per-request fetch latency (µs) over the
    /// query so far, from the log2-bucketed fetch histogram (0 when no
    /// remote fetch has run).
    pub fetch_p50_us: u64,
    /// Approximate 99th-percentile per-request fetch latency (µs) over
    /// the query so far (0 when no remote fetch has run).
    pub fetch_p99_us: u64,
    /// Queries answered purely from block synopses so far (0 or 1 within
    /// one query's trace; cumulative in session meters).
    pub synopsis_hits: u64,
    /// Block synopses that contributed to synopsis-only answers.
    pub synopsis_blocks: u64,
    /// Approximate in-memory bytes of those synopses — the metadata
    /// footprint that substituted for data I/O.
    pub synopsis_bytes: u64,
}

/// Result of one approximate evaluation.
#[derive(Debug, Clone)]
pub struct ApproxResult {
    /// Approximate value per requested aggregate.
    pub values: Vec<AggregateValue>,
    /// Confidence interval per aggregate (`None` for empty selections).
    /// The exact answer is guaranteed to lie inside.
    pub cis: Vec<Option<Interval>>,
    /// Achieved upper error bound (max over aggregates).
    pub error_bound: f64,
    /// The constraint the query ran under (`f64::INFINITY` for budgeted or
    /// read-only evaluations, which impose no accuracy constraint).
    pub phi: f64,
    /// Whether `error_bound <= phi` was reached. Budgeted/read-only
    /// evaluations report `true` vacuously.
    pub met_constraint: bool,
    /// Execution metrics (I/O deltas, tiles processed/split/enriched, time).
    pub stats: QueryStats,
}

/// How long the adaptation loop may keep processing tiles.
enum StopRule {
    /// Until the bound drops to `phi` (the paper's constraint), then `extra`
    /// tiles more ([`EagerRefinement`]) while it stays there. `met_at` is the
    /// step at which the bound last reached `phi`.
    Accuracy {
        phi: f64,
        extra: usize,
        met_at: Option<usize>,
    },
    /// Until the next candidate would exceed the remaining object budget.
    IoBudget { remaining: u64 },
}

impl StopRule {
    /// Whether the loop ends at this bound, `step` tiles into the query.
    fn met(&mut self, bound: f64, step: usize) -> bool {
        match self {
            StopRule::Accuracy { phi, extra, met_at } => {
                if bound > *phi {
                    *met_at = None;
                    return false;
                }
                step >= *met_at.get_or_insert(step) + *extra
            }
            StopRule::IoBudget { .. } => bound <= 0.0,
        }
    }
}

/// How the loop reaches the index it adapts: a shared view to classify and
/// plan against, a mutable one for each apply. The handles differ only in
/// what guards those views.
pub(crate) trait IndexHandle {
    fn read<R>(&mut self, f: impl FnOnce(&ValinorIndex) -> R) -> R;
    fn write<R>(&mut self, f: impl FnOnce(&mut ValinorIndex) -> R) -> R;
    /// Time spent waiting for views so far ([`QueryStats::lock_wait`]).
    fn lock_wait(&self) -> Duration {
        Duration::ZERO
    }
}

/// A single owner's index: both views are plain borrows, and no other
/// writer can move the index between them.
struct Exclusive<'a>(&'a mut ValinorIndex);

impl IndexHandle for Exclusive<'_> {
    fn read<R>(&mut self, f: impl FnOnce(&ValinorIndex) -> R) -> R {
        f(self.0)
    }

    fn write<R>(&mut self, f: impl FnOnce(&mut ValinorIndex) -> R) -> R {
        f(self.0)
    }
}

/// One query's evaluation: the handle on the index it adapts, and the file
/// and config it adapts with.
pub(crate) struct EvalCtx<'a, H> {
    pub(crate) index: H,
    pub(crate) file: &'a dyn RawFile,
    pub(crate) config: &'a EngineConfig,
}

impl<H: IndexHandle> EvalCtx<'_, H> {
    /// The accuracy-constrained evaluation: the loop at `phi`, then the
    /// configured eager refinement.
    pub(crate) fn accuracy(
        self,
        window: &Rect,
        aggs: &[AggregateFunction],
        phi: f64,
        trace: Option<&mut Vec<ProgressStep>>,
    ) -> Result<ApproxResult> {
        validate_phi(phi)?;
        let extra = match self.config.eager {
            EagerRefinement::Off => 0,
            EagerRefinement::ExtraTiles(n) => n,
        };
        let stop = StopRule::Accuracy {
            phi,
            extra,
            met_at: None,
        };
        self.run(window, aggs, stop, trace)
    }

    /// The adaptation loop, pipelined per round as plan (pure, on a shared
    /// view) → coalesced fetch (no view held) → apply (one mutable view per
    /// plan) + re-check.
    ///
    /// The query's state is updated in place for as long as the index
    /// version is the one this query's own last apply left behind. When
    /// another writer has moved the index, the next round re-classifies and
    /// rebuilds the state, folding the partial tiles already processed
    /// instead of reading them again; every apply is checked by
    /// [`still_applies`], and a plan another writer's split overtook is
    /// discarded and counted in [`QueryStats::plan_conflicts`]. The answer
    /// comes from a state checked current on a shared view.
    fn run(
        mut self,
        window: &Rect,
        aggs: &[AggregateFunction],
        mut stop: StopRule,
        mut trace: Option<&mut Vec<ProgressStep>>,
    ) -> Result<ApproxResult> {
        let (file, config) = (self.file, self.config);
        let mut clock = StageClock::start();
        let io0 = file.counters().snapshot();
        let attrs = query_attrs(file.schema(), aggs)?;
        let mut stats = QueryStats::default();

        // The backend's per-block synopses, when configured: the first round
        // may answer from them (after the index's metadata missed phi), and
        // they seed global attribute bounds for metadata-free cold starts,
        // which must happen before candidates capture their metadata view.
        let blocks = config.synopsis.then(|| file.block_synopses()).flatten();
        let unseeded = |i: &ValinorIndex| attrs.iter().any(|&a| i.global_bounds(a).is_none());
        if let Some(blocks) = blocks.filter(|_| self.index.read(unseeded)) {
            self.index
                .write(|i| seed_missing_global_bounds(i, blocks, &attrs));
        }

        // In-window stats of the partial tiles this query processed, each
        // with the object count it was computed over: what a rebuild folds
        // instead of reading them again.
        let mut resolved = ResolvedTiles::new();
        // Every fetch of the query lands in the same buffers.
        let mut fetched = Vec::new();
        let mut step = 0usize;
        // The query's state, and the index version it describes: none until
        // the first round has classified the window.
        let (mut state, mut known) = (QueryState::default(), None);
        let (mut estimates, mut bound, mut stopped) = (Vec::new(), f64::INFINITY, false);
        loop {
            // Stage 1 — plan, on a shared view: (re)build the state on the
            // first round and whenever another writer has moved the index,
            // then select the batch the sequential loop would process next
            // and compute each tile's pure refinement plan.
            let round = self.index.read(|index| {
                if known != Some(index.version()) {
                    let classification = index.classify(window);
                    if known.is_none() {
                        stats.selected = classification.selected_total;
                        stats.tiles_full = classification.full.len();
                        stats.tiles_partial = classification.partial.len();
                    }
                    state = QueryState::from_classification_resolved(
                        index,
                        &classification,
                        &attrs,
                        &resolved,
                    )?;
                    stats.stages.classify += clock.lap();
                    (estimates, bound) = assess(config, aggs, &state);
                    // The synopses are the second zero-I/O tier: consulted
                    // once, on the first round, only when the index's own
                    // metadata misses phi. Their time (hit or miss) is
                    // assessment, like the metadata answer's.
                    if let (None, Some(blocks), StopRule::Accuracy { phi, .. }) =
                        (known, blocks, &stop)
                    {
                        if bound > *phi {
                            let selected = classification.selected_total;
                            let hit = synopsis_hit(
                                index, file, config, blocks, window, aggs, selected, *phi,
                            );
                            if let Some(hit) = hit {
                                return Ok(ControlFlow::Break(hit));
                            }
                        }
                    }
                    if let (None, Some(t)) = (known, trace.as_deref_mut()) {
                        t.push(ProgressStep {
                            tiles_processed: 0,
                            error_bound: bound,
                            estimate: estimates.first().and_then(|e| e.value.as_f64()),
                            ..Default::default()
                        });
                    }
                    known = Some(index.version());
                    stopped = stop.met(bound, step);
                }
                if stopped || state.candidates.is_empty() {
                    return Ok(ControlFlow::Continue(Vec::new()));
                }
                stats.stages.assess += clock.lap();
                let picks = match stop {
                    StopRule::Accuracy { .. } => config.policy.pick_batch(
                        state.candidates.len(),
                        step,
                        config.adapt_batch,
                        |alive| candidate_views(index, config, aggs, &state, alive),
                    ),
                    StopRule::IoBudget { ref mut remaining } => {
                        // Costs must be re-checked against the shrinking
                        // budget per tile, so budgeted evaluation stays
                        // tile-at-a-time. Among candidates that fit the
                        // budget, let the policy choose; stop when nothing
                        // fits.
                        let all: Vec<usize> = (0..state.candidates.len()).collect();
                        let views = candidate_views(index, config, aggs, &state, &all);
                        let affordable: Vec<usize> = (0..views.len())
                            .filter(|&i| views[i].cost <= *remaining)
                            .collect();
                        if affordable.is_empty() {
                            return Ok(ControlFlow::Continue(Vec::new()));
                        }
                        let sub: Vec<CandidateView> =
                            affordable.iter().map(|&i| views[i]).collect();
                        let chosen = affordable[config.policy.pick(&sub, step)];
                        *remaining = remaining.saturating_sub(views[chosen].cost);
                        vec![chosen]
                    }
                };
                picks
                    .iter()
                    .map(|&p| plan_candidate(index, &state.candidates[p], window, &attrs, config))
                    .collect::<Result<_>>()
                    .map(ControlFlow::Continue)
            })?;
            let plans: Vec<BatchPlan> = match round {
                ControlFlow::Continue(plans) if plans.is_empty() => break,
                ControlFlow::Continue(plans) => plans,
                ControlFlow::Break(hit) => {
                    stats.stages.assess += clock.lap();
                    stats.io = file.counters().snapshot().since(&io0);
                    stats.lock_wait = self.index.lock_wait();
                    stats.elapsed = clock.elapsed();
                    if let Some(t) = trace {
                        t.push(ProgressStep {
                            tiles_processed: 0,
                            error_bound: hit.error_bound,
                            estimate: hit.values.first().and_then(|v| v.as_f64()),
                            synopsis_hits: stats.io.synopsis_hits,
                            synopsis_blocks: stats.io.synopsis_blocks,
                            synopsis_bytes: stats.io.synopsis_bytes,
                            ..Default::default()
                        });
                    }
                    return Ok(ApproxResult { stats, ..hit });
                }
            };
            stats.stages.plan += clock.lap();

            // Stage 2 + 3 — fetch with no view held and apply, overlapped
            // when configured: the batch's fetch units (one coalesced read
            // per distinct attribute set) stream into the apply stage as
            // they complete, and each plan is installed on its own mutable
            // view in sequential pick order with the stop rule re-evaluated
            // after every tile. Plans fetched past the stop point are
            // discarded unapplied — and their fetches still run to
            // completion — so the processed-tile trajectory, every answer
            // and CI, and every logical meter are identical to the
            // tile-at-a-time loop at any `fetch_workers` count.
            let index = &mut self.index;
            fetch_plans_each(file, &plans, window, config, &mut fetched, |i, values| {
                if stopped {
                    return Ok(());
                }
                // Since the last lap this thread fetched, or waited for the
                // fetchers.
                stats.stages.fetch += clock.lap();
                let plan = &plans[i];
                let exact = index.write(|index| -> Result<Option<_>> {
                    if !still_applies(index, plan.tile(), plan.planned_version()) {
                        return Ok(None);
                    }
                    let current = known == Some(index.version());
                    let exact = match plan {
                        BatchPlan::Partial(p) => {
                            let out = apply_plan(index, p, window, &config.adapt, values)?;
                            stats.tiles_split += usize::from(out.did_split);
                            out.in_window
                        }
                        BatchPlan::Enrich(p) => {
                            apply_enrich(index, p, values)?;
                            stats.tiles_enriched += 1;
                            p.resolved_stats(values)?
                        }
                    };
                    if current {
                        known = Some(index.version());
                    }
                    Ok(Some(exact))
                })?;
                let Some(exact) = exact else {
                    // Another writer split the tile since planning: its id
                    // never classifies again, and the region re-plans from
                    // the refined children next round.
                    stats.plan_conflicts += 1;
                    stats.stages.apply += clock.lap();
                    return Ok(());
                };
                let pick = state
                    .candidates
                    .iter()
                    .position(|c| c.tile == plan.tile())
                    .ok_or_else(|| {
                        PaiError::internal("batch plan names an already-resolved candidate")
                    })?;
                state.resolve(pick, &exact);
                if let BatchPlan::Partial(p) = plan {
                    resolved.insert(p.tile, (p.selected, exact));
                }
                stats.tiles_processed += 1;
                stats.stages.apply += clock.lap();
                step += 1;
                (estimates, bound) = assess(config, aggs, &state);
                if let Some(t) = trace.as_deref_mut() {
                    let io = file.counters().snapshot().since(&io0);
                    t.push(ProgressStep {
                        tiles_processed: step,
                        error_bound: bound,
                        estimate: estimates.first().and_then(|e| e.value.as_f64()),
                        objects_read: io.objects_read,
                        bytes_read: io.bytes_read,
                        read_calls: io.read_calls,
                        blocks_read: io.blocks_read,
                        blocks_skipped: io.blocks_skipped,
                        http_requests: io.http_requests,
                        http_bytes: io.http_bytes,
                        retries: io.retries,
                        fetch_inflight_peak: io.fetch_inflight_peak,
                        overlap_ratio: io.overlap_ratio(),
                        parts_resized: io.parts_resized,
                        cache_hits: io.cache_hits,
                        cache_misses: io.cache_misses,
                        cache_evictions: io.cache_evictions,
                        cache_spill_bytes: io.cache_spill_bytes,
                        cache_mem_bytes: io.cache_mem_bytes,
                        fetch_p50_us: io.fetch_hist.p50_us(),
                        fetch_p99_us: io.fetch_hist.p99_us(),
                        synopsis_hits: io.synopsis_hits,
                        synopsis_blocks: io.synopsis_blocks,
                        synopsis_bytes: io.synopsis_bytes,
                    });
                }
                stopped = stop.met(bound, step);
                stats.stages.assess += clock.lap();
                Ok(())
            })?;
            if stopped {
                // Fetches the stop rule left unapplied still ran to their end.
                stats.stages.fetch += clock.lap();
            }
        }
        let (phi, met_constraint) = match stop {
            StopRule::Accuracy { phi, .. } => (phi, bound <= phi),
            StopRule::IoBudget { .. } => (f64::INFINITY, true),
        };

        stats.io = file.counters().snapshot().since(&io0);
        stats.lock_wait = self.index.lock_wait();
        stats.stages.assess += clock.lap();
        stats.elapsed = clock.elapsed();
        let (values, cis) = estimates.into_iter().map(|e| (e.value, e.ci)).unzip();
        Ok(ApproxResult {
            values,
            cis,
            error_bound: bound,
            phi,
            met_constraint,
            stats,
        })
    }
}

/// One candidate's refinement plan: either the full `process(t)` of a
/// partially-contained tile or the enrichment read of a fully-contained
/// tile with missing metadata. Both variants are pure plans computed
/// against a shared index view, and fetched with no view held.
enum BatchPlan {
    Partial(TilePlan),
    Enrich(EnrichPlan),
}

impl BatchPlan {
    fn tile(&self) -> TileId {
        match self {
            BatchPlan::Partial(p) => p.tile,
            BatchPlan::Enrich(p) => p.tile,
        }
    }

    fn planned_version(&self) -> u64 {
        match self {
            BatchPlan::Partial(p) => p.planned_version,
            BatchPlan::Enrich(p) => p.planned_version,
        }
    }

    fn locators(&self) -> &[RowLocator] {
        match self {
            BatchPlan::Partial(p) => &p.locators,
            BatchPlan::Enrich(p) => &p.locators,
        }
    }

    fn read_attrs(&self) -> &[AttrId] {
        match self {
            BatchPlan::Partial(p) => &p.read_attrs,
            BatchPlan::Enrich(p) => &p.read_attrs,
        }
    }
}

/// Plans the processing of one candidate (pure, `&index`).
fn plan_candidate(
    index: &ValinorIndex,
    cand: &Candidate,
    window: &Rect,
    attrs: &[AttrId],
    config: &EngineConfig,
) -> Result<BatchPlan> {
    Ok(match cand.kind {
        CandidateKind::Partial => {
            BatchPlan::Partial(plan_tile(index, cand.tile, window, attrs, &config.adapt)?)
        }
        CandidateKind::FullBounded => BatchPlan::Enrich(plan_enrich(index, cand.tile, attrs)?),
    })
}

/// The batch's window pushdown hint. The window-only safety rule has one
/// home: `pai_index::fetch_window`. The batch-level extension on top: an
/// all-enrichment batch is safe under any read policy (enrich tiles are
/// fully contained in the window, so every locator is in-window by
/// construction).
fn batch_pushdown<'w>(
    plans: &[BatchPlan],
    window: &'w Rect,
    config: &EngineConfig,
) -> Option<&'w Rect> {
    fetch_window(&config.adapt, window).or_else(|| {
        plans
            .iter()
            .all(|p| matches!(p, BatchPlan::Enrich(_)))
            .then_some(window)
    })
}

/// One fetch unit: the attribute set its plans share, and those plans.
type FetchUnit<'p> = (&'p [AttrId], Vec<usize>);

/// Groups plan indices by attribute set, preserving first-seen order — one
/// returned unit is one coalesced read — and says where each plan's rows will
/// be: its unit, and its place among the unit's members. COUNT-only style
/// plans (no attributes to read) share a unit like any others;
/// [`read_row_groups`] answers it with zero-width rows and no I/O.
fn fetch_units(plans: &[BatchPlan]) -> (Vec<FetchUnit<'_>>, Vec<(usize, usize)>) {
    let mut units: Vec<FetchUnit<'_>> = Vec::new();
    let mut places = Vec::with_capacity(plans.len());
    for (i, plan) in plans.iter().enumerate() {
        let u = match units.iter().position(|(a, _)| *a == plan.read_attrs()) {
            Some(u) => u,
            None => {
                units.push((plan.read_attrs(), Vec::new()));
                units.len() - 1
            }
        };
        places.push((u, units[u].1.len()));
        units[u].1.push(i);
    }
    (units, places)
}

/// Stage 2 of the pipeline: fetches every plan's locators with as few
/// `read_rows` calls as possible — one coalesced cross-tile call per
/// distinct attribute set — and invokes `on_plan(i, values)` for each plan
/// **in plan order** with its rows, positionally aligned with the plan's
/// locators. Later fetch units overlap earlier applies when
/// `config.fetch_workers > 1`.
///
/// The query `window` is pushed down to the storage backend when every
/// plan's locator set is provably window-only: enrichment plans always are
/// (their tiles are fully contained in the window), partial-tile plans are
/// under [`ReadPolicy::WindowOnly`] (the default). Under
/// [`ReadPolicy::FullTile`] the hint is withheld — those plans consume
/// out-of-window values for child enrichment, which a zone-map skip would
/// corrupt.
///
/// `scratch` holds the fetched rows, one flat batch per unit; a caller that
/// fetches again and again (the tiles of a query) passes the same one and
/// the buffers are reused whenever the fetch is sequential.
///
/// Equivalence guarantees, at any worker count:
/// * The same fetch units are issued — grouping, pushdown, and the
///   `read_row_groups` call per unit are byte-identical to the sequential
///   path, and units are *claimed* in the sequential issue order — so every
///   logical meter (and, absent adaptive sizing, every transport meter)
///   lands on the same totals.
/// * `on_plan` runs in strict plan order 0, 1, 2, …, so apply-side state,
///   answers, CIs, and trajectories cannot observe fetch completion order.
/// * Every unit is fetched unless something fails: an `on_plan` early-out
///   by the caller's own flag leaves the fetches running to completion, so
///   an apply-side stop never truncates the batch's I/O differently than
///   the fetch-then-apply path would. After an error (the first one in unit
///   order is the one returned) no further unit is claimed, and the fetches
///   in flight are still joined before this returns.
fn fetch_plans_each(
    file: &dyn RawFile,
    plans: &[BatchPlan],
    window: &Rect,
    config: &EngineConfig,
    scratch: &mut Vec<RowBatch>,
    mut on_plan: impl FnMut(usize, &[f64]) -> Result<()>,
) -> Result<()> {
    let pushdown = batch_pushdown(plans, window, config);
    let (units, places) = fetch_units(plans);
    // One unit's coalesced read; where each member's rows start in `out`.
    let fetch = |u: usize, out: &mut RowBatch| {
        let (attrs, members) = &units[u];
        let locs: Vec<&[RowLocator]> = members.iter().map(|&i| plans[i].locators()).collect();
        read_row_groups(file, &locs, attrs, pushdown, out)
    };
    let workers = config.fetch_workers.min(units.len());
    if workers <= 1 {
        // Sequential: fetch every unit, then apply in plan order.
        if scratch.len() < units.len() {
            scratch.resize_with(units.len(), RowBatch::default);
        }
        let starts = (0..units.len())
            .map(|u| fetch(u, &mut scratch[u]))
            .collect::<Result<Vec<_>>>()?;
        for (i, &(u, k)) in places.iter().enumerate() {
            on_plan(i, scratch[u].rows(starts[u][k]..starts[u][k + 1]))?;
        }
        return Ok(());
    }

    // Overlapped: pool threads claim units in issue order; this thread takes
    // delivery in the same order and applies each plan the moment its unit
    // has landed. A plan's unit is never later than the units of the plans
    // before it (units are numbered by first appearance), so in-order
    // delivery delays no apply. Nothing bounds the units in flight: their
    // results are all kept until applied anyway.
    let mut landed: Vec<(RowBatch, Vec<usize>)> = Vec::with_capacity(units.len());
    let mut cursor = 0usize;
    pai_common::pool::run_ordered(
        units.len(),
        workers,
        units.len(),
        |u| {
            let mut out = RowBatch::default();
            let starts = fetch(u, &mut out)?;
            Ok((out, starts))
        },
        |_, unit| {
            landed.push(unit);
            while let Some(&(u, k)) = places.get(cursor).filter(|p| p.0 < landed.len()) {
                let (rows, starts) = &landed[u];
                on_plan(cursor, rows.rows(starts[k]..starts[k + 1]))?;
                cursor += 1;
            }
            Ok(())
        },
    )
}

/// Attempts to answer the whole query from block synopses. `Some` means
/// the composed estimates' combined bound already meets `phi`: the query
/// is done with zero data I/O, and the synopsis meters have been ticked
/// (a miss ticks none). The returned result carries default stats — the
/// caller owns the timing/I/O accounting.
#[allow(clippy::too_many_arguments)]
pub(crate) fn synopsis_hit(
    index: &ValinorIndex,
    file: &dyn RawFile,
    config: &EngineConfig,
    blocks: &[BlockSynopsis],
    window: &Rect,
    aggs: &[AggregateFunction],
    selected_total: u64,
    phi: f64,
) -> Option<ApproxResult> {
    let schema = index.schema();
    let ans = crate::synopsis::try_answer(
        blocks,
        schema.x_axis(),
        schema.y_axis(),
        window,
        selected_total,
        aggs,
        config,
        phi,
    )?;
    let counters = file.counters();
    counters.add_synopsis_hits(1);
    counters.add_synopsis_blocks(ans.blocks);
    counters.add_synopsis_bytes(ans.bytes);
    let (values, cis) = ans.estimates.into_iter().map(|e| (e.value, e.ci)).unzip();
    Some(ApproxResult {
        values,
        cis,
        error_bound: ans.bound,
        phi,
        met_constraint: true,
        stats: QueryStats::default(),
    })
}

/// Current estimates and the combined (max-over-aggregates) bound.
fn assess(
    config: &EngineConfig,
    aggs: &[AggregateFunction],
    state: &QueryState,
) -> (Vec<AggregateEstimate>, f64) {
    let estimates: Vec<AggregateEstimate> = aggs
        .iter()
        .map(|agg| estimate_aggregate(agg, state, config.assume_non_null))
        .collect();
    let bound = estimates
        .iter()
        .map(|e| bound_of(config, e))
        .fold(0.0f64, f64::max);
    (estimates, bound)
}

/// One aggregate's upper error bound: infinite when unbounded, 0 for an
/// empty selection.
pub(crate) fn bound_of(config: &EngineConfig, e: &AggregateEstimate) -> f64 {
    if e.unbounded {
        return f64::INFINITY;
    }
    match (&e.ci, e.value.as_f64()) {
        (Some(ci), Some(v)) => upper_error_bound(v, ci.lo(), ci.hi(), config.normalization),
        // Empty selection: nothing to be wrong about.
        _ => 0.0,
    }
}

/// Builds the policy's view of a subset of candidates (`subset` holds
/// indices into `state.candidates`): a per-candidate interval width reduced
/// over the query's aggregates (each aggregate's widths normalized across
/// the subset first, so attributes with different scales contribute
/// comparably), plus cost proxies.
///
/// Normalization over the *subset* — not all candidates — is what lets
/// [`crate::SelectionPolicy::pick_batch`] reproduce the sequential pick
/// order exactly: after each simulated removal the remaining candidates are
/// re-normalized just as the one-at-a-time loop would.
fn candidate_views(
    index: &ValinorIndex,
    config: &EngineConfig,
    aggs: &[AggregateFunction],
    state: &QueryState,
    subset: &[usize],
) -> Vec<CandidateView> {
    let mut widths = vec![0.0f64; subset.len()];
    for agg in aggs {
        let per_agg: Vec<f64> = subset
            .iter()
            .map(|&i| contribution_width(config, agg, state, &state.candidates[i]))
            .collect();
        let max = per_agg.iter().copied().fold(0.0f64, f64::max);
        if max == 0.0 {
            continue;
        }
        for (w, &raw) in widths.iter_mut().zip(&per_agg) {
            let norm = if raw.is_infinite() {
                f64::INFINITY
            } else {
                raw / max
            };
            if norm > *w {
                *w = norm;
            }
        }
    }
    subset
        .iter()
        .zip(widths)
        .map(|(&i, width)| {
            let c = &state.candidates[i];
            CandidateView {
                width,
                selected: c.selected,
                cost: match (c.kind, config.adapt.read) {
                    (CandidateKind::FullBounded, _) => index.tile(c.tile).object_count(),
                    (CandidateKind::Partial, ReadPolicy::WindowOnly) => c.selected,
                    (CandidateKind::Partial, ReadPolicy::FullTile) => {
                        index.tile(c.tile).object_count()
                    }
                },
            }
        })
        .collect()
}

/// Width of one candidate's contribution interval for one aggregate — the
/// `w(t)` of the selection score.
fn contribution_width(
    config: &EngineConfig,
    agg: &AggregateFunction,
    state: &QueryState,
    c: &crate::state::Candidate,
) -> f64 {
    let assume = config.assume_non_null;
    match *agg {
        AggregateFunction::Count => 0.0,
        AggregateFunction::Sum(a) | AggregateFunction::Mean(a) => c
            .sum_bounds(state.attr_pos(a), assume)
            .map_or(f64::INFINITY, |iv| iv.width()),
        AggregateFunction::Min(a)
        | AggregateFunction::Max(a)
        | AggregateFunction::Variance(a)
        | AggregateFunction::StdDev(a) => c
            .value_bounds(state.attr_pos(a))
            .map_or(f64::INFINITY, |iv| iv.width()),
    }
}

/// Metadata-only evaluation: assembles estimates and intervals from the
/// index *as it currently is* — no file access, no adaptation, `&index`
/// only. This is what concurrent readers and overview UIs use.
pub fn estimate_readonly(
    index: &ValinorIndex,
    config: &EngineConfig,
    window: &Rect,
    aggs: &[AggregateFunction],
) -> Result<ApproxResult> {
    let t0 = Instant::now();
    let attrs = query_attrs(index.schema(), aggs)?;
    let classification = index.classify(window);
    let state = QueryState::from_classification(index, &classification, &attrs)?;
    let (estimates, bound) = assess(config, aggs, &state);
    let (values, cis) = estimates.into_iter().map(|e| (e.value, e.ci)).unzip();
    Ok(ApproxResult {
        values,
        cis,
        error_bound: bound,
        phi: f64::INFINITY,
        met_constraint: true,
        stats: QueryStats {
            selected: classification.selected_total,
            tiles_full: classification.full.len(),
            tiles_partial: classification.partial.len(),
            elapsed: t0.elapsed(),
            ..Default::default()
        },
    })
}

/// The approximate query-answering engine over a [`ValinorIndex`].
pub struct ApproximateEngine<'f> {
    index: ValinorIndex,
    file: &'f dyn RawFile,
    config: EngineConfig,
}

impl<'f> ApproximateEngine<'f> {
    pub fn new(index: ValinorIndex, file: &'f dyn RawFile, config: EngineConfig) -> Result<Self> {
        config.validate()?;
        Ok(ApproximateEngine {
            index,
            file,
            config,
        })
    }

    pub fn index(&self) -> &ValinorIndex {
        &self.index
    }

    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Consumes the engine, returning the (partially adapted) index.
    pub fn into_index(self) -> ValinorIndex {
        self.index
    }

    /// The evaluation loop over this engine's own index.
    fn ctx(&mut self) -> EvalCtx<'_, Exclusive<'_>> {
        EvalCtx {
            index: Exclusive(&mut self.index),
            file: self.file,
            config: &self.config,
        }
    }

    /// Evaluates a window-aggregate query with accuracy constraint `phi`
    /// (relative upper error bound, e.g. `0.05` for the paper's "5 %").
    pub fn evaluate(
        &mut self,
        window: &Rect,
        aggs: &[AggregateFunction],
        phi: f64,
    ) -> Result<ApproxResult> {
        self.ctx().accuracy(window, aggs, phi, None)
    }

    /// Like [`Self::evaluate`], additionally returning the progressive
    /// trace: the (bound, estimate, cumulative I/O) after each processed
    /// tile, starting from the metadata-only answer. A progressive UI can
    /// replay it as successively tighter renderings.
    pub fn evaluate_traced(
        &mut self,
        window: &Rect,
        aggs: &[AggregateFunction],
        phi: f64,
    ) -> Result<(ApproxResult, Vec<ProgressStep>)> {
        let mut trace = Vec::new();
        let res = self.ctx().accuracy(window, aggs, phi, Some(&mut trace))?;
        Ok((res, trace))
    }

    /// Exact evaluation through the same machinery (`φ = 0`); useful as a
    /// cross-check against [`pai_index::ExactEngine`].
    pub fn evaluate_exact(
        &mut self,
        window: &Rect,
        aggs: &[AggregateFunction],
    ) -> Result<ApproxResult> {
        self.evaluate(window, aggs, 0.0)
    }

    /// The dual problem: evaluate under an **I/O budget** instead of an
    /// accuracy constraint. Processes tiles (in policy order) only while the
    /// next tile's read cost fits into `max_objects`, then reports the best
    /// bound achieved. `max_objects = 0` is the pure metadata answer.
    ///
    /// Costs are exact for `ReadPolicy::WindowOnly` partial tiles (selected
    /// counts are known from the index) and for whole-tile reads.
    pub fn evaluate_with_io_budget(
        &mut self,
        window: &Rect,
        aggs: &[AggregateFunction],
        max_objects: u64,
    ) -> Result<ApproxResult> {
        let stop = StopRule::IoBudget {
            remaining: max_objects,
        };
        self.ctx().run(window, aggs, stop, None)
    }

    /// Metadata-only estimate against the engine's current index state
    /// (no I/O, no adaptation).
    pub fn estimate(&self, window: &Rect, aggs: &[AggregateFunction]) -> Result<ApproxResult> {
        estimate_readonly(&self.index, &self.config, window, aggs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EagerRefinement;
    use crate::policy::SelectionPolicy;
    use pai_index::init::{build, GridSpec, InitConfig};
    use pai_index::MetadataPolicy;
    use pai_storage::ground_truth::window_truth;
    use pai_storage::{CsvFormat, DatasetSpec, MemFile};

    fn dataset(rows: u64, seed: u64) -> (MemFile, DatasetSpec) {
        let spec = DatasetSpec {
            rows,
            columns: 4,
            seed,
            ..Default::default()
        };
        (spec.build_mem(CsvFormat::default()).unwrap(), spec)
    }

    fn engine<'f>(file: &'f MemFile, spec: &DatasetSpec, grid: usize) -> ApproximateEngine<'f> {
        let init = InitConfig {
            grid: GridSpec::Fixed { nx: grid, ny: grid },
            domain: Some(spec.domain),
            metadata: MetadataPolicy::AllNumeric,
        };
        let (idx, _) = build(file, &init).unwrap();
        ApproximateEngine::new(idx, file, EngineConfig::paper_evaluation()).unwrap()
    }

    #[test]
    fn ci_contains_truth_and_bound_met() {
        let (file, spec) = dataset(3000, 7);
        let mut eng = engine(&file, &spec, 6);
        let window = Rect::new(150.0, 650.0, 200.0, 700.0);
        let aggs = [AggregateFunction::Sum(2), AggregateFunction::Mean(2)];
        let res = eng.evaluate(&window, &aggs, 0.05).unwrap();
        assert!(res.met_constraint);
        assert!(res.error_bound <= 0.05);

        let truth = window_truth(&file, &window, &[2]).unwrap();
        let ci_sum = res.cis[0].unwrap();
        assert!(
            ci_sum.contains(truth[0].stats.sum()),
            "sum CI {ci_sum} must contain truth {}",
            truth[0].stats.sum()
        );
        let ci_mean = res.cis[1].unwrap();
        assert!(ci_mean.contains(truth[0].stats.mean().unwrap()));
        eng.index().validate_invariants().unwrap();
    }

    #[test]
    fn looser_phi_reads_less() {
        let (file, spec) = dataset(5000, 13);
        let window = Rect::new(100.0, 600.0, 100.0, 600.0);
        let aggs = [AggregateFunction::Mean(2)];
        let mut reads = Vec::new();
        for phi in [0.0, 0.01, 0.05, 0.25] {
            let mut eng = engine(&file, &spec, 6);
            let res = eng.evaluate(&window, &aggs, phi).unwrap();
            assert!(res.met_constraint, "phi={phi}");
            reads.push(res.stats.io.objects_read);
        }
        // Monotone: tighter constraints cannot read fewer objects.
        for w in reads.windows(2) {
            assert!(
                w[0] >= w[1],
                "reads must not increase with looser phi: {reads:?}"
            );
        }
        // And the extremes must actually differ on this workload.
        assert!(
            reads[0] > reads[3],
            "exact should read more than 25%: {reads:?}"
        );
    }

    #[test]
    fn phi_zero_matches_exact_engine() {
        let (file, spec) = dataset(2000, 21);
        let window = Rect::new(300.0, 800.0, 100.0, 700.0);
        let aggs = [
            AggregateFunction::Count,
            AggregateFunction::Sum(3),
            AggregateFunction::Min(3),
            AggregateFunction::Max(3),
        ];
        let mut approx = engine(&file, &spec, 5);
        let a = approx.evaluate_exact(&window, &aggs).unwrap();

        let init = InitConfig {
            grid: GridSpec::Fixed { nx: 5, ny: 5 },
            domain: Some(spec.domain),
            metadata: MetadataPolicy::AllNumeric,
        };
        let (idx, _) = build(&file, &init).unwrap();
        let mut exact =
            pai_index::ExactEngine::new(idx, &file, pai_index::AdaptConfig::default()).unwrap();
        let e = exact.evaluate(&window, &aggs).unwrap();

        for (i, (av, ev)) in a.values.iter().zip(&e.values).enumerate() {
            match (av.as_f64(), ev.as_f64()) {
                (Some(x), Some(y)) => {
                    assert!(
                        (x - y).abs() <= 1e-6 * (1.0 + y.abs()),
                        "agg {i}: {x} vs {y}"
                    )
                }
                (None, None) => {}
                other => panic!("agg {i}: {other:?}"),
            }
        }
        assert_eq!(a.error_bound, 0.0);
    }

    #[test]
    fn count_queries_are_free() {
        let (file, spec) = dataset(1000, 3);
        let mut eng = engine(&file, &spec, 4);
        file.counters().reset();
        let res = eng
            .evaluate(
                &Rect::new(0.0, 400.0, 0.0, 400.0),
                &[AggregateFunction::Count],
                0.0,
            )
            .unwrap();
        assert_eq!(res.stats.io.objects_read, 0, "counts come from the index");
        assert_eq!(res.error_bound, 0.0);
        assert_eq!(res.stats.tiles_processed, 0, "no adaptation needed at all");
    }

    #[test]
    fn met_constraint_reported_honestly() {
        let (file, spec) = dataset(800, 5);
        let mut eng = engine(&file, &spec, 3);
        let res = eng
            .evaluate(
                &Rect::new(100.0, 900.0, 100.0, 900.0),
                &[AggregateFunction::Sum(2)],
                1e-15,
            )
            .unwrap();
        // With phi this tight every candidate gets processed; the result is
        // exact, so the bound is 0 and the constraint is met.
        assert!(res.met_constraint);
        assert_eq!(res.stats.tiles_processed, res.stats.tiles_partial);
    }

    #[test]
    fn eager_refinement_processes_extra_tiles() {
        let (file, spec) = dataset(4000, 31);
        let window = Rect::new(100.0, 700.0, 100.0, 700.0);
        let aggs = [AggregateFunction::Mean(2)];

        let mk = |eager| {
            let init = InitConfig {
                grid: GridSpec::Fixed { nx: 6, ny: 6 },
                domain: Some(spec.domain),
                metadata: MetadataPolicy::AllNumeric,
            };
            let (idx, _) = build(&file, &init).unwrap();
            ApproximateEngine::new(
                idx,
                &file,
                EngineConfig {
                    eager,
                    ..EngineConfig::paper_evaluation()
                },
            )
            .unwrap()
        };
        let mut lazy = mk(EagerRefinement::Off);
        let rl = lazy.evaluate(&window, &aggs, 0.10).unwrap();
        let mut eager = mk(EagerRefinement::ExtraTiles(3));
        let re = eager.evaluate(&window, &aggs, 0.10).unwrap();
        assert!(re.stats.tiles_processed >= rl.stats.tiles_processed);
        assert!(
            re.error_bound <= rl.error_bound + 1e-12,
            "extra work can only tighten"
        );
    }

    #[test]
    fn all_policies_satisfy_constraint() {
        let (file, spec) = dataset(3000, 41);
        let window = Rect::new(200.0, 700.0, 200.0, 700.0);
        let aggs = [AggregateFunction::Sum(2)];
        for policy in [
            SelectionPolicy::ScoreGreedy { alpha: 1.0 },
            SelectionPolicy::ScoreGreedy { alpha: 0.5 },
            SelectionPolicy::ScoreGreedy { alpha: 0.0 },
            SelectionPolicy::CostBenefit,
            SelectionPolicy::Random { seed: 7 },
        ] {
            let init = InitConfig {
                grid: GridSpec::Fixed { nx: 6, ny: 6 },
                domain: Some(spec.domain),
                metadata: MetadataPolicy::AllNumeric,
            };
            let (idx, _) = build(&file, &init).unwrap();
            let mut eng = ApproximateEngine::new(
                idx,
                &file,
                EngineConfig {
                    policy,
                    ..EngineConfig::paper_evaluation()
                },
            )
            .unwrap();
            let res = eng.evaluate(&window, &aggs, 0.05).unwrap();
            assert!(res.met_constraint, "{}", policy.name());
            let truth = window_truth(&file, &window, &[2]).unwrap();
            assert!(
                res.cis[0].unwrap().contains(truth[0].stats.sum()),
                "{} CI must contain truth",
                policy.name()
            );
        }
    }

    #[test]
    fn metadata_free_init_still_sound() {
        let (file, spec) = dataset(1500, 57);
        let init = InitConfig {
            grid: GridSpec::Fixed { nx: 4, ny: 4 },
            domain: Some(spec.domain),
            metadata: MetadataPolicy::None,
        };
        let (idx, _) = build(&file, &init).unwrap();
        let mut eng = ApproximateEngine::new(idx, &file, EngineConfig::paper_evaluation()).unwrap();
        let window = Rect::new(100.0, 600.0, 100.0, 600.0);
        // Without init metadata or global bounds, every tile is unbounded:
        // the engine must process its way to a sound answer.
        let aggs = [AggregateFunction::Sum(2)];
        let res = eng.evaluate(&window, &aggs, 0.05).unwrap();
        assert!(res.met_constraint);
        // Fully-resolved answers give point CIs; compare with the tolerant
        // verifier (float merge order differs from the sequential scan).
        crate::verify::assert_verified(
            &file,
            &window,
            &aggs,
            &res,
            crate::bound::NormalizationMode::Estimate,
        );
    }

    #[test]
    fn invalid_phi_rejected() {
        let (file, spec) = dataset(100, 1);
        let mut eng = engine(&file, &spec, 2);
        let w = Rect::new(0.0, 1.0, 0.0, 1.0);
        assert!(eng.evaluate(&w, &[AggregateFunction::Count], -0.5).is_err());
        assert!(eng
            .evaluate(&w, &[AggregateFunction::Count], f64::NAN)
            .is_err());
    }

    #[test]
    fn adaptation_accumulates_across_queries() {
        let (file, spec) = dataset(6000, 77);
        let mut eng = engine(&file, &spec, 6);
        let aggs = [AggregateFunction::Mean(2)];
        let w1 = Rect::new(100.0, 500.0, 100.0, 500.0);
        let r1 = eng.evaluate(&w1, &aggs, 0.01).unwrap();
        // Re-pose the same query: the index kept its adaptation.
        let r2 = eng.evaluate(&w1, &aggs, 0.01).unwrap();
        assert!(
            r2.stats.io.objects_read < r1.stats.io.objects_read.max(1),
            "second pass should be cheaper: {} vs {}",
            r2.stats.io.objects_read,
            r1.stats.io.objects_read
        );
    }

    // ---- I/O-budget mode ---------------------------------------------------

    #[test]
    fn io_budget_is_respected_exactly() {
        let (file, spec) = dataset(4000, 91);
        let window = Rect::new(150.0, 650.0, 150.0, 650.0);
        let aggs = [AggregateFunction::Sum(2)];
        for budget in [0u64, 50, 200, 1000, u64::MAX] {
            let mut eng = engine(&file, &spec, 6);
            file.counters().reset();
            let res = eng.evaluate_with_io_budget(&window, &aggs, budget).unwrap();
            assert!(
                res.stats.io.objects_read <= budget,
                "budget {budget}: read {}",
                res.stats.io.objects_read
            );
            assert!(res.met_constraint, "budget mode has no constraint to miss");
            assert_eq!(res.phi, f64::INFINITY);
            // Whatever was achieved, the CI still contains the truth.
            let truth = window_truth(&file, &window, &[2]).unwrap();
            if let Some(ci) = res.cis[0] {
                assert!(
                    ci.contains(truth[0].stats.sum())
                        || (truth[0].stats.sum() - ci.lo()).abs() < 1e-9 * (1.0 + ci.lo().abs())
                        || (truth[0].stats.sum() - ci.hi()).abs() < 1e-9 * (1.0 + ci.hi().abs()),
                    "budget {budget}: truth escaped CI"
                );
            }
        }
    }

    #[test]
    fn larger_budget_tightens_bound() {
        let (file, spec) = dataset(4000, 92);
        let window = Rect::new(150.0, 650.0, 150.0, 650.0);
        let aggs = [AggregateFunction::Mean(2)];
        let mut bounds = Vec::new();
        for budget in [0u64, 100, 500, 5000] {
            let mut eng = engine(&file, &spec, 6);
            let res = eng.evaluate_with_io_budget(&window, &aggs, budget).unwrap();
            bounds.push(res.error_bound);
        }
        for w in bounds.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "bounds must tighten: {bounds:?}");
        }
        assert!(bounds[0] > bounds[3], "extremes must differ: {bounds:?}");
    }

    #[test]
    fn zero_budget_equals_readonly_estimate() {
        let (file, spec) = dataset(2000, 93);
        let window = Rect::new(200.0, 700.0, 200.0, 700.0);
        let aggs = [AggregateFunction::Sum(2)];
        let mut eng = engine(&file, &spec, 5);
        let ro = eng.estimate(&window, &aggs).unwrap();
        let budget0 = eng.evaluate_with_io_budget(&window, &aggs, 0).unwrap();
        assert_eq!(ro.values[0].as_f64(), budget0.values[0].as_f64());
        assert_eq!(ro.error_bound, budget0.error_bound);
        assert_eq!(budget0.stats.io.objects_read, 0);
    }

    #[test]
    fn traced_evaluation_converges_monotonically() {
        let (file, spec) = dataset(4000, 95);
        let window = Rect::new(150.0, 650.0, 150.0, 650.0);
        let aggs = [AggregateFunction::Mean(2)];
        let mut eng = engine(&file, &spec, 6);
        let (res, trace) = eng.evaluate_traced(&window, &aggs, 0.01).unwrap();
        assert!(res.met_constraint);
        assert_eq!(
            trace.len(),
            res.stats.tiles_processed + 1,
            "one step per tile + initial"
        );
        // Bounds tighten monotonically; I/O grows monotonically.
        for w in trace.windows(2) {
            assert!(w[1].error_bound <= w[0].error_bound + 1e-12);
            assert!(w[1].objects_read >= w[0].objects_read);
            assert!(w[1].bytes_read >= w[0].bytes_read);
            assert_eq!(w[1].tiles_processed, w[0].tiles_processed + 1);
        }
        // The final step's meters match the result's I/O accounting.
        let last = trace.last().unwrap();
        assert_eq!(last.objects_read, res.stats.io.objects_read);
        assert_eq!(last.bytes_read, res.stats.io.bytes_read);
        assert_eq!(trace.last().unwrap().error_bound, res.error_bound);
        // Every intermediate estimate is within its own (wider) bound of
        // the final answer — the progressive rendering never lies.
        let final_est = res.values[0].as_f64().unwrap();
        for s in &trace {
            if let Some(e) = s.estimate {
                if s.error_bound.is_finite() && e.abs() > 1e-9 {
                    assert!(
                        (e - final_est).abs() <= s.error_bound * e.abs() * 2.0 + 1e-6,
                        "step {} estimate {e} too far from final {final_est} (bound {})",
                        s.tiles_processed,
                        s.error_bound
                    );
                }
            }
        }
    }

    #[test]
    fn binary_backend_matches_csv_with_less_io() {
        let spec = DatasetSpec {
            rows: 3000,
            columns: 4,
            seed: 7,
            ..Default::default()
        };
        let csv = spec.build_mem(CsvFormat::default()).unwrap();
        let bin = spec.build_bin_mem().unwrap();
        let init = InitConfig {
            grid: GridSpec::Fixed { nx: 6, ny: 6 },
            domain: Some(spec.domain),
            metadata: MetadataPolicy::AllNumeric,
        };
        let window = Rect::new(150.0, 650.0, 200.0, 700.0);
        let aggs = [AggregateFunction::Sum(2), AggregateFunction::Mean(3)];

        let (ci, _) = build(&csv, &init).unwrap();
        let mut ce = ApproximateEngine::new(ci, &csv, EngineConfig::paper_evaluation()).unwrap();
        let rc = ce.evaluate(&window, &aggs, 0.05).unwrap();

        let (bi, _) = build(&bin, &init).unwrap();
        let mut be = ApproximateEngine::new(bi, &bin, EngineConfig::paper_evaluation()).unwrap();
        let rb = be.evaluate(&window, &aggs, 0.05).unwrap();

        // Same scan order, same values, same adaptation loop: identical
        // approximate answers and trajectory on either backend.
        for (c, b) in rc.values.iter().zip(&rb.values) {
            assert_eq!(c.as_f64(), b.as_f64());
        }
        assert_eq!(rc.error_bound, rb.error_bound);
        assert_eq!(rc.stats.tiles_processed, rb.stats.tiles_processed);
        assert_eq!(rc.stats.tiles_split, rb.stats.tiles_split);
        assert_eq!(rc.stats.io.objects_read, rb.stats.io.objects_read);
        // The binary backend fetches values, not whole text records.
        assert!(rb.stats.io.objects_read > 0, "workload must adapt");
        assert!(
            rb.stats.io.bytes_read < rc.stats.io.bytes_read,
            "binary adaptation reads must be cheaper: {} vs {}",
            rb.stats.io.bytes_read,
            rc.stats.io.bytes_read
        );
        // The CI really contains the truth on the binary path too.
        let truth = window_truth(&bin, &window, &[2]).unwrap();
        assert!(rb.cis[0].unwrap().contains(truth[0].stats.sum()));
    }

    #[test]
    fn zone_backend_matches_others_with_less_io() {
        let spec = DatasetSpec {
            rows: 3000,
            columns: 4,
            seed: 7,
            ..Default::default()
        };
        let bin = spec.build_bin_mem().unwrap();
        let zone = spec.build_zone_mem().unwrap();
        let init = InitConfig {
            grid: GridSpec::Fixed { nx: 6, ny: 6 },
            domain: Some(spec.domain),
            metadata: MetadataPolicy::AllNumeric,
        };
        let window = Rect::new(150.0, 650.0, 200.0, 700.0);
        let aggs = [AggregateFunction::Sum(2), AggregateFunction::Mean(3)];

        let (bi, _) = build(&bin, &init).unwrap();
        let mut be = ApproximateEngine::new(bi, &bin, EngineConfig::paper_evaluation()).unwrap();
        let rb = be.evaluate(&window, &aggs, 0.05).unwrap();

        let (zi, _) = build(&zone, &init).unwrap();
        let mut ze = ApproximateEngine::new(zi, &zone, EngineConfig::paper_evaluation()).unwrap();
        let rz = ze.evaluate(&window, &aggs, 0.05).unwrap();

        // Identical answers and trajectory — the compression and pushdown
        // are invisible except through the meters.
        for (b, z) in rb.values.iter().zip(&rz.values) {
            assert_eq!(b.as_f64(), z.as_f64());
        }
        assert_eq!(rb.error_bound, rz.error_bound);
        assert_eq!(rb.stats.tiles_processed, rz.stats.tiles_processed);
        assert_eq!(rb.stats.io.objects_read, rz.stats.io.objects_read);
        assert!(rz.stats.io.objects_read > 0, "workload must adapt");
        // Bit-packed fetches move fewer bytes than 8-byte-per-value PaiBin.
        assert!(
            rz.stats.io.bytes_read < rb.stats.io.bytes_read,
            "zone adaptation reads must be cheaper: {} vs {}",
            rz.stats.io.bytes_read,
            rb.stats.io.bytes_read
        );
        // Both block-structured backends meter their block touches.
        assert!(rz.stats.io.blocks_read > 0);
        assert!(rb.stats.io.blocks_read > 0);
        let truth = window_truth(&zone, &window, &[2]).unwrap();
        assert!(rz.cis[0].unwrap().contains(truth[0].stats.sum()));
    }

    #[test]
    fn traced_evaluation_carries_block_meters() {
        let spec = DatasetSpec {
            rows: 3000,
            columns: 4,
            seed: 11,
            ..Default::default()
        };
        let zone = spec.build_zone_mem().unwrap();
        let init = InitConfig {
            grid: GridSpec::Fixed { nx: 6, ny: 6 },
            domain: Some(spec.domain),
            metadata: MetadataPolicy::AllNumeric,
        };
        let (zi, _) = build(&zone, &init).unwrap();
        let mut eng = ApproximateEngine::new(zi, &zone, EngineConfig::paper_evaluation()).unwrap();
        let (res, trace) = eng
            .evaluate_traced(
                &Rect::new(150.0, 650.0, 150.0, 650.0),
                &[AggregateFunction::Mean(2)],
                0.01,
            )
            .unwrap();
        assert!(res.met_constraint);
        for w in trace.windows(2) {
            assert!(w[1].blocks_read >= w[0].blocks_read, "monotone block I/O");
        }
        let last = trace.last().unwrap();
        assert_eq!(last.blocks_read, res.stats.io.blocks_read);
        assert_eq!(last.blocks_skipped, res.stats.io.blocks_skipped);
        assert!(last.blocks_read > 0, "zone fetches are block-metered");
    }

    #[test]
    fn readonly_estimate_does_not_adapt() {
        let (file, spec) = dataset(2000, 94);
        let window = Rect::new(200.0, 700.0, 200.0, 700.0);
        let eng = engine(&file, &spec, 5);
        let leaves_before = eng.index().leaf_count();
        file.counters().reset();
        let res = eng
            .estimate(&window, &[AggregateFunction::Mean(2)])
            .unwrap();
        assert_eq!(file.counters().objects_read(), 0);
        assert_eq!(eng.index().leaf_count(), leaves_before);
        assert!(res.error_bound.is_finite());
    }

    fn engine_cfg<'f>(
        file: &'f MemFile,
        spec: &DatasetSpec,
        grid: usize,
        metadata: MetadataPolicy,
        config: EngineConfig,
    ) -> ApproximateEngine<'f> {
        let init = InitConfig {
            grid: GridSpec::Fixed { nx: grid, ny: grid },
            domain: Some(spec.domain),
            metadata,
        };
        let (idx, _) = build(file, &init).unwrap();
        ApproximateEngine::new(idx, file, config).unwrap()
    }

    #[test]
    fn synopsis_hit_answers_with_zero_data_io() {
        let (file, spec) = dataset(3000, 21);
        let cfg = EngineConfig::paper_evaluation().with_synopsis();
        // No tile metadata: the index's own answer misses phi, so the
        // synopses are consulted.
        let mut eng = engine_cfg(&file, &spec, 6, MetadataPolicy::None, cfg);
        // A window containing every block's envelope: all blocks fully
        // covered, so the synopsis answer is exact and meets any phi.
        let window = Rect::new(-1e9, 1e9, -1e9, 1e9);
        let aggs = [
            AggregateFunction::Sum(2),
            AggregateFunction::Mean(2),
            AggregateFunction::Count,
        ];
        // Warm the lazily-computed synopses: on scan-based backends the
        // one-time derivation pays a metered scan (zone/http read them
        // from the header instead); the *query* itself must then be free.
        let _ = file.block_synopses();
        file.counters().reset();
        let res = eng.evaluate(&window, &aggs, 0.05).unwrap();
        assert!(res.met_constraint);
        assert_eq!(res.stats.io.objects_read, 0, "zero data I/O on a hit");
        assert_eq!(res.stats.io.read_calls, 0);
        assert_eq!(res.stats.io.fetch_wall_us, 0);
        assert_eq!(res.stats.io.synopsis_hits, 1);
        assert!(res.stats.io.synopsis_blocks > 0);
        assert!(res.stats.io.synopsis_bytes > 0);
        let truth = window_truth(&file, &window, &[2]).unwrap();
        let ci = res.cis[0].unwrap();
        let t = truth[0].stats.sum();
        assert!(
            ci.contains(t) || (t - ci.lo()).abs() < 1e-9 * (1.0 + t.abs()),
            "truth {t} escaped synopsis CI {ci}"
        );
        assert_eq!(res.values[2], AggregateValue::Count(3000));
    }

    #[test]
    fn synopsis_hit_trace_is_a_single_step() {
        let (file, spec) = dataset(2000, 33);
        let cfg = EngineConfig::paper_evaluation().with_synopsis();
        let mut eng = engine_cfg(&file, &spec, 5, MetadataPolicy::None, cfg);
        let window = Rect::new(-1e9, 1e9, -1e9, 1e9);
        let (res, trace) = eng
            .evaluate_traced(&window, &[AggregateFunction::Mean(3)], 0.1)
            .unwrap();
        assert_eq!(res.stats.io.synopsis_hits, 1);
        assert_eq!(trace.len(), 1, "hit = one metadata-only step");
        assert_eq!(trace[0].tiles_processed, 0);
        assert_eq!(trace[0].synopsis_hits, 1);
        assert!(trace[0].synopsis_bytes > 0);
        assert_eq!(trace[0].objects_read, 0);
    }

    #[test]
    fn synopsis_miss_is_identical_to_synopsis_off() {
        // phi = 0 on a window that cuts blocks: the synopsis CI has width,
        // so the attempt misses and the adaptation path must be untouched.
        let (file, spec) = dataset(3000, 44);
        let _ = file.block_synopses();
        let window = Rect::new(150.0, 650.0, 200.0, 700.0);
        let aggs = [AggregateFunction::Sum(2), AggregateFunction::Mean(2)];
        let mut on = engine_cfg(
            &file,
            &spec,
            6,
            MetadataPolicy::AllNumeric,
            EngineConfig::paper_evaluation().with_synopsis(),
        );
        let mut off = engine_cfg(
            &file,
            &spec,
            6,
            MetadataPolicy::AllNumeric,
            EngineConfig::paper_evaluation(),
        );
        let ra = on.evaluate(&window, &aggs, 0.0).unwrap();
        let rb = off.evaluate(&window, &aggs, 0.0).unwrap();
        assert_eq!(ra.stats.io.synopsis_hits, 0, "phi = 0 cut window misses");
        assert_eq!(ra.values, rb.values);
        assert_eq!(ra.cis, rb.cis);
        assert_eq!(ra.error_bound, rb.error_bound);
        assert_eq!(ra.stats.io.objects_read, rb.stats.io.objects_read);
    }

    /// Engines with synopses on and off over clones of one index.
    fn synopses_on_off<'f>(
        file: &'f MemFile,
        spec: &DatasetSpec,
        metadata: MetadataPolicy,
    ) -> (ApproximateEngine<'f>, ApproximateEngine<'f>) {
        let init = InitConfig {
            grid: GridSpec::Fixed { nx: 6, ny: 6 },
            domain: Some(spec.domain),
            metadata,
        };
        let (index, _) = build(file, &init).unwrap();
        let off = EngineConfig::paper_evaluation();
        let on = off.clone().with_synopsis();
        (
            ApproximateEngine::new(index.clone(), file, on).unwrap(),
            ApproximateEngine::new(index, file, off).unwrap(),
        )
    }

    /// Every value, CI endpoint and the bound, as bits.
    fn answer_bits(r: &ApproxResult) -> Vec<Option<u64>> {
        let values = r.values.iter().map(|v| v.as_f64());
        let cis = r
            .cis
            .iter()
            .flat_map(|ci| [ci.map(|c| c.lo()), ci.map(|c| c.hi())]);
        values
            .chain(cis)
            .chain([Some(r.error_bound)])
            .map(|x| x.map(f64::to_bits))
            .collect()
    }

    #[test]
    fn index_answered_query_never_consults_synopses() {
        let (file, spec) = dataset(3000, 21);
        let _ = file.block_synopses();
        let (mut on, mut off) = synopses_on_off(&file, &spec, MetadataPolicy::AllNumeric);
        // Every tile fully inside, with exact metadata: the index answers
        // exactly, ahead of the synopses.
        let window = Rect::new(-1e9, 1e9, -1e9, 1e9);
        let aggs = [
            AggregateFunction::Sum(2),
            AggregateFunction::Mean(2),
            AggregateFunction::Count,
        ];
        let a = on.evaluate(&window, &aggs, 0.05).unwrap();
        let b = off.evaluate(&window, &aggs, 0.05).unwrap();
        let io = &a.stats.io;
        assert_eq!(
            (io.synopsis_hits, io.synopsis_blocks, io.synopsis_bytes),
            (0, 0, 0)
        );
        assert_eq!(answer_bits(&a), answer_bits(&b));
        assert_eq!(a.stats.tiles_processed, b.stats.tiles_processed);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        /// With synopses on, an answer is the synopses-off engine's, bit
        /// for bit (the index answered, or the synopses missed), or a
        /// zero-I/O hit that meets phi with truth-containing CIs. Without
        /// tile metadata the seeding moves the trajectory, so only the
        /// guarantees are checked.
        #[test]
        fn synopsis_tier_is_invisible_or_a_sound_hit(
            seed in 0u64..4,
            window in (-100.0f64..1000.0, 0.0f64..1200.0, -100.0f64..1000.0, 0.0f64..1200.0),
            phi_pick in 0usize..3,
            whole in 0usize..4,
        ) {
            let (file, spec) = dataset(1500, seed);
            let _ = file.block_synopses();
            // One window in four covers every row: the index answers it
            // exactly from AllNumeric metadata, the synopses without any.
            let (x0, w, y0, h) = window;
            let window = if whole == 0 {
                Rect::new(-1.0, 1001.0, -1.0, 1001.0)
            } else {
                Rect::new(x0, x0 + w, y0, y0 + h)
            };
            let aggs = [
                AggregateFunction::Sum(2),
                AggregateFunction::Mean(3),
                AggregateFunction::Count,
            ];
            let phi = [0.0, 0.01, 0.05][phi_pick];
            let verify = |r: &ApproxResult| {
                crate::verify::assert_verified(
                    &file,
                    &window,
                    &aggs,
                    r,
                    crate::bound::NormalizationMode::Estimate,
                )
            };

            let (mut on, mut off) = synopses_on_off(&file, &spec, MetadataPolicy::AllNumeric);
            let a = on.evaluate(&window, &aggs, phi).unwrap();
            let b = off.evaluate(&window, &aggs, phi).unwrap();
            if a.stats.io.synopsis_hits == 0 {
                proptest::prop_assert_eq!(answer_bits(&a), answer_bits(&b));
                proptest::prop_assert_eq!(a.stats.tiles_processed, b.stats.tiles_processed);
                proptest::prop_assert_eq!((a.stats.io.synopsis_blocks, a.stats.io.synopsis_bytes), (0, 0));
            } else {
                proptest::prop_assert!(a.met_constraint && a.error_bound <= phi);
                proptest::prop_assert_eq!(a.stats.io.objects_read, 0);
                verify(&a);
            }

            let (mut on, _) = synopses_on_off(&file, &spec, MetadataPolicy::None);
            let a = on.evaluate(&window, &aggs, phi).unwrap();
            proptest::prop_assert!(a.met_constraint && a.error_bound <= phi);
            verify(&a);
        }
    }

    #[test]
    fn metadata_free_cold_start_bounded_by_seeding() {
        let (file, spec) = dataset(2500, 55);
        let window = Rect::new(150.0, 650.0, 200.0, 700.0);
        let aggs = [AggregateFunction::Sum(2)];
        // Without synopses a None-policy session starts unbounded.
        let mut off = engine_cfg(
            &file,
            &spec,
            6,
            MetadataPolicy::None,
            EngineConfig::paper_evaluation(),
        );
        let (_, trace_off) = off.evaluate_traced(&window, &aggs, 0.0).unwrap();
        assert!(
            trace_off[0].error_bound.is_infinite(),
            "no metadata, no global bounds: the step-0 answer is unbounded"
        );
        // With synopses the pass seeds global bounds before assessment, so
        // even the metadata-only step 0 is a sound finite interval.
        let mut on = engine_cfg(
            &file,
            &spec,
            6,
            MetadataPolicy::None,
            EngineConfig::paper_evaluation().with_synopsis(),
        );
        let (res_on, trace_on) = on.evaluate_traced(&window, &aggs, 0.0).unwrap();
        assert!(
            trace_on[0].error_bound.is_finite(),
            "seeded global bounds make step 0 bounded"
        );
        // Both converge to the same exact answer.
        let res_off = off.evaluate(&window, &aggs, 0.0).unwrap();
        let (a, b) = (
            res_on.values[0].as_f64().unwrap(),
            res_off.values[0].as_f64().unwrap(),
        );
        assert!((a - b).abs() <= 1e-9 * (1.0 + b.abs()), "{a} vs {b}");
    }
}
