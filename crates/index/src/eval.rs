//! What one query evaluation measures, and the query-side helpers every
//! evaluator shares.
//!
//! Both of the paper's methods — exact adaptive indexing, which processes
//! every partially contained tile, and partial adaptation under an accuracy
//! constraint — run through one loop in `pai-core` (`EvalCtx::run`, under a
//! stop rule per method) and report the same [`QueryStats`], timed stage by
//! stage with a [`StageClock`]. [`query_attrs`] validates a query's
//! aggregates.

use std::time::{Duration, Instant};

use pai_common::counters::IoSnapshot;
use pai_common::{AggregateFunction, AttrId, PaiError, Result};

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
    /// Estimates, confidence intervals and the error bound, a synopsis pass
    /// included. The exact method assesses once, after its last tile.
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

/// Per-query execution metrics, shared by the exact and approximate methods.
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
    /// Tiles processed, by either method: partial tiles read (and maybe
    /// split) plus covered tiles enrichment-read.
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
                    "aggregating axis column {a}: axis values live in the \
                     index's entries, and tile metadata covers only the \
                     non-axis columns"
                )));
            }
            if !attrs.contains(&a) {
                attrs.push(a);
            }
        }
    }
    Ok(attrs)
}
