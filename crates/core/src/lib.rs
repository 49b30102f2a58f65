//! Partial adaptive indexing for approximate query answering — the paper's
//! contribution (§3).
//!
//! Given a window-aggregate query and a user accuracy constraint `φ`, the
//! [`ApproximateEngine`] answers from the tile index's aggregate metadata,
//! building a **deterministic confidence interval** that is guaranteed to
//! contain the exact answer, and **partially adapts** the index — it
//! processes (reads + splits + enriches) only as many partially-contained
//! tiles as needed to shrink the upper error bound below `φ`. Tiles are
//! chosen by a pluggable [`SelectionPolicy`]; the paper's policy is the
//! score `s(t) = α·w(t) + (1−α)/count(t∩Q)` with both terms normalized.
//!
//! Module map:
//! * [`config`] — engine knobs (selection policy, eager refinement, batch
//!   and fetch widths, the synopsis tier);
//! * [`state`] — the per-query bookkeeping: exact accumulators plus the
//!   still-bounded candidate tiles;
//! * [`ci`] — confidence-interval assembly and approximate-value estimation
//!   for every supported aggregate;
//! * [`bound`] — the relative upper error bound;
//! * [`policy`] — tile-selection policies (paper's score greedy and the
//!   ablation baselines);
//! * [`engine`] — the partial-adaptation loop (accuracy-constrained,
//!   I/O-budgeted, and read-only modes);
//! * [`concurrent`] — a shared, lock-protected index for multi-view UIs,
//!   including the streaming-ingest entry point;
//! * [`compactor`] — the background thread re-clustering streamed delta
//!   blocks into Z-order;
//! * [`synopsis`] — the second zero-I/O tier: answers composed from
//!   per-block synopses (`RawFile::block_synopses`) when tile metadata
//!   misses `φ`, plus the pre-evaluation I/O predictor;
//! * [`verify`] — test/bench helpers checking results against ground truth.

pub mod bound;
pub mod ci;
pub mod compactor;
pub mod concurrent;
pub mod config;
pub mod engine;
#[cfg(test)]
mod eval;
pub mod policy;
pub mod state;
pub mod synopsis;
pub mod verify;

pub use bound::{relative_error, upper_error_bound};
pub use ci::AggregateEstimate;
pub use compactor::{
    compact_now, spawn_compactor, CompactorConfig, CompactorHandle, CompactorStats,
};
pub use concurrent::SharedIndex;
pub use config::{EagerRefinement, EngineConfig};
pub use engine::{estimate_readonly, ApproxResult, ApproximateEngine};
pub use policy::SelectionPolicy;
pub use state::{Candidate, CandidateKind, QueryState};
pub use synopsis::{predict_query_io, seed_missing_global_bounds, IoPrediction};
