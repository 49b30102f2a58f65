//! # Partial Adaptive Indexing for Approximate Query Answering
//!
//! A from-scratch Rust implementation of the VLDB 2024 (BigVis) paper
//! *Partial Adaptive Indexing for Approximate Query Answering* (Maroulis,
//! Bikakis, Stamatopoulos, Papastefanatos), together with every substrate it
//! builds on: in-situ CSV storage, the VALINOR-style hierarchical tile
//! index with exact adaptive refinement, the visual-exploration query
//! model, and a benchmark harness regenerating the paper's figures.
//!
//! ## Quick start
//!
//! ```
//! use partial_adaptive_indexing::prelude::*;
//!
//! // 1. A raw CSV data source (here: synthetic, in memory).
//! let spec = DatasetSpec { rows: 20_000, columns: 4, seed: 1, ..Default::default() };
//! let file = spec.build_mem(CsvFormat::default()).unwrap();
//!
//! // 2. Build the crude initial index (one scan).
//! let init = InitConfig {
//!     grid: GridSpec::Fixed { nx: 8, ny: 8 },
//!     domain: Some(spec.domain),
//!     metadata: MetadataPolicy::AllNumeric,
//! };
//! let (index, _report) = build(&file, &init).unwrap();
//!
//! // 3. Ask for the mean of column 2 in a window, within 5 % error.
//! let mut engine =
//!     ApproximateEngine::new(index, &file, EngineConfig::paper_evaluation()).unwrap();
//! let window = Rect::new(200.0, 600.0, 200.0, 600.0);
//! let result = engine
//!     .evaluate(&window, &[AggregateFunction::Mean(2)], 0.05)
//!     .unwrap();
//!
//! assert!(result.met_constraint);
//! let ci = result.cis[0].unwrap();
//! println!(
//!     "mean ≈ {} (exact answer guaranteed within [{}, {}])",
//!     result.values[0], ci.lo(), ci.hi()
//! );
//! ```
//!
//! ## Crate map
//!
//! | crate | role |
//! |-------|------|
//! | [`pai_common`] | geometry, interval arithmetic, running stats, errors |
//! | [`pai_storage`] | raw CSV files: schema, parsing, offset reads, generators |
//! | [`pai_index`] | VALINOR tile index: init, exact adaptation, metadata |
//! | [`pai_core`] | the paper's contribution: CIs, error bounds, partial adaptation |
//! | [`pai_query`] | exploration model: sessions, workloads, heatmaps, runners, reports |
//! | [`pai_server`] | multi-session socket server over `SharedIndex` with admission control |
//!
//! See `docs/ARCHITECTURE.md` for the full system inventory and
//! `docs/BENCHMARKS.md` for how the paper's results are reproduced.

pub use pai_common;
pub use pai_core;
pub use pai_index;
pub use pai_query;
pub use pai_server;
pub use pai_storage;

/// One-stop imports for applications and examples.
pub mod prelude {
    pub use pai_common::geometry::{Point2, Rect};
    pub use pai_common::{
        AggregateFunction, AggregateValue, AtomicHistogram, Interval, IoCounters, IoSnapshot,
        LatencyHistogram, PaiError, Result, RowLocator, RunningStats,
    };
    pub use pai_core::{
        predict_query_io, ApproxResult, ApproximateEngine, EagerRefinement, EngineConfig,
        IoPrediction, SelectionPolicy, SharedIndex,
    };
    pub use pai_index::init::{build, build_clipped, build_parallel, GridSpec, InitConfig};
    pub use pai_index::{AdaptConfig, MetadataPolicy, ReadPolicy, SplitPolicy, ValinorIndex};
    pub use pai_query::{analytics, report, ExplorationSession, Method, WindowQuery, Workload};
    pub use pai_server::{
        PaiClient, PaiServer, ServeEngine, ServedAnswer, ServedReply, ServerConfig, ServerStats,
    };
    pub use pai_storage::{
        convert_to_zone, convert_to_zone_spec, write_zone, BlockCache, BlockStats, BlockSynopsis,
        CacheConfig, CachedFile, ColumnSynopsis, CsvFile, CsvFormat, DatasetSpec, Fault, FaultPlan,
        HttpFile, HttpOptions, LatencyFile, MemFile, ObjectStore, PointDistribution, RawFile,
        RowBatch, RowOrder, Schema, SynopsisSpec, ValueModel, ZoneFile,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_compiles_and_reexports() {
        use crate::prelude::*;
        // Touch a few re-exports so regressions in the facade surface here.
        let _ = AggregateFunction::Count;
        let _ = EngineConfig::paper_evaluation();
        let _ = SplitPolicy::QueryAligned;
        let r = Rect::new(0.0, 1.0, 0.0, 1.0);
        assert!(r.area() > 0.0);
    }
}
