//! The exploration model of the RawVis line of work (§2.1), plus the
//! evaluation machinery the paper's experiments need.
//!
//! * [`query`] — window queries: a window and the aggregates to answer
//!   within an accuracy constraint;
//! * [`session`] — stateful visual exploration: pan, zoom, jump, with the
//!   engine adapting underneath;
//! * [`workload`] — query-sequence generators, including the paper's
//!   "shifted 10–20 % randomly" map-exploration path;
//! * [`analytics`] — metadata-only tile heatmaps with confidence intervals;
//! * [`runner`] — runs a workload under several methods (exact, φ = 1 %,
//!   φ = 5 %, ...) on fresh index builds and collects per-query records;
//! * [`report`] — text/CSV/ASCII-chart rendering of run records (the Fig. 2
//!   regeneration path).

pub mod analytics;
pub mod query;
pub mod report;
pub mod runner;
pub mod session;
pub mod workload;

pub use query::WindowQuery;
pub use runner::{compare_methods, run_workload, Method, MethodRun, QueryRecord};
pub use session::ExplorationSession;
pub use workload::Workload;
