//! Shared foundation types for the partial-adaptive-indexing workspace.
//!
//! This crate holds the small, dependency-free building blocks used by every
//! other crate in the reproduction of *Partial Adaptive Indexing for
//! Approximate Query Answering* (VLDB 2024 Workshops):
//!
//! * [`geometry`] — 2D points and axis-aligned rectangles (tiles, query
//!   windows) with the containment/overlap classification the index relies on;
//! * [`interval`] — closed real intervals with the arithmetic needed to
//!   assemble deterministic confidence intervals;
//! * [`stats`] — mergeable running aggregates (count/sum/min/max/sum²) that
//!   back tile metadata;
//! * [`agg`] — the algebraic aggregate functions of the exploration model;
//! * [`counters`] — thread-safe I/O accounting (objects/bytes read), the
//!   hardware-neutral cost metric the paper's evaluation tracks;
//! * [`error`] — the workspace error type;
//! * [`pool`] — the ordered, bounded worker pool behind the pipelined index
//!   build and the overlapped fetch.

#![deny(missing_docs)]

pub mod agg;
pub mod counters;
pub mod error;
pub mod geometry;
pub mod hist;
pub mod interval;
pub mod pool;
pub mod stats;

pub use agg::{AggregateFunction, AggregateValue};
pub use counters::{IoCounters, IoSnapshot};
pub use error::{PaiError, Result};
pub use geometry::{Overlap, Point2, Rect};
pub use hist::{AtomicHistogram, LatencyHistogram};
pub use interval::Interval;
pub use stats::RunningStats;

/// Identifier of a column (attribute) in the raw file schema.
///
/// Axis attributes (the two columns mapped to the X/Y axes of the 2D
/// exploration plane) and non-axis attributes share this id space; the schema
/// records which is which.
pub type AttrId = usize;

/// Zero-based row number of an object inside the raw data file.
pub type RowId = u64;

/// Backend-defined position of one record inside a raw data file.
///
/// The index stores one locator per object and hands batches of them back to
/// the storage layer to materialize attribute values. What the inner `u64`
/// means is private to the backend that issued it: the CSV backend hands out
/// byte offsets, the binary columnar backend hands out row ids. Consumers
/// must treat locators as opaque tickets — only the file that produced a
/// locator can redeem it.
#[repr(transparent)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct RowLocator(u64);

impl RowLocator {
    /// Wraps a backend-defined raw position.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        RowLocator(raw)
    }

    /// The backend-defined raw position (byte offset, row id, ...).
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for RowLocator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "@{}", self.0)
    }
}
