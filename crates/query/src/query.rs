//! Window queries: the unit of interaction in the exploration model.
//!
//! A [`WindowQuery`] is a 2D range over the axis attributes plus a list of
//! aggregates over non-axis attributes — what the engine answers within an
//! accuracy constraint φ. `pai_index::eval::query_attrs` is the one check of
//! its aggregates against a schema.

use pai_common::geometry::Rect;
use pai_common::AggregateFunction;

/// A 2D window query with aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowQuery {
    pub window: Rect,
    pub aggs: Vec<AggregateFunction>,
}

impl WindowQuery {
    pub fn new(window: Rect, aggs: Vec<AggregateFunction>) -> Self {
        WindowQuery { window, aggs }
    }
}
