//! Configuration of index construction and adaptation.

use pai_common::{AttrId, Result};

use crate::split::SplitPolicy;

/// Which non-axis attributes get exact metadata during the initialization
/// scan.
///
/// More initial metadata means tighter confidence intervals from query one,
/// at the cost of a heavier (more parsing) initialization pass — the
/// "crude vs rich initial index" trade-off of the RawVis line of work.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum MetadataPolicy {
    /// Exact stats for every non-axis numeric column (default; matches the
    /// paper's assumption that sum/min/max metadata is available per tile).
    #[default]
    AllNumeric,
    /// No value parsing at initialization: entries + counts only. The AQP
    /// engine then falls back to global column bounds (if available) or
    /// must process every partial tile.
    None,
}

impl MetadataPolicy {
    /// Resolves the concrete attribute list for a schema.
    pub fn resolve(&self, schema: &pai_storage::Schema) -> Vec<AttrId> {
        match self {
            MetadataPolicy::AllNumeric => schema.non_axis_numeric(),
            MetadataPolicy::None => Vec::new(),
        }
    }
}

/// How much of a processed tile is read from the raw file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadPolicy {
    /// Read only the objects inside the query window (the paper's Figure 1
    /// reads exactly the three selected objects). Subtiles fully inside the
    /// window get exact metadata; the rest inherit bounds from the parent.
    #[default]
    WindowOnly,
    /// Read every object of the tile. Costs more I/O now, but every subtile
    /// gets exact metadata, which pays off for later queries in the area.
    FullTile,
}

/// Adaptation parameters shared by the exact and approximate engines. A
/// processed tile gets exact metadata for the attributes the triggering
/// query aggregates over.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptConfig {
    pub split: SplitPolicy,
    pub read: ReadPolicy,
    /// A tile with fewer objects is read but not split (splitting overhead
    /// would not be repaid; mirrors the paper's "considers factors related
    /// to I/O cost in order to decide whether to perform a split").
    pub min_split_objects: u64,
}

impl Default for AdaptConfig {
    fn default() -> Self {
        AdaptConfig {
            split: SplitPolicy::default(),
            read: ReadPolicy::default(),
            min_split_objects: 32,
        }
    }
}

impl AdaptConfig {
    /// Validates parameter sanity.
    pub fn validate(&self) -> Result<()> {
        self.split.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pai_storage::Schema;

    #[test]
    fn metadata_policy_resolution() {
        let s = Schema::synthetic(5);
        assert_eq!(MetadataPolicy::AllNumeric.resolve(&s), vec![2, 3, 4]);
        assert!(MetadataPolicy::None.resolve(&s).is_empty());
    }

    #[test]
    fn default_config_is_valid() {
        assert!(AdaptConfig::default().validate().is_ok());
    }
}
