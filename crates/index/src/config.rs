//! Configuration of index construction and adaptation.

use pai_common::{AttrId, PaiError, Result};

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
    /// Exact stats only for the listed columns.
    Attrs(Vec<AttrId>),
    /// No value parsing at initialization: entries + counts only. The AQP
    /// engine then falls back to global column bounds (if available) or
    /// must process every partial tile.
    None,
}

impl MetadataPolicy {
    /// Resolves the concrete attribute list for a schema.
    pub fn resolve(&self, schema: &pai_storage::Schema) -> Result<Vec<AttrId>> {
        match self {
            MetadataPolicy::AllNumeric => Ok(schema.non_axis_numeric()),
            MetadataPolicy::Attrs(attrs) => {
                for &a in attrs {
                    schema.require_numeric(a)?;
                    if schema.is_axis(a) {
                        return Err(PaiError::schema(format!(
                            "axis column {a} needs no metadata (values are in the index)"
                        )));
                    }
                }
                Ok(attrs.clone())
            }
            MetadataPolicy::None => Ok(Vec::new()),
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
    /// Tiles whose width or height would drop below this are not split.
    pub min_tile_extent: f64,
    /// Hard cap on nesting depth (safety valve against degenerate data).
    pub max_depth: u16,
    /// Resource-aware adaptation (the VETI paper's concern, which this
    /// paper's index inherits): once the index's estimated main-memory
    /// footprint exceeds this budget, tiles are still *read* (answers stay
    /// correct and bounded) but no longer *split*, so the structure stops
    /// growing. `None` = unbounded (default).
    pub max_index_bytes: Option<usize>,
}

impl Default for AdaptConfig {
    fn default() -> Self {
        AdaptConfig {
            split: SplitPolicy::default(),
            read: ReadPolicy::default(),
            min_split_objects: 32,
            min_tile_extent: 1e-9,
            max_depth: 32,
            max_index_bytes: None,
        }
    }
}

impl AdaptConfig {
    /// Validates parameter sanity.
    pub fn validate(&self) -> Result<()> {
        if self.min_tile_extent < 0.0 || !self.min_tile_extent.is_finite() {
            return Err(PaiError::config("min_tile_extent must be finite and >= 0"));
        }
        if self.max_index_bytes == Some(0) {
            return Err(PaiError::config(
                "max_index_bytes = 0 cannot hold any index; use None for unbounded",
            ));
        }
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
        assert_eq!(
            MetadataPolicy::AllNumeric.resolve(&s).unwrap(),
            vec![2, 3, 4]
        );
        assert_eq!(MetadataPolicy::Attrs(vec![3]).resolve(&s).unwrap(), vec![3]);
        assert!(MetadataPolicy::None.resolve(&s).unwrap().is_empty());
        assert!(MetadataPolicy::Attrs(vec![0]).resolve(&s).is_err(), "axis");
        assert!(MetadataPolicy::Attrs(vec![99]).resolve(&s).is_err());
    }

    #[test]
    fn default_config_is_valid() {
        assert!(AdaptConfig::default().validate().is_ok());
    }

    #[test]
    fn negative_extent_rejected() {
        let cfg = AdaptConfig {
            min_tile_extent: -1.0,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
    }
}
