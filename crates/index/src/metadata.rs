//! Per-tile aggregate metadata.
//!
//! The paper's confidence intervals consume, per tile and non-axis
//! attribute: `sum`, `min`, `max` (plus the selected count, which comes from
//! the entries). Metadata is not always available at full fidelity:
//!
//! * [`AttrMeta::Exact`] — computed from the actual values of the tile's
//!   objects (initialization scan, or a later enrichment/processing read).
//! * [`AttrMeta::Bounded`] — only an outer `[min, max]` envelope is known,
//!   inherited from the parent tile at split time or from the global column
//!   range. This still yields a sound (wider) confidence interval, which is
//!   exactly how the AQP engine prices "inaccurate" tiles.
//!
//! NULLs (NaN values) are counted, never assumed away. Exact metadata
//! counts them; bounded metadata records whether its source proved the
//! tile's values NULL-free. A tile's envelope and that record are what it
//! contributes to a query's confidence intervals (`pai-core`'s `ci` rules):
//! only metadata that is [certainly NULL-free](AttrMeta::certainly_non_null)
//! lets every selected object contribute a value.

use pai_common::{AttrId, Interval, RunningStats};

/// Metadata for one attribute within one tile.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrMeta {
    /// Stats computed from the attribute values of *all* objects in the tile.
    /// `nulls` counts objects whose value was NaN (excluded from `stats`).
    Exact { stats: RunningStats, nulls: u64 },
    /// Only outer bounds on the attribute's values in this tile. `non_null`
    /// is true when the source of the envelope proved every one of those
    /// values non-NULL.
    Bounded { range: Interval, non_null: bool },
}

impl AttrMeta {
    /// Exact metadata from a value slice (NaNs counted as nulls).
    pub fn exact_from_values(values: &[f64]) -> Self {
        let stats = RunningStats::from_values(values);
        let nulls = values.len() as u64 - stats.count();
        AttrMeta::Exact { stats, nulls }
    }

    /// True when the metadata carries exact aggregates (usable for
    /// fully-contained tiles without touching the file).
    pub fn is_exact(&self) -> bool {
        matches!(self, AttrMeta::Exact { .. })
    }

    /// Outer bounds on a *single* value of this attribute in the tile, if
    /// any value exists. For `Exact` metadata with at least one non-null
    /// value this is `[min, max]`; for `Bounded` it is the envelope.
    #[inline]
    pub fn value_bounds(&self) -> Option<Interval> {
        match self {
            AttrMeta::Exact { stats, .. } => stats.range(),
            AttrMeta::Bounded { range, .. } => Some(*range),
        }
    }

    /// True when this metadata certifies that the tile's values contain no
    /// NULLs: exact stats with a zero null count, or an envelope whose
    /// source proved it.
    #[inline]
    pub fn certainly_non_null(&self) -> bool {
        matches!(
            self,
            AttrMeta::Exact { nulls: 0, .. } | AttrMeta::Bounded { non_null: true, .. }
        )
    }

    /// The exact sum over the whole tile, if exactly known.
    pub fn exact_sum(&self) -> Option<f64> {
        self.exact_stats().map(RunningStats::sum)
    }

    /// Exact whole-tile stats, if available.
    pub fn exact_stats(&self) -> Option<&RunningStats> {
        match self {
            AttrMeta::Exact { stats, .. } => Some(stats),
            AttrMeta::Bounded { .. } => None,
        }
    }

    /// Number of known-NULL values (0 for `Bounded`, which does not count).
    pub fn nulls(&self) -> u64 {
        match self {
            AttrMeta::Exact { nulls, .. } => *nulls,
            AttrMeta::Bounded { .. } => 0,
        }
    }

    /// Metadata a child tile inherits when the parent splits without the
    /// child's values being read: the parent's value envelope, demoted to
    /// `Bounded` (child min/max can only be tighter than the parent's), and
    /// NULL-free when the parent certainly was.
    pub fn demote_to_bounds(&self) -> Option<AttrMeta> {
        self.value_bounds().map(|range| AttrMeta::Bounded {
            range,
            non_null: self.certainly_non_null(),
        })
    }

    /// Folds one newly ingested value in place, keeping the metadata's
    /// claim true as the tile grows: exact stats absorb the value (NaN
    /// counts as one more NULL, exactly like the initialization scan),
    /// bounded envelopes widen to cover it (a NaN leaves the envelope
    /// untouched — a NULL has no value to cover — but the tile is no longer
    /// NULL-free).
    pub fn fold_value(&mut self, v: f64) {
        match self {
            AttrMeta::Exact { stats, nulls } => {
                if v.is_nan() {
                    *nulls += 1;
                } else {
                    stats.push(v);
                }
            }
            AttrMeta::Bounded { range, non_null } => {
                if v.is_nan() {
                    *non_null = false;
                } else {
                    *range = range.hull(&Interval::point(v));
                }
            }
        }
    }
}

/// Metadata of one tile: a slot per schema column.
///
/// Axis columns and text columns keep `None`. A dense `Vec` rather than a
/// map: schemas are small (the paper's has 10 columns) and tiles are many.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TileMetadata {
    slots: Vec<Option<AttrMeta>>,
}

impl TileMetadata {
    /// Empty metadata sized for `n_columns` slots.
    pub fn new(n_columns: usize) -> Self {
        TileMetadata {
            slots: vec![None; n_columns],
        }
    }

    /// Metadata for `attr`, if any.
    pub fn get(&self, attr: AttrId) -> Option<&AttrMeta> {
        self.slots.get(attr).and_then(|s| s.as_ref())
    }

    /// Mutable metadata for `attr`, if any (the ingest path folds freshly
    /// appended values into existing claims; empty slots stay empty).
    pub fn get_mut(&mut self, attr: AttrId) -> Option<&mut AttrMeta> {
        self.slots.get_mut(attr).and_then(|s| s.as_mut())
    }

    /// True when exact aggregates are available for `attr`.
    pub fn has_exact(&self, attr: AttrId) -> bool {
        matches!(self.get(attr), Some(m) if m.is_exact())
    }

    /// Installs metadata for `attr` (replacing anything weaker or stale).
    pub fn set(&mut self, attr: AttrId, meta: AttrMeta) {
        if attr >= self.slots.len() {
            self.slots.resize(attr + 1, None);
        }
        self.slots[attr] = Some(meta);
    }

    /// Upgrades to `meta` only if the slot currently holds nothing exact;
    /// exact metadata is never overwritten by bounds.
    pub fn set_if_better(&mut self, attr: AttrId, meta: AttrMeta) {
        let current_exact = self.has_exact(attr);
        if !current_exact || meta.is_exact() {
            self.set(attr, meta);
        }
    }

    /// Ids of attributes that have any metadata.
    pub fn known_attrs(&self) -> impl Iterator<Item = AttrId> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| i))
    }

    /// Derives the metadata a child inherits at split time: every slot
    /// demoted to bounds.
    pub fn inherited(&self) -> TileMetadata {
        TileMetadata {
            slots: self
                .slots
                .iter()
                .map(|s| s.as_ref().and_then(AttrMeta::demote_to_bounds))
                .collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(Option::is_none)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bounds(lo: f64, hi: f64) -> AttrMeta {
        AttrMeta::Bounded {
            range: Interval::new(lo, hi),
            non_null: true,
        }
    }

    #[test]
    fn exact_from_values_tracks_nulls() {
        let m = AttrMeta::exact_from_values(&[1.0, f64::NAN, 3.0]);
        assert!(m.is_exact());
        assert_eq!(m.nulls(), 1);
        assert_eq!(m.exact_sum(), Some(4.0));
        assert_eq!(m.value_bounds(), Some(Interval::new(1.0, 3.0)));
    }

    #[test]
    fn bounded_meta_behaviour() {
        let range = Interval::new(2.0, 10.0);
        let proven = AttrMeta::Bounded {
            range,
            non_null: true,
        };
        assert!(!proven.is_exact());
        assert!(proven.certainly_non_null());
        assert_eq!(proven.exact_sum(), None);
        assert_eq!(proven.value_bounds(), Some(range));
        let unproven = AttrMeta::Bounded {
            range,
            non_null: false,
        };
        assert!(!unproven.certainly_non_null());
        assert_eq!(unproven.value_bounds(), Some(range));
    }

    #[test]
    fn empty_exact_meta_has_no_bounds() {
        let m = AttrMeta::exact_from_values(&[]);
        assert_eq!(m.value_bounds(), None);
        assert_eq!(m.exact_sum(), Some(0.0), "empty sum is 0");
    }

    #[test]
    fn demotion() {
        let range = Interval::new(1.0, 5.0);
        let m = AttrMeta::exact_from_values(&[1.0, 5.0]);
        let d = m.demote_to_bounds().unwrap();
        assert_eq!(
            d,
            AttrMeta::Bounded {
                range,
                non_null: true
            }
        );
        // A parent with NULLs hands down an envelope that cannot certify.
        let with_null = AttrMeta::exact_from_values(&[1.0, f64::NAN, 5.0]);
        let d = with_null.demote_to_bounds().unwrap();
        assert_eq!(
            d,
            AttrMeta::Bounded {
                range,
                non_null: false
            }
        );
        // Demoting bounds again inherits their record.
        assert_eq!(d.demote_to_bounds(), Some(d));
        assert!(AttrMeta::exact_from_values(&[])
            .demote_to_bounds()
            .is_none());
    }

    #[test]
    fn folding_a_null_into_bounds_clears_the_record() {
        let mut m = AttrMeta::Bounded {
            range: Interval::new(1.0, 5.0),
            non_null: true,
        };
        m.fold_value(7.0);
        assert_eq!(m.value_bounds(), Some(Interval::new(1.0, 7.0)));
        assert!(m.certainly_non_null());
        m.fold_value(f64::NAN);
        assert_eq!(m.value_bounds(), Some(Interval::new(1.0, 7.0)));
        assert!(!m.certainly_non_null());
    }

    #[test]
    fn tile_metadata_slots() {
        let mut tm = TileMetadata::new(4);
        assert!(tm.is_empty());
        assert_eq!(tm.get(2), None);
        tm.set(2, AttrMeta::exact_from_values(&[1.0]));
        assert!(tm.has_exact(2));
        assert!(!tm.has_exact(3));
        assert_eq!(tm.known_attrs().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn set_if_better_keeps_exact() {
        let mut tm = TileMetadata::new(3);
        tm.set(1, AttrMeta::exact_from_values(&[1.0, 2.0]));
        tm.set_if_better(
            1,
            AttrMeta::Bounded {
                range: Interval::new(0.0, 10.0),
                non_null: true,
            },
        );
        assert!(tm.has_exact(1), "bounds must not overwrite exact stats");
        tm.set_if_better(1, AttrMeta::exact_from_values(&[5.0]));
        assert_eq!(tm.get(1).unwrap().exact_sum(), Some(5.0));
        // Bounds land happily in empty slots.
        tm.set_if_better(2, bounds(0.0, 1.0));
        assert!(tm.get(2).is_some());
    }

    #[test]
    fn inherited_demotes_everything() {
        let mut tm = TileMetadata::new(3);
        tm.set(1, AttrMeta::exact_from_values(&[1.0, 9.0]));
        tm.set(2, bounds(-1.0, 1.0));
        let inh = tm.inherited();
        assert_eq!(inh.get(1), Some(&bounds(1.0, 9.0)));
        assert_eq!(inh.get(2), Some(&bounds(-1.0, 1.0)));
        assert_eq!(inh.get(0), None);
    }

    #[test]
    fn set_grows_slots() {
        let mut tm = TileMetadata::new(1);
        tm.set(5, bounds(0.0, 0.0));
        assert!(tm.get(5).is_some());
        assert_eq!(tm.len(), 6);
    }
}
