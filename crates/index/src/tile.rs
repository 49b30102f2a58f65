//! Tiles and the tile arena.
//!
//! Tiles live in a flat arena (`Vec<Tile>`) addressed by [`TileId`]; the
//! hierarchy is encoded by [`TileState::Inner`] holding child ids and by each
//! tile's [`Tile::parent`] link. Splitting never removes tiles — a split leaf
//! becomes an inner node and its entries move into fresh child leaves — so
//! `TileId`s stay valid for the lifetime of the index, which keeps
//! classification results usable across the adaptation steps of a single
//! query. An inner tile keeps answering for its subtree: it stores the
//! subtree's object count, and its metadata stays true for every object
//! below it (see `docs/ARCHITECTURE.md`, "Classification and the metadata
//! hierarchy").

use pai_common::geometry::Rect;
use pai_common::RowLocator;

use crate::entry::ObjectEntry;
use crate::metadata::TileMetadata;

/// Stable identifier of a tile within one [`crate::ValinorIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TileId(pub u32);

impl TileId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Leaf payload or children of a tile.
#[derive(Debug, Clone, PartialEq)]
pub enum TileState {
    /// A leaf holding object entries.
    Leaf { entries: Vec<ObjectEntry> },
    /// An inner node; its area is exactly partitioned by `children`, and
    /// `count` is the number of objects in the leaves below it.
    Inner { children: Vec<TileId>, count: u64 },
}

/// One tile of the index.
#[derive(Debug, Clone, PartialEq)]
pub struct Tile {
    pub rect: Rect,
    pub state: TileState,
    pub meta: TileMetadata,
    /// Nesting depth: 0 for the initial grid tiles.
    pub depth: u16,
    /// The tile this one was split out of; `None` for the initial grid tiles.
    pub parent: Option<TileId>,
}

impl Tile {
    /// Fresh empty leaf.
    pub fn leaf(rect: Rect, n_columns: usize, depth: u16) -> Self {
        Tile {
            rect,
            state: TileState::Leaf {
                entries: Vec::new(),
            },
            meta: TileMetadata::new(n_columns),
            depth,
            parent: None,
        }
    }

    pub fn is_leaf(&self) -> bool {
        matches!(self.state, TileState::Leaf { .. })
    }

    /// Entries of a leaf; empty slice for inner tiles.
    pub fn entries(&self) -> &[ObjectEntry] {
        match &self.state {
            TileState::Leaf { entries } => entries,
            TileState::Inner { .. } => &[],
        }
    }

    /// Number of objects in this tile: a leaf's entries, or every object in
    /// the leaves below an inner tile.
    pub fn object_count(&self) -> u64 {
        match &self.state {
            TileState::Leaf { entries } => entries.len() as u64,
            TileState::Inner { count, .. } => *count,
        }
    }

    /// Children of an inner tile; empty slice for leaves.
    pub fn children(&self) -> &[TileId] {
        match &self.state {
            TileState::Inner { children, .. } => children,
            TileState::Leaf { .. } => &[],
        }
    }

    /// Number of entries selected by `window` (the paper's `count(t∩Q)`),
    /// computed purely from the axis values held in the index.
    pub fn selected_count(&self, window: &Rect) -> u64 {
        self.entries()
            .iter()
            .filter(|e| e.in_window(window))
            .count() as u64
    }

    /// Raw-file locators of the entries selected by `window`.
    pub fn selected_locators(&self, window: &Rect) -> Vec<RowLocator> {
        self.entries()
            .iter()
            .filter(|e| e.in_window(window))
            .map(|e| e.locator)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf_with_points(points: &[(f64, f64)]) -> Tile {
        let mut t = Tile::leaf(Rect::new(0.0, 10.0, 0.0, 10.0), 3, 0);
        if let TileState::Leaf { entries } = &mut t.state {
            for (i, &(x, y)) in points.iter().enumerate() {
                entries.push(ObjectEntry::new(x, y, RowLocator::new(i as u64 * 100)));
            }
        }
        t
    }

    #[test]
    fn leaf_accessors() {
        let t = leaf_with_points(&[(1.0, 1.0), (5.0, 5.0)]);
        assert!(t.is_leaf());
        assert_eq!(t.object_count(), 2);
        assert!(t.children().is_empty());
    }

    #[test]
    fn selected_count_and_locators() {
        let t = leaf_with_points(&[(1.0, 1.0), (5.0, 5.0), (9.0, 9.0)]);
        let w = Rect::new(0.0, 6.0, 0.0, 6.0);
        assert_eq!(t.selected_count(&w), 2);
        assert_eq!(
            t.selected_locators(&w),
            vec![RowLocator::new(0), RowLocator::new(100)]
        );
        assert_eq!(t.selected_count(&Rect::new(20.0, 30.0, 20.0, 30.0)), 0);
    }

    #[test]
    fn inner_has_no_entries() {
        let t = Tile {
            rect: Rect::new(0.0, 1.0, 0.0, 1.0),
            state: TileState::Inner {
                children: vec![TileId(1), TileId(2)],
                count: 7,
            },
            meta: TileMetadata::new(2),
            depth: 0,
            parent: None,
        };
        assert!(!t.is_leaf());
        assert!(t.entries().is_empty());
        assert_eq!(t.object_count(), 7, "an inner tile counts its subtree");
        assert_eq!(t.children(), &[TileId(1), TileId(2)]);
    }

    #[test]
    fn tile_id_round_trip() {
        assert_eq!(TileId(7).index(), 7);
    }
}
