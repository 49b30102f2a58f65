//! The index proper: a uniform root grid of tile hierarchies.
//!
//! The initial ("crude") index is an `nx × ny` grid of leaf tiles over the
//! axis domain — cheap to build in the single initialization scan. Query-
//! driven adaptation then splits individual leaves into sub-hierarchies, so
//! lookup is: O(1) root-cell arithmetic, then a short descent.

use pai_common::geometry::{Overlap, Point2, Rect};
use pai_common::{AttrId, Interval, PaiError, Result};
use pai_storage::Schema;

use crate::entry::ObjectEntry;
use crate::tile::{Tile, TileId, TileState};

/// A partially-contained tile in a query's classification, along with the
/// paper's `count(t∩Q)` (computed from indexed axis values, no file I/O).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartialTile {
    pub tile: TileId,
    /// Number of the tile's objects selected by the query.
    pub selected: u64,
}

/// Outcome of classifying the index's leaves against a query window.
#[derive(Debug, Clone, Default)]
pub struct Classification {
    /// Leaves fully contained in the window, with at least one object.
    pub full: Vec<TileId>,
    /// Leaves partially overlapping the window with ≥1 selected object.
    pub partial: Vec<PartialTile>,
    /// Total number of selected objects (exact, from axis values).
    pub selected_total: u64,
    /// Overlapping leaves skipped because they contribute no object.
    pub skipped_empty: usize,
}

/// Hierarchical tile index over the two axis attributes of a raw file.
#[derive(Debug, Clone)]
pub struct ValinorIndex {
    schema: Schema,
    domain: Rect,
    grid_nx: usize,
    grid_ny: usize,
    tiles: Vec<Tile>,
    /// Root grid cells, row-major (y-major rows of x cells).
    root: Vec<TileId>,
    /// Global per-column value bounds observed at initialization; the
    /// fallback envelope for tiles without their own metadata.
    global_bounds: Vec<Option<Interval>>,
    total_objects: u64,
    /// Cumulative number of leaf splits performed (adaptation effort).
    splits_performed: u64,
    /// Monotone mutation counter: bumped on every structural or metadata
    /// change. Refinement plans record it so an optimistic applier can
    /// detect whether the index changed underneath a plan (see
    /// `pai-core::concurrent`).
    version: u64,
}

impl ValinorIndex {
    /// Creates an empty index with an `nx × ny` initial grid.
    pub fn new(schema: Schema, domain: Rect, nx: usize, ny: usize) -> Result<Self> {
        if nx == 0 || ny == 0 {
            return Err(PaiError::config("initial grid must be at least 1x1"));
        }
        if domain.is_empty() {
            return Err(PaiError::config(format!("empty domain {domain}")));
        }
        let n_cols = schema.len();
        let mut tiles = Vec::with_capacity(nx * ny);
        let mut root = Vec::with_capacity(nx * ny);
        let cells = domain.split_grid(ny, nx);
        for rect in cells {
            let id = TileId(tiles.len() as u32);
            tiles.push(Tile::leaf(rect, n_cols, 0));
            root.push(id);
        }
        Ok(ValinorIndex {
            schema,
            domain,
            grid_nx: nx,
            grid_ny: ny,
            tiles,
            root,
            global_bounds: vec![None; n_cols],
            total_objects: 0,
            splits_performed: 0,
            version: 0,
        })
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn domain(&self) -> &Rect {
        &self.domain
    }

    /// Initial grid dimensions `(nx, ny)`.
    pub fn grid_dims(&self) -> (usize, usize) {
        (self.grid_nx, self.grid_ny)
    }

    /// Total objects indexed.
    pub fn total_objects(&self) -> u64 {
        self.total_objects
    }

    /// Number of leaf splits performed so far.
    pub fn splits_performed(&self) -> u64 {
        self.splits_performed
    }

    /// Monotone mutation counter. Two equal readings with no writer in
    /// between guarantee the index did not change; a changed reading means
    /// some tile may have been split or re-enriched.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// All tiles ever created (leaves and inner).
    pub fn tile_count(&self) -> usize {
        self.tiles.len()
    }

    /// Current number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.tiles.iter().filter(|t| t.is_leaf()).count()
    }

    /// Borrow a tile by id.
    ///
    /// # Panics
    /// Panics on an id not minted by this index.
    pub fn tile(&self, id: TileId) -> &Tile {
        &self.tiles[id.index()]
    }

    pub(crate) fn tile_mut(&mut self, id: TileId) -> &mut Tile {
        // Conservative: any mutable tile access counts as a change.
        self.version = self.version.wrapping_add(1);
        &mut self.tiles[id.index()]
    }

    /// Global `[min, max]` for a column, if observed at initialization.
    pub fn global_bounds(&self, attr: AttrId) -> Option<Interval> {
        self.global_bounds.get(attr).copied().flatten()
    }

    /// Installs a global value envelope for `attr` when none was observed
    /// at initialization (the `MetadataPolicy::None` cold start). An
    /// existing envelope always wins — seeding never overwrites or widens
    /// bounds the scan actually measured. Returns whether the seed was
    /// installed. Synopsis-first evaluation uses this to hand metadata-free
    /// sessions a sound fallback envelope with zero data I/O.
    pub fn seed_global_bounds(&mut self, attr: AttrId, bounds: Interval) -> bool {
        match self.global_bounds.get_mut(attr) {
            Some(slot @ None) => {
                *slot = Some(bounds);
                self.version = self.version.wrapping_add(1);
                true
            }
            _ => false,
        }
    }

    pub(crate) fn fold_global_bound(&mut self, attr: AttrId, value: f64) {
        if value.is_nan() {
            return;
        }
        let slot = &mut self.global_bounds[attr];
        *slot = Some(match slot {
            Some(iv) => Interval::new(iv.lo().min(value), iv.hi().max(value)),
            None => Interval::point(value),
        });
    }

    /// Fallback value envelope for an attribute in a tile: the tile's own
    /// metadata bounds if present, else the global column bounds.
    pub fn value_bounds_for(&self, tile: TileId, attr: AttrId) -> Option<Interval> {
        self.tile(tile)
            .meta
            .get(attr)
            .and_then(|m| m.value_bounds())
            .or_else(|| self.global_bounds(attr))
    }

    // -- construction -------------------------------------------------------

    /// Root-grid cell index for a point; clamps onto the grid so points on
    /// the domain's max edges land in the last row/column.
    fn root_cell(&self, p: Point2) -> usize {
        let fx = (p.x - self.domain.x_min) / self.domain.width();
        let fy = (p.y - self.domain.y_min) / self.domain.height();
        let ix = ((fx * self.grid_nx as f64) as isize).clamp(0, self.grid_nx as isize - 1);
        let iy = ((fy * self.grid_ny as f64) as isize).clamp(0, self.grid_ny as isize - 1);
        iy as usize * self.grid_nx + ix as usize
    }

    /// Inserts one entry during initialization (index must still be a pure
    /// grid of leaves in the touched cell path, which `init` guarantees).
    /// The bulk path is [`Self::extend_cell`]; this one serves tests and
    /// hand-built demonstration indexes.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn insert_entry(&mut self, entry: ObjectEntry) {
        let cell = self.root_cell(entry.point());
        let tid = self.root[cell];
        self.version = self.version.wrapping_add(1);
        match &mut self.tiles[tid.index()].state {
            TileState::Leaf { entries } => entries.push(entry),
            TileState::Inner { .. } => {
                unreachable!("insert_entry is only used while initializing a flat grid")
            }
        }
        self.total_objects += 1;
    }

    /// Inserts one entry for a newly appended row (streaming ingest).
    ///
    /// Unlike the grid-initialization insert path this descends through
    /// any splits to
    /// the leaf that currently owns the point, and it keeps the index's
    /// metadata claims true as the dataset grows:
    ///
    /// * the leaf's per-attribute metadata absorbs the row's values —
    ///   exact stats stay exact, bounded envelopes widen to cover the new
    ///   value (see [`AttrMeta::fold_value`](crate::metadata::AttrMeta));
    /// * global column bounds fold the values in, so the `Bounded`
    ///   fallback envelope stays sound for every row ever seen.
    ///
    /// `row` is the full schema-width value row the entry's locator
    /// resolves to (NaN = NULL). Errors if the point lies outside the
    /// domain — streaming ingest never grows the indexed domain, callers
    /// must reject or route such rows.
    pub fn ingest_entry(&mut self, entry: ObjectEntry, row: &[f64]) -> Result<TileId> {
        if row.len() != self.schema.len() {
            return Err(PaiError::config(format!(
                "ingested row has {} values, schema has {} columns",
                row.len(),
                self.schema.len()
            )));
        }
        let p = entry.point();
        let leaf = self.leaf_for_point(p).ok_or_else(|| {
            PaiError::config(format!(
                "ingested point ({}, {}) lies outside the index domain {}",
                p.x, p.y, self.domain
            ))
        })?;
        let attrs = self.schema.non_axis_numeric();
        for &a in &attrs {
            self.fold_global_bound(a, row[a]);
        }
        self.version = self.version.wrapping_add(1);
        let tile = &mut self.tiles[leaf.index()];
        for &a in &attrs {
            if let Some(meta) = tile.meta.get_mut(a) {
                meta.fold_value(row[a]);
            }
        }
        match &mut tile.state {
            TileState::Leaf { entries } => entries.push(entry),
            TileState::Inner { .. } => unreachable!("leaf_for_point returns leaves"),
        }
        self.total_objects += 1;
        Ok(leaf)
    }

    /// Hands a root cell the entries accumulated for it (the bulk
    /// initialization path). An empty leaf — every cell of a fresh index —
    /// takes the vector itself, trimmed of its growth slack in place, so
    /// installing a built index copies no entries.
    pub(crate) fn extend_cell(&mut self, cell: usize, mut batch: Vec<ObjectEntry>) {
        let tid = self.root[cell];
        let n = batch.len() as u64;
        self.version = self.version.wrapping_add(1);
        match &mut self.tiles[tid.index()].state {
            TileState::Leaf { entries } if entries.is_empty() => {
                batch.shrink_to_fit();
                *entries = batch;
            }
            TileState::Leaf { entries } => entries.extend(batch),
            TileState::Inner { .. } => unreachable!("init-time cells are leaves"),
        }
        self.total_objects += n;
    }

    /// Number of root cells (`nx × ny`).
    pub(crate) fn root_cells(&self) -> usize {
        self.root.len()
    }

    /// Exposes root-cell assignment to the parallel initializer.
    pub(crate) fn root_cell_of(&self, p: Point2) -> usize {
        self.root_cell(p)
    }

    pub(crate) fn root_tile(&self, cell: usize) -> TileId {
        self.root[cell]
    }

    // -- lookup -------------------------------------------------------------

    /// The leaf whose rectangle holds `p` (descending through splits).
    pub fn leaf_for_point(&self, p: Point2) -> Option<TileId> {
        if !self.domain.contains_point_closed(p) {
            return None;
        }
        let mut id = self.root[self.root_cell(p)];
        loop {
            let tile = self.tile(id);
            match &tile.state {
                TileState::Leaf { .. } => return Some(id),
                TileState::Inner { children } => {
                    let next = children
                        .iter()
                        .find(|&&c| self.tile(c).rect.contains_point(p))
                        .or_else(|| {
                            // Points on the parent's max edge: closed match.
                            children
                                .iter()
                                .find(|&&c| self.tile(c).rect.contains_point_closed(p))
                        });
                    match next {
                        Some(&c) => id = c,
                        None => return None,
                    }
                }
            }
        }
    }

    /// All leaves whose rectangle overlaps `rect`.
    pub fn leaves_overlapping(&self, rect: &Rect) -> Vec<TileId> {
        let mut out = Vec::new();
        let Some(clipped) = rect.intersection(&self.domain) else {
            return out;
        };
        // Root-cell range covering the clipped rect.
        let fx0 = (clipped.x_min - self.domain.x_min) / self.domain.width();
        let fx1 = (clipped.x_max - self.domain.x_min) / self.domain.width();
        let fy0 = (clipped.y_min - self.domain.y_min) / self.domain.height();
        let fy1 = (clipped.y_max - self.domain.y_min) / self.domain.height();
        let ix0 = ((fx0 * self.grid_nx as f64) as usize).min(self.grid_nx - 1);
        let ix1 = ((fx1 * self.grid_nx as f64) as usize).min(self.grid_nx - 1);
        let iy0 = ((fy0 * self.grid_ny as f64) as usize).min(self.grid_ny - 1);
        let iy1 = ((fy1 * self.grid_ny as f64) as usize).min(self.grid_ny - 1);
        let mut stack = Vec::new();
        for iy in iy0..=iy1 {
            for ix in ix0..=ix1 {
                stack.push(self.root[iy * self.grid_nx + ix]);
                while let Some(id) = stack.pop() {
                    let tile = self.tile(id);
                    if !tile.rect.intersects(rect) {
                        continue;
                    }
                    match &tile.state {
                        TileState::Leaf { .. } => out.push(id),
                        TileState::Inner { children } => stack.extend(children.iter().copied()),
                    }
                }
            }
        }
        out
    }

    /// Classifies the window against the current leaves (§3's first step).
    pub fn classify(&self, query: &Rect) -> Classification {
        let mut c = Classification::default();
        for id in self.leaves_overlapping(query) {
            let tile = self.tile(id);
            match tile.rect.classify_against(query) {
                Overlap::Disjoint => {}
                Overlap::FullyContained => {
                    let n = tile.object_count();
                    if n == 0 {
                        c.skipped_empty += 1;
                    } else {
                        c.selected_total += n;
                        c.full.push(id);
                    }
                }
                Overlap::Partial => {
                    let selected = tile.selected_count(query);
                    if selected == 0 {
                        c.skipped_empty += 1;
                    } else {
                        c.selected_total += selected;
                        c.partial.push(PartialTile { tile: id, selected });
                    }
                }
            }
        }
        c
    }

    // -- mutation -----------------------------------------------------------

    /// Splits a leaf into the given child rectangles, redistributing its
    /// entries and installing inherited (demoted) metadata on each child.
    ///
    /// Returns the new child ids and, for each entry of the split leaf in
    /// order, which child (by position) took it — entries keep their order
    /// within a child. The caller (adaptation) is expected to overwrite child
    /// metadata with exact stats where it has values.
    pub(crate) fn split_leaf(
        &mut self,
        id: TileId,
        child_rects: Vec<Rect>,
    ) -> Result<(Vec<TileId>, Vec<u32>)> {
        debug_assert!(child_rects.len() >= 2, "split needs at least two children");
        let depth = self.tile(id).depth;
        let parent_rect = self.tile(id).rect;
        let inherited = self.tile(id).meta.inherited();
        let entries = match &mut self.tile_mut(id).state {
            TileState::Leaf { entries } => std::mem::take(entries),
            TileState::Inner { .. } => {
                return Err(PaiError::internal(format!("split of non-leaf tile {id:?}")))
            }
        };

        let n_cols = self.schema.len();
        let mut child_ids = Vec::with_capacity(child_rects.len());
        for rect in &child_rects {
            debug_assert!(
                parent_rect.contains_rect(rect),
                "child {rect} escapes parent {parent_rect}"
            );
            let cid = TileId(self.tiles.len() as u32);
            let mut child = Tile::leaf(*rect, n_cols, depth + 1);
            child.meta = inherited.clone();
            self.tiles.push(child);
            child_ids.push(cid);
        }

        // Redistribute entries. Half-open containment first; entries sitting
        // on the parent's max edge (domain-boundary clamping) fall through
        // to closed containment.
        let mut child_of = Vec::with_capacity(entries.len());
        for e in entries {
            let p = e.point();
            let slot = child_rects
                .iter()
                .position(|r| r.contains_point(p))
                .or_else(|| child_rects.iter().position(|r| r.contains_point_closed(p)))
                .ok_or_else(|| {
                    PaiError::internal(format!("entry at {p:?} fits no child of {parent_rect}"))
                })?;
            child_of.push(slot as u32);
            match &mut self.tile_mut(child_ids[slot]).state {
                TileState::Leaf { entries } => entries.push(e),
                TileState::Inner { .. } => unreachable!("children are fresh leaves"),
            }
        }

        self.tile_mut(id).state = TileState::Inner {
            children: child_ids.clone(),
        };
        self.splits_performed += 1;
        Ok((child_ids, child_of))
    }

    // -- diagnostics ---------------------------------------------------------

    /// Rough main-memory footprint of the index structures, in bytes.
    pub fn memory_bytes(&self) -> usize {
        let tiles = self.tiles.len() * std::mem::size_of::<Tile>();
        let entries: usize = self
            .tiles
            .iter()
            .map(|t| std::mem::size_of_val(t.entries()))
            .sum();
        let meta: usize = self
            .tiles
            .iter()
            .map(|t| t.meta.len() * std::mem::size_of::<Option<crate::metadata::AttrMeta>>())
            .sum();
        tiles + entries + meta
    }

    /// Checks structural invariants; used by tests and debug assertions.
    ///
    /// Verified: entry containment (closed) in its leaf, children partition
    /// their parent's area, object conservation, root coverage of the
    /// domain.
    pub fn validate_invariants(&self) -> Result<()> {
        let mut seen_objects = 0u64;
        for (i, tile) in self.tiles.iter().enumerate() {
            match &tile.state {
                TileState::Leaf { entries } => {
                    seen_objects += entries.len() as u64;
                    for e in entries {
                        if !tile.rect.contains_point_closed(e.point()) {
                            return Err(PaiError::internal(format!(
                                "entry {e:?} outside leaf {i} rect {}",
                                tile.rect
                            )));
                        }
                    }
                }
                TileState::Inner { children } => {
                    let area: f64 = children.iter().map(|&c| self.tile(c).rect.area()).sum();
                    if (area - tile.rect.area()).abs() > 1e-6 * tile.rect.area().max(1.0) {
                        return Err(PaiError::internal(format!(
                            "children of tile {i} cover {area}, parent area {}",
                            tile.rect.area()
                        )));
                    }
                    for (a, &ca) in children.iter().enumerate() {
                        if !tile.rect.contains_rect(&self.tile(ca).rect) {
                            return Err(PaiError::internal(format!(
                                "child {ca:?} escapes parent {i}"
                            )));
                        }
                        for &cb in children.iter().skip(a + 1) {
                            if self.tile(ca).rect.intersects(&self.tile(cb).rect) {
                                return Err(PaiError::internal(format!(
                                    "children {ca:?} and {cb:?} of tile {i} overlap"
                                )));
                            }
                        }
                    }
                }
            }
        }
        if seen_objects != self.total_objects {
            return Err(PaiError::internal(format!(
                "object conservation violated: leaves hold {seen_objects}, expected {}",
                self.total_objects
            )));
        }
        let root_area: f64 = self.root.iter().map(|&c| self.tile(c).rect.area()).sum();
        if (root_area - self.domain.area()).abs() > 1e-6 * self.domain.area() {
            return Err(PaiError::internal("root grid does not cover the domain"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pai_common::RowLocator;

    fn small_index() -> ValinorIndex {
        // 3x3 grid over [0,30)^2 — the Figure 1 layout.
        let mut idx =
            ValinorIndex::new(Schema::synthetic(3), Rect::new(0.0, 30.0, 0.0, 30.0), 3, 3).unwrap();
        // A few objects: (x, y, locator).
        for (i, (x, y)) in [
            (5.0, 5.0),
            (15.0, 5.0),
            (25.0, 25.0),
            (5.0, 25.0),
            (14.0, 15.0),
        ]
        .iter()
        .enumerate()
        {
            idx.insert_entry(ObjectEntry::new(*x, *y, RowLocator::new(i as u64 * 10)));
        }
        idx
    }

    #[test]
    fn construction_and_counts() {
        let idx = small_index();
        assert_eq!(idx.tile_count(), 9);
        assert_eq!(idx.leaf_count(), 9);
        assert_eq!(idx.total_objects(), 5);
        idx.validate_invariants().unwrap();
    }

    #[test]
    fn rejects_degenerate_config() {
        let s = Schema::synthetic(2);
        assert!(ValinorIndex::new(s.clone(), Rect::new(0.0, 1.0, 0.0, 1.0), 0, 3).is_err());
        assert!(ValinorIndex::new(s, Rect::new(1.0, 1.0, 0.0, 1.0), 2, 2).is_err());
    }

    #[test]
    fn leaf_lookup() {
        let idx = small_index();
        let t = idx.leaf_for_point(Point2::new(5.0, 5.0)).unwrap();
        assert!(idx.tile(t).rect.contains_point(Point2::new(5.0, 5.0)));
        // Domain max corner clamps into the last cell.
        let corner = idx.leaf_for_point(Point2::new(30.0, 30.0)).unwrap();
        assert_eq!(idx.tile(corner).rect.x_max, 30.0);
        assert!(idx.leaf_for_point(Point2::new(31.0, 0.0)).is_none());
    }

    #[test]
    fn overlapping_leaves() {
        let idx = small_index();
        let all = idx.leaves_overlapping(&Rect::new(-10.0, 40.0, -10.0, 40.0));
        assert_eq!(all.len(), 9);
        let one = idx.leaves_overlapping(&Rect::new(1.0, 2.0, 1.0, 2.0));
        assert_eq!(one.len(), 1);
        let none = idx.leaves_overlapping(&Rect::new(100.0, 110.0, 0.0, 10.0));
        assert!(none.is_empty());
    }

    #[test]
    fn classification_counts() {
        let idx = small_index();
        // Query covering cell [0,10)x[0,10) fully and slicing others.
        let q = Rect::new(0.0, 16.0, 0.0, 16.0);
        let c = idx.classify(&q);
        // Fully contains cell (0,0) which holds (5,5).
        assert_eq!(c.full.len(), 1);
        // Partially overlaps cells holding (15,5) and (14,16).
        assert_eq!(c.partial.len(), 2);
        assert_eq!(c.selected_total, 3);
        assert!(c.skipped_empty > 0, "empty overlapped cells are skipped");
    }

    #[test]
    fn classification_outside_domain_is_empty() {
        let idx = small_index();
        let c = idx.classify(&Rect::new(100.0, 200.0, 100.0, 200.0));
        assert!(c.full.is_empty() && c.partial.is_empty());
        assert_eq!(c.selected_total, 0);
    }

    #[test]
    fn split_preserves_objects_and_invariants() {
        let mut idx = small_index();
        let q = Rect::new(0.0, 16.0, 0.0, 16.0);
        let target = idx.classify(&q).partial[0].tile;
        let rect = idx.tile(target).rect;
        let before = idx.total_objects();
        let entries = idx.tile(target).entries().to_vec();
        let (children, child_of) = idx.split_leaf(target, rect.split_grid(2, 2)).unwrap();
        assert_eq!(children.len(), 4);
        assert!(!idx.tile(target).is_leaf());
        // The assignment replays the split: each child holds, in order, the
        // entries it was assigned.
        for (slot, &child) in children.iter().enumerate() {
            let assigned: Vec<ObjectEntry> = entries
                .iter()
                .zip(&child_of)
                .filter(|&(_, &c)| c as usize == slot)
                .map(|(e, _)| *e)
                .collect();
            assert_eq!(idx.tile(child).entries(), assigned);
        }
        assert_eq!(idx.total_objects(), before);
        assert_eq!(idx.splits_performed(), 1);
        idx.validate_invariants().unwrap();
        // Lookup descends into children now.
        let some_child = idx.leaf_for_point(Point2::new(15.0, 5.0));
        assert!(some_child.is_some());
        assert!(children.contains(&some_child.unwrap()));
    }

    #[test]
    fn split_non_leaf_fails() {
        let mut idx = small_index();
        let t = TileId(0);
        let rect = idx.tile(t).rect;
        idx.split_leaf(t, rect.split_grid(2, 2)).unwrap();
        let err = idx.split_leaf(t, rect.split_grid(2, 2)).unwrap_err();
        assert!(err.to_string().contains("non-leaf"));
    }

    #[test]
    fn ingest_entry_updates_leaves_and_metadata() {
        let mut idx = small_index();
        let before = idx.total_objects();
        // Exact metadata on the leaf owning (5,5): ingest must keep it true.
        let t = idx.leaf_for_point(Point2::new(5.0, 5.0)).unwrap();
        idx.tile_mut(t)
            .meta
            .set(2, crate::metadata::AttrMeta::exact_from_values(&[10.0]));
        let v0 = idx.version();
        idx.ingest_entry(
            ObjectEntry::new(6.0, 6.0, RowLocator::new(777)),
            &[6.0, 6.0, 32.0],
        )
        .unwrap();
        assert_eq!(idx.total_objects(), before + 1);
        assert_ne!(idx.version(), v0, "ingest is a visible mutation");
        let m = idx.tile(t).meta.get(2).unwrap();
        assert_eq!(m.exact_sum(), Some(42.0), "exact stats absorbed the row");
        assert_eq!(m.exact_stats().unwrap().count(), 2);
        assert_eq!(idx.global_bounds(2), Some(Interval::new(32.0, 32.0)));

        // After a split, ingest descends into the owning child leaf.
        let rect = idx.tile(t).rect;
        idx.split_leaf(t, rect.split_grid(2, 2)).unwrap();
        let child = idx
            .ingest_entry(
                ObjectEntry::new(6.5, 6.5, RowLocator::new(778)),
                &[6.5, 6.5, f64::NAN],
            )
            .unwrap();
        assert_ne!(child, t, "landed in a child, not the split parent");
        assert!(idx.tile(child).is_leaf());
        idx.validate_invariants().unwrap();

        // Out-of-domain points and wrong-width rows are rejected, and
        // reject without mutating.
        let n = idx.total_objects();
        assert!(idx
            .ingest_entry(
                ObjectEntry::new(99.0, 0.0, RowLocator::new(1)),
                &[99.0, 0.0, 0.0],
            )
            .is_err());
        assert!(idx
            .ingest_entry(ObjectEntry::new(1.0, 1.0, RowLocator::new(1)), &[1.0])
            .is_err());
        assert_eq!(idx.total_objects(), n);
    }

    #[test]
    fn global_bounds_fold() {
        let mut idx = small_index();
        assert_eq!(idx.global_bounds(2), None);
        idx.fold_global_bound(2, 5.0);
        idx.fold_global_bound(2, -1.0);
        idx.fold_global_bound(2, f64::NAN);
        assert_eq!(idx.global_bounds(2), Some(Interval::new(-1.0, 5.0)));
    }

    #[test]
    fn value_bounds_fallback_chain() {
        let mut idx = small_index();
        let t = TileId(0);
        assert_eq!(idx.value_bounds_for(t, 2), None);
        idx.fold_global_bound(2, 0.0);
        idx.fold_global_bound(2, 100.0);
        assert_eq!(idx.value_bounds_for(t, 2), Some(Interval::new(0.0, 100.0)));
        idx.tile_mut(t)
            .meta
            .set(2, crate::metadata::AttrMeta::exact_from_values(&[3.0, 7.0]));
        assert_eq!(idx.value_bounds_for(t, 2), Some(Interval::new(3.0, 7.0)));
    }

    #[test]
    fn memory_accounting_is_positive() {
        let idx = small_index();
        assert!(idx.memory_bytes() > 0);
    }

    #[test]
    fn classify_after_split_sees_new_leaves() {
        let mut idx = small_index();
        let q = Rect::new(0.0, 16.0, 0.0, 16.0);
        let before = idx.classify(&q);
        let target = before.partial[0].tile;
        let rect = idx.tile(target).rect;
        idx.split_leaf(target, rect.split_at_query(&q)).unwrap();
        let after = idx.classify(&q);
        assert_eq!(after.selected_total, before.selected_total);
        // The split tile's in-window children are now fully contained, so
        // total (full + partial) composition changed but not the count.
        assert!(after.full.len() + after.partial.len() >= before.full.len());
    }
}
