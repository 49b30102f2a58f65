//! The index proper: a uniform root grid of tile hierarchies.
//!
//! The initial ("crude") index is an `nx × ny` grid of leaf tiles over the
//! axis domain — cheap to build in the single initialization scan. Query-
//! driven adaptation then splits individual leaves into sub-hierarchies, so
//! lookup is: O(1) root-cell arithmetic, then a short descent.

use pai_common::geometry::{Point2, Rect};
use pai_common::{AttrId, Interval, PaiError, Result, RowLocator, RunningStats};
use pai_storage::Schema;

use crate::entry::ObjectEntry;
use crate::metadata::AttrMeta;
use crate::tile::{Leaf, Tile, TileId, TileState};

/// A partially-contained tile in a query's classification, along with the
/// paper's `count(t∩Q)` (computed from indexed axis values, no file I/O).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartialTile {
    pub tile: TileId,
    /// Number of the tile's objects selected by the query.
    pub selected: u64,
}

/// Outcome of classifying the index's tiles against a query window.
#[derive(Debug, Clone, Default)]
pub struct Classification {
    /// The covering tiles: each the highest tile of its subtree that lies
    /// fully inside the window, with at least one object below it. A
    /// covering tile may be a leaf or an inner tile; what it contributes for
    /// a query's attributes is [`ValinorIndex::resolve_covered`]'s to say.
    pub full: Vec<TileId>,
    /// Leaves partially overlapping the window with ≥1 selected object.
    pub partial: Vec<PartialTile>,
    /// Total number of selected objects (exact, from axis values).
    pub selected_total: u64,
    /// Covering tiles and partially overlapping leaves skipped because they
    /// contribute no object.
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
    /// Per column: whether a NULL was ever observed (at initialization, in
    /// a seeding source, or ingested). Only a column without one hands out
    /// a NULL-free fallback envelope.
    global_nulls: Vec<bool>,
    /// Per column: how many rows the envelope (and the NULL record) has
    /// seen. While that is every row the index holds — after a full
    /// metadata build, after a synopsis seed, or while the index holds no
    /// rows — ingest keeps the envelope covering them; an envelope that
    /// missed some row is never created by ingest, since it would bound
    /// rows it never saw.
    global_rows: Vec<u64>,
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
            global_nulls: vec![false; n_cols],
            global_rows: vec![0; n_cols],
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

    /// The global envelope of a column as the metadata of a tile that has
    /// none of its own: `Bounded`, and NULL-free only while no NULL of the
    /// column was ever observed.
    pub fn global_meta(&self, attr: AttrId) -> Option<AttrMeta> {
        self.global_bounds(attr).map(|range| AttrMeta::Bounded {
            range,
            non_null: !self.global_nulls[attr],
        })
    }

    /// Installs a global value envelope for `attr` when none was observed
    /// at initialization (the `MetadataPolicy::None` cold start); `non_null`
    /// says whether the envelope's source proved the column NULL-free. An
    /// existing envelope always wins — seeding never overwrites or widens
    /// bounds the scan actually measured. Returns whether the seed was
    /// installed. Synopsis-first evaluation uses this to hand metadata-free
    /// sessions a sound fallback envelope with zero data I/O.
    pub fn seed_global_bounds(&mut self, attr: AttrId, bounds: Interval, non_null: bool) -> bool {
        match self.global_bounds.get_mut(attr) {
            Some(slot @ None) => {
                *slot = Some(bounds);
                self.global_nulls[attr] |= !non_null;
                self.global_rows[attr] = self.total_objects;
                self.version = self.version.wrapping_add(1);
                true
            }
            _ => false,
        }
    }

    /// Folds one observed row's value into the global envelope of `attr`;
    /// a NaN records a NULL instead.
    pub(crate) fn fold_global_bound(&mut self, attr: AttrId, value: f64) {
        self.fold_global_stats(attr, &RunningStats::of(value), value.is_nan() as u64);
    }

    /// Folds the values of `stats.count() + nulls` observed rows into the
    /// global envelope of `attr`: their range, and their NULLs.
    pub(crate) fn fold_global_stats(&mut self, attr: AttrId, stats: &RunningStats, nulls: u64) {
        self.global_rows[attr] += stats.count() + nulls;
        self.global_nulls[attr] |= nulls > 0;
        if let Some(range) = stats.range() {
            let slot = &mut self.global_bounds[attr];
            *slot = Some(slot.map_or(range, |iv| iv.hull(&range)));
        }
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
    /// The bulk path is [`Self::install_cell`]; this one serves tests and
    /// hand-built demonstration indexes.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn insert_entry(&mut self, entry: ObjectEntry) {
        let cell = self.root_cell(entry.point());
        let tid = self.root[cell];
        self.version = self.version.wrapping_add(1);
        match &mut self.tiles[tid.index()].state {
            TileState::Leaf(leaf) => leaf.push(entry),
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
    /// * the per-attribute metadata of the leaf **and of every inner tile
    ///   passed on the way down** absorbs the row's values — exact stats
    ///   stay exact, bounded envelopes widen to cover the new value (see
    ///   [`AttrMeta::fold_value`](crate::metadata::AttrMeta)) — and each
    ///   passed tile's subtree count grows by one;
    /// * global column bounds fold the values in while they cover every
    ///   row the index holds, so the `Bounded` fallback envelope stays
    ///   sound for every row ever seen; a column whose rows no envelope
    ///   covered gets none from ingested rows alone.
    ///
    /// `row` is the full schema-width value row the entry's locator
    /// resolves to (NaN = NULL). Errors if the point lies outside the
    /// domain — streaming ingest never grows the indexed domain, callers
    /// must reject or route such rows.
    pub fn ingest_entry(&mut self, entry: ObjectEntry, row: &[f64]) -> Result<TileId> {
        self.check_ingest(0, row.len(), entry.point())?;
        self.version = self.version.wrapping_add(1);
        let attrs = self.schema.non_axis_numeric();
        self.ingest_checked(entry, row, &attrs, &mut Vec::new())
    }

    /// Ingests a batch of appended rows with their locators, in order: what
    /// [`Self::ingest_entry`] does for each, with the per-row costs paid
    /// once. The whole batch is checked ([`Self::check_ingest_rows`]) before
    /// anything is touched, so a rejected batch changes nothing.
    pub fn ingest_rows(&mut self, rows: &[Vec<f64>], locators: &[RowLocator]) -> Result<()> {
        if rows.len() != locators.len() {
            return Err(PaiError::internal(format!(
                "{} ingested rows came with {} locators",
                rows.len(),
                locators.len()
            )));
        }
        self.check_ingest_rows(rows)?;
        let (ax, ay) = (self.schema.x_axis(), self.schema.y_axis());
        self.version = self.version.wrapping_add(1);
        let attrs = self.schema.non_axis_numeric();
        let mut path = Vec::new();
        for (row, &locator) in rows.iter().zip(locators) {
            let entry = ObjectEntry::new(row[ax], row[ay], locator);
            self.ingest_checked(entry, row, &attrs, &mut path)?;
        }
        Ok(())
    }

    /// What makes a batch of rows ingestible: every row is schema-wide and
    /// lies inside the domain. O(1) a row and independent of the tree — the
    /// domain never changes, and [`Self::leaf_for_point`] finds a leaf for
    /// every point inside it — so the answer holds however the index is
    /// refined before the rows are ingested.
    pub fn check_ingest_rows(&self, rows: &[Vec<f64>]) -> Result<()> {
        let (ax, ay) = (self.schema.x_axis(), self.schema.y_axis());
        rows.iter().enumerate().try_for_each(|(i, row)| {
            // Arity first: an under-wide row may lack its axis values.
            let axis = |a: AttrId| row.get(a).copied().unwrap_or(f64::NAN);
            self.check_ingest(i, row.len(), Point2::new(axis(ax), axis(ay)))
        })
    }

    fn check_ingest(&self, i: usize, width: usize, p: Point2) -> Result<()> {
        if width != self.schema.len() {
            return Err(PaiError::config(format!(
                "ingested row {i} has {width} values, schema has {} columns",
                self.schema.len()
            )));
        }
        if !self.domain.contains_point_closed(p) {
            return Err(PaiError::config(format!(
                "ingested row {i} at ({}, {}) lies outside the index domain {}",
                p.x, p.y, self.domain
            )));
        }
        Ok(())
    }

    /// Inserts one checked row: folds it into the global bounds, into every
    /// inner tile on the way to its leaf, and into the leaf. `path` is
    /// scratch for the tiles passed.
    fn ingest_checked(
        &mut self,
        entry: ObjectEntry,
        row: &[f64],
        attrs: &[AttrId],
        path: &mut Vec<TileId>,
    ) -> Result<TileId> {
        path.clear();
        let leaf = self
            .descend(entry.point(), |inner| path.push(inner))
            .ok_or_else(|| {
                PaiError::internal(format!(
                    "no leaf holds ({}, {}) inside the domain {}",
                    entry.x, entry.y, self.domain
                ))
            })?;
        for &a in attrs {
            if self.global_rows[a] >= self.total_objects {
                self.fold_global_bound(a, row[a]);
            }
        }
        path.push(leaf);
        for &id in path.iter() {
            let tile = &mut self.tiles[id.index()];
            for &a in attrs {
                if let Some(meta) = tile.meta.get_mut(a) {
                    meta.fold_value(row[a]);
                }
            }
            match &mut tile.state {
                TileState::Leaf(leaf) => leaf.push(entry),
                TileState::Inner { count, .. } => *count += 1,
            }
        }
        self.total_objects += 1;
        Ok(leaf)
    }

    /// Hands a still-empty root cell its leaf (the bulk initialization
    /// path): the entries accumulated for it, which the leaf took without a
    /// copy, and their zone map.
    pub(crate) fn install_cell(&mut self, cell: usize, leaf: Leaf) {
        let tid = self.root[cell];
        self.version = self.version.wrapping_add(1);
        self.total_objects += leaf.entries().len() as u64;
        match &mut self.tiles[tid.index()].state {
            TileState::Leaf(empty) if empty.entries().is_empty() => *empty = leaf,
            _ => unreachable!("init-time cells are empty leaves"),
        }
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
        self.descend(p, |_| {})
    }

    /// Descends from `p`'s root cell to the leaf holding it, telling
    /// `passed` each inner tile on the way.
    fn descend(&self, p: Point2, mut passed: impl FnMut(TileId)) -> Option<TileId> {
        if !self.domain.contains_point_closed(p) {
            return None;
        }
        let mut id = self.root[self.root_cell(p)];
        loop {
            let children = match &self.tile(id).state {
                TileState::Leaf(_) => return Some(id),
                TileState::Inner { children, .. } => children,
            };
            passed(id);
            id = *children
                .iter()
                .find(|&&c| self.tile(c).rect.contains_point(p))
                // Points on the parent's max edge: closed match.
                .or_else(|| {
                    children
                        .iter()
                        .find(|&&c| self.tile(c).rect.contains_point_closed(p))
                })?;
        }
    }

    /// Walks the tiles whose rectangle overlaps `rect`, root cell by root
    /// cell and parents before children; `visit` says of each whether the
    /// walk goes on into its children.
    fn walk_overlapping(&self, rect: &Rect, mut visit: impl FnMut(TileId, &Tile) -> bool) {
        let Some(clipped) = rect.intersection(&self.domain) else {
            return;
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
                    if tile.rect.intersects(rect) && visit(id, tile) {
                        stack.extend(tile.children().iter().copied());
                    }
                }
            }
        }
    }

    /// All leaves whose rectangle overlaps `rect`.
    pub fn leaves_overlapping(&self, rect: &Rect) -> Vec<TileId> {
        let mut out = Vec::new();
        self.walk_overlapping(rect, |id, tile| {
            if tile.is_leaf() {
                out.push(id);
            }
            true
        });
        out
    }

    /// Classifies the window against the tile hierarchy (§3's first step).
    ///
    /// The walk stops at the highest tile that lies fully inside the window
    /// — its stored object count is its contribution to `selected_total` —
    /// and goes down to the leaves only along the window's border, where a
    /// leaf's selected objects are counted from its entries. The cost is in
    /// the tiles the window's perimeter crosses, not in those it covers.
    pub fn classify(&self, query: &Rect) -> Classification {
        let mut c = Classification::default();
        self.walk_overlapping(query, |id, tile| {
            let covered = query.contains_rect(&tile.rect);
            if !covered && !tile.is_leaf() {
                return true;
            }
            let selected = if covered {
                tile.object_count()
            } else {
                tile.selected_count(query)
            };
            c.selected_total += selected;
            if selected == 0 {
                c.skipped_empty += 1;
            } else if covered {
                c.full.push(id);
            } else {
                c.partial.push(PartialTile { tile: id, selected });
            }
            false
        });
        c
    }

    /// Resolves a covering tile (see [`Classification::full`]) for a query's
    /// attributes — the one place that decides what such a tile contributes.
    /// `visit(id, true)` names a tile whose metadata is exact for every one
    /// of `attrs`: its stored statistics are the exact answer for everything
    /// below it, whatever the metadata of its descendants. An inner tile
    /// that is not exact is resolved through its children, in child order;
    /// a leaf that is not is `visit(id, false)`: an enrichment read away
    /// from exact. Empty subtrees contribute nothing and are not visited.
    pub fn resolve_covered(
        &self,
        id: TileId,
        attrs: &[AttrId],
        visit: &mut impl FnMut(TileId, bool),
    ) {
        let tile = self.tile(id);
        if tile.object_count() == 0 {
            return;
        }
        let exact = attrs.iter().all(|&a| tile.meta.has_exact(a));
        if exact || tile.is_leaf() {
            visit(id, exact);
        } else {
            for &child in tile.children() {
                self.resolve_covered(child, attrs, visit);
            }
        }
    }

    // -- mutation -----------------------------------------------------------

    /// Splits a leaf into the given child rectangles, redistributing its
    /// entries (each child builds its zone map over the ones it takes) and
    /// installing inherited (demoted) metadata on each child.
    /// The split tile keeps its own metadata and its object count: the same
    /// objects are below it as were in it.
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
            TileState::Leaf(leaf) => std::mem::take(leaf).into_entries(),
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
            child.parent = Some(id);
            self.tiles.push(child);
            child_ids.push(cid);
        }

        // Redistribute entries. Half-open containment first; entries sitting
        // on the parent's max edge (domain-boundary clamping) fall through
        // to closed containment.
        let count = entries.len() as u64;
        let mut child_of = Vec::with_capacity(entries.len());
        let mut taken = vec![Vec::new(); child_rects.len()];
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
            taken[slot].push(e);
        }
        for (&cid, entries) in child_ids.iter().zip(taken) {
            self.tile_mut(cid).state = TileState::Leaf(Leaf::from_entries(entries));
        }

        self.tile_mut(id).state = TileState::Inner {
            children: child_ids.clone(),
            count,
        };
        self.splits_performed += 1;
        Ok((child_ids, child_of))
    }

    /// Installs exact statistics as `tile`'s metadata for `attrs` and keeps
    /// the ancestors' metadata as strong as their children allow: a parent
    /// whose non-empty children are now all exact for an attribute it only
    /// had bounds for takes the merge of theirs, in child order, and so on up
    /// the parent chain until an ancestor has another child still bounded.
    /// (An ancestor already exact keeps its own statistics; every tile that
    /// turns exact passes through here, so nothing above it is waiting.)
    ///
    /// `stats` must cover every object of `tile`, `rows` of them.
    pub(crate) fn install_exact(
        &mut self,
        tile: TileId,
        attrs: &[AttrId],
        stats: Vec<RunningStats>,
        rows: u64,
    ) {
        debug_assert_eq!(rows, self.tile(tile).object_count());
        let meta = &mut self.tile_mut(tile).meta;
        for (&attr, stats) in attrs.iter().zip(stats) {
            let nulls = rows - stats.count();
            meta.set(attr, AttrMeta::Exact { stats, nulls });
        }
        let (mut id, mut pending) = (tile, attrs.to_vec());
        while let Some(parent) = self.tile(id).parent {
            let merged: Vec<(AttrId, AttrMeta)> = pending
                .iter()
                .filter(|&&a| !self.tile(parent).meta.has_exact(a))
                .filter_map(|&a| Some((a, self.merged_children(parent, a)?)))
                .collect();
            if merged.is_empty() {
                return;
            }
            pending = merged.iter().map(|&(a, _)| a).collect();
            let meta = &mut self.tiles[parent.index()].meta;
            for (a, m) in merged {
                meta.set(a, m);
            }
            id = parent;
        }
    }

    /// The merge, in child order, of the exact statistics `parent`'s
    /// non-empty children hold for `attr`; `None` while any of them is not
    /// exact.
    fn merged_children(&self, parent: TileId, attr: AttrId) -> Option<AttrMeta> {
        let (mut stats, mut nulls) = (RunningStats::new(), 0);
        for &c in self.tile(parent).children() {
            let child = self.tile(c);
            if child.object_count() == 0 {
                continue;
            }
            match child.meta.get(attr)? {
                AttrMeta::Exact { stats: s, nulls: n } => {
                    stats.merge(s);
                    nulls += n;
                }
                AttrMeta::Bounded { .. } => return None,
            }
        }
        Some(AttrMeta::Exact { stats, nulls })
    }

    // -- diagnostics ---------------------------------------------------------

    /// Rough main-memory footprint of the index structures, in bytes.
    pub fn memory_bytes(&self) -> usize {
        let tiles = self.tiles.len() * std::mem::size_of::<Tile>();
        let entries: usize = self
            .tiles
            .iter()
            .map(|t| match &t.state {
                TileState::Leaf(leaf) => {
                    std::mem::size_of_val(leaf.entries()) + std::mem::size_of_val(leaf.zones())
                }
                TileState::Inner { .. } => 0,
            })
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
    /// Verified: entry containment (closed) in its leaf, each leaf's zone map
    /// (its box count, every entry inside its block's box), children
    /// partition their parent's area and link back to it, an inner tile's count is the
    /// sum of its children's, every exact metadata slot — on a leaf or an
    /// inner tile — accounts for exactly the tile's objects, object
    /// conservation, root coverage of the domain.
    pub fn validate_invariants(&self) -> Result<()> {
        let mut seen_objects = 0u64;
        for (i, tile) in self.tiles.iter().enumerate() {
            match &tile.state {
                TileState::Leaf(leaf) => {
                    seen_objects += leaf.entries().len() as u64;
                    for e in leaf.entries() {
                        if !tile.rect.contains_point_closed(e.point()) {
                            return Err(PaiError::internal(format!(
                                "entry {e:?} outside leaf {i} rect {}",
                                tile.rect
                            )));
                        }
                    }
                    leaf.check_zones()
                        .map_err(|why| PaiError::internal(format!("leaf {i}: {why}")))?;
                }
                TileState::Inner { children, count } => {
                    let area: f64 = children.iter().map(|&c| self.tile(c).rect.area()).sum();
                    if (area - tile.rect.area()).abs() > 1e-6 * tile.rect.area().max(1.0) {
                        return Err(PaiError::internal(format!(
                            "children of tile {i} cover {area}, parent area {}",
                            tile.rect.area()
                        )));
                    }
                    let below: u64 = children.iter().map(|&c| self.tile(c).object_count()).sum();
                    if below != *count {
                        return Err(PaiError::internal(format!(
                            "tile {i} counts {count} objects, its children hold {below}"
                        )));
                    }
                    for (a, &ca) in children.iter().enumerate() {
                        if !tile.rect.contains_rect(&self.tile(ca).rect) {
                            return Err(PaiError::internal(format!(
                                "child {ca:?} escapes parent {i}"
                            )));
                        }
                        if self.tile(ca).parent != Some(TileId(i as u32)) {
                            return Err(PaiError::internal(format!(
                                "child {ca:?} of tile {i} links to parent {:?}",
                                self.tile(ca).parent
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
            for attr in tile.meta.known_attrs() {
                if let Some(AttrMeta::Exact { stats, nulls }) = tile.meta.get(attr) {
                    if stats.count() + nulls != tile.object_count() {
                        return Err(PaiError::internal(format!(
                            "tile {i} holds {} objects, its exact metadata for \
                             attribute {attr} covers {} values and {nulls} nulls",
                            tile.object_count(),
                            stats.count()
                        )));
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
        if let Some(&linked) = self.root.iter().find(|&&c| self.tile(c).parent.is_some()) {
            return Err(PaiError::internal(format!(
                "root tile {linked:?} links to a parent"
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
        // No envelope saw the five rows `small_index` holds, so the row does
        // not make one: [32, 32] would bound rows it never saw.
        assert_eq!(idx.global_bounds(2), None);

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
        // The split parent it passed keeps answering for its subtree: its
        // count grew and its exact stats absorbed the row (here a NULL).
        assert_eq!(idx.tile(child).parent, Some(t));
        assert_eq!(idx.tile(t).object_count(), 3);
        let m = idx.tile(t).meta.get(2).unwrap();
        assert_eq!((m.exact_sum(), m.nulls()), (Some(42.0), 1));
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
    fn ingest_rows_checks_the_whole_batch_before_touching_anything() {
        let mut idx = small_index();
        let (n, v0) = (idx.total_objects(), idx.version());
        let good = vec![6.0, 6.0, 1.0];
        let loc = [RowLocator::new(900), RowLocator::new(901)];
        for bad in [vec![99.0, 0.0, 0.0], vec![f64::NAN, 1.0, 0.0], vec![1.0]] {
            let err = idx.ingest_rows(&[good.clone(), bad], &loc).unwrap_err();
            assert!(err.to_string().contains("row 1"), "{err}");
        }
        assert!(
            idx.ingest_rows(std::slice::from_ref(&good), &loc).is_err(),
            "one locator a row"
        );
        assert_eq!((idx.total_objects(), idx.version()), (n, v0));

        idx.ingest_rows(&[good.clone(), good], &loc).unwrap();
        assert_eq!(idx.total_objects(), n + 2);
        assert_eq!(idx.version(), v0 + 1, "one bump a batch");
        let t = idx.leaf_for_point(Point2::new(6.0, 6.0)).unwrap();
        assert_eq!(idx.tile(t).entries().last().unwrap().locator, loc[1]);
        // Nor does a batch make an envelope for rows no envelope saw.
        assert_eq!(idx.global_bounds(2), None);
        idx.validate_invariants().unwrap();
    }

    #[test]
    fn ingest_widens_only_an_envelope_that_covers_every_row() {
        let row = |v: f64| vec![6.0, 6.0, v];
        let one = [RowLocator::new(900)];
        // No rows yet: the empty envelope covers them all, and grows.
        let mut idx =
            ValinorIndex::new(Schema::synthetic(3), Rect::new(0.0, 30.0, 0.0, 30.0), 3, 3).unwrap();
        idx.ingest_rows(&[row(1.0)], &one).unwrap();
        idx.ingest_rows(&[row(f64::NAN)], &one).unwrap();
        idx.ingest_rows(&[row(5.0)], &one).unwrap();
        assert_eq!(idx.global_bounds(2), Some(Interval::new(1.0, 5.0)));
        assert!(!idx.global_meta(2).unwrap().certainly_non_null());

        // Rows no envelope saw: ingest makes none.
        let mut idx = small_index();
        idx.ingest_rows(&[row(1.0)], &one).unwrap();
        assert_eq!(idx.global_bounds(2), None);
        // A seed covers every row the index holds; ingest widens it.
        assert!(idx.seed_global_bounds(2, Interval::new(2.0, 3.0), true));
        idx.ingest_rows(&[row(9.0)], &one).unwrap();
        assert_eq!(idx.global_bounds(2), Some(Interval::new(2.0, 9.0)));
        assert!(idx.global_meta(2).unwrap().certainly_non_null());
    }

    /// Splits the cell holding (5,5) into quadrants, then its lower-left
    /// quadrant again; hands back the cell, that quadrant and its children.
    fn twice_split() -> (ValinorIndex, TileId, TileId, Vec<TileId>) {
        let mut idx = small_index();
        for (i, (x, y)) in [(1.0, 1.0), (2.0, 4.0), (6.0, 2.0), (7.0, 8.0)]
            .iter()
            .enumerate()
        {
            idx.insert_entry(ObjectEntry::new(*x, *y, RowLocator::new(100 + i as u64)));
        }
        let cell = idx.leaf_for_point(Point2::new(5.0, 5.0)).unwrap();
        let rect = idx.tile(cell).rect;
        let (quads, _) = idx.split_leaf(cell, rect.split_grid(2, 2)).unwrap();
        let quad = quads[0];
        let rect = idx.tile(quad).rect;
        let (subs, _) = idx.split_leaf(quad, rect.split_grid(2, 2)).unwrap();
        idx.validate_invariants().unwrap();
        (idx, cell, quad, subs)
    }

    #[test]
    fn classification_stops_at_the_highest_covered_tile() {
        let (idx, cell, quad, _) = twice_split();
        // The whole cell inside the window: one covering tile, counted from
        // its stored subtree count.
        let c = idx.classify(&Rect::new(0.0, 10.0, 0.0, 12.0));
        assert_eq!(c.full, vec![cell]);
        assert_eq!(idx.tile(cell).object_count(), 5);
        assert_eq!(c.selected_total, 5);
        // The window's border through the cell: the walk goes down there,
        // and stops again at the covered quadrant, itself an inner tile.
        let c = idx.classify(&Rect::new(0.0, 5.0, 0.0, 5.0));
        assert_eq!(c.full, vec![quad]);
        assert!(c.partial.is_empty());
        assert_eq!(c.selected_total, idx.tile(quad).object_count());
        // An empty covered subtree is skipped as one tile.
        let empty = idx.leaf_for_point(Point2::new(25.0, 5.0)).unwrap();
        let c = idx.classify(&idx.tile(empty).rect);
        assert_eq!((c.full.len(), c.skipped_empty), (0, 1));
    }

    #[test]
    fn covered_tiles_resolve_by_their_metadata() {
        let (mut idx, cell, quad, subs) = twice_split();
        let resolved = |idx: &ValinorIndex, id, attrs: &[AttrId]| {
            let mut out = Vec::new();
            idx.resolve_covered(id, attrs, &mut |t, exact| out.push((t, exact)));
            out
        };
        // A COUNT-only query asks for no attribute: every covered tile
        // answers it, however deep its subtree.
        assert_eq!(resolved(&idx, cell, &[]), vec![(cell, true)]);
        // No metadata anywhere: the walk bottoms out at the non-empty
        // leaves, in child order, each an enrichment away from exact.
        let leaves = resolved(&idx, cell, &[2]);
        assert!(leaves
            .iter()
            .all(|&(t, exact)| !exact && idx.tile(t).is_leaf()));
        let below: u64 = leaves
            .iter()
            .map(|&(t, _)| idx.tile(t).object_count())
            .sum();
        assert_eq!(below, 5, "empty subtrees are not visited");
        // An exact inner tile answers for everything below it.
        let n = idx.tile(quad).object_count();
        idx.install_exact(quad, &[2], vec![RunningStats::from_values(&[1.0, 2.0])], n);
        let with_quad = resolved(&idx, cell, &[2]);
        assert!(with_quad.contains(&(quad, true)));
        assert!(subs
            .iter()
            .all(|s| !with_quad.iter().any(|&(t, _)| t == *s)));
        // ... but only for the attributes it is exact for.
        assert!(!resolved(&idx, cell, &[2, 1]).contains(&(quad, true)));
    }

    #[test]
    fn exactness_is_pulled_up_while_every_child_has_it() {
        let (mut idx, cell, quad, subs) = twice_split();
        let exact_of = |idx: &ValinorIndex, id: TileId| {
            let values: Vec<f64> = idx.tile(id).entries().iter().map(|e| e.x * 0.1).collect();
            (RunningStats::from_values(&values), values.len() as u64)
        };
        let stats_of = |idx: &ValinorIndex, id: TileId| match idx.tile(id).meta.get(2) {
            Some(AttrMeta::Exact { stats, .. }) => Some(*stats),
            _ => None,
        };
        let live: Vec<TileId> = subs
            .iter()
            .copied()
            .filter(|&s| idx.tile(s).object_count() > 0)
            .collect();
        assert!(
            live.len() >= 2 && live.len() < subs.len(),
            "one empty child"
        );
        for (k, &s) in live.iter().enumerate() {
            assert_eq!(stats_of(&idx, quad), None, "child {k} still bounded");
            let (stats, rows) = exact_of(&idx, s);
            idx.install_exact(s, &[2], vec![stats], rows);
        }
        // The last non-empty child made the quadrant exact: the merge of its
        // children, in child order, bit for bit.
        let mut merged = RunningStats::new();
        for &s in &live {
            merged.merge(&stats_of(&idx, s).unwrap());
        }
        let got = stats_of(&idx, quad).expect("pulled up");
        assert_eq!(got.sum().to_bits(), merged.sum().to_bits());
        assert_eq!(got, merged);
        // ... and the pull-up stopped there: the cell has other quadrants
        // that are not exact.
        assert_eq!(stats_of(&idx, cell), None);
        idx.validate_invariants().unwrap();
        // Once they are, it reaches the cell.
        for &q in idx.tile(cell).children().to_vec().iter().skip(1) {
            if idx.tile(q).object_count() > 0 {
                let (stats, rows) = exact_of(&idx, q);
                idx.install_exact(q, &[2], vec![stats], rows);
            }
        }
        assert_eq!(stats_of(&idx, cell).unwrap().count(), 5);
        idx.validate_invariants().unwrap();
    }

    #[test]
    fn invariants_catch_a_stale_count_link_or_exact_claim() {
        let (idx, cell, quad, subs) = twice_split();
        let mut broken = idx.clone();
        if let TileState::Inner { count, .. } = &mut broken.tiles[quad.index()].state {
            *count += 1;
        }
        let err = broken.validate_invariants().unwrap_err().to_string();
        assert!(err.contains("counts"), "{err}");

        let mut broken = idx.clone();
        broken.tiles[subs[0].index()].parent = Some(cell);
        let err = broken.validate_invariants().unwrap_err().to_string();
        assert!(err.contains("links to parent"), "{err}");

        let mut broken = idx.clone();
        broken.tiles[quad.index()]
            .meta
            .set(2, AttrMeta::exact_from_values(&[1.0]));
        let err = broken.validate_invariants().unwrap_err().to_string();
        assert!(err.contains("exact metadata"), "{err}");
    }

    #[test]
    fn global_bounds_fold() {
        let mut idx = small_index();
        assert_eq!(idx.global_bounds(2), None);
        idx.fold_global_bound(2, 5.0);
        idx.fold_global_bound(2, -1.0);
        assert!(idx.global_meta(2).unwrap().certainly_non_null());
        idx.fold_global_bound(2, f64::NAN);
        assert_eq!(idx.global_bounds(2), Some(Interval::new(-1.0, 5.0)));
        assert!(
            !idx.global_meta(2).unwrap().certainly_non_null(),
            "the NULL is recorded, not dropped"
        );
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
