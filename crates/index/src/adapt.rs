//! Tile processing: the `process(t)` operation of the paper, split into a
//! **plan → fetch → apply** pipeline.
//!
//! Processing a partially-contained tile does everything the problem
//! definition in §3.1 charges for: read the needed attribute values of the
//! tile's objects from the raw file, split the tile into subtiles
//! (policy-driven), reorganize its entries, and compute metadata for the new
//! subtiles. Since the refinement pipeline refactor those steps are three
//! separable stages:
//!
//! 1. [`plan_tile`] — **pure**, `&index` only: snapshots the tile's entries,
//!    decides window membership and which locators/attributes must be read.
//!    Plans from several tiles can be fetched together in one batched read
//!    (`pai_storage::batch`), and planning never blocks concurrent readers.
//! 2. The caller fetches the plan's `locators`/`read_attrs` however it likes
//!    (single call, cross-tile batch).
//! 3. [`apply_plan`] — installs the split, reorganized entries, and subtile
//!    metadata, returning the [`ProcessOutcome`] with the *exact* in-window
//!    statistics so the engine can swap this tile's contribution from a
//!    bounded interval to an exact value. The statistics themselves are also
//!    available without mutating anything via [`TilePlan::in_window_stats`]
//!    (the optimistic concurrent applier uses this when the index changed
//!    underneath a plan).
//!
//! [`plan_enrich`]/[`apply_enrich`] are the companion stages for
//! fully-contained tiles whose metadata lacks the requested attribute: one
//! whole-tile read installs exact stats (the "index enrichment" of §2.2).
//!
//! Both of the paper's methods drive these stages from one loop in
//! `pai-core`, which fetches the plans of several tiles together.

use pai_common::geometry::Rect;
use pai_common::{AttrId, PaiError, Result, RowLocator, RunningStats};

use crate::config::{AdaptConfig, ReadPolicy};
use crate::index::ValinorIndex;
use crate::metadata::AttrMeta;
use crate::tile::{Cover, TileId};

/// Tiles whose width or height would drop below this are not split.
const MIN_TILE_EXTENT: f64 = 1e-9;

/// Hard cap on nesting depth: a leaf this deep is read but not split (a
/// safety valve against degenerate data).
const MAX_DEPTH: u16 = 32;

/// What processing one tile produced.
#[derive(Debug, Clone)]
pub struct ProcessOutcome {
    /// Exact statistics over the tile's objects inside the query window,
    /// one per requested attribute (same order as the `attrs` argument).
    pub in_window: Vec<RunningStats>,
    /// Objects selected by the query inside this tile (`count(t∩Q)`).
    pub selected: u64,
    /// Objects actually read from the raw file.
    pub objects_read: u64,
    /// Whether the tile was split.
    pub did_split: bool,
    /// The leaves created by the split (empty when `did_split == false`).
    pub new_leaves: Vec<TileId>,
}

/// A pure refinement plan for one partially-contained leaf tile: everything
/// `process(t)` needs to know *before* touching the raw file, computed
/// against an immutable index view.
///
/// The plan snapshots the tile's entries (cheap 24-byte copies), so its
/// statistics can be computed from fetched values alone even if the index
/// is mutated between planning and applying (see
/// `pai-core::concurrent::SharedIndex`).
#[derive(Debug, Clone)]
pub struct TilePlan {
    /// The planned tile.
    pub tile: TileId,
    /// Objects selected by the query inside this tile (`count(t∩Q)`).
    pub selected: u64,
    /// Locators to fetch, in entry order (selected entries under
    /// [`ReadPolicy::WindowOnly`], every entry under
    /// [`ReadPolicy::FullTile`]).
    pub locators: Vec<RowLocator>,
    /// Attributes to read for each locator (enrich policy already applied);
    /// empty for COUNT-only queries, which charge no I/O.
    pub read_attrs: Vec<AttrId>,
    /// Index mutation counter at plan time (optimistic-concurrency stamp).
    pub planned_version: u64,
    /// Snapshot of the tile's entries at plan time.
    entries: Vec<crate::entry::ObjectEntry>,
    /// Per-entry window membership, aligned with `entries`.
    in_window: Vec<bool>,
    /// For each locator, the position of its entry in `entries` — the
    /// positional alignment that replaces any per-object keyed lookup.
    entry_of: Vec<u32>,
    /// For each query attribute, its column within `read_attrs`.
    attr_pos: Vec<usize>,
}

impl TilePlan {
    /// Objects the fetch stage will read for this plan (0 when no
    /// attributes are needed).
    pub fn objects_to_read(&self) -> u64 {
        if self.read_attrs.is_empty() {
            0
        } else {
            self.locators.len() as u64
        }
    }

    /// Exact in-window statistics for the query's attributes, computed
    /// purely from the fetched `values` (one row of `read_attrs` values per
    /// locator, in locator order). Never touches the index — the data in
    /// the raw file is immutable, so these statistics are correct even if
    /// the tile was concurrently split after planning.
    pub fn in_window_stats(&self, values: &[f64]) -> Result<Vec<RunningStats>> {
        let width = self.read_attrs.len();
        check_shape(self.tile, self.locators.len(), width, values)?;
        let mut stats = vec![RunningStats::new(); self.attr_pos.len()];
        for (vals, &ei) in rows_of(values, width).zip(&self.entry_of) {
            if !self.in_window[ei as usize] {
                continue;
            }
            for (s, &pos) in stats.iter_mut().zip(&self.attr_pos) {
                s.push(vals[pos]);
            }
        }
        Ok(stats)
    }
}

/// Fetched `values` must be one row of `width` values per locator: a wrong
/// shape is an error, not a misalignment.
fn check_shape(tile: TileId, rows: usize, width: usize, values: &[f64]) -> Result<()> {
    if values.len() == rows * width {
        return Ok(());
    }
    Err(PaiError::internal(format!(
        "plan for {tile:?} expected {rows} fetched rows of {width} values, got {} values",
        values.len()
    )))
}

/// The rows of a flat run of fetched values; none when there is nothing in
/// them (`width == 0`: a COUNT-only read).
fn rows_of(values: &[f64], width: usize) -> impl Iterator<Item = &[f64]> {
    values.chunks_exact(width.max(1))
}

/// Exact statistics of every read attribute over the rows pushed so far,
/// folded a row at a time — in push order, so they equal
/// [`AttrMeta::exact_from_values`] over the same rows column by column.
#[derive(Clone)]
struct ExactFold {
    stats: Vec<RunningStats>,
    rows: u64,
}

impl ExactFold {
    fn new(width: usize) -> Self {
        ExactFold {
            stats: vec![RunningStats::new(); width],
            rows: 0,
        }
    }

    /// The fold over every row of a flat run of values.
    fn over(values: &[f64], width: usize) -> Self {
        let mut fold = ExactFold::new(width);
        rows_of(values, width).for_each(|row| fold.push(row));
        fold
    }

    fn push(&mut self, row: &[f64]) {
        for (s, &v) in self.stats.iter_mut().zip(row) {
            s.push(v);
        }
        self.rows += 1;
    }

    /// Installs the statistics as `tile`'s exact metadata for `read_attrs`
    /// (and as far up its ancestors as they now follow from the children).
    fn install(self, index: &mut ValinorIndex, tile: TileId, read_attrs: &[AttrId]) {
        index.install_exact(tile, read_attrs, self.stats, self.rows);
    }
}

/// Plans the processing of one partially-contained leaf tile against
/// `query` — the pure first stage of `process(t)`.
///
/// `attrs` are the query's aggregate attributes; the [`AdaptConfig`] decides
/// how much to read ([`ReadPolicy`]) and which attributes get metadata.
pub fn plan_tile(
    index: &ValinorIndex,
    tile_id: TileId,
    query: &Rect,
    attrs: &[AttrId],
    cfg: &AdaptConfig,
) -> Result<TilePlan> {
    let tile = index.tile(tile_id);
    if !tile.is_leaf() {
        return Err(PaiError::internal(format!(
            "plan_tile on non-leaf {tile_id:?}"
        )));
    }
    // Snapshot entries: cheap copies, and they stay valid across the split.
    let entries = tile.entries().to_vec();

    // The tile's metadata is enriched with exactly the query's attributes.
    let read_attrs = attrs.to_vec();
    // One walk over the entries, a zone-map block at a time: window
    // membership (whole for a block inside or outside the window, entry by
    // entry where its edge crosses), and which objects to read from the
    // file, remembering each locator's entry so fetched rows align back
    // positionally.
    let whole_tile = cfg.read == ReadPolicy::FullTile;
    let mut in_window = Vec::with_capacity(entries.len());
    let (mut locators, mut entry_of) = (Vec::new(), Vec::new());
    let (mut selected, mut i) = (0u64, 0u32);
    for (block, cover) in tile.blocks(query) {
        for e in block {
            let sel = match cover {
                Cover::All => true,
                Cover::None => false,
                Cover::Some => e.in_window(query),
            };
            in_window.push(sel);
            selected += u64::from(sel);
            if sel || whole_tile {
                locators.push(e.locator);
                entry_of.push(i);
            }
            i += 1;
        }
    }
    let attr_pos: Vec<usize> = attrs
        .iter()
        .map(|a| {
            read_attrs
                .iter()
                .position(|r| r == a)
                .expect("attrs is a subset of read_attrs by construction")
        })
        .collect();
    Ok(TilePlan {
        tile: tile_id,
        selected,
        locators,
        read_attrs,
        planned_version: index.version(),
        entries,
        in_window,
        entry_of,
        attr_pos,
    })
}

/// The optimistic-concurrency applicability check, in one place: a plan
/// computed at `planned_version` still applies if nothing changed since
/// planning, or — since the entries a plan snapshotted never leave a leaf
/// except by splitting it — if its tile is still a leaf. Concurrent writers
/// call this under the write lock immediately before [`apply_plan`] /
/// [`apply_enrich`]; a `false` means another writer split the tile
/// underneath the plan, which must then be discarded (the region re-plans
/// from the refined children). A leaf an ingest *grew* since planning still
/// applies: the apply resolves the query from the fetched values and installs
/// no whole-tile statistics, which would miss the new rows.
pub fn still_applies(index: &ValinorIndex, tile: TileId, planned_version: u64) -> bool {
    index.version() == planned_version || index.tile(tile).is_leaf()
}

/// Applies a fetched plan: performs the split decision, reorganizes
/// entries, and installs subtile/in-place metadata — the mutation stage of
/// `process(t)`.
///
/// `values` must be the rows fetched for `plan.locators` (in order) with
/// `plan.read_attrs` as columns. The caller is responsible for the tile
/// still being a leaf; under optimistic concurrency, check
/// `index.version()` against [`TilePlan::planned_version`] (or
/// `index.tile(plan.tile).is_leaf()`) first and fall back to
/// [`TilePlan::in_window_stats`] when the plan no longer applies.
pub fn apply_plan(
    index: &mut ValinorIndex,
    plan: &TilePlan,
    query: &Rect,
    cfg: &AdaptConfig,
    values: &[f64],
) -> Result<ProcessOutcome> {
    let tile = index.tile(plan.tile);
    if !tile.is_leaf() {
        return Err(PaiError::internal(format!(
            "apply_plan on non-leaf {:?} (tile split since planning?)",
            plan.tile
        )));
    }
    let tile_rect = tile.rect;
    let depth = tile.depth;

    // Exact in-window statistics, from the positionally aligned rows.
    let stats = plan.in_window_stats(values)?;

    // Split decision: worth it only for populous, still-divisible tiles.
    let (mut new_leaves, mut child_of) = (Vec::new(), Vec::new());
    if plan.entries.len() as u64 >= cfg.min_split_objects && depth < MAX_DEPTH {
        if let Some(rects) = cfg.split.child_rects(&tile_rect, query, &plan.entries) {
            let extent_ok = rects
                .iter()
                .all(|r| r.width() >= MIN_TILE_EXTENT && r.height() >= MIN_TILE_EXTENT);
            if extent_ok && rects.len() >= 2 {
                (new_leaves, child_of) = index.split_leaf(plan.tile, rects)?;
            }
        }
    }

    let (width, did_split) = (plan.read_attrs.len(), !new_leaves.is_empty());
    if did_split {
        // Children whose entries were all read get exact metadata for the
        // read attributes; the rest keep the inherited bounds installed by
        // `split_leaf`. The split hands the entries out in order, so one walk
        // over them folds each child's rows in that child's entry order. An
        // entry ingested since planning has no row, like one not read.
        let mut row_of = vec![u32::MAX; plan.entries.len()];
        for (row, &ei) in plan.entry_of.iter().enumerate() {
            row_of[ei as usize] = row as u32;
        }
        let mut folds = vec![Some(ExactFold::new(width)); new_leaves.len()];
        for (ei, &child) in child_of.iter().enumerate() {
            match row_of.get(ei) {
                Some(&row) if row != u32::MAX => {
                    if let Some(fold) = &mut folds[child as usize] {
                        fold.push(&values[row as usize * width..][..width]);
                    }
                }
                _ => folds[child as usize] = None,
            }
        }
        for (&child, fold) in new_leaves.iter().zip(folds) {
            if let Some(fold) = fold.filter(|f| f.rows > 0) {
                fold.install(index, child, &plan.read_attrs);
            }
        }
    } else if plan.locators.len() == plan.entries.len()
        && !plan.entries.is_empty()
        && index.tile(plan.tile).entries().len() == plan.entries.len()
    {
        // No split, but the whole tile was read (FullTile policy, or a
        // window that happens to select every object): enrich in place.
        // Locators cover every entry here, in entry order — unless an ingest
        // grew the leaf since planning, and then its metadata, which folded
        // the new rows in, is left alone.
        ExactFold::over(values, width).install(index, plan.tile, &plan.read_attrs);
    }

    Ok(ProcessOutcome {
        in_window: stats,
        selected: plan.selected,
        objects_read: plan.objects_to_read(),
        did_split,
        new_leaves,
    })
}

/// The pushdown hint a tile-processing fetch may safely carry
/// ([`RawFile::read_rows_into`](pai_storage::raw::RawFile::read_rows_into)):
/// the query window under [`ReadPolicy::WindowOnly`] (plan locators are all
/// in-window, so a zone-map skip can never touch a row whose value is consumed), nothing
/// under [`ReadPolicy::FullTile`] (out-of-window rows feed child enrichment
/// and must be materialized, not answered with NaN).
pub fn fetch_window<'q>(cfg: &AdaptConfig, query: &'q Rect) -> Option<&'q Rect> {
    match cfg.read {
        ReadPolicy::WindowOnly => Some(query),
        ReadPolicy::FullTile => None,
    }
}

/// Where one query attribute's exact statistics come from when an
/// enrichment plan resolves.
#[derive(Debug, Clone)]
enum EnrichSource {
    /// Already exact in the tile's metadata at plan time (snapshot).
    Exact(RunningStats),
    /// Column `i` of the fetched values.
    Fetched(usize),
}

/// A pure enrichment plan for one covered leaf tile whose metadata is
/// missing (or only bounded for) some requested attribute.
///
/// Like [`TilePlan`], the plan is computed against an immutable index view
/// and carries enough snapshot state ([`EnrichPlan::resolved_stats`]) to
/// resolve the tile's contribution even if the index changed underneath.
#[derive(Debug, Clone)]
pub struct EnrichPlan {
    /// The planned tile.
    pub tile: TileId,
    /// Locators of every entry, in entry order (empty when nothing needs
    /// reading).
    pub locators: Vec<RowLocator>,
    /// The attributes whose metadata must be read (the missing subset of
    /// the query's attributes); empty when the tile is already fully exact.
    pub read_attrs: Vec<AttrId>,
    /// Index mutation counter at plan time (optimistic-concurrency stamp).
    pub planned_version: u64,
    /// Per query attribute: where its exact stats come from.
    sources: Vec<EnrichSource>,
}

impl EnrichPlan {
    /// Objects the fetch stage will read for this plan.
    pub fn objects_to_read(&self) -> u64 {
        if self.read_attrs.is_empty() {
            0
        } else {
            self.locators.len() as u64
        }
    }

    /// Exact whole-tile statistics per query attribute, combining the
    /// plan-time metadata snapshot with the fetched columns. Pure — usable
    /// even when the structural apply was skipped due to a concurrent
    /// split.
    pub fn resolved_stats(&self, values: &[f64]) -> Result<Vec<RunningStats>> {
        let width = self.read_attrs.len();
        check_shape(self.tile, self.locators.len(), width, values)?;
        Ok(self
            .sources
            .iter()
            .map(|src| match src {
                EnrichSource::Exact(stats) => *stats,
                EnrichSource::Fetched(col) => {
                    let mut s = RunningStats::new();
                    rows_of(values, width).for_each(|row| s.push(row[*col]));
                    s
                }
            })
            .collect())
    }
}

/// Plans the enrichment read for a fully-contained tile — the pure first
/// stage of the enrichment. The plan is empty (nothing to fetch) when
/// every requested attribute already has exact stats, or the tile holds no
/// objects.
pub fn plan_enrich(index: &ValinorIndex, tile_id: TileId, attrs: &[AttrId]) -> Result<EnrichPlan> {
    let tile = index.tile(tile_id);
    if !tile.is_leaf() {
        return Err(PaiError::internal(format!(
            "plan_enrich on non-leaf {tile_id:?}"
        )));
    }
    let mut read_attrs = Vec::new();
    let mut sources = Vec::with_capacity(attrs.len());
    for &a in attrs {
        match tile.meta.get(a).and_then(AttrMeta::exact_stats) {
            Some(stats) => sources.push(EnrichSource::Exact(*stats)),
            None => {
                sources.push(EnrichSource::Fetched(read_attrs.len()));
                read_attrs.push(a);
            }
        }
    }
    // An empty tile needs no read and must not have empty stats installed
    // (mirrors the pre-pipeline behaviour of skipping empty tiles).
    let locators: Vec<RowLocator> = if read_attrs.is_empty() || tile.entries().is_empty() {
        read_attrs.clear();
        for src in &mut sources {
            if matches!(src, EnrichSource::Fetched(_)) {
                *src = EnrichSource::Exact(RunningStats::new());
            }
        }
        Vec::new()
    } else {
        tile.entries().iter().map(|e| e.locator).collect()
    };
    Ok(EnrichPlan {
        tile: tile_id,
        locators,
        read_attrs,
        planned_version: index.version(),
        sources,
    })
}

/// Installs the fetched enrichment values as exact metadata — the mutation
/// stage of the enrichment. Returns the number of objects the plan read.
///
/// A leaf an ingest grew since planning keeps its metadata as it is (it
/// folded the new rows in; the fetched values do not hold them): the query
/// resolves from [`EnrichPlan::resolved_stats`], the tile stays a candidate
/// for the next one.
pub fn apply_enrich(index: &mut ValinorIndex, plan: &EnrichPlan, values: &[f64]) -> Result<u64> {
    if plan.read_attrs.is_empty() {
        return Ok(0);
    }
    let tile = index.tile(plan.tile);
    if !tile.is_leaf() {
        return Err(PaiError::internal(format!(
            "apply_enrich on non-leaf {:?} (tile split since planning?)",
            plan.tile
        )));
    }
    let width = plan.read_attrs.len();
    check_shape(plan.tile, plan.locators.len(), width, values)?;
    if tile.entries().len() == plan.locators.len() {
        ExactFold::over(values, width).install(index, plan.tile, &plan.read_attrs);
    }
    Ok(plan.locators.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{build, GridSpec, InitConfig};
    use crate::split::SplitPolicy;
    use pai_common::geometry::Point2;
    use pai_storage::batch::{read_row_groups, RowBatch};
    use pai_storage::raw::RawFile;
    use pai_storage::{CsvFormat, MemFile, Schema};

    /// 3x3 grid over [0,30)^2; objects mirror the spirit of Figure 1:
    /// col2 is the "rating" attribute with value 10*i.
    fn setup() -> (MemFile, ValinorIndex) {
        let rows = vec![
            vec![2.0, 12.0, 10.0],  // t1-ish: left-middle cell
            vec![8.0, 18.0, 20.0],  // t1-ish
            vec![14.0, 27.0, 30.0], // top-middle
            vec![12.0, 14.0, 40.0], // centre
            vec![16.0, 12.0, 50.0], // centre
            vec![25.0, 5.0, 60.0],  // bottom-right
            vec![28.0, 8.0, 70.0],  // bottom-right
        ];
        let f = MemFile::from_rows(Schema::synthetic(3), CsvFormat::default(), rows).unwrap();
        let cfg = InitConfig {
            grid: GridSpec::Fixed { nx: 3, ny: 3 },
            domain: Some(Rect::new(0.0, 30.0, 0.0, 30.0)),
            metadata: crate::config::MetadataPolicy::AllNumeric,
        };
        let (idx, _) = build(&f, &cfg).unwrap();
        (f, idx)
    }

    /// The plan's rows, fetched into a fresh batch.
    fn fetch(f: &dyn RawFile, plan: &TilePlan) -> RowBatch {
        let mut values = RowBatch::default();
        read_row_groups(f, &[&plan.locators], &plan.read_attrs, None, &mut values).unwrap();
        values
    }

    /// `process(t)` of one tile: plan → fetch → apply.
    fn process_tile(
        idx: &mut ValinorIndex,
        f: &dyn RawFile,
        tile: TileId,
        q: &Rect,
        attrs: &[AttrId],
        cfg: &AdaptConfig,
    ) -> Result<ProcessOutcome> {
        let plan = plan_tile(idx, tile, q, attrs, cfg)?;
        apply_plan(idx, &plan, q, cfg, fetch(f, &plan).values())
    }

    /// The enrichment of one covered tile: plan → fetch → apply. Returns the
    /// objects read (none when its stats were already exact).
    fn enrich_tile(
        idx: &mut ValinorIndex,
        f: &dyn RawFile,
        tile: TileId,
        attrs: &[AttrId],
    ) -> Result<u64> {
        let plan = plan_enrich(idx, tile, attrs)?;
        if plan.read_attrs.is_empty() {
            return Ok(0);
        }
        let values = f.read_rows(&plan.locators, &plan.read_attrs)?;
        apply_enrich(idx, &plan, values.values())
    }

    fn adapt_cfg(split: SplitPolicy, read: ReadPolicy) -> AdaptConfig {
        AdaptConfig {
            split,
            read,
            min_split_objects: 1,
        }
    }

    #[test]
    fn window_only_processing_reads_selected_objects() {
        let (f, mut idx) = setup();
        // Query over the centre cell region, partially overlapping it.
        let q = Rect::new(11.0, 15.0, 11.0, 16.0); // selects (12,14) only
        let centre = idx.leaf_for_point(Point2::new(15.0, 15.0)).unwrap();
        f.counters().reset();
        let cfg = adapt_cfg(SplitPolicy::QueryAligned, ReadPolicy::WindowOnly);
        let out = process_tile(&mut idx, &f, centre, &q, &[2], &cfg).unwrap();
        assert_eq!(out.selected, 1);
        assert_eq!(
            out.objects_read, 1,
            "window-only reads just the selected object"
        );
        assert_eq!(out.in_window[0].sum(), 40.0);
        assert!(out.did_split);
        idx.validate_invariants().unwrap();
    }

    #[test]
    fn full_tile_processing_reads_everything_and_enriches_children() {
        let (f, mut idx) = setup();
        let q = Rect::new(11.0, 15.0, 11.0, 16.0);
        let centre = idx.leaf_for_point(Point2::new(15.0, 15.0)).unwrap();
        f.counters().reset();
        let cfg = adapt_cfg(SplitPolicy::QueryAligned, ReadPolicy::FullTile);
        let out = process_tile(&mut idx, &f, centre, &q, &[2], &cfg).unwrap();
        assert_eq!(out.objects_read, 2, "full-tile reads all tile objects");
        assert!(out.did_split);
        // Every non-empty child now has exact metadata.
        for &c in &out.new_leaves {
            if idx.tile(c).object_count() > 0 {
                assert!(idx.tile(c).meta.has_exact(2), "child {c:?}");
            }
        }
    }

    #[test]
    fn window_only_children_metadata_split_exact_vs_bounded() {
        let (f, mut idx) = setup();
        // Query fully covering the left part of the left-middle cell.
        let q = Rect::new(0.0, 5.0, 10.0, 20.0); // selects (2,12); (8,18) is out
        let t = idx.leaf_for_point(Point2::new(5.0, 15.0)).unwrap();
        let cfg = adapt_cfg(SplitPolicy::QueryAligned, ReadPolicy::WindowOnly);
        let out = process_tile(&mut idx, &f, t, &q, &[2], &cfg).unwrap();
        assert!(out.did_split);
        let mut exact_children = 0;
        let mut bounded_children = 0;
        for &c in &out.new_leaves {
            if idx.tile(c).object_count() == 0 {
                continue;
            }
            match idx.tile(c).meta.get(2) {
                Some(m) if m.is_exact() => exact_children += 1,
                Some(_) => bounded_children += 1,
                None => panic!("child lost its inherited bounds"),
            }
        }
        assert_eq!(exact_children, 1, "in-window child has exact stats");
        assert_eq!(
            bounded_children, 1,
            "out-of-window child keeps parent bounds"
        );
        // Inherited bounds equal the parent's pre-split [min,max] = [10,20].
        let bounded = out
            .new_leaves
            .iter()
            .find(|&&c| idx.tile(c).object_count() > 0 && !idx.tile(c).meta.has_exact(2))
            .copied()
            .unwrap();
        assert_eq!(
            idx.tile(bounded).meta.get(2).unwrap().value_bounds(),
            Some(pai_common::Interval::new(10.0, 20.0))
        );
    }

    #[test]
    fn child_metadata_folds_the_read_rows_in_the_childs_entry_order() {
        // One cell, objects in file order zig-zagging across x = 5; the
        // query selects the left half, so the split reads the left child
        // whole and the right child not at all. Values are chosen so that a
        // sum folded in another order rounds differently.
        let vals = [1e16, 3.0, -1e16, 5.0, 0.1, f64::NAN, 0.2, 7.0];
        let rows: Vec<Vec<f64>> = (0..8)
            .map(|i| {
                vec![
                    if i % 2 == 0 { 1.0 } else { 6.0 } + i as f64 * 0.1,
                    5.0,
                    vals[i],
                ]
            })
            .collect();
        let f = MemFile::from_rows(Schema::synthetic(3), CsvFormat::default(), rows).unwrap();
        let init = InitConfig {
            grid: GridSpec::Fixed { nx: 1, ny: 1 },
            domain: Some(Rect::new(0.0, 10.0, 0.0, 10.0)),
            metadata: crate::config::MetadataPolicy::AllNumeric,
        };
        let (mut idx, _) = build(&f, &init).unwrap();
        let q = Rect::new(0.0, 5.0, 0.0, 10.0);
        let cfg = adapt_cfg(SplitPolicy::QueryAligned, ReadPolicy::WindowOnly);
        // Two attributes, so rows are wider than one value.
        let out = process_tile(&mut idx, &f, TileId(0), &q, &[2, 0], &cfg).unwrap();
        assert!(out.did_split);
        assert_eq!(out.objects_read, 4);
        let (mut exact, mut bounded) = (0, 0);
        for &c in &out.new_leaves {
            let entries = idx.tile(c).entries();
            if entries.is_empty() {
                continue;
            }
            if !entries[0].in_window(&q) {
                assert!(!idx.tile(c).meta.has_exact(2), "unread child stays bounded");
                bounded += 1;
                continue;
            }
            // The child's own values, in its entry order (= file order).
            let locs: Vec<RowLocator> = entries.iter().map(|e| e.locator).collect();
            let own = f.read_rows(&locs, &[2, 0]).unwrap();
            for (col, attr) in [(0, 2), (1, 0)] {
                let column: Vec<f64> = own.iter().map(|r| r[col]).collect();
                assert_eq!(
                    idx.tile(c).meta.get(attr),
                    Some(&AttrMeta::exact_from_values(&column)),
                    "attr {attr}"
                );
            }
            assert_eq!(
                idx.tile(c).meta.get(2).unwrap().exact_sum(),
                Some(0.1 + 0.2)
            );
            exact += 1;
        }
        assert_eq!((exact, bounded), (1, 1));
    }

    #[test]
    fn no_split_below_min_objects() {
        let (f, mut idx) = setup();
        let q = Rect::new(11.0, 15.0, 11.0, 16.0);
        let centre = idx.leaf_for_point(Point2::new(15.0, 15.0)).unwrap();
        let cfg = AdaptConfig {
            min_split_objects: 100,
            ..adapt_cfg(SplitPolicy::QueryAligned, ReadPolicy::WindowOnly)
        };
        let out = process_tile(&mut idx, &f, centre, &q, &[2], &cfg).unwrap();
        assert!(!out.did_split);
        assert!(out.new_leaves.is_empty());
        assert!(idx.tile(centre).is_leaf());
    }

    #[test]
    fn no_split_policy_reads_only() {
        let (f, mut idx) = setup();
        let q = Rect::new(11.0, 15.0, 11.0, 16.0);
        let centre = idx.leaf_for_point(Point2::new(15.0, 15.0)).unwrap();
        let cfg = adapt_cfg(SplitPolicy::NoSplit, ReadPolicy::WindowOnly);
        let out = process_tile(&mut idx, &f, centre, &q, &[2], &cfg).unwrap();
        assert!(!out.did_split);
        assert_eq!(out.in_window[0].sum(), 40.0);
    }

    #[test]
    fn whole_tile_selected_enriches_in_place_without_split() {
        let (f, mut idx) = setup();
        // Window covering the full bottom-right cell contents but the cell
        // is partial w.r.t. the window (window cuts through empty space).
        let q = Rect::new(21.0, 30.0, 0.0, 10.0);
        let t = idx.leaf_for_point(Point2::new(25.0, 5.0)).unwrap();
        let cfg = AdaptConfig {
            split: SplitPolicy::NoSplit,
            ..adapt_cfg(SplitPolicy::NoSplit, ReadPolicy::WindowOnly)
        };
        let out = process_tile(&mut idx, &f, t, &q, &[2], &cfg).unwrap();
        assert_eq!(out.selected, 2);
        assert!(!out.did_split);
        // All entries were read, so the tile's metadata got refreshed.
        assert!(idx.tile(t).meta.has_exact(2));
        assert_eq!(idx.tile(t).meta.get(2).unwrap().exact_sum(), Some(130.0));
    }

    #[test]
    fn max_depth_stops_splitting() {
        let (f, mut idx) = setup();
        let q = Rect::new(11.0, 15.0, 11.0, 16.0);
        let centre = idx.leaf_for_point(Point2::new(15.0, 15.0)).unwrap();
        let cfg = adapt_cfg(SplitPolicy::QueryAligned, ReadPolicy::WindowOnly);
        // One level above the cap the tile still splits...
        let mut shallower = idx.clone();
        shallower.tile_mut(centre).depth = MAX_DEPTH - 1;
        let out = process_tile(&mut shallower, &f, centre, &q, &[2], &cfg).unwrap();
        assert!(out.did_split);
        // ...at the cap it is read but not split.
        idx.tile_mut(centre).depth = MAX_DEPTH;
        let out = process_tile(&mut idx, &f, centre, &q, &[2], &cfg).unwrap();
        assert!(!out.did_split, "a leaf at MAX_DEPTH is not split");
        assert_eq!(out.in_window[0].sum(), 40.0, "but it is read");
        assert!(idx.tile(centre).is_leaf());
    }

    #[test]
    fn enrich_tile_reads_once_and_is_idempotent() {
        let (f, mut idx) = setup();
        let t = idx.leaf_for_point(Point2::new(25.0, 5.0)).unwrap();
        // Wipe the metadata to simulate MetadataPolicy::None.
        idx.tile_mut(t).meta = crate::metadata::TileMetadata::new(3);
        f.counters().reset();
        let read = enrich_tile(&mut idx, &f, t, &[2]).unwrap();
        assert_eq!(read, 2);
        assert!(idx.tile(t).meta.has_exact(2));
        let again = enrich_tile(&mut idx, &f, t, &[2]).unwrap();
        assert_eq!(again, 0, "second enrichment is free");
    }

    #[test]
    fn plan_is_pure_and_apply_matches_process() {
        // plan_tile must not touch the index or the file; applying the plan
        // with fetched values must equal the one-shot process_tile.
        let (f, mut idx) = setup();
        let q = Rect::new(11.0, 15.0, 11.0, 16.0);
        let centre = idx.leaf_for_point(Point2::new(15.0, 15.0)).unwrap();
        let cfg = adapt_cfg(SplitPolicy::QueryAligned, ReadPolicy::WindowOnly);

        f.counters().reset();
        let version_before = idx.version();
        let plan = plan_tile(&idx, centre, &q, &[2], &cfg).unwrap();
        assert_eq!(
            f.counters().snapshot(),
            Default::default(),
            "planning is free"
        );
        assert_eq!(idx.version(), version_before, "planning mutates nothing");
        assert_eq!(plan.selected, 1);
        assert_eq!(plan.objects_to_read(), 1);
        assert_eq!(plan.read_attrs, vec![2]);

        let values = fetch(&f, &plan);
        // The pure stats match what apply reports.
        let pure = plan.in_window_stats(values.values()).unwrap();
        let out = apply_plan(&mut idx, &plan, &q, &cfg, values.values()).unwrap();
        assert_eq!(out.in_window, pure);
        assert_eq!(out.in_window[0].sum(), 40.0);
        assert!(out.did_split);
        assert!(idx.version() > version_before, "apply bumps the version");
        idx.validate_invariants().unwrap();
    }

    #[test]
    fn stale_plan_apply_is_rejected_but_stats_survive() {
        let (f, mut idx) = setup();
        let q = Rect::new(11.0, 15.0, 11.0, 16.0);
        let centre = idx.leaf_for_point(Point2::new(15.0, 15.0)).unwrap();
        let cfg = adapt_cfg(SplitPolicy::QueryAligned, ReadPolicy::WindowOnly);
        let plan = plan_tile(&idx, centre, &q, &[2], &cfg).unwrap();
        let values = fetch(&f, &plan);
        let fresh = plan.in_window_stats(values.values()).unwrap();
        // Another writer splits the tile between plan and apply.
        process_tile(&mut idx, &f, centre, &q, &[2], &cfg).unwrap();
        assert!(!still_applies(&idx, plan.tile, plan.planned_version));
        let err = apply_plan(&mut idx, &plan, &q, &cfg, values.values()).unwrap_err();
        assert!(err.to_string().contains("non-leaf"), "{err}");
        // The batch still resolves the contribution purely, to the same
        // statistics as before the plan went stale.
        let stats = plan.in_window_stats(values.values()).unwrap();
        assert_eq!(stats, fresh);
        assert_eq!(stats[0].sum(), 40.0);
    }

    #[test]
    fn enrich_plan_resolves_from_snapshot_and_fetch() {
        let (f, mut idx) = setup();
        let t = idx.leaf_for_point(Point2::new(25.0, 5.0)).unwrap();
        // Attr 2 already exact from init metadata; plan over it is free.
        let free = plan_enrich(&idx, t, &[2]).unwrap();
        assert_eq!(free.objects_to_read(), 0);
        let resolved = free.resolved_stats(&[]).unwrap();
        assert_eq!(resolved[0].sum(), 130.0, "snapshot path");

        // Wipe metadata: the plan now fetches, and apply installs it.
        idx.tile_mut(t).meta = crate::metadata::TileMetadata::new(3);
        let plan = plan_enrich(&idx, t, &[2]).unwrap();
        assert_eq!(plan.objects_to_read(), 2);
        let values = f.read_rows(&plan.locators, &plan.read_attrs).unwrap();
        let read = apply_enrich(&mut idx, &plan, values.values()).unwrap();
        assert_eq!(read, 2);
        assert!(idx.tile(t).meta.has_exact(2));
        let resolved = plan.resolved_stats(values.values()).unwrap();
        assert_eq!(
            Some(&resolved[0]),
            idx.tile(t).meta.get(2).unwrap().exact_stats(),
            "pure resolution equals the installed metadata"
        );
    }

    /// A one-cell, metadata-free index over eight objects, two a quadrant,
    /// and its appendable file.
    fn quadrants() -> (pai_storage::AppendableFile<MemFile>, ValinorIndex) {
        let vals = [1e16, 3.0, -1e16, 5.0, 0.1, f64::NAN, 0.2, 7.0];
        let at = [1.0, 6.0, 3.0, 8.0];
        let rows: Vec<Vec<f64>> = (0..8)
            .map(|i| vec![at[i % 4], at[(i / 2) % 4], vals[i]])
            .collect();
        let base = MemFile::from_rows(Schema::synthetic(3), CsvFormat::default(), rows).unwrap();
        let file = pai_storage::AppendableFile::new(base).unwrap();
        let init = InitConfig {
            grid: GridSpec::Fixed { nx: 1, ny: 1 },
            domain: Some(Rect::new(0.0, 10.0, 0.0, 10.0)),
            metadata: crate::config::MetadataPolicy::None,
        };
        let (idx, _) = build(&file, &init).unwrap();
        (file, idx)
    }

    fn exact_stats(idx: &ValinorIndex, t: TileId, attr: AttrId) -> Option<RunningStats> {
        idx.tile(t).meta.get(attr)?.exact_stats().copied()
    }

    #[test]
    fn enriching_the_last_bounded_child_makes_the_parent_exact() {
        let (f, mut idx) = quadrants();
        // A corner window reads one object: the quadrant split leaves every
        // child without exact stats, and the cell has none to begin with.
        let cfg = adapt_cfg(
            SplitPolicy::Grid { rows: 2, cols: 2 },
            ReadPolicy::WindowOnly,
        );
        let q = Rect::new(0.0, 2.0, 0.0, 2.0);
        let out = process_tile(&mut idx, &f, TileId(0), &q, &[2], &cfg).unwrap();
        assert_eq!((out.did_split, out.objects_read), (true, 1));
        let children = out.new_leaves;
        assert!(children.iter().all(|&c| idx.tile(c).object_count() == 2));
        for &c in &children {
            assert_eq!(exact_stats(&idx, TileId(0), 2), None, "{c:?} still bounded");
            assert_eq!(enrich_tile(&mut idx, &f, c, &[2]).unwrap(), 2);
        }
        // The cell's stats are the merge of its children's, in child order:
        // with these values any other order rounds the sum differently.
        let mut merged = RunningStats::new();
        for &c in &children {
            merged.merge(&exact_stats(&idx, c, 2).unwrap());
        }
        let got = exact_stats(&idx, TileId(0), 2).expect("pulled up");
        assert_eq!(got.sum().to_bits(), merged.sum().to_bits());
        assert_eq!(got, merged);
        assert_eq!(idx.tile(TileId(0)).meta.get(2).unwrap().nulls(), 1);
        idx.validate_invariants().unwrap();
    }

    #[test]
    fn a_leaf_grown_since_planning_keeps_its_folded_metadata() {
        let (f, mut idx) = quadrants();
        let cfg = adapt_cfg(
            SplitPolicy::Grid { rows: 2, cols: 2 },
            ReadPolicy::WindowOnly,
        );
        let q = Rect::new(0.0, 2.0, 0.0, 2.0);
        let children = process_tile(&mut idx, &f, TileId(0), &q, &[2], &cfg)
            .unwrap()
            .new_leaves;
        // Three children exact, the enrichment of the fourth planned — and
        // then a row lands in it before the plan applies.
        for &c in &children[..3] {
            enrich_tile(&mut idx, &f, c, &[2]).unwrap();
        }
        let last = children[3];
        let plan = plan_enrich(&idx, last, &[2]).unwrap();
        let values = f.read_rows(&plan.locators, &plan.read_attrs).unwrap();
        let p = idx.tile(last).rect.center();
        let row = vec![p.x, p.y, 1000.0];
        let receipt = f.append_rows(std::slice::from_ref(&row)).unwrap();
        let entry = crate::entry::ObjectEntry::new(p.x, p.y, receipt.locators[0]);
        assert_eq!(idx.ingest_entry(entry, &row).unwrap(), last);
        assert!(still_applies(&idx, last, plan.planned_version));

        // The plan read two of the leaf's three objects: the query it was
        // made for resolves from them, the leaf's metadata is not touched —
        // exact stats over two objects would be a lie about three, and the
        // cell above would take the lie for its own.
        assert_eq!(apply_enrich(&mut idx, &plan, values.values()).unwrap(), 2);
        assert_eq!(plan.resolved_stats(values.values()).unwrap()[0].count(), 2);
        assert_eq!(exact_stats(&idx, last, 2), None);
        assert_eq!(exact_stats(&idx, TileId(0), 2), None);
        idx.validate_invariants().unwrap();

        // The same for a whole-tile read that does not split.
        let no_split = adapt_cfg(SplitPolicy::NoSplit, ReadPolicy::FullTile);
        let slice = Rect::new(5.0, 10.0, 5.0, 9.5);
        let plan = plan_tile(&idx, last, &slice, &[2], &no_split).unwrap();
        let values = fetch(&f, &plan);
        let row = vec![p.x, p.y, -1000.0];
        let receipt = f.append_rows(std::slice::from_ref(&row)).unwrap();
        let entry = crate::entry::ObjectEntry::new(p.x, p.y, receipt.locators[0]);
        idx.ingest_entry(entry, &row).unwrap();
        let out = apply_plan(&mut idx, &plan, &slice, &no_split, values.values()).unwrap();
        assert_eq!((out.did_split, out.objects_read), (false, 3));
        assert_eq!(exact_stats(&idx, last, 2), None);
        idx.validate_invariants().unwrap();

        // A following exact query over the grown leaf covers it: its
        // enrichment reads all four of its objects and equals the scan; only
        // then is the cell exact.
        let window = idx.tile(last).rect;
        let c = idx.classify(&window);
        assert_eq!((c.full, c.partial.len()), (vec![last], 0));
        assert_eq!(enrich_tile(&mut idx, &f, last, &[2]).unwrap(), 4);
        let truth = &pai_storage::ground_truth::window_truth(&f, &window, &[2]).unwrap()[0];
        assert_eq!(idx.tile(last).object_count(), truth.selected);
        assert_eq!(
            exact_stats(&idx, last, 2).map(|s| s.sum()),
            Some(truth.stats.sum())
        );
        assert_eq!(
            exact_stats(&idx, TileId(0), 2).map(|s| s.count()),
            Some(9),
            "ten objects, one of them NULL"
        );
        idx.validate_invariants().unwrap();
    }

    #[test]
    fn plan_values_align_positionally() {
        // Fetched rows must line up with locators in request order — the
        // positional alignment that replaced per-object hashing.
        let (f, idx) = setup();
        let q = Rect::new(0.0, 30.0, 0.0, 30.0);
        let t = idx.leaf_for_point(Point2::new(25.0, 5.0)).unwrap();
        let cfg = adapt_cfg(SplitPolicy::NoSplit, ReadPolicy::FullTile);
        let plan = plan_tile(&idx, t, &q, &[2], &cfg).unwrap();
        assert_eq!(plan.locators.len(), 2);
        let values = f.read_rows(&plan.locators, &plan.read_attrs).unwrap();
        let stats = plan.in_window_stats(values.values()).unwrap();
        assert_eq!(stats[0].sum(), 130.0);
        assert_eq!(stats[0].count(), 2);
        // Wrong-shaped values are an error, not a misalignment: too few
        // rows, or rows of another width.
        assert!(plan.in_window_stats(values.rows(0..1)).is_err());
        let wide = f.read_rows(&plan.locators, &[2, 0]).unwrap();
        assert!(plan.in_window_stats(wide.values()).is_err());
    }

    #[test]
    fn process_non_leaf_is_error() {
        let (f, mut idx) = setup();
        let q = Rect::new(11.0, 15.0, 11.0, 16.0);
        let centre = idx.leaf_for_point(Point2::new(15.0, 15.0)).unwrap();
        let cfg = adapt_cfg(SplitPolicy::QueryAligned, ReadPolicy::WindowOnly);
        process_tile(&mut idx, &f, centre, &q, &[2], &cfg).unwrap();
        assert!(process_tile(&mut idx, &f, centre, &q, &[2], &cfg).is_err());
    }

    #[test]
    fn selected_count_matches_entries() {
        let (f, mut idx) = setup();
        let q = Rect::new(0.0, 30.0, 0.0, 30.0); // everything
        let t = idx.leaf_for_point(Point2::new(15.0, 15.0)).unwrap();
        let cfg = adapt_cfg(
            SplitPolicy::Grid { rows: 2, cols: 2 },
            ReadPolicy::WindowOnly,
        );
        let out = process_tile(&mut idx, &f, t, &q, &[2], &cfg).unwrap();
        assert_eq!(out.selected, 2);
        assert_eq!(out.in_window[0].count(), 2);
        assert_eq!(out.in_window[0].sum(), 90.0);
    }
}
