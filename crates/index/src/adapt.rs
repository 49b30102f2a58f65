//! Tile processing: the `process(t)` operation of the paper, split into a
//! **plan → fetch → apply** pipeline.
//!
//! Processing a leaf tile does everything the problem definition in §3.1
//! charges for: read the needed attribute values of the leaf's objects from
//! the raw file, and — when the query window cuts the leaf — split it into
//! subtiles (policy-driven), reorganize its entries, and compute metadata
//! for the new subtiles. A leaf the window covers is read, not split: its
//! objects give it exact metadata for the attributes it lacked, the "index
//! enrichment" of §2.2. Both are one operation in three separable stages:
//!
//! 1. [`plan_tile`] — **pure**, `&index` only: decides window membership
//!    and which locators/attributes must be read. It copies nothing of the
//!    leaf but the locators to fetch. Plans from several tiles can be
//!    fetched together in one batched read (`pai_storage::batch`), and
//!    planning never blocks concurrent readers.
//! 2. The caller fetches the plan's `locators`/`read_attrs` however it likes
//!    (single call, cross-tile batch).
//! 3. [`apply_plan`] — checked first by [`still_applies`], reads the leaf's
//!    entries as planned, installs the split, reorganized entries and
//!    subtile (or in-place) metadata, and returns the [`ProcessOutcome`]
//!    with the *exact* in-window statistics, so the engine can swap this
//!    tile's contribution from a bounded interval to an exact value.
//!
//! Both of the paper's methods drive these stages from one loop in
//! `pai-core`, which fetches the plans of several tiles together.

use pai_common::geometry::Rect;
use pai_common::{AttrId, PaiError, Result, RowLocator, RunningStats};

use crate::config::{AdaptConfig, ReadPolicy};
use crate::entry::ObjectEntry;
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
    /// Whether the tile was split.
    pub did_split: bool,
}

/// A pure refinement plan for one leaf tile: everything `process(t)` needs
/// to know *before* touching the raw file, computed against an immutable
/// index view.
///
/// The plan holds no copy of the leaf's entries: [`apply_plan`] reads the
/// first `planned_len` of them from the index, which [`still_applies`]
/// guarantees are the ones planned over.
#[derive(Debug, Clone)]
pub struct TilePlan {
    /// The planned tile.
    pub tile: TileId,
    /// Objects selected by the query inside this tile (`count(t∩Q)`).
    pub selected: u64,
    /// Locators to fetch, in entry order: every entry of a covered leaf
    /// (none when its metadata is already exact for the query), and of a
    /// cut leaf the selected entries under [`ReadPolicy::WindowOnly`],
    /// every entry under [`ReadPolicy::FullTile`].
    pub locators: Vec<RowLocator>,
    /// Attributes to read for each locator: a cut leaf's query attributes,
    /// or those a covered leaf's metadata lacks. Empty for COUNT-only
    /// queries, which charge no I/O.
    pub read_attrs: Vec<AttrId>,
    /// Index mutation counter at plan time (optimistic-concurrency stamp).
    pub planned_version: u64,
    /// The leaf's entry count at plan time.
    planned_len: usize,
    /// For each locator of a window-only read, the position of its entry
    /// in the leaf; empty when locator `i` is entry `i`.
    entry_of: Vec<u32>,
    /// Whether the window covers the leaf (such a leaf is never split).
    covered: bool,
    /// Per query attribute: the exact statistics a covered leaf's metadata
    /// held at plan time, or `None` for an attribute the fetch reads (the
    /// next column of `read_attrs`).
    known: Vec<Option<RunningStats>>,
}

impl TilePlan {
    /// The leaf entry a fetched row belongs to.
    fn entry_at(&self, row: usize) -> usize {
        self.entry_of.get(row).map_or(row, |&e| e as usize)
    }

    /// Exact in-window statistics for the query's attributes: the plan-time
    /// ones, and the fetched `values` (one row of `read_attrs` values per
    /// locator, in locator order) of the rows in the window. `entries` are
    /// the leaf's entries as planned; only a cut leaf read whole has rows
    /// outside the window to tell apart.
    pub(crate) fn in_window_stats(
        &self,
        entries: &[ObjectEntry],
        query: &Rect,
        values: &[f64],
    ) -> Result<Vec<RunningStats>> {
        let width = self.read_attrs.len();
        check_shape(self.tile, self.locators.len(), width, values)?;
        let all_in = self.covered || !self.entry_of.is_empty();
        let mut fold = ExactFold::new(width);
        for (row, vals) in rows_of(values, width).enumerate() {
            if all_in || entries[row].in_window(query) {
                fold.push(vals);
            }
        }
        let mut fetched = fold.stats.into_iter();
        Ok(self
            .known
            .iter()
            .map(|k| k.unwrap_or_else(|| fetched.next().expect("a column per unknown")))
            .collect())
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

/// Plans the processing of one leaf tile against `query` — the pure first
/// stage of `process(t)`.
///
/// `attrs` are the query's aggregate attributes. A leaf the window cuts
/// reads all of them, as much of the leaf as the [`AdaptConfig`]'s
/// [`ReadPolicy`] says; a leaf it covers reads every object, but only the
/// attributes its metadata has no exact statistics for.
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
    let entries = tile.entries();
    let covered = query.contains_rect(&tile.rect);
    let mut known = vec![None; attrs.len()];
    let (mut locators, mut entry_of, mut read_attrs) = (Vec::new(), Vec::new(), Vec::new());
    let mut selected = 0u64;
    if covered {
        // An empty leaf has nothing to read: its statistics are empty.
        for (k, &a) in known.iter_mut().zip(attrs) {
            *k = tile
                .meta
                .get(a)
                .and_then(AttrMeta::exact_stats)
                .copied()
                .or_else(|| entries.is_empty().then(RunningStats::new));
            if k.is_none() {
                read_attrs.push(a);
            }
        }
        selected = entries.len() as u64;
        if !read_attrs.is_empty() {
            locators = entries.iter().map(|e| e.locator).collect();
        }
    } else {
        read_attrs = attrs.to_vec();
        // One walk over the entries, a zone-map block at a time: window
        // membership (whole for a block inside or outside the window, entry
        // by entry where its edge crosses), and which objects to read from
        // the file, remembering each selected locator's entry so fetched
        // rows align back positionally.
        let whole_tile = cfg.read == ReadPolicy::FullTile;
        let mut i = 0u32;
        for (block, cover) in tile.blocks(query) {
            for e in block {
                let sel = match cover {
                    Cover::All => true,
                    Cover::None => false,
                    Cover::Some => e.in_window(query),
                };
                selected += u64::from(sel);
                if whole_tile {
                    locators.push(e.locator);
                } else if sel {
                    locators.push(e.locator);
                    entry_of.push(i);
                }
                i += 1;
            }
        }
    }
    Ok(TilePlan {
        tile: tile_id,
        selected,
        locators,
        read_attrs,
        planned_version: index.version(),
        planned_len: entries.len(),
        entry_of,
        covered,
        known,
    })
}

/// The optimistic-concurrency applicability check, in one place: a plan
/// computed at `planned_version` still applies if nothing changed since
/// planning, or if its tile is still a leaf. Concurrent writers call this
/// under the write lock immediately before [`apply_plan`]; a `false` means
/// another writer split the tile underneath the plan, which must then be
/// discarded (the region re-plans from the refined children).
///
/// What makes a leaf plan exact however late it applies: ingest only
/// appends entries to a leaf, and only a split takes any out of one. So
/// while the tile is a leaf, its first `planned_len` entries are the ones
/// planned over, in plan order, and [`apply_plan`] reads them from the
/// index rather than from a copy. A leaf an ingest *grew* since planning
/// still applies: the apply resolves the query from the fetched values and
/// installs no whole-tile statistics, which would miss the new rows.
pub fn still_applies(index: &ValinorIndex, tile: TileId, planned_version: u64) -> bool {
    index.version() == planned_version || index.tile(tile).is_leaf()
}

/// Applies a fetched plan: performs the split decision, reorganizes
/// entries, and installs subtile/in-place metadata — the mutation stage of
/// `process(t)`.
///
/// `values` must be the rows fetched for `plan.locators` (in order) with
/// `plan.read_attrs` as columns. The tile must still be a leaf: under
/// optimistic concurrency, check [`still_applies`] first and discard a
/// plan that no longer does.
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
    let grown = tile.entries().len() != plan.planned_len;
    let entries = &tile.entries()[..plan.planned_len];

    // Exact in-window statistics, from the positionally aligned rows.
    let stats = plan.in_window_stats(entries, query, values)?;

    // Split decision: worth it only for populous, still-divisible leaves
    // the window cuts, and made over the entries as planned.
    let splittable =
        !plan.covered && plan.planned_len as u64 >= cfg.min_split_objects && tile.depth < MAX_DEPTH;
    let rects = splittable
        .then(|| cfg.split.child_rects(&tile.rect, query, entries))
        .flatten()
        .filter(|rects| {
            rects.len() >= 2
                && rects
                    .iter()
                    .all(|r| r.width() >= MIN_TILE_EXTENT && r.height() >= MIN_TILE_EXTENT)
        });
    let (mut new_leaves, mut child_of) = (Vec::new(), Vec::new());
    if let Some(rects) = rects {
        (new_leaves, child_of) = index.split_leaf(plan.tile, rects)?;
    }

    let (width, did_split) = (plan.read_attrs.len(), !new_leaves.is_empty());
    if did_split {
        // Children whose entries were all read get exact metadata for the
        // read attributes; the rest keep the inherited bounds installed by
        // `split_leaf`. The split hands the entries out in order, so one walk
        // over them folds each child's rows in that child's entry order. An
        // entry ingested since planning has no row, like one not read.
        let mut row_of = vec![u32::MAX; plan.planned_len];
        for row in 0..plan.locators.len() {
            row_of[plan.entry_at(row)] = row as u32;
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
    } else if plan.locators.len() == plan.planned_len && plan.planned_len > 0 && !grown {
        // No split, but the whole leaf was read (a covered leaf, the
        // FullTile policy, or a window that happens to select every object):
        // exact metadata in place for the attributes read. Locators cover
        // every entry here, in entry order — unless an ingest grew the leaf
        // since planning, and then its metadata, which folded the new rows
        // in, is left alone.
        ExactFold::over(values, width).install(index, plan.tile, &plan.read_attrs);
    }

    Ok(ProcessOutcome {
        in_window: stats,
        did_split,
    })
}

/// The pushdown hint a fetch of `plans` may safely carry
/// ([`RawFile::read_rows_into`](pai_storage::raw::RawFile::read_rows_into)):
/// the query window when every locator of every plan is in it — under
/// [`ReadPolicy::WindowOnly`], or when every plan's leaf is covered — so a
/// zone-map skip can never touch a row whose value is consumed; nothing
/// when a cut leaf is read whole under [`ReadPolicy::FullTile`] (its
/// out-of-window rows feed child metadata and must be materialized, not
/// answered with NaN).
pub fn fetch_window<'q>(
    plans: &[TilePlan],
    cfg: &AdaptConfig,
    query: &'q Rect,
) -> Option<&'q Rect> {
    (cfg.read == ReadPolicy::WindowOnly || plans.iter().all(|p| p.covered)).then_some(query)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MetadataPolicy;
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
            metadata: MetadataPolicy::AllNumeric,
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

    /// The processing of one leaf under a window that covers it (its own
    /// rectangle). Returns the objects read (none when its stats were
    /// already exact).
    fn enrich_tile(
        idx: &mut ValinorIndex,
        f: &dyn RawFile,
        tile: TileId,
        attrs: &[AttrId],
    ) -> Result<u64> {
        let before = f.counters().objects_read();
        let q = idx.tile(tile).rect;
        let cfg = AdaptConfig::default();
        process_tile(idx, f, tile, &q, attrs, &cfg)?;
        Ok(f.counters().objects_read() - before)
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
        let plan = plan_tile(&idx, centre, &q, &[2], &cfg).unwrap();
        assert_eq!(plan.selected, 1);
        let out = apply_plan(&mut idx, &plan, &q, &cfg, fetch(&f, &plan).values()).unwrap();
        assert_eq!(
            f.counters().objects_read(),
            1,
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
        assert_eq!(
            f.counters().objects_read(),
            2,
            "full-tile reads all tile objects"
        );
        assert!(out.did_split);
        assert_eq!(out.in_window[0].sum(), 40.0, "only in-window rows answer");
        // Every non-empty child now has exact metadata.
        for &c in idx.tile(centre).children() {
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
        let children = idx.tile(t).children().to_vec();
        let mut exact_children = 0;
        let mut bounded_children = 0;
        for &c in &children {
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
        let bounded = children
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
            metadata: MetadataPolicy::AllNumeric,
        };
        let (mut idx, _) = build(&f, &init).unwrap();
        let q = Rect::new(0.0, 5.0, 0.0, 10.0);
        let cfg = adapt_cfg(SplitPolicy::QueryAligned, ReadPolicy::WindowOnly);
        // Two attributes, so rows are wider than one value.
        f.counters().reset();
        let out = process_tile(&mut idx, &f, TileId(0), &q, &[2, 0], &cfg).unwrap();
        assert!(out.did_split);
        assert_eq!(f.counters().objects_read(), 4);
        let (mut exact, mut bounded) = (0, 0);
        for &c in idx.tile(TileId(0)).children() {
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
        let cfg = adapt_cfg(SplitPolicy::NoSplit, ReadPolicy::WindowOnly);
        let plan = plan_tile(&idx, t, &q, &[2], &cfg).unwrap();
        assert_eq!(plan.selected, 2);
        let out = apply_plan(&mut idx, &plan, &q, &cfg, fetch(&f, &plan).values()).unwrap();
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
        assert!(idx.tile(t).is_leaf(), "a covered leaf is read, not split");
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
        let mut oneshot = idx.clone();
        let want = process_tile(&mut oneshot, &f, centre, &q, &[2], &cfg).unwrap();

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
        assert_eq!(plan.locators.len(), 1);
        assert_eq!(plan.read_attrs, vec![2]);

        let values = fetch(&f, &plan);
        let out = apply_plan(&mut idx, &plan, &q, &cfg, values.values()).unwrap();
        assert_eq!(out.in_window, want.in_window);
        assert_eq!(out.in_window[0].sum(), 40.0);
        assert!(out.did_split);
        assert!(idx.version() > version_before, "apply bumps the version");
        assert_eq!(idx.leaf_count(), oneshot.leaf_count());
        idx.validate_invariants().unwrap();
    }

    #[test]
    fn stale_plan_apply_is_rejected() {
        let (f, mut idx) = setup();
        let q = Rect::new(11.0, 15.0, 11.0, 16.0);
        let centre = idx.leaf_for_point(Point2::new(15.0, 15.0)).unwrap();
        let cfg = adapt_cfg(SplitPolicy::QueryAligned, ReadPolicy::WindowOnly);
        let plan = plan_tile(&idx, centre, &q, &[2], &cfg).unwrap();
        let values = fetch(&f, &plan);
        // Another writer splits the tile between plan and apply.
        process_tile(&mut idx, &f, centre, &q, &[2], &cfg).unwrap();
        assert!(!still_applies(&idx, plan.tile, plan.planned_version));
        let err = apply_plan(&mut idx, &plan, &q, &cfg, values.values()).unwrap_err();
        assert!(err.to_string().contains("non-leaf"), "{err}");
    }

    #[test]
    fn enrich_plan_resolves_from_snapshot_and_fetch() {
        let (f, mut idx) = setup();
        let t = idx.leaf_for_point(Point2::new(25.0, 5.0)).unwrap();
        let q = idx.tile(t).rect;
        let cfg = adapt_cfg(SplitPolicy::QueryAligned, ReadPolicy::WindowOnly);
        // Attr 2 already exact from init metadata; plan over it is free.
        let free = plan_tile(&idx, t, &q, &[2], &cfg).unwrap();
        assert!(free.locators.is_empty() && free.read_attrs.is_empty());
        let out = apply_plan(&mut idx, &free, &q, &cfg, &[]).unwrap();
        assert_eq!(out.in_window[0].sum(), 130.0, "snapshot path");

        // Wipe metadata: the plan now fetches, and apply installs it.
        idx.tile_mut(t).meta = crate::metadata::TileMetadata::new(3);
        let plan = plan_tile(&idx, t, &q, &[2], &cfg).unwrap();
        assert_eq!((plan.locators.len(), plan.read_attrs.clone()), (2, vec![2]));
        let values = fetch(&f, &plan);
        let out = apply_plan(&mut idx, &plan, &q, &cfg, values.values()).unwrap();
        assert!(!out.did_split);
        assert!(idx.tile(t).meta.has_exact(2));
        assert_eq!(
            Some(&out.in_window[0]),
            idx.tile(t).meta.get(2).unwrap().exact_stats(),
            "the query's statistics equal the installed metadata"
        );
    }

    /// A one-cell index over eight objects, two a quadrant, and its
    /// appendable file, with columns 2 and 3 both carrying the values.
    fn quadrants_with(
        metadata: MetadataPolicy,
    ) -> (pai_storage::AppendableFile<MemFile>, ValinorIndex) {
        let vals = [1e16, 3.0, -1e16, 5.0, 0.1, f64::NAN, 0.2, 7.0];
        let at = [1.0, 6.0, 3.0, 8.0];
        let rows: Vec<Vec<f64>> = (0..8)
            .map(|i| vec![at[i % 4], at[(i / 2) % 4], vals[i], vals[7 - i]])
            .collect();
        let base = MemFile::from_rows(Schema::synthetic(4), CsvFormat::default(), rows).unwrap();
        let file = pai_storage::AppendableFile::new(base).unwrap();
        let init = InitConfig {
            grid: GridSpec::Fixed { nx: 1, ny: 1 },
            domain: Some(Rect::new(0.0, 10.0, 0.0, 10.0)),
            metadata,
        };
        let (idx, _) = build(&file, &init).unwrap();
        (file, idx)
    }

    fn quadrants() -> (pai_storage::AppendableFile<MemFile>, ValinorIndex) {
        quadrants_with(MetadataPolicy::None)
    }

    /// Appends one row at `p` with `value` in both value columns, and
    /// ingests it into the index.
    fn ingest_at(
        f: &pai_storage::AppendableFile<MemFile>,
        idx: &mut ValinorIndex,
        p: Point2,
        value: f64,
    ) -> TileId {
        let row = vec![p.x, p.y, value, value];
        let receipt = f.append_rows(std::slice::from_ref(&row)).unwrap();
        let entry = crate::entry::ObjectEntry::new(p.x, p.y, receipt.locators[0]);
        idx.ingest_entry(entry, &row).unwrap()
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
        f.counters().reset();
        let out = process_tile(&mut idx, &f, TileId(0), &q, &[2], &cfg).unwrap();
        assert!(out.did_split);
        assert_eq!(f.counters().objects_read(), 1);
        let children = idx.tile(TileId(0)).children().to_vec();
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
    fn a_covered_leaf_is_never_split_and_reads_only_what_it_lacks() {
        for split in [
            SplitPolicy::Grid { rows: 2, cols: 2 },
            SplitPolicy::KdMedian,
        ] {
            let (f, mut idx) = quadrants();
            let cfg = adapt_cfg(split, ReadPolicy::WindowOnly);
            let q = Rect::new(0.0, 10.0, 0.0, 10.0);
            // A query over attribute 2 makes the leaf exact for it alone...
            let out = process_tile(&mut idx, &f, TileId(0), &q, &[2], &cfg).unwrap();
            assert!(!out.did_split, "{split:?}");
            assert!(idx.tile(TileId(0)).is_leaf(), "{split:?}");
            assert_eq!(exact_stats(&idx, TileId(0), 3), None);
            let first = exact_stats(&idx, TileId(0), 2).expect("read whole");

            // ...and one over both then reads only attribute 3.
            let plan = plan_tile(&idx, TileId(0), &q, &[3, 2], &cfg).unwrap();
            assert_eq!((plan.locators.len(), plan.read_attrs.clone()), (8, vec![3]));
            f.counters().reset();
            let values = fetch(&f, &plan);
            let out = apply_plan(&mut idx, &plan, &q, &cfg, values.values()).unwrap();
            assert_eq!(f.counters().objects_read(), 8);
            assert!(!out.did_split, "{split:?}");
            assert!(idx.tile(TileId(0)).is_leaf(), "{split:?}");
            let third = exact_stats(&idx, TileId(0), 3).expect("enriched");
            assert_eq!(out.in_window, vec![third, first]);
            let truth = pai_storage::ground_truth::window_truth(&f, &q, &[3]).unwrap();
            assert_eq!(third.sum().to_bits(), truth[0].stats.sum().to_bits());
            idx.validate_invariants().unwrap();
        }
    }

    #[test]
    fn a_split_after_an_ingest_cuts_at_the_planned_median() {
        // Read whole, the leaf's eight entries have x median 6; the row
        // ingested at x = 0.5 between plan and apply would move it to 3.
        let (f, mut idx) = quadrants_with(MetadataPolicy::AllNumeric);
        let cfg = adapt_cfg(SplitPolicy::KdMedian, ReadPolicy::FullTile);
        let q = Rect::new(0.0, 2.0, 0.0, 2.0);
        let plan = plan_tile(&idx, TileId(0), &q, &[2], &cfg).unwrap();
        let values = fetch(&f, &plan);
        assert_eq!(
            ingest_at(&f, &mut idx, Point2::new(0.5, 0.5), 1000.0),
            TileId(0)
        );
        assert!(still_applies(&idx, plan.tile, plan.planned_version));

        let out = apply_plan(&mut idx, &plan, &q, &cfg, values.values()).unwrap();
        assert!(out.did_split);
        assert_eq!(out.in_window[0].count(), 1, "the planned rows answer");
        let children = idx.tile(TileId(0)).children().to_vec();
        assert_eq!(idx.tile(children[0]).rect.x_max, 6.0, "the planned median");
        // The child that took the ingested entry has no row for it: it keeps
        // the bounds the ingest folded the value into. The other is exact.
        let (grown, whole) = (idx.tile(children[0]), idx.tile(children[1]));
        assert_eq!((grown.object_count(), whole.object_count()), (5, 4));
        assert!(!grown.meta.has_exact(2));
        let bounds = grown.meta.get(2).unwrap().value_bounds().unwrap();
        assert!(bounds.contains(1000.0), "{bounds:?}");
        let locs: Vec<RowLocator> = whole.entries().iter().map(|e| e.locator).collect();
        let own: Vec<f64> = f
            .read_rows(&locs, &[2])
            .unwrap()
            .iter()
            .map(|r| r[0])
            .collect();
        assert_eq!(whole.meta.get(2), Some(&AttrMeta::exact_from_values(&own)));
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
        process_tile(&mut idx, &f, TileId(0), &q, &[2], &cfg).unwrap();
        let children = idx.tile(TileId(0)).children().to_vec();
        // Three children exact, the enrichment of the fourth planned — and
        // then a row lands in it before the plan applies.
        for &c in &children[..3] {
            enrich_tile(&mut idx, &f, c, &[2]).unwrap();
        }
        let last = children[3];
        let window = idx.tile(last).rect;
        let plan = plan_tile(&idx, last, &window, &[2], &cfg).unwrap();
        let values = fetch(&f, &plan);
        let p = window.center();
        assert_eq!(ingest_at(&f, &mut idx, p, 1000.0), last);
        assert!(still_applies(&idx, last, plan.planned_version));

        // The plan read two of the leaf's three objects: the query it was
        // made for resolves from them, the leaf's metadata is not touched —
        // exact stats over two objects would be a lie about three, and the
        // cell above would take the lie for its own.
        let out = apply_plan(&mut idx, &plan, &window, &cfg, values.values()).unwrap();
        assert_eq!(plan.locators.len(), 2);
        assert_eq!(out.in_window[0].count(), 2);
        assert_eq!(exact_stats(&idx, last, 2), None);
        assert_eq!(exact_stats(&idx, TileId(0), 2), None);
        idx.validate_invariants().unwrap();

        // The same for a whole-tile read that does not split.
        let no_split = adapt_cfg(SplitPolicy::NoSplit, ReadPolicy::FullTile);
        let slice = Rect::new(5.0, 10.0, 5.0, 9.5);
        let plan = plan_tile(&idx, last, &slice, &[2], &no_split).unwrap();
        let values = fetch(&f, &plan);
        ingest_at(&f, &mut idx, p, -1000.0);
        let out = apply_plan(&mut idx, &plan, &slice, &no_split, values.values()).unwrap();
        assert_eq!((out.did_split, plan.locators.len()), (false, 3));
        assert_eq!(exact_stats(&idx, last, 2), None);
        idx.validate_invariants().unwrap();

        // A following exact query over the grown leaf covers it: its
        // enrichment reads all four of its objects and equals the scan; only
        // then is the cell exact.
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
        let mut wiped = idx.clone();
        wiped.tile_mut(t).meta = crate::metadata::TileMetadata::new(3);
        let plan = plan_tile(&wiped, t, &q, &[2], &cfg).unwrap();
        assert_eq!(plan.locators.len(), 2);
        let values = f.read_rows(&plan.locators, &plan.read_attrs).unwrap();
        let out = apply_plan(&mut wiped.clone(), &plan, &q, &cfg, values.values()).unwrap();
        assert_eq!(out.in_window[0].sum(), 130.0);
        assert_eq!(out.in_window[0].count(), 2);
        // Wrong-shaped values are an error, not a misalignment: too few
        // rows, or rows of another width.
        let apply = |values: &[f64]| apply_plan(&mut wiped.clone(), &plan, &q, &cfg, values);
        assert!(apply(values.rows(0..1)).is_err());
        let wide = f.read_rows(&plan.locators, &[2, 0]).unwrap();
        assert!(apply(wide.values()).is_err());
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
        let plan = plan_tile(&idx, t, &q, &[2], &cfg).unwrap();
        assert_eq!(plan.selected, 2);
        let out = apply_plan(&mut idx, &plan, &q, &cfg, fetch(&f, &plan).values()).unwrap();
        assert_eq!(out.in_window[0].count(), 2);
        assert_eq!(out.in_window[0].sum(), 90.0);
    }
}
