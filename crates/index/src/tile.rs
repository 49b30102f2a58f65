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
//! hierarchy"). A leaf's entries carry a zone map ([`Leaf`]), one bounding box
//! per [`ZONE`] entries, so counting what a window selects in a leaf it cuts
//! tests entries one by one only in the blocks the window's edge crosses.

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

/// Entries per zone-map block: a leaf's zone map holds one bounding box for
/// each run of `ZONE` consecutive entries (the last run may be shorter).
pub const ZONE: usize = 64;

/// The fewest entries a leaf keeps a zone map for. Below two blocks the boxes
/// cost more to test than the entries they stand for.
pub const ZONE_MIN_ENTRIES: usize = 2 * ZONE;

/// The bounding box of one block of a leaf's entries, in `f32` rounded
/// outward: `x_lo` is at most every entry's `x` and `x_hi` at least every
/// one, compared as `f64` (likewise for `y`), so the box tests of
/// [`ZoneBox::cover`] stay exact claims about the `f64` entries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZoneBox {
    x_lo: f32,
    x_hi: f32,
    y_lo: f32,
    y_hi: f32,
}

/// How a window meets one block of a leaf's entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cover {
    /// Every entry of the block is in the window.
    All,
    /// No entry of the block is.
    None,
    /// The window's edge may cross the block: test its entries one by one.
    Some,
}

/// The largest `f32` not above `v`.
fn f32_below(v: f64) -> f32 {
    let r = v as f32;
    if f64::from(r) > v {
        r.next_down()
    } else {
        r
    }
}

/// The smallest `f32` not below `v`.
fn f32_above(v: f64) -> f32 {
    let r = v as f32;
    if f64::from(r) < v {
        r.next_up()
    } else {
        r
    }
}

impl ZoneBox {
    /// The box of a non-empty block. Entries never hold NaN (they lie in
    /// their leaf's rectangle), so plain comparisons see every coordinate;
    /// they build a 1 M-entry index's boxes in about two thirds of the time
    /// `f64::min` and `f64::max` take, whose NaN handling is not needed here.
    fn of(block: &[ObjectEntry]) -> Self {
        let (mut x_lo, mut x_hi) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut y_lo, mut y_hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for e in block {
            x_lo = if e.x < x_lo { e.x } else { x_lo };
            x_hi = if e.x > x_hi { e.x } else { x_hi };
            y_lo = if e.y < y_lo { e.y } else { y_lo };
            y_hi = if e.y > y_hi { e.y } else { y_hi };
        }
        ZoneBox {
            x_lo: f32_below(x_lo),
            x_hi: f32_above(x_hi),
            y_lo: f32_below(y_lo),
            y_hi: f32_above(y_hi),
        }
    }

    /// Widens the box to hold `e`.
    fn widen(&mut self, e: &ObjectEntry) {
        let other = ZoneBox::of(std::slice::from_ref(e));
        self.x_lo = self.x_lo.min(other.x_lo);
        self.x_hi = self.x_hi.max(other.x_hi);
        self.y_lo = self.y_lo.min(other.y_lo);
        self.y_hi = self.y_hi.max(other.y_hi);
    }

    /// Whether `e` lies inside the box (closed).
    fn holds(&self, e: &ObjectEntry) -> bool {
        f64::from(self.x_lo) <= e.x
            && e.x <= f64::from(self.x_hi)
            && f64::from(self.y_lo) <= e.y
            && e.y <= f64::from(self.y_hi)
    }

    /// How the half-open `window` meets the entries this box bounds.
    #[inline]
    pub fn cover(&self, window: &Rect) -> Cover {
        let (x_lo, x_hi) = (f64::from(self.x_lo), f64::from(self.x_hi));
        let (y_lo, y_hi) = (f64::from(self.y_lo), f64::from(self.y_hi));
        if window.x_min <= x_lo
            && x_hi < window.x_max
            && window.y_min <= y_lo
            && y_hi < window.y_max
        {
            Cover::All
        } else if x_hi < window.x_min
            || x_lo >= window.x_max
            || y_hi < window.y_min
            || y_lo >= window.y_max
        {
            Cover::None
        } else {
            Cover::Some
        }
    }
}

/// A leaf's object entries and their zone map.
///
/// The zone map is empty below [`ZONE_MIN_ENTRIES`] entries; from there on it
/// holds one [`ZoneBox`] per block of [`ZONE`] entries, in entry order. Every
/// change to the entries goes through here, so the two never disagree.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Leaf {
    entries: Vec<ObjectEntry>,
    zones: Vec<ZoneBox>,
}

/// The zone map of a leaf holding `entries`: none below
/// [`ZONE_MIN_ENTRIES`], else one box per block of [`ZONE`].
pub(crate) fn zones_of(entries: &[ObjectEntry]) -> Vec<ZoneBox> {
    if entries.len() < ZONE_MIN_ENTRIES {
        Vec::new()
    } else {
        entries.chunks(ZONE).map(ZoneBox::of).collect()
    }
}

impl Leaf {
    /// A leaf holding `entries`, in order, with its zone map built.
    pub fn from_entries(entries: Vec<ObjectEntry>) -> Self {
        let zones = zones_of(&entries);
        Leaf { entries, zones }
    }

    /// A leaf from `entries` and the zone map [`zones_of`] built over them
    /// elsewhere (the build makes the maps of its cells on several threads).
    pub(crate) fn from_parts(entries: Vec<ObjectEntry>, zones: Vec<ZoneBox>) -> Self {
        debug_assert!(zones == zones_of(&entries), "a zone map of other entries");
        Leaf { entries, zones }
    }

    pub fn entries(&self) -> &[ObjectEntry] {
        &self.entries
    }

    pub(crate) fn into_entries(self) -> Vec<ObjectEntry> {
        self.entries
    }

    /// One box per block of [`ZONE`] entries; empty below
    /// [`ZONE_MIN_ENTRIES`] entries.
    pub fn zones(&self) -> &[ZoneBox] {
        &self.zones
    }

    /// Appends one entry: it widens the last box or opens a new one, and the
    /// entry that brings the leaf to [`ZONE_MIN_ENTRIES`] builds the map.
    pub(crate) fn push(&mut self, e: ObjectEntry) {
        self.entries.push(e);
        let n = self.entries.len();
        if n == ZONE_MIN_ENTRIES {
            self.zones = zones_of(&self.entries);
        } else if n > ZONE_MIN_ENTRIES {
            match self.zones.last_mut() {
                Some(last) if !(n - 1).is_multiple_of(ZONE) => last.widen(&e),
                _ => self.zones.push(ZoneBox::of(std::slice::from_ref(&e))),
            }
        }
    }

    /// The entries in blocks, each with how `window` meets it: the blocks of
    /// the zone map, or the whole leaf as one block to test entry by entry.
    pub fn blocks<'a>(
        &'a self,
        window: &'a Rect,
    ) -> impl Iterator<Item = (&'a [ObjectEntry], Cover)> + 'a {
        let size = if self.zones.is_empty() {
            self.entries.len().max(1)
        } else {
            ZONE
        };
        self.entries
            .chunks(size)
            .enumerate()
            .map(move |(i, block)| {
                let cover = self.zones.get(i).map_or(Cover::Some, |z| z.cover(window));
                (block, cover)
            })
    }

    /// Checks the zone map against the entries: the box count, and every
    /// entry inside its block's box.
    pub(crate) fn check_zones(&self) -> std::result::Result<(), String> {
        let n = self.entries.len();
        let want = if n < ZONE_MIN_ENTRIES {
            0
        } else {
            n.div_ceil(ZONE)
        };
        if self.zones.len() != want {
            return Err(format!(
                "{n} entries carry {} zone boxes, expected {want}",
                self.zones.len()
            ));
        }
        for (b, (block, zone)) in self.entries.chunks(ZONE).zip(&self.zones).enumerate() {
            if let Some(e) = block.iter().find(|e| !zone.holds(e)) {
                return Err(format!("entry {e:?} escapes the box {zone:?} of block {b}"));
            }
        }
        Ok(())
    }

    #[cfg(test)]
    pub(crate) fn zones_mut(&mut self) -> &mut Vec<ZoneBox> {
        &mut self.zones
    }
}

/// Leaf payload or children of a tile.
#[derive(Debug, Clone, PartialEq)]
pub enum TileState {
    /// A leaf holding object entries.
    Leaf(Leaf),
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
            state: TileState::Leaf(Leaf::default()),
            meta: TileMetadata::new(n_columns),
            depth,
            parent: None,
        }
    }

    pub fn is_leaf(&self) -> bool {
        matches!(self.state, TileState::Leaf(_))
    }

    /// Entries of a leaf; empty slice for inner tiles.
    pub fn entries(&self) -> &[ObjectEntry] {
        match &self.state {
            TileState::Leaf(leaf) => leaf.entries(),
            TileState::Inner { .. } => &[],
        }
    }

    /// Number of objects in this tile: a leaf's entries, or every object in
    /// the leaves below an inner tile.
    pub fn object_count(&self) -> u64 {
        match &self.state {
            TileState::Leaf(leaf) => leaf.entries().len() as u64,
            TileState::Inner { count, .. } => *count,
        }
    }

    /// Children of an inner tile; empty slice for leaves.
    pub fn children(&self) -> &[TileId] {
        match &self.state {
            TileState::Inner { children, .. } => children,
            TileState::Leaf(_) => &[],
        }
    }

    /// A leaf's entries in blocks with how `window` meets each
    /// ([`Leaf::blocks`]); nothing for inner tiles.
    pub fn blocks<'a>(
        &'a self,
        window: &'a Rect,
    ) -> impl Iterator<Item = (&'a [ObjectEntry], Cover)> + 'a {
        match &self.state {
            TileState::Leaf(leaf) => Some(leaf.blocks(window)),
            TileState::Inner { .. } => None,
        }
        .into_iter()
        .flatten()
    }

    /// Number of entries selected by `window` (the paper's `count(t∩Q)`),
    /// computed purely from the axis values held in the index: a block of the
    /// zone map inside the window counts whole, one outside not at all, and
    /// only the blocks its edge crosses are counted entry by entry.
    pub fn selected_count(&self, window: &Rect) -> u64 {
        self.blocks(window)
            .map(|(block, cover)| match cover {
                Cover::All => block.len(),
                Cover::None => 0,
                Cover::Some => block.iter().filter(|e| e.in_window(window)).count(),
            })
            .sum::<usize>() as u64
    }

    /// Raw-file locators of the entries selected by `window`, in entry order.
    pub fn selected_locators(&self, window: &Rect) -> Vec<RowLocator> {
        let mut out = Vec::new();
        for (block, cover) in self.blocks(window) {
            match cover {
                Cover::All => out.extend(block.iter().map(|e| e.locator)),
                Cover::None => {}
                Cover::Some => out.extend(
                    block
                        .iter()
                        .filter(|e| e.in_window(window))
                        .map(|e| e.locator),
                ),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapt::plan_tile;
    use crate::config::{AdaptConfig, ReadPolicy};
    use crate::index::ValinorIndex;
    use pai_storage::Schema;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn leaf_with_points(points: &[(f64, f64)]) -> Tile {
        let mut t = Tile::leaf(Rect::new(0.0, 10.0, 0.0, 10.0), 3, 0);
        t.state = TileState::Leaf(Leaf::from_entries(entries_of(points)));
        t
    }

    fn entries_of(points: &[(f64, f64)]) -> Vec<ObjectEntry> {
        points
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| ObjectEntry::new(x, y, RowLocator::new(i as u64 * 100)))
            .collect()
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
        assert_eq!(t.blocks(&t.rect).count(), 0);
    }

    #[test]
    fn tile_id_round_trip() {
        assert_eq!(TileId(7).index(), 7);
    }

    #[test]
    fn outward_rounding_brackets_the_value() {
        for v in [
            0.1,
            -0.1,
            1.0 / 3.0,
            1e-300,
            -1e-300,
            1e300,
            -1e300,
            0.0,
            1000.0,
        ] {
            assert!(f64::from(f32_below(v)) <= v, "{v}");
            assert!(f64::from(f32_above(v)) >= v, "{v}");
        }
        assert_eq!(f32_below(0.5), 0.5);
        assert_eq!(f32_above(0.5), 0.5);
    }

    #[test]
    fn zone_map_starts_at_two_blocks_and_follows_appends() {
        let points: Vec<(f64, f64)> = (0..300).map(|i| (i as f64, (i % 7) as f64)).collect();
        let mut leaf = Leaf::default();
        for (n, e) in entries_of(&points).into_iter().enumerate() {
            leaf.push(e);
            let want = if n + 1 < ZONE_MIN_ENTRIES {
                0
            } else {
                (n + 1).div_ceil(ZONE)
            };
            assert_eq!(leaf.zones().len(), want, "after {} entries", n + 1);
            leaf.check_zones().unwrap();
        }
        assert_eq!(leaf, Leaf::from_entries(entries_of(&points)));
    }

    // -- the zone map against the linear filter --------------------------------

    /// The domain of the property test's index; entries on its max edges are
    /// in the index (closed) but never in a window ending there (half-open).
    fn domain() -> Rect {
        Rect::new(0.0, 1000.0, 0.0, 1000.0)
    }

    #[derive(Debug, Clone, Copy)]
    enum Layout {
        /// Uniform points in a random order.
        Shuffled,
        /// Uniform points sorted along a Z curve: tight boxes.
        ZOrdered,
        /// One point, repeated.
        AllEqual,
        /// A few `f32` anchors, each with points a couple of `f64` ulps to
        /// either side: coordinates `f32` cannot hold, in tight blocks.
        Unrepresentable,
        /// Uniform points, a share of them on the domain's max edges.
        OnMaxEdge,
    }

    const LAYOUTS: [Layout; 5] = [
        Layout::Shuffled,
        Layout::ZOrdered,
        Layout::AllEqual,
        Layout::Unrepresentable,
        Layout::OnMaxEdge,
    ];

    fn step_ulps(v: f64, k: i32) -> f64 {
        (0..k.abs()).fold(v, |v, _| if k > 0 { v.next_up() } else { v.next_down() })
    }

    /// A uniform step in `-k..=k` (the generator samples unsigned ranges).
    fn offset(rng: &mut StdRng, k: u32) -> i32 {
        rng.gen_range(0..=2 * k) as i32 - k as i32
    }

    fn morton(x: f64, y: f64) -> u64 {
        let spread = |v: f64| {
            let q = (v / 1000.0 * 65535.0) as u64;
            (0..16).fold(0u64, |acc, b| acc | ((q >> b) & 1) << (2 * b))
        };
        spread(x) | spread(y) << 1
    }

    fn points(rng: &mut StdRng, layout: Layout, n: usize) -> Vec<(f64, f64)> {
        let uniform = |rng: &mut StdRng| (rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0));
        match layout {
            Layout::Shuffled => (0..n).map(|_| uniform(rng)).collect(),
            Layout::ZOrdered => {
                let mut pts: Vec<(f64, f64)> = (0..n).map(|_| uniform(rng)).collect();
                pts.sort_by_key(|&(x, y)| morton(x, y));
                pts
            }
            Layout::AllEqual => vec![uniform(rng); n],
            Layout::Unrepresentable => {
                let anchors: Vec<(f64, f64)> = (0..3)
                    .map(|_| {
                        let (x, y) = uniform(rng);
                        (f64::from(x as f32), f64::from(y as f32))
                    })
                    .collect();
                (0..n)
                    .map(|i| {
                        let (x, y) = anchors[i * anchors.len() / n.max(1)];
                        (step_ulps(x, offset(rng, 2)), step_ulps(y, offset(rng, 2)))
                    })
                    .collect()
            }
            Layout::OnMaxEdge => (0..n)
                .map(|_| {
                    let (x, y) = uniform(rng);
                    match rng.gen_range(0..4) {
                        0 => (1000.0, y),
                        1 => (x, 1000.0),
                        2 => (1000.0, 1000.0),
                        _ => (x, y),
                    }
                })
                .collect(),
        }
    }

    /// Windows for one leaf: random ones, ones whose edges lie exactly on
    /// entry coordinates or one `f64` ulp to either side, and empty ones.
    fn windows(rng: &mut StdRng, entries: &[ObjectEntry]) -> Vec<Rect> {
        let span = |a: f64, b: f64| (a.min(b), a.max(b));
        let mut out = Vec::new();
        for _ in 0..8 {
            let (x0, x1) = span(rng.gen_range(-50.0..1050.0), rng.gen_range(-50.0..1050.0));
            let (y0, y1) = span(rng.gen_range(-50.0..1050.0), rng.gen_range(-50.0..1050.0));
            out.push(Rect::new(x0, x1, y0, y1));
        }
        if entries.is_empty() {
            return out;
        }
        let pick = |rng: &mut StdRng| entries[rng.gen_range(0..entries.len())];
        for _ in 0..16 {
            let (a, b) = (pick(rng), pick(rng));
            let (kx0, kx1, ky0, ky1) = (
                offset(rng, 1),
                offset(rng, 1),
                offset(rng, 1),
                offset(rng, 1),
            );
            let (x0, x1) = span(step_ulps(a.x, kx0), step_ulps(b.x, kx1));
            let (y0, y1) = span(step_ulps(a.y, ky0), step_ulps(b.y, ky1));
            out.push(Rect::new(x0, x1, y0, y1));
            // The same edges around a far corner: one edge on an entry, the
            // other past the data, so whole blocks fall inside.
            out.push(Rect::new(x0, 2000.0, y0, 2000.0));
            out.push(Rect::new(-1000.0, x1, -1000.0, y1));
        }
        let e = pick(rng);
        out.push(Rect::new(e.x, e.x, e.y, e.y));
        out.push(Rect::new(e.x, e.x, -1000.0, 2000.0));
        out
    }

    /// The zone map's answers for `window` over `tile` are the linear
    /// filter's, exactly: the count, the locators, and a plan's membership.
    fn assert_matches_linear(index: &ValinorIndex, id: TileId, window: &Rect) {
        let tile = index.tile(id);
        let picked: Vec<&ObjectEntry> = tile
            .entries()
            .iter()
            .filter(|e| e.in_window(window))
            .collect();
        let locators: Vec<RowLocator> = picked.iter().map(|e| e.locator).collect();
        let ctx = || {
            format!(
                "tile {id:?} ({} entries), window {window}",
                tile.entries().len()
            )
        };
        assert_eq!(
            tile.selected_count(window),
            picked.len() as u64,
            "{}",
            ctx()
        );
        assert_eq!(tile.selected_locators(window), locators, "{}", ctx());

        // A plan of a leaf the window covers takes every entry, as
        // `classify` counts a covered tile whole: the zone map is not asked.
        if window.contains_rect(&tile.rect) {
            return;
        }
        for read in [ReadPolicy::WindowOnly, ReadPolicy::FullTile] {
            let cfg = AdaptConfig {
                read,
                ..AdaptConfig::default()
            };
            let plan = plan_tile(index, id, window, &[2], &cfg).unwrap();
            assert_eq!(plan.selected, picked.len() as u64, "{}", ctx());
            // A row's value is its entry's position: the in-window statistics
            // name exactly the entries the plan holds in the window.
            let values: Vec<f64> = match read {
                ReadPolicy::WindowOnly => {
                    assert_eq!(plan.locators, locators, "{}", ctx());
                    tile.entries()
                        .iter()
                        .enumerate()
                        .filter(|(_, e)| e.in_window(window))
                        .map(|(i, _)| i as f64)
                        .collect()
                }
                ReadPolicy::FullTile => (0..tile.entries().len()).map(|i| i as f64).collect(),
            };
            let mut want = pai_common::RunningStats::new();
            for (i, e) in tile.entries().iter().enumerate() {
                if e.in_window(window) {
                    want.push(i as f64);
                }
            }
            let got = plan
                .in_window_stats(tile.entries(), window, &values)
                .unwrap()[0];
            assert_eq!(
                (got.count(), got.sum().to_bits()),
                (want.count(), want.sum().to_bits()),
                "{}",
                ctx()
            );
        }
    }

    /// Checks every leaf against the linear filter; tallies the blocks met
    /// as [`Cover::All`], [`Cover::None`] and [`Cover::Some`] into `seen`.
    fn assert_all_leaves_match(index: &ValinorIndex, rng: &mut StdRng, seen: &mut [usize; 3]) {
        index.validate_invariants().unwrap();
        for id in index.leaves_overlapping(&domain()) {
            for w in windows(rng, index.tile(id).entries()) {
                assert_matches_linear(index, id, &w);
                for (_, cover) in index.tile(id).blocks(&w) {
                    seen[cover as usize] += 1;
                }
            }
        }
    }

    /// Counting by zone map equals the linear filter on every layout, for
    /// random windows, windows with edges on (and one ulp beside) entry
    /// coordinates, and empty windows — as built, after a split into four,
    /// and after appends that leave last blocks part full.
    #[test]
    fn zone_map_counts_equal_the_linear_filter() {
        let mut rng = StdRng::seed_from_u64(0x2046);
        let mut seen = [0usize; 3];
        for case in 0..60 {
            let layout = LAYOUTS[case % LAYOUTS.len()];
            let n = match case % 4 {
                0 => rng.gen_range(0..ZONE_MIN_ENTRIES),
                1 => ZONE_MIN_ENTRIES + rng.gen_range(0..2),
                _ => rng.gen_range(ZONE_MIN_ENTRIES..1200),
            };
            let mut index = ValinorIndex::new(Schema::synthetic(3), domain(), 1, 1).unwrap();
            index.install_cell(
                0,
                Leaf::from_entries(entries_of(&points(&mut rng, layout, n))),
            );
            assert_all_leaves_match(&index, &mut rng, &mut seen);

            // Split into four quadrants, each a leaf of its own zone map.
            let root = index.root_tile(0);
            let centre = rng.gen_range(300.0..700.0);
            let quads = vec![
                Rect::new(0.0, centre, 0.0, centre),
                Rect::new(centre, 1000.0, 0.0, centre),
                Rect::new(0.0, centre, centre, 1000.0),
                Rect::new(centre, 1000.0, centre, 1000.0),
            ];
            index.split_leaf(root, quads).unwrap();
            assert_all_leaves_match(&index, &mut rng, &mut seen);

            // Appends through ingest: one more block's worth and a part.
            let extra = ZONE + 1 + rng.gen_range(0..ZONE - 2);
            for (i, (x, y)) in points(&mut rng, layout, extra).into_iter().enumerate() {
                let e = ObjectEntry::new(x, y, RowLocator::new((n + i) as u64 * 100));
                index.ingest_entry(e, &[x, y, 1.0]).unwrap();
            }
            assert_all_leaves_match(&index, &mut rng, &mut seen);
        }
        assert!(
            seen.iter().all(|&n| n > 100),
            "blocks met (all, none, some): {seen:?}"
        );
    }

    #[test]
    fn invariants_catch_a_stale_zone_map() {
        let points: Vec<(f64, f64)> = (0..200).map(|i| (i as f64, i as f64)).collect();
        let mut index = ValinorIndex::new(Schema::synthetic(3), domain(), 1, 1).unwrap();
        index.install_cell(0, Leaf::from_entries(entries_of(&points)));
        index.validate_invariants().unwrap();
        let root = index.root_tile(0);
        let good = index.tile(root).state.clone();
        let with = |index: &mut ValinorIndex, f: &dyn Fn(&mut Vec<ZoneBox>)| {
            let tile = index.tile_mut(root);
            tile.state = good.clone();
            if let TileState::Leaf(leaf) = &mut tile.state {
                f(leaf.zones_mut());
            }
            index.validate_invariants()
        };
        assert!(
            with(&mut index, &|z| z[1].x_hi = 100.0).is_err(),
            "an entry escapes"
        );
        assert!(
            with(&mut index, &|z| z.truncate(2)).is_err(),
            "a block has no box"
        );
        assert!(
            with(&mut index, &|z| z.push(z[0])).is_err(),
            "a box too many"
        );
        assert!(with(&mut index, &|_| {}).is_ok());
    }
}
