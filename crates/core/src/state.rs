//! Per-query bookkeeping for the partial-adaptation loop.
//!
//! A query's answer decomposes into an **exact part** (covered tiles with
//! exact metadata, plus every tile processed so far) and a set of
//! **candidates** — tiles whose contribution is still only bounded. The
//! [`QueryState`] holds both; each processing step moves one candidate into
//! the exact part, monotonically tightening every confidence interval.

use pai_common::{AttrId, Result, RunningStats};
use pai_index::{AttrMeta, Classification, TileId, ValinorIndex};

use crate::ci::Contribution;

/// What kind of work "processing" this candidate means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidateKind {
    /// Partially-contained tile: process = read selected objects + split
    /// (the paper's `process(t)`).
    Partial,
    /// Covered leaf that only has bounded metadata for some requested
    /// attribute, under no ancestor exact for all of them (possible after
    /// window-only splits or with metadata-free initialization): process =
    /// enrichment read.
    ///
    /// The paper assumes full tiles always carry exact metadata; this
    /// generalization keeps the engine sound when they do not.
    FullBounded,
}

/// A tile whose contribution to the current query is still an interval.
#[derive(Debug, Clone)]
pub struct Candidate {
    pub tile: TileId,
    /// `count(t∩Q)` — exact, from indexed axis values.
    pub selected: u64,
    pub kind: CandidateKind,
    /// Its contribution per query attribute, built once from the tile's
    /// metadata (falling back to global column bounds). `None` means no
    /// bounds exist at all for that attribute, making the query CI
    /// unbounded until this tile is processed.
    pub parts: Vec<Option<Contribution>>,
}

impl Candidate {
    /// The tile's contribution to query-attribute `i`; `None` when it has
    /// no bounds at all.
    #[inline]
    pub fn contribution(&self, i: usize) -> Option<Contribution> {
        self.parts[i]
    }
}

/// Partial tiles one query has already processed: per tile, how many objects
/// its plan selected and their exact in-window statistics, one per query
/// attribute.
pub(crate) type ResolvedTiles = std::collections::HashMap<TileId, (u64, Vec<RunningStats>)>;

/// The evolving state of one approximate query evaluation.
#[derive(Debug, Clone, Default)]
pub struct QueryState {
    /// Distinct non-axis attributes the query aggregates over.
    pub attrs: Vec<AttrId>,
    /// Exact number of selected objects (all tiles).
    pub selected_total: u64,
    /// Exact per-attribute stats accumulated so far (same order as `attrs`).
    pub exact: Vec<RunningStats>,
    /// Tiles whose contribution is still bounded.
    pub candidates: Vec<Candidate>,
    /// Covered tiles — leaves or inner tiles — answered directly from exact
    /// metadata.
    pub full_exact_tiles: usize,
}

impl QueryState {
    /// Builds the initial state from a classification: exact metadata is
    /// folded immediately; everything else becomes a candidate.
    pub fn from_classification(
        index: &ValinorIndex,
        classification: &Classification,
        attrs: &[AttrId],
    ) -> Result<QueryState> {
        Self::from_classification_resolved(index, classification, attrs, &Default::default())
    }

    /// Like [`Self::from_classification`], but partial tiles present in
    /// `resolved` fold their (previously computed) exact in-window stats
    /// into the exact part instead of becoming candidates again.
    ///
    /// This is the re-planning primitive of the evaluation loop: a query
    /// that rebuilds its state after another writer moved the index (only
    /// possible through `crate::concurrent::SharedIndex`) must not re-read
    /// tiles it already processed — values in the raw file are immutable, so the
    /// remembered stats stay exact for the objects they were computed over.
    /// Those are the tile's in-window objects *as planned*: each entry of
    /// `resolved` carries that count, and folds only while the fresh
    /// classification still selects as many. A tile an ingest has grown
    /// inside the window since is a candidate again — its count would
    /// otherwise include a row its sums do not.
    pub(crate) fn from_classification_resolved(
        index: &ValinorIndex,
        classification: &Classification,
        attrs: &[AttrId],
        resolved: &ResolvedTiles,
    ) -> Result<QueryState> {
        let mut state = QueryState {
            attrs: attrs.to_vec(),
            selected_total: classification.selected_total,
            exact: vec![RunningStats::new(); attrs.len()],
            candidates: Vec::new(),
            full_exact_tiles: 0,
        };

        for &covering in &classification.full {
            index.resolve_covered(covering, attrs, &mut |tid, exact| {
                let tile = index.tile(tid);
                if exact {
                    for (acc, &a) in state.exact.iter_mut().zip(attrs) {
                        let stats = tile.meta.get(a).and_then(AttrMeta::exact_stats);
                        acc.merge(stats.expect("resolve_covered said exact"));
                    }
                    state.full_exact_tiles += 1;
                } else {
                    state.candidates.push(Candidate {
                        tile: tid,
                        selected: tile.object_count(),
                        kind: CandidateKind::FullBounded,
                        parts: Self::parts(index, tid, tile.object_count(), attrs),
                    });
                }
            });
        }

        for pt in &classification.partial {
            if let Some((_, stats)) = resolved.get(&pt.tile).filter(|r| r.0 == pt.selected) {
                debug_assert_eq!(stats.len(), attrs.len());
                for (acc, s) in state.exact.iter_mut().zip(stats) {
                    acc.merge(s);
                }
                continue;
            }
            state.candidates.push(Candidate {
                tile: pt.tile,
                selected: pt.selected,
                kind: CandidateKind::Partial,
                parts: Self::parts(index, pt.tile, pt.selected, attrs),
            });
        }
        Ok(state)
    }

    /// Contributions of `selected` objects of `tile`, per query attribute:
    /// from the tile's own metadata when present, else from the global
    /// column bounds.
    fn parts(
        index: &ValinorIndex,
        tile: TileId,
        selected: u64,
        attrs: &[AttrId],
    ) -> Vec<Option<Contribution>> {
        let meta = &index.tile(tile).meta;
        attrs
            .iter()
            .map(|&a| match meta.get(a) {
                Some(m) => Some(Contribution::of_tile(selected, m)),
                None => index
                    .global_meta(a)
                    .map(|m| Contribution::of_tile(selected, &m)),
            })
            .collect()
    }

    /// Moves candidate `i` into the exact part with its freshly computed
    /// per-attribute stats (swap-removes; order of candidates is not
    /// meaningful).
    pub fn resolve(&mut self, i: usize, stats: &[RunningStats]) {
        debug_assert_eq!(stats.len(), self.attrs.len());
        for (acc, s) in self.exact.iter_mut().zip(stats) {
            acc.merge(s);
        }
        self.candidates.swap_remove(i);
    }

    /// True once every contribution is exact.
    pub fn fully_resolved(&self) -> bool {
        self.candidates.is_empty()
    }

    /// Position of attribute `a` in the query's attribute list.
    pub fn attr_pos(&self, a: AttrId) -> usize {
        self.attrs
            .iter()
            .position(|&x| x == a)
            .expect("aggregate attr was registered in query_attrs")
    }

    /// Test helper: a synthetic state with no index behind it.
    #[doc(hidden)]
    pub fn synthetic(
        attrs: Vec<AttrId>,
        selected_total: u64,
        exact: Vec<RunningStats>,
        candidates: Vec<Candidate>,
    ) -> QueryState {
        QueryState {
            attrs,
            selected_total,
            exact,
            candidates,
            full_exact_tiles: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pai_common::geometry::Rect;
    use pai_common::Interval;
    use pai_index::{build_test_index, TestIndexSpec};

    /// A window's classification and the query state built from it.
    fn classify_and_build(
        index: &ValinorIndex,
        window: &Rect,
        attrs: &[AttrId],
    ) -> Result<(Classification, QueryState)> {
        let classification = index.classify(window);
        let state = QueryState::from_classification(index, &classification, attrs)?;
        Ok((classification, state))
    }

    fn spec(metadata: bool) -> TestIndexSpec {
        TestIndexSpec {
            domain: Rect::new(0.0, 30.0, 0.0, 30.0),
            grid: (3, 3),
            // (x, y, value) triples; col2 is the value attribute.
            objects: vec![
                (5.0, 5.0, 10.0),
                (11.0, 5.0, 20.0),
                (11.0, 8.0, 30.0),
                (25.0, 25.0, 40.0),
            ],
            with_metadata: metadata,
        }
    }

    fn test_state(metadata: bool) -> (ValinorIndex, QueryState) {
        let index = build_test_index(&spec(metadata));
        let window = Rect::new(0.0, 12.0, 0.0, 12.0);
        let (_, state) = classify_and_build(&index, &window, &[2]).unwrap();
        (index, state)
    }

    #[test]
    fn builds_exact_and_candidates() {
        let (_, state) = test_state(true);
        // Cell [0,10)^2 fully contained with exact meta -> exact part.
        assert_eq!(state.full_exact_tiles, 1);
        assert_eq!(state.exact[0].sum(), 10.0);
        // Cell [10,20)x[0,10) partially contained with 2 selected objects.
        assert_eq!(state.candidates.len(), 1);
        let c = &state.candidates[0];
        assert_eq!(c.kind, CandidateKind::Partial);
        assert_eq!(c.selected, 2);
        let part = c.contribution(0).expect("exact metadata bounds the tile");
        assert_eq!(part.values, Some(Interval::new(20.0, 30.0)));
        // The paper's rule alone: 2 selected x [20,30].
        let paper = Contribution {
            whole: None,
            ..part
        };
        assert_eq!(paper.sum_bounds(), Interval::new(40.0, 60.0));
        // The window takes both of the tile's objects, whose sum is 50: the
        // complement rule leaves only its rounding slack around it.
        assert_eq!(part.whole, Some((2, 50.0)));
        let slack = crate::ci::sum_slack(2, 30.0).unwrap();
        let sum = part.sum_bounds();
        assert!(sum.contains(50.0) && sum.width() < 3.0 * slack, "{sum}");
        assert_eq!(state.selected_total, 3);
    }

    #[test]
    fn no_metadata_falls_back_to_global_bounds() {
        let (index, state) = test_state(false);
        // build_test_index folds global bounds even without tile metadata.
        assert!(index.global_bounds(2).is_some());
        let c = &state.candidates[0];
        let values = c.contribution(0).and_then(|part| part.values);
        assert_eq!(values, Some(Interval::new(10.0, 40.0)));
    }

    #[test]
    fn covered_inner_tiles_fold_without_a_descent() {
        let (index, file) = pai_index::build_test_index_with_file(&spec(true));
        // An exact query cutting the middle-bottom cell splits it; the
        // out-of-window child keeps only inherited bounds.
        let adapt = pai_index::AdaptConfig {
            min_split_objects: 1,
            ..Default::default()
        };
        let config = crate::EngineConfig {
            adapt,
            ..Default::default()
        };
        let mut engine = crate::ApproximateEngine::new(index, &file, config).unwrap();
        let cut = Rect::new(0.0, 12.0, 0.0, 6.0);
        engine
            .evaluate_exact(&cut, &[pai_common::AggregateFunction::Sum(2)])
            .unwrap();
        let index = engine.into_index();
        let window = Rect::new(0.0, 20.0, 0.0, 10.0);
        let (c, state) = classify_and_build(&index, &window, &[2]).unwrap();
        assert!(c.full.iter().any(|&t| !index.tile(t).is_leaf()));
        assert_eq!(c.full.len(), 2, "one covering tile a root cell");
        // The split cell answers from the stats it kept, bounded child and
        // all; a COUNT-only query stops at every covering tile by definition.
        assert!(state.candidates.is_empty());
        assert_eq!(state.full_exact_tiles, 2);
        assert_eq!((state.exact[0].sum(), state.selected_total), (60.0, 3));
        let (_, counting) = classify_and_build(&index, &window, &[]).unwrap();
        assert_eq!(counting.full_exact_tiles, 2);
    }

    #[test]
    fn remembered_stats_fold_only_while_the_tile_selects_as_many_objects() {
        let (index, state) = test_state(true);
        let classification = index.classify(&Rect::new(0.0, 12.0, 0.0, 12.0));
        let tile = state.candidates[0].tile;
        let stats = vec![RunningStats::from_values(&[20.0, 30.0])];
        let build = |remembered: u64| {
            let resolved = ResolvedTiles::from([(tile, (remembered, stats.clone()))]);
            QueryState::from_classification_resolved(&index, &classification, &[2], &resolved)
                .unwrap()
        };
        // Remembered over the two objects the window still selects: folded.
        let same = build(2);
        assert!(same.fully_resolved());
        assert_eq!((same.exact[0].sum(), same.exact[0].count()), (60.0, 3));
        // Remembered over one: the tile has grown inside the window since
        // (an ingest between two rounds), and answering from the remembered
        // sums would count an object they do not hold.
        let grown = build(1);
        assert_eq!(grown.candidates.len(), 1);
        assert_eq!(
            (grown.candidates[0].tile, grown.candidates[0].selected),
            (tile, 2)
        );
        assert_eq!((grown.exact[0].sum(), grown.exact[0].count()), (10.0, 1));
        assert_eq!(grown.selected_total, same.selected_total);
    }

    #[test]
    fn resolve_moves_candidate_to_exact() {
        let (_, mut state) = test_state(true);
        let stats = vec![RunningStats::from_values(&[20.0, 30.0])];
        state.resolve(0, &stats);
        assert!(state.fully_resolved());
        assert_eq!(state.exact[0].sum(), 60.0);
        assert_eq!(state.exact[0].count(), 3);
    }

    #[test]
    fn candidate_sum_width_metric() {
        let (_, state) = test_state(true);
        let width = |c: &Candidate| {
            c.contribution(0)
                .map_or(f64::INFINITY, |part| part.sum_bounds().width())
        };
        // Both of the tile's objects are selected: the complement rule
        // leaves its rounding slack, the paper's rule alone 2 x (30-20).
        let c = &state.candidates[0];
        let w = width(c);
        assert!(w > 0.0 && w < 3.0 * crate::ci::sum_slack(2, 30.0).unwrap());
        let paper = Candidate {
            parts: vec![c.contribution(0).map(|part| Contribution {
                whole: None,
                ..part
            })],
            ..c.clone()
        };
        assert!((width(&paper) - 20.0).abs() < 1e-12, "2 x (30-20)");
        let unbounded = Candidate {
            tile: TileId(0),
            selected: 1,
            kind: CandidateKind::Partial,
            parts: vec![None],
        };
        assert!(width(&unbounded).is_infinite());
        assert_eq!(unbounded.contribution(0), None);
    }

    #[test]
    fn attr_pos_lookup() {
        let state = QueryState::synthetic(vec![4, 2], 0, vec![], vec![]);
        assert_eq!(state.attr_pos(4), 0);
        assert_eq!(state.attr_pos(2), 1);
    }
}
